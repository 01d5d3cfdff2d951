//! Quickstart: count triangles sequentially and on a simulated
//! distributed-memory machine, and read the communication statistics.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use cetric::core::seq;
use cetric::prelude::*;

fn main() {
    // 1. Get a graph. Generators are deterministic: same seed → same graph.
    //    (Alternatively: cetric::graph::io::load_graph("my_edges.txt").)
    let n = 10_000;
    let g = cetric::gen::rgg2d_default(n, 42);
    println!(
        "graph: n = {}, m = {}, wedges = {}",
        g.num_vertices(),
        g.num_edges(),
        g.num_wedges()
    );

    // 2. Sequential baseline: COMPACT-FORWARD (degree-ordered EDGEITERATOR).
    let s = seq::compact_forward(&g);
    println!(
        "sequential: {} triangles ({} intersection ops)",
        s.triangles, s.ops
    );

    // 3. Distributed: CETRIC on 8 simulated PEs. The graph is 1D-partitioned
    //    by vertex id; each PE runs as a thread; every message is metered.
    let p = 8;
    let r = count(&g, p, Algorithm::Cetric, &Algorithm::Cetric.config())
        .expect("in-memory run cannot OOM");
    assert_eq!(r.triangles, s.triangles);
    println!("\nCETRIC on {p} PEs: {} triangles", r.triangles);

    // 4. Inspect the per-phase statistics the paper's evaluation plots.
    let model = CostModel::supermuc();
    println!(
        "{:<15} {:>12} {:>12} {:>14} {:>12}",
        "phase", "msgs", "words", "work(ops)", "time(model)"
    );
    for ph in &r.stats.phases {
        println!(
            "{:<15} {:>12} {:>12} {:>14} {:>9.3} ms",
            ph.name,
            ph.per_rank.iter().map(|c| c.sent_messages).sum::<u64>(),
            ph.total_volume(),
            ph.total_work(),
            ph.modeled_time(&model) * 1e3
        );
    }
    println!(
        "total modeled time: {:.3} ms | bottleneck volume: {} words | max msgs/PE: {}",
        r.modeled_time(&model) * 1e3,
        r.stats.bottleneck_volume(),
        r.stats.max_sent_messages()
    );

    // 5. Compare algorithm variants on the same graph.
    println!(
        "\n{:<22} {:>10} {:>14} {:>12}",
        "algorithm", "msgs", "volume(words)", "time(model)"
    );
    for alg in Algorithm::all() {
        match count(&g, p, alg, &alg.config()) {
            Ok(r) => println!(
                "{:<22} {:>10} {:>14} {:>9.3} ms",
                alg.name(),
                r.stats.total_messages(),
                r.stats.total_volume(),
                r.modeled_time(&model) * 1e3
            ),
            Err(e) => println!("{:<22} failed: {e}", alg.name()),
        }
    }
}

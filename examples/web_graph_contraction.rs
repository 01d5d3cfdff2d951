//! When does CETRIC's contraction pay off? — the paper's network-speed
//! trade-off, §V-D/§V-E.
//!
//! The paper's headline surprise: on SuperMUC-NG's fast interconnect, the
//! *local work* dominates, so DITRIC (no contraction, less local work) can
//! beat CETRIC even though CETRIC moves up to 4× fewer bytes. On slower
//! networks ("large cloud computing environments") the prediction reverses.
//! This example reproduces both regimes on a web-graph proxy by pricing the
//! *same* execution traces with two cost models.
//!
//! Run with:
//! ```text
//! cargo run --release --example web_graph_contraction
//! ```

use cetric::prelude::*;

fn main() {
    // webbase-2001 proxy: sparse web graph with strong id locality — the
    // instance where the paper sees contraction halve the global phase.
    let g = Dataset::Webbase2001.generate(1 << 13, 3);
    println!(
        "webbase-like proxy: n = {}, m = {}",
        g.num_vertices(),
        g.num_edges()
    );

    let p = 16;
    let ditric = count(&g, p, Algorithm::Ditric, &Algorithm::Ditric.config()).unwrap();
    let cetric = count(&g, p, Algorithm::Cetric, &Algorithm::Cetric.config()).unwrap();
    assert_eq!(ditric.triangles, cetric.triangles);
    println!("triangles: {} (both algorithms agree)\n", ditric.triangles);

    let volume = |r: &CountResult, phase: &str| -> u64 {
        r.stats
            .phases
            .iter()
            .filter(|ph| ph.name == phase)
            .map(|ph| ph.total_volume())
            .sum()
    };
    let work = |r: &CountResult| r.stats.total_work();

    println!(
        "{:<10} {:>16} {:>16} {:>14}",
        "", "global volume", "local work", "messages"
    );
    println!(
        "{:<10} {:>16} {:>16} {:>14}",
        "DITRIC",
        volume(&ditric, "global"),
        work(&ditric),
        ditric.stats.total_messages()
    );
    println!(
        "{:<10} {:>16} {:>16} {:>14}",
        "CETRIC",
        volume(&cetric, "global"),
        work(&cetric),
        cetric.stats.total_messages()
    );
    println!(
        "\ncontraction cuts global volume by {:.2}x, costs {:.2}x local work",
        volume(&ditric, "global") as f64 / volume(&cetric, "global").max(1) as f64,
        work(&cetric) as f64 / work(&ditric).max(1) as f64,
    );

    // Price the same traces under both network regimes.
    for (label, model) in [
        (
            "SuperMUC-like (alpha=2us, 100Gbit/s)",
            CostModel::supermuc(),
        ),
        ("cloud-like    (alpha=50us, 10Gbit/s)", CostModel::cloud()),
    ] {
        let td = ditric.modeled_time(&model) * 1e3;
        let tc = cetric.modeled_time(&model) * 1e3;
        let winner = if td <= tc { "DITRIC" } else { "CETRIC" };
        println!("\n[{label}]\n  DITRIC {td:>9.3} ms | CETRIC {tc:>9.3} ms  ->  {winner} wins");
    }
    println!(
        "\n(the paper, §V-E: \"We still expect our contraction-based algorithm \
         variant to outperform DITRIC on a system with slower network \
         interconnects. This may for example be the case in large cloud \
         computing environments.\")"
    );
}

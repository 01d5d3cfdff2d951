//! "Using a sledgehammer to crack a nut": triangle counting on road
//! networks (paper §V-E, last paragraph).
//!
//! Road networks have tiny cuts and almost no triangles; the point of the
//! paper's road experiments is not speed but showing that the algorithms
//! "do not hit a scaling wall, even on small inputs". This example runs a
//! strong-scaling sweep on a Europe-like road proxy and prints time,
//! message and volume curves; TriC-like's single-batch communication is
//! initially competitive (tiny volume) but its message count explodes with
//! p — the crossover the paper reports.
//!
//! Run with:
//! ```text
//! cargo run --release --example road_network_scaling
//! ```

use cetric::prelude::*;

fn main() {
    let g = Dataset::RoadEurope.generate(1 << 14, 5);
    let seq = cetric::core::seq::compact_forward(&g);
    println!(
        "europe-like road proxy: n = {}, m = {}, triangles = {}\n",
        g.num_vertices(),
        g.num_edges(),
        seq.triangles
    );

    let model = CostModel::supermuc();
    let algs = [
        Algorithm::Ditric,
        Algorithm::Ditric2,
        Algorithm::Cetric,
        Algorithm::TricLike,
    ];
    print!("{:>5}", "p");
    for a in algs {
        print!(" | {:>22}", a.name());
    }
    println!("\n{:>5} | modeled ms / msgs / bottleneck words", "");
    for p in [2usize, 4, 8, 16, 32] {
        print!("{p:>5}");
        for alg in algs {
            match count(&g, p, alg, &alg.config()) {
                Ok(r) => {
                    assert_eq!(r.triangles, seq.triangles, "{alg:?} p={p}");
                    print!(
                        " | {:>8.3} {:>6} {:>6}",
                        r.modeled_time(&model) * 1e3,
                        r.stats.max_sent_messages(),
                        r.stats.bottleneck_volume()
                    );
                }
                Err(e) => print!(" | {:>22}", format!("OOM: {e}")),
            }
        }
        println!();
    }
    println!(
        "\nreading: tiny cuts keep every algorithm cheap; no variant hits a \
         scaling wall, and indirect routing only matters once p is large."
    );
}

//! Approximate triangle counting with AMQs (paper §IV-E).
//!
//! Instead of exact contracted neighborhoods, the global phase ships Bloom
//! filter sketches; the receiver counts positive membership queries and the
//! truthful estimator subtracts the expected false positives. This trades a
//! controllable error for communication volume — sweeping bits-per-key
//! makes the trade-off visible.
//!
//! Run with:
//! ```text
//! cargo run --release --example approximate_counting
//! ```

use cetric::core::dist::approx::{approx, ApproxConfig, FilterKind};
use cetric::prelude::*;

fn main() {
    // GNM: no locality → almost everything is a type-3 triangle, the case
    // the approximation targets.
    let n = 4_000u64;
    let g = cetric::gen::gnm(n, 16 * n, 11);
    let p = 8;
    let exact = count(&g, p, Algorithm::Cetric, &Algorithm::Cetric.config()).unwrap();
    let exact_volume: u64 = exact
        .stats
        .phases
        .iter()
        .filter(|ph| ph.name == "global")
        .map(|ph| ph.total_volume())
        .sum();
    println!(
        "graph: n = {}, m = {} | exact count: {} (global-phase volume {} words)\n",
        g.num_vertices(),
        g.num_edges(),
        exact.triangles,
        exact_volume
    );

    for filter in [FilterKind::Bloom, FilterKind::SingleShot] {
        println!("--- {filter:?} filter ---");
        println!(
            "{:>12} {:>12} {:>12} {:>10} {:>14} {:>8}",
            "bits/key", "raw", "corrected", "err %", "volume(words)", "vs exact"
        );
        for bits in [2.0, 4.0, 8.0, 12.0, 16.0] {
            let r = approx(
                &g,
                p,
                &DistConfig::default(),
                &ApproxConfig {
                    bits_per_key: bits,
                    filter,
                },
            );
            let vol: u64 = r
                .stats
                .phases
                .iter()
                .filter(|ph| ph.name == "global")
                .map(|ph| ph.total_volume())
                .sum();
            let err = 100.0 * (r.estimate - exact.triangles as f64).abs() / exact.triangles as f64;
            println!(
                "{:>12} {:>12} {:>12.1} {:>9.2}% {:>14} {:>7.2}x",
                bits,
                r.exact_local + r.type3_raw,
                r.estimate,
                err,
                vol,
                vol as f64 / exact_volume as f64
            );
        }
        println!();
    }
    println!(
        "reading: raw counts always overestimate (no false negatives); the \
         truthful estimator removes the bias; fewer bits per key → less \
         volume, more variance."
    );
}

//! The paper's weak-scaling workflow, end to end: KaGen-style
//! communication-free generation feeding the distributed counter — no
//! global graph is ever materialised. Every simulated PE generates exactly
//! its own slice of a random geometric graph (its cells plus a one-cell
//! halo, deterministic substreams) and runs CETRIC on it directly.
//!
//! Run with:
//! ```text
//! cargo run --release --example distributed_generation
//! ```

use cetric::comm;
use cetric::core::dist::cetric as cetric_alg;
use cetric::gen::distributed::{rgg2d_distributed, RggLayout};
use cetric::prelude::*;

fn main() {
    let seed = 42;
    let model = CostModel::supermuc();
    println!("weak scaling with communication-free generation (RGG2D, ~2^11 vertices/PE)\n");
    println!(
        "{:>4} {:>10} {:>10} {:>12} {:>14} {:>12}",
        "p", "n", "m(approx)", "triangles", "modeled time", "bottleneck"
    );
    for p in [1usize, 2, 4, 8, 16] {
        let n_total = (2048 * p) as u64;
        // The layout (cell geometry + per-cell counts) is O(#cells) and
        // computed redundantly by every PE — KaGen's communication-free
        // contract. Point coordinates are only materialised per PE.
        let layout = RggLayout::new(n_total, 24.0, seed);
        let cfg = DistConfig::default();
        let out = comm::run(p, |ctx| {
            // each rank generates ITS OWN subgraph — nothing global exists
            let (_part, lg) = rgg2d_distributed(&layout, p, ctx.rank(), seed);
            let m_local = lg.num_local_entries();
            ctx.end_phase("generate");
            let (triangles, _) = cetric_alg::run_rank(ctx, lg, &cfg);
            (triangles, m_local)
        });
        let triangles = out.results[0].0;
        let m_approx: u64 = out.results.iter().map(|(_, m)| m).sum::<u64>() / 2;
        // sanity: all ranks agree
        assert!(out.results.iter().all(|&(t, _)| t == triangles));
        println!(
            "{:>4} {:>10} {:>10} {:>12} {:>11.3} ms {:>12}",
            p,
            layout.num_vertices(),
            m_approx,
            triangles,
            out.stats.modeled_time(&model) * 1e3,
            out.stats.bottleneck_volume(),
        );
    }
    println!(
        "\nnote: each PE touched only its own cells plus a one-cell halo; the \
         \"generate\" phase is outside the counting phases, exactly like the \
         paper's exclusion of input loading."
    );
}

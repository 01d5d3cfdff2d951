//! Message-passing graph redistribution — the load-balancing experiment of
//! paper §IV-D.
//!
//! Arifuzzaman et al. rebalance vertices with degree-based cost functions
//! and a prefix-sum split, then *reload the graph from disk* (and do not
//! charge that time). The paper's authors "adapted [the approach] to
//! redistribute the graph using message passing, but observed that the
//! overhead of rebalancing does not pay off". This module implements exactly
//! that adaptation: the redistribution travels through a metered dense
//! all-to-all, so the trade — rebalance cost vs. better-balanced counting —
//! is measurable (and the paper's negative finding reproducible, see the
//! `ablations` bench and `rebalancing_overhead` test).

use tricount_comm::{Ctx, SimOptions};
use tricount_graph::dist::{DistGraph, LocalGraph};
use tricount_graph::{Csr, Partition, VertexId};

use crate::config::{Algorithm, DistConfig};
use crate::dist::{count_rank, fold_counts, phases, run_ranks};
use crate::result::{CountResult, DistError};

/// Moves every vertex's neighborhood to its owner under `new_part`, through
/// one dense all-to-all. Wire format per vertex: `[v, deg, neighbors...]`.
pub fn redistribute(ctx: &mut Ctx, lg: &LocalGraph, new_part: &Partition) -> LocalGraph {
    assert_eq!(new_part.num_vertices(), lg.partition().num_vertices());
    let p = ctx.num_ranks();
    let mut outgoing: Vec<Vec<u64>> = vec![Vec::new(); p];
    for v in lg.owned_vertices() {
        let ns = lg.neighbors(v);
        let dest = new_part.rank_of(v);
        let buf = &mut outgoing[dest];
        buf.push(v);
        buf.push(ns.len() as u64);
        buf.extend_from_slice(ns);
    }
    let incoming = ctx.alltoallv(outgoing);
    // old and new partitions are both contiguous in ids, so concatenating
    // the incoming streams in source-rank order restores ascending id order
    let mut neighborhoods: Vec<(VertexId, Vec<VertexId>)> = Vec::new();
    for stream in incoming {
        let mut i = 0usize;
        while i < stream.len() {
            let v = stream[i];
            let deg = stream[i + 1] as usize;
            neighborhoods.push((v, stream[i + 2..i + 2 + deg].to_vec()));
            i += 2 + deg;
        }
    }
    LocalGraph::from_neighborhoods(new_part.clone(), ctx.rank(), neighborhoods)
}

/// Counts triangles with a metered rebalancing step in front: the graph
/// starts vertex-balanced, is redistributed to the cost-function partition
/// (recorded as a `"rebalance"` phase), and counted by `alg` afterwards.
pub fn count_rebalanced(
    g: &Csr,
    p: usize,
    alg: Algorithm,
    cfg: &DistConfig,
    cost: impl Fn(u64) -> u64,
) -> Result<CountResult, DistError> {
    let new_part = Partition::balanced_by_cost(g, p, cost);
    let dg = DistGraph::new_balanced_vertices(g, p);
    let out = run_ranks(dg, &SimOptions::default(), |ctx, lg| {
        let lg = redistribute(ctx, &lg, &new_part);
        ctx.end_phase(phases::REBALANCE);
        count_rank(ctx, lg, alg, cfg)
    })
    .output;
    let (triangles, _) = fold_counts(out.results)?;
    Ok(CountResult {
        triangles,
        stats: out.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq;
    use tricount_comm::CostModel;

    #[test]
    fn redistribution_preserves_the_graph() {
        let g = tricount_gen::rmat_default(8, 4);
        let p = 5;
        let new_part = Partition::balanced_by_cost(&g, p, |d| d);
        let dg = DistGraph::new_balanced_vertices(&g, p);
        let out = run_ranks(dg, &SimOptions::default(), |ctx, lg| {
            let new_lg = redistribute(ctx, &lg, &new_part);
            // return owned neighborhoods for global verification
            new_lg
                .owned_vertices()
                .map(|v| (v, new_lg.neighbors(v).to_vec()))
                .collect::<Vec<_>>()
        });
        let mut all: Vec<(u64, Vec<u64>)> = out.output.results.into_iter().flatten().collect();
        all.sort_by_key(|(v, _)| *v);
        assert_eq!(all.len() as u64, g.num_vertices());
        for (v, ns) in all {
            assert_eq!(ns, g.neighbors(v), "neighborhood of {v} changed");
        }
    }

    #[test]
    fn rebalanced_count_is_correct() {
        let g = tricount_gen::rmat_default(9, 6);
        let truth = seq::compact_forward(&g).triangles;
        for alg in [Algorithm::Ditric, Algorithm::Cetric] {
            let r = count_rebalanced(&g, 6, alg, &alg.config(), |d| d).unwrap();
            assert_eq!(r.triangles, truth, "{alg:?}");
            assert_eq!(r.stats.phases[0].name, "rebalance");
        }
    }

    #[test]
    fn rebalancing_overhead_does_not_pay_off() {
        // the paper's §IV-D finding: redistribution moves the whole graph
        // (volume ≈ input size), which outweighs the balance gain
        let g = tricount_gen::rmat_default(10, 2);
        let p = 8;
        let plain =
            crate::dist::count(&g, p, Algorithm::Ditric, &Algorithm::Ditric.config()).unwrap();
        let rebal =
            count_rebalanced(&g, p, Algorithm::Ditric, &Algorithm::Ditric.config(), |d| d).unwrap();
        assert_eq!(plain.triangles, rebal.triangles);
        let model = CostModel::supermuc();
        assert!(
            rebal.modeled_time(&model) > plain.modeled_time(&model),
            "rebalancing should not pay off end-to-end: {} vs {}",
            rebal.modeled_time(&model),
            plain.modeled_time(&model)
        );
        // but the *load balance* of the counting work does improve — the
        // quantity the cost function optimises (end-to-end time still loses
        // because the redistribution itself moves the whole graph)
        let imbalance = |r: &CountResult| {
            let per_rank: Vec<u64> = (0..p)
                .map(|rk| {
                    r.stats
                        .phases
                        .iter()
                        .filter(|ph| ph.name == "local" || ph.name == "global")
                        .map(|ph| ph.per_rank[rk].work_ops)
                        .sum::<u64>()
                })
                .collect();
            let max = *per_rank.iter().max().unwrap() as f64;
            let mean = per_rank.iter().sum::<u64>() as f64 / p as f64;
            max / mean.max(1.0)
        };
        assert!(
            imbalance(&rebal) < imbalance(&plain),
            "cost-balanced partition should reduce work imbalance: {} vs {}",
            imbalance(&rebal),
            imbalance(&plain)
        );
    }
}

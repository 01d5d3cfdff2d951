//! Distributed edge support (common-neighbor counts for query edges).
//!
//! The support of an edge `{a, b}` is `|N(a) ∩ N(b)|` — the number of
//! triangles the edge participates in. It is the quantity truss
//! decompositions peel on and the natural "edge-granular" query next to the
//! vertex-granular LCC.
//!
//! The protocol is a single sparse exchange in the spirit of the ghost
//! degree exchange: the owner of `a` answers locally when it also owns `b`,
//! and otherwise ships `[query-index, b, |N(a)|, N(a)…]` to `b`'s owner via
//! one `alltoallv`; answerers intersect against their full owned
//! neighborhood `N(b)`. A final `allgatherv` of `(index, support)` pairs
//! lets every rank assemble the identical, deterministic answer vector.

use crate::config::DistConfig;
use crate::dist::dispatch::DispatchReport;
use crate::dist::phases;
use tricount_comm::Ctx;
use tricount_graph::dist::LocalGraph;
use tricount_graph::kernels::Dispatcher;
use tricount_graph::VertexId;

/// Computes the support of each query edge on this rank. All ranks must
/// pass the same `queries` slice; all ranks return the same full answer
/// vector (indexed like `queries`).
///
/// Edges are initiated by the owner of their first endpoint, so `(a, b)`
/// and `(b, a)` yield the same support but may be answered by different
/// ranks. Vertices must be valid global ids; the support of an edge not
/// present in the graph is still the common-neighbor count of its
/// endpoints. Intersections dispatch through `cfg.kernels` (no hub index —
/// support intersects *full* neighborhoods, which the prepared hub index
/// does not cover). Also returns this rank's kernel-dispatch tallies.
pub fn edge_support_rank(
    ctx: &mut Ctx,
    lg: &LocalGraph,
    queries: &[(VertexId, VertexId)],
    cfg: &DistConfig,
) -> (Vec<u64>, DispatchReport) {
    let p = ctx.num_ranks();
    let part = lg.partition().clone();
    let mut d = Dispatcher::new(cfg.kernels);

    // (index, support) pairs this rank can answer, flattened for the final
    // allgather.
    let mut answered: Vec<u64> = Vec::new();
    let mut outgoing: Vec<Vec<u64>> = vec![Vec::new(); p];
    for (idx, &(a, b)) in queries.iter().enumerate() {
        if !lg.is_owned(a) {
            continue;
        }
        let na = lg.neighbors(a);
        if lg.is_owned(b) {
            let (c, ops) = d.count(na, None, lg.neighbors(b), None);
            ctx.add_work(ops + 1);
            answered.push(idx as u64);
            answered.push(c);
        } else {
            let dst = part.rank_of(b);
            outgoing[dst].push(idx as u64);
            outgoing[dst].push(b);
            outgoing[dst].push(na.len() as u64);
            outgoing[dst].extend_from_slice(na);
        }
    }

    let incoming = ctx.alltoallv(outgoing);
    for req in &incoming {
        let mut i = 0usize;
        while i < req.len() {
            let idx = req[i];
            let b = req[i + 1];
            let len = req[i + 2] as usize;
            let na = &req[i + 3..i + 3 + len];
            i += 3 + len;
            let (c, ops) = d.count(na, None, lg.neighbors(b), None);
            ctx.add_work(ops + 1);
            answered.push(idx);
            answered.push(c);
        }
    }

    // Everyone learns every answer and assembles the same vector.
    let gathered = ctx.allgatherv(answered);
    let mut support = vec![0u64; queries.len()];
    for pairs in gathered {
        for pair in pairs.chunks_exact(2) {
            support[pair[0] as usize] = pair[1];
        }
    }
    ctx.end_phase(phases::SUPPORT);
    (support, DispatchReport::of(phases::SUPPORT, d.counters()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::run_ranks;
    use tricount_comm::SimOptions;
    use tricount_graph::dist::DistGraph;
    use tricount_graph::intersect::merge_count;

    #[test]
    fn support_matches_sequential_intersection() {
        let g = tricount_gen::rgg2d_default(200, 5);
        let mut queries: Vec<(VertexId, VertexId)> = Vec::new();
        for v in 0..g.num_vertices() as VertexId {
            for &u in g.neighbors(v) {
                if v < u && queries.len() < 64 {
                    queries.push((v, u));
                }
            }
        }
        // also a non-edge pair and a reversed edge
        queries.push((0, g.num_vertices() as VertexId - 1));
        let (a, b) = queries[0];
        queries.push((b, a));

        let expected: Vec<u64> = queries
            .iter()
            .map(|&(a, b)| merge_count(g.neighbors(a), g.neighbors(b)).0)
            .collect();

        let p = 4;
        let dg = DistGraph::new_balanced_vertices(&g, p);
        let cfg = DistConfig::default();
        let out = run_ranks(dg, &SimOptions::default(), |ctx, lg| {
            edge_support_rank(ctx, &lg, &queries, &cfg).0
        });
        for ranks_answer in &out.output.results {
            assert_eq!(ranks_answer, &expected);
        }
    }
}

//! Distributed triangle *enumeration* (paper §IV-E: "Since each triangle is
//! found exactly once, this can be easily generalized to the case of
//! triangle enumeration"). The CETRIC pipeline, but instead of counting,
//! every rank emits the triangles it discovers; since discovery is unique,
//! the union over ranks is the exact triangle set.

use tricount_comm::{Ctx, Envelope, MessageQueue, QueueConfig, SimOptions};
use tricount_graph::dist::{DistGraph, LocalGraph};
use tricount_graph::intersect::merge_collect;
use tricount_graph::{Csr, VertexId};

use crate::config::DistConfig;
use crate::dist::phases;
use crate::dist::{preprocess, run_ranks};

/// A triangle as an id-sorted triple.
pub type Triangle = (VertexId, VertexId, VertexId);

#[inline]
fn sorted(a: VertexId, b: VertexId, c: VertexId) -> Triangle {
    let mut t = [a, b, c];
    t.sort_unstable();
    (t[0], t[1], t[2])
}

/// Enumerates this rank's share of the triangles (each global triangle is
/// emitted by exactly one rank).
fn run_rank(ctx: &mut Ctx, mut lg: LocalGraph, cfg: &DistConfig) -> Vec<Triangle> {
    preprocess(ctx, &mut lg, cfg);
    let o = lg.orient(cfg.ordering, true);
    ctx.end_phase(phases::PREPROCESSING);

    let mut out: Vec<Triangle> = Vec::new();
    let mut commons: Vec<VertexId> = Vec::new();
    // local phase: type-1/2 triangles
    for v in o.owned_range() {
        let av = o.a_owned(v);
        for &u in av {
            let au = o.a_of(u).expect("head must be owned or ghost");
            commons.clear();
            let ops = merge_collect(av, au, &mut commons);
            ctx.add_work(ops + 1);
            out.extend(commons.iter().map(|&w| sorted(v, u, w)));
        }
    }
    for gi in 0..o.ghost_ids().len() {
        let gv = o.ghost_ids()[gi];
        let av = o.a_ghost(gi);
        for &u in av {
            commons.clear();
            let ops = merge_collect(av, o.a_owned(u), &mut commons);
            ctx.add_work(ops + 1);
            out.extend(commons.iter().map(|&w| sorted(gv, u, w)));
        }
    }
    let contracted = o.contracted();
    ctx.end_phase(phases::LOCAL);

    // global phase: type-3 triangles
    let delta = cfg.resolve_delta(lg.num_local_entries());
    let mut q = MessageQueue::new(
        ctx,
        QueueConfig {
            delta,
            routing: cfg.routing,
        },
    );
    let part = o.partition().clone();
    let owned = o.owned_range();
    let handler = |contracted: &tricount_graph::dist::ContractedGraph,
                   owned: &std::ops::Range<u64>,
                   ctx: &mut Ctx,
                   env: Envelope<'_>,
                   out: &mut Vec<Triangle>,
                   commons: &mut Vec<VertexId>| {
        let v = env.payload[0];
        let a = &env.payload[1..];
        for &u in a {
            if owned.contains(&u) {
                commons.clear();
                let ops = merge_collect(a, contracted.a_of(u), commons);
                ctx.add_work(ops + 1);
                out.extend(commons.iter().map(|&w| sorted(v, u, w)));
            }
        }
    };
    let mut scratch: Vec<u64> = Vec::new();
    let mut commons2: Vec<VertexId> = Vec::new();
    for (v, a) in contracted.nonempty() {
        let mut last_rank: Option<usize> = None;
        for &u in a {
            let j = part.rank_of(u);
            if last_rank == Some(j) {
                continue;
            }
            last_rank = Some(j);
            scratch.clear();
            scratch.push(v);
            scratch.extend_from_slice(a);
            q.post(ctx, j, &scratch);
            while q.poll(ctx, &mut |ctx, env| {
                handler(&contracted, &owned, ctx, env, &mut out, &mut commons2)
            }) {}
        }
    }
    q.finish(ctx, &mut |ctx, env| {
        handler(&contracted, &owned, ctx, env, &mut out, &mut commons2)
    });
    ctx.end_phase(phases::GLOBAL);
    out
}

/// Enumerates all triangles of `g` over `p` PEs (vertex-balanced). Returns
/// the sorted, duplicate-free list of id-sorted triples.
pub fn enumerate(g: &Csr, p: usize, cfg: &DistConfig) -> Vec<Triangle> {
    let dg = DistGraph::new_balanced_vertices(g, p);
    let out = run_ranks(dg, &SimOptions::on(cfg.transport), |ctx, lg| {
        run_rank(ctx, lg, cfg)
    });
    let mut all: Vec<Triangle> = out.output.results.into_iter().flatten().collect();
    all.sort_unstable();
    debug_assert!(
        all.windows(2).all(|w| w[0] != w[1]),
        "duplicate triangle emitted"
    );
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq;
    use tricount_graph::OrderingKind;

    fn expect(g: &tricount_graph::Csr) -> Vec<Triangle> {
        let mut t: Vec<Triangle> = seq::enumerate_triangles(g, OrderingKind::Degree)
            .into_iter()
            .map(|(a, b, c)| sorted(a, b, c))
            .collect();
        t.sort_unstable();
        t
    }

    #[test]
    fn matches_sequential_enumeration() {
        for (g, ps) in [
            (tricount_gen::gnm(200, 1600, 3), vec![1usize, 3, 6]),
            (tricount_gen::rmat_default(8, 5), vec![4, 7]),
            (tricount_gen::rgg2d_default(300, 2), vec![5]),
        ] {
            let want = expect(&g);
            for p in ps {
                let got = enumerate(&g, p, &DistConfig::default());
                assert_eq!(got, want, "p={p}");
            }
        }
    }

    #[test]
    fn every_emitted_triple_is_a_triangle() {
        let g = tricount_gen::rhg_default(300, 9);
        let tris = enumerate(&g, 4, &DistConfig::default());
        for (a, b, c) in &tris {
            assert!(a < b && b < c);
            assert!(g.has_edge(*a, *b) && g.has_edge(*b, *c) && g.has_edge(*a, *c));
        }
        assert_eq!(tris.len() as u64, seq::compact_forward(&g).triangles);
    }

    #[test]
    fn no_duplicates_across_ranks() {
        let g = tricount_gen::gnm(150, 2000, 8);
        let tris = enumerate(&g, 8, &DistConfig::default());
        let mut dedup = tris.clone();
        dedup.dedup();
        assert_eq!(tris.len(), dedup.len());
    }
}

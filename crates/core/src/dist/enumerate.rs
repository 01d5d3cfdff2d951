//! Distributed triangle *enumeration* (paper §IV-E: "Since each triangle is
//! found exactly once, this can be easily generalized to the case of
//! triangle enumeration"). LCC's rank body — `prepare_rank`, then the
//! shared triangle listing over `dist::local_pass` and `dist::global_pass`
//! — with a sink that emits each triangle instead of bumping its corners;
//! since discovery is unique, the union over ranks is the exact triangle
//! set.

use tricount_comm::{Ctx, SimOptions};
use tricount_graph::dist::{DistGraph, LocalGraph};
use tricount_graph::{Csr, VertexId};

use crate::config::DistConfig;
use crate::dist::lcc::list_triangles;
use crate::dist::residency::prepare_rank;
use crate::dist::run_ranks;

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
pub(crate) fn run_rank(ctx: &mut Ctx, lg: LocalGraph, cfg: &DistConfig) -> Vec<Triangle> {
    let prep = prepare_rank(ctx, lg, cfg);
    let ids = prep.oriented.ids();
    let emit = |out: &mut Vec<Triangle>, v, u, w| {
        out.push(sorted(ids.global_of(v), ids.global_of(u), ids.global_of(w)))
    };
    list_triangles(ctx, &prep, cfg, Vec::new, |t, part| t.extend(part), emit).0
}

/// Enumerates all triangles of `g` over `p` PEs (`DistGraph::new`). Returns
/// the sorted, duplicate-free list of id-sorted triples.
pub fn enumerate(g: &Csr, p: usize, cfg: &DistConfig) -> Vec<Triangle> {
    let dg = DistGraph::new(g, p);
    let out = run_ranks(dg, &SimOptions::default(), |ctx, lg| run_rank(ctx, lg, cfg));
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

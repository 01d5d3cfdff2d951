//! Lemma 1 of the paper (§IV-C): a vertex set `{u, v, w}` induces a triangle
//! in the cut graph `∂G` **iff** it is a type-3 triangle of `G` (all three
//! corners on distinct PEs). This is the fact that makes CETRIC's
//! contraction correct; we verify it graph-theoretically, independent of the
//! distributed implementation, plus the supporting type-classification
//! identities.

use cetric::core::seq;
use cetric::prelude::*;
use tricount_graph::ordering::OrderingKind;

/// Classifies every triangle of `g` by the number of distinct owner ranks.
/// Returns (type1, type2, type3) counts.
fn classify(g: &Csr, part: &Partition) -> (u64, u64, u64) {
    let mut t1 = 0u64;
    let mut t2 = 0u64;
    let mut t3 = 0u64;
    for (a, b, c) in seq::enumerate_triangles(g, OrderingKind::Id) {
        let mut ranks = [part.rank_of(a), part.rank_of(b), part.rank_of(c)];
        ranks.sort_unstable();
        let distinct = 1 + usize::from(ranks[0] != ranks[1]) + usize::from(ranks[1] != ranks[2]);
        match distinct {
            1 => t1 += 1,
            2 => t2 += 1,
            _ => t3 += 1,
        }
    }
    (t1, t2, t3)
}

/// Builds the cut graph ∂G: only edges whose endpoints live on different PEs.
fn cut_graph(g: &Csr, part: &Partition) -> Csr {
    let el: EdgeList = g
        .edges()
        .filter(|&(u, v)| part.rank_of(u) != part.rank_of(v))
        .collect();
    Csr::from_edges(g.num_vertices(), &el)
}

fn check_lemma(g: &Csr, p: usize) {
    let part = Partition::balanced_vertices(g.num_vertices(), p);
    let (t1, t2, t3) = classify(g, &part);
    assert_eq!(
        t1 + t2 + t3,
        seq::compact_forward(g).triangles,
        "classification must cover all triangles"
    );
    let cut = cut_graph(g, &part);
    let cut_triangles = seq::compact_forward(&cut).triangles;
    assert_eq!(cut_triangles, t3, "Lemma 1 violated for p={p}");
}

#[test]
fn lemma1_on_synthetic_families() {
    for fam in Family::all() {
        let g = fam.generate(512, 7);
        for p in [2usize, 3, 5, 8, 16] {
            check_lemma(&g, p);
        }
    }
}

#[test]
fn lemma1_on_dataset_proxies() {
    for ds in Dataset::all() {
        let g = ds.generate(400, 3);
        check_lemma(&g, 6);
    }
}

#[test]
fn lemma1_extreme_partitions() {
    let g = cetric::gen::gnm(120, 1200, 5);
    // p = 1: everything type 1, cut graph empty
    let part = Partition::balanced_vertices(g.num_vertices(), 1);
    let (t1, t2, t3) = classify(&g, &part);
    assert_eq!(t2 + t3, 0);
    assert_eq!(t1, seq::compact_forward(&g).triangles);
    assert_eq!(cut_graph(&g, &part).num_edges(), 0);
    // p = n: every vertex its own PE → everything type 3, ∂G = G
    check_lemma(&g, 120);
    let part_n = Partition::balanced_vertices(g.num_vertices(), 120);
    let (t1, t2, t3) = classify(&g, &part_n);
    assert_eq!(t1 + t2, 0);
    assert_eq!(t3, seq::compact_forward(&g).triangles);
}

#[test]
fn local_phase_share_matches_type_counts() {
    // CETRIC's global-phase communication carries only contracted
    // neighborhoods; on a graph with NO type-3 triangles the global phase
    // must still run (cut edges exist) but contribute zero triangles —
    // total equals type1+type2 found locally.
    // Construct: two cliques on separate PEs joined by a matching (cut
    // edges that close no triangle).
    let mut el = EdgeList::new();
    for i in 0..6u64 {
        for j in (i + 1)..6 {
            el.push(i, j); // clique on PE0 (vertices 0..6)
        }
    }
    for i in 6..12u64 {
        for j in (i + 1)..12 {
            el.push(i, j); // clique on PE1 (vertices 6..12)
        }
    }
    el.push(0, 6); // matching edges
    el.push(1, 7);
    el.canonicalize();
    let g = Csr::from_edges(12, &el);
    let part = Partition::balanced_vertices(12, 2);
    let (t1, t2, t3) = classify(&g, &part);
    assert_eq!((t1, t2, t3), (40, 0, 0)); // two K6 = 2·20 triangles
    let r = count(&g, 2, Algorithm::Cetric, &Algorithm::Cetric.config()).unwrap();
    assert_eq!(r.triangles, 40);
    // cut graph of a matching is triangle-free
    assert_eq!(seq::compact_forward(&cut_graph(&g, &part)).triangles, 0);
}

#[test]
fn contracted_neighborhoods_are_exactly_oriented_cut_edges() {
    let g = cetric::gen::rgg2d_default(400, 9);
    let mut dg = DistGraph::new(&g, 4);
    dg.fill_ghost_degrees_centrally();
    for r in 0..4 {
        let o = dg.local(r).orient(OrderingKind::Degree, true);
        let c = o.contracted();
        let ids = o.ids();
        // every contracted entry is a cut edge oriented outward
        let range = dg.partition().range(r);
        for (v, a) in c.nonempty() {
            let v = ids.global_of(v);
            assert!(range.contains(&v));
            for &u in a {
                let u = ids.global_of(u);
                assert!(!range.contains(&u), "contracted entry ({v},{u}) not cut");
                assert!(g.has_edge(v, u), "contracted entry not an edge");
            }
        }
        // and their count matches the oriented cut edges of the local graph
        let oriented_cut: u64 = ids
            .owned()
            .map(|v| o.a(v).iter().filter(|&&u| !ids.is_owned(u)).count() as u64)
            .sum();
        assert_eq!(c.num_entries(), oriented_cut);
    }
}

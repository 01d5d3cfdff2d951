//! Sequential triangle counting: EDGEITERATOR (Algorithm 1) /
//! COMPACT-FORWARD, triangle enumeration, per-vertex counts and local
//! clustering coefficients. These serve three roles: the single-PE baseline,
//! the kernel run on CETRIC's expanded local graphs, and the ground truth
//! every distributed variant is tested against.

use tricount_graph::intersect::{merge_collect, merge_count};
use tricount_graph::ordering::{orient, OrderingKind};
use tricount_graph::{Csr, VertexId};

/// Result of a sequential count: triangles and metered work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqCount {
    /// Number of triangles.
    pub triangles: u64,
    /// Intersection candidate comparisons performed.
    pub ops: u64,
}

/// EDGEITERATOR (Algorithm 1): orients `g` by `kind` and sums
/// `|N_v⁺ ∩ N_u⁺|` over directed edges `(v, u)`. With
/// [`OrderingKind::Degree`] this is COMPACT-FORWARD.
pub fn edge_iterator(g: &Csr, kind: OrderingKind) -> SeqCount {
    let o = orient(g, kind);
    let mut triangles = 0u64;
    let mut ops = 0u64;
    for v in o.vertices() {
        let av = o.neighbors(v);
        for &u in av {
            let (c, w) = merge_count(av, o.neighbors(u));
            triangles += c;
            ops += w;
        }
    }
    SeqCount { triangles, ops }
}

/// COMPACT-FORWARD: EDGEITERATOR under the degree order (the paper's
/// sequential default).
pub fn compact_forward(g: &Csr) -> SeqCount {
    edge_iterator(g, OrderingKind::Degree)
}

/// Enumerates all triangles as `(v, u, w)` triples (each triangle exactly
/// once; vertices ordered by the chosen total order, reported by id).
pub fn enumerate_triangles(g: &Csr, kind: OrderingKind) -> Vec<(VertexId, VertexId, VertexId)> {
    let o = orient(g, kind);
    let mut out = Vec::new();
    let mut common = Vec::new();
    for v in o.vertices() {
        let av = o.neighbors(v);
        for &u in av {
            common.clear();
            merge_collect(av, o.neighbors(u), &mut common);
            for &w in &common {
                out.push((v, u, w));
            }
        }
    }
    out
}

/// Per-vertex triangle counts `Δ(v)` (each triangle contributes 1 to each of
/// its three corners).
pub fn per_vertex_counts(g: &Csr, kind: OrderingKind) -> Vec<u64> {
    let mut delta = vec![0u64; g.num_vertices() as usize];
    for (v, u, w) in enumerate_triangles(g, kind) {
        delta[v as usize] += 1;
        delta[u as usize] += 1;
        delta[w as usize] += 1;
    }
    delta
}

/// Local clustering coefficients `LCC(v) = Δ(v) / (d_v·(d_v−1)/2)` —
/// the fraction of closed wedges at `v`, normalised to `[0, 1]`
/// (0 for vertices of degree < 2).
pub fn local_clustering_coefficients(g: &Csr, kind: OrderingKind) -> Vec<f64> {
    let delta = per_vertex_counts(g, kind);
    g.vertices()
        .map(|v| {
            let d = g.degree(v);
            if d < 2 {
                0.0
            } else {
                delta[v as usize] as f64 / (d * (d - 1) / 2) as f64
            }
        })
        .collect()
}

/// COMPACT-FORWARD over a compressed graph: orientation and counting happen
/// on streaming varint-decoded neighborhoods (the compressed-graph
/// processing of Dhulipala et al. that §III-A1 cites). Several-fold smaller
/// working set on id-local graphs, at extra decode work per comparison.
pub fn compact_forward_compressed(g: &tricount_graph::compressed::CompressedCsr) -> SeqCount {
    use tricount_graph::compressed::CompressedCsr;
    use tricount_graph::intersect::merge_count_iter;
    // orient by (degree, id) with streaming filters
    let degs: Vec<u64> = (0..g.num_vertices()).map(|v| g.degree(v)).collect();
    let key = |v: VertexId| (degs[v as usize], v);
    let oriented: Vec<Vec<VertexId>> = (0..g.num_vertices())
        .map(|v| g.neighbors(v).filter(|&u| key(u) > key(v)).collect())
        .collect();
    let oriented = CompressedCsr::from_csr(&Csr::from_neighbor_lists(oriented));
    let mut triangles = 0u64;
    let mut ops = 0u64;
    for v in 0..oriented.num_vertices() {
        for u in oriented.neighbors(v) {
            let (c, w) = merge_count_iter(oriented.neighbors(v), oriented.neighbors(u));
            triangles += c;
            ops += w;
        }
    }
    SeqCount { triangles, ops }
}

/// Reference O(n³)-ish brute force over vertex triples restricted to
/// neighborhoods; for tests only.
pub fn brute_force_count(g: &Csr) -> u64 {
    let mut t = 0u64;
    for v in g.vertices() {
        for &u in g.neighbors(v) {
            if u <= v {
                continue;
            }
            for &w in g.neighbors(u) {
                if w > u && g.has_edge(v, w) {
                    t += 1;
                }
            }
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use tricount_graph::EdgeList;

    fn graph(edges: &[(u64, u64)], n: u64) -> Csr {
        let mut el = EdgeList::from_pairs(edges.to_vec());
        el.canonicalize();
        Csr::from_edges(n, &el)
    }

    fn k4() -> Csr {
        graph(&[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 4)
    }

    #[test]
    fn counts_on_small_graphs() {
        assert_eq!(compact_forward(&k4()).triangles, 4);
        let tri = graph(&[(0, 1), (1, 2), (0, 2)], 3);
        assert_eq!(compact_forward(&tri).triangles, 1);
        let path = graph(&[(0, 1), (1, 2), (2, 3)], 4);
        assert_eq!(compact_forward(&path).triangles, 0);
        let empty = graph(&[], 0);
        assert_eq!(compact_forward(&empty).triangles, 0);
    }

    #[test]
    fn orderings_agree() {
        let g = k4();
        assert_eq!(
            edge_iterator(&g, OrderingKind::Degree).triangles,
            edge_iterator(&g, OrderingKind::Id).triangles
        );
    }

    #[test]
    fn matches_brute_force() {
        let g = graph(
            &[
                (0, 1),
                (0, 2),
                (1, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (4, 5),
                (3, 5),
                (0, 5),
            ],
            6,
        );
        assert_eq!(compact_forward(&g).triangles, brute_force_count(&g));
    }

    /// The same check where the merge kernels leave their short-list tier:
    /// K₈₀ planted in an R-MAT graph gives oriented lists up to 79 long
    /// under either order (R-MAT 9 alone stays under 32 in degree order),
    /// so many intersections run as two chains, for both the counting and
    /// the collecting kernel.
    #[test]
    fn matches_brute_force_on_long_oriented_lists() {
        let noise = tricount_gen::rmat_default(9, 3);
        let mut edges: Vec<(u64, u64)> = noise
            .vertices()
            .flat_map(|v| noise.neighbors(v).iter().map(move |&u| (v, u)))
            .collect();
        edges.extend((100..180u64).flat_map(|v| (v + 1..180).map(move |u| (v, u))));
        let g = graph(&edges, noise.num_vertices());
        let truth = brute_force_count(&g);
        assert!(truth >= 80 * 79 * 78 / 6);
        for kind in [OrderingKind::Degree, OrderingKind::Id] {
            let o = orient(&g, kind);
            let long_pairs = o
                .vertices()
                .flat_map(|v| o.neighbors(v).iter().map(move |&u| (v, u)))
                .filter(|&(v, u)| o.neighbors(v).len() + o.neighbors(u).len() >= 64)
                .count();
            assert!(long_pairs > 100, "{kind:?}: only {long_pairs} long pairs");
            assert_eq!(edge_iterator(&g, kind).triangles, truth, "{kind:?}");
            assert_eq!(
                enumerate_triangles(&g, kind).len() as u64,
                truth,
                "{kind:?} enumeration"
            );
        }
    }

    #[test]
    fn enumeration_is_unique_and_complete() {
        let g = k4();
        let mut tris: Vec<[u64; 3]> = enumerate_triangles(&g, OrderingKind::Degree)
            .into_iter()
            .map(|(a, b, c)| {
                let mut t = [a, b, c];
                t.sort_unstable();
                t
            })
            .collect();
        tris.sort_unstable();
        let before = tris.len();
        tris.dedup();
        assert_eq!(before, tris.len(), "duplicate triangles enumerated");
        assert_eq!(tris.len(), 4);
        for t in &tris {
            assert!(g.has_edge(t[0], t[1]) && g.has_edge(t[1], t[2]) && g.has_edge(t[0], t[2]));
        }
    }

    #[test]
    fn per_vertex_counts_sum_to_three_t() {
        let g = k4();
        let delta = per_vertex_counts(&g, OrderingKind::Degree);
        assert_eq!(delta.iter().sum::<u64>(), 3 * 4);
        assert!(delta.iter().all(|&d| d == 3)); // K4: every vertex in 3 triangles
    }

    #[test]
    fn lcc_values() {
        // K4: every wedge closed → LCC 1 everywhere
        let lcc = local_clustering_coefficients(&k4(), OrderingKind::Degree);
        assert!(lcc.iter().all(|&x| (x - 1.0).abs() < 1e-12));
        // path: no triangles → 0 everywhere
        let path = graph(&[(0, 1), (1, 2)], 3);
        let lcc = local_clustering_coefficients(&path, OrderingKind::Degree);
        assert!(lcc.iter().all(|&x| x == 0.0));
        // triangle + pendant: center vertex has d=3, Δ=1 → 1/3
        let g = graph(&[(0, 1), (1, 2), (0, 2), (2, 3)], 4);
        let lcc = local_clustering_coefficients(&g, OrderingKind::Degree);
        assert!((lcc[2] - 1.0 / 3.0).abs() < 1e-12, "{lcc:?}");
        assert_eq!(lcc[3], 0.0);
    }

    #[test]
    fn compressed_counting_matches_plain() {
        use tricount_graph::compressed::CompressedCsr;
        for g in [
            k4(),
            graph(&[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)], 5),
            tricount_gen::rgg2d_default(400, 5),
            tricount_gen::rmat_default(8, 2),
        ] {
            let want = compact_forward(&g).triangles;
            let c = CompressedCsr::from_csr(&g);
            assert_eq!(compact_forward_compressed(&c).triangles, want);
        }
    }

    #[test]
    fn degree_order_does_less_work_on_stars() {
        // star + rim: degree orientation points rim→center, bounding hub
        // out-degree
        let mut edges: Vec<(u64, u64)> = (1..=30).map(|i| (0u64, i)).collect();
        edges.extend((1..30).map(|i| (i, i + 1)));
        let g = graph(&edges, 31);
        let deg = edge_iterator(&g, OrderingKind::Degree);
        let id = edge_iterator(&g, OrderingKind::Id);
        assert_eq!(deg.triangles, id.triangles);
        assert!(deg.ops <= id.ops, "degree {} vs id {}", deg.ops, id.ops);
    }
}

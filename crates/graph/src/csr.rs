//! The *adjacency array* (CSR) graph representation of §II-B: for each vertex
//! the set of neighbors `N_v`, stored compressed in two arrays, each
//! neighborhood sorted ascending by vertex id.

use std::collections::TryReserveError;

use crate::edgelist::EdgeList;
use crate::VertexId;

/// An undirected graph in adjacency-array (CSR) form.
///
/// Every undirected edge `{u, v}` is stored twice: `v ∈ N_u` and `u ∈ N_v`.
/// Neighborhoods are sorted ascending, which the merge-based set
/// intersections of the counting algorithms rely on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    offsets: Vec<usize>,
    targets: Vec<VertexId>,
}

impl Csr {
    /// Builds a CSR graph from a canonical edge list (see
    /// [`EdgeList::canonicalize`]) with `n` vertices. Ids in the list must be
    /// `< n`.
    pub fn from_edges(n: u64, edges: &EdgeList) -> Self {
        Self::try_from_edges(n, edges).expect("per-vertex arrays do not fit in memory")
    }

    /// Like [`Csr::from_edges`], but returns an error instead of aborting
    /// when the `n`-entry degree and offset arrays cannot be allocated — the
    /// guard for vertex counts read from untrusted input.
    pub fn try_from_edges(n: u64, edges: &EdgeList) -> Result<Self, TryReserveError> {
        let n = n as usize;
        let mut degrees: Vec<usize> = Vec::new();
        degrees.try_reserve_exact(n)?;
        degrees.resize(n, 0);
        for &(u, v) in edges.pairs() {
            debug_assert!(u < v, "edge list must be canonical");
            degrees[u as usize] += 1;
            degrees[v as usize] += 1;
        }
        let mut offsets = Vec::new();
        // saturating: `n + 1` past `usize::MAX` is a capacity overflow too
        offsets.try_reserve_exact(n.saturating_add(1))?;
        let mut acc = 0usize;
        offsets.push(0);
        for &d in &degrees {
            acc += d;
            offsets.push(acc);
        }
        let mut targets = vec![0 as VertexId; acc];
        let mut cursor = offsets.clone();
        for &(u, v) in edges.pairs() {
            targets[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            targets[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        let mut csr = Self { offsets, targets };
        csr.sort_neighborhoods();
        Ok(csr)
    }

    /// Builds a CSR directly from per-vertex sorted neighbor lists. Used by
    /// orientation and contraction, which produce already-sorted lists.
    pub fn from_neighbor_lists(lists: Vec<Vec<VertexId>>) -> Self {
        let mut offsets = Vec::with_capacity(lists.len() + 1);
        offsets.push(0usize);
        let mut targets = Vec::new();
        for list in lists {
            debug_assert!(
                list.windows(2).all(|w| w[0] < w[1]),
                "lists must be sorted+unique"
            );
            targets.extend_from_slice(&list);
            offsets.push(targets.len());
        }
        Self { offsets, targets }
    }

    fn sort_neighborhoods(&mut self) {
        for v in 0..self.num_vertices() {
            let (lo, hi) = (self.offsets[v as usize], self.offsets[v as usize + 1]);
            self.targets[lo..hi].sort_unstable();
        }
    }

    /// Number of vertices `n`.
    pub fn num_vertices(&self) -> u64 {
        (self.offsets.len() - 1) as u64
    }

    /// Number of undirected edges `m`. For oriented/asymmetric graphs (built
    /// via [`Csr::from_neighbor_lists`]) use [`Csr::num_directed_edges`].
    pub fn num_edges(&self) -> u64 {
        (self.targets.len() / 2) as u64
    }

    /// Number of stored (directed) adjacency entries.
    pub fn num_directed_edges(&self) -> u64 {
        self.targets.len() as u64
    }

    /// The (sorted) neighborhood `N_v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.targets[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Degree `d_v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> u64 {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as u64
    }

    /// All degrees as a vector.
    pub fn degrees(&self) -> Vec<u64> {
        (0..self.num_vertices()).map(|v| self.degree(v)).collect()
    }

    /// Whether `{u, v} ∈ E`, by binary search.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        0..self.num_vertices()
    }

    /// Iterator over canonical undirected edges `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Iterator over all directed adjacency entries `(u, v)` (each
    /// undirected edge twice for symmetric graphs).
    pub fn directed_edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices()
            .flat_map(move |u| self.neighbors(u).iter().copied().map(move |v| (u, v)))
    }

    /// Total number of *wedges* (paths of length 2), `Σ_v d_v·(d_v−1)/2`.
    /// This is the quantity the paper reports per instance in Table I.
    pub fn num_wedges(&self) -> u64 {
        self.vertices()
            .map(|v| {
                let d = self.degree(v);
                d * d.saturating_sub(1) / 2
            })
            .sum()
    }

    /// Converts back to a canonical edge list.
    pub fn to_edge_list(&self) -> EdgeList {
        self.edges().collect()
    }

    /// Checks structural invariants (sorted unique neighborhoods, no self
    /// loops, symmetry). Intended for tests and debug assertions.
    pub fn validate_symmetric(&self) -> Result<(), String> {
        for v in self.vertices() {
            let ns = self.neighbors(v);
            if !ns.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("neighborhood of {v} not sorted/unique"));
            }
            if ns.binary_search(&v).is_ok() {
                return Err(format!("self loop at {v}"));
            }
            for &u in ns {
                if u >= self.num_vertices() {
                    return Err(format!("edge target {u} out of range"));
                }
                if !self.has_edge(u, v) {
                    return Err(format!("asymmetric edge ({v},{u})"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_tail() -> Csr {
        // 0-1, 0-2, 1-2 (triangle), 2-3 (tail)
        let mut el = EdgeList::from_pairs(vec![(0, 1), (2, 0), (1, 2), (3, 2)]);
        el.canonicalize();
        Csr::from_edges(4, &el)
    }

    #[test]
    fn basic_shape() {
        let g = triangle_plus_tail();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(3), 1);
        g.validate_symmetric().unwrap();
    }

    #[test]
    fn has_edge_lookup() {
        let g = triangle_plus_tail();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn edges_iterator_is_canonical() {
        let g = triangle_plus_tail();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2), (2, 3)]);
    }

    #[test]
    fn wedge_count() {
        let g = triangle_plus_tail();
        // degrees: 2,2,3,1 → wedges 1+1+3+0 = 5
        assert_eq!(g.num_wedges(), 5);
    }

    #[test]
    fn roundtrip_edge_list() {
        let g = triangle_plus_tail();
        let el = g.to_edge_list();
        let g2 = Csr::from_edges(4, &el);
        assert_eq!(g, g2);
    }

    #[test]
    fn empty_graph() {
        let el = EdgeList::new();
        let g = Csr::from_edges(0, &el);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.num_wedges(), 0);
    }

    #[test]
    fn from_neighbor_lists_asymmetric() {
        // Oriented triangle 0→1, 0→2, 1→2.
        let g = Csr::from_neighbor_lists(vec![vec![1, 2], vec![2], vec![]]);
        assert_eq!(g.num_directed_edges(), 3);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(2), &[] as &[VertexId]);
    }
}

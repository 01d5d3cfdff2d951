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
    /// Builds the CSR of the simple undirected graph on `n` vertices whose
    /// edges are the pairs of `edges`, read as undirected: reversed and
    /// repeated pairs are one edge and self loops are dropped. Ids in the
    /// list must be `< n`.
    pub fn from_edges(n: u64, edges: &EdgeList) -> Self {
        Self::try_from_edges(n, edges).expect("per-vertex arrays do not fit in memory")
    }

    /// Like [`Csr::from_edges`], but returns an error instead of aborting
    /// when the `n`-entry offset array or the adjacency array cannot be
    /// allocated — the guard for vertex counts read from untrusted input.
    pub fn try_from_edges(n: u64, edges: &EdgeList) -> Result<Self, TryReserveError> {
        let mut degrees = CsrBuilder::new(n)?;
        for &(u, v) in edges.pairs() {
            degrees.count(u, v);
        }
        let mut scatter = degrees.scatter()?;
        for &(u, v) in edges.pairs() {
            scatter.place(u, v);
        }
        Ok(scatter.finish())
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

    /// The `|vs| + 1` offsets of the contiguous vertices `vs`, into the
    /// whole adjacency array: their neighbourhoods are one block of it.
    pub(crate) fn offsets_of(&self, vs: std::ops::Range<VertexId>) -> &[usize] {
        &self.offsets[vs.start as usize..=vs.end as usize]
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

/// The first pass of building a [`Csr`] from raw pairs: it counts each
/// vertex's degree. The pairs are then handed out a second time to the
/// [`CsrScatter`] that [`CsrBuilder::scatter`] returns, which places them.
///
/// Pairs may come in either orientation and repeat; self loops are
/// dropped. The builder keeps no copy of the pairs, so a loader can stream
/// them twice from their source ([`crate::io::read_binary`] reads its file
/// twice) instead of collecting an edge list first.
#[derive(Debug)]
pub(crate) struct CsrBuilder {
    /// `counts[v]` is `v`'s number of pair ends so far; `counts[n]` is 0.
    counts: Vec<usize>,
}

impl CsrBuilder {
    /// Starts a graph on `n` vertices, failing when its `n + 1` offsets
    /// cannot be allocated.
    pub(crate) fn new(n: u64) -> Result<Self, TryReserveError> {
        // saturating: `n + 1` past `usize::MAX` is a capacity overflow too
        let len = usize::try_from(n).unwrap_or(usize::MAX).saturating_add(1);
        let mut counts = Vec::new();
        counts.try_reserve_exact(len)?;
        counts.resize(len, 0);
        Ok(Self { counts })
    }

    /// Counts the pair `(u, v)`; both ids must be `< n`.
    #[inline]
    pub(crate) fn count(&mut self, u: VertexId, v: VertexId) {
        if u != v {
            self.counts[u as usize] += 1;
            self.counts[v as usize] += 1;
        }
    }

    /// Ends the first pass: allocates the adjacency array at its exact size
    /// and returns the second pass, which must be handed the same pairs.
    pub(crate) fn scatter(self) -> Result<CsrScatter, TryReserveError> {
        let mut cursors = self.counts;
        let mut start = 0usize;
        for c in &mut cursors {
            let d = *c;
            *c = start;
            start += d;
        }
        let mut targets = Vec::new();
        targets.try_reserve_exact(start)?;
        targets.resize(start, 0);
        Ok(CsrScatter { cursors, targets })
    }
}

/// The second pass of building a [`Csr`] (see [`CsrBuilder`]): it places
/// both directions of every pair at its vertices' cursors.
#[derive(Debug)]
pub(crate) struct CsrScatter {
    /// `cursors[v]` is where `v`'s next neighbour goes; it starts at `v`'s
    /// first slot and, once every pair is placed, is `v + 1`'s first slot.
    /// `cursors[n]` is the number of slots.
    cursors: Vec<usize>,
    targets: Vec<VertexId>,
}

impl CsrScatter {
    /// Places the pair `(u, v)`; both ids must be `< n`.
    #[inline]
    pub(crate) fn place(&mut self, u: VertexId, v: VertexId) {
        if u != v {
            self.put(u, v);
            self.put(v, u);
        }
    }

    /// Writes `v` into `u`'s next slot. A slot past the end is skipped, so
    /// a second pass that hands out more pairs than the first cannot panic.
    #[inline]
    fn put(&mut self, u: VertexId, v: VertexId) {
        let c = &mut self.cursors[u as usize];
        if let Some(t) = self.targets.get_mut(*c) {
            *t = v;
        }
        *c += 1;
    }

    /// Ends the second pass: sorts and deduplicates each neighbourhood in
    /// place and closes the gaps duplicates leave. A neighbourhood that
    /// arrives sorted and duplicate-free — every one, for the pairs of a
    /// canonical edge list — costs one linear check.
    ///
    /// If the second pass handed out other pairs than the first, the lists
    /// are still sorted, duplicate-free and `< n`, but the graph need not
    /// be symmetric; nothing panics.
    pub(crate) fn finish(self) -> Csr {
        let Self {
            cursors: mut offsets,
            mut targets,
        } = self;
        let n = offsets.len() - 1;
        let (mut kept, mut lo) = (0, 0);
        for offset in &mut offsets[..n] {
            // `v`'s end now; it becomes `v`'s start below
            let hi = (*offset).clamp(lo, targets.len());
            let list = &mut targets[lo..hi];
            let len = if list.windows(2).all(|w| w[0] < w[1]) {
                list.len()
            } else {
                list.sort_unstable();
                dedup_sorted(list)
            };
            if kept != lo {
                targets.copy_within(lo..lo + len, kept);
            }
            *offset = kept;
            kept += len;
            lo = hi;
        }
        offsets[n] = kept;
        targets.truncate(kept);
        targets.shrink_to_fit();
        Csr { offsets, targets }
    }
}

/// Moves the distinct values of a sorted slice to its front and returns
/// their number.
fn dedup_sorted(list: &mut [VertexId]) -> usize {
    let mut len = 0;
    for i in 0..list.len() {
        if len == 0 || list[i] != list[len - 1] {
            list[len] = list[i];
            len += 1;
        }
    }
    len
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::intersect::tests::splitmix;

    /// The CSR of a canonical edge list as it was built before
    /// [`CsrBuilder`]: count, scatter into a copy of the offsets, sort
    /// every list. The oracle of the builder's tests.
    pub(crate) fn reference_csr(n: u64, canonical: &EdgeList) -> Csr {
        let mut offsets = vec![0usize; n as usize + 1];
        for &(u, v) in canonical.pairs() {
            assert!(u < v, "edge list must be canonical");
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for v in 0..n as usize {
            offsets[v + 1] += offsets[v];
        }
        let mut targets = vec![0; offsets[n as usize]];
        let mut cursor = offsets.clone();
        for &(u, v) in canonical.pairs() {
            targets[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            targets[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        for v in 0..n as usize {
            targets[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        Csr { offsets, targets }
    }

    #[test]
    fn builder_on_raw_pairs_matches_the_canonical_build() {
        let mut rng = 0xc5b_u64;
        for case in 0..400 {
            let n = splitmix(&mut rng) % 30;
            let len = splitmix(&mut rng) % 150;
            let pairs: Vec<_> = (0..len)
                .filter(|_| n > 0)
                .map(|_| (splitmix(&mut rng) % n, splitmix(&mut rng) % n))
                .collect();
            let raw = EdgeList::from_pairs(pairs);
            let mut canonical = raw.clone();
            canonical.canonicalize();
            let want = reference_csr(n, &canonical);
            assert_eq!(Csr::from_edges(n, &raw), want, "case {case}");
            assert_eq!(Csr::from_edges(n, &canonical), want, "case {case}");
            want.validate_symmetric().unwrap();
        }
    }

    #[test]
    fn a_second_pass_with_other_pairs_does_not_panic() {
        let first = [(0, 1), (1, 2), (2, 3), (3, 4)];
        let seconds: [&[(u64, u64)]; 4] = [
            &[],
            &[(4, 3), (4, 2), (4, 1), (4, 0), (4, 0), (3, 0)],
            &[(0, 1), (1, 2)],
            &[(0, 0), (2, 2), (1, 4), (1, 4), (1, 4), (1, 4), (1, 4)],
        ];
        for second in seconds {
            let mut degrees = CsrBuilder::new(5).unwrap();
            for &(u, v) in &first {
                degrees.count(u, v);
            }
            let mut scatter = degrees.scatter().unwrap();
            for &(u, v) in second {
                scatter.place(u, v);
            }
            let g = scatter.finish();
            assert_eq!(g.num_vertices(), 5);
            for v in g.vertices() {
                let ns = g.neighbors(v);
                assert!(ns.windows(2).all(|w| w[0] < w[1]), "{second:?}");
                assert!(ns.iter().all(|&u| u < 5), "{second:?}");
            }
        }
    }

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

//! The per-PE view of a 1D-partitioned distributed graph (paper §II-B and
//! Fig. 1), plus the orientation / expansion / contraction transformations of
//! CETRIC (§IV-C, Algorithm 3).
//!
//! Terminology (all from the paper):
//! * **owned/local vertices** `V_i` — the contiguous id range assigned to PE `i`;
//!   their full neighborhoods are stored locally.
//! * **ghost vertices** `∂V_i` — non-local vertices appearing in some local
//!   neighborhood.
//! * **interface vertices** — local vertices adjacent to at least one ghost.
//! * **cut edges** — edges between vertices owned by different PEs; the *cut
//!   graph* `∂G` consists of exactly these.
//! * **expanded local graph** — `V_i ∪ ∂V_i` with every edge incident to
//!   `V_i`; ghost neighborhoods are obtained for free by "rewiring incoming
//!   cut edges" (§IV-D) — no communication needed.

use crate::csr::Csr;
use crate::ordering::{OrdKey, OrderingKind};
use crate::partition::Partition;
use crate::VertexId;

/// Ghost-vertex metadata for one PE: the sorted ghost ids and (after the
/// degree exchange of Algorithm 3 line 1) their global degrees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GhostInfo {
    ids: Vec<VertexId>,
    degrees: Option<Vec<u64>>,
}

impl GhostInfo {
    /// Sorted ghost ids `∂V_i`.
    pub fn ids(&self) -> &[VertexId] {
        &self.ids
    }

    /// Number of ghosts.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if this PE has no ghosts (its subgraph is isolated).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Index of ghost `v` in [`GhostInfo::ids`], if `v` is a ghost here.
    #[inline]
    pub fn index_of(&self, v: VertexId) -> Option<usize> {
        self.ids.binary_search(&v).ok()
    }

    /// Whether the ghost degree exchange has been performed.
    pub fn degrees_known(&self) -> bool {
        self.degrees.is_some()
    }

    /// Global degree of the `idx`-th ghost. Panics if degrees are unknown.
    #[inline]
    pub fn degree(&self, idx: usize) -> u64 {
        self.degrees.as_ref().expect("ghost degrees not exchanged")[idx]
    }
}

/// The graph data PE `i` holds: full neighborhoods of its owned vertices.
#[derive(Debug, Clone)]
pub struct LocalGraph {
    rank: usize,
    part: Partition,
    /// Adjacency offsets, one slot per owned vertex (local index).
    offsets: Vec<usize>,
    /// Neighbor ids (global), sorted ascending per vertex.
    targets: Vec<VertexId>,
    ghosts: GhostInfo,
}

impl LocalGraph {
    /// Extracts PE `rank`'s local graph from a global CSR. (In a real
    /// deployment each PE loads only its slice; centralised extraction is the
    /// simulator's stand-in and happens outside every timed region, matching
    /// the paper's exclusion of input loading.)
    pub fn from_global(g: &Csr, part: &Partition, rank: usize) -> Self {
        let range = part.range(rank);
        let mut offsets = Vec::with_capacity((range.end - range.start) as usize + 1);
        offsets.push(0usize);
        let mut targets = Vec::new();
        let mut ghost_ids = Vec::new();
        for v in range.clone() {
            let ns = g.neighbors(v);
            targets.extend_from_slice(ns);
            offsets.push(targets.len());
            for &u in ns {
                if !range.contains(&u) {
                    ghost_ids.push(u);
                }
            }
        }
        ghost_ids.sort_unstable();
        ghost_ids.dedup();
        Self {
            rank,
            part: part.clone(),
            offsets,
            targets,
            ghosts: GhostInfo {
                ids: ghost_ids,
                degrees: None,
            },
        }
    }

    /// Builds a local graph directly from `(vertex, neighborhood)` pairs —
    /// the receive side of a message-passing redistribution (§IV-D load
    /// balancing). The pairs must cover exactly `part.range(rank)` in
    /// ascending order; neighborhoods must be sorted by id.
    pub fn from_neighborhoods(
        part: Partition,
        rank: usize,
        neighborhoods: Vec<(VertexId, Vec<VertexId>)>,
    ) -> Self {
        let range = part.range(rank);
        assert_eq!(
            neighborhoods.len() as u64,
            range.end - range.start,
            "neighborhoods must cover the owned range"
        );
        let mut offsets = Vec::with_capacity(neighborhoods.len() + 1);
        offsets.push(0usize);
        let mut targets = Vec::new();
        let mut ghost_ids = Vec::new();
        for (i, (v, ns)) in neighborhoods.into_iter().enumerate() {
            assert_eq!(
                v,
                range.start + i as u64,
                "vertices must arrive in id order"
            );
            debug_assert!(
                ns.windows(2).all(|w| w[0] < w[1]),
                "neighborhood not sorted"
            );
            for &u in &ns {
                if !range.contains(&u) {
                    ghost_ids.push(u);
                }
            }
            targets.extend(ns);
            offsets.push(targets.len());
        }
        ghost_ids.sort_unstable();
        ghost_ids.dedup();
        Self {
            rank,
            part,
            offsets,
            targets,
            ghosts: GhostInfo {
                ids: ghost_ids,
                degrees: None,
            },
        }
    }

    /// This PE's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The global partition.
    pub fn partition(&self) -> &Partition {
        &self.part
    }

    /// The owned id range `V_i`.
    pub fn owned_range(&self) -> std::ops::Range<VertexId> {
        self.part.range(self.rank)
    }

    /// Number of owned vertices `|V_i|`.
    pub fn num_owned(&self) -> u64 {
        self.part.size_of(self.rank)
    }

    /// Number of locally stored adjacency entries `|E_i|` (each local edge
    /// twice, each cut edge once). This is the paper's per-PE input size that
    /// bounds the aggregation buffers (`δ ∈ O(|E_i|)`).
    pub fn num_local_entries(&self) -> u64 {
        self.targets.len() as u64
    }

    /// Whether `v` is owned by this PE.
    #[inline]
    pub fn is_owned(&self, v: VertexId) -> bool {
        self.part.owns(self.rank, v)
    }

    /// Full sorted neighborhood `N_v` of an *owned* vertex.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        debug_assert!(self.is_owned(v));
        let l = (v - self.owned_range().start) as usize;
        &self.targets[self.offsets[l]..self.offsets[l + 1]]
    }

    /// Degree of an *owned* vertex.
    #[inline]
    pub fn degree(&self, v: VertexId) -> u64 {
        debug_assert!(self.is_owned(v));
        let l = (v - self.owned_range().start) as usize;
        (self.offsets[l + 1] - self.offsets[l]) as u64
    }

    /// Iterator over owned vertex ids.
    pub fn owned_vertices(&self) -> std::ops::Range<VertexId> {
        self.owned_range()
    }

    /// Ghost metadata.
    pub fn ghosts(&self) -> &GhostInfo {
        &self.ghosts
    }

    /// Installs the ghost degrees resulting from the degree exchange. The
    /// vector must align with [`GhostInfo::ids`].
    pub fn set_ghost_degrees(&mut self, degrees: Vec<u64>) {
        assert_eq!(degrees.len(), self.ghosts.ids.len());
        self.ghosts.degrees = Some(degrees);
    }

    /// Degree of any vertex this PE knows: owned directly, ghosts from the
    /// exchange. Panics for unknown vertices or before the exchange.
    #[inline]
    pub fn known_degree(&self, v: VertexId) -> u64 {
        if self.is_owned(v) {
            self.degree(v)
        } else {
            let idx = self.ghosts.index_of(v).unwrap_or_else(|| {
                panic!("vertex {v} is neither owned nor ghost on PE {}", self.rank)
            });
            self.ghosts.degree(idx)
        }
    }

    /// The `≺`-key of any known vertex under `kind`.
    #[inline]
    pub fn ord_key(&self, kind: OrderingKind, v: VertexId) -> OrdKey {
        let deg = match kind {
            OrderingKind::Degree => self.known_degree(v),
            OrderingKind::Id => 0,
        };
        OrdKey::new(kind, v, deg)
    }

    /// Iterator over this PE's outgoing *cut edges* `(v, ghost)`.
    pub fn cut_edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.owned_vertices().flat_map(move |v| {
            self.neighbors(v)
                .iter()
                .copied()
                .filter(move |&u| !self.is_owned(u))
                .map(move |u| (v, u))
        })
    }

    /// Number of outgoing cut edges.
    pub fn num_cut_edges(&self) -> u64 {
        self.cut_edges().count() as u64
    }

    /// Owned vertices adjacent to at least one ghost (*interface vertices*).
    pub fn interface_vertices(&self) -> Vec<VertexId> {
        self.owned_vertices()
            .filter(|&v| self.neighbors(v).iter().any(|&u| !self.is_owned(u)))
            .collect()
    }

    /// Groups ghost ids by their owner rank — the request sets for the ghost
    /// degree exchange. Returns `(rank, ghost ids owned by rank)` pairs with
    /// nonempty id lists, ranks ascending.
    pub fn ghost_ids_by_owner(&self) -> Vec<(usize, Vec<VertexId>)> {
        let mut out: Vec<(usize, Vec<VertexId>)> = Vec::new();
        for &g in &self.ghosts.ids {
            let r = self.part.rank_of(g);
            match out.last_mut() {
                Some((lr, v)) if *lr == r => v.push(g),
                _ => out.push((r, vec![g])),
            }
        }
        out
    }

    /// Orients this local graph by `kind`, producing the structure both the
    /// local phase (with ghost neighborhoods, `expand_ghosts = true`) and the
    /// plain distributed EDGEITERATOR (`expand_ghosts = false`) operate on.
    ///
    /// Requires ghost degrees when `kind == Degree` and ghosts exist.
    pub fn orient(&self, kind: OrderingKind, expand_ghosts: bool) -> OrientedLocalGraph {
        if kind == OrderingKind::Degree && !self.ghosts.is_empty() {
            assert!(
                self.ghosts.degrees_known(),
                "degree orientation requires the ghost degree exchange first"
            );
        }
        let range = self.owned_range();
        let mut owned_off = Vec::with_capacity((range.end - range.start) as usize + 1);
        owned_off.push(0usize);
        let mut owned_adj: Vec<VertexId> = Vec::new();
        for v in range.clone() {
            let kv = self.ord_key(kind, v);
            owned_adj.extend(
                self.neighbors(v)
                    .iter()
                    .copied()
                    .filter(|&u| self.ord_key(kind, u) > kv),
            );
            owned_off.push(owned_adj.len());
        }

        let (ghost_off, ghost_adj) = if expand_ghosts {
            // Rewire incoming cut edges: ghost g's locally visible
            // neighborhood is every owned v with g ∈ N_v. Restricted to
            // out-neighbors: A(g) = { v ∈ V_i ∩ N_g | v ≻ g }.
            let mut lists: Vec<Vec<VertexId>> = vec![Vec::new(); self.ghosts.len()];
            for v in range.clone() {
                for &u in self.neighbors(v) {
                    if !self.is_owned(u) {
                        let gi = self.ghosts.index_of(u).expect("ghost must be registered");
                        if self.ord_key(kind, v) > self.ord_key(kind, u) {
                            lists[gi].push(v);
                        }
                    }
                }
            }
            let mut off = Vec::with_capacity(self.ghosts.len() + 1);
            off.push(0usize);
            let mut adj = Vec::new();
            for mut list in lists {
                list.sort_unstable();
                adj.extend_from_slice(&list);
                off.push(adj.len());
            }
            (off, adj)
        } else {
            (vec![0usize], Vec::new())
        };

        OrientedLocalGraph {
            rank: self.rank,
            part: self.part.clone(),
            kind,
            owned_off,
            owned_adj,
            ghost_ids: self.ghosts.ids.clone(),
            ghost_off,
            ghost_adj,
            expanded: expand_ghosts,
        }
    }
}

/// The degree-oriented per-PE graph: `A(v) = { x ∈ N_v | x ≻ v }` for owned
/// vertices (sorted by id), and — when built with ghost expansion — the
/// locally visible `A(g) = { x ∈ N_g ∩ V_i | x ≻ g }` for ghosts.
#[derive(Debug, Clone)]
pub struct OrientedLocalGraph {
    rank: usize,
    part: Partition,
    kind: OrderingKind,
    owned_off: Vec<usize>,
    owned_adj: Vec<VertexId>,
    ghost_ids: Vec<VertexId>,
    ghost_off: Vec<usize>,
    ghost_adj: Vec<VertexId>,
    expanded: bool,
}

impl OrientedLocalGraph {
    /// This PE's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The global partition.
    pub fn partition(&self) -> &Partition {
        &self.part
    }

    /// The ordering this graph was oriented by.
    pub fn ordering(&self) -> OrderingKind {
        self.kind
    }

    /// Whether ghost neighborhoods were materialised (CETRIC's expanded
    /// local graph).
    pub fn is_expanded(&self) -> bool {
        self.expanded
    }

    /// The owned id range.
    pub fn owned_range(&self) -> std::ops::Range<VertexId> {
        self.part.range(self.rank)
    }

    /// Whether `v` is owned.
    #[inline]
    pub fn is_owned(&self, v: VertexId) -> bool {
        self.part.owns(self.rank, v)
    }

    /// Oriented out-neighborhood `A(v)` of an owned vertex, sorted by id.
    #[inline]
    pub fn a_owned(&self, v: VertexId) -> &[VertexId] {
        debug_assert!(self.is_owned(v));
        let l = (v - self.owned_range().start) as usize;
        &self.owned_adj[self.owned_off[l]..self.owned_off[l + 1]]
    }

    /// Sorted ghost ids.
    pub fn ghost_ids(&self) -> &[VertexId] {
        &self.ghost_ids
    }

    /// Locally visible oriented neighborhood of the `idx`-th ghost.
    #[inline]
    pub fn a_ghost(&self, idx: usize) -> &[VertexId] {
        debug_assert!(self.expanded, "ghost adjacency requires expansion");
        &self.ghost_adj[self.ghost_off[idx]..self.ghost_off[idx + 1]]
    }

    /// `A(v)` for any vertex this PE can see (owned, or ghost when
    /// expanded); `None` for unknown vertices.
    #[inline]
    pub fn a_of(&self, v: VertexId) -> Option<&[VertexId]> {
        if self.is_owned(v) {
            Some(self.a_owned(v))
        } else if self.expanded {
            self.ghost_ids
                .binary_search(&v)
                .ok()
                .map(|i| self.a_ghost(i))
        } else {
            None
        }
    }

    /// Sum of owned `|A(v)|` (the number of oriented local adjacency
    /// entries).
    pub fn num_oriented_entries(&self) -> u64 {
        self.owned_adj.len() as u64
    }

    /// The *contraction* step (Algorithm 3 line 8): for each owned `v`, keep
    /// only the non-local part of `A(v)` — the oriented cut edges. Returns
    /// per-owned-vertex contracted lists (sorted by id; the local id range is
    /// contiguous so the result is the concatenation of a prefix and a
    /// suffix of `A(v)`).
    pub fn contracted(&self) -> ContractedGraph {
        let range = self.owned_range();
        let mut off = Vec::with_capacity(self.owned_off.len());
        off.push(0usize);
        let mut adj = Vec::new();
        for v in range.clone() {
            adj.extend(
                self.a_owned(v)
                    .iter()
                    .copied()
                    .filter(|&u| !range.contains(&u)),
            );
            off.push(adj.len());
        }
        ContractedGraph {
            start: range.start,
            off,
            adj,
        }
    }
}

/// The cut-graph restriction of an oriented local graph: per owned vertex the
/// oriented *cut* out-neighborhood `A(v) \ V_i`. Lemma 1 of the paper:
/// triangles of this graph (across all PEs) are exactly the type-3 triangles
/// of `G`.
#[derive(Debug, Clone)]
pub struct ContractedGraph {
    start: VertexId,
    off: Vec<usize>,
    adj: Vec<VertexId>,
}

impl ContractedGraph {
    /// Contracted `A(v)` of owned vertex `v`.
    #[inline]
    pub fn a_of(&self, v: VertexId) -> &[VertexId] {
        let l = (v - self.start) as usize;
        &self.adj[self.off[l]..self.off[l + 1]]
    }

    /// Iterator over owned vertices with nonempty contracted neighborhoods,
    /// as `(v, A(v))`.
    pub fn nonempty(&self) -> impl Iterator<Item = (VertexId, &[VertexId])> + '_ {
        (0..self.off.len() - 1).filter_map(move |l| {
            let a = &self.adj[self.off[l]..self.off[l + 1]];
            (!a.is_empty()).then_some((self.start + l as VertexId, a))
        })
    }

    /// Total remaining oriented entries (= oriented cut edges from this PE).
    pub fn num_entries(&self) -> u64 {
        self.adj.len() as u64
    }
}

/// A fully partitioned graph: every PE's [`LocalGraph`] plus the shared
/// [`Partition`]. This is the object handed to the simulated runtime; each
/// rank thread takes its own `LocalGraph`.
#[derive(Debug, Clone)]
pub struct DistGraph {
    part: Partition,
    locals: Vec<LocalGraph>,
}

impl DistGraph {
    /// Partitions `g` over `p` PEs into contiguous id ranges cut at degree
    /// prefix sums ([`Partition::balanced_edges`]), so every PE holds about
    /// `2m / p` adjacency entries. The one default partition; the paper's
    /// vertex-balanced ID partition is
    /// `with_partition(g, Partition::balanced_vertices(n, p))`.
    pub fn new(g: &Csr, p: usize) -> Self {
        Self::with_partition(g, Partition::balanced_edges(g, p))
    }

    /// The former name of [`DistGraph::new`], kept for callers that still
    /// use it.
    #[doc(hidden)]
    pub fn new_balanced_vertices(g: &Csr, p: usize) -> Self {
        Self::new(g, p)
    }

    /// Partitions `g` with an explicit partition.
    pub fn with_partition(g: &Csr, part: Partition) -> Self {
        assert_eq!(part.num_vertices(), g.num_vertices());
        let locals = (0..part.num_ranks())
            .map(|r| LocalGraph::from_global(g, &part, r))
            .collect();
        Self { part, locals }
    }

    /// The partition.
    pub fn partition(&self) -> &Partition {
        &self.part
    }

    /// Number of PEs.
    pub fn num_ranks(&self) -> usize {
        self.part.num_ranks()
    }

    /// Borrow PE `rank`'s local graph.
    pub fn local(&self, rank: usize) -> &LocalGraph {
        &self.locals[rank]
    }

    /// Take ownership of the per-rank local graphs (to move into rank
    /// threads).
    pub fn into_locals(self) -> Vec<LocalGraph> {
        self.locals
    }

    /// Fills every PE's ghost degrees directly from neighbours' data,
    /// bypassing communication. For tests and sequential tooling; the real
    /// metered exchange lives in `tricount-core::dist::preprocess`.
    pub fn fill_ghost_degrees_centrally(&mut self) {
        let part = self.part.clone();
        // degrees of all vertices, readable across locals
        let deg_of = |v: VertexId, locals: &[LocalGraph]| {
            let r = part.rank_of(v);
            locals[r].degree(v)
        };
        for i in 0..self.locals.len() {
            let degrees: Vec<u64> = self.locals[i]
                .ghosts()
                .ids()
                .iter()
                .map(|&g| deg_of(g, &self.locals))
                .collect();
            self.locals[i].set_ghost_degrees(degrees);
        }
    }

    /// Global number of cut edges (each counted once).
    pub fn num_cut_edges(&self) -> u64 {
        self.locals.iter().map(|l| l.num_cut_edges()).sum::<u64>() / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edgelist::EdgeList;

    /// Figure-1-style graph: two PEs, a triangle on each side plus cut edges.
    fn two_pe_graph() -> (Csr, Partition) {
        // vertices 0..3 on PE0, 3..6 on PE1
        // PE0 triangle {0,1,2}; PE1 triangle {3,4,5}; cut edges {2,3}, {1,4}
        let mut el = EdgeList::from_pairs(vec![
            (0, 1),
            (0, 2),
            (1, 2),
            (3, 4),
            (3, 5),
            (4, 5),
            (2, 3),
            (1, 4),
        ]);
        el.canonicalize();
        let g = Csr::from_edges(6, &el);
        let part = Partition::from_bounds(vec![0, 3, 6]);
        (g, part)
    }

    #[test]
    fn local_graphs_partition_the_adjacency() {
        let (g, part) = two_pe_graph();
        let dg = DistGraph::with_partition(&g, part);
        let total: u64 = (0..2).map(|r| dg.local(r).num_local_entries()).sum();
        assert_eq!(total, g.num_directed_edges());
        assert_eq!(dg.local(0).neighbors(2), &[0, 1, 3]);
        assert_eq!(dg.local(1).neighbors(4), &[1, 3, 5]);
    }

    #[test]
    fn ghosts_and_interfaces_identified() {
        let (g, part) = two_pe_graph();
        let dg = DistGraph::with_partition(&g, part);
        assert_eq!(dg.local(0).ghosts().ids(), &[3, 4]);
        assert_eq!(dg.local(1).ghosts().ids(), &[1, 2]);
        assert_eq!(dg.local(0).interface_vertices(), vec![1, 2]);
        assert_eq!(dg.local(1).interface_vertices(), vec![3, 4]);
        assert_eq!(dg.num_cut_edges(), 2);
    }

    #[test]
    fn ghost_degree_requests_grouped_by_owner() {
        let (g, part) = two_pe_graph();
        let dg = DistGraph::with_partition(&g, part);
        let reqs = dg.local(0).ghost_ids_by_owner();
        assert_eq!(reqs, vec![(1usize, vec![3, 4])]);
    }

    #[test]
    fn central_ghost_degrees_match_truth() {
        let (g, part) = two_pe_graph();
        let mut dg = DistGraph::with_partition(&g, part);
        dg.fill_ghost_degrees_centrally();
        let l0 = dg.local(0);
        assert_eq!(l0.known_degree(3), g.degree(3));
        assert_eq!(l0.known_degree(4), g.degree(4));
    }

    #[test]
    fn orientation_with_ghosts() {
        let (g, part) = two_pe_graph();
        let mut dg = DistGraph::with_partition(&g, part);
        dg.fill_ghost_degrees_centrally();
        let o = dg.local(0).orient(OrderingKind::Degree, true);
        // degrees: d0=2 d1=3 d2=3 d3=3 d4=3 d5=2
        // A(0) = {1,2} (both deg 3 > 2)
        assert_eq!(o.a_owned(0), &[1, 2]);
        // A(1): nbrs {0,2,4}; key(1)=(3,1); 0=(2,0) no; 2=(3,2) yes; 4=(3,4) yes
        assert_eq!(o.a_owned(1), &[2, 4]);
        // A(2): nbrs {0,1,3}; key(2)=(3,2); 3=(3,3) yes only
        assert_eq!(o.a_owned(2), &[3]);
        // ghosts of PE0: 3 and 4; A(3) local = owned nbrs ≻ 3 = {2?}: key(2)=(3,2) < (3,3) → none
        assert_eq!(o.a_ghost(0), &[] as &[VertexId]);
        // A(4) local: owned nbr 1, key(1)=(3,1) < (3,4) → none
        assert_eq!(o.a_ghost(1), &[] as &[VertexId]);
    }

    #[test]
    fn contraction_keeps_only_cut_entries() {
        let (g, part) = two_pe_graph();
        let mut dg = DistGraph::with_partition(&g, part);
        dg.fill_ghost_degrees_centrally();
        let o = dg.local(0).orient(OrderingKind::Degree, true);
        let c = o.contracted();
        assert_eq!(c.a_of(0), &[] as &[VertexId]);
        assert_eq!(c.a_of(1), &[4]);
        assert_eq!(c.a_of(2), &[3]);
        assert_eq!(c.num_entries(), 2);
        let ne: Vec<_> = c.nonempty().map(|(v, a)| (v, a.to_vec())).collect();
        assert_eq!(ne, vec![(1, vec![4]), (2, vec![3])]);
    }

    #[test]
    fn id_orientation_needs_no_ghost_degrees() {
        let (g, part) = two_pe_graph();
        let dg = DistGraph::with_partition(&g, part);
        let o = dg.local(0).orient(OrderingKind::Id, false);
        assert_eq!(o.a_owned(0), &[1, 2]);
        assert_eq!(o.a_owned(2), &[3]);
        assert!(o.a_of(5).is_none());
    }

    #[test]
    fn single_pe_has_no_ghosts() {
        let (g, _) = two_pe_graph();
        let dg = DistGraph::new(&g, 1);
        assert!(dg.local(0).ghosts().is_empty());
        assert_eq!(dg.local(0).num_cut_edges(), 0);
        assert_eq!(dg.num_cut_edges(), 0);
    }

    #[test]
    fn from_neighborhoods_reconstructs_local_graph() {
        let (g, part) = two_pe_graph();
        for rank in 0..2 {
            let reference = LocalGraph::from_global(&g, &part, rank);
            let nbh: Vec<(VertexId, Vec<VertexId>)> = reference
                .owned_vertices()
                .map(|v| (v, reference.neighbors(v).to_vec()))
                .collect();
            let rebuilt = LocalGraph::from_neighborhoods(part.clone(), rank, nbh);
            for v in rebuilt.owned_vertices() {
                assert_eq!(rebuilt.neighbors(v), reference.neighbors(v));
            }
            assert_eq!(rebuilt.ghosts().ids(), reference.ghosts().ids());
        }
    }

    #[test]
    #[should_panic(expected = "cover the owned range")]
    fn from_neighborhoods_rejects_partial_coverage() {
        let (_, part) = two_pe_graph();
        let _ = LocalGraph::from_neighborhoods(part, 0, vec![(0, vec![1])]);
    }

    #[test]
    #[should_panic(expected = "id order")]
    fn from_neighborhoods_rejects_misordered_vertices() {
        let (_, part) = two_pe_graph();
        let _ =
            LocalGraph::from_neighborhoods(part, 0, vec![(1, vec![0]), (0, vec![1]), (2, vec![])]);
    }

    #[test]
    fn oriented_entries_sum_to_m() {
        let (g, part) = two_pe_graph();
        let mut dg = DistGraph::with_partition(&g, part);
        dg.fill_ghost_degrees_centrally();
        let total: u64 = (0..2)
            .map(|r| {
                dg.local(r)
                    .orient(OrderingKind::Degree, false)
                    .num_oriented_entries()
            })
            .sum();
        assert_eq!(total, g.num_edges());
    }
}

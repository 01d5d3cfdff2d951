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
    /// The result numbers every vertex this PE can see densely
    /// ([`DenseIds`]) and keeps its lists in those numbers.
    ///
    /// Requires ghost degrees when `kind == Degree` and ghosts exist.
    /// Panics with [`DenseIdOverflow`]'s message on a PE that sees `2^32`
    /// or more vertices.
    pub fn orient(&self, kind: OrderingKind, expand_ghosts: bool) -> OrientedLocalGraph {
        if kind == OrderingKind::Degree && !self.ghosts.is_empty() {
            assert!(
                self.ghosts.degrees_known(),
                "degree orientation requires the ghost degree exchange first"
            );
        }
        let ids = DenseIds::new(self.rank, self.owned_range(), self.ghosts.ids.clone())
            .unwrap_or_else(|e| panic!("{e}"));
        let owned = ids.owned();
        // Every visible vertex's ≺-key, by dense id, packed as
        // `degree · 2^32 + dense id`: dense ids order like global ids, so
        // this orders like `OrdKey`. A packed degree saturates at 2^32 − 1,
        // which keeps every comparison below exact: each one involves an
        // owned vertex, whose neighbours are all visible here, so its
        // degree is below the dense id count, itself below 2^32.
        let key: Vec<u64> = (0..ids.len() as LocalId)
            .map(|l| {
                let deg = match kind {
                    OrderingKind::Id => 0,
                    _ if owned.contains(&l) => self.degree(ids.global_of(l)),
                    _ => self.ghosts.degree(ids.ghost_index(l)),
                };
                (deg.min(u64::from(u32::MAX)) << 32) | u64::from(l)
            })
            .collect();
        // One pass over the owned lists, in ascending dense order: an owned
        // x keeps its neighbours y ≻ x; with expansion an incoming cut edge
        // is rewired instead — ghost y's locally visible
        // A(y) = { x ∈ V_i ∩ N_y | x ≻ y } gains x, recorded as (y, x) in
        // ascending x, so every ghost list comes out sorted.
        let mut owned_adj: Vec<LocalId> = Vec::new();
        let mut owned_off: Vec<usize> = Vec::with_capacity(owned.len() + 1);
        owned_off.push(0);
        let mut rewired: Vec<(LocalId, LocalId)> = Vec::new();
        let mut nbrs: Vec<LocalId> = Vec::new();
        for (v, x) in self.owned_range().zip(owned.clone()) {
            nbrs.clear();
            ids.translate(self.neighbors(v), &mut nbrs);
            let kx = key[x as usize];
            for &y in &nbrs {
                if key[y as usize] > kx {
                    owned_adj.push(y);
                } else if expand_ghosts && !owned.contains(&y) {
                    rewired.push((y, x));
                }
            }
            owned_off.push(owned_adj.len());
        }

        // One CSR over every dense id: ghosts below, owned, ghosts above.
        let mut off = vec![0usize; ids.len() + 1];
        for &(y, _) in &rewired {
            off[y as usize + 1] += 1;
        }
        for (i, x) in owned.clone().enumerate() {
            off[x as usize + 1] = owned_off[i + 1] - owned_off[i];
        }
        for l in 0..ids.len() {
            off[l + 1] += off[l];
        }
        let mut adj: Vec<LocalId> = vec![0; off[ids.len()]];
        let first = off[owned.start as usize];
        adj[first..first + owned_adj.len()].copy_from_slice(&owned_adj);
        let mut fill = off.clone();
        for (y, x) in rewired {
            adj[fill[y as usize]] = x;
            fill[y as usize] += 1;
        }

        OrientedLocalGraph {
            rank: self.rank,
            part: self.part.clone(),
            kind,
            ids,
            off,
            adj,
            expanded: expand_ghosts,
        }
    }
}

/// A vertex's dense number on one PE: its position among the vertices the
/// PE can see, in global id order ([`DenseIds`]).
pub type LocalId = u32;

/// A PE sees too many vertices to number them in a [`LocalId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DenseIdOverflow {
    /// The PE.
    pub rank: usize,
    /// How many vertices it sees (owned plus ghosts).
    pub seen: u64,
}

impl std::fmt::Display for DenseIdOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PE {} sees {} vertices; dense local ids hold at most {}",
            self.rank,
            self.seen,
            LocalId::MAX
        )
    }
}

impl std::error::Error for DenseIdOverflow {}

/// The dense id count of a PE that sees `seen` vertices, or the error that
/// names the PE and the count when they do not fit a [`LocalId`].
fn dense_id_count(rank: usize, seen: u64) -> Result<LocalId, DenseIdOverflow> {
    LocalId::try_from(seen).map_err(|_| DenseIdOverflow { rank, seen })
}

/// The order-preserving dense numbering of the vertices one PE can see:
/// the owned range merged with the sorted ghosts in global id order gets
/// the numbers `0 .. n_i + g_i`. Ghosts below the owned range come first,
/// then the owned vertices, then the ghosts above. The map is monotone, so
/// a sorted list stays sorted and every comparison between two visible
/// vertices comes out as it does on their global ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseIds {
    owned: std::ops::Range<VertexId>,
    /// Ghosts below the owned range (the first owned dense id).
    below: LocalId,
    /// Sorted ghost ids.
    ghosts: Vec<VertexId>,
    /// Radix directory over `ghosts`: bucket `b` holds the ghosts whose
    /// `(id − first) >> shift == b`, at indices `dir[b] .. dir[b + 1]`,
    /// where `first` is the smallest ghost id.
    dir: Vec<u32>,
    first: VertexId,
    shift: u32,
}

impl DenseIds {
    /// Numbers PE `rank`'s owned range and sorted ghosts (none of them
    /// owned). Fails when the PE sees `2^32` or more vertices.
    pub fn new(
        rank: usize,
        owned: std::ops::Range<VertexId>,
        ghosts: Vec<VertexId>,
    ) -> Result<Self, DenseIdOverflow> {
        debug_assert!(ghosts.windows(2).all(|w| w[0] < w[1]), "ghosts unsorted");
        dense_id_count(rank, (owned.end - owned.start) + ghosts.len() as u64)?;
        let below = ghosts.partition_point(|&g| g < owned.start) as LocalId;
        let (first, shift, dir) = ghost_directory(&ghosts);
        Ok(Self {
            owned,
            below,
            ghosts,
            dir,
            first,
            shift,
        })
    }

    /// Number of visible vertices `n_i + g_i`.
    pub fn len(&self) -> usize {
        (self.owned.end - self.owned.start) as usize + self.ghosts.len()
    }

    /// True if this PE sees no vertex.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The dense ids of the owned vertices (contiguous).
    pub fn owned(&self) -> std::ops::Range<LocalId> {
        self.below..self.below + (self.owned.end - self.owned.start) as LocalId
    }

    /// Whether dense id `l` is an owned vertex.
    #[inline]
    pub fn is_owned(&self, l: LocalId) -> bool {
        l.wrapping_sub(self.below) < (self.owned.end - self.owned.start) as LocalId
    }

    /// Index in the sorted ghost ids of the ghost with dense id `l`.
    #[inline]
    fn ghost_index(&self, l: LocalId) -> usize {
        debug_assert!(!self.is_owned(l));
        if l < self.below {
            l as usize
        } else {
            l as usize - (self.owned.end - self.owned.start) as usize
        }
    }

    /// The global id of dense id `l`.
    #[inline]
    pub fn global_of(&self, l: LocalId) -> VertexId {
        if self.is_owned(l) {
            self.owned.start + VertexId::from(l - self.below)
        } else {
            self.ghosts[self.ghost_index(l)]
        }
    }

    /// The dense id of global id `x`; `None` if this PE cannot see it.
    #[inline]
    pub fn local_of(&self, x: VertexId) -> Option<LocalId> {
        if self.owned.contains(&x) {
            Some(self.below + (x - self.owned.start) as LocalId)
        } else {
            self.ghost_local_of(x)
        }
    }

    /// The dense id of `x` if it is a ghost: a bisection of its bucket of
    /// the ghost directory only (about one ghost on evenly spread ids), not
    /// of all the ghosts. Kept out of line, so the owned branch of a
    /// per-element loop stays small.
    #[inline(never)]
    fn ghost_local_of(&self, x: VertexId) -> Option<LocalId> {
        let b = x.checked_sub(self.first)? >> self.shift;
        if b >= (self.dir.len() - 1) as u64 {
            return None;
        }
        let (lo, hi) = (
            self.dir[b as usize] as usize,
            self.dir[b as usize + 1] as usize,
        );
        let i = lo + self.ghosts[lo..hi].binary_search(&x).ok()?;
        Some(self.dense_ghost(i))
    }

    /// The number of visible vertices whose id is at most `x`, which is
    /// also the first dense id above `x`: one bucket of the ghost
    /// directory is bisected, as in [`DenseIds::local_of`].
    pub(crate) fn count_at_most(&self, x: VertexId) -> usize {
        let owned = x.saturating_add(1).clamp(self.owned.start, self.owned.end) - self.owned.start;
        let ghosts = match x.checked_sub(self.first) {
            None => 0,
            Some(d) if d >> self.shift >= (self.dir.len() - 1) as u64 => self.ghosts.len(),
            Some(d) => {
                let b = (d >> self.shift) as usize;
                let (lo, hi) = (self.dir[b] as usize, self.dir[b + 1] as usize);
                lo + self.ghosts[lo..hi].partition_point(|&g| g <= x)
            }
        };
        owned as usize + ghosts
    }

    /// Dense id of the `i`-th ghost.
    #[inline]
    fn dense_ghost(&self, i: usize) -> LocalId {
        if i < self.below as usize {
            i as LocalId
        } else {
            (i as u64 + (self.owned.end - self.owned.start)) as LocalId
        }
    }

    /// Appends the dense ids of the elements of `list` that this PE can
    /// see, in order, skipping the others: [`DenseIds::local_of`] per
    /// element. Its owned branch is written out here: through
    /// `filter_map(local_of)` the loop measured about 10 % slower in
    /// `orient` on a geometric graph, whose lists are almost all owned.
    pub(crate) fn translate(&self, list: &[VertexId], out: &mut Vec<LocalId>) {
        for &x in list {
            if self.owned.contains(&x) {
                out.push(self.below + (x - self.owned.start) as LocalId);
            } else if let Some(l) = self.ghost_local_of(x) {
                out.push(l);
            }
        }
    }
}

/// The radix directory of the sorted ids `ghosts` as `(first, shift,
/// dir)`: `g` rounded up to a power of two buckets over the span from the
/// first ghost to the last, keyed by `(id − first) >> shift` with the
/// shift chosen so that the last ghost falls in the last bucket, and
/// `dir[b]` the index of the first ghost whose bucket is `b` or above.
/// The shift stays below 64: a span of `2^63` or more needs two ghosts,
/// hence two buckets. Keying from the first ghost, not from 0, spreads a
/// band of ghosts next to the owned range (a geometric graph's) over all
/// the buckets. `dir` has one entry more than there are buckets, so at
/// most `2·g` entries, and two when there is at most one ghost.
fn ghost_directory(ghosts: &[VertexId]) -> (VertexId, u32, Vec<u32>) {
    let (Some(&first), Some(&last)) = (ghosts.first(), ghosts.last()) else {
        return (0, 0, vec![0, 0]);
    };
    let bucket_bits = ghosts.len().next_power_of_two().trailing_zeros();
    let span_bits = VertexId::BITS - (last - first).leading_zeros();
    let shift = span_bits.saturating_sub(bucket_bits);
    let mut dir = Vec::with_capacity((1 << bucket_bits) + 1);
    let mut i = 0usize;
    for b in 0..=1u64 << bucket_bits {
        while i < ghosts.len() && (ghosts[i] - first) >> shift < b {
            i += 1;
        }
        dir.push(i as u32);
    }
    (first, shift, dir)
}

/// The degree-oriented per-PE graph in dense ids ([`DenseIds`]):
/// `A(v) = { x ∈ N_v | x ≻ v }` for owned vertices and — when built with
/// ghost expansion — the locally visible `A(g) = { x ∈ N_g ∩ V_i | x ≻ g }`
/// for ghosts, every list sorted. `A(·)` of any visible vertex is one
/// array index; without expansion the ghost lists are empty.
#[derive(Debug, Clone)]
pub struct OrientedLocalGraph {
    rank: usize,
    part: Partition,
    kind: OrderingKind,
    ids: DenseIds,
    off: Vec<usize>,
    adj: Vec<LocalId>,
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

    /// The owned global id range.
    pub fn owned_range(&self) -> std::ops::Range<VertexId> {
        self.part.range(self.rank)
    }

    /// The dense numbering of the vertices this PE can see.
    pub fn ids(&self) -> &DenseIds {
        &self.ids
    }

    /// The dense ids whose `A(·)` the local phase visits: every visible
    /// vertex when expanded, else the owned ones.
    pub fn sources(&self) -> std::ops::Range<LocalId> {
        if self.expanded {
            0..self.ids.len() as LocalId
        } else {
            self.ids.owned()
        }
    }

    /// Oriented out-neighborhood `A(l)` of dense id `l`, sorted.
    #[inline]
    pub fn a(&self, l: LocalId) -> &[LocalId] {
        let l = l as usize;
        &self.adj[self.off[l]..self.off[l + 1]]
    }

    /// Sum of owned `|A(v)|` (the number of oriented local adjacency
    /// entries).
    pub fn num_oriented_entries(&self) -> u64 {
        let owned = self.ids.owned();
        (self.off[owned.end as usize] - self.off[owned.start as usize]) as u64
    }

    /// The *contraction* step (Algorithm 3 line 8): for each owned `v`, keep
    /// only the non-local part of `A(v)` — the oriented cut edges. Returns
    /// per-owned-vertex contracted lists in dense ids (sorted; the owned
    /// dense ids are contiguous, so each is the concatenation of a prefix
    /// and a suffix of `A(v)`).
    pub fn contracted(&self) -> ContractedGraph {
        let owned = self.ids.owned();
        let mut off = Vec::with_capacity(owned.len() + 1);
        off.push(0usize);
        let mut adj = Vec::new();
        for l in owned.clone() {
            adj.extend(self.a(l).iter().copied().filter(|u| !owned.contains(u)));
            off.push(adj.len());
        }
        ContractedGraph {
            first: owned.start,
            off,
            adj,
        }
    }
}

/// The cut-graph restriction of an oriented local graph: per owned vertex the
/// oriented *cut* out-neighborhood `A(v) \ V_i`, in the oriented graph's
/// dense ids. Lemma 1 of the paper: triangles of this graph (across all
/// PEs) are exactly the type-3 triangles of `G`.
#[derive(Debug, Clone)]
pub struct ContractedGraph {
    /// Dense id of the first owned vertex.
    first: LocalId,
    off: Vec<usize>,
    adj: Vec<LocalId>,
}

impl ContractedGraph {
    /// Contracted `A(l)` of the owned vertex with dense id `l`.
    #[inline]
    pub fn a(&self, l: LocalId) -> &[LocalId] {
        let i = (l - self.first) as usize;
        &self.adj[self.off[i]..self.off[i + 1]]
    }

    /// Iterator over owned vertices with nonempty contracted neighborhoods,
    /// as `(dense id, A(v))`.
    pub fn nonempty(&self) -> impl Iterator<Item = (LocalId, &[LocalId])> + '_ {
        (0..self.off.len() - 1).filter_map(move |i| {
            let a = &self.adj[self.off[i]..self.off[i + 1]];
            (!a.is_empty()).then_some((self.first + i as LocalId, a))
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

    /// `A(v)` of global id `v` in global ids.
    fn a_global(o: &OrientedLocalGraph, v: VertexId) -> Vec<VertexId> {
        let ids = o.ids();
        let l = ids.local_of(v).expect("visible vertex");
        o.a(l).iter().map(|&x| ids.global_of(x)).collect()
    }

    #[test]
    fn orientation_with_ghosts() {
        let (g, part) = two_pe_graph();
        let mut dg = DistGraph::with_partition(&g, part);
        dg.fill_ghost_degrees_centrally();
        let o = dg.local(0).orient(OrderingKind::Degree, true);
        // degrees: d0=2 d1=3 d2=3 d3=3 d4=3 d5=2
        // A(0) = {1,2} (both deg 3 > 2)
        assert_eq!(a_global(&o, 0), [1, 2]);
        // A(1): nbrs {0,2,4}; key(1)=(3,1); 0=(2,0) no; 2=(3,2) yes; 4=(3,4) yes
        assert_eq!(a_global(&o, 1), [2, 4]);
        // A(2): nbrs {0,1,3}; key(2)=(3,2); 3=(3,3) yes only
        assert_eq!(a_global(&o, 2), [3]);
        // ghosts of PE0: 3 and 4; A(3) local = owned nbrs ≻ 3 = {2?}: key(2)=(3,2) < (3,3) → none
        assert_eq!(a_global(&o, 3), [] as [VertexId; 0]);
        // A(4) local: owned nbr 1, key(1)=(3,1) < (3,4) → none
        assert_eq!(a_global(&o, 4), [] as [VertexId; 0]);
        assert_eq!(o.sources(), 0..5);
    }

    /// Ghosts below the owned range take the first dense ids: on PE 1 the
    /// ghosts 1 and 2 are numbered 0 and 1, its owned 3..6 are 2..5, and
    /// the rewired ghost lists hold the owned heads that out-rank them.
    #[test]
    fn dense_ids_put_lower_ghosts_first() {
        let (g, part) = two_pe_graph();
        let mut dg = DistGraph::with_partition(&g, part);
        dg.fill_ghost_degrees_centrally();
        let o = dg.local(1).orient(OrderingKind::Degree, true);
        let ids = o.ids();
        assert_eq!(ids.owned(), 2..5);
        assert_eq!(
            (0..5).map(|l| ids.global_of(l)).collect::<Vec<_>>(),
            [1, 2, 3, 4, 5]
        );
        // A(1) local: owned nbr 4 with key (3,4) ≻ (3,1); A(2): owned 3 ≻ 2
        assert_eq!(a_global(&o, 1), [4]);
        assert_eq!(a_global(&o, 2), [3]);
        assert_eq!(o.a(0), [3]);
        assert_eq!(o.a(1), [2]);
    }

    #[test]
    fn contraction_keeps_only_cut_entries() {
        let (g, part) = two_pe_graph();
        let mut dg = DistGraph::with_partition(&g, part);
        dg.fill_ghost_degrees_centrally();
        let o = dg.local(0).orient(OrderingKind::Degree, true);
        let c = o.contracted();
        let ids = o.ids();
        let global = |a: &[LocalId]| a.iter().map(|&x| ids.global_of(x)).collect::<Vec<_>>();
        assert_eq!(global(c.a(0)), [] as [VertexId; 0]);
        assert_eq!(global(c.a(1)), [4]);
        assert_eq!(global(c.a(2)), [3]);
        assert_eq!(c.num_entries(), 2);
        let ne: Vec<_> = c
            .nonempty()
            .map(|(l, a)| (ids.global_of(l), global(a)))
            .collect();
        assert_eq!(ne, vec![(1, vec![4]), (2, vec![3])]);
    }

    #[test]
    fn id_orientation_needs_no_ghost_degrees() {
        let (g, part) = two_pe_graph();
        let dg = DistGraph::with_partition(&g, part);
        let o = dg.local(0).orient(OrderingKind::Id, false);
        assert_eq!(a_global(&o, 0), [1, 2]);
        assert_eq!(a_global(&o, 2), [3]);
        // without expansion a ghost's list is empty and the pass skips it
        assert_eq!(a_global(&o, 3), [] as [VertexId; 0]);
        assert_eq!(o.sources(), o.ids().owned());
        assert!(o.ids().local_of(5).is_none());
    }

    /// A PE that sees more vertices than a `u32` numbers fails with an
    /// error naming the PE and the count instead of truncating; no such
    /// graph is built.
    #[test]
    fn dense_ids_refuse_to_wrap() {
        assert_eq!(dense_id_count(3, 0), Ok(0));
        assert_eq!(dense_id_count(3, u64::from(u32::MAX)), Ok(u32::MAX));
        let err = dense_id_count(7, 1 << 32).unwrap_err();
        assert_eq!(
            err,
            DenseIdOverflow {
                rank: 7,
                seen: 1 << 32
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("PE 7") && msg.contains("4294967296"), "{msg}");
        assert_eq!(
            dense_id_count(0, u64::MAX).unwrap_err().seen,
            u64::MAX,
            "the count is reported, not truncated"
        );
        // an owned range alone past the limit fails the same way
        let err = DenseIds::new(2, 0..(1 << 32) + 5, vec![]).unwrap_err();
        assert_eq!(
            err,
            DenseIdOverflow {
                rank: 2,
                seen: (1 << 32) + 5
            }
        );
    }

    /// Seeded property test over random partitions: the numbering is
    /// monotone, `global_of(local_of(x)) == x` for every owned and ghost
    /// id, and `local_of` is `None` for every other id, including ids
    /// around `u32::MAX` that a truncating conversion would alias.
    #[test]
    fn dense_numbering_is_monotone_and_exact() {
        let mut rng = 0x6465_6e73_u64; // "dens"
        let mut next = |m: u64| {
            rng = rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % m
        };
        for case in 0..200 {
            // a universe near u32::MAX on every other case
            let base = if case % 2 == 0 {
                0
            } else {
                u64::from(u32::MAX) - 40
            };
            let n = 1 + next(80);
            let (s, e) = {
                let s = base + next(n);
                (s, s + next(n - (s - base) + 1))
            };
            let mut ghosts: Vec<VertexId> = (base..base + n)
                .filter(|x| !(s..e).contains(x) && next(3) == 0)
                .collect();
            ghosts.dedup();
            let ids = DenseIds::new(0, s..e, ghosts.clone()).unwrap();
            assert_eq!(ids.len() as u64, (e - s) + ghosts.len() as u64);
            let globals: Vec<VertexId> = (0..ids.len() as LocalId)
                .map(|l| ids.global_of(l))
                .collect();
            assert!(
                globals.windows(2).all(|w| w[0] < w[1]),
                "monotone, case {case}"
            );
            for x in base.saturating_sub(3)..base + n + 3 {
                let visible = (s..e).contains(&x) || ghosts.contains(&x);
                match ids.local_of(x) {
                    Some(l) => {
                        assert!(visible, "{x} numbered but not visible, case {case}");
                        assert_eq!(ids.global_of(l), x, "round trip, case {case}");
                        assert_eq!(ids.is_owned(l), (s..e).contains(&x));
                    }
                    None => assert!(!visible, "{x} visible but unnumbered, case {case}"),
                }
            }
            // translate keeps exactly the visible ids of a sorted list, in order
            let list: Vec<VertexId> = (base.saturating_sub(3)..base + n + 3)
                .filter(|_| next(2) == 0)
                .collect();
            let mut out = Vec::new();
            ids.translate(&list, &mut out);
            let want: Vec<LocalId> = list.iter().filter_map(|&x| ids.local_of(x)).collect();
            assert_eq!(out, want, "translate, case {case}");
        }
    }

    /// Seeded property test of the ghost directory on the ghost sets that
    /// stress it: none, one, only 0 and `u64::MAX`, all but one in one
    /// bucket, spread over `2^40`, on both sides of the owned range, and at
    /// and next to `u32::MAX` and `u64::MAX`. `local_of`, `translate` and
    /// `count_at_most` agree with a bisection of all the ghosts on every id
    /// in and around the set, and the directory holds at most `2·g + 2`
    /// entries.
    #[test]
    fn ghost_directory_agrees_with_bisection() {
        let mut rng = 0x6469_7265_u64; // "dire"
        let mut next = |m: u64| {
            rng = rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % m
        };
        let edges = [u64::from(u32::MAX), u64::MAX];
        for case in 0..240 {
            let g = 1 + next(200);
            let (owned, mut ghosts): (std::ops::Range<VertexId>, Vec<VertexId>) = match case % 6 {
                0 => {
                    let s = next(1 << 40);
                    (s..s + 64, vec![])
                }
                // one ghost, or just 0 and u64::MAX: the widest span
                1 => {
                    let one = [64 + next(1 << 40), edges[0], edges[1]];
                    let ghosts = match case / 6 % 4 {
                        3 => vec![0, u64::MAX],
                        k => vec![one[k]],
                    };
                    (1..1 + next(64), ghosts)
                }
                // one ghost, then a cluster that fills one bucket
                2 => {
                    let c = (1 << 40) + next(1 << 20);
                    (1..64, [0].into_iter().chain(c..c + g).collect())
                }
                3 => (0..0, (0..g).map(|_| next(1 << 40)).collect()),
                4 => {
                    // g ghosts below the owned range, g above
                    let s = 1 + next(1 << 39);
                    let both = (0..2 * g).map(|k| {
                        if k < g {
                            next(s)
                        } else {
                            s + 300 + next(1 << 39)
                        }
                    });
                    (s..s + 300, both.collect())
                }
                _ => {
                    // the edge itself, its neighbours, and a sparse tail
                    let e = edges[case / 6 % 2];
                    let near = (0..g).map(|k| e - next(if k < 8 { 4 } else { 1 << 20 }));
                    (100..200, near.chain([e - 1, e]).collect())
                }
            };
            ghosts.sort_unstable();
            ghosts.dedup();
            let ids = DenseIds::new(0, owned.clone(), ghosts.clone()).unwrap();
            assert!(
                ids.dir.len() <= 2 * ghosts.len() + 2,
                "{} directory entries for {} ghosts, case {case}",
                ids.dir.len(),
                ghosts.len()
            );
            if ghosts.is_empty() {
                assert_eq!(ids.dir, [0, 0], "case {case}");
            }
            if case % 6 == 2 {
                let widest = ids.dir.windows(2).map(|w| w[1] - w[0]).max();
                assert_eq!(widest, Some(g as u32), "one bucket, case {case}");
            }
            let n_owned = owned.end - owned.start;
            let below = ghosts.partition_point(|&x| x < owned.start) as u64;
            let oracle = |x: VertexId| -> Option<LocalId> {
                if owned.contains(&x) {
                    return Some((below + x - owned.start) as LocalId);
                }
                let i = ghosts.binary_search(&x).ok()? as u64;
                Some(if i < below { i } else { i + n_owned } as LocalId)
            };
            let mut probes: Vec<VertexId> = [0, u64::MAX, owned.start, owned.end]
                .into_iter()
                .chain(edges)
                .chain(ghosts.iter().copied())
                .chain((0..20).map(|_| next(u64::MAX)))
                .flat_map(|x| (0..5).map(move |d| x.wrapping_add(d).wrapping_sub(2)))
                .collect();
            probes.sort_unstable();
            probes.dedup();
            for &x in &probes {
                assert_eq!(ids.local_of(x), oracle(x), "local_of({x}), case {case}");
                let at_most = ghosts.partition_point(|&y| y <= x) as u64
                    + (x.saturating_add(1).clamp(owned.start, owned.end) - owned.start);
                assert_eq!(
                    ids.count_at_most(x) as u64,
                    at_most,
                    "count_at_most({x}), case {case}"
                );
            }
            let mut out = Vec::new();
            ids.translate(&probes, &mut out);
            let want: Vec<LocalId> = probes.iter().filter_map(|&x| oracle(x)).collect();
            assert_eq!(out, want, "translate, case {case}");
        }
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

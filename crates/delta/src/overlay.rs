//! The per-PE mutable adjacency overlay.
//!
//! A [`LocalGraph`] is immutable CSR storage. An [`Overlay`] layers two
//! sorted delta lists per owned vertex on top of it — `added` (edges not
//! in the base) and `removed` (base edges logically deleted) — so the
//! *merged* neighborhood `(base \ removed) ∪ added` is available as a
//! sorted stream ([`Overlay::merged_neighbors`]) without rewriting the
//! CSR; [`Overlay::merge_into`] copies it into a slice for the
//! `graph::intersect` kernels.
//!
//! The overlay also carries **ghost-degree overrides**: the targeted
//! refresh of the update protocol records the new global degree of every
//! touched remote vertex here, so a later compaction (merging the overlay
//! into a fresh base, [`Overlay::merged_local_graph`]) can re-orient by
//! degree without any further communication — including for ghosts the
//! base never had.
//!
//! Invariants, checked in debug builds: `added[v]` and `removed[v]` are
//! sorted and duplicate-free, `added[v] ∩ base(v) = ∅`, and
//! `removed[v] ⊆ base(v)`.

use std::collections::BTreeMap;

use tricount_graph::dist::LocalGraph;
use tricount_graph::VertexId;

/// Sorted insertion/deletion delta lists over a base [`LocalGraph`], plus
/// refreshed ghost degrees. One per PE; indexes owned vertices only (each
/// undirected edge is overlaid at both endpoints, on their owning PEs).
#[derive(Debug, Clone, Default)]
pub struct Overlay {
    start: VertexId,
    added: Vec<Vec<VertexId>>,
    removed: Vec<Vec<VertexId>>,
    added_entries: u64,
    removed_entries: u64,
    /// Refreshed global degrees of remote vertices (touched ghosts and
    /// endpoints of added cut edges). Override the base ghost degrees.
    ghost_degrees: BTreeMap<VertexId, u64>,
    /// Remote endpoints currently referenced by `added` lists, with a
    /// reference count — the "new ghosts" a compaction will acquire.
    added_remote: BTreeMap<VertexId, u64>,
}

impl Overlay {
    /// An empty overlay for `lg`'s owned range.
    pub fn for_local(lg: &LocalGraph) -> Self {
        let n = lg.num_owned() as usize;
        Overlay {
            start: lg.owned_range().start,
            added: vec![Vec::new(); n],
            removed: vec![Vec::new(); n],
            added_entries: 0,
            removed_entries: 0,
            ghost_degrees: BTreeMap::new(),
            added_remote: BTreeMap::new(),
        }
    }

    #[inline]
    fn slot(&self, v: VertexId) -> usize {
        debug_assert!(v >= self.start && ((v - self.start) as usize) < self.added.len());
        (v - self.start) as usize
    }

    /// Total overlay entries (added + removed directed slots) on this PE.
    pub fn entries(&self) -> u64 {
        self.added_entries + self.removed_entries
    }

    /// Whether the overlay holds no pending deltas (ghost-degree overrides
    /// don't count: they stay correct across compactions).
    pub fn is_clean(&self) -> bool {
        self.entries() == 0
    }

    /// Whether owned vertex `v`'s neighborhood carries no pending deltas —
    /// i.e. its merged view equals the base CSR slice exactly. Lets callers
    /// intersect the base slice of a clean vertex in place and copy the
    /// merged view only where the overlay is actually dirty.
    pub fn is_clean_at(&self, v: VertexId) -> bool {
        let s = self.slot(v);
        self.added[s].is_empty() && self.removed[s].is_empty()
    }

    /// Whether the *current* graph (base ⊕ overlay) contains `{v, u}`,
    /// judged from owned endpoint `v`. Both owners of an edge reach the
    /// same verdict independently — undirected adjacency is symmetric —
    /// which is what lets the update protocol filter no-ops without an
    /// agreement round.
    pub fn has_edge(&self, lg: &LocalGraph, v: VertexId, u: VertexId) -> bool {
        let s = self.slot(v);
        if self.added[s].binary_search(&u).is_ok() {
            return true;
        }
        if self.removed[s].binary_search(&u).is_ok() {
            return false;
        }
        lg.neighbors(v).binary_search(&u).is_ok()
    }

    /// Records the insertion of `{v, u}` at owned endpoint `v`. The caller
    /// must have checked effectiveness (`!has_edge(lg, v, u)`).
    pub fn insert(&mut self, lg: &LocalGraph, v: VertexId, u: VertexId) {
        debug_assert!(!self.has_edge(lg, v, u), "insert of a present edge");
        let s = self.slot(v);
        if let Ok(pos) = self.removed[s].binary_search(&u) {
            // re-insertion of a base edge deleted earlier: cancel
            self.removed[s].remove(pos);
            self.removed_entries -= 1;
        } else {
            let pos = self.added[s].binary_search(&u).unwrap_err();
            self.added[s].insert(pos, u);
            self.added_entries += 1;
            if !lg.is_owned(u) {
                *self.added_remote.entry(u).or_insert(0) += 1;
            }
        }
    }

    /// Records the deletion of `{v, u}` at owned endpoint `v`. The caller
    /// must have checked effectiveness (`has_edge(lg, v, u)`).
    pub fn delete(&mut self, lg: &LocalGraph, v: VertexId, u: VertexId) {
        debug_assert!(self.has_edge(lg, v, u), "delete of an absent edge");
        let s = self.slot(v);
        if let Ok(pos) = self.added[s].binary_search(&u) {
            // deleting an overlay-inserted edge: cancel
            self.added[s].remove(pos);
            self.added_entries -= 1;
            if !lg.is_owned(u) {
                let cnt = self
                    .added_remote
                    .get_mut(&u)
                    .expect("added remote endpoint was refcounted");
                *cnt -= 1;
                if *cnt == 0 {
                    self.added_remote.remove(&u);
                }
            }
        } else {
            let pos = self.removed[s].binary_search(&u).unwrap_err();
            self.removed[s].insert(pos, u);
            self.removed_entries += 1;
        }
    }

    /// The merged neighborhood `(base(v) \ removed(v)) ∪ added(v)` of an
    /// owned vertex as a sorted stream.
    pub fn merged_neighbors<'a>(&'a self, lg: &'a LocalGraph, v: VertexId) -> MergedNeighbors<'a> {
        let s = self.slot(v);
        MergedNeighbors {
            base: lg.neighbors(v),
            added: &self.added[s],
            removed: &self.removed[s],
            bi: 0,
            ai: 0,
        }
    }

    /// Materialises the merged neighborhood of `v` into `out` (cleared
    /// first) — for the slice intersection kernels and protocol payloads.
    pub fn merge_into(&self, lg: &LocalGraph, v: VertexId, out: &mut Vec<VertexId>) {
        out.clear();
        out.extend(self.merged_neighbors(lg, v));
    }

    /// The degree of owned vertex `v` in the current (base ⊕ overlay)
    /// graph.
    pub fn degree_after(&self, lg: &LocalGraph, v: VertexId) -> u64 {
        let s = self.slot(v);
        lg.degree(v) + self.added[s].len() as u64 - self.removed[s].len() as u64
    }

    /// Records the refreshed global degree of remote vertex `v`.
    pub fn set_ghost_degree(&mut self, v: VertexId, degree: u64) {
        self.ghost_degrees.insert(v, degree);
    }

    /// Whether remote vertex `v` is relevant to this PE: a base ghost, or
    /// the remote endpoint of an overlay-added edge (a new ghost a future
    /// compaction will acquire).
    pub fn tracks_remote(&self, lg: &LocalGraph, v: VertexId) -> bool {
        self.added_remote.contains_key(&v) || lg.ghosts().index_of(v).is_some()
    }

    /// The freshest known global degree of remote vertex `v`: the override
    /// if the update protocol refreshed it, else the base exchange's value.
    pub fn ghost_degree(&self, lg: &LocalGraph, v: VertexId) -> Option<u64> {
        if let Some(&d) = self.ghost_degrees.get(&v) {
            return Some(d);
        }
        let gi = lg.ghosts().index_of(v)?;
        lg.ghosts().degrees_known().then(|| lg.ghosts().degree(gi))
    }

    /// Compacts the overlay into a fresh base: builds a new [`LocalGraph`]
    /// from the merged neighborhoods and installs ghost degrees from the
    /// base exchange plus the refreshed overrides — entirely
    /// communication-free, because the update protocol kept the overrides
    /// current for every touched remote vertex. Degrees are installed only
    /// when resolvable for *every* ghost of the new base (always, when the
    /// base had them); otherwise the new base is left degree-less, which
    /// only id-ordered pipelines accept.
    ///
    /// The overlay itself is not modified; call [`reset`](Overlay::reset)
    /// after swapping the prepared state.
    pub fn merged_local_graph(&self, lg: &LocalGraph) -> LocalGraph {
        let neighborhoods: Vec<(VertexId, Vec<VertexId>)> = lg
            .owned_range()
            .map(|v| (v, self.merged_neighbors(lg, v).collect()))
            .collect();
        let mut merged =
            LocalGraph::from_neighborhoods(lg.partition().clone(), lg.rank(), neighborhoods);
        let degrees: Option<Vec<u64>> = merged
            .ghosts()
            .ids()
            .iter()
            .map(|&g| self.ghost_degree(lg, g))
            .collect();
        if let Some(d) = degrees {
            merged.set_ghost_degrees(d);
        }
        merged
    }

    /// Clears the delta lists after a compaction. Ghost-degree overrides
    /// are retained: they record current global degrees, which stay valid
    /// (the refresh phase updates them whenever a degree changes).
    pub fn reset(&mut self) {
        for l in &mut self.added {
            l.clear();
        }
        for l in &mut self.removed {
            l.clear();
        }
        self.added_entries = 0;
        self.removed_entries = 0;
        self.added_remote.clear();
    }
}

/// Sorted stream over `(base \ removed) ∪ added`. See
/// [`Overlay::merged_neighbors`].
#[derive(Debug, Clone)]
pub struct MergedNeighbors<'a> {
    base: &'a [VertexId],
    added: &'a [VertexId],
    removed: &'a [VertexId],
    bi: usize,
    ai: usize,
}

impl Iterator for MergedNeighbors<'_> {
    type Item = VertexId;

    fn next(&mut self) -> Option<VertexId> {
        loop {
            let b = self.base.get(self.bi).copied();
            let a = self.added.get(self.ai).copied();
            match (b, a) {
                (None, None) => return None,
                (None, Some(x)) => {
                    self.ai += 1;
                    return Some(x);
                }
                (Some(x), None) => {
                    self.bi += 1;
                    if self.removed.binary_search(&x).is_err() {
                        return Some(x);
                    }
                }
                (Some(x), Some(y)) => {
                    // added ∩ base = ∅ by invariant, so x ≠ y
                    if x < y {
                        self.bi += 1;
                        if self.removed.binary_search(&x).is_err() {
                            return Some(x);
                        }
                    } else {
                        self.ai += 1;
                        return Some(y);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tricount_graph::dist::DistGraph;
    use tricount_graph::Csr;

    fn local_of(g: &Csr, p: usize, rank: usize) -> LocalGraph {
        let mut dg = DistGraph::new(g, p);
        dg.fill_ghost_degrees_centrally();
        dg.into_locals().remove(rank)
    }

    #[test]
    fn merged_neighbors_reflect_edits() {
        let g = tricount_gen::rgg2d_default(40, 11);
        let lg = local_of(&g, 2, 0);
        let mut ov = Overlay::for_local(&lg);
        let v = lg.owned_range().start;
        let base: Vec<VertexId> = lg.neighbors(v).to_vec();

        // delete the first base neighbor, add two absent ones
        let absent: Vec<VertexId> = (0..40u64)
            .filter(|&u| u != v && !g.has_edge(v, u))
            .take(2)
            .collect();
        assert_eq!(absent.len(), 2, "graph is sparse enough");
        if let Some(&gone) = base.first() {
            assert!(ov.has_edge(&lg, v, gone));
            ov.delete(&lg, v, gone);
            assert!(!ov.has_edge(&lg, v, gone));
        }
        for &u in &absent {
            assert!(!ov.has_edge(&lg, v, u));
            ov.insert(&lg, v, u);
            assert!(ov.has_edge(&lg, v, u));
        }

        let mut expect: Vec<VertexId> = base.iter().copied().skip(1).collect();
        expect.extend(&absent);
        expect.sort_unstable();
        let merged: Vec<VertexId> = ov.merged_neighbors(&lg, v).collect();
        assert_eq!(merged, expect);
        assert_eq!(ov.degree_after(&lg, v), expect.len() as u64);
        assert_eq!(
            ov.entries(),
            2 + u64::from(!base.is_empty()),
            "two adds plus one remove"
        );
    }

    #[test]
    fn insert_then_delete_cancels() {
        let g = tricount_gen::rgg2d_default(30, 5);
        let lg = local_of(&g, 1, 0);
        let mut ov = Overlay::for_local(&lg);
        let v = 0u64;
        let u = (1..30u64).find(|&u| !g.has_edge(v, u)).unwrap();
        ov.insert(&lg, v, u);
        assert_eq!(ov.entries(), 1);
        ov.delete(&lg, v, u);
        assert_eq!(ov.entries(), 0);
        assert!(ov.is_clean());
        let merged: Vec<VertexId> = ov.merged_neighbors(&lg, v).collect();
        assert_eq!(merged, lg.neighbors(v));
    }

    #[test]
    fn delete_then_reinsert_cancels() {
        let g = tricount_gen::rgg2d_default(30, 5);
        let lg = local_of(&g, 1, 0);
        let mut ov = Overlay::for_local(&lg);
        let v = (0..30u64).find(|&v| !lg.neighbors(v).is_empty()).unwrap();
        let u = lg.neighbors(v)[0];
        ov.delete(&lg, v, u);
        ov.insert(&lg, v, u);
        assert!(ov.is_clean());
        assert!(ov.has_edge(&lg, v, u));
    }

    #[test]
    fn merged_local_graph_compacts_with_degrees() {
        let g = tricount_gen::rgg2d_default(60, 9);
        let p = 3;
        let lg = local_of(&g, p, 1);
        let mut ov = Overlay::for_local(&lg);
        let range = lg.owned_range();

        // add a cut edge to a brand-new remote endpoint
        let v = range.start;
        let remote = (0..60u64)
            .find(|&u| !lg.is_owned(u) && !g.has_edge(v, u) && lg.ghosts().index_of(u).is_none())
            .expect("some un-ghosted remote vertex");
        ov.insert(&lg, v, remote);
        assert!(ov.tracks_remote(&lg, remote));
        // the protocol would refresh its degree; simulate that
        ov.set_ghost_degree(remote, g.neighbors(remote).len() as u64 + 1);

        let merged = ov.merged_local_graph(&lg);
        assert_eq!(merged.owned_range(), range);
        assert!(merged.ghosts().index_of(remote).is_some());
        assert!(merged.ghosts().degrees_known());
        let gi = merged.ghosts().index_of(remote).unwrap();
        assert_eq!(
            merged.ghosts().degree(gi),
            g.neighbors(remote).len() as u64 + 1
        );
        assert_eq!(
            merged.degree(v),
            lg.degree(v) + 1,
            "merged base includes the added edge"
        );
        // orientation by degree works on the compacted base
        let oriented = merged.orient(tricount_graph::OrderingKind::Degree, true);
        assert!(oriented.is_expanded());
    }
}

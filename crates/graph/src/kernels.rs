//! Adaptive intersection-kernel layer.
//!
//! Every counting path in the reproduction intersects sorted adjacency
//! lists. Which kernel wins depends on the *shape* of the pair: merge is
//! optimal for balanced lists, galloping/binary probing wins when one list
//! is much shorter than the other. This module provides:
//!
//! * [`KernelPolicy`] — the knob block threaded through `DistConfig`: the
//!   intra-PE pool width.
//! * [`Dispatcher`] — the per-call-site chooser. Given two lists it picks a
//!   kernel by the §III cost model `|small|·⌈log₂|large|⌉ < |small| + |large|`
//!   and tallies the choice in [`KernelCounters`].
//! * [`Marker`] — the same picks for one source list met by many others
//!   (the local pass's `A(v)` against each `A(u)`, a received record against
//!   each owned head): a flag array over a PE's dense ids is set from the
//!   source once, and every merge pick scans the other list against it.
//!   Counts, `ops` and tallies are the dispatcher's.
//!
//! The dispatch decision is a pure function of the two list lengths —
//! never of schedule, chunk boundaries, or pool width — so counts and
//! `ops` totals are bit-identical across pool sizes and schedule
//! perturbations.

use crate::dist::{DenseIds, LocalId};
use crate::intersect::{
    binary_search_collect, binary_search_count, gallop_collect, gallop_count, merge_collect,
    merge_count, probe_by,
};
use crate::VertexId;

/// Intra-PE parallelism policy, threaded through `DistConfig` into every
/// counting path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelPolicy {
    /// Worker threads for the intra-PE pool. Above 1, the per-PE local
    /// counting loops run in degree-balanced chunks on the `par` pool; the
    /// default 1 runs them inline. Totals are bit-identical either way.
    pub pool_workers: usize,
}

impl Default for KernelPolicy {
    fn default() -> Self {
        Self { pool_workers: 1 }
    }
}

/// Per-kernel dispatch tallies: how many intersections each kernel served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelCounters {
    /// Intersections served by the two-pointer merge.
    pub merge: u64,
    /// Intersections served by galloping probes.
    pub gallop: u64,
    /// Intersections served by plain binary-search probes.
    pub binary: u64,
}

impl KernelCounters {
    /// Total dispatches across all kernels.
    pub fn total(&self) -> u64 {
        self.merge + self.gallop + self.binary
    }

    /// Fold another tally into this one.
    pub fn absorb(&mut self, other: &KernelCounters) {
        self.merge += other.merge;
        self.gallop += other.gallop;
        self.binary += other.binary;
    }

    /// `(name, count)` pairs in fixed order, for rendering.
    pub fn named(&self) -> [(&'static str, u64); 3] {
        [
            ("merge", self.merge),
            ("gallop", self.gallop),
            ("binary", self.binary),
        ]
    }
}

/// Which kernel the dispatcher picked for one intersection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pick {
    Merge,
    Gallop,
    Binary,
}

/// The per-call-site kernel chooser: the §III cost model plus the dispatch
/// tallies. Cheap to construct; each parallel chunk owns its own and the
/// tallies are merged in canonical chunk order.
#[derive(Debug, Default)]
pub struct Dispatcher {
    counters: KernelCounters,
}

/// `⌈log₂(n)⌉` for `n ≥ 1` (0 for `n ≤ 1`).
#[inline]
fn ceil_log2(n: usize) -> u64 {
    if n <= 1 {
        0
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as u64
    }
}

/// The §III cost model: probing wins when
/// `|small| · ⌈log₂|large|⌉ < |small| + |large|`.
#[inline]
fn probe_wins(small: usize, large: usize) -> bool {
    (small as u64).saturating_mul(ceil_log2(large)) < (small + large) as u64
}

impl Dispatcher {
    /// A fresh dispatcher. The policy is an ignored compatibility argument:
    /// the pick depends on the list lengths alone.
    pub fn new(_policy: KernelPolicy) -> Self {
        Self::default()
    }

    /// The dispatch tallies accumulated so far.
    pub fn counters(&self) -> KernelCounters {
        self.counters
    }

    /// Picks a kernel for a probe side of `small` elements against a table
    /// of `large` and tallies the pick: merge unless probing wins, and then
    /// plain bisection for probe sides of 8 or fewer (they amortise no
    /// gallop state), galloping above.
    #[inline]
    fn pick(&mut self, small: usize, large: usize) -> Pick {
        if !probe_wins(small, large) {
            self.counters.merge += 1;
            Pick::Merge
        } else if small <= 8 {
            self.counters.binary += 1;
            Pick::Binary
        } else {
            self.counters.gallop += 1;
            Pick::Gallop
        }
    }

    /// Count the intersection of two sorted lists, returning `(count, ops)`.
    /// The two key arguments are ignored compatibility arguments.
    #[inline]
    pub fn count(
        &mut self,
        a: &[VertexId],
        _a_key: Option<VertexId>,
        b: &[VertexId],
        _b_key: Option<VertexId>,
    ) -> (u64, u64) {
        if a.is_empty() || b.is_empty() {
            return (0, 0);
        }
        // Orient so `probe` is the smaller side and `table` the larger. The
        // merge gets the larger side first: its two chains split that list
        // in half, and its ops are symmetric in the two lists.
        let (probe, table) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        match self.pick(probe.len(), table.len()) {
            Pick::Merge => merge_count(table, probe),
            Pick::Gallop => gallop_count(probe, table),
            Pick::Binary => binary_search_count(probe, table),
        }
    }

    /// Collect the intersection of two sorted lists into `out`, returning
    /// the op count. Output order is ascending for every kernel.
    #[inline]
    pub fn collect(&mut self, a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) -> u64 {
        if a.is_empty() || b.is_empty() {
            return 0;
        }
        let (probe, table) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        match self.pick(probe.len(), table.len()) {
            Pick::Merge => merge_collect(table, probe, out),
            Pick::Gallop => gallop_collect(probe, table, out),
            Pick::Binary => binary_search_collect(probe, table, out),
        }
    }
}

/// How a [`Source`] list reads the dense ids of the lists it meets: the
/// id space the source is kept in.
pub trait IdSpace: Copy {
    /// The source list's element type.
    type Id: Copy + Ord;
    /// Dense id `l` in this space.
    fn id(self, l: LocalId) -> Self::Id;
    /// Appends the dense ids of the elements of the sorted `list` this PE
    /// can see.
    fn visible(self, list: &[Self::Id], out: &mut Vec<LocalId>);
    /// The first dense id above `last`: the dense ids below it are those
    /// of the visible ids at or below `last`.
    fn bound(self, last: Self::Id) -> usize;
}

/// Dense ids themselves: the space of a local pass's sources.
#[derive(Debug, Clone, Copy)]
pub struct Dense;

impl IdSpace for Dense {
    type Id = LocalId;
    #[inline]
    fn id(self, l: LocalId) -> LocalId {
        l
    }
    #[inline]
    fn visible(self, list: &[LocalId], out: &mut Vec<LocalId>) {
        out.extend_from_slice(list);
    }
    #[inline]
    fn bound(self, last: LocalId) -> usize {
        last as usize + 1
    }
}

/// Global ids read through a PE's numbering: the space of a record the
/// global pass received, which may hold ids this PE cannot see.
impl IdSpace for &DenseIds {
    type Id = VertexId;
    #[inline]
    fn id(self, l: LocalId) -> VertexId {
        self.global_of(l)
    }
    #[inline]
    fn visible(self, list: &[VertexId], out: &mut Vec<LocalId>) {
        self.translate(list, out);
    }
    #[inline]
    fn bound(self, last: VertexId) -> usize {
        self.count_at_most(last)
    }
}

/// Mark once, probe many: a flag per dense id of one PE (one marker per PE
/// and per pool worker) plus the dispatcher whose picks it serves. A
/// [`Source`] sets the flags of its list on its first merge pick and
/// clears them when dropped, so the marker holds no state between sources.
///
/// The metering contract is the dispatcher's, so counts, `ops`, modeled
/// time and dispatch tallies do not depend on which of the two serves a
/// pair:
/// * the pick is the §III cost model on the two list lengths — for a
///   received record, its full length, ids this PE cannot see included;
/// * a merge pick counts by scanning the other list against the flags once,
///   in dense ids up to the source's dense bound ([`IdSpace::bound`]), and
///   meters the plain merge's `ops = i_stop + j_stop − count` on the global
///   lists, with a `partition_point` over the source only when the other
///   list ends first;
/// * gallop and binary picks run the probe kernels, comparing a received
///   record with a dense list through [`DenseIds::global_of`].
#[derive(Debug)]
pub struct Marker {
    flags: Vec<bool>,
    marked: Vec<LocalId>,
    dispatcher: Dispatcher,
}

impl Marker {
    /// A marker over `len` dense ids, all clear.
    pub fn new(len: usize) -> Self {
        Self {
            flags: vec![false; len],
            marked: Vec::new(),
            dispatcher: Dispatcher::default(),
        }
    }

    /// The dispatch tallies of every pair served so far.
    pub fn counters(&self) -> KernelCounters {
        self.dispatcher.counters()
    }

    /// `list`, kept in `space`, as the source every following intersection
    /// is taken against. Its flags are set on the first merge pick and
    /// cleared when the source is dropped.
    pub fn source<'m, S: IdSpace>(&'m mut self, space: S, list: &'m [S::Id]) -> Source<'m, S> {
        Source {
            marker: self,
            space,
            list,
            bound: None,
        }
    }
}

/// One source list of a [`Marker`]; see there.
#[derive(Debug)]
pub struct Source<'m, S: IdSpace> {
    marker: &'m mut Marker,
    space: S,
    list: &'m [S::Id],
    /// The dense bound of the source's last id, once its flags are set.
    bound: Option<usize>,
}

impl<S: IdSpace> Source<'_, S> {
    /// `|source ∩ b|` for a sorted dense list `b`, as `(count, ops)`.
    #[inline]
    pub fn count(&mut self, b: &[LocalId]) -> (u64, u64) {
        match self.pick(b) {
            None => (0, 0),
            Some(Pick::Merge) => {
                let bound = self.mark();
                let flags = &self.marker.flags;
                let (mut count, mut j) = (0u64, b.len());
                if (b[b.len() - 1] as usize) < bound {
                    count = b.iter().map(|&y| u64::from(flags[y as usize])).sum();
                } else {
                    for (k, &y) in b.iter().enumerate() {
                        if y as usize >= bound {
                            j = k;
                            break;
                        }
                        count += u64::from(flags[y as usize]);
                    }
                }
                (count, self.merge_stop(b, j) as u64 - count)
            }
            Some(pick) => {
                let mut count = 0u64;
                let ops = self.probe(pick, b, |_| count += 1);
                (count, ops)
            }
        }
    }

    /// Appends `source ∩ b` for a sorted dense list `b` to `out` as dense
    /// ids, ascending, and returns the ops.
    #[inline]
    pub fn collect(&mut self, b: &[LocalId], out: &mut Vec<LocalId>) -> u64 {
        match self.pick(b) {
            None => 0,
            Some(Pick::Merge) => {
                let bound = self.mark();
                let flags = &self.marker.flags;
                let base = out.len();
                out.resize(base + b.len(), 0);
                let (mut k, mut j) = (base, b.len());
                for (i, &y) in b.iter().enumerate() {
                    if y as usize >= bound {
                        j = i;
                        break;
                    }
                    out[k] = y;
                    k += usize::from(flags[y as usize]);
                }
                out.truncate(k);
                (self.merge_stop(b, j) - (k - base)) as u64
            }
            Some(pick) => self.probe(pick, b, |y| out.push(y)),
        }
    }

    /// The dispatcher's pick for this source against `b`, tallied; `None`
    /// (and no tally) when either list is empty.
    #[inline]
    fn pick(&mut self, b: &[LocalId]) -> Option<Pick> {
        let (la, lb) = (self.list.len(), b.len());
        (la > 0 && lb > 0).then(|| self.marker.dispatcher.pick(la.min(lb), la.max(lb)))
    }

    /// A merge pick: sets the source's flags and its dense bound if they
    /// are not yet set, and returns the bound. A merge scans `b` only
    /// below it: the dense ids below the bound are the visible ids up to
    /// the source's last, the only part of `b` the plain merge passes.
    #[inline]
    fn mark(&mut self) -> usize {
        if let Some(bound) = self.bound {
            return bound;
        }
        let m = &mut *self.marker;
        self.space.visible(self.list, &mut m.marked);
        for &l in &m.marked {
            m.flags[l as usize] = true;
        }
        let bound = self.space.bound(self.list[self.list.len() - 1]);
        self.bound = Some(bound);
        bound
    }

    /// Where the plain merge of the source and `b` stops (`i + j`), given
    /// the `j` elements of `b` at or below the source's last: short of
    /// `|b|`, the source runs out first; else `b` does, past the source's
    /// elements at or below `b`'s last.
    #[inline]
    fn merge_stop(&self, b: &[LocalId], j: usize) -> usize {
        if j < b.len() {
            self.list.len() + j
        } else {
            let lb = self.space.id(b[b.len() - 1]);
            b.len() + self.list.partition_point(|&x| x <= lb)
        }
    }

    /// A gallop or binary pick: the smaller list (the source on a tie)
    /// probes the larger, both compared in the source's space, and `hit`
    /// gets every common element as a dense id. Returns the ops.
    #[inline]
    fn probe(&self, pick: Pick, b: &[LocalId], mut hit: impl FnMut(LocalId)) -> u64 {
        let (a, space, gallop) = (self.list, self.space, pick == Pick::Gallop);
        if a.len() <= b.len() {
            probe_by(
                gallop,
                a.iter().copied(),
                |x| x,
                b,
                |y| space.id(y),
                |_, y| hit(y),
            )
        } else {
            probe_by(
                gallop,
                b.iter().copied(),
                |y| space.id(y),
                a,
                |x| x,
                |y, _| hit(y),
            )
        }
    }
}

impl<S: IdSpace> Drop for Source<'_, S> {
    fn drop(&mut self) {
        let m = &mut *self.marker;
        for &l in &m.marked {
            m.flags[l as usize] = false;
        }
        m.marked.clear();
    }
}

/// Degree-aware chunks: split `weights` (one weight per item, in canonical
/// item order) into at most `chunks` contiguous ranges of roughly equal
/// total weight, by walking the prefix sum. Returns `(start, end)` index
/// pairs covering `0..weights.len()` exactly, in order. Deterministic in
/// (weights, chunks) — independent of pool width or schedule.
pub fn balanced_chunks(weights: &[u64], chunks: usize) -> Vec<(usize, usize)> {
    let n = weights.len();
    if n == 0 {
        return Vec::new();
    }
    let chunks = chunks.max(1);
    // Weight each item at least 1 so zero-degree runs still split.
    let total: u64 = weights.iter().map(|&w| w.max(1)).sum();
    let target = total.div_ceil(chunks as u64).max(1);
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0usize;
    let mut acc = 0u64;
    for (i, &w) in weights.iter().enumerate() {
        acc += w.max(1);
        if acc >= target {
            out.push((start, i + 1));
            start = i + 1;
            acc = 0;
        }
    }
    if start < n {
        out.push((start, n));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intersect::{
        binary_search_collect, binary_search_count, gallop_collect, gallop_count, merge_collect,
        merge_count,
    };

    fn list(vals: &[u64]) -> Vec<VertexId> {
        vals.to_vec()
    }

    #[test]
    fn policy_default_is_auto_sequential() {
        assert_eq!(KernelPolicy::default().pool_workers, 1);
    }

    /// On one pair per kernel (balanced → merge, tiny probe → binary, mid
    /// probe → gallop) every dispatcher entry point returns the merge
    /// answer and tallies exactly one dispatch per call.
    #[test]
    fn all_dispatch_modes_agree_on_count() {
        let big: Vec<VertexId> = (0..2000).map(|i| i * 3).collect();
        let pairs = [
            ((0..2000).map(|i| i * 2).collect::<Vec<VertexId>>(), "merge"),
            (list(&[3, 5, 600, 601, 5997]), "binary"),
            ((0..64).map(|i| i * 90).collect(), "gallop"),
        ];
        for (small, kernel) in &pairs {
            let expect = merge_count(small, &big).0;
            let mut expect_out = Vec::new();
            merge_collect(small, &big, &mut expect_out);
            let mut d = Dispatcher::default();
            assert_eq!(d.count(small, None, &big, None).0, expect, "{kernel}");
            let mut out = Vec::new();
            d.collect(small, &big, &mut out);
            assert_eq!(out, expect_out, "{kernel} collect");
            let c = d.counters();
            assert_eq!(c.total(), 2, "{kernel}");
            let picked = c.named().iter().find(|&&(_, n)| n > 0).unwrap().0;
            assert_eq!(picked, *kernel);
        }
    }

    /// Property test over adversarial list shapes: every kernel function
    /// (count and collect) and the dispatcher must agree with the slice
    /// merge on count *and* elements, and the marker in both id spaces
    /// with the dispatcher, for 1000×-skewed, empty, disjoint, identical
    /// and randomly-overlapping pairs. Lists are drawn from a seeded
    /// SplitMix64 walk so failures reproduce exactly.
    #[test]
    fn adversarial_shapes_all_kernels_agree() {
        use crate::intersect::tests::sorted_unique;

        type Count = fn(&[VertexId], &[VertexId]) -> (u64, u64);
        type Collect = fn(&[VertexId], &[VertexId], &mut Vec<VertexId>) -> u64;
        let slice_kernels: [(&str, Count, Collect); 3] = [
            ("merge", merge_count, merge_collect),
            ("gallop", gallop_count, gallop_collect),
            ("binary", binary_search_count, binary_search_collect),
        ];

        let mut rng = 0x6b65_726e_u64; // "kern"

        // (|a|, |b|, value span) — span controls overlap density. The
        // 2 / 2000 rows are the 1000× skew of the acceptance criteria.
        let shapes: [(usize, usize, u64); 8] = [
            (2, 2000, 6000),           // 1000× skew, dense overlap
            (2000, 2, 6000),           // skew with the large list first
            (1, 1000, 1_000_000),      // extreme skew, sparse values
            (0, 500, 1000),            // empty vs non-empty
            (0, 0, 1),                 // both empty
            (300, 300, 400),           // heavy overlap
            (64, 4096, 5000),          // 64× skew (galloping territory)
            (500, 500, 1_000_000_000), // near-disjoint random lists
        ];
        for (la, lb, span) in shapes {
            for rep in 0..8 {
                let a = sorted_unique(&mut rng, la, span);
                let mut b = sorted_unique(&mut rng, lb, span);
                if rep == 7 {
                    // force the fully-disjoint case: shift b past a's span
                    for v in &mut b {
                        *v += span + 1;
                    }
                }
                let at = format!("shape ({la},{lb},{span}) rep {rep}");
                let (expect, _) = merge_count(&a, &b);
                let mut expect_out = Vec::new();
                merge_collect(&a, &b, &mut expect_out);
                let mut out = Vec::new();
                for (kernel, count, collect) in slice_kernels {
                    assert_eq!(count(&a, &b).0, expect, "{kernel} count, {at}");
                    out.clear();
                    collect(&a, &b, &mut out);
                    assert_eq!(out, expect_out, "{kernel} collect, {at}");
                }
                let mut d = Dispatcher::default();
                assert_eq!(d.count(&a, None, &b, None).0, expect, "auto count, {at}");
                out.clear();
                d.collect(&a, &b, &mut out);
                assert_eq!(out, expect_out, "auto collect, {at}");
                marker_agrees(&a, &b, span, &at);
            }
        }
    }

    /// The marker on one adversarial pair, in both id spaces, against the
    /// dispatcher: counts, ops, elements and picks. The PE sees all of `b`,
    /// an owned range and every other element of `a`; as a local pass's
    /// source `a` is cut to what the PE sees, as a received record it keeps
    /// the ids the PE cannot see.
    fn marker_agrees(a: &[VertexId], b: &[VertexId], span: u64, at: &str) {
        let owned = span / 2..span / 2 + (span / 4).min(2000);
        let mut ghosts: Vec<VertexId> = b
            .iter()
            .chain(a.iter().step_by(2))
            .copied()
            .filter(|x| !owned.contains(x))
            .collect();
        ghosts.sort_unstable();
        ghosts.dedup();
        let ids = DenseIds::new(0, owned, ghosts).unwrap();
        let dense = |list: &[VertexId]| -> Vec<LocalId> {
            list.iter().filter_map(|&x| ids.local_of(x)).collect()
        };
        let global = |list: &[LocalId]| -> Vec<VertexId> {
            list.iter().map(|&l| ids.global_of(l)).collect()
        };
        let (seen, b) = (dense(a), dense(b));
        let (mut marker, mut d) = (Marker::new(ids.len()), Dispatcher::default());
        let (mut out, mut want) = (Vec::new(), Vec::new());

        let mut src = marker.source(Dense, &seen);
        let expect = d.count(&global(&seen), None, &global(&b), None);
        assert_eq!(src.count(&b), expect, "marker local count, {at}");
        let ops = d.collect(&global(&seen), &global(&b), &mut want);
        assert_eq!(src.collect(&b, &mut out), ops, "marker local ops, {at}");
        assert_eq!(global(&out), want, "marker local collect, {at}");
        drop(src);

        let mut src = marker.source(&ids, a);
        let expect = d.count(a, None, &global(&b), None);
        assert_eq!(src.count(&b), expect, "marker received count, {at}");
        want.clear();
        out.clear();
        let ops = d.collect(a, &global(&b), &mut want);
        assert_eq!(src.collect(&b, &mut out), ops, "marker received ops, {at}");
        assert_eq!(global(&out), want, "marker received collect, {at}");
        drop(src);
        assert_eq!(marker.counters(), d.counters(), "marker picks, {at}");
    }

    #[test]
    fn auto_picks_merge_for_balanced_and_probe_for_skewed() {
        let a: Vec<VertexId> = (0..100).collect();
        let b: Vec<VertexId> = (50..150).collect();
        let mut d = Dispatcher::default();
        d.count(&a, None, &b, None);
        assert_eq!(d.counters().merge, 1, "balanced → merge");

        let small = list(&[10, 500, 900]);
        let big: Vec<VertexId> = (0..10_000).collect();
        let mut d = Dispatcher::default();
        d.count(&small, None, &big, None);
        assert_eq!(d.counters().binary, 1, "tiny probe → binary");

        let mid: Vec<VertexId> = (0..64).map(|i| i * 7).collect();
        let mut d = Dispatcher::default();
        d.count(&mid, None, &big, None);
        assert_eq!(d.counters().gallop, 1, "mid probe → gallop");
    }

    /// A table of 256 or more elements — a hub-sized list — is dispatched
    /// by the cost model like any other: `|small|·⌈log₂|large|⌉` against
    /// `|small| + |large|` decides merge or probing, and the probe side's
    /// length decides binary or gallop. The expected picks are worked out
    /// by hand at ⌈log₂ 256⌉ = 8 and ⌈log₂ 1024⌉ = 10.
    #[test]
    fn auto_picks_by_cost_model_on_hub_sized_lists() {
        let cases: [(usize, usize, &str); 8] = [
            (3, 256, "binary"),    // 24 < 259
            (8, 256, "binary"),    // 64 < 264
            (9, 256, "gallop"),    // 72 < 265
            (36, 256, "gallop"),   // 288 < 292
            (37, 256, "merge"),    // 296 ≥ 293
            (256, 256, "merge"),   // balanced
            (113, 1024, "gallop"), // 1130 < 1137
            (114, 1024, "merge"),  // 1140 ≥ 1138
        ];
        for (small_len, large_len, kernel) in cases {
            let large: Vec<VertexId> = (0..large_len as u64).map(|i| 2 * i).collect();
            let small: Vec<VertexId> = (0..small_len as u64).map(|i| 3 * i).collect();
            let expect = merge_count(&small, &large).0;
            // The key arguments name the hub list; they must not matter.
            for (a_key, b_key) in [(None, None), (Some(1), Some(0))] {
                let mut d = Dispatcher::new(KernelPolicy::default());
                assert_eq!(d.count(&small, a_key, &large, b_key).0, expect);
                let c = d.counters();
                let picked = c.named().iter().find(|&&(_, n)| n > 0).unwrap().0;
                assert_eq!(
                    (picked, c.total()),
                    (kernel, 1),
                    "|small| = {small_len}, |large| = {large_len}"
                );
            }
        }
    }

    /// Seeded property test of the marker's contract: on every pair the
    /// marker and the dispatcher return the same count, the same ops and
    /// the same pick, and the marker's collect returns the dispatcher's
    /// elements. Each source meets several head lists (mark once, probe
    /// many) and all sources share one marker, so a flag left set by one
    /// source would show in the next. Sources run both as a local pass's
    /// dense list and as a received record in global ids that also holds
    /// ids this PE cannot see — first, inside and last. Every other case
    /// numbers a universe straddling `2^32`, where the global ids do not
    /// fit a `u32` but their dense ids do.
    #[test]
    fn marker_matches_dispatcher() {
        use crate::intersect::tests::{sorted_unique, splitmix};

        let mut rng = 0x6d61_726b_u64; // "mark"
                                       // (|a|, |b|): empty, single, 1000× skew either way, 63/64/65
                                       // combined elements, the gallop and binary ranges, balanced
        let shapes: [(usize, usize); 16] = [
            (0, 5),
            (5, 0),
            (0, 0),
            (1, 1),
            (1, 60),
            (2, 2000),
            (2000, 2),
            (31, 32),
            (32, 32),
            (32, 33),
            (8, 256),
            (9, 256),
            (40, 300),
            (300, 40),
            (300, 300),
            (700, 650),
        ];
        for case in 0..4u64 {
            let base = if case % 2 == 0 {
                0
            } else {
                u64::from(u32::MAX) - 5000
            };
            let span = 8000u64;
            // owned [base + 2000, base + 5000); about half the rest of
            // [base + 10, base + span) are ghosts
            let owned = base + 2000..base + 5000;
            let ghosts: Vec<VertexId> = (base + 10..base + span)
                .filter(|x| !owned.contains(x) && splitmix(&mut rng) % 2 == 0)
                .collect();
            let ids = DenseIds::new(0, owned, ghosts).unwrap();
            let n = ids.len() as u64;
            let invisible: Vec<VertexId> = (base..base + span + 10)
                .filter(|&x| ids.local_of(x).is_none())
                .collect();
            let global = |a: &[LocalId]| a.iter().map(|&l| ids.global_of(l)).collect::<Vec<_>>();
            let dense = |len: usize, rng: &mut u64| -> Vec<LocalId> {
                sorted_unique(rng, len.min(n as usize), n)
                    .iter()
                    .map(|&l| l as LocalId)
                    .collect()
            };

            let mut marker = Marker::new(ids.len());
            let mut d = Dispatcher::default();
            let (mut out, mut want) = (Vec::new(), Vec::new());
            for (la, lb) in shapes {
                for rep in 0..6 {
                    let a = dense(la, &mut rng);
                    // received: a's global ids with unseen ids mixed in,
                    // then forced first (rep 1, 3) and last (rep 2, 3)
                    let mut rec = global(&a);
                    if !rec.is_empty() {
                        let k = 1 + la / 4;
                        for _ in 0..k {
                            rec.push(invisible[splitmix(&mut rng) as usize % invisible.len()]);
                        }
                        if rep % 4 == 1 || rep % 4 == 3 {
                            rec.push(base);
                        }
                        if rep % 4 >= 2 {
                            rec.push(base + span + 5);
                        }
                        rec.sort_unstable();
                        rec.dedup();
                    }
                    let heads: Vec<Vec<LocalId>> = (0..4)
                        .map(|h| {
                            let mut b = dense(lb, &mut rng);
                            match (h, rep) {
                                // equal last elements
                                (1, _) => {
                                    if let (Some(&x), Some(y)) = (a.last(), b.last_mut()) {
                                        *y = x;
                                        b.sort_unstable();
                                        b.dedup();
                                    }
                                }
                                // disjoint, b above a or below it
                                (2, 4) => b.retain(|&y| a.last().is_none_or(|&x| y > x)),
                                (2, 5) => b.retain(|&y| a.first().is_none_or(|&x| y < x)),
                                _ => {}
                            }
                            b
                        })
                        .collect();
                    let at = |what: &str, b: &[LocalId]| {
                        format!("{what} case {case} |a| {la} |b| {} rep {rep}", b.len())
                    };

                    // a local pass's source: dense ids on both sides
                    let mut src = marker.source(Dense, &a);
                    for b in &heads {
                        let expect = d.count(&global(&a), None, &global(b), None);
                        assert_eq!(src.count(b), expect, "{}", at("local count", b));
                        want.clear();
                        d.collect(&global(&a), &global(b), &mut want);
                        out.clear();
                        src.collect(b, &mut out);
                        assert_eq!(global(&out), want, "{}", at("local collect", b));
                    }
                    drop(src);
                    assert_eq!(marker.counters(), d.counters(), "local tally, case {case}");

                    // the receiver's source: the global record
                    let mut src = marker.source(&ids, &rec);
                    for b in &heads {
                        let expect = d.count(&rec, None, &global(b), None);
                        assert_eq!(src.count(b), expect, "{}", at("received count", b));
                        want.clear();
                        let ops = d.collect(&rec, &global(b), &mut want);
                        out.clear();
                        assert_eq!(src.collect(b, &mut out), ops, "{}", at("received ops", b));
                        assert_eq!(global(&out), want, "{}", at("received collect", b));
                    }
                    drop(src);
                    assert_eq!(
                        marker.counters(),
                        d.counters(),
                        "received tally, case {case}"
                    );
                }
            }
            let c = marker.counters();
            assert!(
                c.merge > 0 && c.gallop > 0 && c.binary > 0,
                "every pick ran: {c:?}"
            );
        }
    }

    #[test]
    fn counters_absorb_sums_fields() {
        let mut a = KernelCounters {
            merge: 1,
            gallop: 2,
            binary: 3,
        };
        let b = KernelCounters {
            merge: 10,
            gallop: 20,
            binary: 30,
        };
        a.absorb(&b);
        assert_eq!(a.total(), 66);
    }

    #[test]
    fn balanced_chunks_cover_range_exactly() {
        for n in [0usize, 1, 2, 7, 100] {
            for chunks in [1usize, 2, 3, 8, 200] {
                let weights: Vec<u64> = (0..n as u64).map(|i| i % 13).collect();
                let ranges = balanced_chunks(&weights, chunks);
                let mut next = 0usize;
                for &(s, e) in &ranges {
                    assert_eq!(s, next, "contiguous n={n} chunks={chunks}");
                    assert!(e > s);
                    next = e;
                }
                assert_eq!(next, n, "covers n={n} chunks={chunks}");
                assert!(ranges.len() <= chunks.max(1) + 1);
            }
        }
    }

    #[test]
    fn balanced_chunks_balance_by_weight_not_count() {
        // One huge item followed by many tiny ones: the huge item must get
        // its own chunk instead of dragging half the tiny ones with it.
        let mut weights = vec![1000u64];
        weights.extend(std::iter::repeat_n(1u64, 1000));
        let ranges = balanced_chunks(&weights, 2);
        assert!(ranges.len() >= 2);
        assert_eq!(ranges[0], (0, 1), "hub item isolated: {ranges:?}");
    }
}

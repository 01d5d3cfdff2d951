//! Adaptive intersection-kernel layer.
//!
//! Every counting path in the reproduction intersects sorted adjacency
//! lists. Which kernel wins depends on the *shape* of the pair: merge is
//! optimal for balanced lists, galloping/binary probing wins when one list
//! is much shorter than the other, and for genuine hub vertices a
//! precomputed bitmap/hash index answers each probe in O(1). This module
//! provides:
//!
//! * [`KernelPolicy`] — the knob block threaded through `DistConfig`: forced
//!   kernel or [`KernelChoice::Auto`], the hub-degree threshold, and the
//!   intra-PE chunking/pool-width controls.
//! * [`HubIndex`] — a per-PE index over high-degree adjacency lists, built
//!   once at `PreparedRank` construction (and rebuilt on delta compaction,
//!   which is what keeps it coherent — see DESIGN §5e).
//! * [`Dispatcher`] — the per-call-site chooser. Given two lists (and
//!   optionally the vertex ids that key them in the hub index) it picks a
//!   kernel by the cost model `|small|·⌈log₂|large|⌉ < |small| + |large|`
//!   and tallies the choice in [`KernelCounters`].
//!
//! The dispatch decision is a pure function of the list lengths, the policy,
//! and hub-index membership — never of schedule, chunk boundaries, or pool
//! width — so for a fixed policy, counts and `ops` totals are bit-identical
//! across pool sizes and schedule perturbations.

use crate::hash::{FxHashMap, FxHashSet};
use crate::intersect::{
    binary_search_collect, binary_search_collect_iter, binary_search_count,
    binary_search_count_iter, gallop_collect, gallop_collect_iter, gallop_count, gallop_count_iter,
    merge_collect, merge_collect_iter, merge_count, merge_count_iter,
};
use crate::VertexId;

/// Which intersection kernel to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelChoice {
    /// Pick per call site by the size-ratio cost model, preferring the hub
    /// index when the larger side is indexed.
    #[default]
    Auto,
    /// Always the two-pointer merge (the paper's §III baseline).
    Merge,
    /// Always galloping (exponential search) probes.
    Gallop,
    /// Always plain binary-search probes.
    Binary,
    /// Always the hub bitmap/hash index; falls back to merge (recorded as a
    /// merge dispatch) when the larger side is not indexed.
    Bitmap,
}

impl KernelChoice {
    /// Parse a CLI spelling (`auto`, `merge`, `gallop`, `binary`, `bitmap`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "auto" => Some(Self::Auto),
            "merge" => Some(Self::Merge),
            "gallop" => Some(Self::Gallop),
            "binary" => Some(Self::Binary),
            "bitmap" => Some(Self::Bitmap),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            Self::Auto => "auto",
            Self::Merge => "merge",
            Self::Gallop => "gallop",
            Self::Binary => "binary",
            Self::Bitmap => "bitmap",
        }
    }
}

/// Kernel-selection and intra-PE parallelism policy, threaded through
/// `DistConfig` into every counting path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelPolicy {
    /// Forced kernel, or [`KernelChoice::Auto`] for the cost model.
    pub kernel: KernelChoice,
    /// Adjacency lists at least this long get a hub-index entry at
    /// `PreparedRank` construction.
    pub hub_threshold: u64,
    /// Chunk per-PE counting loops and run them on the `par` pool. Off by
    /// default; totals are bit-identical either way.
    pub chunking: bool,
    /// Worker threads for the intra-PE pool when `chunking` is on.
    pub pool_workers: usize,
}

impl Default for KernelPolicy {
    fn default() -> Self {
        Self {
            kernel: KernelChoice::Auto,
            hub_threshold: 256,
            chunking: false,
            pool_workers: 1,
        }
    }
}

impl KernelPolicy {
    /// A policy that reproduces the pre-kernel-layer behaviour exactly:
    /// merge everywhere, sequential.
    pub fn merge_only() -> Self {
        Self {
            kernel: KernelChoice::Merge,
            ..Self::default()
        }
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
    /// Intersections served by the hub bitmap/hash index.
    pub bitmap: u64,
}

impl KernelCounters {
    /// Total dispatches across all kernels.
    pub fn total(&self) -> u64 {
        self.merge + self.gallop + self.binary + self.bitmap
    }

    /// Fold another tally into this one.
    pub fn absorb(&mut self, other: &KernelCounters) {
        self.merge += other.merge;
        self.gallop += other.gallop;
        self.binary += other.binary;
        self.bitmap += other.bitmap;
    }

    /// `(name, count)` pairs in fixed order, for rendering.
    pub fn named(&self) -> [(&'static str, u64); 4] {
        [
            ("merge", self.merge),
            ("gallop", self.gallop),
            ("binary", self.binary),
            ("bitmap", self.bitmap),
        ]
    }
}

/// One indexed hub neighborhood: a bitmap when the id span is dense enough
/// to pay for itself, otherwise a hash set.
#[derive(Debug, Clone)]
enum HubEntry {
    /// Dense: bit `v - base` set iff `v` is a neighbor.
    Bits { base: VertexId, words: Vec<u64> },
    /// Sparse: plain hash membership.
    Set(FxHashSet<VertexId>),
}

impl HubEntry {
    fn build(list: &[VertexId]) -> Self {
        debug_assert!(!list.is_empty());
        let base = list[0];
        let span = (list[list.len() - 1] - base) as usize + 1;
        let words = span / 64 + 1;
        // A bitmap costs `words` u64s; the hash set costs ~2 u64s per
        // element. Prefer the bitmap while it is at most ~4× the list.
        if words <= list.len().saturating_mul(4) {
            let mut bits = vec![0u64; words];
            for &v in list {
                let off = (v - base) as usize;
                bits[off / 64] |= 1 << (off % 64);
            }
            HubEntry::Bits { base, words: bits }
        } else {
            HubEntry::Set(list.iter().copied().collect())
        }
    }

    #[inline]
    fn contains(&self, v: VertexId) -> bool {
        match self {
            HubEntry::Bits { base, words } => {
                if v < *base {
                    return false;
                }
                let off = (v - base) as usize;
                match words.get(off / 64) {
                    Some(w) => w & (1 << (off % 64)) != 0,
                    None => false,
                }
            }
            HubEntry::Set(s) => s.contains(&v),
        }
    }
}

/// Per-PE membership index over hub (high-degree) adjacency lists, keyed by
/// the vertex whose neighborhood each list is.
///
/// Built once from the prepared (oriented or contracted) lists; the delta
/// path never consults those lists between compactions — overlay counting
/// streams merged views instead — so rebuild-on-compaction keeps the index
/// coherent without incremental maintenance.
#[derive(Debug, Clone, Default)]
pub struct HubIndex {
    entries: FxHashMap<VertexId, HubEntry>,
}

impl HubIndex {
    /// An empty index (nothing reaches the bitmap path).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Index every `(v, list)` pair with `list.len() >= threshold`.
    pub fn build<'a, I>(lists: I, threshold: u64) -> Self
    where
        I: Iterator<Item = (VertexId, &'a [VertexId])>,
    {
        let mut entries = FxHashMap::default();
        for (v, list) in lists {
            if list.len() as u64 >= threshold && !list.is_empty() {
                entries.insert(v, HubEntry::build(list));
            }
        }
        Self { entries }
    }

    /// Number of indexed hubs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no hub is indexed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    #[inline]
    fn get(&self, v: VertexId) -> Option<&HubEntry> {
        self.entries.get(&v)
    }
}

/// Which kernel the dispatcher picked for one intersection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pick {
    Merge,
    Gallop,
    Binary,
    /// Probe the *other* side into this hub entry.
    Bitmap,
}

/// The per-call-site kernel chooser. Holds the policy, an optional hub
/// index, and the dispatch tallies. Cheap to construct (two words + a map
/// reference); each parallel chunk owns its own and the tallies are merged
/// in canonical chunk order.
#[derive(Debug)]
pub struct Dispatcher<'a> {
    policy: KernelPolicy,
    hubs: Option<&'a HubIndex>,
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

impl<'a> Dispatcher<'a> {
    /// A dispatcher with no hub index (forced-`Bitmap` policies fall back to
    /// merge).
    pub fn new(policy: KernelPolicy) -> Self {
        Self {
            policy,
            hubs: None,
            counters: KernelCounters::default(),
        }
    }

    /// A dispatcher that can route hub-keyed intersections to `hubs`.
    pub fn with_hubs(policy: KernelPolicy, hubs: &'a HubIndex) -> Self {
        Self {
            policy,
            hubs: Some(hubs),
            counters: KernelCounters::default(),
        }
    }

    /// The dispatch tallies accumulated so far.
    pub fn counters(&self) -> KernelCounters {
        self.counters
    }

    /// The policy this dispatcher runs.
    pub fn policy(&self) -> KernelPolicy {
        self.policy
    }

    /// Pick a kernel for lists of the given lengths, where the *larger*
    /// side's hub entry (if any) is `hub`. Pure in (lengths, policy, hub
    /// presence).
    #[inline]
    fn pick(&self, small: usize, large: usize, hub_indexed: bool) -> Pick {
        match self.policy.kernel {
            KernelChoice::Merge => Pick::Merge,
            KernelChoice::Gallop => Pick::Gallop,
            KernelChoice::Binary => Pick::Binary,
            KernelChoice::Bitmap => {
                if hub_indexed {
                    Pick::Bitmap
                } else {
                    Pick::Merge
                }
            }
            KernelChoice::Auto => {
                if hub_indexed {
                    Pick::Bitmap
                } else if probe_wins(small, large) {
                    // Tiny probe sides amortise no gallop state; plain
                    // bisection has the better constants.
                    if small <= 8 {
                        Pick::Binary
                    } else {
                        Pick::Gallop
                    }
                } else {
                    Pick::Merge
                }
            }
        }
    }

    #[inline]
    fn hub_entry(&self, key: Option<VertexId>, len: usize) -> Option<&'a HubEntry> {
        if len as u64 >= self.policy.hub_threshold {
            self.hubs?.get(key?)
        } else {
            None
        }
    }

    /// Count the intersection of two sorted lists. `a_key`/`b_key` are the
    /// vertices whose neighborhoods `a`/`b` are (for hub-index lookup);
    /// pass `None` for synthetic lists (e.g. message payloads).
    #[inline]
    pub fn count(
        &mut self,
        a: &[VertexId],
        a_key: Option<VertexId>,
        b: &[VertexId],
        b_key: Option<VertexId>,
    ) -> (u64, u64) {
        if a.is_empty() || b.is_empty() {
            return (0, 0);
        }
        // Orient so `probe` is the smaller side and `table` the larger —
        // the hub index is only ever worth consulting for the larger side.
        let (probe, table, table_key) = if a.len() <= b.len() {
            (a, b, b_key)
        } else {
            (b, a, a_key)
        };
        let entry = self.hub_entry(table_key, table.len());
        match self.pick(probe.len(), table.len(), entry.is_some()) {
            Pick::Merge => {
                self.counters.merge += 1;
                merge_count(probe, table)
            }
            Pick::Gallop => {
                self.counters.gallop += 1;
                gallop_count(probe, table)
            }
            Pick::Binary => {
                self.counters.binary += 1;
                binary_search_count(probe, table)
            }
            Pick::Bitmap => {
                self.counters.bitmap += 1;
                let entry = entry.expect("bitmap pick implies hub entry");
                let mut count = 0u64;
                for &x in probe {
                    if entry.contains(x) {
                        count += 1;
                    }
                }
                // One op per O(1) membership probe.
                (count, probe.len() as u64)
            }
        }
    }

    /// Collect the intersection of two sorted lists into `out`, returning
    /// the op count. Output order is ascending for every kernel.
    #[inline]
    pub fn collect(
        &mut self,
        a: &[VertexId],
        a_key: Option<VertexId>,
        b: &[VertexId],
        b_key: Option<VertexId>,
        out: &mut Vec<VertexId>,
    ) -> u64 {
        if a.is_empty() || b.is_empty() {
            return 0;
        }
        let (probe, table, table_key) = if a.len() <= b.len() {
            (a, b, b_key)
        } else {
            (b, a, a_key)
        };
        let entry = self.hub_entry(table_key, table.len());
        match self.pick(probe.len(), table.len(), entry.is_some()) {
            Pick::Merge => {
                self.counters.merge += 1;
                merge_collect(probe, table, out)
            }
            Pick::Gallop => {
                self.counters.gallop += 1;
                gallop_collect(probe, table, out)
            }
            Pick::Binary => {
                self.counters.binary += 1;
                binary_search_collect(probe, table, out)
            }
            Pick::Bitmap => {
                self.counters.bitmap += 1;
                let entry = entry.expect("bitmap pick implies hub entry");
                let mut ops = 0u64;
                for &x in probe {
                    ops += 1;
                    if entry.contains(x) {
                        out.push(x);
                    }
                }
                ops
            }
        }
    }

    /// Count a sorted probe *iterator* of known length against a sorted
    /// slice table keyed by `table_key` — the streaming entry point for the
    /// delta overlay path, where the probe side is a merged base+overlay
    /// view that never materialises.
    #[inline]
    pub fn count_iter<I>(
        &mut self,
        probe: I,
        probe_len: usize,
        table: &[VertexId],
        table_key: Option<VertexId>,
    ) -> (u64, u64)
    where
        I: Iterator<Item = VertexId>,
    {
        if probe_len == 0 || table.is_empty() {
            return (0, 0);
        }
        let entry = self.hub_entry(table_key, table.len());
        // The iterator can only be the probe side; when the table is the
        // smaller side, probing it would be wrong way round, so fall back
        // to the streaming merge.
        if table.len() < probe_len {
            self.counters.merge += 1;
            return merge_count_iter(probe, table.iter().copied());
        }
        match self.pick(probe_len, table.len(), entry.is_some()) {
            Pick::Merge => {
                self.counters.merge += 1;
                merge_count_iter(probe, table.iter().copied())
            }
            Pick::Gallop => {
                self.counters.gallop += 1;
                gallop_count_iter(probe, table)
            }
            Pick::Binary => {
                self.counters.binary += 1;
                binary_search_count_iter(probe, table)
            }
            Pick::Bitmap => {
                self.counters.bitmap += 1;
                let entry = entry.expect("bitmap pick implies hub entry");
                let mut count = 0u64;
                let mut ops = 0u64;
                for x in probe {
                    ops += 1;
                    if entry.contains(x) {
                        count += 1;
                    }
                }
                (count, ops)
            }
        }
    }

    /// Streaming merge-collect of two composed iterators — the only kernel
    /// shape available when *both* sides are unmaterialised views (e.g.
    /// two dirty overlay neighborhoods). Tallied as a merge dispatch.
    #[inline]
    pub fn merge_iters_collect<I, J>(&mut self, a: I, b: J, out: &mut Vec<VertexId>) -> u64
    where
        I: Iterator<Item = VertexId>,
        J: Iterator<Item = VertexId>,
    {
        self.counters.merge += 1;
        merge_collect_iter(a, b, out)
    }

    /// Collect twin of [`Dispatcher::count_iter`].
    #[inline]
    pub fn collect_iter<I>(
        &mut self,
        probe: I,
        probe_len: usize,
        table: &[VertexId],
        table_key: Option<VertexId>,
        out: &mut Vec<VertexId>,
    ) -> u64
    where
        I: Iterator<Item = VertexId>,
    {
        if probe_len == 0 || table.is_empty() {
            return 0;
        }
        let entry = self.hub_entry(table_key, table.len());
        if table.len() < probe_len {
            self.counters.merge += 1;
            return merge_collect_iter(probe, table.iter().copied(), out);
        }
        match self.pick(probe_len, table.len(), entry.is_some()) {
            Pick::Merge => {
                self.counters.merge += 1;
                merge_collect_iter(probe, table.iter().copied(), out)
            }
            Pick::Gallop => {
                self.counters.gallop += 1;
                gallop_collect_iter(probe, table, out)
            }
            Pick::Binary => {
                self.counters.binary += 1;
                binary_search_collect_iter(probe, table, out)
            }
            Pick::Bitmap => {
                self.counters.bitmap += 1;
                let entry = entry.expect("bitmap pick implies hub entry");
                let mut ops = 0u64;
                for x in probe {
                    ops += 1;
                    if entry.contains(x) {
                        out.push(x);
                    }
                }
                ops
            }
        }
    }
}

/// Degree-aware chunking: split `weights` (one weight per item, in canonical
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

    fn list(vals: &[u64]) -> Vec<VertexId> {
        vals.to_vec()
    }

    #[test]
    fn policy_default_is_auto_sequential() {
        let p = KernelPolicy::default();
        assert_eq!(p.kernel, KernelChoice::Auto);
        assert!(!p.chunking);
        assert_eq!(p.pool_workers, 1);
    }

    #[test]
    fn kernel_choice_parse_round_trips() {
        for k in [
            KernelChoice::Auto,
            KernelChoice::Merge,
            KernelChoice::Gallop,
            KernelChoice::Binary,
            KernelChoice::Bitmap,
        ] {
            assert_eq!(KernelChoice::parse(k.name()), Some(k));
        }
        assert_eq!(KernelChoice::parse("simd"), None);
    }

    #[test]
    fn hub_entry_bitmap_and_set_agree() {
        let dense: Vec<VertexId> = (0..300).map(|i| i * 2).collect();
        let sparse: Vec<VertexId> = (0..300).map(|i| i * 1_000_000).collect();
        let eb = HubEntry::build(&dense);
        let es = HubEntry::build(&sparse);
        assert!(matches!(eb, HubEntry::Bits { .. }));
        assert!(matches!(es, HubEntry::Set(_)));
        for probe in [0u64, 1, 2, 599, 598, 1_000_000, 999_999, 299_000_000] {
            assert_eq!(eb.contains(probe), dense.binary_search(&probe).is_ok());
            assert_eq!(es.contains(probe), sparse.binary_search(&probe).is_ok());
        }
    }

    #[test]
    fn all_dispatch_modes_agree_on_count() {
        let big: Vec<VertexId> = (0..2000).map(|i| i * 3).collect();
        let small = list(&[3, 5, 600, 601, 5997]);
        let hubs = HubIndex::build([(42u64, big.as_slice())].into_iter(), 256);
        let expect = merge_count(&small, &big).0;
        for kernel in [
            KernelChoice::Auto,
            KernelChoice::Merge,
            KernelChoice::Gallop,
            KernelChoice::Binary,
            KernelChoice::Bitmap,
        ] {
            let policy = KernelPolicy {
                kernel,
                ..KernelPolicy::default()
            };
            let mut d = Dispatcher::with_hubs(policy, &hubs);
            let (c, _) = d.count(&small, None, &big, Some(42));
            assert_eq!(c, expect, "{kernel:?}");
            assert_eq!(d.counters().total(), 1);
            let mut out = Vec::new();
            d.collect(&small, None, &big, Some(42), &mut out);
            let mut expect_out = Vec::new();
            merge_collect(&small, &big, &mut expect_out);
            assert_eq!(out, expect_out, "{kernel:?} collect");
            let (ci, _) = d.count_iter(small.iter().copied(), small.len(), &big, Some(42));
            assert_eq!(ci, expect, "{kernel:?} iter");
        }
    }

    /// Property test over adversarial list shapes: every kernel must agree
    /// with the merge reference on count *and* elements, for 1000×-skewed,
    /// empty, disjoint, identical and randomly-overlapping pairs. Lists are
    /// drawn from a seeded SplitMix64 walk so failures reproduce exactly.
    #[test]
    fn adversarial_shapes_all_kernels_agree() {
        use crate::intersect::tests::sorted_unique;

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
        let kernels = [
            KernelChoice::Auto,
            KernelChoice::Merge,
            KernelChoice::Gallop,
            KernelChoice::Binary,
            KernelChoice::Bitmap,
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
                let hubs = HubIndex::build(
                    [(0u64, a.as_slice()), (1u64, b.as_slice())].into_iter(),
                    0, // index everything: bitmap must engage on every shape
                );
                let (expect, _) = merge_count(&a, &b);
                let mut expect_out = Vec::new();
                merge_collect(&a, &b, &mut expect_out);
                for kernel in kernels {
                    let policy = KernelPolicy {
                        kernel,
                        hub_threshold: 0,
                        ..KernelPolicy::default()
                    };
                    let mut d = Dispatcher::with_hubs(policy, &hubs);
                    let (c, _) = d.count(&a, Some(0), &b, Some(1));
                    assert_eq!(
                        c, expect,
                        "{kernel:?} count, shape ({la},{lb},{span}) rep {rep}"
                    );
                    let mut out = Vec::new();
                    d.collect(&a, Some(0), &b, Some(1), &mut out);
                    assert_eq!(
                        out, expect_out,
                        "{kernel:?} collect, shape ({la},{lb},{span}) rep {rep}"
                    );
                    let (ci, _) = d.count_iter(a.iter().copied(), a.len(), &b, Some(1));
                    assert_eq!(
                        ci, expect,
                        "{kernel:?} count_iter, shape ({la},{lb},{span}) rep {rep}"
                    );
                }
            }
        }
    }

    #[test]
    fn bitmap_forced_falls_back_to_merge_without_entry() {
        let a = list(&[1, 2, 3]);
        let b = list(&[2, 3, 4]);
        let policy = KernelPolicy {
            kernel: KernelChoice::Bitmap,
            ..KernelPolicy::default()
        };
        let mut d = Dispatcher::new(policy);
        let (c, _) = d.count(&a, Some(7), &b, Some(8));
        assert_eq!(c, 2);
        assert_eq!(d.counters().merge, 1);
        assert_eq!(d.counters().bitmap, 0);
    }

    #[test]
    fn auto_picks_merge_for_balanced_and_probe_for_skewed() {
        let a: Vec<VertexId> = (0..100).collect();
        let b: Vec<VertexId> = (50..150).collect();
        let mut d = Dispatcher::new(KernelPolicy::default());
        d.count(&a, None, &b, None);
        assert_eq!(d.counters().merge, 1, "balanced → merge");

        let small = list(&[10, 500, 900]);
        let big: Vec<VertexId> = (0..10_000).collect();
        let mut d = Dispatcher::new(KernelPolicy::default());
        d.count(&small, None, &big, None);
        assert_eq!(d.counters().binary, 1, "tiny probe → binary");

        let mid: Vec<VertexId> = (0..64).map(|i| i * 7).collect();
        let mut d = Dispatcher::new(KernelPolicy::default());
        d.count(&mid, None, &big, None);
        assert_eq!(d.counters().gallop, 1, "mid probe → gallop");
    }

    #[test]
    fn auto_uses_hub_index_above_threshold_only() {
        let big: Vec<VertexId> = (0..1000).collect();
        let small = list(&[5, 6, 7]);
        let hubs = HubIndex::build([(1u64, big.as_slice())].into_iter(), 256);
        let mut d = Dispatcher::with_hubs(KernelPolicy::default(), &hubs);
        d.count(&small, None, &big, Some(1));
        assert_eq!(d.counters().bitmap, 1);
        // Unknown key → no hub entry → cost model decides.
        let mut d = Dispatcher::with_hubs(KernelPolicy::default(), &hubs);
        d.count(&small, None, &big, Some(2));
        assert_eq!(d.counters().bitmap, 0);
    }

    #[test]
    fn counters_absorb_sums_fields() {
        let mut a = KernelCounters {
            merge: 1,
            gallop: 2,
            binary: 3,
            bitmap: 4,
        };
        let b = KernelCounters {
            merge: 10,
            gallop: 20,
            binary: 30,
            bitmap: 40,
        };
        a.absorb(&b);
        assert_eq!(a.total(), 110);
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

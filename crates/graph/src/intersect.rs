//! Counting set intersections of sorted vertex-id lists.
//!
//! These are the innermost kernels of every EDGEITERATOR variant. Each
//! function returns `(count, ops)` where `ops` is the number of candidate
//! comparisons performed — the unit of "local work" metered by the machine
//! model (`CostModel::t_op`). Every kernel counts the same unit: one op per
//! element comparison, so ablation plots compare like with like (a
//! galloping probe that touches 5 elements costs 5 ops, not a synthetic
//! `log n` lump). The probe kernels count the comparisons they execute; the
//! slice merges report the comparisons of the plain two-pointer merge,
//! derived from where it stops ([`merge_count`]), and are free to execute
//! fewer.

/// Combined list length from which the slice merges run as two chains:
/// below it the split (a `partition_point` each for the pivot and the stop
/// position, and two loop tails) costs more than the overlap returns.
/// Chosen from one sweep over every oriented edge of the benchmark's two
/// graphs on the 2-core x86-64 reference host, ns per metered op at
/// 16 / 32 / 64 / 128 / never: `merge_count` on R-MAT 15
/// 2.69 / 2.27 / 2.22 / 2.48 / 3.24 and on RGG2D 2^17
/// 4.45 / 3.74 / 3.53 / 3.61 / 3.65, `merge_collect` on RGG2D
/// 5.59 / 4.32 / 3.98 / 4.03 / 4.03 (DESIGN §5e has the whole table).
const TWO_CHAIN_MIN_LEN: usize = 64;

/// One branch-free merge chain: the plain two-pointer merge of `a × b`
/// with each step written as three compare-and-add pairs, no
/// data-dependent branch (dropping the mispredicted three-way `match`
/// alone took R-MAT 15 from 4.5 to 3.2 ns per op). Returns the matches
/// and `i + j` where it stopped.
#[inline(always)]
fn chain_count<T: Copy + Ord>(a: &[T], b: &[T]) -> (u64, usize) {
    let (mut i, mut j, mut count) = (0usize, 0usize, 0u64);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        count += u64::from(x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    (count, i + j)
}

/// [`chain_count`] that also writes the matches to the front of `out`
/// (which must hold `min(|a|, |b|)` slots): every candidate is stored,
/// the cursor only moves past it on a match.
#[inline(always)]
fn chain_collect<T: Copy + Ord>(a: &[T], b: &[T], out: &mut [T]) -> (usize, usize) {
    let (mut i, mut j, mut k) = (0usize, 0usize, 0usize);
    // `k` cannot reach `out.len()` before a list runs out; the test only
    // lets the compiler drop the bounds check on the store
    while i < a.len() && j < b.len() && k < out.len() {
        let (x, y) = (a[i], b[j]);
        out[k] = x;
        k += usize::from(x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    (k, i + j)
}

/// `i + j` at the point where the plain two-pointer merge of two non-empty
/// lists stops. The list whose last element is smaller (say `a`) is the
/// one that runs out: `j` only moves past elements `≤ a[i] ≤ last(a)`, and
/// `b` still holds `last(b) ≥ last(a)`, so `i` reaches `|a|` first, with
/// `j` past exactly the elements of `b` that are `≤ last(a)`. Every step
/// advances `i + j` by one, by two on a match, so the merge's comparison
/// count — the metered `ops` — is this sum minus the matches, however the
/// matches were actually found.
#[inline]
fn merge_stop<T: Copy + Ord>(a: &[T], b: &[T]) -> usize {
    let (la, lb) = (a[a.len() - 1], b[b.len() - 1]);
    if la <= lb {
        a.len() + b.partition_point(|&y| y <= la)
    } else {
        b.len() + a.partition_point(|&x| x <= lb)
    }
}

/// Splits a merge into two independent ones: `a` at its midpoint `m`, `b`
/// at the first element `≥ a[m]`. Every common element below `a[m]` lies
/// in the first pair of halves, every other one in the second.
#[inline]
fn split_chains<'a, T: Copy + Ord>(a: &'a [T], b: &'a [T]) -> [(&'a [T], &'a [T]); 2] {
    let m = a.len() / 2;
    let k = b.partition_point(|&y| y < a[m]);
    let ((a1, a2), (b1, b2)) = (a.split_at(m), b.split_at(k));
    [(a1, b1), (a2, b2)]
}

/// Merge-based intersection count of two sorted, duplicate-free lists
/// (the "merge phase of merge sort" procedure from §III). Generic over the
/// id type: global `u64` ids and a PE's dense `u32` ids run the same code.
///
/// `ops` is the number of comparisons the plain two-pointer merge makes
/// on these lists, derived from where it stops (`merge_stop`) instead of
/// counted per step, so the loop is free to take fewer: long lists are cut
/// in two and both halves advance in one loop, two load→compare→add chains
/// that overlap in the pipeline.
#[inline]
pub fn merge_count<T: Copy + Ord>(a: &[T], b: &[T]) -> (u64, u64) {
    if a.len() + b.len() < TWO_CHAIN_MIN_LEN || a.is_empty() || b.is_empty() {
        let (count, stop) = chain_count(a, b);
        return (count, stop as u64 - count);
    }
    let stop = merge_stop(a, b) as u64;
    let [(a1, b1), (a2, b2)] = split_chains(a, b);
    let (mut i1, mut j1, mut i2, mut j2) = (0usize, 0usize, 0usize, 0usize);
    let (mut c1, mut c2) = (0u64, 0u64);
    while i1 < a1.len() && j1 < b1.len() && i2 < a2.len() && j2 < b2.len() {
        let (x1, y1, x2, y2) = (a1[i1], b1[j1], a2[i2], b2[j2]);
        c1 += u64::from(x1 == y1);
        c2 += u64::from(x2 == y2);
        i1 += usize::from(x1 <= y1);
        i2 += usize::from(x2 <= y2);
        j1 += usize::from(y1 <= x1);
        j2 += usize::from(y2 <= x2);
    }
    let count = c1 + c2 + chain_count(&a1[i1..], &b1[j1..]).0 + chain_count(&a2[i2..], &b2[j2..]).0;
    (count, stop - count)
}

/// Merge intersection that also *reports* the common elements (used for
/// triangle enumeration and per-vertex counting, where the third vertex of
/// each triangle must be known). Appends them to `out` in ascending order
/// and returns `ops` as [`merge_count`] defines it.
#[inline]
pub fn merge_collect<T: Copy + Ord + Default>(a: &[T], b: &[T], out: &mut Vec<T>) -> u64 {
    let base = out.len();
    // no intersection is longer than the shorter list
    out.resize(base + a.len().min(b.len()), T::default());
    let (found, stop) = if a.len() + b.len() < TWO_CHAIN_MIN_LEN || a.is_empty() || b.is_empty() {
        chain_collect(a, b, &mut out[base..])
    } else {
        let stop = merge_stop(a, b);
        let [(a1, b1), (a2, b2)] = split_chains(a, b);
        // chain 1 can fill at most min(|a1|, |b1|) slots; chain 2 writes
        // behind them and is moved down once chain 1's count is known.
        // Chain 1's matches are all < a[m] ≤ chain 2's: `out` stays sorted.
        let room1 = a1.len().min(b1.len());
        let (out1, out2) = out[base..].split_at_mut(room1);
        let (mut i1, mut j1, mut k1, mut i2, mut j2, mut k2) = (0, 0, 0, 0, 0, 0);
        while i1 < a1.len()
            && j1 < b1.len()
            && k1 < out1.len()
            && i2 < a2.len()
            && j2 < b2.len()
            && k2 < out2.len()
        {
            let (x1, y1, x2, y2) = (a1[i1], b1[j1], a2[i2], b2[j2]);
            out1[k1] = x1;
            out2[k2] = x2;
            k1 += usize::from(x1 == y1);
            k2 += usize::from(x2 == y2);
            i1 += usize::from(x1 <= y1);
            i2 += usize::from(x2 <= y2);
            j1 += usize::from(y1 <= x1);
            j2 += usize::from(y2 <= x2);
        }
        k1 += chain_collect(&a1[i1..], &b1[j1..], &mut out1[k1..]).0;
        k2 += chain_collect(&a2[i2..], &b2[j2..], &mut out2[k2..]).0;
        out.copy_within(base + room1..base + room1 + k2, base + k1);
        (k1 + k2, stop)
    };
    out.truncate(base + found);
    (stop - found) as u64
}

/// Ops of the metered bisection on `n` elements that stops at position
/// `p`: the textbook loop (`mid = lo + (hi − lo)/2`, one op per element
/// read, stop on an equal one) replayed on indices, where element `mid`
/// is below the key iff `mid < p` and equal to it iff `found` and
/// `mid == p`.
const fn replay_bisection(n: usize, p: usize, found: bool) -> u8 {
    let (mut lo, mut hi, mut ops) = (0usize, n, 0u8);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        ops += 1;
        if found && mid == p {
            return ops;
        }
        if mid < p {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    ops
}

/// Lengths below which a bisection's ops are read from [`BISECT_OPS`].
const BISECT_TABLE_LEN: usize = 128;

/// [`replay_bisection`] for every `n < BISECT_TABLE_LEN`, position
/// `p ≤ n` and `found`, at `n·(n + 1) + 2p + found` (16.5 KB).
static BISECT_OPS: [u8; BISECT_TABLE_LEN * (BISECT_TABLE_LEN + 1)] = {
    let mut t = [0u8; BISECT_TABLE_LEN * (BISECT_TABLE_LEN + 1)];
    let mut n = 0;
    while n < BISECT_TABLE_LEN {
        let mut p = 0;
        while p <= n {
            t[n * (n + 1) + 2 * p] = replay_bisection(n, p, false);
            t[n * (n + 1) + 2 * p + 1] = replay_bisection(n, p, true);
            p += 1;
        }
        n += 1;
    }
    t
};

/// [`replay_bisection`] for any `n`: the steps that leave a range of
/// [`BISECT_TABLE_LEN`] or more are replayed on indices, the rest are one
/// read of [`BISECT_OPS`].
#[inline]
fn bisection_ops(n: usize, p: usize, found: bool) -> u64 {
    let (mut lo, mut hi, mut ops) = (0usize, n, 0u64);
    while hi - lo >= BISECT_TABLE_LEN {
        let mid = lo + (hi - lo) / 2;
        ops += 1;
        if found && mid == p {
            return ops;
        }
        let right = mid < p;
        lo = if right { mid + 1 } else { lo };
        hi = if right { hi } else { mid };
    }
    let m = hi - lo;
    ops + u64::from(BISECT_OPS[m * (m + 1) + 2 * (p - lo) + usize::from(found)])
}

/// Binary search over a sorted, duplicate-free slice, its elements read
/// through `key`, metered as the textbook bisection that stops on an
/// equal element: one op per element it compares. Shared by the
/// binary-probe and galloping kernels so both meter work in the same unit
/// as [`merge_count`]. It runs as the library's lower bound, whose steps
/// depend on `|hay|` alone and pick each half with a select, not a
/// branch: which half follows is a coin flip the predictor cannot learn,
/// and without the textbook loop's exit on an equal element the searches
/// of consecutive probes overlap. That loop's ops depend only on `|hay|`,
/// where `x` lands and whether it is there ([`bisection_ops`]).
#[inline]
fn counted_binary_search<T: Copy, K: Ord>(
    hay: &[T],
    key: &impl Fn(T) -> K,
    x: &K,
    ops: &mut u64,
) -> Result<usize, usize> {
    let p = hay.partition_point(|&y| key(y) < *x);
    let found = hay.get(p).is_some_and(|&y| key(y) == *x);
    *ops += bisection_ops(hay.len(), p, found);
    if found {
        Ok(p)
    } else {
        Err(p)
    }
}

/// One galloping probe: exponential search for an upper bound on `x`'s
/// position in `large[*cur..]`, then a counted binary search inside the
/// window. Advances `*cur` past the landing position so subsequent probes
/// never re-scan, and returns the match's index. Each element comparison
/// (doubling probe or bisection probe) costs one op.
#[inline]
fn gallop_probe<T: Copy, K: Ord>(
    large: &[T],
    key: &impl Fn(T) -> K,
    cur: &mut usize,
    x: &K,
    ops: &mut u64,
) -> Option<usize> {
    // Exponential search: each probe compares one element of `large`.
    let mut bound = 1usize;
    loop {
        let idx = *cur + bound;
        if idx >= large.len() {
            break;
        }
        *ops += 1;
        if key(large[idx]) >= *x {
            break;
        }
        bound *= 2;
    }
    let lo = *cur + bound / 2;
    let hi = (*cur + bound + 1).min(large.len());
    match counted_binary_search(&large[lo..hi], key, x, ops) {
        Ok(pos) => {
            *cur = lo + pos + 1;
            Some(lo + pos)
        }
        Err(pos) => {
            *cur = lo + pos;
            None
        }
    }
}

/// The one loop of every probe kernel: searches each element of `probe`
/// in the sorted `table` — galloping on from where the last search landed
/// when `gallop`, else bisecting the whole table — and calls
/// `hit(x, table[j])` for every match. The two sides are compared through
/// `probe_key` and `table_key`, so they may be kept in different id
/// spaces (the marker's received records against dense head lists).
/// Returns the ops: one per element comparison.
#[inline]
pub(crate) fn probe_by<P: Copy, T: Copy, K: Ord>(
    gallop: bool,
    probe: impl Iterator<Item = P>,
    probe_key: impl Fn(P) -> K,
    table: &[T],
    table_key: impl Fn(T) -> K,
    mut hit: impl FnMut(P, T),
) -> u64 {
    let (mut ops, mut cur) = (0u64, 0usize);
    for x in probe {
        if cur >= table.len() {
            break;
        }
        let k = probe_key(x);
        let found = if gallop {
            gallop_probe(table, &table_key, &mut cur, &k, &mut ops)
        } else {
            counted_binary_search(table, &table_key, &k, &mut ops).ok()
        };
        if let Some(j) = found {
            hit(x, table[j]);
        }
    }
    ops
}

/// `(smaller, larger)` of two lists, the first on a tie.
#[inline]
fn by_len<'a, T>(a: &'a [T], b: &'a [T]) -> (&'a [T], &'a [T]) {
    if a.len() <= b.len() {
        (a, b)
    } else {
        (b, a)
    }
}

/// Binary-search based intersection: probes each element of the smaller list
/// in the larger one. Wins when the lists have very different lengths
/// (GPU-style kernels in the paper's §III-C favour this shape).
#[inline]
pub fn binary_search_count<T: Copy + Ord>(a: &[T], b: &[T]) -> (u64, u64) {
    let (small, large) = by_len(a, b);
    let mut count = 0u64;
    let ops = probe_by(
        false,
        small.iter().copied(),
        |x| x,
        large,
        |y| y,
        |_, _| count += 1,
    );
    (count, ops)
}

/// Binary-probe intersection that reports the common elements (in sorted
/// order, since the probed side is sorted).
#[inline]
pub fn binary_search_collect<T: Copy + Ord>(a: &[T], b: &[T], out: &mut Vec<T>) -> u64 {
    let (small, large) = by_len(a, b);
    probe_by(
        false,
        small.iter().copied(),
        |x| x,
        large,
        |y| y,
        |x, _| out.push(x),
    )
}

/// Galloping (exponential-search) intersection — adaptive between merge and
/// binary search. Probes each element of the smaller list into the larger
/// one, but restarts from the previous match position so a full pass costs
/// O(|small|·log(|large|/|small|)) instead of O(|small|·log|large|).
#[inline]
pub fn gallop_count<T: Copy + Ord>(a: &[T], b: &[T]) -> (u64, u64) {
    let (small, large) = by_len(a, b);
    let mut count = 0u64;
    let ops = probe_by(
        true,
        small.iter().copied(),
        |x| x,
        large,
        |y| y,
        |_, _| count += 1,
    );
    (count, ops)
}

/// Galloping intersection that reports the common elements.
#[inline]
pub fn gallop_collect<T: Copy + Ord>(a: &[T], b: &[T], out: &mut Vec<T>) -> u64 {
    let (small, large) = by_len(a, b);
    probe_by(
        true,
        small.iter().copied(),
        |x| x,
        large,
        |y| y,
        |x, _| out.push(x),
    )
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::VertexId;

    fn naive(a: &[VertexId], b: &[VertexId]) -> u64 {
        a.iter().filter(|x| b.contains(x)).count() as u64
    }

    /// The plain counting two-pointer merge the slice kernels replaced:
    /// one `ops` per loop step, matches pushed as they are met. Kept here
    /// only, as the reference the rewritten kernels (themselves the oracle
    /// of every other kernel, of `seq` and of the engine suites) answer to.
    fn reference_merge(a: &[VertexId], b: &[VertexId]) -> (Vec<VertexId>, u64) {
        let (mut i, mut j, mut ops) = (0usize, 0usize, 0u64);
        let mut common = Vec::new();
        while i < a.len() && j < b.len() {
            ops += 1;
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    common.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        (common, ops)
    }

    fn assert_matches_reference(a: &[VertexId], b: &[VertexId], what: &str) {
        let (common, ops) = reference_merge(a, b);
        assert_eq!(
            merge_count(a, b),
            (common.len() as u64, ops),
            "merge_count, {what}: |a|={} |b|={}",
            a.len(),
            b.len()
        );
        // appended behind what `out` already holds
        let mut out = vec![u64::MAX, 7];
        let got_ops = merge_collect(a, b, &mut out);
        assert_eq!(&out[..2], &[u64::MAX, 7], "merge_collect prefix, {what}");
        assert_eq!(
            (&out[2..], got_ops),
            (common.as_slice(), ops),
            "merge_collect, {what}: |a|={} |b|={}",
            a.len(),
            b.len()
        );
    }

    /// SplitMix64 step: seeded, so a failing list pair reproduces exactly.
    pub(crate) fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Exactly `len` distinct sorted values below `span` (`span ≥ len`).
    pub(crate) fn sorted_unique(rng: &mut u64, len: usize, span: u64) -> Vec<VertexId> {
        let mut set = std::collections::BTreeSet::new();
        while set.len() < len {
            set.insert(splitmix(rng) % span);
        }
        set.into_iter().collect()
    }

    /// Seeded property test: the slice merges equal the reference on count,
    /// elements **and** ops over lengths on both sides of the two-chain
    /// tier and its edges, and over the value shapes the stop-position
    /// rule and the pivot split distinguish.
    #[test]
    fn slice_merges_match_the_counting_reference() {
        let mut rng = 0x6d65_7267_u64; // "merg"
        let lengths: [(usize, usize); 22] = [
            (0, 0),
            (0, 1),
            (1, 0),
            (1, 1),
            (0, 100),
            (100, 0),
            (1, 62),
            (31, 32), // combined 63: last single-chain length
            (32, 32), // combined 64: first two-chain length
            (32, 33),
            (1, 63),
            (63, 1),
            (2, 62),
            (3, 200),
            (16, 16),
            (100, 100),
            (257, 255),
            (2000, 2),
            (2, 2000),
            (1000, 1000),
            (64, 4096),
            (4096, 64),
        ];
        for (la, lb) in lengths {
            // span sets the overlap: dense (most values shared) to sparse
            for span in [la.max(lb) as u64 + 1, 3 * (la + lb) as u64 + 1, 1 << 40] {
                for _ in 0..4 {
                    let a = sorted_unique(&mut rng, la, span);
                    let b = sorted_unique(&mut rng, lb, span);
                    assert_matches_reference(&a, &b, "random");
                    assert_matches_reference(&a, &a, "identical");

                    // equal last elements, and u64::MAX as that element
                    for last in [span, u64::MAX] {
                        let (mut a2, mut b2) = (a.clone(), b.clone());
                        if let (Some(x), Some(y)) = (a2.last_mut(), b2.last_mut()) {
                            *x = last;
                            *y = last;
                        }
                        assert_matches_reference(&a2, &b2, "equal last");
                    }

                    // disjoint ranges, b above a and a above b
                    let above: Vec<VertexId> = b.iter().map(|&y| y + span).collect();
                    assert_matches_reference(&a, &above, "b above a");
                    assert_matches_reference(&above, &a, "a above b");

                    // the two-chain pivot a[|a|/2], absent from and present in b
                    if let Some(&pivot) = a.get(a.len() / 2) {
                        let mut without = b.clone();
                        without.retain(|&y| y != pivot);
                        assert_matches_reference(&a, &without, "pivot absent");
                        let mut with = without;
                        with.insert(with.partition_point(|&y| y < pivot), pivot);
                        assert_matches_reference(&a, &with, "pivot present");
                    }
                }
            }
        }
    }

    #[test]
    fn merge_matches_naive() {
        let a = vec![1, 3, 5, 7, 9, 11];
        let b = vec![2, 3, 4, 7, 11, 20];
        assert_eq!(merge_count(&a, &b).0, naive(&a, &b));
    }

    /// List pairs of the kernel agreement tests: empty sides, identical,
    /// disjoint and interleaved lists, and skewed pairs with the shorter
    /// list on either side.
    const CASES: &[(&[VertexId], &[VertexId])] = &[
        (&[], &[]),
        (&[1], &[]),
        (&[], &[1]),
        (&[], &[1, 2, 3]),
        (&[1, 2, 3], &[1, 2, 3]),
        (&[1, 5, 9], &[2, 6, 10]),
        (&[1, 3, 5, 7], &[3, 4, 7, 8]),
        (&[0, 2, 4, 6, 8, 10, 12], &[5, 6]),
        (&[5, 6], &[0, 2, 4, 6, 8, 10, 12]),
        (&[7], &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]),
        (&[2], &[1, 2, 3, 4, 5, 6, 7, 8]),
        (&[1, 5, 9], &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]),
    ];

    /// Every counting kernel returns the naive count, and each probe
    /// kernel probes the shorter list into the longer whichever comes
    /// first: count and ops are the same for `(a, b)` and `(b, a)`.
    #[test]
    fn all_kernels_agree() {
        for (a, b) in CASES {
            let expect = naive(a, b);
            assert_eq!(merge_count(a, b).0, expect, "merge {a:?} {b:?}");
            assert_eq!(binary_search_count(a, b).0, expect, "bsearch {a:?} {b:?}");
            assert_eq!(gallop_count(a, b).0, expect, "gallop {a:?} {b:?}");
            if a.len() != b.len() {
                assert_eq!(binary_search_count(a, b), binary_search_count(b, a));
                assert_eq!(gallop_count(a, b), gallop_count(b, a));
            }
        }
    }

    /// Every collecting kernel returns the merge's elements, ascending,
    /// and reports the ops of its counting twin.
    #[test]
    fn collect_kernels_agree() {
        type Count = fn(&[VertexId], &[VertexId]) -> (u64, u64);
        type Collect = fn(&[VertexId], &[VertexId], &mut Vec<VertexId>) -> u64;
        let kernels: [(&str, Count, Collect); 3] = [
            ("merge", merge_count, merge_collect),
            ("bsearch", binary_search_count, binary_search_collect),
            ("gallop", gallop_count, gallop_collect),
        ];
        for (a, b) in CASES {
            let mut expect = Vec::new();
            merge_collect(a, b, &mut expect);
            for (kernel, count, collect) in kernels {
                let mut got = Vec::new();
                let ops = collect(a, b, &mut got);
                assert_eq!(got, expect, "{kernel} collect {a:?} {b:?}");
                assert_eq!(ops, count(a, b).1, "{kernel} ops {a:?} {b:?}");
            }
        }
    }

    #[test]
    fn merge_collect_reports_elements() {
        let a = vec![1, 3, 5, 7];
        let b = vec![3, 4, 7, 8];
        let mut out = Vec::new();
        merge_collect(&a, &b, &mut out);
        assert_eq!(out, vec![3, 7]);
    }

    #[test]
    fn merge_ops_bounded_by_sum_of_lengths() {
        let a: Vec<VertexId> = (0..100).map(|i| i * 2).collect();
        let b: Vec<VertexId> = (0..100).map(|i| i * 3).collect();
        let (_, ops) = merge_count(&a, &b);
        assert!(ops <= (a.len() + b.len()) as u64);
        assert!(ops >= a.len().min(b.len()) as u64);
    }

    /// The bisection `counted_binary_search` replaced: the textbook loop
    /// with a branch on each element read, counting one op per read. Kept
    /// here only, as the oracle of the table-counted search.
    fn reference_binary_search(
        hay: &[VertexId],
        x: VertexId,
        ops: &mut u64,
    ) -> Result<usize, usize> {
        let (mut lo, mut hi) = (0usize, hay.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            *ops += 1;
            match hay[mid].cmp(&x) {
                std::cmp::Ordering::Equal => return Ok(mid),
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
            }
        }
        Err(lo)
    }

    /// `(result, ops)` of the table-counted search and of the oracle.
    fn both_searches(hay: &[VertexId], x: VertexId) -> [(Result<usize, usize>, u64); 2] {
        let (mut ops, mut want_ops) = (0u64, 0u64);
        let got = counted_binary_search(hay, &|y| y, &x, &mut ops);
        let want = reference_binary_search(hay, x, &mut want_ops);
        [(got, ops), (want, want_ops)]
    }

    /// Every length up to 300 (the table's range, its edge at 128 and the
    /// replayed steps above it), probed at every element and every gap:
    /// the same result and the same ops as the textbook bisection.
    #[test]
    fn bisection_matches_the_textbook_loop_at_every_position() {
        for n in 0..=300u64 {
            let hay: Vec<VertexId> = (0..n).map(|i| 2 * i + 1).collect();
            for x in 0..=2 * n + 1 {
                let [got, want] = both_searches(&hay, x);
                assert_eq!(got, want, "n {n} x {x}");
            }
        }
    }

    /// Lists up to `10^5` long, probed at random elements and gaps and
    /// past both ends: the same result and ops as the textbook bisection.
    #[test]
    fn bisection_matches_the_textbook_loop_on_long_lists() {
        let mut rng = 0x6269_7365_u64; // "bise"
        for _ in 0..40 {
            let n = (splitmix(&mut rng) % 100_001) as usize;
            let hay = sorted_unique(&mut rng, n, 4 * n as u64 + 8);
            for _ in 0..200 {
                let x = match splitmix(&mut rng) % 4 {
                    0 if n > 0 => hay[splitmix(&mut rng) as usize % n],
                    1 => u64::MAX,
                    _ => splitmix(&mut rng) % (4 * n as u64 + 16),
                };
                let [got, want] = both_searches(&hay, x);
                assert_eq!(got, want, "n {n} x {x}");
            }
        }
    }

    /// The galloping probe with the oracle's bisection in its window: the
    /// loop `gallop_probe` ran before the bisection became table-counted.
    fn reference_gallop(
        large: &[VertexId],
        cur: &mut usize,
        x: VertexId,
        ops: &mut u64,
    ) -> Option<usize> {
        let mut bound = 1usize;
        while *cur + bound < large.len() {
            *ops += 1;
            if large[*cur + bound] >= x {
                break;
            }
            bound *= 2;
        }
        let lo = *cur + bound / 2;
        let hi = (*cur + bound + 1).min(large.len());
        match reference_binary_search(&large[lo..hi], x, ops) {
            Ok(pos) => {
                *cur = lo + pos + 1;
                Some(lo + pos)
            }
            Err(pos) => {
                *cur = lo + pos;
                None
            }
        }
    }

    /// Every gallop window: from every cursor of every list up to 64
    /// long, a probe at every element and gap lands where the oracle's
    /// does, with the same match, cursor and ops.
    #[test]
    fn gallop_windows_match_the_textbook_bisection() {
        for n in 1..=64u64 {
            let large: Vec<VertexId> = (0..n).map(|i| 2 * i + 1).collect();
            for start in 0..n as usize {
                for x in 0..=2 * n + 1 {
                    let (mut cur, mut ops) = (start, 0u64);
                    let got = gallop_probe(&large, &|y| y, &mut cur, &x, &mut ops);
                    let (mut want_cur, mut want_ops) = (start, 0u64);
                    let want = reference_gallop(&large, &mut want_cur, x, &mut want_ops);
                    assert_eq!(
                        (got, cur, ops),
                        (want, want_cur, want_ops),
                        "n {n} cursor {start} x {x}"
                    );
                }
            }
        }
    }

    #[test]
    fn probe_kernels_count_real_comparisons() {
        // A single probe into a 1024-element table must cost at most
        // ⌈log2(1025)⌉ comparisons — no fixed lump, no uncounted bisection.
        let table: Vec<VertexId> = (0..1024).map(|i| i * 2).collect();
        let (_, ops) = binary_search_count(&[1001], &table);
        assert!((1..=11).contains(&ops), "bsearch ops = {ops}");
        let (_, ops) = gallop_count(&[1001], &table);
        // gallop pays the doubling walk plus the window bisection
        assert!((1..=22).contains(&ops), "gallop ops = {ops}");
        // Probing an element smaller than everything must be ~O(1) for
        // gallop (one doubling probe + tiny window).
        let (_, ops) = gallop_count(&[u64::MAX], &table);
        assert!(ops <= 22, "gallop high probe ops = {ops}");
    }
}

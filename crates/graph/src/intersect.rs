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

use crate::VertexId;

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
fn chain_count(a: &[VertexId], b: &[VertexId]) -> (u64, usize) {
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
fn chain_collect(a: &[VertexId], b: &[VertexId], out: &mut [VertexId]) -> (usize, usize) {
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
fn merge_stop(a: &[VertexId], b: &[VertexId]) -> usize {
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
fn split_chains<'a>(a: &'a [VertexId], b: &'a [VertexId]) -> [(&'a [VertexId], &'a [VertexId]); 2] {
    let m = a.len() / 2;
    let k = b.partition_point(|&y| y < a[m]);
    let ((a1, a2), (b1, b2)) = (a.split_at(m), b.split_at(k));
    [(a1, b1), (a2, b2)]
}

/// Merge-based intersection count of two sorted, duplicate-free lists
/// (the "merge phase of merge sort" procedure from §III).
///
/// `ops` is the number of comparisons the plain two-pointer merge makes
/// on these lists, derived from where it stops (`merge_stop`) instead of
/// counted per step, so the loop is free to take fewer: long lists are cut
/// in two and both halves advance in one loop, two load→compare→add chains
/// that overlap in the pipeline.
#[inline]
pub fn merge_count(a: &[VertexId], b: &[VertexId]) -> (u64, u64) {
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
pub fn merge_collect(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) -> u64 {
    let base = out.len();
    // no intersection is longer than the shorter list
    out.resize(base + a.len().min(b.len()), 0);
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

/// Merge-based intersection count over two sorted, duplicate-free
/// *iterators* — the streaming twin of [`merge_count`], so callers holding
/// composed neighborhood views (e.g. a base list with an overlay of
/// insertions and deletions) can intersect without materialising either
/// side.
#[inline]
pub fn merge_count_iter<I, J>(mut a: I, mut b: J) -> (u64, u64)
where
    I: Iterator<Item = VertexId>,
    J: Iterator<Item = VertexId>,
{
    let mut x = a.next();
    let mut y = b.next();
    let mut count = 0u64;
    let mut ops = 0u64;
    while let (Some(u), Some(v)) = (x, y) {
        ops += 1;
        match u.cmp(&v) {
            std::cmp::Ordering::Less => x = a.next(),
            std::cmp::Ordering::Greater => y = b.next(),
            std::cmp::Ordering::Equal => {
                count += 1;
                x = a.next();
                y = b.next();
            }
        }
    }
    (count, ops)
}

/// Streaming twin of [`merge_collect`]: intersects two sorted iterators and
/// pushes the common elements into `out`, returning the comparison count.
#[inline]
pub fn merge_collect_iter<I, J>(mut a: I, mut b: J, out: &mut Vec<VertexId>) -> u64
where
    I: Iterator<Item = VertexId>,
    J: Iterator<Item = VertexId>,
{
    let mut x = a.next();
    let mut y = b.next();
    let mut ops = 0u64;
    while let (Some(u), Some(v)) = (x, y) {
        ops += 1;
        match u.cmp(&v) {
            std::cmp::Ordering::Less => x = a.next(),
            std::cmp::Ordering::Greater => y = b.next(),
            std::cmp::Ordering::Equal => {
                out.push(u);
                x = a.next();
                y = b.next();
            }
        }
    }
    ops
}

/// Binary search over a sorted slice that charges one op per element
/// comparison actually performed. Shared by the binary-probe and galloping
/// kernels so both meter work in the same unit as [`merge_count`].
#[inline]
fn counted_binary_search(hay: &[VertexId], x: VertexId, ops: &mut u64) -> Result<usize, usize> {
    let (mut lo, mut hi) = (0usize, hay.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        *ops += 1;
        match hay[mid].cmp(&x) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => return Ok(mid),
        }
    }
    Err(lo)
}

/// Binary-search based intersection: probes each element of the smaller list
/// in the larger one. Wins when the lists have very different lengths
/// (GPU-style kernels in the paper's §III-C favour this shape).
#[inline]
pub fn binary_search_count(a: &[VertexId], b: &[VertexId]) -> (u64, u64) {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if large.is_empty() || small.is_empty() {
        return (0, 0);
    }
    let mut count = 0u64;
    let mut ops = 0u64;
    for &x in small {
        if counted_binary_search(large, x, &mut ops).is_ok() {
            count += 1;
        }
    }
    (count, ops)
}

/// Binary-probe intersection that reports the common elements (in sorted
/// order, since the probed side is sorted).
#[inline]
pub fn binary_search_collect(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) -> u64 {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if large.is_empty() || small.is_empty() {
        return 0;
    }
    let mut ops = 0u64;
    for &x in small {
        if counted_binary_search(large, x, &mut ops).is_ok() {
            out.push(x);
        }
    }
    ops
}

/// Galloping (exponential-search) intersection — adaptive between merge and
/// binary search. Probes each element of the smaller list into the larger
/// one, but restarts from the previous match position so a full pass costs
/// O(|small|·log(|large|/|small|)) instead of O(|small|·log|large|).
#[inline]
pub fn gallop_count(a: &[VertexId], b: &[VertexId]) -> (u64, u64) {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut count = 0u64;
    let mut ops = 0u64;
    let mut cur = 0usize;
    for &x in small {
        if cur >= large.len() {
            break;
        }
        if gallop_probe(large, &mut cur, x, &mut ops) {
            count += 1;
        }
    }
    (count, ops)
}

/// Galloping intersection that reports the common elements.
#[inline]
pub fn gallop_collect(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) -> u64 {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut ops = 0u64;
    let mut cur = 0usize;
    for &x in small {
        if cur >= large.len() {
            break;
        }
        if gallop_probe(large, &mut cur, x, &mut ops) {
            out.push(x);
        }
    }
    ops
}

/// One galloping probe: exponential search for an upper bound on `x`'s
/// position in `large[*cur..]`, then a counted binary search inside the
/// window. Advances `*cur` past the landing position so subsequent probes
/// never re-scan. Each element comparison (doubling probe or bisection
/// probe) costs one op.
#[inline]
fn gallop_probe(large: &[VertexId], cur: &mut usize, x: VertexId, ops: &mut u64) -> bool {
    // Exponential search: each probe compares one element of `large`.
    let mut bound = 1usize;
    loop {
        let idx = *cur + bound;
        if idx >= large.len() {
            break;
        }
        *ops += 1;
        if large[idx] >= x {
            break;
        }
        bound *= 2;
    }
    let lo = *cur + bound / 2;
    let hi = (*cur + bound + 1).min(large.len());
    match counted_binary_search(&large[lo..hi], x, ops) {
        Ok(pos) => {
            *cur = lo + pos + 1;
            true
        }
        Err(pos) => {
            *cur = lo + pos;
            false
        }
    }
}

/// Binary-probe intersection of a sorted *iterator* against a sorted slice
/// table: the streaming twin of [`binary_search_count`], for callers whose
/// probe side is a composed view (base list + overlay) that never
/// materialises. The table side must be a slice — random access is what the
/// probes buy their speed with.
#[inline]
pub fn binary_search_count_iter<I>(probe: I, table: &[VertexId]) -> (u64, u64)
where
    I: Iterator<Item = VertexId>,
{
    let mut count = 0u64;
    let mut ops = 0u64;
    if table.is_empty() {
        return (0, 0);
    }
    for x in probe {
        if counted_binary_search(table, x, &mut ops).is_ok() {
            count += 1;
        }
    }
    (count, ops)
}

/// Streaming twin of [`binary_search_collect`].
#[inline]
pub fn binary_search_collect_iter<I>(probe: I, table: &[VertexId], out: &mut Vec<VertexId>) -> u64
where
    I: Iterator<Item = VertexId>,
{
    let mut ops = 0u64;
    if table.is_empty() {
        return 0;
    }
    for x in probe {
        if counted_binary_search(table, x, &mut ops).is_ok() {
            out.push(x);
        }
    }
    ops
}

/// Galloping intersection of a sorted *iterator* against a sorted slice
/// table: the streaming twin of [`gallop_count`]. The probe side streams in
/// ascending order, so the gallop cursor still advances monotonically.
#[inline]
pub fn gallop_count_iter<I>(probe: I, table: &[VertexId]) -> (u64, u64)
where
    I: Iterator<Item = VertexId>,
{
    let mut count = 0u64;
    let mut ops = 0u64;
    let mut cur = 0usize;
    for x in probe {
        if cur >= table.len() {
            break;
        }
        if gallop_probe(table, &mut cur, x, &mut ops) {
            count += 1;
        }
    }
    (count, ops)
}

/// Streaming twin of [`gallop_collect`].
#[inline]
pub fn gallop_collect_iter<I>(probe: I, table: &[VertexId], out: &mut Vec<VertexId>) -> u64
where
    I: Iterator<Item = VertexId>,
{
    let mut ops = 0u64;
    let mut cur = 0usize;
    for x in probe {
        if cur >= table.len() {
            break;
        }
        if gallop_probe(table, &mut cur, x, &mut ops) {
            out.push(x);
        }
    }
    ops
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

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

    #[test]
    fn all_kernels_agree() {
        let cases: &[(&[VertexId], &[VertexId])] = &[
            (&[], &[]),
            (&[1], &[]),
            (&[], &[1]),
            (&[1, 2, 3], &[1, 2, 3]),
            (&[1, 5, 9], &[2, 6, 10]),
            (&[0, 2, 4, 6, 8, 10, 12], &[5, 6]),
            (&[7], &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]),
        ];
        for (a, b) in cases {
            let expect = naive(a, b);
            assert_eq!(merge_count(a, b).0, expect, "merge {a:?} {b:?}");
            assert_eq!(binary_search_count(a, b).0, expect, "bsearch {a:?} {b:?}");
            assert_eq!(gallop_count(a, b).0, expect, "gallop {a:?} {b:?}");
        }
    }

    #[test]
    fn collect_kernels_agree() {
        let cases: &[(&[VertexId], &[VertexId])] = &[
            (&[], &[]),
            (&[1, 2, 3], &[1, 2, 3]),
            (&[1, 3, 5, 7], &[3, 4, 7, 8]),
            (&[0, 2, 4, 6, 8, 10, 12], &[5, 6]),
            (&[7], &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]),
        ];
        for (a, b) in cases {
            let mut expect = Vec::new();
            merge_collect(a, b, &mut expect);
            let mut got_b = Vec::new();
            binary_search_collect(a, b, &mut got_b);
            assert_eq!(got_b, expect, "bsearch collect {a:?} {b:?}");
            let mut got_g = Vec::new();
            gallop_collect(a, b, &mut got_g);
            assert_eq!(got_g, expect, "gallop collect {a:?} {b:?}");
        }
    }

    #[test]
    fn iter_kernels_match_slice_kernels() {
        let cases: &[(&[VertexId], &[VertexId])] = &[
            (&[], &[]),
            (&[1], &[]),
            (&[1, 2, 3], &[1, 2, 3]),
            (&[1, 5, 9], &[2, 6, 10]),
            (&[0, 2, 4, 6, 8, 10, 12], &[5, 6]),
            (&[7], &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]),
        ];
        for (a, b) in cases {
            let (c, ops) = merge_count(a, b);
            assert_eq!(
                merge_count_iter(a.iter().copied(), b.iter().copied()),
                (c, ops),
                "count {a:?} {b:?}"
            );
            let mut out_slice = Vec::new();
            let slice_ops = merge_collect(a, b, &mut out_slice);
            let mut out_iter = Vec::new();
            let iter_ops = merge_collect_iter(a.iter().copied(), b.iter().copied(), &mut out_iter);
            assert_eq!(out_iter, out_slice, "collect {a:?} {b:?}");
            assert_eq!(iter_ops, slice_ops);
        }
    }

    #[test]
    fn probe_iter_twins_match_probe_order() {
        // The iter twins probe the *first* argument into the second (no
        // small/large swap — the caller has no slice to swap). Check they
        // agree with the slice kernels when the probe side is the smaller.
        let cases: &[(&[VertexId], &[VertexId])] = &[
            (&[], &[1, 2, 3]),
            (&[2], &[1, 2, 3, 4, 5, 6, 7, 8]),
            (&[1, 5, 9], &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]),
            (&[5, 6], &[0, 2, 4, 6, 8, 10, 12]),
        ];
        for (probe, table) in cases {
            let bs = binary_search_count(probe, table);
            assert_eq!(
                binary_search_count_iter(probe.iter().copied(), table),
                bs,
                "bsearch iter {probe:?} {table:?}"
            );
            let gl = gallop_count(probe, table);
            assert_eq!(
                gallop_count_iter(probe.iter().copied(), table),
                gl,
                "gallop iter {probe:?} {table:?}"
            );
            let mut s1 = Vec::new();
            let o1 = binary_search_collect(probe, table, &mut s1);
            let mut s2 = Vec::new();
            let o2 = binary_search_collect_iter(probe.iter().copied(), table, &mut s2);
            assert_eq!((s1, o1), (s2, o2));
            let mut g1 = Vec::new();
            let p1 = gallop_collect(probe, table, &mut g1);
            let mut g2 = Vec::new();
            let p2 = gallop_collect_iter(probe.iter().copied(), table, &mut g2);
            assert_eq!((g1, p1), (g2, p2));
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

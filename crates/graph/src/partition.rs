//! Contiguous 1D vertex partitions (paper §II-B: *ID partitioning*).
//!
//! Each PE `P_i` owns a contiguous range of vertex ids `V_i`; ranges are
//! globally sorted (`rank(v) < rank(w) ⇒ v < w`), which the surrogate
//! message-deduplication trick of Arifuzzaman et al. relies on.

use crate::csr::Csr;
use crate::VertexId;

/// A contiguous partition of vertex ids `0..n` into `p` ranges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// `p + 1` boundaries: PE `i` owns `[bounds[i], bounds[i+1])`.
    bounds: Vec<VertexId>,
}

impl Partition {
    /// Splits `0..n` into `p` ranges with vertex counts as equal as possible
    /// (the first `n mod p` ranges get one extra vertex).
    pub fn balanced_vertices(n: u64, p: usize) -> Self {
        assert!(p > 0, "partition needs at least one PE");
        let p64 = p as u64;
        let base = n / p64;
        let extra = n % p64;
        let mut bounds = Vec::with_capacity(p + 1);
        let mut acc = 0u64;
        bounds.push(0);
        for i in 0..p64 {
            acc += base + u64::from(i < extra);
            bounds.push(acc);
        }
        Self { bounds }
    }

    /// Splits `0..n` so that each range carries a roughly equal number of
    /// adjacency entries of `g` (degree-sum balancing — reduces the work
    /// imbalance skewed graphs cause under vertex balancing): each range's
    /// degree sum is at most `⌈Σd / p⌉` plus the maximum degree. The default
    /// partition of `DistGraph::new`.
    pub fn balanced_edges(g: &Csr, p: usize) -> Self {
        Self::balanced_by_cost(g, p, |d| d)
    }

    /// Splits `0..n` so that each contiguous range carries a roughly equal
    /// share of `Σ_v cost(d_v)` — the prefix-sum based, degree-cost-function
    /// load balancing of Arifuzzaman et al. that the paper's §IV-D
    /// discusses. `cost` maps a vertex degree to its estimated work.
    pub fn balanced_by_cost(g: &Csr, p: usize, cost: impl Fn(u64) -> u64) -> Self {
        assert!(p > 0, "partition needs at least one PE");
        let n = g.num_vertices();
        // In u128: a sum of u64 costs (d² at hub degrees) and `total · i`
        // both overflow u64.
        let cost = |v| u128::from(cost(g.degree(v)));
        let total: u128 = g.vertices().map(cost).sum();
        let mut bounds = Vec::with_capacity(p + 1);
        bounds.push(0u64);
        let mut acc = 0u128;
        let mut v = 0u64;
        for i in 1..p {
            let target = total * i as u128 / p as u128;
            while v < n && acc < target {
                acc += cost(v);
                v += 1;
            }
            bounds.push(v);
        }
        bounds.push(n);
        Self { bounds }
    }

    /// Builds a partition from explicit boundaries (`bounds[0] == 0`,
    /// nondecreasing, last element is `n`).
    pub fn from_bounds(bounds: Vec<VertexId>) -> Self {
        assert!(!bounds.is_empty() && bounds[0] == 0);
        assert!(bounds.windows(2).all(|w| w[0] <= w[1]));
        Self { bounds }
    }

    /// Number of PEs `p`.
    pub fn num_ranks(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Number of vertices `n`.
    pub fn num_vertices(&self) -> u64 {
        *self.bounds.last().unwrap()
    }

    /// The range `V_i` owned by PE `i`.
    pub fn range(&self, rank: usize) -> std::ops::Range<VertexId> {
        self.bounds[rank]..self.bounds[rank + 1]
    }

    /// `|V_i|`.
    pub fn size_of(&self, rank: usize) -> u64 {
        self.bounds[rank + 1] - self.bounds[rank]
    }

    /// `rank(v)`: the PE owning vertex `v` (binary search over boundaries).
    #[inline]
    pub fn rank_of(&self, v: VertexId) -> usize {
        debug_assert!(v < self.num_vertices(), "vertex {v} out of range");
        // partition_point returns the count of bounds <= v among bounds[1..]
        match self.bounds[1..].binary_search_by(|b| {
            if *b <= v {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Greater
            }
        }) {
            Ok(i) | Err(i) => i,
        }
    }

    /// Whether PE `rank` owns `v`.
    #[inline]
    pub fn owns(&self, rank: usize, v: VertexId) -> bool {
        v >= self.bounds[rank] && v < self.bounds[rank + 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edgelist::EdgeList;

    #[test]
    fn balanced_vertices_covers_everything() {
        for n in [0u64, 1, 7, 64, 65, 100] {
            for p in [1usize, 2, 3, 7, 16] {
                let part = Partition::balanced_vertices(n, p);
                assert_eq!(part.num_ranks(), p);
                assert_eq!(part.num_vertices(), n);
                let total: u64 = (0..p).map(|r| part.size_of(r)).sum();
                assert_eq!(total, n);
                // sizes differ by at most one
                let sizes: Vec<u64> = (0..p).map(|r| part.size_of(r)).collect();
                let (mn, mx) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(mx - mn <= 1);
            }
        }
    }

    #[test]
    fn rank_of_agrees_with_ranges() {
        let part = Partition::balanced_vertices(100, 7);
        for v in 0..100u64 {
            let r = part.rank_of(v);
            assert!(part.owns(r, v), "v={v} r={r}");
            assert!(part.range(r).contains(&v));
        }
    }

    #[test]
    fn ranks_are_globally_sorted() {
        let part = Partition::balanced_vertices(64, 5);
        for v in 0..63u64 {
            assert!(part.rank_of(v) <= part.rank_of(v + 1));
        }
    }

    #[test]
    fn edge_balanced_covers_everything() {
        // a skewed graph: star with center 0
        let mut el = EdgeList::from_pairs((1..50).map(|v| (0u64, v)).collect());
        el.canonicalize();
        let g = Csr::from_edges(50, &el);
        let part = Partition::balanced_edges(&g, 4);
        assert_eq!(part.num_ranks(), 4);
        assert_eq!(part.num_vertices(), 50);
        let total: u64 = (0..4).map(|r| part.size_of(r)).sum();
        assert_eq!(total, 50);
        // the star center alone should saturate the first range
        assert!(part.size_of(0) < 50 / 2);
    }

    #[test]
    fn cost_function_balancing_shifts_boundaries() {
        // star graph: cost d² puts the center alone-ish even harder than
        // cost d
        let mut el = EdgeList::from_pairs((1..101).map(|v| (0u64, v)).collect());
        el.canonicalize();
        let g = Csr::from_edges(101, &el);
        let by_deg = Partition::balanced_by_cost(&g, 4, |d| d);
        let by_sq = Partition::balanced_by_cost(&g, 4, |d| d * d);
        assert!(by_sq.size_of(0) <= by_deg.size_of(0));
        // both cover everything
        for part in [&by_deg, &by_sq] {
            let total: u64 = (0..4).map(|r| part.size_of(r)).sum();
            assert_eq!(total, 101);
        }
    }

    #[test]
    fn degenerate_cost_function_is_safe() {
        let mut el = EdgeList::from_pairs(vec![(0, 1), (1, 2)]);
        el.canonicalize();
        let g = Csr::from_edges(3, &el);
        // zero cost: boundaries collapse left but remain valid
        let part = Partition::balanced_by_cost(&g, 3, |_| 0);
        assert_eq!(part.num_vertices(), 3);
        let total: u64 = (0..3).map(|r| part.size_of(r)).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn huge_costs_do_not_overflow() {
        // four costs of ≈ 2^63 (d² at hub degrees) sum past u64::MAX
        let mut el = EdgeList::from_pairs(vec![(0, 1), (2, 3)]);
        el.canonicalize();
        let g = Csr::from_edges(4, &el);
        let part = Partition::balanced_by_cost(&g, 2, |_| u64::MAX / 2);
        assert_eq!(part.range(0), 0..2);
        assert_eq!(part.range(1), 2..4);
    }

    #[test]
    fn single_rank_owns_all() {
        let part = Partition::balanced_vertices(10, 1);
        assert_eq!(part.range(0), 0..10);
        assert_eq!(part.rank_of(9), 0);
    }

    #[test]
    fn empty_ranges_allowed() {
        let part = Partition::balanced_vertices(2, 4);
        let total: u64 = (0..4).map(|r| part.size_of(r)).sum();
        assert_eq!(total, 2);
        assert_eq!(part.rank_of(0), 0);
        assert_eq!(part.rank_of(1), 1);
    }
}

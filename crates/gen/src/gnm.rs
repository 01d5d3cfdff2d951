//! Erdős–Rényi `G(n, m)` graphs: `m` distinct edges chosen uniformly from
//! all `\binom{n}{2}` possibilities (paper §V-C). These graphs have *no
//! locality* and an almost uniform degree distribution — the family on which
//! the paper observes that CETRIC's contraction cannot pay off.

use tricount_graph::hash::FxHashSet;
use tricount_graph::{Csr, EdgeList};

use crate::rng::Rng;

/// Generates `G(n, m)` with the given seed. Panics if `m` exceeds the number
/// of possible edges.
pub fn gnm(n: u64, m: u64, seed: u64) -> Csr {
    let possible = n * n.saturating_sub(1) / 2;
    assert!(m <= possible, "G(n,m): m={m} > {possible} possible edges");
    let mut rng = Rng::new(seed ^ 0x474e_4d00); // "GNM"
    let mut seen: FxHashSet<(u64, u64)> = FxHashSet::default();
    seen.reserve(m as usize);
    let mut el = EdgeList::new();
    while (seen.len() as u64) < m {
        let u = rng.next_below(n);
        let v = rng.next_below(n);
        if u == v {
            continue;
        }
        let e = (u.min(v), u.max(v));
        if seen.insert(e) {
            el.push(e.0, e.1);
        }
    }
    Csr::from_edges(n, &el)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_edge_count() {
        let g = gnm(100, 500, 1);
        assert_eq!(g.num_vertices(), 100);
        assert_eq!(g.num_edges(), 500);
        g.validate_symmetric().unwrap();
    }

    #[test]
    fn deterministic() {
        assert_eq!(gnm(64, 256, 7), gnm(64, 256, 7));
    }

    #[test]
    fn seeds_change_graph() {
        assert_ne!(gnm(64, 256, 7), gnm(64, 256, 8));
    }

    #[test]
    fn dense_extreme_is_complete() {
        let n = 10u64;
        let g = gnm(n, n * (n - 1) / 2, 3);
        for v in g.vertices() {
            assert_eq!(g.degree(v), n - 1);
        }
    }

    #[test]
    fn degrees_are_roughly_uniform() {
        let n = 1000u64;
        let g = gnm(n, 16 * n, 5);
        let avg = 2.0 * g.num_edges() as f64 / n as f64;
        let max = g.degrees().into_iter().max().unwrap() as f64;
        // Binomial tails: max degree stays within a small factor of the mean.
        assert!(max < 3.0 * avg, "max {max} avg {avg}");
    }
}

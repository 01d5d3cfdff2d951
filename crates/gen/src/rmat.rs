//! R-MAT graphs (paper §V-C): the recursive-matrix model of the Graph 500
//! benchmark. The adjacency matrix is subdivided into four quadrants with
//! probabilities `(a, b, c, d)`; each edge descends `scale` levels. We use
//! the Graph 500 defaults `(0.57, 0.19, 0.19, 0.05)`, which produce the
//! heavily skewed degree distribution (hubs at low ids) on which the paper
//! reports the worst scaling behaviour of all synthetic families.

use tricount_graph::hash::FxHashSet;
use tricount_graph::{Csr, EdgeList};

use crate::rng::Rng;

/// R-MAT quadrant probabilities.
#[derive(Debug, Clone, Copy)]
pub struct RmatParams {
    /// `log₂` of the number of vertices.
    pub scale: u32,
    /// Number of (attempted) edges; duplicates and self loops are dropped,
    /// so the simple graph has somewhat fewer.
    pub edges: u64,
    /// Quadrant probabilities; must sum to 1.
    pub a: f64,
    /// Upper-right quadrant probability.
    pub b: f64,
    /// Lower-left quadrant probability.
    pub c: f64,
}

impl RmatParams {
    /// Graph 500 defaults with edge factor 16.
    pub fn graph500(scale: u32) -> Self {
        RmatParams {
            scale,
            edges: 16 << scale,
            a: 0.57,
            b: 0.19,
            c: 0.19,
        }
    }

    /// A hub-heavy variant with the upper-left quadrant probability pushed
    /// well past the Graph 500 default (`a = 0.7`): mass concentrates on
    /// the low-id rows, so a few vertices collect a large fraction of all
    /// endpoints. This is the adversarial skew the adaptive intersection
    /// kernels (galloping / binary probing) are built for — the kernel
    /// ablation benches run on exactly this configuration.
    pub fn hub_heavy(scale: u32) -> Self {
        RmatParams {
            scale,
            edges: 16 << scale,
            a: 0.70,
            b: 0.14,
            c: 0.14,
        }
    }
}

/// Generates an R-MAT graph (undirected simple graph after symmetrisation
/// and deduplication).
pub fn rmat(params: &RmatParams, seed: u64) -> Csr {
    let n = 1u64 << params.scale;
    let mut rng = Rng::new(seed ^ 0x524d_4154); // "RMAT"
    let (pa, pb, pc) = (params.a, params.b, params.c);
    assert!(pa + pb + pc <= 1.0 + 1e-9);
    let mut seen: FxHashSet<(u64, u64)> = FxHashSet::default();
    let mut el = EdgeList::new();
    for _ in 0..params.edges {
        let (mut u, mut v) = (0u64, 0u64);
        for _ in 0..params.scale {
            let x = rng.next_f64();
            let (du, dv) = if x < pa {
                (0, 0)
            } else if x < pa + pb {
                (0, 1)
            } else if x < pa + pb + pc {
                (1, 0)
            } else {
                (1, 1)
            };
            u = (u << 1) | du;
            v = (v << 1) | dv;
        }
        if u == v {
            continue;
        }
        let e = (u.min(v), u.max(v));
        if seen.insert(e) {
            el.push(e.0, e.1);
        }
    }
    el.canonicalize();
    Csr::from_edges(n, &el)
}

/// R-MAT with Graph 500 defaults at the given scale.
pub fn rmat_default(scale: u32, seed: u64) -> Csr {
    rmat(&RmatParams::graph500(scale), seed)
}

/// R-MAT with the [`RmatParams::hub_heavy`] quadrant probabilities at the
/// given scale.
pub fn rmat_hub_heavy(scale: u32, seed: u64) -> Csr {
    rmat(&RmatParams::hub_heavy(scale), seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_determinism() {
        let g = rmat_default(10, 5);
        assert_eq!(g.num_vertices(), 1024);
        assert!(g.num_edges() > 0);
        g.validate_symmetric().unwrap();
        assert_eq!(g, rmat_default(10, 5));
        assert_ne!(g, rmat_default(10, 6));
    }

    #[test]
    fn skewed_degrees_with_hubs_at_low_ids() {
        let g = rmat_default(12, 1);
        let degs = g.degrees();
        let max = *degs.iter().max().unwrap();
        let n = g.num_vertices() as usize;
        let avg = 2.0 * g.num_edges() as f64 / n as f64;
        assert!(max as f64 > 10.0 * avg, "max {max} avg {avg}");
        // hubs concentrate in the low-id quarter
        let argmax = degs.iter().enumerate().max_by_key(|(_, &d)| d).unwrap().0;
        assert!(argmax < n / 4, "hub at id {argmax}");
    }

    #[test]
    fn duplicate_suppression_keeps_simple_graph() {
        let params = RmatParams {
            scale: 6,
            edges: 4096, // heavy oversampling of a 64-vertex graph
            a: 0.57,
            b: 0.19,
            c: 0.19,
        };
        let g = rmat(&params, 3);
        g.validate_symmetric().unwrap();
        assert!(g.num_edges() <= 64 * 63 / 2);
    }

    #[test]
    fn hub_heavy_is_more_skewed_than_graph500() {
        let base = rmat_default(11, 9);
        let heavy = rmat_hub_heavy(11, 9);
        heavy.validate_symmetric().unwrap();
        assert_eq!(heavy, rmat_hub_heavy(11, 9));
        let skew = |g: &Csr| {
            let degs = g.degrees();
            let max = *degs.iter().max().unwrap() as f64;
            max / (2.0 * g.num_edges() as f64 / g.num_vertices() as f64)
        };
        assert!(
            skew(&heavy) > 1.5 * skew(&base),
            "hub-heavy skew {} vs graph500 {}",
            skew(&heavy),
            skew(&base)
        );
    }

    #[test]
    fn uniform_probabilities_resemble_gnm() {
        let params = RmatParams {
            scale: 10,
            edges: 8 << 10,
            a: 0.25,
            b: 0.25,
            c: 0.25,
        };
        let g = rmat(&params, 7);
        let avg = 2.0 * g.num_edges() as f64 / g.num_vertices() as f64;
        let max = *g.degrees().iter().max().unwrap() as f64;
        assert!(max < 4.0 * avg, "uniform R-MAT should not have hubs");
    }
}

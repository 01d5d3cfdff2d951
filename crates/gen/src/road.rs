//! Road-network-like graphs: the proxy family for the paper's `europe` and
//! `usa` DIMACS instances (§V-C). Road networks have low, nearly uniform
//! degree, high diameter, tiny cuts under contiguous partitioning, and very
//! few triangles — the regime where the paper observes TriC's single-batch
//! communication winning at small `p`.
//!
//! The model: a `w × h` grid of intersections with row-major ids (so 1D
//! partitions are horizontal strips with `O(w)` cut edges), where each
//! grid edge exists with probability `p_keep` (missing roads), plus sparse
//! random diagonal shortcuts that close the occasional triangle, matching
//! the low-but-nonzero triangle density of real road networks.

use tricount_graph::{Csr, EdgeList};

use crate::rng::Rng;

/// Parameters of the road-like model.
#[derive(Debug, Clone, Copy)]
pub struct RoadParams {
    /// Grid width.
    pub width: u64,
    /// Grid height.
    pub height: u64,
    /// Probability of keeping each grid edge.
    pub p_keep: f64,
    /// Probability of adding each diagonal shortcut.
    pub p_diag: f64,
}

impl RoadParams {
    /// A square-ish road network with `≈ n` vertices and realistic defaults.
    pub fn with_vertices(n: u64) -> Self {
        let side = (n as f64).sqrt().ceil() as u64;
        RoadParams {
            width: side,
            height: side.max(1),
            p_keep: 0.92,
            p_diag: 0.03,
        }
    }
}

/// Generates a road-like graph with `width·height` vertices.
pub fn road(params: &RoadParams, seed: u64) -> Csr {
    let (w, h) = (params.width, params.height);
    let n = w * h;
    let mut rng = Rng::new(seed ^ 0x524f_4144); // "ROAD"
    let id = |x: u64, y: u64| y * w + x;
    let mut el = EdgeList::new();
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w && rng.next_bool(params.p_keep) {
                el.push(id(x, y), id(x + 1, y));
            }
            if y + 1 < h && rng.next_bool(params.p_keep) {
                el.push(id(x, y), id(x, y + 1));
            }
            if x + 1 < w && y + 1 < h && rng.next_bool(params.p_diag) {
                el.push(id(x, y), id(x + 1, y + 1));
            }
            if x > 0 && y + 1 < h && rng.next_bool(params.p_diag) {
                el.push(id(x, y), id(x - 1, y + 1));
            }
        }
    }
    Csr::from_edges(n, &el)
}

/// Road-like graph with `≈ n` vertices and default densities.
pub fn road_default(n: u64, seed: u64) -> Csr {
    road(&RoadParams::with_vertices(n), seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(road_default(1000, 3), road_default(1000, 3));
        assert_ne!(road_default(1000, 3), road_default(1000, 4));
    }

    #[test]
    fn degrees_are_low_and_uniform() {
        let g = road_default(10_000, 1);
        let max = *g.degrees().iter().max().unwrap();
        assert!(max <= 8, "road max degree {max}");
        let avg = 2.0 * g.num_edges() as f64 / g.num_vertices() as f64;
        assert!((1.0..4.5).contains(&avg), "avg {avg}");
    }

    #[test]
    fn row_major_ids_give_tiny_strip_cuts() {
        let params = RoadParams {
            width: 100,
            height: 100,
            p_keep: 1.0,
            p_diag: 0.0,
        };
        let g = road(&params, 0);
        // a horizontal strip boundary crosses exactly `width` edges
        let crossing = g.edges().filter(|&(u, v)| u < 5000 && v >= 5000).count();
        assert_eq!(crossing, 100);
    }

    #[test]
    fn diagonals_create_some_triangles() {
        let params = RoadParams {
            width: 60,
            height: 60,
            p_keep: 1.0,
            p_diag: 0.5,
        };
        let g = road(&params, 2);
        // count triangles naively on this small instance
        let mut t = 0u64;
        for v in g.vertices() {
            for &u in g.neighbors(v) {
                if u <= v {
                    continue;
                }
                for &x in g.neighbors(u) {
                    if x > u && g.has_edge(v, x) {
                        t += 1;
                    }
                }
            }
        }
        assert!(t > 0, "diagonals must close triangles");
    }
}

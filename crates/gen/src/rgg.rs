//! 2D random geometric graphs (paper §V-C): `n` points uniform in the unit
//! square, an edge whenever the Euclidean distance is below a radius `r`.
//! The radius is chosen so that the expected number of edges is `16n`
//! (Graph 500's edge factor), as in the paper.
//!
//! Vertex ids are assigned in row-major *cell* order, so a contiguous 1D
//! partition corresponds to horizontal strips of the unit square — the
//! geometric locality that makes RGG the friendliest family for CETRIC's
//! contraction (small cut). KaGen's communication-free generator produces
//! the same id-locality; sorting by cell here is the sequential equivalent.

use tricount_graph::{Csr, EdgeList};

use crate::rng::Rng;

/// Radius giving expected average degree `target_avg_deg` for `n` points in
/// the unit square (`E[deg] ≈ n·π·r²`, ignoring boundary effects).
pub fn radius_for_avg_degree(n: u64, target_avg_deg: f64) -> f64 {
    (target_avg_deg / (std::f64::consts::PI * n as f64)).sqrt()
}

/// Generates an RGG2D with `n` vertices and radius `r`.
pub fn rgg2d(n: u64, r: f64, seed: u64) -> Csr {
    assert!(r > 0.0 && r < 1.0);
    let mut rng = Rng::new(seed ^ 0x5247_4700); // "RGG"
    let mut pts: Vec<(f64, f64)> = (0..n).map(|_| (rng.next_f64(), rng.next_f64())).collect();

    // grid of cells with side ≥ r → neighbors confined to 3×3 cells
    let cells_per_side = ((1.0 / r).floor() as usize).clamp(1, 1 << 12);
    let cell = 1.0 / cells_per_side as f64;
    let cell_of = |x: f64, y: f64| {
        let cx = ((x / cell) as usize).min(cells_per_side - 1);
        let cy = ((y / cell) as usize).min(cells_per_side - 1);
        (cy, cx)
    };
    // id assignment: sort points by (cell row, cell col, y, x) → row-major
    // locality
    pts.sort_by(|a, b| {
        let ca = cell_of(a.0, a.1);
        let cb = cell_of(b.0, b.1);
        (ca, a.1, a.0).partial_cmp(&(cb, b.1, b.0)).unwrap()
    });

    // bucket points by cell
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); cells_per_side * cells_per_side];
    for (i, &(x, y)) in pts.iter().enumerate() {
        let (cy, cx) = cell_of(x, y);
        buckets[cy * cells_per_side + cx].push(i as u32);
    }

    let r2 = r * r;
    let mut el = EdgeList::new();
    for cy in 0..cells_per_side {
        for cx in 0..cells_per_side {
            let here = &buckets[cy * cells_per_side + cx];
            // neighbor cells at offsets covering each unordered pair once:
            // same cell (i<j), E, S, SW, SE
            for &i in here {
                let (xi, yi) = pts[i as usize];
                let mut consider = |j: u32| {
                    if i < j {
                        let (xj, yj) = pts[j as usize];
                        let (dx, dy) = (xi - xj, yi - yj);
                        if dx * dx + dy * dy <= r2 {
                            el.push(i as u64, j as u64);
                        }
                    }
                };
                for &j in here {
                    consider(j);
                }
                for (oy, ox) in [(0isize, 1isize), (1, -1), (1, 0), (1, 1)] {
                    let ny = cy as isize + oy;
                    let nx = cx as isize + ox;
                    if ny < 0
                        || nx < 0
                        || ny >= cells_per_side as isize
                        || nx >= cells_per_side as isize
                    {
                        continue;
                    }
                    for &j in &buckets[ny as usize * cells_per_side + nx as usize] {
                        // cross-cell pairs are unordered by construction;
                        // take them all (guard only the same-cell case)
                        let (xj, yj) = pts[j as usize];
                        let (dx, dy) = (xi - xj, yi - yj);
                        if dx * dx + dy * dy <= r2 {
                            el.push(i as u64, j as u64);
                        }
                    }
                }
            }
        }
    }
    Csr::from_edges(n, &el)
}

/// RGG2D with the paper's default density (expected `16n` edges, i.e.
/// average degree 32).
pub fn rgg2d_default(n: u64, seed: u64) -> Csr {
    rgg2d(n, radius_for_avg_degree(n, 32.0), seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(rgg2d_default(500, 9), rgg2d_default(500, 9));
    }

    #[test]
    fn matches_brute_force_on_small_instance() {
        let n = 200u64;
        let r = 0.08;
        let g = rgg2d(n, r, 4);
        // rebuild points exactly as the generator does
        let mut rng = Rng::new(4 ^ 0x5247_4700);
        let mut pts: Vec<(f64, f64)> = (0..n).map(|_| (rng.next_f64(), rng.next_f64())).collect();
        let cells_per_side = ((1.0 / r).floor() as usize).clamp(1, 1 << 12);
        let cell = 1.0 / cells_per_side as f64;
        let cell_of = |x: f64, y: f64| {
            let cx = ((x / cell) as usize).min(cells_per_side - 1);
            let cy = ((y / cell) as usize).min(cells_per_side - 1);
            (cy, cx)
        };
        pts.sort_by(|a, b| {
            let ca = cell_of(a.0, a.1);
            let cb = cell_of(b.0, b.1);
            (ca, a.1, a.0).partial_cmp(&(cb, b.1, b.0)).unwrap()
        });
        let mut expect = 0u64;
        for i in 0..n as usize {
            for j in (i + 1)..n as usize {
                let (dx, dy) = (pts[i].0 - pts[j].0, pts[i].1 - pts[j].1);
                if dx * dx + dy * dy <= r * r {
                    expect += 1;
                }
            }
        }
        assert_eq!(g.num_edges(), expect);
        g.validate_symmetric().unwrap();
    }

    #[test]
    fn density_near_target() {
        let n = 4000u64;
        let g = rgg2d_default(n, 2);
        let avg = 2.0 * g.num_edges() as f64 / n as f64;
        // boundary effects reduce the degree slightly; stay within ±40%
        assert!((19.0..45.0).contains(&avg), "avg degree {avg}");
    }

    #[test]
    fn ids_have_spatial_locality() {
        // with row-major cell ids, most edges connect nearby ids: the mean
        // id distance across edges must be far below the random-graph
        // expectation (≈ n/3)
        let n = 2000u64;
        let g = rgg2d_default(n, 6);
        let (sum, cnt) = g
            .edges()
            .fold((0u64, 0u64), |(s, c), (u, v)| (s + (v - u), c + 1));
        let mean = sum as f64 / cnt as f64;
        assert!(mean < n as f64 / 8.0, "mean id distance {mean}");
    }
}

//! Random hyperbolic graphs (threshold model), the paper's RHG family
//! (§V-C): `n` points on a hyperbolic disk of radius `R`, radial density
//! `α·sinh(αr)/(cosh(αR)−1)` with `α = (γ−1)/2`, an edge whenever the
//! hyperbolic distance is at most `R`. The result has a power-law degree
//! distribution with exponent `γ` (the paper uses `γ = 2.8`) and strong
//! clustering — the family where the degree-exchange skew shows up.
//!
//! Generation uses the standard band technique (à la von Looz et al., which
//! KaGen builds on): the disk is cut into `O(log n)` radial bands; points
//! are sorted by angle within each band; for a query point only the angular
//! window that can possibly be within distance `R` of it (computed against
//! the band's inner radius) is examined.
//!
//! Ids are assigned by ascending angle, giving contiguous partitions angular
//! locality.

use tricount_graph::{Csr, EdgeList};

use crate::rng::Rng;

const TAU: f64 = std::f64::consts::TAU;

/// Parameters of the threshold RHG model.
#[derive(Debug, Clone, Copy)]
pub struct RhgParams {
    /// Number of vertices.
    pub n: u64,
    /// Power-law exponent `γ > 2`.
    pub gamma: f64,
    /// Target average degree.
    pub avg_deg: f64,
}

/// Disk radius yielding the target average degree, from the first-order
/// expectation `k̄ ≈ ξ·n·e^{−R/2}` with `ξ = 2α²/(π(α−1/2)²)`
/// (Gugelmann et al.). Exact calibration is not required — tests assert the
/// realised degree lands within a small factor.
pub fn radius_for(params: &RhgParams) -> f64 {
    let alpha = (params.gamma - 1.0) / 2.0;
    assert!(alpha > 0.5, "gamma must exceed 2");
    let xi = 2.0 * alpha * alpha / (std::f64::consts::PI * (alpha - 0.5).powi(2));
    2.0 * (xi * params.n as f64 / params.avg_deg).ln()
}

/// Generates a threshold RHG.
pub fn rhg(params: &RhgParams, seed: u64) -> Csr {
    let n = params.n;
    let alpha = (params.gamma - 1.0) / 2.0;
    let r_disk = radius_for(params);
    let cosh_r = r_disk.cosh();
    let mut rng = Rng::new(seed ^ 0x5248_4700); // "RHG"

    // sample polar coordinates; radial inverse CDF of α·sinh(αr)/(cosh(αR)−1)
    let mut pts: Vec<(f64, f64)> = (0..n)
        .map(|_| {
            let u = rng.next_f64();
            let r = ((1.0 + u * (alpha * r_disk).cosh() - u).max(1.0)).acosh() / alpha;
            let theta = rng.next_f64() * TAU;
            (theta, r)
        })
        .collect();
    // ids by ascending angle → angular locality for contiguous partitions
    pts.sort_by(|a, b| a.partial_cmp(b).unwrap());

    // radial bands: geometric boundaries from 0 to R
    let num_bands = ((n as f64).log2().ceil() as usize).max(1);
    let mut boundaries = Vec::with_capacity(num_bands + 1);
    for b in 0..=num_bands {
        boundaries.push(r_disk * b as f64 / num_bands as f64);
    }
    // band membership, each band sorted by angle (points are already sorted
    // globally by angle, so per-band order is inherited)
    let band_of = |r: f64| {
        let mut b = ((r / r_disk) * num_bands as f64) as usize;
        if b >= num_bands {
            b = num_bands - 1;
        }
        b
    };
    let mut bands: Vec<Vec<u32>> = vec![Vec::new(); num_bands];
    for (i, &(_, r)) in pts.iter().enumerate() {
        bands[band_of(r)].push(i as u32);
    }

    // hyperbolic distance test: d(p,q) ≤ R ⇔
    //   cosh r_p cosh r_q − sinh r_p sinh r_q cos Δθ ≤ cosh R
    let connected = |p: (f64, f64), q: (f64, f64)| {
        let (tp, rp) = p;
        let (tq, rq) = q;
        let mut dt = (tp - tq).abs();
        if dt > TAU / 2.0 {
            dt = TAU - dt;
        }
        rp.cosh() * rq.cosh() - rp.sinh() * rq.sinh() * dt.cos() <= cosh_r
    };
    // max Δθ at which a point at radius r_p can connect to any point at
    // radius ≥ band_lo: cos Δθ ≥ (cosh r_p cosh b − cosh R)/(sinh r_p sinh b)
    let max_dtheta = |rp: f64, band_lo: f64| -> f64 {
        if band_lo <= 0.0 || rp <= 0.0 {
            return TAU; // everything is a candidate
        }
        let c = (rp.cosh() * band_lo.cosh() - cosh_r) / (rp.sinh() * band_lo.sinh());
        if c <= -1.0 {
            TAU
        } else if c >= 1.0 {
            0.0
        } else {
            c.acos()
        }
    };

    let mut el = EdgeList::new();
    for (i, &p) in pts.iter().enumerate() {
        let (theta_p, r_p) = p;
        let own_band = band_of(r_p);
        // only bands ≥ own band: pairs across bands are handled from the
        // point in the lower band; ties within a band use i < j.
        for (b, band) in bands.iter().enumerate().skip(own_band) {
            let window = max_dtheta(r_p, boundaries[b]);
            // find candidates with |Δθ| ≤ window via binary search on angle
            let lo_angle = theta_p - window;
            let hi_angle = theta_p + window;
            let mut scan = |from: f64, to: f64| {
                let start = band.partition_point(|&j| pts[j as usize].0 < from);
                for &j in &band[start..] {
                    let q = pts[j as usize];
                    if q.0 > to {
                        break;
                    }
                    let j_band = b;
                    let cross = j_band > own_band;
                    if (cross || (j as usize) > i) && connected(p, q) {
                        el.push(i as u64, j as u64);
                    }
                }
            };
            if window >= TAU / 2.0 {
                scan(f64::NEG_INFINITY, f64::INFINITY);
            } else {
                scan(lo_angle, hi_angle);
                // wrap-around windows
                if lo_angle < 0.0 {
                    scan(lo_angle + TAU, f64::INFINITY);
                }
                if hi_angle > TAU {
                    scan(f64::NEG_INFINITY, hi_angle - TAU);
                }
            }
        }
    }
    Csr::from_edges(n, &el)
}

/// RHG with the paper's parameters: `γ = 2.8`, average degree 32 (expected
/// `16n` edges).
pub fn rhg_default(n: u64, seed: u64) -> Csr {
    rhg(
        &RhgParams {
            n,
            gamma: 2.8,
            avg_deg: 32.0,
        },
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_force(params: &RhgParams, seed: u64) -> Csr {
        // regenerate points exactly and connect by the raw predicate
        let n = params.n;
        let alpha = (params.gamma - 1.0) / 2.0;
        let r_disk = radius_for(params);
        let cosh_r = r_disk.cosh();
        let mut rng = Rng::new(seed ^ 0x5248_4700);
        let mut pts: Vec<(f64, f64)> = (0..n)
            .map(|_| {
                let u = rng.next_f64();
                let r = ((1.0 + u * (alpha * r_disk).cosh() - u).max(1.0)).acosh() / alpha;
                let theta = rng.next_f64() * TAU;
                (theta, r)
            })
            .collect();
        pts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut el = EdgeList::new();
        for i in 0..n as usize {
            for j in (i + 1)..n as usize {
                let (tp, rp) = pts[i];
                let (tq, rq) = pts[j];
                let mut dt = (tp - tq).abs();
                if dt > TAU / 2.0 {
                    dt = TAU - dt;
                }
                if rp.cosh() * rq.cosh() - rp.sinh() * rq.sinh() * dt.cos() <= cosh_r {
                    el.push(i as u64, j as u64);
                }
            }
        }
        Csr::from_edges(n, &el)
    }

    #[test]
    fn band_generation_matches_brute_force() {
        let params = RhgParams {
            n: 300,
            gamma: 2.8,
            avg_deg: 8.0,
        };
        let fast = rhg(&params, 13);
        let slow = brute_force(&params, 13);
        assert_eq!(fast, slow);
    }

    #[test]
    fn deterministic() {
        assert_eq!(rhg_default(400, 3), rhg_default(400, 3));
    }

    #[test]
    fn average_degree_in_range() {
        let n = 4000u64;
        let g = rhg_default(n, 1);
        let avg = 2.0 * g.num_edges() as f64 / n as f64;
        // first-order calibration: within a factor ~2 of the target 32
        assert!((12.0..80.0).contains(&avg), "avg degree {avg}");
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let n = 4000u64;
        let g = rhg_default(n, 2);
        let mut degs = g.degrees();
        degs.sort_unstable();
        let max = *degs.last().unwrap() as f64;
        let median = degs[degs.len() / 2] as f64;
        // power-law: hub degree far above the median
        assert!(max > 8.0 * median.max(1.0), "max {max} median {median}");
    }

    #[test]
    fn angular_locality_of_ids() {
        let n = 2000u64;
        let g = rhg_default(n, 4);
        let (sum, cnt) = g.edges().fold((0u64, 0u64), |(s, c), (u, v)| {
            // circular id distance
            let d = (v - u).min(n - (v - u));
            (s + d, c + 1)
        });
        let mean = sum as f64 / cnt as f64;
        // random ids would average n/4 in circular distance
        assert!(mean < n as f64 / 8.0, "mean circular id distance {mean}");
    }
}

//! Sampling-based approximate triangle counting — the §III-B baselines the
//! paper positions its AMQ approach against. Both reduce the *input* and
//! use any (distributed) exact counter as a black box:
//!
//! * **DOULION** (Tsourakakis et al.): keep each edge independently with
//!   probability `q`; every triangle survives with probability `q³`, so
//!   `T ≈ T_sampled / q³`.
//! * **Colorful counting** (Pagh & Tsourakakis): color vertices uniformly
//!   with `N` colors and keep only monochromatic edges; a triangle survives
//!   iff all three corners share a color (`1/N²` after conditioning on the
//!   first corner), so `T ≈ T_mono · N²` with lower variance than
//!   independent edge sampling at equal reduction.
//!
//! Unlike the AMQ extension (which only approximates *type-3* triangles and
//! is therefore usable for local clustering coefficients), these methods
//! only estimate the global count — exactly the trade-off §IV-E points out.

use tricount_graph::{Csr, EdgeList, VertexId};

use crate::config::Algorithm;
use crate::result::DistError;

#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// DOULION sparsification: keeps each edge with probability `q`
/// (deterministic in `seed`).
pub fn doulion_sparsify(g: &Csr, q: f64, seed: u64) -> Csr {
    assert!((0.0..=1.0).contains(&q));
    let el: EdgeList = g
        .edges()
        .filter(|&(u, v)| unit(mix(seed ^ (u << 32 | v))) < q)
        .collect();
    Csr::from_edges(g.num_vertices(), &el)
}

/// Runs `alg` on the DOULION-sparsified graph over `p` PEs and scales the
/// count by `1/q³`.
pub fn doulion_estimate(
    g: &Csr,
    p: usize,
    alg: Algorithm,
    q: f64,
    seed: u64,
) -> Result<f64, DistError> {
    if q == 0.0 {
        return Ok(0.0);
    }
    let sampled = doulion_sparsify(g, q, seed);
    let r = crate::dist::count(&sampled, p, alg, &alg.config())?;
    Ok(r.triangles as f64 / (q * q * q))
}

/// The color assigned to `v` out of `colors` under `seed`.
#[inline]
pub fn color_of(v: VertexId, colors: u64, seed: u64) -> u64 {
    mix(seed ^ v.wrapping_mul(0xA24B_AED4_963E_E407)) % colors
}

/// Colorful sparsification: keeps only edges whose endpoints share a color.
pub fn colorful_sparsify(g: &Csr, colors: u64, seed: u64) -> Csr {
    assert!(colors >= 1);
    let el: EdgeList = g
        .edges()
        .filter(|&(u, v)| color_of(u, colors, seed) == color_of(v, colors, seed))
        .collect();
    Csr::from_edges(g.num_vertices(), &el)
}

/// Runs `alg` on the monochromatic subgraph over `p` PEs and scales the
/// count by `colors²`.
pub fn colorful_estimate(
    g: &Csr,
    p: usize,
    alg: Algorithm,
    colors: u64,
    seed: u64,
) -> Result<f64, DistError> {
    let mono = colorful_sparsify(g, colors, seed);
    let r = crate::dist::count(&mono, p, alg, &alg.config())?;
    Ok(r.triangles as f64 * (colors * colors) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq;

    fn test_graph() -> Csr {
        tricount_gen::gnm(500, 8000, 77)
    }

    #[test]
    fn doulion_q1_is_exact() {
        let g = test_graph();
        let est = doulion_estimate(&g, 4, Algorithm::Cetric, 1.0, 3).unwrap();
        assert_eq!(est, seq::compact_forward(&g).triangles as f64);
    }

    #[test]
    fn doulion_q0_is_zero() {
        let g = test_graph();
        let est = doulion_estimate(&g, 2, Algorithm::Ditric, 0.0, 3).unwrap();
        assert_eq!(est, 0.0);
    }

    #[test]
    fn doulion_sparsify_keeps_about_q_edges() {
        let g = test_graph();
        let s = doulion_sparsify(&g, 0.5, 9);
        let frac = s.num_edges() as f64 / g.num_edges() as f64;
        assert!((0.42..0.58).contains(&frac), "kept {frac}");
    }

    #[test]
    fn doulion_estimate_is_in_the_right_ballpark() {
        let g = test_graph();
        let truth = seq::compact_forward(&g).triangles as f64;
        // average several seeds: the estimator is unbiased but noisy
        let est: f64 = (0..8)
            .map(|s| doulion_estimate(&g, 4, Algorithm::Ditric, 0.7, s).unwrap())
            .sum::<f64>()
            / 8.0;
        let rel = (est - truth).abs() / truth;
        assert!(rel < 0.3, "est {est} truth {truth}");
    }

    #[test]
    fn colorful_one_color_is_exact() {
        let g = test_graph();
        let est = colorful_estimate(&g, 4, Algorithm::Cetric, 1, 3).unwrap();
        assert_eq!(est, seq::compact_forward(&g).triangles as f64);
    }

    #[test]
    fn colorful_sparsify_keeps_about_1_over_n_edges() {
        let g = test_graph();
        let s = colorful_sparsify(&g, 4, 9);
        let frac = s.num_edges() as f64 / g.num_edges() as f64;
        assert!((0.15..0.35).contains(&frac), "kept {frac}");
    }

    #[test]
    fn colorful_estimate_reasonable_on_triangle_rich_graph() {
        // use a denser graph so the monochromatic subgraph still holds
        // enough triangles for a stable estimate
        let g = tricount_gen::rmat_default(9, 4);
        let truth = seq::compact_forward(&g).triangles as f64;
        let est: f64 = (0..8)
            .map(|s| colorful_estimate(&g, 4, Algorithm::Ditric, 2, s).unwrap())
            .sum::<f64>()
            / 8.0;
        let rel = (est - truth).abs() / truth;
        assert!(rel < 0.3, "est {est} truth {truth}");
    }

    #[test]
    fn colors_partition_vertices() {
        let mut seen = [false; 5];
        for v in 0..1000u64 {
            let c = color_of(v, 5, 1) as usize;
            assert!(c < 5);
            seen[c] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }
}

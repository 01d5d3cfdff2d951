//! Deterministic synthetic graph generators — the reproduction's stand-in
//! for KaGen (Funke et al., the generator suite the paper uses for its weak
//! scaling experiments, §V-C).
//!
//! Families:
//! * [`gnm()`] — Erdős–Rényi `G(n, m)` (no locality, uniform degrees).
//! * [`rgg2d()`] — 2D random geometric graphs (strong locality).
//! * [`rhg()`] — random hyperbolic graphs (power law γ, clustering *and*
//!   locality).
//! * [`rmat()`] — Graph 500 R-MAT (extreme skew, hubs at low ids).
//! * [`road()`] — planar road-like grids (low uniform degree, tiny cuts).
//! * [`Dataset`] — scaled-down proxies for the eight real-world instances of
//!   the paper's Table I, with the paper's published statistics attached.
//!
//! All generators are seeded and bit-deterministic (in-tree xoshiro/SplitMix
//! RNG), so every experiment in this repository is exactly rerunnable.

#![warn(missing_docs)]

pub mod datasets;
pub mod distributed;
pub mod gnm;
pub mod rgg;
pub mod rhg;
pub mod rmat;
pub mod rng;
pub mod road;

pub use datasets::{Dataset, PaperStats};
pub use distributed::{rgg2d_distributed, RggLayout};
pub use gnm::gnm;
pub use rgg::{radius_for_avg_degree, rgg2d, rgg2d_default};
pub use rhg::{rhg, rhg_default, RhgParams};
pub use rmat::{rmat, rmat_default, rmat_hub_heavy, RmatParams};
pub use rng::Rng;
pub use road::{road, road_default, RoadParams};

use tricount_graph::Csr;

/// The synthetic families used in the weak-scaling experiments (Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// 2D random geometric graph.
    Rgg2d,
    /// Random hyperbolic graph (γ = 2.8).
    Rhg,
    /// Erdős–Rényi G(n, m).
    Gnm,
    /// Graph 500 R-MAT.
    Rmat,
}

impl Family {
    /// All weak-scaling families in the paper's order.
    pub fn all() -> [Family; 4] {
        [Family::Rgg2d, Family::Rhg, Family::Gnm, Family::Rmat]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Family::Rgg2d => "RGG2D",
            Family::Rhg => "RHG",
            Family::Gnm => "GNM",
            Family::Rmat => "RMAT",
        }
    }

    /// The smallest `n` [`Family::generate`] accepts: G(n, m) needs its
    /// `m = 16n` edges to fit in `n(n−1)/2`, RGG2D a radius below 1, which
    /// average degree 32 gives from `n > 32/π` on.
    pub fn min_n(self) -> u64 {
        match self {
            Family::Gnm => 33,
            Family::Rgg2d => 11,
            Family::Rhg | Family::Rmat => 0,
        }
    }

    /// Generates an instance with `n` vertices and the paper's default
    /// density for the family (expected edge factor 16); `n` must be at
    /// least [`Family::min_n`].
    pub fn generate(self, n: u64, seed: u64) -> Csr {
        match self {
            Family::Rgg2d => rgg2d_default(n, seed),
            Family::Rhg => rhg_default(n, seed),
            Family::Gnm => gnm(n, 16 * n, seed),
            Family::Rmat => rmat_default(n.next_power_of_two().trailing_zeros(), seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_generate() {
        for fam in Family::all() {
            let g = fam.generate(256, 3);
            assert!(g.num_edges() > 0, "{fam:?}");
            g.validate_symmetric().unwrap();
        }
    }

    /// `min_n` is the boundary of each family's precondition: it holds at
    /// `min_n` and fails one below.
    #[test]
    fn min_n_is_the_smallest_valid_n() {
        let gnm_fits = |n: u64| 16 * n <= n * n.saturating_sub(1) / 2;
        let rgg_fits = |n: u64| crate::rgg::radius_for_avg_degree(n, 32.0) < 1.0;
        assert!(gnm_fits(Family::Gnm.min_n()) && !gnm_fits(Family::Gnm.min_n() - 1));
        assert!(rgg_fits(Family::Rgg2d.min_n()) && !rgg_fits(Family::Rgg2d.min_n() - 1));
        for fam in Family::all() {
            fam.generate(fam.min_n(), 3).validate_symmetric().unwrap();
        }
    }
}

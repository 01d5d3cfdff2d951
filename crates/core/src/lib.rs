//! The triangle counting algorithms of Sanders & Uhl, *Engineering a
//! Distributed-Memory Triangle Counting Algorithm* (IPDPS 2023), implemented
//! over the simulated distributed machine of `tricount-comm`.
//!
//! # Quick start
//!
//! ```
//! use tricount_core::{count, Algorithm};
//! use tricount_graph::{Csr, EdgeList};
//!
//! // a triangle plus a pendant edge
//! let mut el = EdgeList::from_pairs(vec![(0, 1), (1, 2), (0, 2), (2, 3)]);
//! el.canonicalize();
//! let g = Csr::from_edges(4, &el);
//!
//! // sequential COMPACT-FORWARD
//! assert_eq!(tricount_core::seq::compact_forward(&g).triangles, 1);
//!
//! // CETRIC on 2 simulated PEs
//! let result = count(&g, 2, Algorithm::Cetric, &Algorithm::Cetric.config()).unwrap();
//! assert_eq!(result.triangles, 1);
//! ```
//!
//! # Algorithms
//!
//! * [`seq`] — EDGEITERATOR / COMPACT-FORWARD, enumeration, per-vertex
//!   counts, LCC (Algorithm 1 and §II).
//! * [`dist::ditric`] — DITRIC and DITRIC² (dynamic message aggregation,
//!   optional grid indirection; Algorithm 2 + §IV-A/B).
//! * [`dist::cetric`] — CETRIC and CETRIC² (expanded local graph +
//!   contraction; Algorithm 3, §IV-C).
//! * [`dist::baselines`] — TriC-like and HavoqGT-like competitor
//!   re-implementations (§V-B).
//! * [`dist::lcc`] — distributed per-vertex counts and local clustering
//!   coefficients (§IV-E).
//! * [`dist::approx`] — AMQ-approximate counting with the truthful
//!   estimator (§IV-E).
//! * [`dist::enumerate`] — distributed triangle enumeration (§IV-E).
//! * Hybrid thread × rank execution (§IV-D, Fig. 8) is DITRIC on
//!   `cores / t` ranks with `t` pool workers per rank
//!   ([`config::DistConfig::kernels`]): the chunked local pass, then the
//!   funneled global pass on the rank's own thread.

#![warn(missing_docs)]

pub mod config;
pub mod dist;
pub mod result;
pub mod seq;

pub use config::{Aggregation, Algorithm, DistConfig};
pub use dist::{count, run_on};
pub use result::{ApproxResult, CountResult, DistError, LccResult};

//! # cetric — distributed-memory triangle counting, reproduced in Rust
//!
//! A from-scratch reproduction of Sanders & Uhl, *Engineering a
//! Distributed-Memory Triangle Counting Algorithm* (IPDPS 2023): the DITRIC
//! and CETRIC algorithms with dynamic message aggregation, grid-indirect
//! communication and cut-graph contraction, running on a simulated
//! distributed-memory machine with an explicit α-β cost model, together with
//! all the substrates the paper depends on (graph partitioning with ghosts,
//! synthetic graph generators, Bloom-filter AMQs, a work-stealing pool) and
//! the baselines it compares against.
//!
//! This crate re-exports the whole public API:
//!
//! * [`graph`] — CSR graphs, degree orientation, 1D partitioning, ghosts,
//!   cut-graph contraction.
//! * [`comm`] — the simulated machine: runtime, buffered message queue,
//!   sparse all-to-all, grid routing, cost model, statistics.
//! * [`gen`] — deterministic GNM / RGG2D / RHG / R-MAT / road generators and
//!   the Table-I proxy datasets.
//! * [`amq`] — Bloom filters for the approximate extension.
//! * [`par`] — the work-stealing pool for hybrid mode.
//! * [`core`] — the algorithms: sequential COMPACT-FORWARD, DITRIC(²),
//!   CETRIC(²), TriC-like and HavoqGT-like baselines, distributed LCC, and
//!   AMQ-approximate counting.
//! * [`engine`] — the resident query engine: load a graph once, then serve
//!   batched triangle / LCC / edge-support / approximate queries against the
//!   prepared per-rank state with an epoch-keyed result cache.
//! * [`delta`] — dynamic graph updates: batched edge insertions/deletions
//!   with per-PE adjacency overlays; `Engine::apply_updates` maintains the
//!   resident triangle count incrementally through the distributed delta
//!   protocol in [`core`]'s `dist::delta`.
//! * [`obs`] — observability: deterministic Chrome-trace export of recorded
//!   runs, log-bucketed latency histograms, Prometheus text exposition, and
//!   terminal phase reports (`tricount profile`, `serve --metrics-out`).
//!
//! ## Example
//!
//! ```
//! use cetric::prelude::*;
//!
//! let g = cetric::gen::rgg2d_default(1_000, 42);
//! let seq = cetric::core::seq::compact_forward(&g);
//! let dist = cetric::core::count(&g, 8, Algorithm::Cetric2, &Algorithm::Cetric2.config()).unwrap();
//! assert_eq!(seq.triangles, dist.triangles);
//! let model = CostModel::supermuc();
//! println!("modeled time on 8 PEs: {:.3} ms", dist.modeled_time(&model) * 1e3);
//! ```

#![warn(missing_docs)]

pub mod cli;

pub use tricount_amq as amq;
pub use tricount_comm as comm;
pub use tricount_core as core;
pub use tricount_delta as delta;
pub use tricount_engine as engine;
pub use tricount_gen as gen;
pub use tricount_graph as graph;
pub use tricount_obs as obs;
pub use tricount_par as par;

/// The most commonly used items in one import.
pub mod prelude {
    pub use tricount_comm::{CostModel, Routing, RunStats};
    pub use tricount_core::{count, Aggregation, Algorithm, CountResult, DistConfig, DistError};
    pub use tricount_delta::{parse_batches, EdgeUpdate, UpdateBatch};
    pub use tricount_engine::{
        Engine, EngineConfig, EngineError, Query, QueryAnswer, UpdateReceipt,
    };
    pub use tricount_gen::{Dataset, Family};
    pub use tricount_graph::{Csr, DistGraph, EdgeList, OrderingKind, Partition, VertexId};
}

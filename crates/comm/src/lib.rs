//! A simulated distributed-memory machine for reproducing the communication
//! behaviour of Sanders & Uhl's distributed triangle counting algorithms
//! (IPDPS 2023) on a single host.
//!
//! The paper's machine model (§II-B) is `p` PEs with full-duplex,
//! single-ported communication where a message of `ℓ` words costs `α + βℓ`.
//! This crate executes *real* message-passing programs — one thread per PE,
//! real payloads over the per-pair queues of the `tricount-net` threads
//! mesh, results checked against ground truth — while metering every
//! message, word, and unit of local work, and pricing the trace with
//! exactly that model ([`CostModel`]).
//!
//! Components:
//! * [`runtime::run_sim`] — spawn `p` PEs, run a rank program, collect
//!   [`RunStats`]; [`SimOptions`] picks trace recording, schedule
//!   perturbation and wall profiling.
//! * [`Ctx`] — the communicator: point-to-point sends, polling receives,
//!   barrier / all-reduce / all-gather / dense all-to-all collectives, work
//!   metering, phase boundaries.
//! * [`MessageQueue`] — the paper's dynamically buffered message queue with
//!   flush threshold δ (§IV-A), asynchronous sparse all-to-all with
//!   termination, and grid-based indirect delivery (§IV-B).
//! * [`Grid`] — the 2D proxy arrangement, including the ragged-last-row
//!   transposition.
//! * [`CostModel`] / [`RunStats`] — turning counter traces into the modeled
//!   times, message maxima, and bottleneck volumes the paper plots.
//!   [`RunStats::modeled_time`] is the run's one modeled clock: the sum over
//!   phases of the slowest PE's α+β+t_op cost.

//! * [`trace::Trace`] — optional per-PE event recording (`trace` feature)
//!   plus [`runtime::run_guarded`]'s deadlock diagnosis: the raw material
//!   for the `tricount-verify` conformance linter.

#![warn(missing_docs)]

pub mod cost;
pub mod grid;
pub mod queue;
pub mod runtime;
pub mod stats;
pub mod trace;

pub use cost::{ceil_log2, CostModel};
pub use grid::Grid;
#[cfg(feature = "fault-injection")]
pub use queue::Fault;
pub use queue::{Envelope, MessageQueue, QueueConfig, Routing, HEADER_WORDS, INBOX_FACTOR};
pub use runtime::{
    run_guarded, run_sim, Ctx, DeadlockReport, DeliveryPick, PeSnapshot, RunOutput, SimOptions,
    SimOutput, TransportKind,
};
pub use stats::{Counters, PhaseStats, RunStats};
pub use trace::{hash_words, CollKind, SpanKind, SpanRecord, SpanStamp, Trace, TraceEvent};
pub use tricount_net::{
    ContentionMeters, ContentionSummary, PeWallLog, WallEvent, WallEventKind, WallProfile,
};

//! Bounded schedule-space model checking for the tricount workspace.
//!
//! Two explorers, one discipline:
//!
//! * [`explore_pool`] serialises the work-stealing pool of `tricount-par`
//!   under a [`Controller`] — one worker runs at a time, every scheduling
//!   decision (who runs after a deque lock, a yield, a finish) becomes a
//!   DFS branch — and walks the schedule tree with iterative preemption
//!   bounding, asserting bit-identical task results and no deadlock on
//!   every interleaving.
//! * [`explore_delivery`] drives the `tricount-comm` runtime — on the
//!   threads mesh every run uses — through message delivery orders via the
//!   [`DeliveryPick`] hook, re-running a rank program under every reachable
//!   per-rank delivery script and asserting the same invariants (the comm
//!   watchdog supplies deadlock diagnosis).
//!
//! Both are exhaustive for the small fixtures they are meant for (pool
//! width 2–3, p ∈ {1, 4}); the bounds in [`ExploreConfig`] keep larger
//! spaces tractable. No dependencies, no unsafe: the controller serialises
//! real OS threads with a single mutex + condvar handoff.
//!
//! [`DeliveryPick`]: tricount_comm::DeliveryPick

pub mod controller;
pub mod explore;

pub use controller::{next_script, AbortReason, Controller, McAbort};
#[cfg(feature = "mc-regressions")]
pub use explore::explore_pool_buggy;
pub use explore::{explore_delivery, explore_pool, DeliveryReport, ExploreConfig, PoolReport};

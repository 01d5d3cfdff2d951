//! DITRIC (paper §IV-A/§IV-B): the distributed EDGEITERATOR of Algorithm 2
//! with dynamically buffered message aggregation, surrogate deduplication,
//! and optional grid-indirect delivery. Also covers the unaggregated
//! baseline of Fig. 2 (`Aggregation::None`, `dedup = false`).
//!
//! Phase structure (matching the break-down of Fig. 7):
//! 1. `preprocessing` — ghost degree exchange + orientation.
//! 2. `local` — intersections for directed edges whose head is local.
//! 3. `global` — neighborhoods streamed to the owners of cut-edge heads via
//!    the sparse all-to-all; receivers intersect; final all-reduce.
//!
//! The rank body is the shared `dist::count_local` over the plain
//! orientation followed by the shared `dist::count_global` over every owned
//! `A(v)`. Intersections go through the adaptive kernel dispatcher.

use tricount_comm::Ctx;
use tricount_graph::dist::LocalGraph;

use crate::config::DistConfig;
use crate::dist::dispatch::DispatchReport;
use crate::dist::phases;
use crate::dist::{count_global, count_local, preprocess};

/// Runs DITRIC on this rank; returns the *global* triangle count (identical
/// on every rank after the final reduction) and this rank's per-phase
/// kernel-dispatch tallies.
pub fn run_rank(ctx: &mut Ctx, mut lg: LocalGraph, cfg: &DistConfig) -> (u64, DispatchReport) {
    preprocess(ctx, &mut lg, cfg);
    let o = lg.orient(cfg.ordering, false);
    ctx.end_phase(phases::PREPROCESSING);

    // Local pass: directed edges (v, u) with u local are intersected
    // in place (lines 2–4 of Algorithm 2).
    let (local_count, local_dispatch) = count_local(ctx, &o, cfg.kernels);
    ctx.end_phase(phases::LOCAL);

    // Global pass: stream A(v) to owners of remote heads (line 5), process
    // incoming neighborhoods (lines 6–7).
    let sources = o.ids().owned().map(|l| (l, o.a(l)));
    let (remote_count, global_dispatch) = count_global(ctx, cfg, &lg, o.ids(), sources, |u| o.a(u));
    let total = ctx.allreduce_sum(&[local_count + remote_count])[0];
    ctx.end_phase(phases::GLOBAL);

    let mut report = DispatchReport::of(phases::LOCAL, local_dispatch);
    report.add(phases::GLOBAL, global_dispatch);
    (total, report)
}

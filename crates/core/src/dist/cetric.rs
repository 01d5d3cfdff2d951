//! CETRIC (paper §IV-C, Algorithm 3): the communication-efficient,
//! contraction-based two-phase variant of DITRIC.
//!
//! * **Local phase** — runs on the *expanded local graph* (owned vertices
//!   plus ghosts, ghost neighborhoods rewired from incoming cut edges) and
//!   finds every type-1 and type-2 triangle without any communication.
//! * **Contraction** — drops all non-cut oriented edges; by Lemma 1 the
//!   remaining cut graph `∂G` contains exactly the type-3 triangles.
//! * **Global phase** — DITRIC's sparse all-to-all over the *contracted*
//!   neighborhoods, making the communication volume proportional to the cut
//!   instead of the full input.
//!
//! The setup (ghost exchange + orientation + contraction) is factored into
//! [`crate::dist::residency::prepare_rank`] so the one-shot path here and
//! the resident query engine share it; [`count_prepared`] is the pure
//! counting part, reusable against long-lived [`PreparedRank`] state.
//!
//! The two phases are DITRIC's: the shared `dist::count_local` over the
//! expanded graph and the shared `dist::count_global` over the contracted
//! one, each through the adaptive kernel dispatcher. The local phase is
//! chunked on the `par` pool when `cfg.kernels.pool_workers > 1` and reduced
//! in canonical chunk order, so counts and `ops` totals are bit-identical
//! either way.

use tricount_comm::Ctx;
use tricount_graph::dist::LocalGraph;

use crate::config::DistConfig;
use crate::dist::dispatch::DispatchReport;
use crate::dist::phases;
use crate::dist::residency::{prepare_rank, PreparedRank};
use crate::dist::{count_global, count_local};

/// Runs CETRIC on this rank; returns the global triangle count and this
/// rank's per-phase kernel-dispatch tallies.
pub fn run_rank(ctx: &mut Ctx, lg: LocalGraph, cfg: &DistConfig) -> (u64, DispatchReport) {
    let prep = prepare_rank(ctx, lg, cfg);
    count_prepared(ctx, &prep, cfg)
}

/// CETRIC's counting phases on already prepared per-rank state (local phase
/// on the expanded graph, global phase on the contracted cut graph, final
/// all-reduce). No setup communication happens here — the resident engine
/// calls this directly against state kept alive across queries. Returns the
/// global count and this rank's per-phase kernel-dispatch tallies.
pub fn count_prepared(
    ctx: &mut Ctx,
    prep: &PreparedRank,
    cfg: &DistConfig,
) -> (u64, DispatchReport) {
    // Local phase (Algorithm 3 lines 5–7): every `v ∈ V_i ∪ ∂V_i`.
    let (local_count, local_dispatch) = count_local(ctx, &prep.oriented, cfg.kernels);
    ctx.end_phase(phases::LOCAL);

    // Global phase (lines 9–16) on the contracted graph.
    let c = &prep.contracted;
    let (remote_count, global_dispatch) = count_global(
        ctx,
        cfg,
        &prep.local,
        prep.oriented.ids(),
        c.nonempty(),
        |u| c.a(u),
    );
    let total = ctx.allreduce_sum(&[local_count + remote_count])[0];
    ctx.end_phase(phases::GLOBAL);

    let mut report = DispatchReport::of(phases::LOCAL, local_dispatch);
    report.add(phases::GLOBAL, global_dispatch);
    (total, report)
}

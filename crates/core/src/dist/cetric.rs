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
//! Intersections go through the adaptive kernel [`Dispatcher`] configured
//! by `cfg.kernels`, and the local phase is the shared `dist::count_local`
//! — chunked on the `par` pool when `cfg.kernels.pool_workers > 1` and
//! reduced in canonical chunk order, so counts and `ops` totals are
//! bit-identical either way.

use tricount_comm::{Ctx, Envelope, MessageQueue, QueueConfig};
use tricount_graph::dist::{ContractedGraph, LocalGraph};
use tricount_graph::kernels::Dispatcher;

use crate::config::DistConfig;
use crate::dist::count_local;
use crate::dist::dispatch::DispatchReport;
use crate::dist::phases;
use crate::dist::residency::{prepare_rank, PreparedRank};

/// Runs CETRIC on this rank; returns the global triangle count and this
/// rank's per-phase kernel-dispatch tallies.
pub fn run_rank(ctx: &mut Ctx, lg: LocalGraph, cfg: &DistConfig) -> (u64, DispatchReport) {
    let prep = prepare_rank(ctx, lg, cfg);
    count_prepared(ctx, &prep, cfg)
}

/// Receive side of the global phase: `[v, A(v)...]` carries a contracted
/// list, intersected with the contracted neighborhoods of local heads
/// (Algorithm 3 lines 15–16).
fn global_handler(
    c: &ContractedGraph,
    owned: &std::ops::Range<u64>,
    ctx: &mut Ctx,
    env: Envelope<'_>,
    acc: &mut u64,
    d: &mut Dispatcher<'_>,
) {
    let a = &env.payload[1..];
    for &u in a {
        if owned.contains(&u) {
            let (cnt, ops) = d.count(a, None, c.a_of(u), Some(u));
            *acc += cnt;
            ctx.add_work(ops + 1);
        }
    }
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
    let (local_count, local_dispatch) =
        count_local(ctx, &prep.oriented, cfg.kernels, Some(&prep.hubs_oriented));
    let contracted = &prep.contracted;
    ctx.end_phase(phases::LOCAL);

    // Global phase (lines 9–16) on the contracted graph.
    let delta = cfg.resolve_delta(prep.local.num_local_entries());
    let mut q = MessageQueue::new(
        ctx,
        QueueConfig {
            delta,
            routing: cfg.routing,
        },
    );
    let part = prep.oriented.partition().clone();
    let owned = prep.oriented.owned_range();
    let mut remote_count = 0u64;
    let mut gd = Dispatcher::with_hubs(cfg.kernels, &prep.hubs_contracted);

    let mut scratch: Vec<u64> = Vec::new();
    for (v, a) in contracted.nonempty() {
        // Surrogate deduplication is not optional here: the receive handler
        // scans the whole payload for local heads, so a duplicate copy per
        // head would double count. (`cfg.dedup` only toggles the DITRIC
        // formats.)
        let mut last_rank: Option<usize> = None;
        for &u in a {
            let j = part.rank_of(u);
            if last_rank == Some(j) {
                continue;
            }
            last_rank = Some(j);
            scratch.clear();
            scratch.push(v);
            scratch.extend_from_slice(a);
            q.post(ctx, j, &scratch);
            while q.poll(ctx, &mut |ctx, env| {
                global_handler(contracted, &owned, ctx, env, &mut remote_count, &mut gd)
            }) {}
        }
    }
    q.finish(ctx, &mut |ctx, env| {
        global_handler(contracted, &owned, ctx, env, &mut remote_count, &mut gd)
    });

    let total = ctx.allreduce_sum(&[local_count + remote_count])[0];
    ctx.end_phase(phases::GLOBAL);

    let mut report = DispatchReport::of(phases::LOCAL, local_dispatch);
    report.add(phases::GLOBAL, gd.counters());
    (total, report)
}

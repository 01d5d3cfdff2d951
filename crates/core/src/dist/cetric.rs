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
//! by `cfg.kernels`, and the local phase optionally runs degree-aware
//! chunked on the `par` pool — the sequential and chunked paths share one
//! per-item function and reduce partial sums in canonical chunk order, so
//! counts and `ops` totals are bit-identical either way.

use tricount_comm::{Ctx, Envelope, MessageQueue, QueueConfig};
use tricount_graph::dist::{ContractedGraph, LocalGraph, OrientedLocalGraph};
use tricount_graph::kernels::{balanced_chunks, Dispatcher, KernelCounters};
use tricount_graph::VertexId;
use tricount_par::Pool;

use crate::config::DistConfig;
use crate::dist::dispatch::DispatchReport;
use crate::dist::phases;
use crate::dist::residency::{prepare_rank, PreparedRank};

/// Runs CETRIC on this rank; returns the global triangle count.
pub fn run_rank(ctx: &mut Ctx, lg: LocalGraph, cfg: &DistConfig) -> u64 {
    let prep = prepare_rank(ctx, lg, cfg);
    count_prepared(ctx, &prep, cfg)
}

/// [`run_rank`] plus this rank's per-phase kernel-dispatch tallies.
pub fn run_rank_stats(ctx: &mut Ctx, lg: LocalGraph, cfg: &DistConfig) -> (u64, DispatchReport) {
    let prep = prepare_rank(ctx, lg, cfg);
    count_prepared_stats(ctx, &prep, cfg)
}

/// The local phase's canonical work list: owned vertices in id order, then
/// ghosts in ghost-index order. Item `i` resolves to `(v, A(v))`.
#[inline]
fn local_item(o: &OrientedLocalGraph, idx: usize) -> (VertexId, &[VertexId]) {
    let start = o.owned_range().start;
    let owned_len = (o.owned_range().end - start) as usize;
    if idx < owned_len {
        let v = start + idx as u64;
        (v, o.a_owned(v))
    } else {
        let gi = idx - owned_len;
        (o.ghost_ids()[gi], o.a_ghost(gi))
    }
}

/// Counts one item's triangles (Algorithm 3 lines 5–7 for a single `v`):
/// intersects `A(v)` with `A(u)` for every `u ∈ A(v)`. Returns the triangle
/// count and the metered work (`ops + 1` per directed edge, as the
/// sequential loop has always charged). Shared by the sequential and
/// chunked drivers — bit-identity between them is by construction.
#[inline]
fn count_local_item(
    o: &OrientedLocalGraph,
    v: VertexId,
    av: &[VertexId],
    d: &mut Dispatcher<'_>,
) -> (u64, u64) {
    let mut count = 0u64;
    let mut work = 0u64;
    for &u in av {
        let au = o.a_of(u).expect("head must be owned or ghost");
        let (c, ops) = d.count(av, Some(v), au, Some(u));
        count += c;
        work += ops + 1;
    }
    (count, work)
}

/// The local phase: every `v ∈ V_i ∪ ∂V_i`, every `u ∈ A(v)`, both
/// neighborhoods locally available by construction. Runs sequentially or
/// chunked on the pool per `cfg.kernels`; returns `(count, dispatch)`.
fn local_phase(ctx: &mut Ctx, prep: &PreparedRank, cfg: &DistConfig) -> (u64, KernelCounters) {
    let o = &prep.oriented;
    let policy = cfg.kernels;
    let owned_len = (o.owned_range().end - o.owned_range().start) as usize;
    let n = owned_len + o.ghost_ids().len();

    if policy.chunking && policy.pool_workers > 1 && n > 0 {
        // Degree-aware chunking: weight each item by its oriented degree
        // (the prefix-sum proxy for its intersection work), so chunks carry
        // balanced work, not balanced item counts.
        let weights: Vec<u64> = (0..n).map(|i| local_item(o, i).1.len() as u64).collect();
        let ranges = balanced_chunks(&weights, policy.pool_workers.saturating_mul(4));
        let pool = Pool::new(policy.pool_workers);
        let results = pool.run_tasks(ranges, |_, (s, e)| {
            let mut d = Dispatcher::with_hubs(policy, &prep.hubs_oriented);
            let mut count = 0u64;
            let mut work = 0u64;
            for i in s..e {
                let (v, av) = local_item(o, i);
                let (c, w) = count_local_item(o, v, av, &mut d);
                count += c;
                work += w;
            }
            (count, work, d.counters())
        });
        // `run_tasks` returns results sorted by task index — the canonical
        // chunk order — so this reduction is schedule-independent.
        let mut count = 0u64;
        let mut work = 0u64;
        let mut counters = KernelCounters::default();
        for r in results {
            count += r.result.0;
            work += r.result.1;
            counters.absorb(&r.result.2);
        }
        ctx.add_work(work);
        (count, counters)
    } else {
        let mut d = Dispatcher::with_hubs(policy, &prep.hubs_oriented);
        let mut count = 0u64;
        for i in 0..n {
            let (v, av) = local_item(o, i);
            let (c, w) = count_local_item(o, v, av, &mut d);
            count += c;
            ctx.add_work(w);
        }
        (count, d.counters())
    }
}

/// CETRIC's counting phases on already prepared per-rank state (local phase
/// on the expanded graph, global phase on the contracted cut graph, final
/// all-reduce). No setup communication happens here — the resident engine
/// calls this directly against state kept alive across queries.
pub fn count_prepared(ctx: &mut Ctx, prep: &PreparedRank, cfg: &DistConfig) -> u64 {
    count_prepared_stats(ctx, prep, cfg).0
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

/// [`count_prepared`] plus this rank's per-phase kernel-dispatch tallies.
pub fn count_prepared_stats(
    ctx: &mut Ctx,
    prep: &PreparedRank,
    cfg: &DistConfig,
) -> (u64, DispatchReport) {
    // Local phase (Algorithm 3 lines 5–7).
    let (local_count, local_dispatch) = local_phase(ctx, prep, cfg);
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

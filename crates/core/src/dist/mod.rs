//! The distributed algorithms: drivers, preprocessing, and the per-variant
//! rank programs.

pub mod approx;
pub mod baselines;
pub mod cetric;
pub mod delta;
pub mod dispatch;
pub mod ditric;
pub mod enumerate;
pub mod hybrid;
pub mod lcc;
pub mod matrix2d;
pub mod phases;
pub mod rebalance;
pub mod residency;
pub mod support;

#[cfg(test)]
mod tests;

use std::sync::Mutex;

use tricount_comm::{
    run_sim, Ctx, MessageQueue, QueueConfig, SimOptions, SimOutput, Trace, TransportKind,
    WallProfile,
};
use tricount_graph::dist::{DistGraph, LocalGraph, OrientedLocalGraph};
use tricount_graph::kernels::{
    balanced_chunks, Dispatcher, HubIndex, KernelCounters, KernelPolicy,
};
use tricount_graph::{Csr, OrderingKind, VertexId};
use tricount_par::Pool;

use crate::config::{Algorithm, DegreeExchange, DistConfig};
use crate::result::{CountResult, DistError};
use dispatch::DispatchReport;

/// The ghost degree exchange of Algorithm 3 line 1 (`exchange_ghost_degree`):
/// a dense all-to-all of ghost-id requests followed by a dense all-to-all of
/// degree responses, as in the paper's implementation notes (§IV-D, which
/// found a dense exchange more robust than a sparse one under skew).
pub fn exchange_ghost_degrees(ctx: &mut Ctx, lg: &mut LocalGraph) {
    if lg.ghosts().degrees_known() {
        return;
    }
    ctx.with_span("ghost_degree_exchange_dense", |ctx| {
        let p = ctx.num_ranks();
        let mut requests: Vec<Vec<u64>> = vec![Vec::new(); p];
        for (rank, ids) in lg.ghost_ids_by_owner() {
            requests[rank] = ids;
        }
        let incoming_requests = ctx.alltoallv(requests);
        let responses: Vec<Vec<u64>> = incoming_requests
            .into_iter()
            .map(|ids| ids.into_iter().map(|v| lg.degree(v)).collect())
            .collect();
        let incoming_degrees = ctx.alltoallv(responses);
        // ghost ids are sorted and ranks own contiguous id ranges, so
        // concatenating the responses in rank order restores ghost-id order
        let mut degrees = Vec::with_capacity(lg.ghosts().len());
        for part in incoming_degrees {
            degrees.extend(part);
        }
        lg.set_ghost_degrees(degrees);
    });
}

/// The sparse variant of the ghost degree exchange (§IV-D / Hoefler & Träff):
/// requests and responses travel as direct messages through the buffered
/// queue instead of a dense collective. Wins when each PE has few
/// communication partners; loses under degree skew (the paper's observation
/// and the reason the dense variant is the default).
pub fn exchange_ghost_degrees_sparse(ctx: &mut Ctx, lg: &mut LocalGraph) {
    if lg.ghosts().degrees_known() {
        return;
    }
    ctx.with_span("ghost_degree_exchange_sparse", |ctx| {
        exchange_ghost_degrees_sparse_body(ctx, lg)
    });
}

fn exchange_ghost_degrees_sparse_body(ctx: &mut Ctx, lg: &mut LocalGraph) {
    let me = ctx.rank() as u64;
    let delta = (lg.num_local_entries() as usize / 4).max(64);
    let mut q = MessageQueue::new(ctx, QueueConfig::dynamic(delta));

    // round 1: requests [requester, ids...] to each ghost owner
    let requests = lg.ghost_ids_by_owner();
    let mut incoming_requests: Vec<(u64, Vec<u64>)> = Vec::new();
    for (rank, ids) in &requests {
        let mut payload = Vec::with_capacity(ids.len() + 1);
        payload.push(me);
        payload.extend_from_slice(ids);
        q.post(ctx, *rank, &payload);
    }
    q.finish(ctx, &mut |_ctx, env| {
        incoming_requests.push((env.payload[0], env.payload[1..].to_vec()));
    });

    // round 2: responses [owner, degrees...] back to each requester
    let mut responses: Vec<(usize, Vec<u64>)> = Vec::new();
    for (requester, ids) in incoming_requests {
        let mut payload = Vec::with_capacity(ids.len() + 1);
        payload.push(me);
        payload.extend(ids.iter().map(|&v| lg.degree(v)));
        responses.push((requester as usize, payload));
    }
    let mut by_owner: Vec<(u64, Vec<u64>)> = Vec::new();
    for (requester, payload) in responses {
        q.post(ctx, requester, &payload);
    }
    q.finish(ctx, &mut |_ctx, env| {
        by_owner.push((env.payload[0], env.payload[1..].to_vec()));
    });

    // reassemble in owner-rank order == sorted ghost-id order
    by_owner.sort_by_key(|(owner, _)| *owner);
    let mut degrees = Vec::with_capacity(lg.ghosts().len());
    for (_, degs) in by_owner {
        degrees.extend(degs);
    }
    lg.set_ghost_degrees(degrees);
}

/// Runs preprocessing common to the oriented algorithms: ghost degree
/// exchange when the ordering needs it.
pub fn preprocess(ctx: &mut Ctx, lg: &mut LocalGraph, cfg: &DistConfig) {
    if cfg.ordering == OrderingKind::Degree {
        match cfg.degree_exchange {
            DegreeExchange::Dense => exchange_ghost_degrees(ctx, lg),
            DegreeExchange::Sparse => exchange_ghost_degrees_sparse(ctx, lg),
        }
    }
}

/// The local pass DITRIC, CETRIC and LCC share. Visits every vertex this PE
/// can see in `o` — owned vertices in id order, then (on an expanded graph)
/// ghosts in ghost-index order — handing each `(v, A(v))` to `visit` with a
/// partial accumulator and a kernel dispatcher (over `hubs`, if any);
/// `visit` returns the item's metered work.
///
/// With `policy.pool_workers > 1` the items are cut into degree-balanced
/// chunks run on a fresh `par` pool, each with its own `empty()`
/// accumulator, folded by `absorb` in canonical chunk order and metered in
/// one sum. Otherwise the loop runs inline and meters each item as it goes.
/// Results, dispatch tallies and work totals are bit-identical either way.
pub(crate) fn local_pass<A: Send>(
    ctx: &mut Ctx,
    o: &OrientedLocalGraph,
    policy: KernelPolicy,
    hubs: Option<&HubIndex>,
    empty: impl Fn() -> A + Sync,
    absorb: impl Fn(&mut A, A),
    visit: impl Fn(VertexId, &[VertexId], &mut A, &mut Dispatcher<'_>) -> u64 + Sync,
) -> (A, KernelCounters) {
    let dispatcher = || match hubs {
        Some(h) => Dispatcher::with_hubs(policy, h),
        None => Dispatcher::new(policy),
    };
    let owned = o.owned_range();
    let ghosts = if o.is_expanded() { o.ghost_ids() } else { &[] };
    let owned_len = (owned.end - owned.start) as usize;
    let n = owned_len + ghosts.len();

    if policy.pool_workers <= 1 || n == 0 {
        let (mut acc, mut d) = (empty(), dispatcher());
        for v in owned {
            ctx.add_work(visit(v, o.a_owned(v), &mut acc, &mut d));
        }
        for (gi, &g) in ghosts.iter().enumerate() {
            ctx.add_work(visit(g, o.a_ghost(gi), &mut acc, &mut d));
        }
        return (acc, d.counters());
    }

    let item = |i: usize| {
        if i < owned_len {
            let v = owned.start + i as VertexId;
            (v, o.a_owned(v))
        } else {
            (ghosts[i - owned_len], o.a_ghost(i - owned_len))
        }
    };
    // Weight each item by |A(v)|, the proxy for its intersection work, so
    // chunks carry balanced work rather than balanced item counts.
    let weights: Vec<u64> = (0..n).map(|i| item(i).1.len() as u64).collect();
    let ranges = balanced_chunks(&weights, policy.pool_workers.saturating_mul(4));
    let results = Pool::new(policy.pool_workers).run_tasks(ranges, |_, (s, e)| {
        let (mut acc, mut d, mut work) = (empty(), dispatcher(), 0u64);
        for i in s..e {
            let (v, av) = item(i);
            work += visit(v, av, &mut acc, &mut d);
        }
        (acc, work, d.counters())
    });
    // `run_tasks` returns results in task order — the canonical chunk
    // order — so this fold is schedule-independent.
    let (mut total, mut work, mut counters) = (empty(), 0u64, KernelCounters::default());
    for r in results {
        let (acc, w, c) = r.result;
        absorb(&mut total, acc);
        work += w;
        counters.absorb(&c);
    }
    ctx.add_work(work);
    (total, counters)
}

/// The counting local pass of DITRIC and CETRIC (Algorithm 2 lines 2–4,
/// Algorithm 3 lines 5–7): for every item `v`, intersects `A(v)` with `A(u)`
/// for each head `u ∈ A(v)` this PE can see — the owned heads on DITRIC's
/// plain orientation, every head on CETRIC's expanded graph. Each
/// intersection meters `ops + 1`. Returns the count and the dispatch tallies.
pub(crate) fn count_local(
    ctx: &mut Ctx,
    o: &OrientedLocalGraph,
    policy: KernelPolicy,
    hubs: Option<&HubIndex>,
) -> (u64, KernelCounters) {
    let visit = |v, av: &[VertexId], count: &mut u64, d: &mut Dispatcher<'_>| {
        let mut work = 0u64;
        for &u in av {
            if let Some(au) = o.a_of(u) {
                let (c, ops) = d.count(av, Some(v), au, Some(u));
                *count += c;
                work += ops + 1;
            } else {
                assert!(!o.is_expanded(), "head must be owned or ghost");
            }
        }
        work
    };
    local_pass(ctx, o, policy, hubs, || 0, |t, c| *t += c, visit)
}

/// Runs `alg`'s rank body on this PE — the one `match` from [`Algorithm`]
/// to a rank program. Returns the global count (identical on every rank)
/// and this rank's per-phase kernel-dispatch tallies (empty for the
/// baselines, which intersect without the dispatcher).
pub fn count_rank(
    ctx: &mut Ctx,
    lg: LocalGraph,
    alg: Algorithm,
    cfg: &DistConfig,
) -> Result<(u64, DispatchReport), DistError> {
    let undispatched = |c| (c, DispatchReport::new());
    match alg {
        Algorithm::Unaggregated | Algorithm::Ditric | Algorithm::Ditric2 => {
            Ok(ditric::run_rank(ctx, lg, cfg))
        }
        Algorithm::Cetric | Algorithm::Cetric2 => Ok(cetric::run_rank(ctx, lg, cfg)),
        Algorithm::TricLike => baselines::tric_like_rank(ctx, lg, cfg).map(undispatched),
        Algorithm::HavoqgtLike => Ok(undispatched(baselines::havoqgt_like_rank(ctx, lg, cfg))),
    }
}

/// Folds the per-rank results of [`count_rank`]: the count every rank
/// agrees on and the dispatch tallies absorbed in rank order. The first
/// failing rank's error wins.
pub fn fold_counts(
    results: Vec<Result<(u64, DispatchReport), DistError>>,
) -> Result<(u64, DispatchReport), DistError> {
    let mut triangles = 0u64;
    let mut report = DispatchReport::new();
    for (rank, r) in results.into_iter().enumerate() {
        let (c, d) = r?;
        if rank == 0 {
            triangles = c;
        }
        report.absorb(&d);
    }
    Ok((triangles, report))
}

/// Runs `body` on every PE of `dg` under `opts`, handing each rank its own
/// [`LocalGraph`] — the one place a partitioned graph becomes per-rank
/// state.
pub fn run_ranks<R, F>(dg: DistGraph, opts: &SimOptions, body: F) -> SimOutput<R>
where
    R: Send,
    F: Fn(&mut Ctx, LocalGraph) -> R + Send + Sync,
{
    let p = dg.num_ranks();
    let cells: Vec<Mutex<Option<LocalGraph>>> = dg
        .into_locals()
        .into_iter()
        .map(|l| Mutex::new(Some(l)))
        .collect();
    run_sim(p, opts, |ctx| {
        let lg = cells[ctx.rank()]
            .lock()
            .unwrap()
            .take()
            .expect("local graph already taken");
        body(ctx, lg)
    })
}

/// Runs `alg` on an already partitioned graph and returns the full record:
/// the count with its statistics, the trace (when `opts.record_trace` and
/// `tricount-comm`'s `trace` feature are on), every rank's kernel-dispatch
/// tallies folded in rank order, and the wall profile (when
/// `opts.wall_profile` is on a threads run). A non-default `opts.transport`
/// wins over [`DistConfig::transport`], through which the CLI and the
/// engine plumb `--transport`.
#[allow(clippy::type_complexity)]
pub fn run_on_profiled(
    dg: DistGraph,
    alg: Algorithm,
    cfg: &DistConfig,
    opts: &SimOptions,
) -> Result<
    (
        CountResult,
        Option<Trace>,
        DispatchReport,
        Option<WallProfile>,
    ),
    DistError,
> {
    let mut opts = opts.clone();
    if opts.transport == TransportKind::Sim {
        opts.transport = cfg.transport;
    }
    let sim = run_ranks(dg, &opts, |ctx, lg| count_rank(ctx, lg, alg, cfg));
    let (triangles, report) = fold_counts(sim.output.results)?;
    let result = CountResult {
        triangles,
        stats: sim.output.stats,
    };
    Ok((result, sim.trace, report, sim.wall))
}

/// [`run_on_profiled`] projected onto the count and the trace: the entry
/// point of the CLI drivers and the `tricount-verify` conformance,
/// determinism and transport-equivalence harnesses. Timing, tracing,
/// schedule perturbation and the backend are all [`SimOptions`] fields.
pub fn run_on(
    dg: DistGraph,
    alg: Algorithm,
    cfg: &DistConfig,
    opts: &SimOptions,
) -> Result<(CountResult, Option<Trace>), DistError> {
    run_on_profiled(dg, alg, cfg, opts).map(|(r, trace, _, _)| (r, trace))
}

/// Convenience driver: partitions `g` over `p` PEs (vertex-balanced) and
/// runs `alg` under `cfg` with default options.
pub fn count(
    g: &Csr,
    p: usize,
    alg: Algorithm,
    cfg: &DistConfig,
) -> Result<CountResult, DistError> {
    let dg = DistGraph::new_balanced_vertices(g, p);
    run_on(dg, alg, cfg, &SimOptions::default()).map(|(r, _)| r)
}

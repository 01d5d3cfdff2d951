//! The distributed algorithms: drivers, preprocessing, the per-variant
//! rank programs, and the two passes every exact protocol is built from
//! (`local_pass` and `global_pass`).

pub mod approx;
pub mod baselines;
pub mod cetric;
pub mod delta;
pub mod dispatch;
pub mod ditric;
pub mod enumerate;
pub mod lcc;
pub mod matrix2d;
pub mod phases;
pub mod residency;
pub mod support;

#[cfg(test)]
mod tests;

use std::sync::Mutex;

use tricount_comm::{
    run_sim, Ctx, Envelope, MessageQueue, QueueConfig, SimOptions, SimOutput, Trace, WallProfile,
};
use tricount_graph::dist::{DenseIds, DistGraph, LocalGraph, LocalId, OrientedLocalGraph};
use tricount_graph::kernels::{
    balanced_chunks, Dense, KernelCounters, KernelPolicy, Marker, Source,
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

/// The local pass every exact protocol runs (DITRIC, CETRIC, LCC and
/// enumeration). Visits every source of `o` ([`OrientedLocalGraph::sources`]:
/// the owned vertices, and on an expanded graph the ghosts too) in dense-id
/// order, handing each `(l, A(l))` to `visit` with a partial accumulator and
/// a [`Marker`] over `o`'s dense ids; `visit` returns the item's metered
/// work.
///
/// With `policy.pool_workers > 1` the items are cut into degree-balanced
/// chunks run on a fresh `par` pool, each with its own `empty()`
/// accumulator, folded by `absorb` in canonical chunk order and metered in
/// one sum; each running chunk borrows one of `pool_workers` markers.
/// Otherwise the loop runs inline with one marker and meters each item as
/// it goes. Results, dispatch tallies and work totals are bit-identical
/// either way. This chunked loop is the paper's hybrid mode (§IV-D,
/// Fig. 8): `cores / t` ranks with `pool_workers = t`, the global pass
/// staying on the rank's own thread (MPI's funneled model).
pub(crate) fn local_pass<A: Send>(
    ctx: &mut Ctx,
    o: &OrientedLocalGraph,
    policy: KernelPolicy,
    empty: impl Fn() -> A + Sync,
    absorb: impl Fn(&mut A, A),
    visit: impl Fn(LocalId, &[LocalId], &mut A, &mut Marker) -> u64 + Sync,
) -> (A, KernelCounters) {
    let sources = o.sources();
    let len = o.ids().len();

    if policy.pool_workers <= 1 || sources.is_empty() {
        let (mut acc, mut m) = (empty(), Marker::new(len));
        for l in sources {
            ctx.add_work(visit(l, o.a(l), &mut acc, &mut m));
        }
        return (acc, m.counters());
    }

    // Weight each item by |A(v)|, the proxy for its intersection work, so
    // chunks carry balanced work rather than balanced item counts.
    let weights: Vec<u64> = sources.clone().map(|l| o.a(l).len() as u64).collect();
    let ranges = balanced_chunks(&weights, policy.pool_workers.saturating_mul(4));
    // At most `pool_workers` chunks run at once, so a free marker is there
    // for every chunk that starts.
    let markers: Vec<Mutex<Marker>> = (0..policy.pool_workers)
        .map(|_| Mutex::new(Marker::new(len)))
        .collect();
    let results = Pool::new(policy.pool_workers).run_tasks(ranges, |_, (s, e)| {
        let mut m = markers
            .iter()
            .find_map(|m| m.try_lock().ok())
            .expect("a free marker per pool worker");
        let (mut acc, mut work) = (empty(), 0u64);
        for l in sources.start + s as LocalId..sources.start + e as LocalId {
            work += visit(l, o.a(l), &mut acc, &mut m);
        }
        (acc, work)
    });
    // `run_tasks` returns results in task order — the canonical chunk
    // order — so this fold is schedule-independent.
    let (mut total, mut work, mut counters) = (empty(), 0u64, KernelCounters::default());
    for r in results {
        let (acc, w) = r.result;
        absorb(&mut total, acc);
        work += w;
    }
    for m in markers {
        counters.absorb(&m.into_inner().expect("marker lock poisoned").counters());
    }
    ctx.add_work(work);
    (total, counters)
}

/// The counting local pass of DITRIC, CETRIC and the AMQ-approximate count
/// (Algorithm 2 lines 2–4, Algorithm 3 lines 5–7): for every source `v`,
/// intersects `A(v)` with `A(u)` for each head `u ∈ A(v)` this PE can see —
/// the owned heads on DITRIC's plain orientation, every head on CETRIC's
/// expanded graph — marking `A(v)` once for all of them. Each intersection
/// meters `ops + 1`. Returns the count and the dispatch tallies.
pub fn count_local(
    ctx: &mut Ctx,
    o: &OrientedLocalGraph,
    policy: KernelPolicy,
) -> (u64, KernelCounters) {
    let (ids, every_head) = (o.ids(), o.is_expanded());
    let visit = |_, av: &[LocalId], count: &mut u64, m: &mut Marker| {
        let mut src = m.source(Dense, av);
        let mut work = 0u64;
        for &u in av {
            if every_head || ids.is_owned(u) {
                let (c, ops) = src.count(o.a(u));
                *count += c;
                work += ops + 1;
            }
        }
        work
    };
    local_pass(ctx, o, policy, || 0, |t, c| *t += c, visit)
}

/// The global pass every exact protocol runs (DITRIC, CETRIC, LCC and
/// enumeration; Algorithm 2 lines 5–7, Algorithm 3 lines 9–16). Each
/// source `(l, A(l))`, in `ids`' dense ids, is streamed through the
/// buffered sparse all-to-all to the owners of its heads, skipping the
/// heads this PE owns; records travel in global ids, translated as they
/// are built. The receiver makes the record's `A(v)` a [`Marker`] source,
/// which translates it to dense ids (one ghost-directory lookup per id,
/// [`DenseIds::local_of`]) only on its first merge pick, and calls
/// `visit(v, u, source, A(u))` for each head it owns — `v` as its global
/// id, the head `u` as its dense id — with `A(u)` from `head`. `visit`
/// returns the intersection's kernel ops and each visit meters `ops + 1`.
///
/// With `cfg.dedup` (the surrogate deduplication of Arifuzzaman et al.)
/// `A(v)` travels at most once per destination PE as `[v, A(v)…]` and the
/// receiver visits every owned head in it; without, one `[v, u, A(v)…]`
/// record per head names the only head to visit. The queue's δ is
/// `cfg.resolve_delta(|E_i|)` and its routing `cfg.routing`; the sender
/// polls after every post (the paper: "each PE continuously polls for
/// incoming messages"). Returns the receive side's dispatch tallies.
pub(crate) fn global_pass<'g>(
    ctx: &mut Ctx,
    cfg: &DistConfig,
    lg: &LocalGraph,
    ids: &DenseIds,
    sources: impl IntoIterator<Item = (LocalId, &'g [LocalId])>,
    head: impl Fn(LocalId) -> &'g [LocalId],
    mut visit: impl FnMut(VertexId, LocalId, &mut Source<'_, &DenseIds>, &[LocalId]) -> u64,
) -> KernelCounters {
    let owned = lg.owned_range();
    let part = lg.partition();
    let dedup = cfg.dedup;
    let mut m = Marker::new(ids.len());
    let mut q = MessageQueue::new(
        ctx,
        QueueConfig {
            delta: cfg.resolve_delta(lg.num_local_entries()),
            routing: cfg.routing,
        },
    );
    let mut receive = |ctx: &mut Ctx, env: Envelope<'_>| {
        let (v, rest) = (env.payload[0], &env.payload[1..]);
        let (heads, av) = if dedup {
            (rest, rest)
        } else {
            rest.split_at(1)
        };
        let mut src = m.source(ids, av);
        for &u in heads.iter().filter(|u| owned.contains(u)) {
            let u = ids.local_of(u).expect("owned vertices are numbered");
            ctx.add_work(visit(v, u, &mut src, head(u)) + 1);
        }
    };
    let (mut record, mut global): (Vec<VertexId>, Vec<VertexId>) = (Vec::new(), Vec::new());
    for (l, av) in sources {
        let v = ids.global_of(l);
        let mut last_rank: Option<usize> = None;
        global.clear();
        for &u in av {
            if ids.is_owned(u) {
                continue;
            }
            let u = ids.global_of(u);
            let j = part.rank_of(u);
            if dedup && last_rank == Some(j) {
                continue;
            }
            last_rank = Some(j);
            if global.is_empty() {
                global.extend(av.iter().map(|&x| ids.global_of(x)));
            }
            record.clear();
            record.push(v);
            if !dedup {
                record.push(u);
            }
            record.extend_from_slice(&global);
            q.post(ctx, j, &record);
            while q.poll(ctx, &mut receive) {}
        }
    }
    q.finish(ctx, &mut receive);
    m.counters()
}

/// The counting global pass of DITRIC and CETRIC: [`global_pass`]
/// summing `|A(v) ∩ A(u)|` over every visit. Returns this PE's remote count
/// and the dispatch tallies.
pub(crate) fn count_global<'g>(
    ctx: &mut Ctx,
    cfg: &DistConfig,
    lg: &LocalGraph,
    ids: &DenseIds,
    sources: impl IntoIterator<Item = (LocalId, &'g [LocalId])>,
    head: impl Fn(LocalId) -> &'g [LocalId],
) -> (u64, KernelCounters) {
    let mut count = 0u64;
    let counters = global_pass(ctx, cfg, lg, ids, sources, head, |_, _, src, au| {
        let (c, ops) = src.count(au);
        count += c;
        ops
    });
    (count, counters)
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
/// `opts.wall_profile` is on).
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
    let sim = run_ranks(dg, opts, |ctx, lg| count_rank(ctx, lg, alg, cfg));
    let (triangles, report) = fold_counts(sim.output.results)?;
    let result = CountResult {
        triangles,
        stats: sim.output.stats,
    };
    Ok((result, sim.trace, report, sim.wall))
}

/// [`run_on_profiled`] projected onto the count and the trace: the entry
/// point of the CLI drivers and the `tricount-verify` conformance,
/// determinism and transport harnesses. Tracing, schedule perturbation and
/// the wall profile are all [`SimOptions`] fields.
pub fn run_on(
    dg: DistGraph,
    alg: Algorithm,
    cfg: &DistConfig,
    opts: &SimOptions,
) -> Result<(CountResult, Option<Trace>), DistError> {
    run_on_profiled(dg, alg, cfg, opts).map(|(r, trace, _, _)| (r, trace))
}

/// Convenience driver: partitions `g` over `p` PEs (`DistGraph::new`) and
/// runs `alg` under `cfg` with default options.
pub fn count(
    g: &Csr,
    p: usize,
    alg: Algorithm,
    cfg: &DistConfig,
) -> Result<CountResult, DistError> {
    let dg = DistGraph::new(g, p);
    run_on(dg, alg, cfg, &SimOptions::default()).map(|(r, _)| r)
}

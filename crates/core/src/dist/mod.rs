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

use std::sync::{Arc, Mutex};

use tricount_comm::{
    run_guarded, run_sim, Ctx, MessageQueue, QueueConfig, SimOptions, Trace, TransportKind,
};
use tricount_graph::dist::{DistGraph, LocalGraph};
use tricount_graph::OrderingKind;

use crate::config::{Algorithm, DegreeExchange, DistConfig};
use crate::result::{CountResult, DistError};

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

/// Wraps per-rank local graphs so rank threads can each take ownership of
/// theirs from a shared closure.
pub(crate) fn into_cells(dg: DistGraph) -> Vec<Mutex<Option<LocalGraph>>> {
    dg.into_locals()
        .into_iter()
        .map(|l| Mutex::new(Some(l)))
        .collect()
}

/// Resolves the options a run actually executes under: an explicitly
/// non-default `opts.transport` wins; otherwise [`DistConfig::transport`]
/// selects the backend. (Requesting the default `Sim` through `opts` and
/// `Threads` through the config is a config-driven threads run — the CLI
/// and engine plumb `--transport` through the config.)
fn resolve_opts(cfg: &DistConfig, opts: &SimOptions) -> SimOptions {
    let mut opts = opts.clone();
    if opts.transport == TransportKind::Sim {
        opts.transport = cfg.transport;
    }
    opts
}

/// Runs `alg` on an already partitioned graph under explicit
/// [`SimOptions`] (transport backend, timing, trace recording, schedule
/// perturbation) and returns the global triangle count with full
/// statistics, alongside the recorded trace if one was requested (requires
/// `tricount-comm`'s `trace` feature to be non-`None`). This is the entry
/// point of the CLI drivers and the `tricount-verify` conformance,
/// determinism and transport-equivalence harnesses.
///
/// (Previously `run_on_sim`; renamed when the runtime grew a real parallel
/// backend — the run is only a simulation on [`TransportKind::Sim`].)
pub fn run_on(
    dg: DistGraph,
    alg: Algorithm,
    cfg: &DistConfig,
    opts: &SimOptions,
) -> Result<(CountResult, Option<Trace>), DistError> {
    let opts = resolve_opts(cfg, opts);
    let p = dg.num_ranks();
    let cells = into_cells(dg);
    let body = |ctx: &mut Ctx| {
        let lg = cells[ctx.rank()]
            .lock()
            .unwrap()
            .take()
            .expect("local graph already taken");
        match alg {
            Algorithm::Unaggregated | Algorithm::Ditric | Algorithm::Ditric2 => {
                Ok(ditric::run_rank(ctx, lg, cfg))
            }
            Algorithm::Cetric | Algorithm::Cetric2 => Ok(cetric::run_rank(ctx, lg, cfg)),
            Algorithm::TricLike => baselines::tric_like_rank(ctx, lg, cfg),
            Algorithm::HavoqgtLike => Ok(baselines::havoqgt_like_rank(ctx, lg, cfg)),
        }
    };
    let sim = run_sim(p, &opts, body);
    let triangles = sim.output.results.into_iter().next().unwrap()?;
    Ok((
        CountResult {
            triangles,
            stats: sim.output.stats,
        },
        sim.trace,
    ))
}

/// Like [`run_on`] under default options, returning just the count record
/// (the common case of the simple drivers and benches).
pub fn run_on_default(
    dg: DistGraph,
    alg: Algorithm,
    cfg: &DistConfig,
) -> Result<CountResult, DistError> {
    run_on(dg, alg, cfg, &SimOptions::default()).map(|(r, _)| r)
}

/// Like [`run_on_default`] with the overlap-aware simulated clock enabled
/// under `cost` (see `tricount_comm::runtime::run_timed`); the result's
/// [`RunStats::makespan`](tricount_comm::RunStats::makespan) is populated.
pub fn run_on_timed(
    dg: DistGraph,
    alg: Algorithm,
    cfg: &DistConfig,
    cost: tricount_comm::CostModel,
) -> Result<CountResult, DistError> {
    let opts = SimOptions {
        timing: Some(cost),
        ..SimOptions::default()
    };
    run_on(dg, alg, cfg, &opts).map(|(r, _)| r)
}

/// Like [`run_on`], additionally returning the kernel-dispatch tallies
/// of every rank folded in rank order (empty for the baseline algorithms,
/// which intersect without the dispatcher). (Previously
/// `run_on_sim_stats`.)
pub fn run_on_stats(
    dg: DistGraph,
    alg: Algorithm,
    cfg: &DistConfig,
    opts: &SimOptions,
) -> Result<(CountResult, Option<Trace>, dispatch::DispatchReport), DistError> {
    let opts = resolve_opts(cfg, opts);
    let p = dg.num_ranks();
    let cells = into_cells(dg);
    let body = |ctx: &mut Ctx| {
        let lg = cells[ctx.rank()]
            .lock()
            .unwrap()
            .take()
            .expect("local graph already taken");
        match alg {
            Algorithm::Unaggregated | Algorithm::Ditric | Algorithm::Ditric2 => {
                Ok(ditric::run_rank_stats(ctx, lg, cfg))
            }
            Algorithm::Cetric | Algorithm::Cetric2 => Ok(cetric::run_rank_stats(ctx, lg, cfg)),
            Algorithm::TricLike => baselines::tric_like_rank(ctx, lg, cfg)
                .map(|c| (c, dispatch::DispatchReport::new())),
            Algorithm::HavoqgtLike => Ok((
                baselines::havoqgt_like_rank(ctx, lg, cfg),
                dispatch::DispatchReport::new(),
            )),
        }
    };
    let sim = run_sim(p, &opts, body);
    let mut triangles = 0u64;
    let mut report = dispatch::DispatchReport::new();
    for (i, r) in sim.output.results.into_iter().enumerate() {
        let (c, d) = r?;
        if i == 0 {
            triangles = c;
        }
        report.absorb(&d);
    }
    Ok((
        CountResult {
            triangles,
            stats: sim.output.stats,
        },
        sim.trace,
        report,
    ))
}

/// Like [`run_on_stats`], additionally returning the drained wall-clock
/// profile when the resolved options enable [`SimOptions::wall_profile`]
/// on the threads backend (`None` otherwise — the sim backend has no wall
/// clock worth measuring). This is the `tricount profile` dual-clock path.
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
        dispatch::DispatchReport,
        Option<tricount_comm::WallProfile>,
    ),
    DistError,
> {
    let opts = resolve_opts(cfg, opts);
    let p = dg.num_ranks();
    let cells = into_cells(dg);
    let body = |ctx: &mut Ctx| {
        let lg = cells[ctx.rank()]
            .lock()
            .unwrap()
            .take()
            .expect("local graph already taken");
        match alg {
            Algorithm::Unaggregated | Algorithm::Ditric | Algorithm::Ditric2 => {
                Ok(ditric::run_rank_stats(ctx, lg, cfg))
            }
            Algorithm::Cetric | Algorithm::Cetric2 => Ok(cetric::run_rank_stats(ctx, lg, cfg)),
            Algorithm::TricLike => baselines::tric_like_rank(ctx, lg, cfg)
                .map(|c| (c, dispatch::DispatchReport::new())),
            Algorithm::HavoqgtLike => Ok((
                baselines::havoqgt_like_rank(ctx, lg, cfg),
                dispatch::DispatchReport::new(),
            )),
        }
    };
    let sim = run_sim(p, &opts, body);
    let mut triangles = 0u64;
    let mut report = dispatch::DispatchReport::new();
    for (i, r) in sim.output.results.into_iter().enumerate() {
        let (c, d) = r?;
        if i == 0 {
            triangles = c;
        }
        report.absorb(&d);
    }
    Ok((
        CountResult {
            triangles,
            stats: sim.output.stats,
        },
        sim.trace,
        report,
        sim.wall,
    ))
}

/// Like [`run_on`], but under the deadlock watchdog
/// ([`tricount_comm::run_guarded`]): if no PE makes progress for `timeout`,
/// the run is abandoned and the watchdog's wait-for-graph diagnosis comes
/// back as [`DistError::Deadlock`] instead of the process hanging. This is
/// the execution path of the resident query engine, where a wedged query
/// must surface as a failed request rather than take the server down.
pub fn run_on_guarded(
    dg: DistGraph,
    alg: Algorithm,
    cfg: &DistConfig,
    opts: &SimOptions,
    timeout: std::time::Duration,
) -> Result<CountResult, DistError> {
    let opts = resolve_opts(cfg, opts);
    let p = dg.num_ranks();
    let cells = Arc::new(into_cells(dg));
    let cfg = *cfg;
    let body = move |ctx: &mut Ctx| {
        let lg = cells[ctx.rank()]
            .lock()
            .unwrap()
            .take()
            .expect("local graph already taken");
        match alg {
            Algorithm::Unaggregated | Algorithm::Ditric | Algorithm::Ditric2 => {
                Ok(ditric::run_rank(ctx, lg, &cfg))
            }
            Algorithm::Cetric | Algorithm::Cetric2 => Ok(cetric::run_rank(ctx, lg, &cfg)),
            Algorithm::TricLike => baselines::tric_like_rank(ctx, lg, &cfg),
            Algorithm::HavoqgtLike => Ok(baselines::havoqgt_like_rank(ctx, lg, &cfg)),
        }
    };
    let out = run_guarded(p, &opts, timeout, body)?;
    let triangles = out.output.results.into_iter().next().unwrap()?;
    Ok(CountResult {
        triangles,
        stats: out.output.stats,
    })
}

/// Convenience driver: partitions `g` over `p` PEs (vertex-balanced) and
/// runs `alg` with its default configuration.
pub fn count(g: &tricount_graph::Csr, p: usize, alg: Algorithm) -> Result<CountResult, DistError> {
    run_on_default(DistGraph::new_balanced_vertices(g, p), alg, &alg.config())
}

/// Like [`count`] with an explicit configuration.
pub fn count_with(
    g: &tricount_graph::Csr,
    p: usize,
    alg: Algorithm,
    cfg: &DistConfig,
) -> Result<CountResult, DistError> {
    run_on_default(DistGraph::new_balanced_vertices(g, p), alg, cfg)
}

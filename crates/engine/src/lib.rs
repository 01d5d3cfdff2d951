//! A resident query engine over a partitioned graph.
//!
//! The one-shot drivers in `tricount-core` pay the full CETRIC setup —
//! partitioning, ghost degree exchange, degree orientation with ghost
//! expansion, cut-graph contraction — on every call and throw it away. An
//! [`Engine`] performs that setup **exactly once** at [`Engine::build`] and
//! keeps the per-rank state ([`PreparedRank`]) alive, serving a typed query
//! API against it:
//!
//! * [`Query::GlobalTriangles`] — exact count under any algorithm variant,
//! * [`Query::VertexLcc`] — local clustering coefficients of chosen vertices,
//! * [`Query::EdgeSupport`] — per-edge triangle counts,
//! * [`Query::ApproxTriangles`] — AMQ-sketched count for a target error.
//!
//! Requests pass a bounded admission queue ([`Engine::submit`] rejects with
//! [`EngineError::Overloaded`] beyond the configured depth) and execute in
//! batches per [`Engine::tick`]: queries normalising to the same
//! `QueryKey` share one distributed run (every `VertexLcc`
//! query rides the same full-vector computation), distinct keys run
//! concurrently on up to [`EngineConfig::workers`] runners — the ticking
//! thread and helpers drawn from the engine's executor — and results land
//! in an **epoch-keyed cache**. Each distributed run executes under the
//! deadlock watchdog (`tricount_comm::run_guarded`), so a wedged query
//! surfaces as [`EngineError::Dist`] carrying the wait-for-graph report
//! instead of taking the server down.
//!
//! # Resident threads: a read starts no thread
//!
//! Every serving-path run — query, update, tick helper — runs on the
//! engine's [`Executor`]: OS threads started once, at build, and parked
//! between runs. A sub-millisecond read then costs a few wake-ups rather
//! than `p` thread spawns. [`EngineStats::threads_started`] stays constant
//! while the engine serves; [`EngineStats::jobs_run`] counts the jobs.
//!
//! # MVCC epochs: reads never wait on writes
//!
//! Every committed graph state is an immutable
//! `EpochSnapshot`: the prepared per-rank state, the degree vector and the
//! resident triangle count. [`Engine::submit`] **pins** the snapshot
//! current at admission;
//! the query runs against exactly that state no matter how many
//! [`Engine::apply_updates`] batches commit in the meantime — a waiting
//! query never observes a mid-batch epoch, and an update never blocks a
//! read (the engine handle is `Clone` + `Send` + `Sync`; ticks and updates
//! may run from different threads concurrently). A retire list
//! (`EpochTable`) frees a superseded epoch the moment its
//! last reader drains. Every epoch is published sealed: an update folds
//! its batch into *new* prepared state before publishing it, so no tick
//! ever folds, published snapshots are never mutated, and a failed fold
//! publishes nothing — the previous epoch keeps serving.
//!
//! The graph itself is **dynamic**: [`Engine::apply_updates`] applies a
//! batched set of edge insertions/deletions through the distributed delta
//! protocol (`tricount_core::dist::delta`), maintaining the resident
//! triangle count ([`Engine::resident_triangles`]) incrementally instead
//! of recounting, folding the batch into fresh prepared state, and
//! publishing the result as the next epoch. Queries
//! submitted afterwards see the updated graph; queries already admitted
//! keep their pinned pre-update snapshot.
//!
//! Many tenants can share one process (and one executor) through an
//! [`EngineHost`]: a tenant → engine map behind global admission budgets
//! with per-tenant quotas and a concurrent serve loop.

#![warn(missing_docs)]

pub mod check;
mod epoch;
mod host;
mod query;
mod stats;
pub mod workload;

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use tricount_comm::{
    run_guarded, run_sim, CostModel, Counters, Ctx, RunStats, SimOptions, SimOutput,
};
use tricount_core::config::{Algorithm, DistConfig};
use tricount_core::dist::approx::{approx_prepared, ApproxConfig, FilterKind};
use tricount_core::dist::delta as delta_dist;
use tricount_core::dist::dispatch::DispatchReport;
use tricount_core::dist::residency::{build_residency, PreparedRank};
use tricount_core::dist::support::edge_support_rank;
use tricount_core::dist::{cetric, count_rank, fold_counts, lcc, phases};
use tricount_core::result::DistError;
use tricount_delta::{Overlay, UpdateBatch};
use tricount_graph::dist::DistGraph;
use tricount_graph::{Csr, VertexId};
use tricount_obs::{LogHistogram, MetricsRegistry};
use tricount_par::Executor;

pub use check::{check_concurrency, CheckOptions, CheckReport};
pub use host::{
    EngineHost, HostConfig, HostError, HostReply, HostRequest, HostStats, ServeHandle, TenantStats,
};
pub use query::{EngineError, Query, QueryAnswer, TicketId};
pub use stats::{AdjacencyWords, EngineSpan, EngineStats, QueryRecord};
pub use workload::scripted_workload;

use epoch::{EpochSnapshot, EpochTable};
use query::{algorithm_index, bits_for_rel_error, CachedValue, QueryKey};

/// Configuration of an [`Engine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of PEs to partition the graph over.
    pub num_ranks: usize,
    /// Distributed configuration used for the resident setup and for LCC /
    /// approximate runs (global-count queries use their own variant's
    /// configuration).
    pub dist: DistConfig,
    /// Admission bound: [`Engine::submit`] rejects once this many queries
    /// wait in the queue.
    pub queue_capacity: usize,
    /// Maximum queries drained per [`Engine::tick`].
    pub batch_max: usize,
    /// Runners executing a tick's distinct cache keys concurrently: the
    /// ticking thread plus up to `workers − 1` executor helpers.
    pub workers: usize,
    /// Deadlock-watchdog timeout for every distributed query run.
    pub watchdog: Duration,
    /// Perturb message delivery / thread interleaving of query runs under
    /// this seed (`None` = natural schedule). Answers are schedule
    /// independent; the determinism tests exercise exactly this knob.
    pub perturb_seed: Option<u64>,
    /// Record wall-clock transport events and contention meters on every
    /// run. Strictly additive: the modeled counters are bit-identical
    /// either way.
    pub wall_profile: bool,
}

impl EngineConfig {
    /// A sensible default configuration over `num_ranks` PEs.
    pub fn new(num_ranks: usize) -> Self {
        EngineConfig {
            num_ranks,
            dist: Algorithm::Cetric.config(),
            queue_capacity: 256,
            batch_max: 32,
            workers: 4,
            watchdog: Duration::from_secs(30),
            perturb_seed: None,
            wall_profile: false,
        }
    }

    /// Inert: returns `self` unchanged. The remote-adjacency cache this
    /// once enabled was removed (DESIGN §5i); the name is kept only so the
    /// frozen benchmark driver still builds, and the next `benchmark` PR
    /// removes it.
    pub fn with_cache_budget(self, _budget_words: u64) -> Self {
        self
    }
}

/// The outcome of one [`Engine::apply_updates`] call.
#[derive(Debug, Clone)]
pub struct UpdateReceipt {
    /// Epoch after the update (bumped iff the graph changed).
    pub epoch: u64,
    /// Effective edge insertions applied.
    pub inserted: u64,
    /// Effective edge deletions applied.
    pub deleted: u64,
    /// Canonical operations that were no-ops against the live graph
    /// (insert of a present edge, delete of an absent one).
    pub noops: u64,
    /// Resident triangle count before the batch.
    pub triangles_before: u64,
    /// Resident triangle count after the batch.
    pub triangles_after: u64,
    /// Communication totals of the update run (route + count + refresh,
    /// plus the fold, which sends nothing).
    pub comm: Counters,
    /// Modeled α+β+t_op time of the update run, fold included.
    pub modeled_seconds: f64,
    /// Wall time of the update run on the host, fold included.
    pub wall_seconds: f64,
}

impl UpdateReceipt {
    /// The signed triangle delta of the batch.
    pub fn delta(&self) -> i64 {
        self.triangles_after as i64 - self.triangles_before as i64
    }
}

/// A query waiting in the admission queue, pinning the epoch snapshot it
/// was admitted on.
struct Ticket {
    id: TicketId,
    query: Query,
    /// When the query was admitted (queue-wait latency starts here).
    submitted: Instant,
    /// The graph state this query will be answered against, no matter how
    /// many updates commit before its tick.
    snapshot: Arc<EpochSnapshot>,
}

/// Mutable serving counters (the raw material of [`EngineStats`]).
#[derive(Debug, Default)]
struct Metrics {
    submitted: u64,
    rejected: u64,
    answered: u64,
    cache_hits: u64,
    cache_misses: u64,
    batches: u64,
    query_comm: Counters,
    query_preprocessing_comm: Counters,
    modeled_seconds_total: f64,
    wall_seconds_total: f64,
    updates_applied: u64,
    edges_inserted: u64,
    edges_deleted: u64,
    update_noops: u64,
    update_comm: Counters,
    update_modeled_seconds: f64,
    update_wall_seconds: f64,
    per_query: Vec<QueryRecord>,
    /// Queue-wait latency (submit → draining tick), nanoseconds.
    queue_wait: LogHistogram,
    /// Wall latency of executed runs, nanoseconds.
    run_wall: LogHistogram,
    /// Modeled latency of executed runs, nanoseconds.
    run_modeled: LogHistogram,
    /// Queue depth observed at each submit.
    queue_depth_at_submit: LogHistogram,
    /// Tickets drained per tick.
    batch_sizes: LogHistogram,
    /// Runs that carried wall-clock contention meters.
    profiled_runs: u64,
    /// Summed queue lock-wait seconds over all profiled runs.
    lock_wait_seconds_total: f64,
    /// Summed barrier spin seconds over all profiled runs.
    barrier_spin_seconds_total: f64,
    /// Wall events dropped to ring overflow over all profiled runs.
    wall_events_dropped: u64,
    /// Lifecycle spans (batch/admit/run/answer per tick, update/seal per
    /// graph-changing update).
    spans: Vec<EngineSpan>,
    /// Per-phase kernel-dispatch tallies over every query and update run,
    /// folded in canonical (phase, rank) order.
    kernel_dispatch: DispatchReport,
}

impl Metrics {
    /// Folds a profiled run's transport contention meters in (no-op for
    /// unprofiled runs — `stats.contention` is `None`).
    fn absorb_contention(&mut self, stats: &RunStats) {
        if let Some(c) = &stats.contention {
            self.profiled_runs += 1;
            self.lock_wait_seconds_total += c.lock_wait_seconds();
            self.barrier_spin_seconds_total += c.barrier_spin_seconds();
            self.wall_events_dropped += c.events_dropped;
        }
    }
}

/// The shared state behind an [`Engine`] handle.
struct EngineInner {
    cfg: EngineConfig,
    num_vertices: u64,
    /// The MVCC epoch table: current snapshot, pinned history, retire
    /// accounting.
    epochs: EpochTable,
    pending: Mutex<VecDeque<Ticket>>,
    /// Result cache keyed by `(epoch, key)`; entries of an epoch are
    /// pruned when it retires.
    results: Mutex<BTreeMap<(u64, QueryKey), CachedValue>>,
    /// Resident threads for every run the engine serves.
    exec: Executor,
    next_ticket: AtomicU64,
    metrics: Mutex<Metrics>,
    /// Serializes graph mutations (updates, epoch advances) against each
    /// other — never against reads.
    writer: Mutex<()>,
    setup_stats: RunStats,
    /// Statistics of the one-time baseline count establishing
    /// `resident_triangles`.
    baseline_stats: RunStats,
    /// Wall-clock origin: lifecycle span stamps count from here.
    born: Instant,
}

/// A long-lived engine serving queries against a graph loaded once.
///
/// `Engine` is a cheap cloneable handle over shared state: clones may be
/// moved to other threads, and every method takes `&self` — reads
/// ([`submit`](Engine::submit)/[`tick`](Engine::tick)) proceed while
/// another thread runs [`apply_updates`](Engine::apply_updates).
#[derive(Clone)]
pub struct Engine {
    inner: Arc<EngineInner>,
}

impl Engine {
    /// Loads `g` into the engine: partitions it over `cfg.num_ranks` PEs
    /// (`DistGraph::new`) and performs the whole distributed setup exactly
    /// once. Everything queries need afterwards is resident.
    pub fn build(g: &Csr, cfg: EngineConfig) -> Engine {
        Self::build_on(g, cfg, Executor::new())
    }

    /// Like [`build`](Engine::build), but serving on `exec` — the
    /// multi-tenant [`EngineHost`] shares one executor across every tenant
    /// engine. Starts the threads a tick needs at most, `workers − 1`
    /// helpers and `p` ranks per runner, unless `exec` already has them.
    pub(crate) fn build_on(g: &Csr, cfg: EngineConfig, exec: Executor) -> Engine {
        assert!(cfg.num_ranks >= 1, "need at least one PE");
        assert!(cfg.queue_capacity >= 1, "queue capacity must be positive");
        assert!(cfg.batch_max >= 1, "batch size must be positive");
        let runners = cfg.workers.max(1);
        exec.reserve(runners - 1 + runners * cfg.num_ranks);
        let degrees = g.degrees();
        let dg = DistGraph::new(g, cfg.num_ranks);
        let opts = SimOptions {
            record_trace: false,
            perturb_seed: None,
            wall_profile: cfg.wall_profile,
            ..SimOptions::default()
        };
        let (ranks, setup_stats) = build_residency(dg, &cfg.dist, &opts);
        let ranks = Arc::new(ranks);
        // Establish the resident triangle count once; apply_updates
        // maintains it incrementally from here on. Metered separately from
        // the setup so residency invariants (setup comm never repeats)
        // stay checkable.
        let baseline_ranks = ranks.clone();
        let dist = cfg.dist;
        let baseline = run_sim(cfg.num_ranks, &opts, move |ctx: &mut Ctx| {
            cetric::count_prepared(ctx, &baseline_ranks[ctx.rank()], &dist).0
        });
        let first = EpochSnapshot {
            epoch: 0,
            ranks,
            degrees: Arc::new(degrees),
            triangles: baseline.output.results[0],
        };
        Engine {
            inner: Arc::new(EngineInner {
                num_vertices: g.num_vertices(),
                epochs: EpochTable::new(first),
                pending: Mutex::new(VecDeque::new()),
                results: Mutex::new(BTreeMap::new()),
                exec,
                next_ticket: AtomicU64::new(0),
                metrics: Mutex::new(Metrics::default()),
                writer: Mutex::new(()),
                setup_stats,
                baseline_stats: baseline.output.stats,
                born: Instant::now(),
                cfg,
            }),
        }
    }

    /// Number of vertices in the resident graph.
    pub fn num_vertices(&self) -> u64 {
        self.inner.num_vertices
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.inner.epochs.current_epoch()
    }

    /// Queries currently waiting in the admission queue.
    pub fn queue_depth(&self) -> usize {
        self.inner.pending.lock().expect("pending lock").len()
    }

    /// Statistics of the one-time setup run.
    pub fn setup_stats(&self) -> &RunStats {
        &self.inner.setup_stats
    }

    /// Statistics of the one-time baseline count that seeded
    /// [`resident_triangles`](Engine::resident_triangles).
    pub fn baseline_stats(&self) -> &RunStats {
        &self.inner.baseline_stats
    }

    /// The incrementally maintained global triangle count of the resident
    /// graph — exact at every epoch (bit-equal to a from-scratch recount).
    pub fn resident_triangles(&self) -> u64 {
        self.inner.epochs.current().triangles
    }

    /// Enqueues a query, pinning the **current** epoch snapshot: the
    /// answer will reflect exactly the graph state at admission, no matter
    /// how many updates commit before the draining tick. Rejects with
    /// [`EngineError::Overloaded`] when the queue is at `queue_capacity` —
    /// admission control, so a burst beyond the configured depth degrades
    /// into explicit backpressure instead of unbounded memory growth.
    pub fn submit(&self, query: Query) -> Result<TicketId, EngineError> {
        let inner = &self.inner;
        let mut pending = inner.pending.lock().expect("pending lock");
        if pending.len() >= inner.cfg.queue_capacity {
            let depth = pending.len();
            drop(pending);
            inner.metrics.lock().expect("metrics lock").rejected += 1;
            return Err(EngineError::Overloaded {
                depth,
                capacity: inner.cfg.queue_capacity,
            });
        }
        let id = TicketId(inner.next_ticket.fetch_add(1, Ordering::Relaxed));
        let snapshot = inner.epochs.pin();
        {
            let mut m = inner.metrics.lock().expect("metrics lock");
            m.queue_depth_at_submit.record(pending.len() as u64);
            m.submitted += 1;
        }
        pending.push_back(Ticket {
            id,
            query,
            submitted: Instant::now(),
            snapshot,
        });
        Ok(id)
    }

    /// Drains up to `batch_max` queued queries, executes the batch, and
    /// returns `(ticket, answer)` pairs in submission order. See
    /// [`tick_pinned`](Engine::tick_pinned) for the variant reporting the
    /// epoch each answer was computed at.
    pub fn tick(&self) -> Vec<(TicketId, Result<QueryAnswer, EngineError>)> {
        self.tick_pinned()
            .into_iter()
            .map(|(id, _epoch, a)| (id, a))
            .collect()
    }

    /// Drains up to `batch_max` queued queries, executes the batch, and
    /// returns `(ticket, pinned epoch, answer)` triples in submission
    /// order.
    ///
    /// Within a batch, queries normalising to the same cache key **at the
    /// same pinned epoch** share one distributed run; distinct
    /// (epoch, key) jobs execute concurrently on up to `workers` runners:
    /// the calling thread, plus executor helpers when there is more than
    /// one job. Freshly computed values enter the epoch-keyed
    /// cache, so an identical later query at the same epoch is a cache
    /// hit. Every pinned snapshot was published sealed, so a tick only
    /// runs queries — it never folds.
    pub fn tick_pinned(&self) -> Vec<(TicketId, u64, Result<QueryAnswer, EngineError>)> {
        let inner = &self.inner;
        let batch: Vec<Ticket> = {
            let mut pending = inner.pending.lock().expect("pending lock");
            let n = pending.len().min(inner.cfg.batch_max);
            if n == 0 {
                return Vec::new();
            }
            pending.drain(..n).collect()
        };
        let n = batch.len();
        let tick_begin = inner.now_nanos();
        let batch_index = {
            let mut m = inner.metrics.lock().expect("metrics lock");
            let b = m.batches;
            m.batches += 1;
            m.batch_sizes.record(n as u64);
            b
        };
        let drained_at = Instant::now();

        // Normalise to cache keys; invalid queries fail without executing.
        let keyed: Vec<(Ticket, Result<QueryKey, EngineError>)> = batch
            .into_iter()
            .map(|t| {
                let key = inner.key_of(&t.query);
                (t, key)
            })
            .collect();

        // The batch's distinct, uncached (epoch, key) jobs — each computed
        // exactly once.
        let mut jobs: Vec<(Arc<EpochSnapshot>, QueryKey)> = Vec::new();
        {
            let results = inner.results.lock().expect("results lock");
            for (t, key) in &keyed {
                if let Ok(k) = key {
                    let e = t.snapshot.epoch;
                    if !results.contains_key(&(e, k.clone()))
                        && !jobs.iter().any(|(s, jk)| s.epoch == e && jk == k)
                    {
                        jobs.push((t.snapshot.clone(), k.clone()));
                    }
                }
            }
        }
        let admit_end = inner.now_nanos();

        let computed = run_jobs(inner, jobs.clone());
        let run_end = inner.now_nanos();

        // Fold results into cache and metrics.
        let cost = CostModel::default();
        let mut failures: BTreeMap<(u64, QueryKey), EngineError> = BTreeMap::new();
        let mut run_costs: BTreeMap<(u64, QueryKey), (f64, f64)> = BTreeMap::new();
        {
            let mut m = inner.metrics.lock().expect("metrics lock");
            for ((snap, key), outcome) in jobs.into_iter().zip(computed) {
                match outcome {
                    Ok((value, stats, wall, dispatch)) => {
                        let modeled = stats.modeled_time(&cost);
                        m.kernel_dispatch.absorb(&dispatch);
                        m.absorb_contention(&stats);
                        m.query_comm.absorb(&stats.totals());
                        m.query_preprocessing_comm
                            .absorb(&stats.phase_totals("preprocessing"));
                        m.modeled_seconds_total += modeled;
                        m.wall_seconds_total += wall;
                        m.run_wall.record_seconds(wall);
                        m.run_modeled.record_seconds(modeled);
                        run_costs.insert((snap.epoch, key.clone()), (modeled, wall));
                        inner
                            .results
                            .lock()
                            .expect("results lock")
                            .insert((snap.epoch, key), value);
                    }
                    Err(e) => {
                        failures.insert((snap.epoch, key), e);
                    }
                }
            }
        }

        // Answer every ticket from the (now warm) cache. The first ticket
        // that triggered a job carries its cost and counts as the miss;
        // everything else in the batch shared the work (or the cache) and
        // counts as a hit. Each answered ticket drops its epoch pin —
        // retiring drained epochs and pruning their cached results.
        let mut out = Vec::with_capacity(keyed.len());
        {
            let mut m = inner.metrics.lock().expect("metrics lock");
            for (ticket, key) in keyed {
                let id = ticket.id;
                let kind = ticket.query.kind();
                let epoch = ticket.snapshot.epoch;
                let queue_seconds = drained_at
                    .saturating_duration_since(ticket.submitted)
                    .as_secs_f64();
                m.queue_wait.record_seconds(queue_seconds);
                let mut hit = false;
                let mut modeled = 0.0;
                let mut wall = 0.0;
                let answer = match key {
                    Err(e) => Err(e),
                    Ok(k) => {
                        if let Some(e) = failures.get(&(epoch, k.clone())) {
                            Err(e.clone())
                        } else {
                            match run_costs.remove(&(epoch, k.clone())) {
                                Some((mo, w)) => {
                                    modeled = mo;
                                    wall = w;
                                }
                                None => hit = true,
                            }
                            let results = inner.results.lock().expect("results lock");
                            let value = results.get(&(epoch, k)).expect("computed or cached above");
                            Ok(project(&ticket.query, value))
                        }
                    }
                };
                m.answered += 1;
                if answer.is_ok() {
                    if hit {
                        m.cache_hits += 1;
                    } else {
                        m.cache_misses += 1;
                    }
                }
                m.per_query.push(QueryRecord {
                    kind,
                    cache_hit: hit,
                    queue_seconds,
                    modeled_seconds: modeled,
                    wall_seconds: wall,
                    failed: answer.is_err(),
                });
                drop(ticket);
                inner.release_pin(epoch);
                out.push((id, epoch, answer));
            }
        }
        let answer_end = inner.now_nanos();
        {
            let mut m = inner.metrics.lock().expect("metrics lock");
            for (label, begin_nanos, end_nanos) in [
                ("batch", tick_begin, answer_end),
                ("admit", tick_begin, admit_end),
                ("run", admit_end, run_end),
                ("answer", run_end, answer_end),
            ] {
                m.spans.push(EngineSpan {
                    label,
                    batch: batch_index,
                    begin_nanos,
                    end_nanos,
                });
            }
        }
        out
    }

    /// Submits a single query and ticks until it is answered — the
    /// synchronous convenience path. Queued queries ahead of it are
    /// answered along the way (their results are dropped here; use
    /// [`submit`](Engine::submit)/[`tick`](Engine::tick) to collect them).
    pub fn query(&self, query: Query) -> Result<QueryAnswer, EngineError> {
        let id = self.submit(query)?;
        loop {
            let answers = self.tick();
            if let Some((_, a)) = answers.into_iter().find(|(tid, _)| *tid == id) {
                return a;
            }
        }
    }

    /// Declares the resident graph stale: publishes the same graph state
    /// as a new epoch, which atomically invalidates every cached result —
    /// entries are keyed by epoch, and the superseded epoch retires (its
    /// entries pruned) as soon as its last pinned reader drains
    /// (immediately, when nothing pins it).
    /// [`apply_updates`](Engine::apply_updates) publishes a new epoch
    /// whenever a batch changes the graph; calling this directly models
    /// upstream recomputation triggers on an unchanged topology.
    pub fn advance_epoch(&self) {
        let inner = &self.inner;
        let _w = inner.writer.lock().expect("writer lock");
        let tip = inner.epochs.current();
        inner.publish(EpochSnapshot {
            epoch: tip.epoch + 1,
            ranks: tip.ranks.clone(),
            degrees: tip.degrees.clone(),
            triangles: tip.triangles,
        });
    }

    /// Applies a batch of edge insertions/deletions to the resident graph
    /// through the distributed delta protocol, maintaining
    /// [`resident_triangles`](Engine::resident_triangles) incrementally:
    /// the batch is canonicalised, routed to the owning ranks, filtered
    /// for no-ops, and the exact triangle delta is counted as distributed
    /// intersections with same-batch corrections — no recount. Iff the
    /// graph changed, the same guarded run then folds the batch into fresh
    /// prepared state (a communication-free re-orient + re-contract,
    /// recorded as one `seal` span) and the result is **published as a
    /// new, sealed epoch**: queries admitted earlier keep their pinned
    /// snapshot and never observe the mid-batch state, queries admitted
    /// later see the update. A failed run (watchdog kill) publishes
    /// nothing: the previous epoch keeps serving.
    ///
    /// Vertex ids must be in range ([`EngineError::UnknownVertex`]
    /// otherwise — the vertex set is fixed at build). An empty or fully
    /// cancelling batch returns a zero receipt without advancing the
    /// epoch. Concurrent writers serialize on an internal lock; readers
    /// are never blocked.
    pub fn apply_updates(&self, batch: &UpdateBatch) -> Result<UpdateReceipt, EngineError> {
        let inner = &self.inner;
        if let Some(mx) = batch.max_vertex() {
            inner.check_vertex(mx)?;
        }
        let canonical = batch.canonicalize();
        let _w = inner.writer.lock().expect("writer lock");
        let tip = inner.epochs.current();
        let triangles_before = tip.triangles;
        if canonical.is_empty() {
            return Ok(UpdateReceipt {
                epoch: tip.epoch,
                inserted: 0,
                deleted: 0,
                noops: 0,
                triangles_before,
                triangles_after: triangles_before,
                comm: Counters::default(),
                modeled_seconds: 0.0,
                wall_seconds: 0.0,
            });
        }
        let update_begin = inner.now_nanos();
        let started = Instant::now();
        // Each rank overlays the batch on the tip's prepared state and, iff
        // the allreduced totals say the graph changed, folds it into new
        // prepared state. The tip itself is never touched: pinned readers
        // keep serving from it.
        let dist = inner.cfg.dist;
        let canonical = Arc::new(canonical);
        let ranks = tip.ranks.clone();
        let born = inner.born;
        let out = inner.run_ranks(move |ctx: &mut Ctx| {
            let prep = &ranks[ctx.rank()];
            let mut ov = Overlay::for_local(&prep.local);
            let outcome =
                delta_dist::apply_batch_rank(ctx, &prep.local, &mut ov, &canonical, &dist);
            if outcome.inserted + outcome.deleted == 0 {
                return (outcome, None);
            }
            let begin = born.elapsed().as_nanos() as u64;
            let folded = delta_dist::compact_rank(ctx, prep, &mut ov, &dist);
            let end = born.elapsed().as_nanos() as u64;
            (outcome, Some((folded, begin, end)))
        })?;
        let wall = started.elapsed().as_secs_f64();
        let stats = out.output.stats;
        let (outcomes, folds): (Vec<_>, Vec<_>) = out.output.results.into_iter().unzip();

        let global = &outcomes[0];
        let triangles_after = triangles_before + global.triangles_added - global.triangles_removed;
        let totals = stats.totals();
        let modeled = stats.modeled_time(&CostModel::default());
        let folds: Option<Vec<(PreparedRank, u64, u64)>> = folds.into_iter().collect();
        {
            let mut m = inner.metrics.lock().expect("metrics lock");
            m.absorb_contention(&stats);
            // Kernel-dispatch tallies of the counting passes, folded per
            // rank in rank order under the update-count phase.
            for o in &outcomes {
                m.kernel_dispatch.add(phases::UPDATE_COUNT, o.kernels);
            }
            m.updates_applied += 1;
            m.edges_inserted += global.inserted;
            m.edges_deleted += global.deleted;
            m.update_noops += global.noops;
            m.update_comm.absorb(&totals);
            m.update_modeled_seconds += modeled;
            m.update_wall_seconds += wall;
            let end = inner.now_nanos();
            let batch_index = m.batches;
            m.spans.push(EngineSpan {
                label: "update",
                batch: batch_index,
                begin_nanos: update_begin,
                end_nanos: end,
            });
            // The fold, from the first rank to start it to the last to
            // finish it.
            if let Some(folds) = &folds {
                m.spans.push(EngineSpan {
                    label: "seal",
                    batch: batch_index,
                    begin_nanos: folds.iter().map(|f| f.1).min().unwrap_or(end),
                    end_nanos: folds.iter().map(|f| f.2).max().unwrap_or(end),
                });
            }
        }

        let mut receipt = UpdateReceipt {
            epoch: tip.epoch,
            inserted: global.inserted,
            deleted: global.deleted,
            noops: global.noops,
            triangles_before,
            triangles_after,
            comm: totals,
            modeled_seconds: modeled,
            wall_seconds: wall,
        };
        // Every op was a no-op: the graph is unchanged, so no new epoch.
        let Some(folds) = folds else {
            return Ok(receipt);
        };

        // Degree maintenance: each effective edge appears in exactly one
        // rank's tail list; both endpoint degrees move by one. The next
        // epoch gets its own vector — the tip's stays frozen.
        let mut degrees = (*tip.degrees).clone();
        for o in &outcomes {
            for &(ins, u, v) in &o.tail_effective {
                for x in [u, v] {
                    let d = &mut degrees[x as usize];
                    *d = if ins { *d + 1 } else { *d - 1 };
                }
            }
        }
        receipt.epoch = tip.epoch + 1;
        inner.publish(EpochSnapshot {
            epoch: receipt.epoch,
            ranks: Arc::new(folds.into_iter().map(|f| f.0).collect()),
            degrees: Arc::new(degrees),
            triangles: triangles_after,
        });
        Ok(receipt)
    }

    /// Snapshots aggregate and per-query serving statistics.
    pub fn stats(&self) -> EngineStats {
        let inner = &self.inner;
        let epochs = inner.epochs.counts();
        let tip = inner.epochs.current();
        let queue_depth = self.queue_depth();
        let cache_entries = inner.results.lock().expect("results lock").len();
        let epoch_lifetime = inner.epochs.lifetime_summary();
        let m = inner.metrics.lock().expect("metrics lock");
        EngineStats {
            num_ranks: inner.cfg.num_ranks,
            epoch: tip.epoch,
            submitted: m.submitted,
            rejected: m.rejected,
            answered: m.answered,
            cache_hits: m.cache_hits,
            cache_misses: m.cache_misses,
            batches: m.batches,
            queue_depth,
            cache_entries,
            setup_runs: 1,
            setup_comm: inner.setup_stats.totals(),
            baseline_comm: inner.baseline_stats.totals(),
            resident_triangles: tip.triangles,
            updates_applied: m.updates_applied,
            edges_inserted: m.edges_inserted,
            edges_deleted: m.edges_deleted,
            update_noops: m.update_noops,
            epochs_live: epochs.live,
            epochs_retired: epochs.retired,
            readers_pinned: epochs.readers_pinned,
            epoch_lifetime,
            update_comm: m.update_comm,
            update_modeled_seconds: m.update_modeled_seconds,
            update_wall_seconds: m.update_wall_seconds,
            query_comm: m.query_comm,
            query_preprocessing_comm: m.query_preprocessing_comm,
            modeled_seconds_total: m.modeled_seconds_total,
            wall_seconds_total: m.wall_seconds_total,
            profiled_runs: {
                let boot = [&inner.setup_stats, &inner.baseline_stats]
                    .iter()
                    .filter(|s| s.contention.is_some())
                    .count() as u64;
                m.profiled_runs + boot
            },
            lock_wait_seconds_total: m.lock_wait_seconds_total
                + inner.boot_contention(tricount_comm::ContentionSummary::lock_wait_seconds),
            barrier_spin_seconds_total: m.barrier_spin_seconds_total
                + inner.boot_contention(tricount_comm::ContentionSummary::barrier_spin_seconds),
            wall_events_dropped: m.wall_events_dropped
                + [&inner.setup_stats, &inner.baseline_stats]
                    .iter()
                    .filter_map(|s| s.contention.as_ref())
                    .map(|c| c.events_dropped)
                    .sum::<u64>(),
            queue_wait: m.queue_wait.summary_seconds(),
            run_wall: m.run_wall.summary_seconds(),
            run_modeled: m.run_modeled.summary_seconds(),
            threads_started: inner.exec.threads_started(),
            jobs_run: inner.exec.jobs_run(),
            spans: m.spans.clone(),
            per_query: m.per_query.clone(),
            kernel_dispatch: m.kernel_dispatch.clone(),
            query_adjacency: AdjacencyWords::default(),
            update_adjacency: AdjacencyWords::default(),
            adj_cache_resident_words: 0,
        }
    }

    /// Renders the engine's serving metrics in the Prometheus text
    /// exposition format: counters from the snapshot, latency histograms
    /// (with quantile gauges) from the live log-bucketed recorders, and
    /// the executor's thread and job counters. Suitable for
    /// `serve --metrics-out` or a scrape endpoint.
    pub fn prometheus(&self) -> String {
        let inner = &self.inner;
        let snapshot = self.stats();
        let (queue_wait, run_wall, run_modeled, depth_at_submit, batch_sizes) = {
            let m = inner.metrics.lock().expect("metrics lock");
            (
                m.queue_wait.clone(),
                m.run_wall.clone(),
                m.run_modeled.clone(),
                m.queue_depth_at_submit.clone(),
                m.batch_sizes.clone(),
            )
        };
        let epoch_lifetime = inner.epochs.lifetime_histogram();
        let mut reg = MetricsRegistry::new();
        reg.counter(
            "tricount_engine_submitted_total",
            "Queries accepted by admission control",
            snapshot.submitted,
        );
        reg.counter(
            "tricount_engine_rejected_total",
            "Submissions rejected by admission control",
            snapshot.rejected,
        );
        reg.counter(
            "tricount_engine_answered_total",
            "Queries answered (including failures)",
            snapshot.answered,
        );
        reg.counter(
            "tricount_engine_cache_hits_total",
            "Answers served from the result cache",
            snapshot.cache_hits,
        );
        reg.counter(
            "tricount_engine_cache_misses_total",
            "Answers that required a distributed run",
            snapshot.cache_misses,
        );
        reg.counter(
            "tricount_engine_batches_total",
            "Ticks executed",
            snapshot.batches,
        );
        reg.counter(
            "tricount_engine_updates_applied_total",
            "Edge-update batches applied",
            snapshot.updates_applied,
        );
        reg.counter(
            "tricount_engine_edges_inserted_total",
            "Effective edge insertions applied",
            snapshot.edges_inserted,
        );
        reg.counter(
            "tricount_engine_edges_deleted_total",
            "Effective edge deletions applied",
            snapshot.edges_deleted,
        );
        reg.counter(
            "tricount_engine_update_noops_total",
            "Update operations that were no-ops against the live graph",
            snapshot.update_noops,
        );
        reg.gauge(
            "tricount_engine_resident_triangles",
            "Incrementally maintained global triangle count",
            snapshot.resident_triangles as f64,
        );
        reg.gauge(
            "tricount_engine_queue_depth",
            "Queries waiting in the admission queue",
            snapshot.queue_depth as f64,
        );
        reg.gauge(
            "tricount_engine_cache_entries",
            "Live entries in the result cache",
            snapshot.cache_entries as f64,
        );
        reg.gauge(
            "tricount_engine_epoch",
            "Current graph epoch",
            snapshot.epoch as f64,
        );
        reg.gauge(
            "tricount_engine_epochs_live",
            "Epoch snapshots alive (current + reader-pinned history)",
            snapshot.epochs_live as f64,
        );
        reg.counter(
            "tricount_engine_epochs_retired_total",
            "Superseded epochs freed after their last reader drained",
            snapshot.epochs_retired,
        );
        reg.gauge(
            "tricount_engine_readers_pinned",
            "Queries currently pinning an epoch snapshot",
            snapshot.readers_pinned as f64,
        );
        reg.histogram_seconds(
            "tricount_engine_epoch_lifetime_seconds",
            "Lifetime of retired epochs (publish to retire)",
            &epoch_lifetime,
        );
        reg.gauge(
            "tricount_engine_num_ranks",
            "PEs the resident graph is partitioned over",
            snapshot.num_ranks as f64,
        );
        reg.histogram_seconds(
            "tricount_engine_queue_wait_seconds",
            "Queue-wait latency (submit to the tick that drained it)",
            &queue_wait,
        );
        reg.histogram_seconds(
            "tricount_engine_run_wall_seconds",
            "Wall latency of executed distributed runs",
            &run_wall,
        );
        reg.histogram_seconds(
            "tricount_engine_run_modeled_seconds",
            "Modeled latency of executed distributed runs",
            &run_modeled,
        );
        reg.histogram_units(
            "tricount_engine_queue_depth_at_submit",
            "Queue depth observed by each accepted submission",
            &depth_at_submit,
        );
        reg.histogram_units(
            "tricount_engine_batch_size",
            "Tickets drained per tick",
            &batch_sizes,
        );
        if snapshot.profiled_runs > 0 {
            reg.counter(
                "tricount_engine_profiled_runs_total",
                "Runs that carried wall-clock transport contention meters",
                snapshot.profiled_runs,
            );
            reg.gauge(
                "tricount_engine_transport_lock_wait_seconds",
                "Summed transport queue lock-wait seconds over profiled runs",
                snapshot.lock_wait_seconds_total,
            );
            reg.gauge(
                "tricount_engine_transport_barrier_spin_seconds",
                "Summed transport barrier spin seconds over profiled runs",
                snapshot.barrier_spin_seconds_total,
            );
            reg.counter(
                "tricount_engine_wall_events_dropped_total",
                "Wall events lost to probe-ring overflow over profiled runs",
                snapshot.wall_events_dropped,
            );
        }
        for (phase, counters) in &snapshot.kernel_dispatch.phases {
            for (kernel, n) in counters.named() {
                reg.counter_with(
                    "tricount_kernel_dispatch_total",
                    "Intersection calls served per kernel and counting phase",
                    &[("phase", phase.to_string()), ("kernel", kernel.to_string())],
                    n,
                );
            }
        }
        reg.counter(
            "tricount_engine_executor_threads_started_total",
            "Resident threads started by the executor the engine serves on",
            snapshot.threads_started,
        );
        reg.counter(
            "tricount_engine_executor_jobs_run_total",
            "Jobs (rank programs and tick helpers) the executor has run",
            snapshot.jobs_run,
        );
        reg.render()
    }
}

impl EngineInner {
    /// Wall nanoseconds since the engine was built.
    #[inline]
    fn now_nanos(&self) -> u64 {
        self.born.elapsed().as_nanos() as u64
    }

    /// Runs `f` on every rank under the watchdog, on the engine's resident
    /// threads.
    fn run_ranks<R, F>(&self, f: F) -> Result<SimOutput<R>, DistError>
    where
        R: Send + 'static,
        F: Fn(&mut Ctx) -> R + Send + Sync + 'static,
    {
        let opts = self.run_opts();
        run_guarded(&self.exec, self.cfg.num_ranks, &opts, self.cfg.watchdog, f)
            .map_err(DistError::from)
    }

    /// The options every serving-path distributed run executes under.
    fn run_opts(&self) -> SimOptions {
        SimOptions {
            record_trace: false,
            perturb_seed: self.cfg.perturb_seed,
            wall_profile: self.cfg.wall_profile,
            ..SimOptions::default()
        }
    }

    /// Publishes `snap` as the current epoch and prunes result-cache
    /// entries of epochs retired by the publication.
    fn publish(&self, snap: EpochSnapshot) {
        let retired = self.epochs.publish(snap);
        self.prune_results(&retired);
    }

    /// Drops result-cache entries keyed by retired epochs.
    fn prune_results(&self, retired: &[u64]) {
        if retired.is_empty() {
            return;
        }
        let mut results = self.results.lock().expect("results lock");
        results.retain(|(e, _), _| !retired.contains(e));
    }

    /// Drops one reader pin and prunes the results of any epoch that
    /// retired with it.
    fn release_pin(&self, epoch: u64) {
        let retired = self.epochs.unpin(epoch);
        self.prune_results(&retired);
    }

    /// Folds a contention accessor over the setup and baseline runs (the
    /// two runs metered before `Metrics` accumulates anything).
    fn boot_contention(&self, f: impl Fn(&tricount_comm::ContentionSummary) -> f64) -> f64 {
        [&self.setup_stats, &self.baseline_stats]
            .iter()
            .filter_map(|s| s.contention.as_ref())
            .map(f)
            .sum()
    }

    /// Normalises a query to its cache key, validating vertex ids.
    fn key_of(&self, query: &Query) -> Result<QueryKey, EngineError> {
        match query {
            Query::GlobalTriangles { algorithm } => {
                Ok(QueryKey::Global(algorithm_index(*algorithm)))
            }
            Query::VertexLcc { vertices } => {
                for &v in vertices {
                    self.check_vertex(v)?;
                }
                Ok(QueryKey::LccFull)
            }
            Query::EdgeSupport { edges } => {
                for &(a, b) in edges {
                    self.check_vertex(a)?;
                    self.check_vertex(b)?;
                }
                Ok(QueryKey::Support(edges.clone()))
            }
            Query::ApproxTriangles { max_rel_error } => {
                Ok(QueryKey::Approx(bits_for_rel_error(*max_rel_error)))
            }
        }
    }

    fn check_vertex(&self, v: VertexId) -> Result<(), EngineError> {
        if v < self.num_vertices {
            Ok(())
        } else {
            Err(EngineError::UnknownVertex {
                vertex: v,
                num_vertices: self.num_vertices,
            })
        }
    }

    /// Executes one (epoch, key) job as a guarded distributed run against
    /// the pinned snapshot's prepared state. Returns the value, the run's
    /// statistics, its wall time and the per-rank kernel-dispatch tallies
    /// folded in rank order.
    fn compute(
        &self,
        snap: &EpochSnapshot,
        key: &QueryKey,
    ) -> Result<(CachedValue, RunStats, f64, DispatchReport), EngineError> {
        let started = Instant::now();
        match key {
            QueryKey::Global(idx) => {
                let alg = Algorithm::all()[*idx as usize];
                // Global queries run under the variant's own configuration,
                // but the serving-side kernel policy is the engine's.
                let mut cfg = alg.config();
                cfg.kernels = self.cfg.dist.kernels;
                let ranks = snap.ranks.clone();
                let out = self.run_ranks(move |ctx: &mut Ctx| {
                    exec_global(ctx, &ranks[ctx.rank()], alg, &cfg)
                })?;
                let wall = started.elapsed().as_secs_f64();
                let (count, report) = fold_counts(out.output.results)?;
                Ok((CachedValue::Count(count), out.output.stats, wall, report))
            }
            QueryKey::LccFull => {
                let ranks = snap.ranks.clone();
                let cfg = self.cfg.dist;
                let out = self.run_ranks(move |ctx: &mut Ctx| {
                    lcc::lcc_prepared(ctx, &ranks[ctx.rank()], &cfg)
                })?;
                let wall = started.elapsed().as_secs_f64();
                let mut per_vertex = Vec::with_capacity(snap.degrees.len());
                let mut report = DispatchReport::new();
                for (owned, d) in out.output.results {
                    per_vertex.extend(owned);
                    report.absorb(&d);
                }
                let full = lcc::normalize_lcc(&per_vertex, &snap.degrees);
                Ok((CachedValue::LccFull(full), out.output.stats, wall, report))
            }
            QueryKey::Support(edges) => {
                let ranks = snap.ranks.clone();
                let edges = Arc::new(edges.clone());
                let out = self.run_ranks(move |ctx: &mut Ctx| {
                    edge_support_rank(ctx, &ranks[ctx.rank()].local, &edges)
                })?;
                let wall = started.elapsed().as_secs_f64();
                let mut support = Vec::new();
                let mut report = DispatchReport::new();
                for (i, (s, d)) in out.output.results.into_iter().enumerate() {
                    if i == 0 {
                        support = s;
                    }
                    report.absorb(&d);
                }
                Ok((
                    CachedValue::Support(support),
                    out.output.stats,
                    wall,
                    report,
                ))
            }
            QueryKey::Approx(bits) => {
                let ranks = snap.ranks.clone();
                let cfg = self.cfg.dist;
                let acfg = ApproxConfig {
                    bits_per_key: *bits as f64,
                    filter: FilterKind::Bloom,
                };
                let out = self.run_ranks(move |ctx: &mut Ctx| {
                    approx_prepared(ctx, &ranks[ctx.rank()], &cfg, &acfg)
                })?;
                let wall = started.elapsed().as_secs_f64();
                let exact: u64 = out.output.results.iter().map(|r| r.exact_local).sum();
                let corrected: f64 = out
                    .output
                    .results
                    .iter()
                    .map(|r| r.type3_corrected)
                    .sum::<f64>()
                    .max(0.0);
                Ok((
                    CachedValue::Approx(exact as f64 + corrected, *bits as f64),
                    out.output.stats,
                    wall,
                    DispatchReport::new(),
                ))
            }
        }
    }
}

/// A tick's distinct jobs, claimed in order by its runners.
struct TickJobs {
    jobs: Vec<(Arc<EpochSnapshot>, QueryKey)>,
    next: AtomicUsize,
}

/// What [`EngineInner::compute`] returns for one job.
type JobOutcome = Result<(CachedValue, RunStats, f64, DispatchReport), EngineError>;

impl TickJobs {
    /// Claims and computes jobs until none is left; returns each with its
    /// index.
    fn drain(&self, inner: &EngineInner) -> Vec<(usize, JobOutcome)> {
        let mut out = Vec::new();
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            let Some((snap, key)) = self.jobs.get(i) else {
                return out;
            };
            out.push((i, inner.compute(snap, key)));
        }
    }
}

/// Computes a tick's jobs on up to `workers` runners — the calling thread
/// and `runners − 1` executor helpers — and returns the outcomes in job
/// order. A one-job tick hands nothing off. A helper's panic is re-raised
/// here.
fn run_jobs(
    inner: &Arc<EngineInner>,
    jobs: Vec<(Arc<EpochSnapshot>, QueryKey)>,
) -> Vec<JobOutcome> {
    let runners = inner.cfg.workers.clamp(1, jobs.len().max(1));
    let tick = Arc::new(TickJobs {
        jobs,
        next: AtomicUsize::new(0),
    });
    let (tx, rx) = mpsc::channel();
    for _ in 1..runners {
        let (helper, tick, tx) = (Arc::clone(inner), Arc::clone(&tick), tx.clone());
        inner.exec.spawn(
            move || tick.drain(&helper),
            move |done| {
                let _ = tx.send(done);
            },
        );
    }
    let mut done = tick.drain(inner);
    for _ in 1..runners {
        // Every helper's completion runs, whether its jobs returned or
        // panicked, and each job is a run under the watchdog: this wait
        // ends.
        // lint: allow(TC-L003)
        match rx.recv() {
            Ok(Ok(more)) => done.extend(more),
            Ok(Err(payload)) => std::panic::resume_unwind(payload),
            Err(_) => unreachable!("the tick holds a sender until every helper has sent"),
        }
    }
    done.sort_unstable_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, outcome)| outcome).collect()
}

/// One rank's program for a global-count query: the contraction variants
/// run directly on the resident prepared state; the others run
/// [`count_rank`] on a clone of the resident local graph, whose ghost
/// degrees are already known — so their preprocessing phase does no
/// communication. Returns the count plus this rank's kernel-dispatch
/// tallies.
fn exec_global(
    ctx: &mut Ctx,
    prep: &PreparedRank,
    alg: Algorithm,
    cfg: &DistConfig,
) -> Result<(u64, DispatchReport), DistError> {
    if alg.uses_contraction() {
        Ok(cetric::count_prepared(ctx, prep, cfg))
    } else {
        count_rank(ctx, prep.local.clone(), alg, cfg)
    }
}

/// Projects a cached full value onto the specific query's answer shape.
fn project(query: &Query, value: &CachedValue) -> QueryAnswer {
    match (query, value) {
        (Query::GlobalTriangles { .. }, CachedValue::Count(c)) => QueryAnswer::Count(*c),
        (Query::VertexLcc { vertices }, CachedValue::LccFull(full)) => {
            QueryAnswer::Lcc(vertices.iter().map(|&v| (v, full[v as usize])).collect())
        }
        (Query::EdgeSupport { edges }, CachedValue::Support(s)) => {
            QueryAnswer::Support(edges.iter().copied().zip(s.iter().copied()).collect())
        }
        (Query::ApproxTriangles { .. }, CachedValue::Approx(est, bits)) => QueryAnswer::Approx {
            estimate: *est,
            bits_per_key: *bits,
        },
        _ => unreachable!("query/key/value shapes are constructed in lockstep"),
    }
}

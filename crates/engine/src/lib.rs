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
//! concurrently on a `tricount-par` work-stealing pool, and results land in
//! an **epoch-keyed cache**. Each distributed run executes under the
//! deadlock watchdog (`tricount_comm::run_guarded`), so a wedged query
//! surfaces as [`EngineError::Dist`] carrying the wait-for-graph report
//! instead of taking the server down.
//!
//! # MVCC epochs: reads never wait on writes
//!
//! Every committed graph state is an immutable
//! `EpochSnapshot`: the prepared bases, the frozen update
//! overlays on top of them, the degree vector and the resident triangle
//! count. [`Engine::submit`] **pins** the snapshot current at admission;
//! the query runs against exactly that state no matter how many
//! [`Engine::apply_updates`] batches commit in the meantime — a waiting
//! query never observes a mid-batch epoch, and an update never blocks a
//! read (the engine handle is `Clone` + `Send` + `Sync`; ticks and updates
//! may run from different threads concurrently). A retire list
//! (`EpochTable`) frees a superseded epoch the moment its
//! last reader drains. Compaction — folding overlays into fresh prepared
//! state once they exceed [`EngineConfig::compaction_fraction`] of the
//! base, or lazily "sealing" a dirty snapshot the first time a query must
//! serve it — always *builds new* state; published snapshots are never
//! mutated, so folding is automatically restricted to state no pinned
//! reader can still observe.
//!
//! The graph itself is **dynamic**: [`Engine::apply_updates`] applies a
//! batched set of edge insertions/deletions through the distributed delta
//! protocol (`tricount_core::dist::delta`), maintaining the resident
//! triangle count ([`Engine::resident_triangles`]) incrementally instead
//! of recounting, and publishing the result as the next epoch. Queries
//! submitted afterwards see the updated graph; queries already admitted
//! keep their pinned pre-update snapshot.
//!
//! Many tenants can share one process (and one worker pool) through an
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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tricount_comm::{run_guarded, run_sim, CostModel, Counters, Ctx, RunStats, SimOptions};
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
use tricount_par::{Pool, WorkerStats};

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
    /// Workers of the intra-engine pool executing distinct cache keys
    /// concurrently.
    pub workers: usize,
    /// Deadlock-watchdog timeout for every distributed query run.
    pub watchdog: Duration,
    /// Perturb message delivery / thread interleaving of query runs under
    /// this seed (`None` = natural schedule). Answers are schedule
    /// independent; the determinism tests exercise exactly this knob.
    pub perturb_seed: Option<u64>,
    /// Compaction trigger: once the summed per-rank overlay entries exceed
    /// this fraction of the base adjacency entries,
    /// [`Engine::apply_updates`] folds the overlays into the next epoch's
    /// prepared state (a communication-free re-orient + re-contract).
    pub compaction_fraction: f64,
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
            compaction_fraction: 0.25,
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
    /// Overlay size as a fraction of the base after the batch (before any
    /// triggered compaction).
    pub overlay_fraction: f64,
    /// Whether this batch triggered a compaction.
    pub compacted: bool,
    /// Communication totals of the update run (route + count + refresh;
    /// excludes any compaction).
    pub comm: Counters,
    /// Modeled α+β+t_op time of the update run.
    pub modeled_seconds: f64,
    /// Wall time of the update run on the host.
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
    compactions: u64,
    update_comm: Counters,
    compaction_comm: Counters,
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
    /// Accumulated intra-engine pool counters.
    pool_workers: Vec<WorkerStats>,
    /// Runs that carried wall-clock contention meters.
    profiled_runs: u64,
    /// Summed queue lock-wait seconds over all profiled runs.
    lock_wait_seconds_total: f64,
    /// Summed barrier spin seconds over all profiled runs.
    barrier_spin_seconds_total: f64,
    /// Wall events dropped to ring overflow over all profiled runs.
    wall_events_dropped: u64,
    /// Lifecycle spans (batch/admit/run/answer per tick).
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
    pool: Arc<Pool>,
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
        let pool = Arc::new(Pool::new(cfg.workers.max(1)));
        Self::build_with_pool(g, cfg, pool)
    }

    /// Like [`build`](Engine::build), but executing on a caller-provided
    /// pool — the multi-tenant [`EngineHost`] shares one pool across every
    /// tenant engine.
    pub fn build_with_pool(g: &Csr, cfg: EngineConfig, pool: Arc<Pool>) -> Engine {
        assert!(cfg.num_ranks >= 1, "need at least one PE");
        assert!(cfg.queue_capacity >= 1, "queue capacity must be positive");
        assert!(cfg.batch_max >= 1, "batch size must be positive");
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
        let resident_triangles = baseline.output.results[0];
        let overlay: Vec<Overlay> = ranks.iter().map(|r| Overlay::for_local(&r.local)).collect();
        let first = EpochSnapshot::new(
            0,
            ranks,
            Arc::new(overlay),
            Arc::new(degrees),
            resident_triangles,
        );
        Engine {
            inner: Arc::new(EngineInner {
                num_vertices: g.num_vertices(),
                epochs: EpochTable::new(first),
                pending: Mutex::new(VecDeque::new()),
                results: Mutex::new(BTreeMap::new()),
                pool,
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

    /// Whether the current epoch's overlay holds deltas not yet folded
    /// into prepared serving state. Queries seal the snapshot they pin
    /// (folding once, memoized), so this being `true` never makes an
    /// answer stale.
    pub fn is_dirty(&self) -> bool {
        let tip = self.inner.epochs.current();
        !tip.is_clean() && tip.sealed_peek().is_none()
    }

    /// Summed overlay entries across ranks awaiting a fold (0 when clean
    /// or already sealed into serving state).
    pub fn overlay_entries(&self) -> u64 {
        let tip = self.inner.epochs.current();
        if tip.is_clean() || tip.sealed_peek().is_some() {
            0
        } else {
            tip.overlay_entries
        }
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
    /// (epoch, key) jobs execute concurrently on the engine's
    /// work-stealing pool. Freshly computed values enter the epoch-keyed
    /// cache, so an identical later query at the same epoch is a cache
    /// hit. A dirty pinned snapshot is sealed first (its frozen overlay
    /// folded into serving state, once, memoized in the snapshot).
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

        // Seal every distinct pinned snapshot up front, so all jobs of
        // this tick run against folded serving state. A failed seal (watchdog-killed fold)
        // fails only the tickets pinned to that epoch — tickets on other
        // epochs, sealed or already clean, still get answers.
        let mut serving: BTreeMap<u64, Arc<Vec<PreparedRank>>> = BTreeMap::new();
        let mut seal_failures: BTreeMap<u64, EngineError> = BTreeMap::new();
        for (t, key) in &keyed {
            let e = t.snapshot.epoch;
            if key.is_ok() && !serving.contains_key(&e) && !seal_failures.contains_key(&e) {
                match inner.serving_ranks(&t.snapshot, batch_index) {
                    Ok(r) => {
                        serving.insert(e, r);
                    }
                    Err(err) => {
                        seal_failures.insert(e, err);
                    }
                }
            }
        }

        // The batch's distinct, uncached (epoch, key) jobs — each computed
        // exactly once.
        let mut jobs: Vec<(Arc<EpochSnapshot>, Arc<Vec<PreparedRank>>, QueryKey)> = Vec::new();
        {
            let results = inner.results.lock().expect("results lock");
            for (t, key) in &keyed {
                if let Ok(k) = key {
                    let e = t.snapshot.epoch;
                    let Some(ranks) = serving.get(&e) else {
                        continue; // this epoch's seal failed
                    };
                    if !results.contains_key(&(e, k.clone()))
                        && !jobs.iter().any(|(s, _, jk)| s.epoch == e && jk == k)
                    {
                        jobs.push((t.snapshot.clone(), ranks.clone(), k.clone()));
                    }
                }
            }
        }
        let admit_end = inner.now_nanos();

        // Concurrent execution of distinct jobs (scoped threads; the
        // closure only borrows the resident state).
        let (task_results, pool_stats) = inner
            .pool
            .run_tasks_stats(jobs.clone(), |_, (snap, ranks, key)| {
                inner.compute(&snap, &ranks, &key)
            });
        let computed: Vec<_> = task_results.into_iter().map(|tr| tr.result).collect();
        let run_end = inner.now_nanos();

        // Fold results into cache and metrics.
        let cost = CostModel::default();
        let mut failures: BTreeMap<(u64, QueryKey), EngineError> = BTreeMap::new();
        let mut run_costs: BTreeMap<(u64, QueryKey), (f64, f64)> = BTreeMap::new();
        {
            let mut m = inner.metrics.lock().expect("metrics lock");
            if m.pool_workers.len() < pool_stats.workers.len() {
                m.pool_workers
                    .resize(pool_stats.workers.len(), WorkerStats::default());
            }
            for (acc, w) in m.pool_workers.iter_mut().zip(&pool_stats.workers) {
                acc.absorb(w);
            }
            for ((snap, _ranks, key), outcome) in jobs.into_iter().zip(computed) {
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
                        if let Some(e) = seal_failures.get(&epoch) {
                            Err(e.clone())
                        } else if let Some(e) = failures.get(&(epoch, k.clone())) {
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
        // Promote a memoized seal: the new epoch starts from the folded
        // state with a clean overlay, so the fold is never repeated.
        let (ranks, overlay) = match tip.sealed_peek() {
            Some(sealed) if !tip.is_clean() => {
                let fresh: Vec<Overlay> = sealed
                    .iter()
                    .map(|r| Overlay::for_local(&r.local))
                    .collect();
                (sealed, Arc::new(fresh))
            }
            _ => (tip.ranks.clone(), tip.overlay.clone()),
        };
        let next_epoch = tip.epoch + 1;
        let next = EpochSnapshot::new(
            next_epoch,
            ranks,
            overlay,
            tip.degrees.clone(),
            tip.triangles,
        );
        let retired = inner.epochs.publish(next);
        inner.prune_results(&retired);
    }

    /// Applies a batch of edge insertions/deletions to the resident graph
    /// through the distributed delta protocol, maintaining
    /// [`resident_triangles`](Engine::resident_triangles) incrementally:
    /// the batch is canonicalised, routed to the owning ranks, filtered
    /// for no-ops, and the exact triangle delta is counted as distributed
    /// intersections with same-batch corrections — no recount. The result
    /// is **published as a new epoch** iff the graph changed: queries
    /// admitted earlier keep their pinned snapshot and never observe the
    /// mid-batch state, queries admitted later see the update. Overlays
    /// exceeding [`EngineConfig::compaction_fraction`] of the base are
    /// folded into the new epoch's prepared state before publication
    /// (never into a published snapshot).
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
                overlay_fraction: 0.0,
                compacted: false,
                comm: Counters::default(),
                modeled_seconds: 0.0,
                wall_seconds: 0.0,
            });
        }
        let p = inner.cfg.num_ranks;
        let opts = inner.run_opts();
        let update_begin = inner.now_nanos();
        let started = Instant::now();
        // Base state of the next epoch: the tip's memoized seal when a
        // query already folded its overlay (the fold is never repeated —
        // tip-seal promotion), otherwise the tip's bases plus a thawed
        // copy of its frozen overlay. The tip snapshot itself is never
        // touched: pinned readers keep serving from it.
        let (base_ranks, thawed): (Arc<Vec<PreparedRank>>, Vec<Overlay>) = match tip.sealed_peek() {
            Some(sealed) if !tip.is_clean() => {
                let fresh = sealed
                    .iter()
                    .map(|r| Overlay::for_local(&r.local))
                    .collect();
                (sealed, fresh)
            }
            _ => (tip.ranks.clone(), (*tip.overlay).clone()),
        };
        let overlays: Arc<Vec<Mutex<Overlay>>> =
            Arc::new(thawed.into_iter().map(Mutex::new).collect());
        let dist = inner.cfg.dist;
        let canonical = Arc::new(canonical);
        let run_ranks = base_ranks.clone();
        let run_overlays = overlays.clone();
        let out = run_guarded(p, &opts, inner.cfg.watchdog, move |ctx: &mut Ctx| {
            let mut ov = run_overlays[ctx.rank()].lock().expect("overlay lock");
            delta_dist::apply_batch_rank(
                ctx,
                &run_ranks[ctx.rank()].local,
                &mut ov,
                &canonical,
                &dist,
            )
        })
        .map_err(DistError::from)?;
        let wall = started.elapsed().as_secs_f64();
        let stats = out.output.stats;
        let outcomes = out.output.results;

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

        let global = &outcomes[0];
        let triangles_after = triangles_before + global.triangles_added - global.triangles_removed;
        let changed = global.inserted + global.deleted > 0;
        let overlay_entries: u64 = outcomes.iter().map(|o| o.overlay_entries).sum();
        let base_entries: u64 = outcomes.iter().map(|o| o.base_entries).sum();
        let overlay_fraction = overlay_entries as f64 / base_entries.max(1) as f64;

        let totals = stats.totals();
        let modeled = stats.modeled_time(&CostModel::default());
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
        }

        let receipt = |epoch: u64, compacted: bool| UpdateReceipt {
            epoch,
            inserted: global.inserted,
            deleted: global.deleted,
            noops: global.noops,
            triangles_before,
            triangles_after,
            overlay_fraction,
            compacted,
            comm: totals,
            modeled_seconds: modeled,
            wall_seconds: wall,
        };

        if !changed {
            // Every op was a no-op: the graph and overlays are unchanged,
            // so no new epoch.
            return Ok(receipt(tip.epoch, false));
        }

        // Take the worked overlays back out of their run cells (rank
        // threads may outlive the run for a few microseconds, so sole
        // ownership cannot be assumed — fall back to clone).
        let worked: Vec<Overlay> = match Arc::try_unwrap(overlays) {
            Ok(cells) => cells
                .into_iter()
                .map(|c| c.into_inner().expect("overlay cell"))
                .collect(),
            Err(shared) => shared
                .iter()
                .map(|c| c.lock().expect("overlay cell").clone())
                .collect(),
        };

        // Fold into the next epoch's bases when over threshold. Published
        // snapshots are never mutated: the fold output only ever becomes
        // the *new* epoch.
        let compacted = overlay_entries > 0 && overlay_fraction > inner.cfg.compaction_fraction;
        let (next_ranks, next_overlay) = if compacted {
            let begin = inner.now_nanos();
            let folded = match inner.fold_overlays(base_ranks.clone(), worked.clone()) {
                Ok(r) => Arc::new(r),
                Err(e) => {
                    // The update itself committed; publish it uncompacted
                    // and surface the fold failure (watchdog kill) as the
                    // call's error, mirroring the pre-MVCC behaviour.
                    inner.publish_update(
                        tip.epoch + 1,
                        base_ranks,
                        worked,
                        &degrees,
                        triangles_after,
                    );
                    return Err(e);
                }
            };
            let fresh: Vec<Overlay> = folded
                .iter()
                .map(|r| Overlay::for_local(&r.local))
                .collect();
            let mut m = inner.metrics.lock().expect("metrics lock");
            m.compactions += 1;
            let end = inner.now_nanos();
            let batch_index = m.batches;
            m.spans.push(EngineSpan {
                label: "compaction",
                batch: batch_index,
                begin_nanos: begin,
                end_nanos: end,
            });
            (folded, fresh)
        } else {
            (base_ranks, worked)
        };

        inner.publish_update(
            tip.epoch + 1,
            next_ranks,
            next_overlay,
            &degrees,
            triangles_after,
        );
        Ok(receipt(tip.epoch + 1, compacted))
    }

    /// Snapshots aggregate and per-query serving statistics.
    pub fn stats(&self) -> EngineStats {
        let inner = &self.inner;
        let epochs = inner.epochs.counts();
        let tip = inner.epochs.current();
        let queue_depth = self.queue_depth();
        let cache_entries = inner.results.lock().expect("results lock").len();
        // Read before taking the metrics lock: overlay_entries peeks the
        // tip's sealed mutex, which a lazy seal holds across its fold —
        // and the fold records into metrics (sealed → metrics). Holding
        // metrics while touching sealed would invert that order and
        // deadlock against an in-flight seal.
        let overlay_entries = self.overlay_entries();
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
            compactions: m.compactions,
            overlay_entries,
            epochs_live: epochs.live,
            epochs_retired: epochs.retired,
            readers_pinned: epochs.readers_pinned,
            epoch_lifetime,
            update_comm: m.update_comm,
            compaction_comm: m.compaction_comm,
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
            pool: m.pool_workers.clone(),
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
    /// per-worker pool counters. Suitable for `serve --metrics-out` or a
    /// scrape endpoint.
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
        reg.counter(
            "tricount_engine_compactions_total",
            "Overlay folds performed (threshold-triggered or lazy seals)",
            snapshot.compactions,
        );
        reg.gauge(
            "tricount_engine_resident_triangles",
            "Incrementally maintained global triangle count",
            snapshot.resident_triangles as f64,
        );
        reg.gauge(
            "tricount_engine_overlay_entries",
            "Summed per-rank overlay entries awaiting a fold",
            snapshot.overlay_entries as f64,
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
        for (i, w) in snapshot.pool.iter().enumerate() {
            let worker = [("worker", i.to_string())];
            reg.counter_with(
                "tricount_engine_pool_executed_total",
                "Query tasks executed per pool worker",
                &worker,
                w.executed,
            );
            reg.counter_with(
                "tricount_engine_pool_steals_attempted_total",
                "Steal probes per pool worker",
                &worker,
                w.steals_attempted,
            );
            reg.counter_with(
                "tricount_engine_pool_steals_succeeded_total",
                "Successful steals per pool worker",
                &worker,
                w.steals_succeeded,
            );
        }
        reg.render()
    }
}

impl EngineInner {
    /// Wall nanoseconds since the engine was built.
    #[inline]
    fn now_nanos(&self) -> u64 {
        self.born.elapsed().as_nanos() as u64
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

    /// Publishes the update's result as epoch `next_epoch` and prunes
    /// result-cache entries of epochs retired by the publication.
    fn publish_update(
        &self,
        next_epoch: u64,
        ranks: Arc<Vec<PreparedRank>>,
        overlay: Vec<Overlay>,
        degrees: &[u64],
        triangles: u64,
    ) {
        let snap = EpochSnapshot::new(
            next_epoch,
            ranks,
            Arc::new(overlay),
            Arc::new(degrees.to_vec()),
            triangles,
        );
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

    /// Prepared state serving `snap`: the bases when clean, the memoized
    /// seal when present, otherwise folds the frozen overlay now (exactly
    /// once per snapshot — concurrent callers block on the seal lock and
    /// reuse the result). A fresh fold counts as a compaction and records a
    /// "seal" span.
    fn serving_ranks(
        &self,
        snap: &Arc<EpochSnapshot>,
        batch_index: u64,
    ) -> Result<Arc<Vec<PreparedRank>>, EngineError> {
        if let Some(ready) = snap.serving_if_ready() {
            return Ok(ready);
        }
        let begin = self.now_nanos();
        let (serving, sealed_now) =
            snap.seal(|ranks, overlays| self.fold_overlays(ranks, overlays))?;
        if sealed_now {
            let mut m = self.metrics.lock().expect("metrics lock");
            m.compactions += 1;
            let end = self.now_nanos();
            m.spans.push(EngineSpan {
                label: "seal",
                batch: batch_index,
                begin_nanos: begin,
                end_nanos: end,
            });
        }
        Ok(serving)
    }

    /// Folds every rank's overlay into fresh prepared state: merge the
    /// delta lists into a new base, re-orient, re-contract. No
    /// communication — the update protocol kept ghost degrees current for
    /// every touched vertex. The inputs are owned/shared copies; no
    /// published state is mutated.
    fn fold_overlays(
        &self,
        ranks: Arc<Vec<PreparedRank>>,
        overlays: Vec<Overlay>,
    ) -> Result<Vec<PreparedRank>, EngineError> {
        let p = self.cfg.num_ranks;
        let opts = self.run_opts();
        let cells: Arc<Vec<Mutex<Overlay>>> =
            Arc::new(overlays.into_iter().map(Mutex::new).collect());
        let dist = self.cfg.dist;
        let out = run_guarded(p, &opts, self.cfg.watchdog, move |ctx: &mut Ctx| {
            let mut ov = cells[ctx.rank()].lock().expect("overlay lock");
            delta_dist::compact_rank(ctx, &ranks[ctx.rank()], &mut ov, &dist)
        })
        .map_err(DistError::from)?;
        let mut m = self.metrics.lock().expect("metrics lock");
        m.absorb_contention(&out.output.stats);
        m.compaction_comm.absorb(&out.output.stats.totals());
        Ok(out.output.results)
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
    /// the pinned snapshot's serving state. Returns the value, the run's
    /// statistics, its wall time and the per-rank kernel-dispatch tallies
    /// folded in rank order.
    fn compute(
        &self,
        snap: &EpochSnapshot,
        serving: &Arc<Vec<PreparedRank>>,
        key: &QueryKey,
    ) -> Result<(CachedValue, RunStats, f64, DispatchReport), EngineError> {
        let p = self.cfg.num_ranks;
        let opts = self.run_opts();
        let started = Instant::now();
        match key {
            QueryKey::Global(idx) => {
                let alg = Algorithm::all()[*idx as usize];
                // Global queries run under the variant's own configuration,
                // but the serving-side kernel policy is the engine's.
                let mut cfg = alg.config();
                cfg.kernels = self.cfg.dist.kernels;
                let ranks = serving.clone();
                let out = run_guarded(p, &opts, self.cfg.watchdog, move |ctx: &mut Ctx| {
                    exec_global(ctx, &ranks[ctx.rank()], alg, &cfg)
                })
                .map_err(DistError::from)?;
                let wall = started.elapsed().as_secs_f64();
                let (count, report) = fold_counts(out.output.results)?;
                Ok((CachedValue::Count(count), out.output.stats, wall, report))
            }
            QueryKey::LccFull => {
                let ranks = serving.clone();
                let cfg = self.cfg.dist;
                let out = run_guarded(p, &opts, self.cfg.watchdog, move |ctx: &mut Ctx| {
                    lcc::lcc_prepared(ctx, &ranks[ctx.rank()], &cfg)
                })
                .map_err(DistError::from)?;
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
                let ranks = serving.clone();
                let edges = Arc::new(edges.clone());
                let out = run_guarded(p, &opts, self.cfg.watchdog, move |ctx: &mut Ctx| {
                    edge_support_rank(ctx, &ranks[ctx.rank()].local, &edges)
                })
                .map_err(DistError::from)?;
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
                let ranks = serving.clone();
                let cfg = self.cfg.dist;
                let acfg = ApproxConfig {
                    bits_per_key: *bits as f64,
                    filter: FilterKind::Bloom,
                };
                let out = run_guarded(p, &opts, self.cfg.watchdog, move |ctx: &mut Ctx| {
                    approx_prepared(ctx, &ranks[ctx.rank()], &cfg, &acfg)
                })
                .map_err(DistError::from)?;
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

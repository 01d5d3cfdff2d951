//! Multi-tenant serving: many resident graphs per process behind one
//! shared executor.
//!
//! An [`EngineHost`] maps tenant names to [`Engine`]s that all run on a
//! single `tricount-par` [`Executor`], so one process can hold many
//! resident graphs without `tenants × workers × p` parked threads: the
//! executor grows to the most runs in flight at once, not to the number of
//! tenants. Admission is
//! two-level: a **global** in-flight budget protects the process, a
//! **per-tenant quota** stops one tenant from starving the rest — both
//! reject with [`HostError::Overloaded`] (explicit backpressure) rather
//! than queueing unboundedly. Work is drained from one concurrent job
//! queue either synchronously ([`EngineHost::drain`], deterministic — for
//! tests and closed-loop benches) or by a background
//! [`serve`](EngineHost::serve) loop of worker threads; because every
//! engine is an MVCC handle, a worker ticking tenant A's queries never
//! blocks on another worker applying updates to A (or to anyone else) —
//! reads are answered against the epoch snapshot pinned at admission.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use tricount_delta::UpdateBatch;
use tricount_graph::Csr;
use tricount_obs::MetricsRegistry;
use tricount_par::Executor;

use crate::query::{EngineError, Query, QueryAnswer, TicketId};
use crate::{Engine, EngineConfig, UpdateReceipt};

/// Configuration of an [`EngineHost`].
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Runners per tenant tick: replaces each tenant's
    /// [`EngineConfig::workers`], so every tenant ticks on the same width
    /// of the shared executor.
    pub pool_workers: usize,
    /// Threads of the background [`serve`](EngineHost::serve) loop. With
    /// two or more, one tenant's update batch and another tenant's (or
    /// the same tenant's) query ticks proceed concurrently.
    pub serve_workers: usize,
    /// Global admission budget: queries in flight (admitted, not yet
    /// answered) across all tenants.
    pub global_inflight: usize,
    /// Per-tenant quota within the global budget.
    pub tenant_quota: usize,
}

impl HostConfig {
    /// A sensible default host: 4 runners per tick, 2 serve workers, a global
    /// budget of 64 in-flight queries with a per-tenant quota of 16.
    pub fn new() -> HostConfig {
        HostConfig {
            pool_workers: 4,
            serve_workers: 2,
            global_inflight: 64,
            tenant_quota: 16,
        }
    }
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig::new()
    }
}

/// A request routed to a tenant engine.
#[derive(Debug, Clone)]
pub enum HostRequest {
    /// A read: admitted under the budgets, answered asynchronously.
    Query {
        /// Tenant to route to.
        tenant: String,
        /// The query.
        query: Query,
    },
    /// A write: an edge-update batch for the tenant's graph.
    Update {
        /// Tenant to route to.
        tenant: String,
        /// The batch.
        batch: UpdateBatch,
    },
}

/// A completed request, drained via [`EngineHost::poll`].
#[derive(Debug, Clone)]
pub enum HostReply {
    /// A query answer.
    Answer {
        /// Tenant the query ran against.
        tenant: String,
        /// Ticket returned by the accepting submit.
        ticket: TicketId,
        /// Epoch the answer was computed at (the one pinned at admission).
        epoch: u64,
        /// The answer.
        result: Result<QueryAnswer, EngineError>,
    },
    /// An update receipt.
    Receipt {
        /// Tenant the batch was applied to.
        tenant: String,
        /// The receipt.
        result: Result<UpdateReceipt, EngineError>,
    },
}

/// Why the host refused a request.
#[derive(Debug, Clone, PartialEq)]
pub enum HostError {
    /// No tenant under that name.
    UnknownTenant {
        /// The name requested.
        tenant: String,
    },
    /// A tenant under that name already exists.
    DuplicateTenant {
        /// The name requested.
        tenant: String,
    },
    /// An admission budget is exhausted; back off and resubmit.
    Overloaded {
        /// Tenant of the rejected request.
        tenant: String,
        /// In-flight queries counted against the exhausted budget.
        inflight: u64,
        /// The exhausted budget.
        limit: u64,
        /// Whether the *global* budget rejected (otherwise the tenant
        /// quota did).
        global: bool,
    },
    /// The tenant engine itself rejected the submission.
    Engine(EngineError),
}

impl std::fmt::Display for HostError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HostError::UnknownTenant { tenant } => write!(f, "unknown tenant {tenant:?}"),
            HostError::DuplicateTenant { tenant } => write!(f, "tenant {tenant:?} already exists"),
            HostError::Overloaded {
                tenant,
                inflight,
                limit,
                global,
            } => {
                let scope = if *global {
                    "global budget"
                } else {
                    "tenant quota"
                };
                write!(
                    f,
                    "overloaded: {scope} exhausted for {tenant:?} ({inflight}/{limit} in flight)"
                )
            }
            HostError::Engine(e) => write!(f, "engine: {e}"),
        }
    }
}

impl std::error::Error for HostError {}

impl From<EngineError> for HostError {
    fn from(e: EngineError) -> HostError {
        HostError::Engine(e)
    }
}

/// Per-tenant serving counters, snapshotted by [`EngineHost::stats`].
#[derive(Debug, Clone)]
pub struct TenantStats {
    /// Tenant name.
    pub tenant: String,
    /// Queries accepted for this tenant.
    pub submitted: u64,
    /// Requests rejected by quota/budget/engine admission.
    pub rejected: u64,
    /// Answers delivered.
    pub answered: u64,
    /// Update batches applied.
    pub updates: u64,
    /// Queries in flight right now (admitted, not yet answered).
    pub inflight: u64,
    /// The tenant engine's queue depth.
    pub queue_depth: usize,
    /// The tenant engine's current epoch.
    pub epoch: u64,
    /// Epoch snapshots alive in the tenant engine.
    pub epochs_live: u64,
    /// Readers pinning a snapshot in the tenant engine.
    pub readers_pinned: u64,
    /// The tenant's resident triangle count.
    pub resident_triangles: u64,
}

/// Host-level snapshot: the global gauges plus one entry per tenant.
#[derive(Debug, Clone)]
pub struct HostStats {
    /// Tenants registered.
    pub tenants: usize,
    /// Queries in flight across all tenants.
    pub inflight: u64,
    /// The global in-flight budget.
    pub global_inflight: usize,
    /// The per-tenant quota.
    pub tenant_quota: usize,
    /// Per-tenant counters, in name order.
    pub per_tenant: Vec<TenantStats>,
}

struct Tenant {
    engine: Engine,
    inflight: u64,
    submitted: u64,
    rejected: u64,
    answered: u64,
    updates: u64,
}

/// A unit of work for the serve loop.
enum Job {
    /// Tick one tenant's engine (drains up to its `batch_max`).
    Tick { tenant: String },
    /// Apply one update batch to a tenant's engine.
    Update { tenant: String, batch: UpdateBatch },
}

struct HostInner {
    cfg: HostConfig,
    exec: Executor,
    tenants: Mutex<BTreeMap<String, Tenant>>,
    jobs: Mutex<VecDeque<Job>>,
    /// Signals serve workers that a job (or stop) is available.
    available: Condvar,
    replies: Mutex<VecDeque<HostReply>>,
    /// Queries in flight across all tenants (the global budget's meter).
    inflight: AtomicU64,
    stop: AtomicBool,
}

/// Many tenant engines behind one executor, one admission policy and one
/// serve loop. Cheap to clone; clones share the host.
#[derive(Clone)]
pub struct EngineHost {
    inner: Arc<HostInner>,
}

impl EngineHost {
    /// Creates an empty host: no tenants, a fresh shared executor.
    pub fn new(cfg: HostConfig) -> EngineHost {
        EngineHost {
            inner: Arc::new(HostInner {
                exec: Executor::new(),
                tenants: Mutex::new(BTreeMap::new()),
                jobs: Mutex::new(VecDeque::new()),
                available: Condvar::new(),
                replies: Mutex::new(VecDeque::new()),
                inflight: AtomicU64::new(0),
                stop: AtomicBool::new(false),
                cfg,
            }),
        }
    }

    /// Registers `name` with its own resident graph, served on the shared
    /// executor with [`HostConfig::pool_workers`] runners per tick. The
    /// engine pays its one-time setup here.
    pub fn add_tenant(&self, name: &str, g: &Csr, cfg: EngineConfig) -> Result<(), HostError> {
        let cfg = EngineConfig {
            workers: self.inner.cfg.pool_workers,
            ..cfg
        };
        let engine = Engine::build_on(g, cfg, self.inner.exec.clone());
        let mut tenants = self.inner.tenants.lock().expect("tenants lock");
        if tenants.contains_key(name) {
            return Err(HostError::DuplicateTenant {
                tenant: name.to_string(),
            });
        }
        tenants.insert(
            name.to_string(),
            Tenant {
                engine,
                inflight: 0,
                submitted: 0,
                rejected: 0,
                answered: 0,
                updates: 0,
            },
        );
        Ok(())
    }

    /// A clone of a tenant's engine handle (same shared state — useful
    /// for direct stats/Prometheus access in tests and the CLI).
    pub fn tenant_engine(&self, name: &str) -> Result<Engine, HostError> {
        let tenants = self.inner.tenants.lock().expect("tenants lock");
        tenants
            .get(name)
            .map(|t| t.engine.clone())
            .ok_or_else(|| HostError::UnknownTenant {
                tenant: name.to_string(),
            })
    }

    /// Routes a request. Queries pass the global budget, then the tenant
    /// quota, then the tenant engine's own admission control, and return
    /// the accepting ticket; the answer arrives via [`poll`](Self::poll)
    /// once a drain/serve worker ticks the tenant. Updates are always
    /// enqueued (writers are bounded by the serve loop itself, not the
    /// read budgets) and complete as a [`HostReply::Receipt`].
    pub fn submit(&self, request: HostRequest) -> Result<Option<TicketId>, HostError> {
        let inner = &self.inner;
        match request {
            HostRequest::Query { tenant, query } => {
                let mut tenants = inner.tenants.lock().expect("tenants lock");
                let t = tenants
                    .get_mut(&tenant)
                    .ok_or_else(|| HostError::UnknownTenant {
                        tenant: tenant.clone(),
                    })?;
                let global_now = inner.inflight.load(Ordering::Relaxed);
                if global_now >= inner.cfg.global_inflight as u64 {
                    t.rejected += 1;
                    return Err(HostError::Overloaded {
                        tenant,
                        inflight: global_now,
                        limit: inner.cfg.global_inflight as u64,
                        global: true,
                    });
                }
                if t.inflight >= inner.cfg.tenant_quota as u64 {
                    t.rejected += 1;
                    return Err(HostError::Overloaded {
                        tenant,
                        inflight: t.inflight,
                        limit: inner.cfg.tenant_quota as u64,
                        global: false,
                    });
                }
                match t.engine.submit(query) {
                    Ok(id) => {
                        t.inflight += 1;
                        t.submitted += 1;
                        inner.inflight.fetch_add(1, Ordering::Relaxed);
                        drop(tenants);
                        self.push_job(Job::Tick { tenant });
                        Ok(Some(id))
                    }
                    Err(e) => {
                        t.rejected += 1;
                        Err(HostError::Engine(e))
                    }
                }
            }
            HostRequest::Update { tenant, batch } => {
                let tenants = inner.tenants.lock().expect("tenants lock");
                if !tenants.contains_key(&tenant) {
                    return Err(HostError::UnknownTenant { tenant });
                }
                drop(tenants);
                self.push_job(Job::Update { tenant, batch });
                Ok(None)
            }
        }
    }

    /// Drains every completed reply accumulated so far.
    pub fn poll(&self) -> Vec<HostReply> {
        self.inner
            .replies
            .lock()
            .expect("replies lock")
            .drain(..)
            .collect()
    }

    /// Executes queued jobs on the calling thread until the queue is
    /// empty — the deterministic single-threaded path for tests and
    /// benches. Returns the number of jobs executed.
    pub fn drain(&self) -> usize {
        let mut executed = 0;
        while let Some(job) = self.pop_job() {
            self.run_job(job);
            executed += 1;
        }
        executed
    }

    /// Starts `serve_workers` background threads draining the job queue
    /// concurrently: with two or more workers, one tenant's update and
    /// another's query ticks overlap — the MVCC engines make that safe.
    /// Stop (and join) via [`ServeHandle::stop`].
    pub fn serve(&self) -> ServeHandle {
        self.inner.stop.store(false, Ordering::SeqCst);
        let threads = (0..self.inner.cfg.serve_workers.max(1))
            .map(|_| {
                let host = self.clone();
                std::thread::spawn(move || host.serve_loop())
            })
            .collect();
        ServeHandle {
            host: self.clone(),
            threads,
        }
    }

    /// Host-level and per-tenant snapshot. The tenants lock is held only
    /// long enough to copy the host-side counters and clone the engine
    /// handles; per-engine stats run unlocked, so a slow tenant snapshot
    /// never blocks submissions to the others.
    pub fn stats(&self) -> HostStats {
        let inner = &self.inner;
        let snapshot: Vec<(TenantStats, Engine)> = {
            let tenants = inner.tenants.lock().expect("tenants lock");
            tenants
                .iter()
                .map(|(name, t)| {
                    (
                        TenantStats {
                            tenant: name.clone(),
                            submitted: t.submitted,
                            rejected: t.rejected,
                            answered: t.answered,
                            updates: t.updates,
                            inflight: t.inflight,
                            queue_depth: 0,
                            epoch: 0,
                            epochs_live: 0,
                            readers_pinned: 0,
                            resident_triangles: 0,
                        },
                        t.engine.clone(),
                    )
                })
                .collect()
        };
        let per_tenant: Vec<TenantStats> = snapshot
            .into_iter()
            .map(|(mut t, engine)| {
                let es = engine.stats();
                t.queue_depth = es.queue_depth;
                t.epoch = es.epoch;
                t.epochs_live = es.epochs_live;
                t.readers_pinned = es.readers_pinned;
                t.resident_triangles = es.resident_triangles;
                t
            })
            .collect();
        HostStats {
            tenants: per_tenant.len(),
            inflight: inner.inflight.load(Ordering::Relaxed),
            global_inflight: inner.cfg.global_inflight,
            tenant_quota: inner.cfg.tenant_quota,
            per_tenant,
        }
    }

    /// Renders host metrics in the Prometheus text exposition format:
    /// global gauges plus every per-tenant counter labelled
    /// `{tenant="..."}`.
    pub fn prometheus(&self) -> String {
        let s = self.stats();
        let mut reg = MetricsRegistry::new();
        reg.gauge(
            "tricount_host_tenants",
            "Tenant engines registered",
            s.tenants as f64,
        );
        reg.gauge(
            "tricount_host_inflight",
            "Queries in flight across all tenants",
            s.inflight as f64,
        );
        reg.gauge(
            "tricount_host_global_inflight_limit",
            "Global admission budget",
            s.global_inflight as f64,
        );
        reg.gauge(
            "tricount_host_tenant_quota",
            "Per-tenant admission quota",
            s.tenant_quota as f64,
        );
        for t in &s.per_tenant {
            let label = [("tenant", t.tenant.clone())];
            reg.counter_with(
                "tricount_host_submitted_total",
                "Queries accepted per tenant",
                &label,
                t.submitted,
            );
            reg.counter_with(
                "tricount_host_rejected_total",
                "Requests rejected per tenant (budget, quota or engine)",
                &label,
                t.rejected,
            );
            reg.counter_with(
                "tricount_host_answered_total",
                "Answers delivered per tenant",
                &label,
                t.answered,
            );
            reg.counter_with(
                "tricount_host_updates_total",
                "Update batches applied per tenant",
                &label,
                t.updates,
            );
            reg.gauge_with(
                "tricount_host_tenant_inflight",
                "Queries in flight per tenant",
                &label,
                t.inflight as f64,
            );
            reg.gauge_with(
                "tricount_host_tenant_queue_depth",
                "Admission-queue depth per tenant engine",
                &label,
                t.queue_depth as f64,
            );
            reg.gauge_with(
                "tricount_host_tenant_epoch",
                "Current epoch per tenant engine",
                &label,
                t.epoch as f64,
            );
            reg.gauge_with(
                "tricount_host_tenant_epochs_live",
                "Live epoch snapshots per tenant engine",
                &label,
                t.epochs_live as f64,
            );
            reg.gauge_with(
                "tricount_host_tenant_readers_pinned",
                "Pinned readers per tenant engine",
                &label,
                t.readers_pinned as f64,
            );
            reg.gauge_with(
                "tricount_host_tenant_resident_triangles",
                "Resident triangle count per tenant engine",
                &label,
                t.resident_triangles as f64,
            );
        }
        reg.render()
    }

    fn push_job(&self, job: Job) {
        let mut jobs = self.inner.jobs.lock().expect("jobs lock");
        jobs.push_back(job);
        drop(jobs);
        self.inner.available.notify_one();
    }

    fn pop_job(&self) -> Option<Job> {
        self.inner.jobs.lock().expect("jobs lock").pop_front()
    }

    /// One serve worker: block for a job, run it, repeat until stopped.
    fn serve_loop(&self) {
        let inner = &self.inner;
        loop {
            let job = {
                let mut jobs = inner.jobs.lock().expect("jobs lock");
                loop {
                    if let Some(job) = jobs.pop_front() {
                        break Some(job);
                    }
                    if inner.stop.load(Ordering::SeqCst) {
                        break None;
                    }
                    jobs = inner.available.wait(jobs).expect("jobs lock");
                }
            };
            match job {
                Some(job) => self.run_job(job),
                None => return,
            }
        }
    }

    /// Executes one job. The engine handle is cloned out of the tenant
    /// map first, so ticking (or updating) holds no host lock — that is
    /// what lets two workers serve different jobs of the *same* tenant
    /// concurrently (one reading, one writing) without blocking reads.
    fn run_job(&self, job: Job) {
        let inner = &self.inner;
        match job {
            Job::Tick { tenant } => {
                let engine = {
                    let tenants = inner.tenants.lock().expect("tenants lock");
                    match tenants.get(&tenant) {
                        Some(t) => t.engine.clone(),
                        None => return,
                    }
                };
                let answers = engine.tick_pinned();
                let answered = answers.len() as u64;
                if answered > 0 {
                    let mut replies = inner.replies.lock().expect("replies lock");
                    for (ticket, epoch, result) in answers {
                        replies.push_back(HostReply::Answer {
                            tenant: tenant.clone(),
                            ticket,
                            epoch,
                            result,
                        });
                    }
                }
                let mut tenants = inner.tenants.lock().expect("tenants lock");
                if let Some(t) = tenants.get_mut(&tenant) {
                    t.answered += answered;
                    t.inflight = t.inflight.saturating_sub(answered);
                }
                drop(tenants);
                if answered > 0 {
                    // Saturate: a tick can answer tickets submitted
                    // directly on the tenant engine handle (never
                    // host-admitted), so a plain fetch_sub could wrap the
                    // counter and wedge admission at "overloaded" forever.
                    let _ =
                        inner
                            .inflight
                            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                                Some(v.saturating_sub(answered))
                            });
                }
                // A batch bounded by batch_max may leave admitted queries
                // waiting: keep the tenant scheduled until its queue is dry.
                if engine.queue_depth() > 0 {
                    self.push_job(Job::Tick { tenant });
                }
            }
            Job::Update { tenant, batch } => {
                let engine = {
                    let tenants = inner.tenants.lock().expect("tenants lock");
                    match tenants.get(&tenant) {
                        Some(t) => t.engine.clone(),
                        None => return,
                    }
                };
                let result = engine.apply_updates(&batch).map_err(HostError::Engine);
                let result = match result {
                    Ok(r) => {
                        let mut tenants = inner.tenants.lock().expect("tenants lock");
                        if let Some(t) = tenants.get_mut(&tenant) {
                            t.updates += 1;
                        }
                        Ok(r)
                    }
                    Err(HostError::Engine(e)) => Err(e),
                    Err(_) => unreachable!("update errors are engine errors"),
                };
                inner
                    .replies
                    .lock()
                    .expect("replies lock")
                    .push_back(HostReply::Receipt { tenant, result });
            }
        }
    }
}

/// Joins the background serve loop started by [`EngineHost::serve`].
pub struct ServeHandle {
    host: EngineHost,
    threads: Vec<JoinHandle<()>>,
}

impl ServeHandle {
    /// Signals every worker to stop once the queue is observed empty and
    /// joins them. Jobs already dequeued finish; queued jobs may remain —
    /// call [`EngineHost::drain`] afterwards for a deterministic flush.
    pub fn stop(self) {
        self.host.inner.stop.store(true, Ordering::SeqCst);
        self.host.inner.available.notify_all();
        for t in self.threads {
            t.join().expect("serve worker panicked");
        }
    }
}

//! The distributed machine: `p` logical PEs running as threads, exchanging
//! messages through a pluggable transport (`tricount-net`), with every
//! communication action metered (see [`crate::stats`]).
//!
//! A [`run_sim`] call plays the role of `mpirun`: it spawns one thread
//! per PE, hands each a [`Ctx`] (the communicator), runs the given rank
//! program, and assembles per-phase statistics. Collectives are executed
//! through shared memory but *charged* with the standard tree/butterfly cost
//! formulas, so modeled times match what a real MPI implementation of the
//! paper's algorithms would pay.
//!
//! All protocol code talks to the data plane through the
//! [`tricount_net::Endpoint`] trait, and every run executes on the one
//! data plane there is: the thread-per-PE mesh of
//! [`tricount_net::ThreadsTransport`] (per-pair SPSC queues, spin
//! barrier). The modeled meters run above it unchanged, and the recorded
//! per-phase **wall clock** ([`crate::PhaseStats::wall_per_rank`]) is
//! honest parallel time.
//!
//! Through [`SimOptions`] and [`run_guarded`] the runtime also supports the
//! verification harness of the `tricount-verify` crate:
//!
//! * **trace recording** (`trace` cargo feature +
//!   [`SimOptions::record_trace`]) — every send, flush, delivery and
//!   collective entry/exit is logged per PE (see [`crate::trace`]);
//! * **schedule perturbation** ([`SimOptions::perturb_seed`]) — message
//!   delivery order and thread interleavings are permuted under a seeded
//!   RNG, so schedule-dependent results can be flushed out;
//! * **deadlock guarding** ([`run_guarded`], on the resident threads of a
//!   [`tricount_par::Executor`]) — a watchdog observes per-PE
//!   progress heartbeats and, instead of hanging, returns a
//!   [`DeadlockReport`] dumping each PE's state (buffered volume, pending
//!   collective, delivered/expected envelopes) plus a wait-for graph.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use tricount_net::TransportKind;
use tricount_net::{Endpoint, MeshPoison, ThreadsTransport, WallCollector};
use tricount_par::Executor;

use crate::cost::ceil_log2;
use crate::stats::{Counters, PhaseStats, RunStats};
use crate::trace::{CollKind, SpanKind, SpanRecord, SpanStamp, Trace, TraceEvent};

/// A raw point-to-point message: the sending rank and a word payload
/// (the transport's message type, re-exported under its historical name).
pub use tricount_net::Msg as RawMsg;

/// Operation codes published by each PE for the deadlock watchdog.
const OP_RUNNING: u64 = 0;
const OP_DONE: u64 = 100;

fn coll_op_code(kind: CollKind) -> u64 {
    match kind {
        CollKind::Barrier => 1,
        CollKind::Allgatherv => 2,
        CollKind::AllreduceSum => 3,
        CollKind::AllreduceMax => 4,
        CollKind::ExscanSum => 5,
        CollKind::Alltoallv => 6,
        CollKind::SparseFinish => 7,
    }
}

fn op_name(code: u64) -> &'static str {
    match code {
        OP_RUNNING => "running",
        1 => "barrier",
        2 => "allgatherv",
        3 => "allreduce_sum",
        4 => "allreduce_max",
        5 => "exscan_sum",
        6 => "alltoallv",
        7 => "sparse_finish",
        OP_DONE => "done",
        _ => "unknown",
    }
}

/// One per-PE slot of [`Shared`] on a cache line of its own, so a PE
/// bumping its slot never invalidates the line a peer bumps its own on.
#[derive(Default)]
#[repr(align(64))]
pub(crate) struct Slot<T>(T);

impl<T> std::ops::Deref for Slot<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// `p` fresh slots.
fn slots<T: Default>(p: usize) -> Vec<Slot<T>> {
    (0..p).map(|_| Slot::default()).collect()
}

/// Control-plane state shared by all PEs of one run: meters and watchdog
/// signals. The data plane (queues, barrier, collective
/// scratch) lives behind each PE's [`Endpoint`]. Every per-PE atomic is a
/// [`Slot`]: each metered source bumps its PE's heartbeat.
pub(crate) struct Shared {
    p: usize,
    /// Wall-clock origin of the run; span stamps and per-phase wall times
    /// are relative to this.
    epoch: Instant,
    /// Sparse-exchange termination: envelopes expected per destination.
    pub(crate) expected: Vec<Slot<AtomicU64>>,
    /// Ranks that finished producing in the current sparse exchange.
    pub(crate) producers_done: AtomicUsize,
    /// Ranks whose inbox is fully drained in the current sparse exchange.
    pub(crate) satisfied: AtomicUsize,
    /// Per-PE progress heartbeat for the deadlock watchdog: bumped on every
    /// send, receive, delivery, collective step and metered work batch.
    heartbeat: Vec<Slot<AtomicU64>>,
    /// Per-PE current operation ([`OP_RUNNING`], a collective code, or
    /// [`OP_DONE`]) for the watchdog's wait-for graph.
    op_state: Vec<Slot<AtomicU64>>,
    /// Per-PE currently buffered queue words (watchdog state dump).
    buffered_now: Vec<Slot<AtomicU64>>,
    /// Per-PE envelopes delivered in the current exchange (watchdog dump).
    delivered_now: Vec<Slot<AtomicU64>>,
}

fn make_shared(p: usize) -> Shared {
    Shared {
        p,
        epoch: Instant::now(),
        expected: slots(p),
        producers_done: AtomicUsize::new(0),
        satisfied: AtomicUsize::new(0),
        heartbeat: slots(p),
        op_state: (0..p).map(|_| Slot(AtomicU64::new(OP_RUNNING))).collect(),
        buffered_now: slots(p),
        delivered_now: slots(p),
    }
}

/// Chooses which pending message a PE delivers next. The model checker's
/// hook into message delivery order: when set on [`SimOptions::delivery`],
/// every [`Ctx::try_recv_raw`] drains the inbox into a holding pen and asks
/// the chooser instead of taking the FIFO head.
///
/// `pending` lists the candidates as `(src, seq)` pairs in canonical order
/// (ascending by source rank, then sequence number), so the index space a
/// chooser sees is independent of the OS interleaving that filled the pen.
pub trait DeliveryPick: Send + Sync {
    /// Returns the index into `pending` of the message to deliver.
    fn pick(&self, rank: usize, pending: &[(usize, u64)]) -> usize;
}

/// Options of a run beyond the rank program itself.
#[derive(Clone, Default)]
pub struct SimOptions {
    /// Record a [`Trace`] (requires the `trace` cargo feature; without it
    /// the returned trace is `None`).
    pub record_trace: bool,
    /// Perturb message delivery order and thread interleaving under this
    /// seed (`None` = the natural schedule).
    pub perturb_seed: Option<u64>,
    /// Externally controlled message delivery order (model checking);
    /// overrides `perturb_seed` for delivery decisions when set.
    pub delivery: Option<Arc<dyn DeliveryPick>>,
    /// Wall-clock profile the transport: per-PE event rings and
    /// contention meters, drained into [`SimOutput::wall`] and summarised
    /// on [`RunStats::contention`]. Strictly observational — the modeled
    /// meters are bit-identical with this on or off.
    pub wall_profile: bool,
    /// Per-PE event-ring capacity for `wall_profile` runs; 0 selects the
    /// transport default. Overflow degrades to a counted drop.
    pub wall_ring_capacity: usize,
}

impl std::fmt::Debug for SimOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimOptions")
            .field("record_trace", &self.record_trace)
            .field("perturb_seed", &self.perturb_seed)
            .field("delivery", &self.delivery.as_ref().map(|_| "<hook>"))
            .field("wall_profile", &self.wall_profile)
            .field("wall_ring_capacity", &self.wall_ring_capacity)
            .finish()
    }
}

impl SimOptions {
    /// Options with trace recording enabled.
    pub fn traced() -> Self {
        SimOptions {
            record_trace: true,
            ..SimOptions::default()
        }
    }

    /// Options with schedule perturbation under `seed`.
    pub fn perturbed(seed: u64) -> Self {
        SimOptions {
            perturb_seed: Some(seed),
            ..SimOptions::default()
        }
    }

    /// Inert: the default options. The threads mesh is the only data plane
    /// ([`TransportKind`]); the name is kept only because the frozen
    /// benchmark driver calls it.
    pub fn on(_transport: TransportKind) -> Self {
        SimOptions::default()
    }

    /// Options for a wall-profiled run.
    pub fn wall_profiled() -> Self {
        SimOptions {
            wall_profile: true,
            ..SimOptions::default()
        }
    }
}

/// SplitMix64 step — the perturbation RNG.
#[inline]
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The per-PE communicator handle. One per rank thread; owns that rank's
/// inbox and counters.
pub struct Ctx<'s> {
    rank: usize,
    pub(crate) shared: &'s Shared,
    /// This rank's handle on the data plane.
    endpoint: Box<dyn Endpoint>,
    counters: Counters,
    phases: Vec<PhaseRecord>,
    sent_peer_seen: Vec<bool>,
    recv_peer_seen: Vec<bool>,
    /// Undelivered messages pulled off the channel under perturbation or
    /// external delivery control.
    pending: Vec<RawMsg>,
    /// Perturbation RNG state (unused when `perturb` is false).
    rng_state: u64,
    perturb: bool,
    /// Externally controlled delivery order (model checking).
    delivery: Option<Arc<dyn DeliveryPick>>,
    /// Next outgoing sequence number per destination rank.
    send_seq: Vec<u64>,
    /// Whether trace events are recorded for this run.
    tracing: bool,
    trace_buf: Vec<TraceEvent>,
    /// Completed spans of this PE (recorded when a span ends).
    span_buf: Vec<SpanRecord>,
    /// Open spans, innermost last.
    span_stack: Vec<(SpanKind, String, SpanStamp)>,
    /// Stamp at which the current phase began (previous phase end).
    phase_mark: SpanStamp,
}

struct PhaseRecord {
    name: String,
    counters: Counters,
    /// Wall clock at phase end, nanoseconds since the run's epoch.
    wall_nanos: u64,
}

impl<'s> Ctx<'s> {
    /// This PE's rank.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of PEs `p`.
    #[inline]
    pub fn num_ranks(&self) -> usize {
        self.shared.p
    }

    /// Read access to the running counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Records a trace event, constructed lazily so untraced runs pay
    /// nothing beyond a branch (and nothing at all without the `trace`
    /// feature).
    #[inline]
    pub(crate) fn trace_with(&mut self, make: impl FnOnce() -> TraceEvent) {
        #[cfg(feature = "trace")]
        if self.tracing {
            self.trace_buf.push(make());
        }
        #[cfg(not(feature = "trace"))]
        {
            let _ = make;
            let _ = self.tracing;
        }
    }

    /// A stamp at the current instant: wall time since the run's epoch.
    #[inline]
    fn now_stamp(&self) -> SpanStamp {
        SpanStamp {
            wall_nanos: self.shared.epoch.elapsed().as_nanos() as u64,
        }
    }

    /// Opens a span. Gated on `self.tracing` (always false without the
    /// `trace` feature), so untraced runs pay one predictable branch and
    /// never touch the wall clock — the same non-perturbation discipline
    /// as [`Ctx::trace_with`].
    #[inline]
    pub(crate) fn span_begin(&mut self, kind: SpanKind, label: &str) {
        if self.tracing {
            let at = self.now_stamp();
            self.span_stack.push((kind, label.to_string(), at));
        }
    }

    /// Closes the innermost open span and records it.
    #[inline]
    pub(crate) fn span_end(&mut self) {
        if self.tracing {
            if let Some((kind, label, begin)) = self.span_stack.pop() {
                let end = self.now_stamp();
                self.span_buf.push(SpanRecord {
                    kind,
                    label,
                    begin,
                    end,
                });
            }
        }
    }

    /// Runs `f` under a caller-named [`SpanKind::Task`] span. In traced
    /// runs the section appears in [`Trace::spans`] with wall begin/end
    /// stamps; otherwise this is just a call to `f`.
    pub fn with_span<R>(&mut self, label: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.span_begin(SpanKind::Task, label);
        let out = f(self);
        self.span_end();
        out
    }

    /// Bumps this PE's progress heartbeat (watchdog liveness signal).
    #[inline]
    pub(crate) fn beat(&self) {
        self.shared.heartbeat[self.rank].fetch_add(1, Ordering::Relaxed);
    }

    /// Publishes the operation this PE is currently blocked in.
    #[inline]
    fn set_op(&self, code: u64) {
        self.shared.op_state[self.rank].store(code, Ordering::Relaxed);
    }

    /// Marks collective entry: op state, heartbeat, trace event, span.
    fn enter_coll(&mut self, kind: CollKind) {
        self.set_op(coll_op_code(kind));
        self.beat();
        self.trace_with(|| TraceEvent::CollEnter { kind });
        self.span_begin(SpanKind::Collective(kind), kind.name());
    }

    /// Marks collective exit.
    fn exit_coll(&mut self, kind: CollKind) {
        self.span_end();
        self.trace_with(|| TraceEvent::CollExit { kind });
        self.set_op(OP_RUNNING);
    }

    /// Marks entry/exit of the sparse-exchange termination (used by
    /// [`crate::MessageQueue::finish`]).
    pub(crate) fn enter_sparse_finish(&mut self) {
        self.enter_coll(CollKind::SparseFinish);
    }

    /// See [`Ctx::enter_sparse_finish`].
    pub(crate) fn exit_sparse_finish(&mut self) {
        self.exit_coll(CollKind::SparseFinish);
    }

    /// Publishes the envelopes delivered so far in the current exchange
    /// (watchdog state dump; called by the message queue).
    #[inline]
    pub(crate) fn report_delivered(&self, delivered: u64) {
        self.shared.delivered_now[self.rank].store(delivered, Ordering::Relaxed);
    }

    /// A perturbation RNG draw (only meaningful under perturbed runs).
    #[inline]
    fn next_rand(&mut self) -> u64 {
        splitmix(&mut self.rng_state)
    }

    /// Under perturbation, randomly yields the thread to shake up the
    /// interleaving of rank threads.
    #[inline]
    fn jitter(&mut self) {
        if self.perturb && self.next_rand() & 7 == 0 {
            std::thread::yield_now();
        }
    }

    /// Meters `ops` candidate comparisons of local work.
    #[inline]
    pub fn add_work(&mut self, ops: u64) {
        self.beat();
        self.counters.work_ops += ops;
    }

    /// Records a collective's analytic α/β charge (the message queue also
    /// charges its sparse-exchange termination consensus here). On one PE
    /// a collective moves no word and waits on no peer, so nothing is
    /// charged: `allgatherv` would otherwise charge its own words and
    /// `alltoallv` its counts exchange.
    pub(crate) fn charge_collective(&mut self, alpha_units: u64, word_units: u64) {
        if self.shared.p == 1 {
            return;
        }
        self.counters.coll_alpha_units += alpha_units;
        self.counters.coll_word_units += word_units;
    }

    /// Records a buffer-occupancy level (called by the message queue): the
    /// high-water mark feeds the §IV-A memory accounting, the current level
    /// feeds the deadlock watchdog's state dump.
    #[inline]
    pub fn note_buffered(&mut self, words: u64) {
        self.shared.buffered_now[self.rank].store(words, Ordering::Relaxed);
        if words > self.counters.peak_buffered_words {
            self.counters.peak_buffered_words = words;
        }
    }

    /// Sends one point-to-point message. Counted as one message of
    /// `words.len()` machine words.
    pub fn send_raw(&mut self, to: usize, words: Vec<u64>) {
        debug_assert!(
            to < self.shared.p && to != self.rank,
            "bad destination {to}"
        );
        self.beat();
        self.jitter();
        self.counters.sent_messages += 1;
        self.counters.sent_words += words.len() as u64;
        if !self.sent_peer_seen[to] {
            self.sent_peer_seen[to] = true;
            self.counters.sent_peers += 1;
        }
        let seq = self.send_seq[to];
        self.send_seq[to] += 1;
        self.trace_with(|| TraceEvent::Sent {
            to,
            words: words.len() as u64,
            seq,
        });
        self.endpoint.send(
            to,
            RawMsg {
                src: self.rank,
                seq,
                words,
                arrival: 0.0,
            },
        );
    }

    /// Non-blocking receive of one message. Under perturbed runs the
    /// transport is drained into a holding pen and a seeded-random pending
    /// message is delivered instead of the FIFO head; under an external
    /// [`DeliveryPick`] hook ([`SimOptions::delivery`]) the chooser decides.
    pub fn try_recv_raw(&mut self) -> Option<RawMsg> {
        let m = if let Some(pick) = self.delivery.clone() {
            while let Some(m) = self.endpoint.try_recv() {
                self.pending.push(m);
            }
            if self.pending.is_empty() {
                None
            } else {
                // Canonical candidate order so the chooser's index space is
                // independent of the interleaving that filled the pen.
                let mut order: Vec<usize> = (0..self.pending.len()).collect();
                order.sort_by_key(|&i| (self.pending[i].src, self.pending[i].seq));
                let cands: Vec<(usize, u64)> = order
                    .iter()
                    .map(|&i| (self.pending[i].src, self.pending[i].seq))
                    .collect();
                let k = pick.pick(self.rank, &cands);
                assert!(k < order.len(), "DeliveryPick index {k} out of range");
                Some(self.pending.swap_remove(order[k]))
            }
        } else if self.perturb {
            while let Some(m) = self.endpoint.try_recv() {
                self.pending.push(m);
            }
            if self.pending.is_empty() {
                None
            } else {
                let i = (self.next_rand() % self.pending.len() as u64) as usize;
                Some(self.pending.swap_remove(i))
            }
        } else {
            self.endpoint.try_recv()
        };
        let m = m?;
        self.beat();
        self.jitter();
        self.counters.recv_messages += 1;
        self.counters.recv_words += m.words.len() as u64;
        if !self.recv_peer_seen[m.src] {
            self.recv_peer_seen[m.src] = true;
            self.counters.recv_peers += 1;
        }
        self.trace_with(|| TraceEvent::Received {
            from: m.src,
            words: m.words.len() as u64,
            seq: m.seq,
        });
        Some(m)
    }

    /// Barrier without cost charge (internal synchronisation of the
    /// runtime itself). Publishes "barrier" as the blocked-in op while
    /// waiting unless an enclosing collective already claimed the slot, so
    /// a PE stuck in a bare sync (e.g. the end-of-run phase barrier) is
    /// diagnosable by the deadlock watchdog.
    pub(crate) fn barrier_uncharged(&self) {
        self.beat();
        let st = &self.shared.op_state[self.rank];
        let prev = st.load(Ordering::Relaxed);
        if prev == OP_RUNNING {
            st.store(coll_op_code(CollKind::Barrier), Ordering::Relaxed);
        }
        self.endpoint.barrier();
        st.store(prev, Ordering::Relaxed);
    }

    /// Synchronises all PEs; charged `α⌈log₂ p⌉`.
    pub fn barrier(&mut self) {
        self.enter_coll(CollKind::Barrier);
        self.charge_collective(ceil_log2(self.shared.p), 0);
        self.barrier_uncharged();
        self.exit_coll(CollKind::Barrier);
    }

    /// All-gather of variable-length word vectors; returns every rank's
    /// contribution indexed by rank. Charged `α⌈log₂p⌉ + β·(total words)`.
    pub fn allgatherv(&mut self, data: Vec<u64>) -> Vec<Vec<u64>> {
        self.enter_coll(CollKind::Allgatherv);
        let out = self.allgatherv_uncharged(data);
        let total: u64 = out.iter().map(|v| v.len() as u64).sum();
        self.charge_collective(ceil_log2(self.shared.p), total);
        self.exit_coll(CollKind::Allgatherv);
        out
    }

    /// Element-wise sum all-reduce of equal-length vectors. Charged
    /// `(α + β·len)·⌈log₂ p⌉`.
    pub fn allreduce_sum(&mut self, data: &[u64]) -> Vec<u64> {
        self.enter_coll(CollKind::AllreduceSum);
        let parts = self.allgatherv_uncharged(data.to_vec());
        let len = data.len();
        let mut acc = vec![0u64; len];
        for part in &parts {
            assert_eq!(
                part.len(),
                len,
                "allreduce contributions must agree in length"
            );
            for (a, &x) in acc.iter_mut().zip(part) {
                *a += x;
            }
        }
        let log = ceil_log2(self.shared.p);
        self.charge_collective(log, log * len as u64);
        self.exit_coll(CollKind::AllreduceSum);
        acc
    }

    /// Scalar max all-reduce. Charged like a 1-word all-reduce.
    pub fn allreduce_max(&mut self, x: u64) -> u64 {
        self.enter_coll(CollKind::AllreduceMax);
        let parts = self.allgatherv_uncharged(vec![x]);
        let log = ceil_log2(self.shared.p);
        self.charge_collective(log, log);
        self.exit_coll(CollKind::AllreduceMax);
        parts.iter().map(|v| v[0]).max().unwrap_or(0)
    }

    /// Exclusive prefix sum over ranks of a scalar. Charged like a 1-word
    /// all-reduce.
    pub fn exscan_sum(&mut self, x: u64) -> u64 {
        self.enter_coll(CollKind::ExscanSum);
        let parts = self.allgatherv_uncharged(vec![x]);
        let log = ceil_log2(self.shared.p);
        self.charge_collective(log, log);
        self.exit_coll(CollKind::ExscanSum);
        parts[..self.rank].iter().map(|v| v[0]).sum()
    }

    fn allgatherv_uncharged(&mut self, data: Vec<u64>) -> Vec<Vec<u64>> {
        self.beat();
        self.endpoint.exchange(data)
    }

    /// Dense irregular all-to-all (`MPI_Alltoallv`): `outgoing[d]` is sent to
    /// rank `d`; returns what every rank sent here, indexed by source rank.
    /// Counted as the constituent point-to-point messages (nonempty, non-self
    /// vectors only), plus the receive-counts pre-exchange a real
    /// `MPI_Alltoallv` needs (an all-to-all of `p` counts, charged as
    /// `α⌈log₂p⌉ + β·p`) — this is the dense overhead a sparse exchange
    /// avoids (§IV-D).
    pub fn alltoallv(&mut self, outgoing: Vec<Vec<u64>>) -> Vec<Vec<u64>> {
        assert_eq!(outgoing.len(), self.shared.p);
        self.enter_coll(CollKind::Alltoallv);
        self.charge_collective(ceil_log2(self.shared.p), self.shared.p as u64);
        for (d, v) in outgoing.iter().enumerate() {
            if d != self.rank && !v.is_empty() {
                self.counters.sent_messages += 1;
                self.counters.sent_words += v.len() as u64;
                let words = v.len() as u64;
                self.trace_with(|| TraceEvent::Sent {
                    to: d,
                    words,
                    seq: crate::trace::COLL_CONSTITUENT_SEQ,
                });
            }
        }
        self.beat();
        let incoming = self.endpoint.exchange_matrix(outgoing);
        for (srcr, v) in incoming.iter().enumerate() {
            if srcr != self.rank && !v.is_empty() {
                self.counters.recv_messages += 1;
                self.counters.recv_words += v.len() as u64;
                let words = v.len() as u64;
                self.trace_with(|| TraceEvent::Received {
                    from: srcr,
                    words,
                    seq: crate::trace::COLL_CONSTITUENT_SEQ,
                });
            }
        }
        self.exit_coll(CollKind::Alltoallv);
        incoming
    }

    /// Ends the current phase: synchronises all PEs and records the counter
    /// deltas under `name`. All PEs must call this with the same sequence of
    /// phase names.
    pub fn end_phase(&mut self, name: &str) {
        self.counters.coll_alpha_units += ceil_log2(self.shared.p);
        self.end_phase_uncharged(name);
    }

    fn end_phase_uncharged(&mut self, name: &str) {
        self.barrier_uncharged();
        self.record_phase(name);
    }

    /// Records the counter deltas since the last phase end under `name`.
    fn record_phase(&mut self, name: &str) {
        self.trace_with(|| TraceEvent::PhaseEnded {
            name: name.to_string(),
        });
        if self.tracing {
            let end = self.now_stamp();
            self.span_buf.push(SpanRecord {
                kind: SpanKind::Phase,
                label: name.to_string(),
                begin: self.phase_mark,
                end,
            });
            self.phase_mark = end;
        }
        self.phases.push(PhaseRecord {
            name: name.to_string(),
            counters: self.counters,
            wall_nanos: self.shared.epoch.elapsed().as_nanos() as u64,
        });
    }
}

/// The result of a simulated run: the per-rank return values and the full
/// statistics record.
#[derive(Debug)]
pub struct RunOutput<R> {
    /// Per-rank return values (indexed by rank).
    pub results: Vec<R>,
    /// Per-phase, per-rank counters.
    pub stats: RunStats,
}

/// A [`RunOutput`] plus the recorded [`Trace`] (when requested and the
/// `trace` feature is compiled in).
#[derive(Debug)]
pub struct SimOutput<R> {
    /// The run's results and statistics.
    pub output: RunOutput<R>,
    /// The recorded trace, if any.
    pub trace: Option<Trace>,
    /// The drained wall-clock profile of a [`SimOptions::wall_profile`]
    /// threads run, if any.
    pub wall: Option<tricount_net::WallProfile>,
}

/// What one rank thread hands back: result, phase records, trace events,
/// recorded spans.
type RankOutcome<R> = (R, Vec<PhaseRecord>, Vec<TraceEvent>, Vec<SpanRecord>);

fn drive_rank<R, F>(
    rank: usize,
    shared: &Shared,
    endpoint: Box<dyn Endpoint>,
    opts: &SimOptions,
    f: &F,
) -> RankOutcome<R>
where
    F: Fn(&mut Ctx) -> R,
{
    let p = shared.p;
    let perturb = opts.perturb_seed.is_some();
    let mut rng_state = opts
        .perturb_seed
        .unwrap_or(0)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(0xD1B5_4A32_D192_ED03_u64.wrapping_mul(rank as u64 + 1));
    if perturb {
        // decorrelate the per-rank streams
        splitmix(&mut rng_state);
    }
    let mut ctx = Ctx {
        rank,
        shared,
        endpoint,
        counters: Counters::default(),
        phases: Vec::new(),
        sent_peer_seen: vec![false; p],
        recv_peer_seen: vec![false; p],
        pending: Vec::new(),
        rng_state,
        perturb,
        delivery: opts.delivery.clone(),
        send_seq: vec![0; p],
        tracing: cfg!(feature = "trace") && opts.record_trace,
        trace_buf: Vec::new(),
        span_buf: Vec::new(),
        span_stack: Vec::new(),
        phase_mark: SpanStamp::default(),
    };
    let result = f(&mut ctx);
    // The end-of-run sync is not a barrier: a peer still waiting in one
    // fails, naming this rank, instead of being released by it.
    ctx.set_op(OP_DONE);
    ctx.beat();
    ctx.endpoint.finish();
    ctx.record_phase("rest");
    ctx.beat();
    (result, ctx.phases, ctx.trace_buf, ctx.span_buf)
}

/// Assembles per-rank outcomes into a [`SimOutput`]; all ranks must agree on
/// the phase sequence. `wall` is the drained wall profile of a profiled
/// threads run (every rank thread must already be joined).
fn assemble<R>(
    p: usize,
    outcomes: Vec<RankOutcome<R>>,
    want_trace: bool,
    wall: Option<tricount_net::WallProfile>,
) -> SimOutput<R> {
    let mut results = Vec::with_capacity(p);
    let mut per_rank_phases: Vec<Vec<PhaseRecord>> = Vec::with_capacity(p);
    let mut per_pe_trace: Vec<Vec<TraceEvent>> = Vec::with_capacity(p);
    let mut per_pe_spans: Vec<Vec<SpanRecord>> = Vec::with_capacity(p);
    for (r, ph, tr, sp) in outcomes {
        results.push(r);
        per_rank_phases.push(ph);
        per_pe_trace.push(tr);
        per_pe_spans.push(sp);
    }

    let names: Vec<String> = per_rank_phases[0]
        .iter()
        .map(|pr| pr.name.clone())
        .collect();
    for (r, phs) in per_rank_phases.iter().enumerate() {
        let theirs: Vec<&String> = phs.iter().map(|pr| &pr.name).collect();
        assert_eq!(
            theirs,
            names.iter().collect::<Vec<_>>(),
            "rank {r} recorded a different phase sequence"
        );
    }
    let mut phases = Vec::with_capacity(names.len());
    for (pi, name) in names.iter().enumerate() {
        let per_rank: Vec<Counters> = per_rank_phases
            .iter()
            .map(|phs| {
                let cur = phs[pi].counters;
                if pi == 0 {
                    cur
                } else {
                    cur.delta_since(&phs[pi - 1].counters)
                }
            })
            .collect();
        let wall_per_rank: Vec<f64> = per_rank_phases
            .iter()
            .map(|phs| {
                let prev = if pi == 0 { 0 } else { phs[pi - 1].wall_nanos };
                phs[pi].wall_nanos.saturating_sub(prev) as f64 / 1e9
            })
            .collect();
        phases.push(PhaseStats {
            name: name.clone(),
            per_rank,
            wall_per_rank,
        });
    }
    // Drop an empty trailing "rest" phase to keep reports clean. Peak and
    // peer fields are running values and do not indicate phase activity.
    let is_inactive = |c: &Counters| {
        c.sent_messages == 0
            && c.sent_words == 0
            && c.recv_messages == 0
            && c.recv_words == 0
            && c.work_ops == 0
            && c.coll_alpha_units == 0
            && c.coll_word_units == 0
    };
    if phases
        .last()
        .is_some_and(|ph| ph.name == "rest" && ph.per_rank.iter().all(is_inactive))
    {
        phases.pop();
    }

    let trace = (want_trace && cfg!(feature = "trace")).then_some(Trace {
        per_pe: per_pe_trace,
        spans: per_pe_spans,
    });
    let contention = wall.as_ref().map(|w| w.contention());
    SimOutput {
        output: RunOutput {
            results,
            stats: RunStats {
                p,
                phases,
                contention,
            },
        },
        trace,
        wall,
    }
}

/// The per-PE endpoints of a fresh mesh for `p` PEs, the wall collector
/// when `opts.wall_profile` is on, and the handle that poisons the mesh.
#[allow(clippy::type_complexity)]
fn endpoints_for(
    p: usize,
    opts: &SimOptions,
) -> (
    Vec<Box<dyn Endpoint>>,
    Option<Arc<WallCollector>>,
    MeshPoison,
) {
    let (endpoints, collector) = if opts.wall_profile {
        let (eps, coll) = ThreadsTransport::endpoints_profiled(p, opts.wall_ring_capacity);
        (eps, Some(coll))
    } else {
        (ThreadsTransport::endpoints(p), None)
    };
    let poison = endpoints[0].mesh_poison();
    // Boxed on purpose: called through the trait object, the endpoint stays
    // out of line in the queue's poll loops. Holding `ThreadsEndpoint`
    // directly lets it inline there, and `count_s` on the comm-heavy R-MAT
    // workload read 9 % slower (6 runs each, 2-core x86-64).
    let endpoints = endpoints
        .into_iter()
        .map(|ep| Box::new(ep) as Box<dyn Endpoint>)
        .collect();
    (endpoints, collector, poison)
}

/// Runs `f` on `p` PEs under the given [`SimOptions`] (trace recording,
/// schedule perturbation, wall profile).
///
/// `f` is called once per rank with that rank's [`Ctx`]; any un-phased
/// trailing activity is recorded as a final `"rest"` phase.
pub fn run_sim<R, F>(p: usize, opts: &SimOptions, f: F) -> SimOutput<R>
where
    R: Send,
    F: Fn(&mut Ctx) -> R + Send + Sync,
{
    let (endpoints, collector, _) = endpoints_for(p, opts);
    let shared = make_shared(p);
    let mut outcomes: Vec<RankOutcome<R>> = Vec::with_capacity(p);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(p);
        for (rank, endpoint) in endpoints.into_iter().enumerate() {
            let shared = &shared;
            let f = &f;
            let opts = &*opts;
            handles.push(scope.spawn(move || drive_rank(rank, shared, endpoint, opts, f)));
        }
        // Join everything before re-raising a panic: unwinding out of the
        // scope with threads still running would panic a second time in the
        // scope's implicit join (process abort).
        let mut first_panic: Option<Box<dyn std::any::Any + Send>> = None;
        for h in handles {
            match h.join() {
                Ok(outcome) => outcomes.push(outcome),
                Err(payload) => {
                    if first_panic.is_none() {
                        first_panic = Some(payload);
                    }
                }
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
    });
    // Every rank thread is joined: the endpoints have dropped and each PE's
    // wall log (if profiling) has been deposited.
    let wall = collector.map(WallCollector::drain);
    assemble(p, outcomes, opts.record_trace, wall)
}

/// One PE's state in a [`DeadlockReport`].
#[derive(Debug, Clone)]
pub struct PeSnapshot {
    /// The PE's rank.
    pub rank: usize,
    /// Whether the rank program returned (the PE may still wait for its
    /// peers to return too).
    pub done: bool,
    /// The operation the PE was last observed in ("running", a collective
    /// name, "sparse_finish", or "done").
    pub op: &'static str,
    /// Words currently buffered in the PE's message queue.
    pub buffered_words: u64,
    /// Envelopes delivered to this PE in the current sparse exchange.
    pub delivered: u64,
    /// Envelopes destined to this PE in the current sparse exchange.
    pub expected: u64,
    /// Total progress heartbeats observed for this PE.
    pub heartbeats: u64,
}

/// A deadlock diagnosis produced by [`run_guarded`] instead of hanging: the
/// machine made no progress (no heartbeat on any PE) for the guard timeout.
#[derive(Debug, Clone)]
pub struct DeadlockReport {
    /// How long the machine was observed without progress.
    pub stalled_for: Duration,
    /// Per-PE state at the moment of diagnosis.
    pub pes: Vec<PeSnapshot>,
    /// Wait-for edges `(waiter, waited_on)` derived from the op states:
    /// a PE blocked in a collective waits on every PE that has not entered
    /// the same collective (or already exited the program).
    pub wait_edges: Vec<(usize, usize)>,
    /// Work-stealing pool batches that were in flight at the moment of
    /// diagnosis: per batch, each worker's executed/steal counters (from
    /// [`tricount_par::probe::snapshot_live`]). Distinguishes "a rank is
    /// stuck inside its thread pool" from "the pool is idle and the rank is
    /// stuck in the protocol".
    pub pool_workers: Vec<Vec<tricount_par::WorkerStats>>,
    /// The diagnosis of a PE that found a barrier no finished peer can
    /// complete (reported at once, without waiting out the timeout).
    pub cause: Option<String>,
}

impl std::fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "deadlock: no progress for {:?} on {} PEs",
            self.stalled_for,
            self.pes.len()
        )?;
        if let Some(cause) = &self.cause {
            writeln!(f, "  {cause}")?;
        }
        for pe in &self.pes {
            writeln!(
                f,
                "  PE {:>3}: op={:<13} done={:<5} buffered={} delivered={}/{} heartbeats={}",
                pe.rank,
                pe.op,
                pe.done,
                pe.buffered_words,
                pe.delivered,
                pe.expected,
                pe.heartbeats
            )?;
        }
        if !self.wait_edges.is_empty() {
            write!(f, "  wait-for:")?;
            for (a, b) in &self.wait_edges {
                write!(f, " {a}→{b}")?;
            }
            writeln!(f)?;
        }
        for (bi, batch) in self.pool_workers.iter().enumerate() {
            write!(f, "  pool batch {bi}:")?;
            for (w, ws) in batch.iter().enumerate() {
                write!(
                    f,
                    " w{w}[exec={} steals={}/{}]",
                    ws.executed, ws.steals_succeeded, ws.steals_attempted
                )?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

fn snapshot(shared: &Shared, done: &[bool]) -> (Vec<PeSnapshot>, Vec<(usize, usize)>) {
    let p = shared.p;
    let ops: Vec<u64> = shared
        .op_state
        .iter()
        .map(|s| s.load(Ordering::Relaxed))
        .collect();
    let done: Vec<bool> = (0..p).map(|r| done[r] || ops[r] == OP_DONE).collect();
    let pes: Vec<PeSnapshot> = (0..p)
        .map(|r| PeSnapshot {
            rank: r,
            done: done[r],
            op: op_name(ops[r]),
            buffered_words: shared.buffered_now[r].load(Ordering::Relaxed),
            delivered: shared.delivered_now[r].load(Ordering::Relaxed),
            expected: shared.expected[r].load(Ordering::Relaxed),
            heartbeats: shared.heartbeat[r].load(Ordering::Relaxed),
        })
        .collect();
    let mut wait_edges = Vec::new();
    for waiter in 0..p {
        let op = ops[waiter];
        if done[waiter] || op == OP_RUNNING || op == OP_DONE {
            continue;
        }
        for other in 0..p {
            if other != waiter && (ops[other] != op || done[other]) {
                wait_edges.push((waiter, other));
            }
        }
    }
    (pes, wait_edges)
}

/// Like [`run_sim`], but supervised by a deadlock watchdog: if no PE makes
/// progress for `timeout`, the run is abandoned and a [`DeadlockReport`]
/// dumping per-PE state is returned instead of hanging forever.
///
/// A PE waiting in a barrier or collective that a returned peer skipped
/// diagnoses the mismatch itself: it poisons the mesh, every rank unwinds,
/// and the report, returned as soon as they have, carries the diagnosis as
/// its `cause`.
///
/// The ranks run as jobs on `exec`'s resident threads, so a run starts no
/// thread while `p` of them are idle. The rank program must be `'static`
/// because stuck ranks cannot be joined. On a diagnosis the watchdog
/// poisons the run's mesh and returns without them: each abandoned rank
/// panics at its next barrier, send or receive and unwinds, and its thread
/// parks in `exec` again, so none is left spinning. Pick `timeout` larger
/// than the longest stretch of purely local computation in the rank program:
/// local work metered through [`Ctx::add_work`] counts as progress, unmetered
/// busy loops do not.
pub fn run_guarded<R, F>(
    exec: &Executor,
    p: usize,
    opts: &SimOptions,
    timeout: Duration,
    f: F,
) -> Result<SimOutput<R>, Box<DeadlockReport>>
where
    R: Send + 'static,
    F: Fn(&mut Ctx) -> R + Send + Sync + 'static,
{
    let (endpoints, collector, poison) = endpoints_for(p, opts);
    let shared = Arc::new(make_shared(p));
    let f = Arc::new(f);
    let opts_copy = opts.clone();
    let (done_tx, done_rx) = mpsc::channel::<(usize, RankOutcome<R>)>();
    for (rank, endpoint) in endpoints.into_iter().enumerate() {
        let shared = Arc::clone(&shared);
        let f = Arc::clone(&f);
        let done_tx = done_tx.clone();
        let opts_copy = opts_copy.clone();
        exec.spawn(
            move || drive_rank(rank, &shared, endpoint, &opts_copy, &*f),
            // Runs once the rank's thread is idle again, so the next run
            // finds it. A panicked rank sends nothing: dropping its sender
            // is what the supervisor's `Disconnected` arm waits for. The
            // supervisor may have given up already; ignore send errors.
            move |outcome| {
                if let Ok(outcome) = outcome {
                    let _ = done_tx.send((rank, outcome));
                }
            },
        );
    }
    drop(done_tx);

    let poll = (timeout / 10).max(Duration::from_millis(2));
    let mut slots: Vec<Option<RankOutcome<R>>> = (0..p).map(|_| None).collect();
    let mut done = vec![false; p];
    let mut completed = 0usize;
    let mut last_beats: Vec<u64> = shared
        .heartbeat
        .iter()
        .map(|h| h.load(Ordering::Relaxed))
        .collect();
    let mut last_change = Instant::now();
    loop {
        match done_rx.recv_timeout(poll) {
            Ok((rank, outcome)) => {
                slots[rank] = Some(outcome);
                done[rank] = true;
                completed += 1;
                last_change = Instant::now();
                if completed == p {
                    // every slot is Some: `completed` counts distinct ranks.
                    // A rank's outcome is sent only after `drive_rank`
                    // returned, i.e. after its endpoint dropped and (if
                    // profiling) deposited its wall log.
                    let outcomes: Vec<RankOutcome<R>> = slots.into_iter().flatten().collect();
                    let wall = collector.map(WallCollector::drain);
                    return Ok(assemble(p, outcomes, opts.record_trace, wall));
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            // Every rank thread has ended, some by unwinding: a diagnosed
            // mismatch is reported, any other panic re-raised.
            Err(RecvTimeoutError::Disconnected) => match poison.cause() {
                Some(cause) => {
                    let (pes, wait_edges) = snapshot(&shared, &done);
                    return Err(Box::new(DeadlockReport {
                        stalled_for: last_change.elapsed(),
                        pes,
                        wait_edges,
                        pool_workers: Vec::new(),
                        cause: Some(cause),
                    }));
                }
                None => panic!("rank thread panicked before completing"),
            },
        }
        let beats: Vec<u64> = shared
            .heartbeat
            .iter()
            .map(|h| h.load(Ordering::Relaxed))
            .collect();
        if beats != last_beats {
            last_beats = beats;
            last_change = Instant::now();
        } else if last_change.elapsed() >= timeout {
            let (pes, wait_edges) = snapshot(&shared, &done);
            let report = DeadlockReport {
                stalled_for: last_change.elapsed(),
                pes,
                wait_edges,
                pool_workers: tricount_par::probe::snapshot_live(),
                cause: poison.cause(),
            };
            // Release the abandoned ranks: each unwinds at its next
            // barrier, send or receive instead of spinning forever.
            poison.poison();
            return Err(Box::new(report));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;

    #[test]
    fn single_rank_runs() {
        let out = run_sim(1, &SimOptions::default(), |ctx| {
            ctx.add_work(10);
            ctx.rank()
        })
        .output;
        assert_eq!(out.results, vec![0]);
        assert_eq!(out.stats.total_work(), 10);
    }

    #[test]
    fn point_to_point_roundtrip() {
        let out = run_sim(2, &SimOptions::default(), |ctx| {
            if ctx.rank() == 0 {
                ctx.send_raw(1, vec![1, 2, 3]);
                0u64
            } else {
                loop {
                    if let Some(m) = ctx.try_recv_raw() {
                        assert_eq!(m.src, 0);
                        return m.words.iter().sum();
                    }
                    std::thread::yield_now();
                }
            }
        })
        .output;
        assert_eq!(out.results[1], 6);
        assert_eq!(out.stats.total_messages(), 1);
        assert_eq!(out.stats.total_volume(), 3);
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        let out = run_sim(4, &SimOptions::default(), |ctx| {
            ctx.allreduce_sum(&[ctx.rank() as u64, 1])[0]
        })
        .output;
        assert!(out.results.iter().all(|&x| x == 6));
        let out2 = run_sim(4, &SimOptions::default(), |ctx| {
            ctx.allreduce_sum(&[ctx.rank() as u64, 1])[1]
        })
        .output;
        assert!(out2.results.iter().all(|&x| x == 4));
    }

    #[test]
    fn allreduce_max_and_exscan() {
        let out = run_sim(4, &SimOptions::default(), |ctx| {
            let mx = ctx.allreduce_max(ctx.rank() as u64 * 10);
            let scan = ctx.exscan_sum(1);
            (mx, scan)
        })
        .output;
        for (r, &(mx, scan)) in out.results.iter().enumerate() {
            assert_eq!(mx, 30);
            assert_eq!(scan, r as u64);
        }
    }

    #[test]
    fn allgatherv_collects_everything() {
        let out = run_sim(3, &SimOptions::default(), |ctx| {
            let mine = vec![ctx.rank() as u64; ctx.rank() + 1];
            ctx.allgatherv(mine)
        })
        .output;
        for res in &out.results {
            assert_eq!(res[0], vec![0]);
            assert_eq!(res[1], vec![1, 1]);
            assert_eq!(res[2], vec![2, 2, 2]);
        }
    }

    #[test]
    fn alltoallv_transposes() {
        let p = 4;
        let out = run_sim(p, &SimOptions::default(), |ctx| {
            let outgoing: Vec<Vec<u64>> =
                (0..p).map(|d| vec![(ctx.rank() * 10 + d) as u64]).collect();
            ctx.alltoallv(outgoing)
        })
        .output;
        for (me, incoming) in out.results.iter().enumerate() {
            for (src, v) in incoming.iter().enumerate() {
                assert_eq!(v, &vec![(src * 10 + me) as u64]);
            }
        }
        // each rank sends p-1 real messages of 1 word
        assert_eq!(out.stats.total_messages(), (p * (p - 1)) as u64);
    }

    #[test]
    fn phases_split_counters() {
        let out = run_sim(2, &SimOptions::default(), |ctx| {
            ctx.add_work(5);
            ctx.end_phase("a");
            ctx.add_work(7);
            ctx.end_phase("b");
        })
        .output;
        assert_eq!(out.stats.phases.len(), 2);
        assert_eq!(out.stats.phases[0].total_work(), 10);
        assert_eq!(out.stats.phases[1].total_work(), 14);
        assert_eq!(
            out.stats.phase_time(
                "b",
                &CostModel {
                    alpha: 0.0,
                    beta: 0.0,
                    t_op: 1.0,
                }
            ),
            7.0
        );
    }

    #[test]
    fn mismatched_phases_panic() {
        let result = std::panic::catch_unwind(|| {
            run_sim(2, &SimOptions::default(), |ctx| {
                if ctx.rank() == 0 {
                    ctx.end_phase("a");
                } else {
                    ctx.end_phase("z");
                }
            })
            .output
        });
        assert!(result.is_err());
    }

    #[test]
    fn single_rank_collectives_are_identity() {
        let out = run_sim(1, &SimOptions::default(), |ctx| {
            let ar = ctx.allreduce_sum(&[7, 9]);
            let mx = ctx.allreduce_max(5);
            let sc = ctx.exscan_sum(3);
            let ag = ctx.allgatherv(vec![1, 2, 3]);
            let aa = ctx.alltoallv(vec![vec![4, 5]]);
            (ar, mx, sc, ag, aa)
        })
        .output;
        let (ar, mx, sc, ag, aa) = &out.results[0];
        assert_eq!(ar, &vec![7, 9]);
        assert_eq!(*mx, 5);
        assert_eq!(*sc, 0);
        assert_eq!(ag, &vec![vec![1, 2, 3]]);
        assert_eq!(aa, &vec![vec![4, 5]]);
        // p = 1: no messages, no log-p latency charges
        assert_eq!(out.stats.total_messages(), 0);
    }

    #[test]
    fn empty_allgatherv_contributions() {
        let out = run_sim(3, &SimOptions::default(), |ctx| {
            let data = if ctx.rank() == 1 { vec![9] } else { Vec::new() };
            ctx.allgatherv(data)
        })
        .output;
        for res in &out.results {
            assert_eq!(res[0], Vec::<u64>::new());
            assert_eq!(res[1], vec![9]);
            assert_eq!(res[2], Vec::<u64>::new());
        }
    }

    #[test]
    fn alltoallv_charges_counts_preexchange() {
        let p = 8;
        let out = run_sim(p, &SimOptions::default(), |ctx| {
            ctx.alltoallv(vec![Vec::new(); p]);
        })
        .output;
        let c = out.stats.phases[0].per_rank[0];
        // even an empty alltoallv pays the counts exchange
        assert!(c.coll_alpha_units >= ceil_log2(p));
        assert!(c.coll_word_units >= p as u64);
    }

    /// On one PE nothing moves: every collective charges 0 units, though
    /// `allgatherv` carries words and `alltoallv` has a counts exchange.
    #[test]
    fn one_pe_collectives_charge_nothing() {
        let out = run_sim(1, &SimOptions::default(), |ctx| {
            ctx.barrier();
            assert_eq!(ctx.allgatherv(vec![1, 2, 3]), vec![vec![1, 2, 3]]);
            assert_eq!(ctx.allreduce_sum(&[4, 5]), vec![4, 5]);
            assert_eq!(ctx.allreduce_max(6), 6);
            assert_eq!(ctx.exscan_sum(7), 0);
            assert_eq!(ctx.alltoallv(vec![vec![8, 9]]), vec![vec![8, 9]]);
        })
        .output;
        let c = out.stats.totals();
        assert_eq!((c.coll_alpha_units, c.coll_word_units), (0, 0));
        assert_eq!(out.stats.modeled_time(&CostModel::default()), 0.0);
    }

    /// Each per-PE slot of `Shared` sits on a cache line of its own.
    #[test]
    fn shared_slots_own_a_cache_line_each() {
        assert_eq!(std::mem::align_of::<Slot<AtomicU64>>(), 64);
        assert_eq!(std::mem::size_of::<Slot<AtomicU64>>(), 64);
        let shared = make_shared(3);
        for v in [
            &shared.expected,
            &shared.heartbeat,
            &shared.op_state,
            &shared.buffered_now,
            &shared.delivered_now,
        ] {
            for w in v.windows(2) {
                let (a, b) = (&*w[0] as *const AtomicU64, &*w[1] as *const AtomicU64);
                assert_eq!(a as usize % 64, 0);
                assert_eq!(b as usize - a as usize, 64);
            }
        }
    }

    #[test]
    fn collective_charges_recorded() {
        let out = run_sim(4, &SimOptions::default(), |ctx| {
            ctx.barrier();
        })
        .output;
        // α·⌈log₂4⌉ = 2α per rank for the explicit barrier (+2 for phase end)
        let c = out.stats.phases[0].per_rank[0];
        assert!(c.coll_alpha_units >= 2);
        assert_eq!(c.sent_messages, 0);
    }

    #[test]
    fn perturbed_collectives_agree_with_unperturbed() {
        let body = |ctx: &mut Ctx| {
            let s = ctx.allreduce_sum(&[ctx.rank() as u64 + 1])[0];
            let m = ctx.allreduce_max(ctx.rank() as u64);
            (s, m)
        };
        let plain = run_sim(4, &SimOptions::default(), body).output;
        for seed in 0..4u64 {
            let perturbed = run_sim(4, &SimOptions::perturbed(seed), body);
            assert_eq!(perturbed.output.results, plain.results, "seed {seed}");
        }
    }

    #[test]
    fn perturbed_point_to_point_delivers_all() {
        let p = 4;
        for seed in 0..4u64 {
            let out = run_sim(p, &SimOptions::perturbed(seed), move |ctx| {
                for d in 0..p {
                    if d != ctx.rank() {
                        ctx.send_raw(d, vec![ctx.rank() as u64]);
                    }
                }
                let mut got = Vec::new();
                while got.len() < p - 1 {
                    if let Some(m) = ctx.try_recv_raw() {
                        got.push(m.words[0]);
                    } else {
                        std::thread::yield_now();
                    }
                }
                got.sort_unstable();
                got
            });
            for (me, got) in out.output.results.iter().enumerate() {
                let expect: Vec<u64> = (0..p as u64).filter(|&s| s != me as u64).collect();
                assert_eq!(got, &expect, "seed {seed} rank {me}");
            }
        }
    }

    #[cfg(feature = "trace")]
    #[test]
    fn traced_runs_record_phase_collective_and_task_spans() {
        let out = run_sim(4, &SimOptions::traced(), |ctx| {
            ctx.with_span("setup", |ctx| ctx.add_work(10));
            ctx.allreduce_sum(&[1]);
            ctx.end_phase("a");
            ctx.barrier();
            ctx.end_phase("b");
        });
        let trace = out.trace.expect("trace requested");
        assert_eq!(trace.spans.len(), 4);
        for spans in &trace.spans {
            let phases: Vec<&str> = spans
                .iter()
                .filter(|s| s.kind == SpanKind::Phase)
                .map(|s| s.label.as_str())
                .collect();
            // trailing "rest" phase is recorded as a span even when the
            // stats drop it as inactive
            assert_eq!(phases, ["a", "b", "rest"]);
            assert!(spans
                .iter()
                .any(|s| s.kind == SpanKind::Collective(CollKind::AllreduceSum)));
            let task = spans
                .iter()
                .find(|s| s.kind == SpanKind::Task)
                .expect("task span");
            assert_eq!(task.label, "setup");
            for s in spans {
                assert!(s.end.wall_nanos >= s.begin.wall_nanos);
            }
        }
    }

    #[cfg(feature = "trace")]
    #[test]
    fn untraced_runs_record_no_spans() {
        let out = run_sim(2, &SimOptions::default(), |ctx| {
            ctx.with_span("w", |ctx| ctx.add_work(1));
            ctx.end_phase("a");
        });
        assert!(out.trace.is_none());
    }

    #[test]
    fn collectives_and_p2p_meters_are_exact() {
        let body = |ctx: &mut Ctx| {
            let p = ctx.num_ranks();
            for d in 0..p {
                if d != ctx.rank() {
                    ctx.send_raw(d, vec![ctx.rank() as u64, 7]);
                }
            }
            let mut got = 0usize;
            let mut sum = 0u64;
            while got < p - 1 {
                if let Some(m) = ctx.try_recv_raw() {
                    sum += m.words[0];
                    got += 1;
                } else {
                    std::thread::yield_now();
                }
            }
            ctx.add_work(5);
            ctx.end_phase("p2p");
            let red = ctx.allreduce_sum(&[sum])[0];
            let aa = ctx.alltoallv((0..p).map(|d| vec![d as u64]).collect());
            ctx.end_phase("coll");
            (red, aa.len() as u64)
        };
        let plain = run_sim(4, &SimOptions::default(), body).output;
        // each rank sums the other three ids: Σ_r (6 − r) = 18
        assert_eq!(plain.results, vec![(18, 4); 4]);
        let names: Vec<&str> = plain
            .stats
            .phases
            .iter()
            .map(|ph| ph.name.as_str())
            .collect();
        assert_eq!(names, ["p2p", "coll"]);
        for c in &plain.stats.phases[0].per_rank {
            assert_eq!((c.sent_messages, c.sent_words), (3, 6));
            assert_eq!((c.recv_messages, c.recv_words), (3, 6));
            assert_eq!(c.work_ops, 5);
        }
        for c in &plain.stats.phases[1].per_rank {
            assert_eq!((c.sent_messages, c.sent_words), (3, 3));
            assert_eq!((c.recv_messages, c.recv_words), (3, 3));
        }
        // the meters are a function of the protocol, not of the schedule
        let perturbed = run_sim(4, &SimOptions::perturbed(7), body).output;
        assert_eq!(perturbed.results, plain.results);
        for (a, b) in plain.stats.phases.iter().zip(&perturbed.stats.phases) {
            assert_eq!(a.per_rank, b.per_rank, "phase {}", a.name);
        }
    }

    #[test]
    fn threads_backend_panic_joins_all_ranks() {
        // rank 2 dies while the rest head into a barrier: poisoning must
        // release every sibling so the scope joins and re-raises (a hang
        // here would trip the test harness timeout, not pass).
        let result = std::panic::catch_unwind(|| {
            run_sim(4, &SimOptions::default(), |ctx| {
                if ctx.rank() == 2 {
                    panic!("rank 2 dies");
                }
                ctx.barrier();
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn threads_backend_records_wall_time() {
        let out = run_sim(2, &SimOptions::default(), |ctx| {
            ctx.add_work(1000);
            ctx.end_phase("work");
        });
        let ph = &out.output.stats.phases[0];
        assert_eq!(ph.wall_per_rank.len(), 2);
        assert!(ph.max_wall() > 0.0, "wall clock must be recorded");
        assert!(out.output.stats.wall_time() > 0.0);
    }

    #[test]
    fn guarded_run_completes_normally() {
        let out = run_guarded(
            &Executor::new(),
            4,
            &SimOptions::default(),
            Duration::from_secs(5),
            |ctx: &mut Ctx| ctx.allreduce_sum(&[1])[0],
        )
        .expect("no deadlock");
        assert_eq!(out.output.results, vec![4, 4, 4, 4]);
    }

    #[test]
    fn guarded_run_reports_stalled_collective() {
        /// Reports a rank closure finished, by return or by unwind.
        struct Finished(mpsc::Sender<usize>);
        impl Drop for Finished {
            fn drop(&mut self) {
                let _ = self.0.send(1);
            }
        }
        let (finished_tx, finished_rx) = mpsc::channel();
        // rank 0 skips both barriers and exits: 1..3 find it finished
        // while they wait in the first, inside the rank closure
        let report = run_guarded(
            &Executor::new(),
            4,
            &SimOptions::default(),
            Duration::from_millis(200),
            move |ctx: &mut Ctx| {
                let _guard = Finished(finished_tx.clone());
                if ctx.rank() != 0 {
                    ctx.barrier();
                    ctx.barrier();
                }
            },
        )
        .expect_err("must diagnose the deadlock");
        // the mesh is poisoned: the three waiting ranks unwind out of the
        // barrier instead of spinning on
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut finished = 0;
        while finished < 4 {
            let left = deadline.saturating_duration_since(Instant::now());
            match finished_rx.recv_timeout(left) {
                Ok(n) => finished += n,
                Err(_) => break,
            }
        }
        assert_eq!(
            finished, 4,
            "abandoned ranks still running 2 s after the diagnosis"
        );
        assert_eq!(report.pes.len(), 4);
        assert!(report.pes[0].done);
        for pe in &report.pes[1..] {
            assert!(!pe.done);
            assert_eq!(pe.op, "barrier");
        }
        // every waiter points at rank 0
        assert!(report.wait_edges.iter().any(|&(w, o)| w == 1 && o == 0));
        let rendered = report.to_string();
        assert!(rendered.contains("deadlock"));
        assert!(rendered.contains("barrier"));
        assert!(rendered.contains("rank 0 returned"), "{rendered}");
    }

    #[test]
    fn skipped_barrier_fails_the_run_naming_the_rank() {
        // rank 0 skips one of two barriers and returns: its end of run must
        // not complete the others' second barrier, which they would then
        // pass only to stall in the end-of-run sync with nobody to meet
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let run = std::panic::catch_unwind(|| {
                run_sim(4, &SimOptions::default(), |ctx| {
                    if ctx.rank() != 0 {
                        ctx.barrier();
                    }
                    ctx.barrier();
                })
            });
            let message = run.err().map(|payload| {
                payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|m| m.to_string()))
                    .unwrap_or_default()
            });
            let _ = tx.send(message);
        });
        let message = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("run_sim hung instead of failing")
            .expect("a skipped barrier must fail the run");
        assert!(message.contains("rank 0 returned"), "{message}");
    }

    #[test]
    fn guarded_run_reraises_a_panicking_rank_and_keeps_its_threads() {
        let exec = Executor::new();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_guarded(
                &exec,
                3,
                &SimOptions::default(),
                Duration::from_secs(5),
                |ctx: &mut Ctx| {
                    if ctx.rank() == 1 {
                        panic!("rank 1 dies");
                    }
                    ctx.barrier();
                },
            )
        }));
        let payload = caught.expect_err("a panicking rank fails the run");
        let message = payload
            .downcast_ref::<&str>()
            .map(|m| m.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            message.contains("rank thread panicked before completing"),
            "{message}"
        );
        // The supervisor re-raises only once every rank has ended, so all
        // three threads are idle: the next run starts none.
        assert_eq!(exec.jobs_run(), 3);
        let out = run_guarded(
            &exec,
            3,
            &SimOptions::default(),
            Duration::from_secs(5),
            |ctx: &mut Ctx| ctx.rank(),
        )
        .expect("no deadlock");
        assert_eq!(out.output.results, vec![0, 1, 2]);
        assert_eq!(exec.threads_started(), 3);
    }

    #[test]
    fn abandoned_ranks_return_their_threads_once_they_unwind() {
        let exec = Executor::new();
        // rank 0 skips the barrier and spins, metering no progress, until
        // the watchdog gives up; the others wait in the barrier.
        let release = Arc::new(AtomicUsize::new(0));
        let spin = Arc::clone(&release);
        let report = run_guarded(
            &exec,
            3,
            &SimOptions::default(),
            Duration::from_millis(100),
            move |ctx: &mut Ctx| {
                if ctx.rank() == 0 {
                    while spin.load(Ordering::Acquire) == 0 {
                        std::hint::spin_loop();
                    }
                } else {
                    ctx.barrier();
                }
            },
        )
        .expect_err("must diagnose the stall");
        assert!(report.cause.is_none(), "a stall, not a mismatch");
        // Ranks 1 and 2 unwind out of the poisoned barrier; rank 0 returns
        // once released. Every thread is idle again after its job counts.
        release.store(1, Ordering::Release);
        let deadline = Instant::now() + Duration::from_secs(5);
        while exec.jobs_run() < 3 {
            assert!(Instant::now() < deadline, "abandoned ranks never ended");
            std::thread::yield_now();
        }
        let out = run_guarded(
            &exec,
            3,
            &SimOptions::default(),
            Duration::from_secs(5),
            |ctx: &mut Ctx| ctx.allreduce_sum(&[1])[0],
        )
        .expect("no deadlock");
        assert_eq!(out.output.results, vec![3, 3, 3]);
        assert_eq!(exec.threads_started(), 3, "the abandoned ranks' threads");
    }
}

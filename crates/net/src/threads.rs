//! The real parallel backend: thread-per-PE over shared memory.
//!
//! Point-to-point traffic flows through one SPSC queue per ordered PE pair
//! — a single producer (the sending rank) and a single consumer (the
//! receiving rank) per queue, never more. Each queue pairs a `VecDeque`
//! behind a mutex with an **atomic occupancy counter**: the receive poll
//! loop reads the counter and touches no lock until a message is actually
//! present, so an idle poll across `p − 1` sources is lock-free. (A
//! classic index-ring SPSC would drop the remaining per-message lock, but
//! needs `UnsafeCell` slots and this workspace forbids `unsafe`; with one
//! producer and one consumer the O(1) critical sections here are
//! contended only during the actual hand-off.)
//!
//! Barriers are the sense-reversing spin barrier of [`crate::spin`];
//! collectives deposit into per-rank mutex cells bracketed by barriers
//! (deposit → barrier → collect → barrier), one lock per slot. The
//! end-of-run sync is the barrier's `finish`, which completes none of
//! them.
//!
//! **What a mesh costs**: `p²` `PairQueue`s (one per ordered pair, the
//! `p` self-pairs included but never used), plus `p` deposit slots, `p`
//! all-to-all rows and one barrier. DESIGN §5g works the figure out at the
//! CLI's 1024-PE cap.
//!
//! **Poisoning**: when a rank thread unwinds, its endpoint's `Drop`
//! poisons the shared barrier. Every sibling blocked in a barrier — and
//! every subsequent `try_recv`/`send` — panics immediately instead of
//! spinning on a peer that will never arrive, so the scoped runtime can
//! join all PEs and re-raise the first panic. A [`MeshPoison`] handle does
//! the same from outside the rank threads: the deadlock watchdog poisons a
//! run it gives up on, so the ranks it abandons unwind instead of spinning
//! forever.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use crate::profile::{ContentionMeters, PeWallLog, ProbeRing, WallCollector, WallEventKind};
use crate::spin::SpinBarrier;
use crate::{Endpoint, Msg};

/// One directed SPSC channel: `src → dst`.
struct PairQueue {
    /// Messages in flight, FIFO.
    q: Mutex<VecDeque<Msg>>,
    /// Occupancy hint: incremented after push, decremented after pop. The
    /// consumer skips the lock entirely while this reads 0.
    len: AtomicUsize,
}

impl PairQueue {
    fn new() -> PairQueue {
        PairQueue {
            q: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
        }
    }

    fn push(&self, msg: Msg) {
        self.q
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(msg);
        self.len.fetch_add(1, Ordering::Release);
    }

    fn pop(&self) -> Option<Msg> {
        if self.len.load(Ordering::Acquire) == 0 {
            return None;
        }
        let msg = self
            .q
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop_front();
        if msg.is_some() {
            self.len.fetch_sub(1, Ordering::Release);
        }
        msg
    }

    /// [`PairQueue::push`] plus contention metering: returns the
    /// nanoseconds spent acquiring the lock and the queue depth right
    /// after the push (for occupancy high-water tracking). The data-plane
    /// effect is identical to the unprofiled path.
    fn push_timed(&self, msg: Msg) -> (u64, u64) {
        let t0 = Instant::now();
        let mut q = self.q.lock().unwrap_or_else(PoisonError::into_inner);
        let lock_wait = t0.elapsed().as_nanos() as u64;
        q.push_back(msg);
        let depth = q.len() as u64;
        drop(q);
        self.len.fetch_add(1, Ordering::Release);
        (lock_wait, depth)
    }

    /// [`PairQueue::pop`] plus contention metering: additionally returns
    /// the nanoseconds spent acquiring the lock (0 when the occupancy hint
    /// short-circuits the poll). The data-plane effect is identical to the
    /// unprofiled path.
    fn pop_timed(&self) -> (Option<Msg>, u64) {
        if self.len.load(Ordering::Acquire) == 0 {
            return (None, 0);
        }
        let t0 = Instant::now();
        let mut q = self.q.lock().unwrap_or_else(PoisonError::into_inner);
        let lock_wait = t0.elapsed().as_nanos() as u64;
        let msg = q.pop_front();
        drop(q);
        if msg.is_some() {
            self.len.fetch_sub(1, Ordering::Release);
        }
        (msg, lock_wait)
    }
}

/// State shared by all endpoints of one threads-backend run.
struct ThreadsShared {
    p: usize,
    /// `chan[src * p + dst]` — the SPSC queue from `src` to `dst`.
    chan: Vec<PairQueue>,
    barrier: SpinBarrier,
    /// Collective deposit slots (allgather rendezvous), one per rank.
    slots: Vec<Mutex<Vec<u64>>>,
    /// All-to-all deposit rows, `mat[src]` holding what `src` sends.
    mat: Vec<Mutex<Vec<Vec<u64>>>>,
}

/// The thread-per-PE transport: builds [`ThreadsEndpoint`]s over one
/// shared-memory mesh.
pub struct ThreadsTransport;

/// Poisons one mesh from outside its rank threads: every endpoint of the
/// mesh then panics at its next barrier, send or receive. The deadlock
/// watchdog holds one per guarded run and uses it on the ranks it gives up
/// on.
pub struct MeshPoison(Arc<ThreadsShared>);

impl MeshPoison {
    /// Poisons the mesh; idempotent.
    pub fn poison(&self) {
        self.0.barrier.poison();
    }

    /// Why a rank poisoned the mesh, when it diagnosed a barrier that can
    /// never complete (see [`SpinBarrier::finish`]).
    pub fn cause(&self) -> Option<String> {
        self.0.barrier.cause().map(str::to_string)
    }
}

impl ThreadsTransport {
    /// One endpoint per rank over a fresh data plane.
    pub fn endpoints(p: usize) -> Vec<ThreadsEndpoint> {
        Self::build(p, None)
    }

    /// Like [`ThreadsTransport::endpoints`], but every endpoint carries a
    /// wall-clock probe (event ring of `ring_capacity` entries, 0 selects
    /// the default, plus contention meters). When the rank threads have
    /// been joined, [`WallCollector::drain`] yields the run's
    /// [`crate::profile::WallProfile`].
    pub fn endpoints_profiled(
        p: usize,
        ring_capacity: usize,
    ) -> (Vec<ThreadsEndpoint>, Arc<WallCollector>) {
        let collector = Arc::new(WallCollector::new(p, ring_capacity));
        let eps = Self::build(p, Some(Arc::clone(&collector)));
        (eps, collector)
    }

    fn build(p: usize, collector: Option<Arc<WallCollector>>) -> Vec<ThreadsEndpoint> {
        assert!(p > 0, "need at least one PE");
        let shared = Arc::new(ThreadsShared {
            p,
            chan: (0..p * p).map(|_| PairQueue::new()).collect(),
            barrier: SpinBarrier::new(p),
            slots: (0..p).map(|_| Mutex::new(Vec::new())).collect(),
            mat: (0..p).map(|_| Mutex::new(Vec::new())).collect(),
        });
        let epoch = Instant::now();
        (0..p)
            .map(|rank| {
                let probe = collector.as_ref().map(|coll| {
                    RefCell::new(ProbeState {
                        epoch,
                        ring: ProbeRing::new(coll.ring_capacity()),
                        meters: ContentionMeters::new(p),
                        collector: Arc::clone(coll),
                    })
                });
                ThreadsEndpoint {
                    rank,
                    shared: Arc::clone(&shared),
                    cursor: 0,
                    probe,
                }
            })
            .collect()
    }
}

/// Per-endpoint wall-clock probe: event ring, contention meters, and the
/// collector the log is deposited into when the endpoint drops. Owned by
/// the rank thread; the `RefCell` exists only because the [`Endpoint`]
/// trait's `barrier` takes `&self`.
struct ProbeState {
    epoch: Instant,
    ring: ProbeRing,
    meters: ContentionMeters,
    collector: Arc<WallCollector>,
}

impl ProbeState {
    #[inline]
    fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// One PE's handle on the threads data plane.
pub struct ThreadsEndpoint {
    rank: usize,
    shared: Arc<ThreadsShared>,
    /// Round-robin receive cursor over source ranks, for fairness under
    /// sustained traffic from multiple peers.
    cursor: usize,
    /// Wall-clock probe, present only on profiled runs.
    probe: Option<RefCell<ProbeState>>,
}

impl ThreadsEndpoint {
    /// A handle that poisons this endpoint's whole mesh.
    pub fn mesh_poison(&self) -> MeshPoison {
        MeshPoison(Arc::clone(&self.shared))
    }

    /// Runs one barrier wait, stamped as a barrier interval on a profiled
    /// endpoint.
    fn timed(&self, wait: impl FnOnce(&SpinBarrier)) {
        match &self.probe {
            None => wait(&self.shared.barrier),
            Some(cell) => {
                // Stamp the enter event and release the borrow *before*
                // spinning: the barrier itself never touches the probe, but
                // holding a RefCell borrow across a blocking wait would be
                // a latent trap.
                let t_enter = {
                    let mut st = cell.borrow_mut();
                    let t = st.now_nanos();
                    st.ring.record(WallEventKind::BarrierEnter, t);
                    t
                };
                wait(&self.shared.barrier);
                let mut st = cell.borrow_mut();
                let t_exit = st.now_nanos();
                st.ring.record(WallEventKind::BarrierExit, t_exit);
                st.meters.barrier_spin_nanos += t_exit.saturating_sub(t_enter);
                st.meters.barrier_waits += 1;
            }
        }
    }
}

impl Drop for ThreadsEndpoint {
    fn drop(&mut self) {
        // An endpoint dropped mid-unwind means its PE died with the
        // protocol incomplete: poison the transport so siblings fail fast
        // instead of spinning on a peer that will never arrive.
        if std::thread::panicking() {
            self.shared.barrier.poison();
        }
        // Deposit the wall log unconditionally (panicking or not): the
        // runtime joins every rank thread before draining the collector.
        if let Some(cell) = self.probe.take() {
            let st = cell.into_inner();
            let (events, dropped) = st.ring.into_events();
            st.collector.deposit(PeWallLog {
                rank: self.rank,
                events,
                dropped,
                meters: st.meters,
            });
        }
    }
}

impl Endpoint for ThreadsEndpoint {
    fn rank(&self) -> usize {
        self.rank
    }

    fn peers(&self) -> usize {
        self.shared.p
    }

    fn send(&mut self, to: usize, msg: Msg) {
        self.shared.barrier.check_poison();
        let q = &self.shared.chan[self.rank * self.shared.p + to];
        match &self.probe {
            None => q.push(msg),
            Some(cell) => {
                let (seq, words) = (msg.seq, msg.words.len() as u64);
                let (lock_wait, depth) = q.push_timed(msg);
                let mut st = cell.borrow_mut();
                let t = st.now_nanos();
                st.meters.send_lock_wait_nanos[to] += lock_wait;
                if depth > st.meters.occupancy_highwater[to] {
                    st.meters.occupancy_highwater[to] = depth;
                }
                st.ring.record(WallEventKind::Send { to, seq, words }, t);
            }
        }
    }

    fn try_recv(&mut self) -> Option<Msg> {
        self.shared.barrier.check_poison();
        let p = self.shared.p;
        for i in 0..p {
            let src = (self.cursor + i) % p;
            if src == self.rank {
                continue;
            }
            let q = &self.shared.chan[src * p + self.rank];
            let msg = match &self.probe {
                None => q.pop(),
                Some(cell) => {
                    let (msg, lock_wait) = q.pop_timed();
                    let mut st = cell.borrow_mut();
                    st.meters.recv_lock_wait_nanos[src] += lock_wait;
                    if let Some(m) = &msg {
                        let t = st.now_nanos();
                        st.ring.record(
                            WallEventKind::Recv {
                                from: m.src,
                                seq: m.seq,
                                words: m.words.len() as u64,
                            },
                            t,
                        );
                    }
                    msg
                }
            };
            if let Some(msg) = msg {
                // resume the scan *after* the source that just delivered
                self.cursor = (src + 1) % p;
                return Some(msg);
            }
        }
        None
    }

    fn barrier(&self) {
        self.timed(|b| b.wait());
    }

    fn finish(&self) {
        self.timed(|b| b.finish(self.rank));
    }

    fn exchange(&mut self, data: Vec<u64>) -> Vec<Vec<u64>> {
        *self.shared.slots[self.rank]
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = data;
        self.barrier();
        let out: Vec<Vec<u64>> = self
            .shared
            .slots
            .iter()
            .map(|slot| slot.lock().unwrap_or_else(PoisonError::into_inner).clone())
            .collect();
        self.barrier();
        out
    }

    fn exchange_matrix(&mut self, rows: Vec<Vec<u64>>) -> Vec<Vec<u64>> {
        *self.shared.mat[self.rank]
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = rows;
        self.barrier();
        let incoming: Vec<Vec<u64>> = (0..self.shared.p)
            .map(|src| {
                let row = self.shared.mat[src]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                row.get(self.rank).cloned().unwrap_or_default()
            })
            .collect();
        self.barrier();
        incoming
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_queue_is_fifo_under_load() {
        let q = Arc::new(PairQueue::new());
        let producer = Arc::clone(&q);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for i in 0..10_000u64 {
                    producer.push(Msg {
                        src: 0,
                        seq: i,
                        words: vec![i],
                        arrival: 0.0,
                    });
                }
            });
            let mut expect = 0u64;
            while expect < 10_000 {
                if let Some(m) = q.pop() {
                    assert_eq!(m.seq, expect);
                    expect += 1;
                } else {
                    std::hint::spin_loop();
                }
            }
        });
    }

    /// A profiled 2-PE ping-pong: both rings record the traffic, the
    /// collector drains a structurally complete profile, and send→recv
    /// pairs match by sequence number.
    #[test]
    fn profiled_endpoints_record_traffic_and_barriers() {
        let (eps, coll) = ThreadsTransport::endpoints_profiled(2, 0);
        std::thread::scope(|scope| {
            for (rank, mut ep) in eps.into_iter().enumerate() {
                scope.spawn(move || {
                    for seq in 0..5u64 {
                        ep.send(
                            1 - rank,
                            Msg {
                                src: rank,
                                seq,
                                words: vec![seq; 3],
                                arrival: 0.0,
                            },
                        );
                    }
                    let mut got = 0;
                    while got < 5 {
                        if ep.try_recv().is_some() {
                            got += 1;
                        } else {
                            std::hint::spin_loop();
                        }
                    }
                    ep.barrier();
                });
            }
        });
        let profile = coll.drain();
        assert_eq!(profile.p, 2);
        assert_eq!(profile.events_dropped(), 0);
        for log in &profile.per_pe {
            let sends = log
                .events
                .iter()
                .filter(|e| matches!(e.kind, WallEventKind::Send { .. }))
                .count();
            let recvs = log
                .events
                .iter()
                .filter(|e| matches!(e.kind, WallEventKind::Recv { .. }))
                .count();
            assert_eq!(sends, 5, "rank {} sends", log.rank);
            assert_eq!(recvs, 5, "rank {} recvs", log.rank);
            assert_eq!(log.meters.barrier_waits, 1, "rank {}", log.rank);
        }
        let s = profile.contention();
        assert_eq!(s.events_recorded, profile.events_recorded());
        assert!(s.max_occupancy() >= 1, "at least one message was queued");
    }

    /// A tiny ring on a profiled run overflows into counted drops; the
    /// data plane itself is unaffected and every message still arrives.
    #[test]
    fn profiled_ring_overflow_drops_never_stalls() {
        let (eps, coll) = ThreadsTransport::endpoints_profiled(2, 4);
        std::thread::scope(|scope| {
            for (rank, mut ep) in eps.into_iter().enumerate() {
                scope.spawn(move || {
                    for seq in 0..100u64 {
                        ep.send(
                            1 - rank,
                            Msg {
                                src: rank,
                                seq,
                                words: vec![seq],
                                arrival: 0.0,
                            },
                        );
                    }
                    let mut expect = 0u64;
                    while expect < 100 {
                        if let Some(m) = ep.try_recv() {
                            assert_eq!(m.seq, expect, "FIFO must survive profiling");
                            expect += 1;
                        } else {
                            std::hint::spin_loop();
                        }
                    }
                });
            }
        });
        let profile = coll.drain();
        assert!(profile.events_dropped() > 0, "tiny ring must overflow");
        for log in &profile.per_pe {
            assert_eq!(log.events.len(), 4, "rank {} ring capacity", log.rank);
        }
    }

    #[test]
    fn peer_panic_poisons_the_transport() {
        let eps = ThreadsTransport::endpoints(3);
        // endpoints are consumed whole by the rank threads; unwind safety
        // is the very property under test
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            std::thread::scope(|scope| {
                for (rank, ep) in eps.into_iter().enumerate() {
                    scope.spawn(move || {
                        // bind the endpoint in the panicking thread so its
                        // Drop runs during the unwind
                        let ep = ep;
                        if rank == 1 {
                            panic!("rank 1 dies");
                        }
                        // siblings head into a barrier rank 1 never reaches
                        ep.barrier();
                    });
                }
            })
        }));
        assert!(outcome.is_err(), "scope must re-raise, not hang");
    }
}

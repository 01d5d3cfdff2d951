//! `tricount-net` — the pluggable transport layer under the simulated
//! runtime of `tricount-comm`.
//!
//! Every distributed protocol in this workspace talks to a per-PE
//! communicator (`tricount_comm::Ctx`). Historically that communicator was
//! welded to one data plane: `std::sync::mpsc` channels, a `std::sync`
//! [`Barrier`](std::sync::Barrier) and a mutex-guarded scratch area for
//! shared-memory collectives. This crate extracts that data plane behind
//! the [`Endpoint`] trait so the *same* protocol code runs over different
//! transports:
//!
//! * [`TransportKind::Sim`] — the original metered simulator data plane,
//!   bit-for-bit unchanged. It remains the substrate of the determinism,
//!   conformance and model-checking harnesses: delivery hooks
//!   (perturbation, `DeliveryPick`) and the blocking `Barrier` keep their
//!   exact semantics.
//! * [`TransportKind::Threads`] — a real parallel backend: one OS thread
//!   per PE over shared memory, point-to-point traffic through per-pair
//!   SPSC queues with an atomic occupancy hint (the poll path touches no
//!   lock until a message is actually present), a sense-reversing spin
//!   barrier, and per-slot deposit cells for the collectives. Peer panics
//!   *poison* the transport so sibling PEs fail fast instead of spinning
//!   forever — `tricount_comm::run_sim` then joins every thread and
//!   re-raises the first panic (no leaked PEs), while `run_guarded` turns
//!   a genuine stall into a watchdog report.
//!
//! The modeled α/β/t_op cost meters live *above* this layer (in the
//! communicator), so both backends produce the same modeled seconds and
//! comm counters; the threads backend additionally yields honest
//! wall-clock per phase, which the runtime records alongside the modeled
//! time. The probe binaries (`tricount-pingpong`, `tricount-allgather`)
//! measure the threads backend's real per-message latency and per-word
//! bandwidth and emit a JSON calibration report whose constants feed
//! `tricount_comm::CostModel::calibrated`.

#![warn(missing_docs)]

pub mod profile;
pub mod sim;
pub mod spin;
pub mod threads;

pub use profile::{
    ContentionMeters, ContentionSummary, PeWallLog, WallCollector, WallEvent, WallEventKind,
    WallProfile,
};
pub use sim::SimTransport;
pub use spin::SpinBarrier;
pub use threads::ThreadsTransport;

/// Which data plane carries a run's communication.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TransportKind {
    /// The metered simulator data plane (`std::sync::mpsc` + blocking
    /// barrier): deterministic substrate for verify/mc; supports delivery
    /// perturbation and external delivery control.
    #[default]
    Sim,
    /// Thread-per-PE over shared memory: SPSC pair queues, spin barrier,
    /// wall-clock-faithful parallel execution. Panics poison the transport
    /// so peers fail fast.
    Threads,
}

impl TransportKind {
    /// Stable lowercase name (CLI flag values, JSON reports).
    pub fn name(self) -> &'static str {
        match self {
            TransportKind::Sim => "sim",
            TransportKind::Threads => "threads",
        }
    }

    /// Parses a CLI flag value (`"sim"` / `"threads"`).
    pub fn parse(s: &str) -> Option<TransportKind> {
        match s {
            "sim" => Some(TransportKind::Sim),
            "threads" => Some(TransportKind::Threads),
            _ => None,
        }
    }
}

/// A raw point-to-point message: the sending rank and a word payload.
///
/// (Re-exported by `tricount-comm` as `RawMsg`; the transport moves it
/// verbatim and never inspects the payload.)
#[derive(Debug)]
pub struct Msg {
    /// Immediate sender (for relayed traffic this is the proxy, not the
    /// originator).
    pub src: usize,
    /// Per-`(src, dst)` sequence number assigned at send time; pairs the
    /// send with its delivery in traces and delivery-order hooks.
    pub seq: u64,
    /// Payload machine words.
    pub words: Vec<u64>,
    /// Ignored: always `0.0`. Kept only so existing `Msg` literals (the
    /// frozen benchmark driver builds one) still compile; no backend or
    /// runtime reads it.
    pub arrival: f64,
}

/// One PE's handle on the data plane. Handed to the rank thread that owns
/// it; all methods are called from that thread only.
///
/// The contract every backend must honour:
///
/// * **Per-channel FIFO** — messages from a fixed `(src, dst)` pair are
///   received in send order (cross-channel order is unspecified, exactly
///   like MPI).
/// * **Loss-free between barriers** — a message sent before a barrier the
///   receiver passes is eventually returned by `try_recv`.
/// * **`exchange`/`exchange_matrix` are collectives** — every rank calls
///   them the same number of times in the same order; they synchronise
///   internally (deposit → barrier → collect → barrier).
pub trait Endpoint: Send {
    /// Which backend this endpoint belongs to.
    fn kind(&self) -> TransportKind;
    /// This endpoint's rank.
    fn rank(&self) -> usize;
    /// Number of PEs on the transport.
    fn peers(&self) -> usize;
    /// Enqueues `msg` for delivery to `to`. Never blocks; a vanished
    /// receiver (abandoned guarded run) swallows the message.
    fn send(&mut self, to: usize, msg: Msg);
    /// Non-blocking receive of one pending message, or `None`.
    fn try_recv(&mut self) -> Option<Msg>;
    /// Synchronises all PEs (no cost accounting at this layer).
    fn barrier(&self);
    /// All-gather rendezvous: deposits `data`, returns every rank's
    /// contribution indexed by rank.
    fn exchange(&mut self, data: Vec<u64>) -> Vec<Vec<u64>>;
    /// All-to-all rendezvous: `rows[d]` goes to rank `d`; returns what
    /// every rank sent here, indexed by source rank.
    fn exchange_matrix(&mut self, rows: Vec<Vec<u64>>) -> Vec<Vec<u64>>;
}

/// Builds the data plane for a `p`-PE run of the given backend and returns
/// one endpoint per rank (indexed by rank), ready to be moved into the
/// rank threads.
pub fn endpoints(kind: TransportKind, p: usize) -> Vec<Box<dyn Endpoint>> {
    assert!(p > 0, "need at least one PE");
    match kind {
        TransportKind::Sim => sim::SimTransport::endpoints(p),
        TransportKind::Threads => threads::ThreadsTransport::endpoints(p),
    }
}

/// Like [`endpoints`], but with wall-clock profiling where the backend
/// supports it. The threads backend returns a [`WallCollector`] to drain
/// after the rank threads are joined; the simulator has no wall clock
/// worth measuring (its schedule is a deterministic fiction), so it
/// returns plain endpoints and no collector.
pub fn endpoints_profiled(
    kind: TransportKind,
    p: usize,
    ring_capacity: usize,
) -> (
    Vec<Box<dyn Endpoint>>,
    Option<std::sync::Arc<WallCollector>>,
) {
    assert!(p > 0, "need at least one PE");
    match kind {
        TransportKind::Sim => (sim::SimTransport::endpoints(p), None),
        TransportKind::Threads => {
            let (eps, coll) = threads::ThreadsTransport::endpoints_profiled(p, ring_capacity);
            (eps, Some(coll))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(kind: TransportKind) {
        let p = 4;
        let eps = endpoints(kind, p);
        let results: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = eps
                .into_iter()
                .enumerate()
                .map(|(rank, mut ep)| {
                    scope.spawn(move || {
                        assert_eq!(ep.rank(), rank);
                        assert_eq!(ep.peers(), p);
                        assert_eq!(ep.kind(), kind);
                        for d in 0..p {
                            if d != rank {
                                ep.send(
                                    d,
                                    Msg {
                                        src: rank,
                                        seq: 0,
                                        words: vec![rank as u64 + 1],
                                        arrival: 0.0,
                                    },
                                );
                            }
                        }
                        let mut sum = 0u64;
                        let mut got = 0usize;
                        while got < p - 1 {
                            if let Some(m) = ep.try_recv() {
                                sum += m.words[0];
                                got += 1;
                            } else {
                                std::thread::yield_now();
                            }
                        }
                        ep.barrier();
                        sum
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let total: u64 = (1..=p as u64).sum();
        for (rank, sum) in results.iter().enumerate() {
            assert_eq!(*sum, total - (rank as u64 + 1), "rank {rank}");
        }
    }

    fn collectives(kind: TransportKind) {
        let p = 3;
        let eps = endpoints(kind, p);
        std::thread::scope(|scope| {
            for (rank, mut ep) in eps.into_iter().enumerate() {
                scope.spawn(move || {
                    // two consecutive exchanges must not smear into each other
                    for round in 0..2u64 {
                        let gathered = ep.exchange(vec![rank as u64 * 10 + round; rank + 1]);
                        for (src, v) in gathered.iter().enumerate() {
                            assert_eq!(v, &vec![src as u64 * 10 + round; src + 1]);
                        }
                    }
                    let rows: Vec<Vec<u64>> =
                        (0..p).map(|d| vec![(rank * 10 + d) as u64]).collect();
                    let incoming = ep.exchange_matrix(rows);
                    for (src, v) in incoming.iter().enumerate() {
                        assert_eq!(v, &vec![(src * 10 + rank) as u64]);
                    }
                });
            }
        });
    }

    #[test]
    fn sim_roundtrip_and_collectives() {
        roundtrip(TransportKind::Sim);
        collectives(TransportKind::Sim);
    }

    #[test]
    fn threads_roundtrip_and_collectives() {
        roundtrip(TransportKind::Threads);
        collectives(TransportKind::Threads);
    }

    #[test]
    fn threads_preserves_pair_fifo() {
        let eps = endpoints(TransportKind::Threads, 2);
        std::thread::scope(|scope| {
            let mut it = eps.into_iter();
            let mut a = it.next().unwrap();
            let mut b = it.next().unwrap();
            scope.spawn(move || {
                for seq in 0..1000u64 {
                    a.send(
                        1,
                        Msg {
                            src: 0,
                            seq,
                            words: vec![seq],
                            arrival: 0.0,
                        },
                    );
                }
                a.barrier();
            });
            scope.spawn(move || {
                let mut expect = 0u64;
                while expect < 1000 {
                    if let Some(m) = b.try_recv() {
                        assert_eq!(m.words[0], expect, "FIFO violated");
                        expect += 1;
                    } else {
                        std::hint::spin_loop();
                    }
                }
                b.barrier();
            });
        });
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in [TransportKind::Sim, TransportKind::Threads] {
            assert_eq!(TransportKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(TransportKind::parse("tcp"), None);
    }
}

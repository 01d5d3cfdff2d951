//! `tricount-net` — the data plane under the runtime of `tricount-comm`.
//!
//! Every distributed protocol in this workspace talks to a per-PE
//! communicator (`tricount_comm::Ctx`), and the communicator talks to one
//! data plane: the thread-per-PE mesh of [`threads`]. One OS thread per PE
//! shares memory with its siblings; point-to-point traffic flows through
//! per-pair SPSC queues with an atomic occupancy hint (the poll path
//! touches no lock until a message is actually present), barriers are a
//! sense-reversing spin barrier, and collectives deposit into per-slot
//! cells. A peer panic *poisons* the mesh so sibling PEs fail fast instead
//! of spinning forever — `tricount_comm::run_sim` then joins every thread
//! and re-raises the first panic, and `run_guarded` poisons the mesh
//! itself when it gives up on a stalled run, so the ranks it abandons
//! unwind instead of spinning on.
//!
//! The modeled α/β/t_op cost meters live *above* this layer (in the
//! communicator), and so do the schedule hooks of the verification and
//! model-checking harnesses (delivery perturbation and `DeliveryPick`
//! drain the endpoint into a holding pen). The mesh yields honest
//! wall-clock per phase, which the runtime records alongside the modeled
//! time. The probe binaries (`tricount-pingpong`, `tricount-allgather`)
//! measure its per-message latency and per-word bandwidth and emit a JSON
//! calibration report whose constants feed
//! `tricount_comm::CostModel::calibrated`.

#![warn(missing_docs)]

pub mod profile;
pub mod spin;
pub mod threads;

pub use profile::{
    ContentionMeters, ContentionSummary, PeWallLog, WallCollector, WallEvent, WallEventKind,
    WallProfile,
};
pub use spin::SpinBarrier;
pub use threads::{MeshPoison, ThreadsEndpoint, ThreadsTransport};

/// Inert: the threads mesh is the only data plane, so there is nothing to
/// choose. The name is kept only because the frozen benchmark driver
/// names it (`DistConfig::transport`, `SimOptions::on`, [`endpoints`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TransportKind {
    /// Thread-per-PE over shared memory.
    #[default]
    Threads,
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
    /// frozen benchmark driver builds one) still compile; neither the mesh
    /// nor the runtime reads it.
    pub arrival: f64,
}

/// One PE's handle on the data plane. Handed to the rank thread that owns
/// it; all methods are called from that thread only.
///
/// The contract the mesh honours:
///
/// * **Per-channel FIFO** — messages from a fixed `(src, dst)` pair are
///   received in send order (cross-channel order is unspecified, exactly
///   like MPI).
/// * **Loss-free between barriers** — a message sent before a barrier the
///   receiver passes is eventually returned by `try_recv`.
/// * **`exchange`/`exchange_matrix` are collectives** — every rank calls
///   them the same number of times in the same order; they synchronise
///   internally (deposit → barrier → collect → barrier).
/// * **Fail fast** — once the mesh is poisoned (a peer panicked, or the
///   deadlock watchdog abandoned the run) `send`, `try_recv` and every
///   barrier panic, so the rank unwinds instead of waiting forever.
pub trait Endpoint: Send {
    /// This endpoint's rank.
    fn rank(&self) -> usize;
    /// Number of PEs on the transport.
    fn peers(&self) -> usize;
    /// Enqueues `msg` for delivery to `to`. Never blocks; a message to a
    /// PE that already finished stays queued unread until the mesh drops.
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

/// One boxed endpoint per rank (indexed by rank) over a fresh threads
/// mesh, ready to be moved into the rank threads. `kind` is inert (see
/// [`TransportKind`]); the runtime builds its mesh through
/// [`ThreadsTransport`] directly.
pub fn endpoints(_kind: TransportKind, p: usize) -> Vec<Box<dyn Endpoint>> {
    ThreadsTransport::endpoints(p)
        .into_iter()
        .map(|ep| Box::new(ep) as Box<dyn Endpoint>)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip() {
        let p = 4;
        let eps = endpoints(TransportKind::Threads, p);
        let results: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = eps
                .into_iter()
                .enumerate()
                .map(|(rank, mut ep)| {
                    scope.spawn(move || {
                        assert_eq!(ep.rank(), rank);
                        assert_eq!(ep.peers(), p);
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

    fn collectives() {
        let p = 3;
        let eps = endpoints(TransportKind::Threads, p);
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
    fn threads_roundtrip_and_collectives() {
        roundtrip();
        collectives();
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
}

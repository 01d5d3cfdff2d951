//! A sense-reversing spin barrier with panic poisoning.
//!
//! The threads mesh cannot use [`std::sync::Barrier`]: a PE that panics
//! while its siblings wait would leave them parked forever. This barrier
//! spins on an atomic generation counter — checking a shared poison flag
//! every iteration — so a peer panic propagates as a panic in every waiter
//! within microseconds, letting the scoped runtime join all threads and
//! re-raise the original payload. The deadlock watchdog sets the same flag
//! on a run it gives up on, so its stalled waiters unwind too.
//!
//! The end of a run is not a barrier: [`SpinBarrier::finish`] waits for
//! every party to *finish*, and never completes a [`SpinBarrier::wait`]. A
//! waiter that sees a finished party knows its barrier can never complete
//! and poisons the barrier naming that party, so a party that skips a
//! barrier and returns fails the run at the barrier it skipped.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Spin iterations between `yield_now` calls while waiting: stay hot for
/// short waits, stay polite when oversubscribed (more PE threads than
/// cores — p = 16 fixtures on a 4-core runner must not livelock).
const SPINS_PER_YIELD: u32 = 64;

/// A reusable sense-reversing barrier for a fixed party count, with a
/// poison flag that turns sibling panics into immediate local panics.
pub struct SpinBarrier {
    parties: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    poisoned: AtomicBool,
    /// Per party: whether it entered [`SpinBarrier::finish`].
    finished: Vec<AtomicBool>,
    finished_count: AtomicUsize,
    /// Why a waiter poisoned the barrier, when it could tell.
    cause: OnceLock<String>,
}

impl SpinBarrier {
    /// A barrier for `parties` threads.
    pub fn new(parties: usize) -> SpinBarrier {
        SpinBarrier {
            parties,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            finished: (0..parties).map(|_| AtomicBool::new(false)).collect(),
            finished_count: AtomicUsize::new(0),
            cause: OnceLock::new(),
        }
    }

    /// Marks the barrier poisoned: every current and future waiter panics.
    /// Called from the transport's unwind detection (endpoint `Drop` during
    /// a panic) and by the deadlock watchdog through
    /// [`crate::MeshPoison`].
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
    }

    /// Whether a peer has poisoned the barrier.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    /// The diagnosis a waiter poisoned the barrier with (a barrier no
    /// finished party can complete), if any.
    pub fn cause(&self) -> Option<&str> {
        self.cause.get().map(String::as_str)
    }

    /// Panics if the barrier is poisoned (a peer PE panicked, the watchdog
    /// gave up on the run, or a waiter found a finished party), with the
    /// waiter's diagnosis when there is one.
    #[inline]
    pub fn check_poison(&self) {
        if self.is_poisoned() {
            match self.cause() {
                Some(cause) => panic!("{cause}"),
                None => panic!(
                    "transport poisoned: a peer PE panicked or the watchdog abandoned the run"
                ),
            }
        }
    }

    /// Waits until all `parties` threads arrive. Panics if a peer poisons
    /// the barrier while waiting.
    pub fn wait(&self) {
        self.check_poison();
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            // last arrival: reset the count, then release the generation
            self.arrived.store(0, Ordering::Release);
            self.generation.fetch_add(1, Ordering::AcqRel);
            return;
        }
        let mut spins = 0u32;
        while self.generation.load(Ordering::Acquire) == gen {
            self.check_poison();
            // A party finishes only after passing every barrier it enters,
            // so once one has finished, re-reading the generation tells
            // whether this barrier completed or never can.
            if self.finished_count.load(Ordering::Acquire) > 0
                && self.generation.load(Ordering::Acquire) == gen
            {
                let _ = self.cause.set(self.mismatch());
                self.poison();
                self.check_poison();
            }
            spin(&mut spins);
        }
    }

    /// The end of party `rank`'s run: waits until every party has
    /// finished. Completes no [`SpinBarrier::wait`] — a party still waiting
    /// in one panics instead, naming `rank`. Panics if the barrier is
    /// poisoned while waiting.
    pub fn finish(&self, rank: usize) {
        self.check_poison();
        self.finished[rank].store(true, Ordering::Release);
        self.finished_count.fetch_add(1, Ordering::AcqRel);
        let mut spins = 0u32;
        while self.finished_count.load(Ordering::Acquire) < self.parties {
            self.check_poison();
            spin(&mut spins);
        }
    }

    /// Names the finished parties a waiter can never meet.
    fn mismatch(&self) -> String {
        let ranks: Vec<String> = (0..self.parties)
            .filter(|&r| self.finished[r].load(Ordering::Acquire))
            .map(|r| r.to_string())
            .collect();
        let who = match ranks.as_slice() {
            [one] => format!("rank {one}"),
            many => format!("ranks {}", many.join(", ")),
        };
        format!(
            "barrier mismatch: {who} returned from the rank program while a peer \
             waits in a barrier or collective it never entered"
        )
    }
}

/// One step of a wait loop: spin, yielding every [`SPINS_PER_YIELD`].
#[inline]
fn spin(spins: &mut u32) {
    *spins += 1;
    if *spins % SPINS_PER_YIELD == 0 {
        std::thread::yield_now();
    } else {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn synchronises_many_rounds() {
        let parties = 4;
        let rounds = 200;
        let barrier = Arc::new(SpinBarrier::new(parties));
        let counter = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..parties {
                let barrier = Arc::clone(&barrier);
                let counter = Arc::clone(&counter);
                scope.spawn(move || {
                    for round in 0..rounds {
                        counter.fetch_add(1, Ordering::SeqCst);
                        barrier.wait();
                        // between the two barriers every party observes the
                        // full increment of the round
                        let seen = counter.load(Ordering::SeqCst);
                        assert_eq!(seen, (round + 1) * parties as u64);
                        barrier.wait();
                    }
                });
            }
        });
    }

    #[test]
    fn poison_releases_waiters_as_panics() {
        let barrier = Arc::new(SpinBarrier::new(2));
        let waiter = Arc::clone(&barrier);
        let handle = std::thread::spawn(move || waiter.wait());
        barrier.poison();
        assert!(handle.join().is_err(), "waiter must panic, not hang");
    }

    #[test]
    fn single_party_is_free() {
        let b = SpinBarrier::new(1);
        for _ in 0..10 {
            b.wait();
        }
        b.finish(0);
    }

    #[test]
    fn finish_never_completes_a_barrier() {
        // party 0 skips the barrier and finishes: party 1's barrier can
        // never complete, so it panics naming party 0 — and party 0,
        // released by the poison, panics with the same diagnosis
        let barrier = Arc::new(SpinBarrier::new(2));
        let waiter = Arc::clone(&barrier);
        let handle = std::thread::spawn(move || waiter.wait());
        let finisher = std::panic::catch_unwind(|| barrier.finish(0));
        assert!(handle.join().is_err(), "waiter must panic, not hang");
        assert!(finisher.is_err(), "finisher must panic, not hang");
        let cause = barrier.cause().expect("the waiter diagnosed the mismatch");
        assert!(cause.contains("rank 0 returned"), "{cause}");
    }
}

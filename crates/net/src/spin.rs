//! A sense-reversing spin barrier with panic poisoning.
//!
//! The threads mesh cannot use [`std::sync::Barrier`]: a PE that panics
//! while its siblings wait would leave them parked forever. This barrier
//! spins on an atomic generation counter — checking a shared poison flag
//! every iteration — so a peer panic propagates as a panic in every waiter
//! within microseconds, letting the scoped runtime join all threads and
//! re-raise the original payload. The deadlock watchdog sets the same flag
//! on a run it gives up on, so its stalled waiters unwind too.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

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
}

impl SpinBarrier {
    /// A barrier for `parties` threads.
    pub fn new(parties: usize) -> SpinBarrier {
        SpinBarrier {
            parties,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
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

    /// Panics if the barrier is poisoned (a peer PE panicked, or the
    /// watchdog gave up on the run).
    #[inline]
    pub fn check_poison(&self) {
        assert!(
            !self.is_poisoned(),
            "transport poisoned: a peer PE panicked or the watchdog abandoned the run"
        );
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
            spins += 1;
            if spins % SPINS_PER_YIELD == 0 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
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
    }
}

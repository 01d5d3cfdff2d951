//! A from-scratch work-stealing task pool — the reproduction's stand-in for
//! the Intel TBB task scheduler the paper's hybrid mode uses (§IV-D).
//!
//! The paper's hybrid mode runs fewer MPI ranks with `t` threads each: the
//! *local phase* is cut into tasks for the workers, and the global phase
//! runs with MPI's *funneled* threading model (one thread talks to the
//! network). Here that is DITRIC with `KernelPolicy::pool_workers = t`:
//! `core::dist::local_pass` cuts its sources into degree-balanced chunks and
//! runs them on [`Pool::run_tasks`], a batch of tasks executed by `t`
//! workers with work stealing, results returned in task order so the fold
//! is schedule-independent.
//!
//! The deques are plain mutex-guarded `VecDeque`s (owner pops the front,
//! thieves pop the back). Tasks on the target workloads are chunks of
//! whole-vertex set intersections, so lock traffic is negligible against
//! task cost and the pool needs nothing beyond `std`.
//!
//! [`Executor`] is the other half: resident threads for `'static` jobs,
//! parked between them. The engine runs every serving-path distributed run
//! on one, so answering a read starts no thread.

#![warn(missing_docs)]

pub mod executor;
pub mod probe;
pub mod sched;

pub use executor::Executor;
pub use sched::{OsScheduler, Scheduler};

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// The result of one task: which worker ran it and what it returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskResult<R> {
    /// Index of the task in the submitted batch.
    pub task_index: usize,
    /// Worker that executed the task (0-based).
    pub worker: usize,
    /// The task's return value.
    pub result: R,
}

/// One worker's scheduling counters for a batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Tasks this worker executed.
    pub executed: u64,
    /// Steal probes into peers' deques (each locked peer counts once).
    pub steals_attempted: u64,
    /// Probes that came back with a task.
    pub steals_succeeded: u64,
}

/// A work-stealing pool of a fixed number of workers. Threads are spawned
/// per batch (scoped), which keeps the pool trivially free of lifetime
/// hazards; on the target workloads batch sizes dwarf spawn cost.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    num_workers: usize,
}

impl Pool {
    /// Creates a pool with `num_workers ≥ 1` workers.
    pub fn new(num_workers: usize) -> Self {
        assert!(num_workers >= 1);
        Pool { num_workers }
    }

    /// Number of workers.
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// Executes `f` on every task with work stealing and returns one
    /// [`TaskResult`] per task (sorted by task index). Per-worker
    /// executed/steal counters live in a [`probe::BatchProbe`] (relaxed
    /// atomics) while the batch runs, so in-flight batches are observable
    /// from outside — the comm watchdog reads them when it diagnoses a
    /// stall.
    pub fn run_tasks<T, R, F>(&self, tasks: Vec<T>, f: F) -> Vec<TaskResult<R>>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        self.run_tasks_sched(tasks, f, &OsScheduler)
    }

    /// Like [`Pool::run_tasks`], but every scheduling decision —
    /// worker start/retire, deque lock acquire/release, idle spin — is
    /// routed through `sched` (see [`sched::Scheduler`] for the calling
    /// contract). With [`OsScheduler`] this is the production path; a model
    /// checker passes a controlling scheduler to serialise workers and
    /// enumerate interleavings.
    pub fn run_tasks_sched<T, R, F, S>(&self, tasks: Vec<T>, f: F, sched: &S) -> Vec<TaskResult<R>>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
        S: Scheduler + ?Sized,
    {
        let total = tasks.len();
        if total == 0 {
            return Vec::new();
        }
        let probe = probe::BatchProbe::register(self.num_workers);
        if self.num_workers == 1 {
            return tasks
                .into_iter()
                .enumerate()
                .map(|(i, t)| {
                    let result = f(i, t);
                    probe.task_executed(0);
                    TaskResult {
                        task_index: i,
                        worker: 0,
                        result,
                    }
                })
                .collect();
        }

        // Pre-distribute tasks round-robin; imbalance is corrected by
        // stealing from the victims' back ends.
        let n = self.num_workers;
        let mut deques: Vec<VecDeque<(usize, T)>> = (0..n).map(|_| VecDeque::new()).collect();
        for (i, t) in tasks.into_iter().enumerate() {
            deques[i % n].push_back((i, t));
        }
        let queues: Vec<Mutex<VecDeque<(usize, T)>>> = deques.into_iter().map(Mutex::new).collect();
        let remaining = AtomicUsize::new(total);

        let mut partials: Vec<Vec<TaskResult<R>>> = Vec::with_capacity(n);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for wid in 0..n {
                let queues = &queues;
                let remaining = &remaining;
                let f = &f;
                let probe = &probe;
                handles.push(scope.spawn(move || {
                    sched.actor_started(wid);
                    let mut out: Vec<TaskResult<R>> = Vec::new();
                    loop {
                        // Own deque front, then steal from peers' backs. The
                        // own-deque pop must be a separate statement: chaining
                        // `.or_else` onto it keeps the own-lock guard alive
                        // through the steal attempts (temporaries live to the
                        // end of the statement), and n workers holding their
                        // own lock while locking a peer's is a lock cycle —
                        // every batch ends with all workers in the steal path.
                        // (`tricount-lint` rule TC-L002 rejects the chained
                        // shape; the model checker proves this one sound.)
                        sched.lock_acquire(wid, wid);
                        let own = queues[wid]
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .pop_front();
                        sched.lock_release(wid, wid);
                        let job = own.or_else(|| {
                            (1..n).find_map(|off| {
                                let victim = (wid + off) % n;
                                probe.steal_attempted(wid);
                                sched.lock_acquire(wid, victim);
                                let stolen = queues[victim]
                                    .lock()
                                    .unwrap_or_else(PoisonError::into_inner)
                                    .pop_back();
                                sched.lock_release(wid, victim);
                                if stolen.is_some() {
                                    probe.steal_succeeded(wid);
                                }
                                stolen
                            })
                        });
                        match job {
                            Some((idx, task)) => {
                                let result = f(idx, task);
                                probe.task_executed(wid);
                                out.push(TaskResult {
                                    task_index: idx,
                                    worker: wid,
                                    result,
                                });
                                remaining.fetch_sub(1, Ordering::AcqRel);
                                sched.progress(wid);
                            }
                            None => {
                                if remaining.load(Ordering::Acquire) == 0 {
                                    break;
                                }
                                sched.yield_now(wid);
                            }
                        }
                    }
                    sched.actor_finished(wid);
                    out
                }));
            }
            // Join everything before re-raising a worker panic: unwinding
            // out of the scope with threads still running would make the
            // scope's implicit join panic a second time (process abort). A
            // controlling scheduler aborts *all* actors by panic, so several
            // Errs at once is the norm, not the exception.
            let mut first_panic: Option<Box<dyn std::any::Any + Send>> = None;
            for h in handles {
                match h.join() {
                    Ok(part) => partials.push(part),
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

        let mut all: Vec<TaskResult<R>> = partials.into_iter().flatten().collect();
        all.sort_by_key(|r| r.task_index);
        all
    }

    /// The pre-PR 2 fetch discipline, resurrected verbatim for model-checker
    /// regression tests: the own-deque guard is held across the steal
    /// attempts, so `n` idle workers form a lock cycle. Only compiled with
    /// the test-only `mc-regressions` feature; never call this outside a
    /// controlling scheduler — under the OS scheduler it really deadlocks.
    #[cfg(feature = "mc-regressions")]
    pub fn run_tasks_buggy_sched<T, R, F, S>(
        &self,
        tasks: Vec<T>,
        f: F,
        sched: &S,
    ) -> Vec<TaskResult<R>>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
        S: Scheduler + ?Sized,
    {
        let total = tasks.len();
        let n = self.num_workers;
        assert!(n >= 2, "the buggy steal path needs at least two workers");
        if total == 0 {
            return Vec::new();
        }
        let mut deques: Vec<VecDeque<(usize, T)>> = (0..n).map(|_| VecDeque::new()).collect();
        for (i, t) in tasks.into_iter().enumerate() {
            deques[i % n].push_back((i, t));
        }
        let queues: Vec<Mutex<VecDeque<(usize, T)>>> = deques.into_iter().map(Mutex::new).collect();
        let remaining = AtomicUsize::new(total);

        let mut partials: Vec<Vec<TaskResult<R>>> = Vec::with_capacity(n);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for wid in 0..n {
                let queues = &queues;
                let remaining = &remaining;
                let f = &f;
                handles.push(scope.spawn(move || {
                    sched.actor_started(wid);
                    let mut out: Vec<TaskResult<R>> = Vec::new();
                    loop {
                        // BUG (intentional): one chained statement keeps the
                        // own-deque guard alive through the steal attempts.
                        sched.lock_acquire(wid, wid);
                        let job = queues[wid]
                            .lock() // lint: allow(TC-L002)
                            .unwrap_or_else(PoisonError::into_inner)
                            .pop_front()
                            .or_else(|| {
                                (1..n).find_map(|off| {
                                    let victim = (wid + off) % n;
                                    sched.lock_acquire(wid, victim);
                                    let stolen = queues[victim]
                                        .lock() // lint: allow(TC-L002)
                                        .unwrap_or_else(PoisonError::into_inner)
                                        .pop_back();
                                    sched.lock_release(wid, victim);
                                    stolen
                                })
                            });
                        sched.lock_release(wid, wid);
                        match job {
                            Some((idx, task)) => {
                                let result = f(idx, task);
                                out.push(TaskResult {
                                    task_index: idx,
                                    worker: wid,
                                    result,
                                });
                                remaining.fetch_sub(1, Ordering::AcqRel);
                                sched.progress(wid);
                            }
                            None => {
                                if remaining.load(Ordering::Acquire) == 0 {
                                    break;
                                }
                                sched.yield_now(wid);
                            }
                        }
                    }
                    sched.actor_finished(wid);
                    out
                }));
            }
            let mut first_panic: Option<Box<dyn std::any::Any + Send>> = None;
            for h in handles {
                match h.join() {
                    Ok(part) => partials.push(part),
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

        let mut all: Vec<TaskResult<R>> = Vec::with_capacity(total);
        for out in partials {
            all.extend(out);
        }
        all.sort_by_key(|r| r.task_index);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_tasks_run_exactly_once() {
        let pool = Pool::new(4);
        let results = pool.run_tasks((0..1000u64).collect(), |_i, x| x * 2);
        assert_eq!(results.len(), 1000);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.task_index, i);
            assert_eq!(r.result, 2 * i as u64);
            assert!(r.worker < 4);
        }
    }

    #[test]
    fn single_worker_is_sequential() {
        let pool = Pool::new(1);
        let results = pool.run_tasks(vec![1u32, 2, 3], |_i, x| x + 10);
        assert!(results.iter().all(|r| r.worker == 0));
        assert_eq!(
            results.iter().map(|r| r.result).collect::<Vec<_>>(),
            vec![11, 12, 13]
        );
    }

    #[test]
    fn empty_batch() {
        let pool = Pool::new(3);
        let results: Vec<TaskResult<u32>> = pool.run_tasks(Vec::<u32>::new(), |_i, x| x);
        assert!(results.is_empty());
    }

    #[test]
    fn uneven_tasks_complete() {
        // a few heavy tasks among many light ones — all must finish
        let pool = Pool::new(4);
        let tasks: Vec<u64> = (0..64)
            .map(|i| if i % 16 == 0 { 200_000 } else { 10 })
            .collect();
        let results = pool.run_tasks(tasks, |_i, work| {
            let mut acc = 0u64;
            for k in 0..work {
                acc = acc.wrapping_add(k ^ (acc << 1));
            }
            acc
        });
        assert_eq!(results.len(), 64);
    }

    #[test]
    fn drained_batches_terminate() {
        // Regression: every batch ends with all workers in the steal path at
        // once; the pool must never hold its own deque lock while locking a
        // peer's (lock cycle → deadlock). Many tiny batches maximise
        // end-of-batch contention.
        for workers in [2usize, 4, 8] {
            let pool = Pool::new(workers);
            for round in 0..200u64 {
                let tasks: Vec<u64> = (0..workers as u64 + round % 3).collect();
                let results = pool.run_tasks(tasks, |_i, x| x);
                assert_eq!(results.len(), workers + (round % 3) as usize);
            }
        }
    }

    /// Runs `tasks` on `workers` workers and reads the batch's live probe as
    /// the last worker retires (the batch is still registered then). Returns
    /// the results, the probe's per-worker counters and the number of peer
    /// deque locks taken (each steal probe locks exactly one peer's deque).
    /// The batch is found in the registry by its width, so each caller uses
    /// a width no other test in this crate registers concurrently.
    fn run_reading_live_probe(
        workers: usize,
        tasks: Vec<u64>,
        f: impl Fn(usize, u64) -> u64 + Sync,
    ) -> (Vec<TaskResult<u64>>, Vec<WorkerStats>, u64) {
        struct ReadProbeAtRetire {
            workers: usize,
            finished: AtomicUsize,
            peer_locks: AtomicUsize,
            seen: Mutex<Vec<WorkerStats>>,
        }
        impl Scheduler for ReadProbeAtRetire {
            fn lock_acquire(&self, actor: usize, lock: usize) {
                if actor != lock {
                    self.peer_locks.fetch_add(1, Ordering::Relaxed);
                }
            }
            fn actor_finished(&self, _actor: usize) {
                if self.finished.fetch_add(1, Ordering::AcqRel) + 1 == self.workers {
                    *self.seen.lock().unwrap() = probe::snapshot_live()
                        .into_iter()
                        .find(|b| b.len() == self.workers)
                        .expect("the batch's probe is live until it returns");
                }
            }
        }

        let s = ReadProbeAtRetire {
            workers,
            finished: AtomicUsize::new(0),
            peer_locks: AtomicUsize::new(0),
            seen: Mutex::new(Vec::new()),
        };
        let results = Pool::new(workers).run_tasks_sched(tasks, f, &s);
        let peer_locks = s.peer_locks.load(Ordering::Relaxed) as u64;
        (results, s.seen.into_inner().unwrap(), peer_locks)
    }

    #[test]
    fn stats_account_for_every_task() {
        // The live probe counts every task against the worker that ran it.
        const WORKERS: usize = 6;
        let (results, seen, _) =
            run_reading_live_probe(WORKERS, (0..200u64).collect(), |_i, x| x + 1);
        assert_eq!(results.len(), 200);
        assert_eq!(seen.len(), WORKERS);
        let mut per_worker = [0u64; WORKERS];
        for r in &results {
            per_worker[r.worker] += 1;
        }
        for (w, ws) in seen.iter().enumerate() {
            assert_eq!(ws.executed, per_worker[w], "worker {w}");
            assert!(ws.steals_succeeded <= ws.steals_attempted, "worker {w}");
        }
    }

    #[test]
    fn stats_visible_through_live_probe_registry() {
        // A batch's counters are readable from the registry while it runs,
        // and their total is every task of the batch.
        const WORKERS: usize = 7;
        let (results, seen, _) = run_reading_live_probe(WORKERS, (0..40u64).collect(), |_i, x| x);
        assert_eq!(results.len(), 40);
        assert_eq!(seen.len(), WORKERS);
        assert_eq!(seen.iter().map(|w| w.executed).sum::<u64>(), 40);
    }

    #[test]
    fn imbalanced_batch_records_steals() {
        // One heavy task leaves its worker's deque for the idle workers to
        // steal from. The live probe counts every steal: each steal probe
        // locks a peer's deque, and each task that ran off the deque it was
        // dealt to round-robin was stolen exactly once. Steal *attempts* are
        // guaranteed by the end-of-batch drain even when every probe misses.
        const WORKERS: usize = 5;
        let (results, seen, peer_locks) =
            run_reading_live_probe(WORKERS, (0..200u64).collect(), |_i, x| {
                let rounds = if x == 0 { 2_000_000u64 } else { 10 };
                (0..rounds).fold(x, |acc, k| acc.wrapping_add(k ^ (acc << 1)))
            });
        assert_eq!(results.len(), 200);
        let mut executed = [0u64; WORKERS];
        for r in &results {
            executed[r.worker] += 1;
        }
        let stolen = results
            .iter()
            .filter(|r| r.worker != r.task_index % WORKERS)
            .count() as u64;
        let attempted: u64 = seen.iter().map(|w| w.steals_attempted).sum();
        assert_eq!(
            seen.iter().map(|w| w.executed).collect::<Vec<_>>(),
            executed
        );
        assert_eq!(seen.iter().map(|w| w.steals_succeeded).sum::<u64>(), stolen);
        assert_eq!(attempted, peer_locks);
        assert!(attempted > 0);
    }

    #[test]
    fn scheduler_hooks_are_balanced() {
        use std::sync::atomic::AtomicUsize;

        #[derive(Default)]
        struct CountingSched {
            started: AtomicUsize,
            finished: AtomicUsize,
            acquires: AtomicUsize,
            releases: AtomicUsize,
            progressed: AtomicUsize,
        }
        impl Scheduler for CountingSched {
            fn actor_started(&self, _actor: usize) {
                self.started.fetch_add(1, Ordering::Relaxed);
            }
            fn actor_finished(&self, _actor: usize) {
                self.finished.fetch_add(1, Ordering::Relaxed);
            }
            fn lock_acquire(&self, _actor: usize, _lock: usize) {
                self.acquires.fetch_add(1, Ordering::Relaxed);
            }
            fn lock_release(&self, _actor: usize, _lock: usize) {
                self.releases.fetch_add(1, Ordering::Relaxed);
            }
            fn progress(&self, _actor: usize) {
                self.progressed.fetch_add(1, Ordering::Relaxed);
            }
        }

        let pool = Pool::new(3);
        let s = CountingSched::default();
        let results = pool.run_tasks_sched((0..50u64).collect(), |_i, x| x + 1, &s);
        assert_eq!(results.len(), 50);
        assert_eq!(s.started.load(Ordering::Relaxed), 3);
        assert_eq!(s.finished.load(Ordering::Relaxed), 3);
        assert_eq!(s.progressed.load(Ordering::Relaxed), 50);
        assert_eq!(
            s.acquires.load(Ordering::Relaxed),
            s.releases.load(Ordering::Relaxed)
        );
        // Every fetch takes at least the own-deque lock once per task.
        assert!(s.acquires.load(Ordering::Relaxed) >= 50);
    }

    #[test]
    fn deterministic_result_values() {
        let pool = Pool::new(4);
        let a: Vec<u64> = pool
            .run_tasks((0..500u64).collect(), |i, x| x * 3 + i as u64)
            .into_iter()
            .map(|r| r.result)
            .collect();
        let b: Vec<u64> = pool
            .run_tasks((0..500u64).collect(), |i, x| x * 3 + i as u64)
            .into_iter()
            .map(|r| r.result)
            .collect();
        assert_eq!(a, b);
    }
}

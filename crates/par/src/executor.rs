//! Resident threads for `'static` jobs.
//!
//! [`Pool`](crate::Pool) spawns scoped threads per batch, which is right
//! when a batch runs for milliseconds on borrowed data. A serving engine
//! runs many sub-millisecond distributed runs, each of which needs `p`
//! threads that live exactly as long as the run; spawning them per run
//! costs more than the run's own work. An [`Executor`] keeps its threads
//! parked between jobs instead:
//!
//! * [`spawn`](Executor::spawn) hands a job to an idle thread and starts a
//!   new one only when none is idle;
//! * a job that panics is caught — its thread survives and parks again,
//!   and the panic reaches the job's completion callback as an `Err`;
//! * the completion callback runs *after* the thread is counted idle, so a
//!   caller that waits for every callback of one run finds all of that
//!   run's threads idle for the next — sequential runs never start threads
//!   once the first has;
//! * when the last handle drops, the idle threads exit (busy ones exit as
//!   soon as their job and callback return).
//!
//! The threads are detached, not joined: a job its caller abandoned (a
//! rank the watchdog gave up on) may still be running when the last handle
//! drops, and joining it there would hang the dropper. Detaching hides no
//! panic, since every job's panic reaches its callback.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// A job as the worker loop sees it: run the job, return its completion.
type Task = Box<dyn FnOnce() -> Completion + Send>;
/// A finished job's callback, run once its thread is back to idle.
type Completion = Box<dyn FnOnce()>;

struct State {
    queue: VecDeque<Task>,
    /// Threads parked (or about to park) without a claimed job. Every
    /// queued task has claimed one, so this is `parked − queue.len()`.
    idle: usize,
    /// Set when the last [`Executor`] handle drops.
    shutdown: bool,
    threads_started: u64,
    jobs_run: u64,
}

struct Shared {
    state: Mutex<State>,
    work: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        // A job never runs under this lock, so poisoning cannot leave the
        // state half-updated.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Owned by every [`Executor`] clone; its drop is the last handle's drop.
struct Handle {
    shared: Arc<Shared>,
}

impl Drop for Handle {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.work.notify_all();
    }
}

/// A cloneable handle to resident OS threads that run `'static` jobs.
/// Clones share the threads; see the [module docs](self).
#[derive(Clone)]
pub struct Executor {
    handle: Arc<Handle>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.handle.shared.lock();
        f.debug_struct("Executor")
            .field("threads_started", &st.threads_started)
            .field("jobs_run", &st.jobs_run)
            .field("idle", &st.idle)
            .finish()
    }
}

impl Default for Executor {
    fn default() -> Self {
        Executor::new()
    }
}

impl Executor {
    /// An executor with no threads yet.
    pub fn new() -> Executor {
        Executor {
            handle: Arc::new(Handle {
                shared: Arc::new(Shared {
                    state: Mutex::new(State {
                        queue: VecDeque::new(),
                        idle: 0,
                        shutdown: false,
                        threads_started: 0,
                        jobs_run: 0,
                    }),
                    work: Condvar::new(),
                }),
            }),
        }
    }

    /// Runs `job` on an idle thread — starting one if none is idle — and
    /// then, on the same thread once it is counted idle again, `done` with
    /// the job's result (`Err` carrying the payload if it panicked).
    ///
    /// # Panics
    ///
    /// If the OS refuses to start a needed thread, like
    /// `std::thread::spawn`.
    pub fn spawn<T, J, D>(&self, job: J, done: D)
    where
        T: 'static,
        J: FnOnce() -> T + Send + 'static,
        D: FnOnce(std::thread::Result<T>) + Send + 'static,
    {
        let task: Task = Box::new(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
            Box::new(move || done(result))
        });
        let shared = &self.handle.shared;
        let mut st = shared.lock();
        if st.idle > 0 {
            st.idle -= 1;
            st.queue.push_back(task);
            drop(st);
            shared.work.notify_one();
            return;
        }
        st.threads_started += 1;
        drop(st);
        start(shared, Some(task));
    }

    /// Starts idle threads until at least `n` have been started, so the
    /// next `n` concurrent jobs start none.
    pub fn reserve(&self, n: usize) {
        let shared = &self.handle.shared;
        loop {
            let mut st = shared.lock();
            if st.threads_started >= n as u64 {
                return;
            }
            st.threads_started += 1;
            // Counted idle before it runs, so a spawn right after this
            // returns already finds it.
            st.idle += 1;
            drop(st);
            start(shared, None);
        }
    }

    /// Threads started since the executor was created (including any
    /// that have since exited).
    pub fn threads_started(&self) -> u64 {
        self.handle.shared.lock().threads_started
    }

    /// Jobs finished, panicked ones included. A job counts once its thread
    /// is idle again, before its completion callback runs.
    pub fn jobs_run(&self) -> u64 {
        self.handle.shared.lock().jobs_run
    }
}

/// Starts a thread that runs `first`, if given, and then parks. The caller
/// has counted it started, and idle if there is no `first`; a failed start
/// takes those counts back before it panics.
fn start(shared: &Arc<Shared>, first: Option<Task>) {
    let parked = first.is_none();
    let worker = Arc::clone(shared);
    let started = std::thread::Builder::new()
        .name("tricount-exec".to_string())
        .spawn(move || {
            if let Some(task) = first {
                finish(&worker, task());
            }
            park(&worker);
        });
    if let Err(e) = started {
        let mut st = shared.lock();
        st.threads_started -= 1;
        st.idle -= usize::from(parked);
        drop(st);
        panic!("failed to start an executor thread: {e}");
    }
}

/// Counts the finished job, marks the thread idle, runs the completion.
fn finish(shared: &Shared, done: Completion) {
    {
        let mut st = shared.lock();
        st.jobs_run += 1;
        st.idle += 1;
    }
    // The job's own panic was caught; a panicking callback is the
    // caller's bug, but must not take a counted-idle thread with it.
    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(done));
}

/// Waits for queued tasks until shutdown. The caller has already counted
/// this thread idle.
fn park(shared: &Shared) {
    loop {
        let task = {
            let mut st = shared.lock();
            loop {
                if let Some(task) = st.queue.pop_front() {
                    break task;
                }
                if st.shutdown {
                    st.idle -= 1;
                    return;
                }
                st = shared.work.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let done = task();
        finish(shared, done);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    const WAIT: Duration = Duration::from_secs(10);

    /// Runs `job` and waits for its completion.
    fn run<T: Send + 'static>(
        exec: &Executor,
        job: impl FnOnce() -> T + Send + 'static,
    ) -> std::thread::Result<T> {
        let (tx, rx) = mpsc::channel();
        exec.spawn(job, move |r| tx.send(r).unwrap());
        rx.recv_timeout(WAIT).unwrap()
    }

    #[test]
    fn sequential_jobs_share_one_thread() {
        let exec = Executor::new();
        for i in 0..50u64 {
            assert_eq!(run(&exec, move || i * 2).unwrap(), i * 2);
        }
        assert_eq!(exec.threads_started(), 1);
        assert_eq!(exec.jobs_run(), 50);
    }

    #[test]
    fn concurrent_jobs_start_one_thread_each() {
        let exec = Executor::new();
        let n = 4;
        let barrier = Arc::new(std::sync::Barrier::new(n));
        let (tx, rx) = mpsc::channel();
        for _ in 0..n {
            let (barrier, tx) = (Arc::clone(&barrier), tx.clone());
            exec.spawn(move || barrier.wait(), move |r| tx.send(r.is_ok()).unwrap());
        }
        for _ in 0..n {
            assert!(rx.recv_timeout(WAIT).unwrap());
        }
        assert_eq!(exec.threads_started(), n as u64);
        // All four are idle again: another round of four starts none.
        let barrier = Arc::new(std::sync::Barrier::new(n));
        for _ in 0..n {
            let (barrier, tx) = (Arc::clone(&barrier), tx.clone());
            exec.spawn(move || barrier.wait(), move |r| tx.send(r.is_ok()).unwrap());
        }
        for _ in 0..n {
            assert!(rx.recv_timeout(WAIT).unwrap());
        }
        assert_eq!(exec.threads_started(), n as u64);
    }

    #[test]
    fn panicking_job_keeps_its_thread() {
        let exec = Executor::new();
        let r = run(&exec, || -> u32 { panic!("deliberate job panic") });
        let payload = r.unwrap_err();
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"deliberate job panic")
        );
        assert_eq!(exec.threads_started(), 1);
        assert_eq!(run(&exec, || 7u32).unwrap(), 7);
        assert_eq!(
            exec.threads_started(),
            1,
            "the panicked job's thread is reused"
        );
        assert_eq!(exec.jobs_run(), 2);
    }

    #[test]
    fn reserved_threads_serve_without_starting_more() {
        let exec = Executor::new();
        exec.reserve(3);
        exec.reserve(2);
        assert_eq!(exec.threads_started(), 3);
        let barrier = Arc::new(std::sync::Barrier::new(3));
        let (tx, rx) = mpsc::channel();
        for _ in 0..3 {
            let (barrier, tx) = (Arc::clone(&barrier), tx.clone());
            exec.spawn(move || barrier.wait(), move |_| tx.send(()).unwrap());
        }
        for _ in 0..3 {
            rx.recv_timeout(WAIT).unwrap();
        }
        assert_eq!(exec.threads_started(), 3);
    }

    #[test]
    fn dropping_the_last_handle_ends_idle_threads() {
        /// Reports its thread's exit: thread-local destructors run when the
        /// thread ends.
        struct ExitSignal(mpsc::Sender<()>);
        impl Drop for ExitSignal {
            fn drop(&mut self) {
                let _ = self.0.send(());
            }
        }
        thread_local! {
            static ON_EXIT: std::cell::RefCell<Option<ExitSignal>> =
                const { std::cell::RefCell::new(None) };
        }

        let exec = Executor::new();
        let (exit_tx, exit_rx) = mpsc::channel();
        let n = 3;
        let barrier = Arc::new(std::sync::Barrier::new(n));
        let (tx, rx) = mpsc::channel();
        for _ in 0..n {
            let (barrier, exit_tx, tx) = (Arc::clone(&barrier), exit_tx.clone(), tx.clone());
            exec.spawn(
                move || {
                    ON_EXIT.with(|s| *s.borrow_mut() = Some(ExitSignal(exit_tx)));
                    barrier.wait();
                },
                move |_| tx.send(()).unwrap(),
            );
        }
        drop(exit_tx);
        for _ in 0..n {
            rx.recv_timeout(WAIT).unwrap();
        }
        let clone = exec.clone();
        drop(exec);
        assert!(
            exit_rx.recv_timeout(Duration::from_millis(50)).is_err(),
            "a live clone keeps the threads"
        );
        drop(clone);
        for _ in 0..n {
            exit_rx.recv_timeout(WAIT).unwrap();
        }
    }

    #[test]
    fn last_handle_dropped_by_a_job_shuts_down() {
        let exec = Executor::new();
        let (tx, rx) = mpsc::channel();
        let inner = exec.clone();
        drop(exec);
        let keep = inner.clone();
        inner.spawn(move || drop(keep), move |_| tx.send(()).unwrap());
        drop(inner);
        rx.recv_timeout(WAIT).unwrap();
    }
}

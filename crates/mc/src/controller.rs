//! The serialising scheduler behind the model checker.
//!
//! A [`Controller`] implements [`tricount_par::Scheduler`] so that a
//! [`tricount_par::Pool`] batch runs with **exactly one actor executing at a
//! time**: every other worker thread is parked on a condvar. At every
//! *decision point* (a lock acquire, an idle yield, a worker retiring) the
//! running actor consults the controller, which picks the next actor to run
//! from the set of *schedulable* ones — deterministically, driven by a
//! replay `script` recorded as a `trail` of `(arity, chosen)` pairs. The
//! DFS driver in [`crate::explore`] enumerates scripts.
//!
//! Locks are **virtualised**: the controller tracks a grant table mirroring
//! the pool's real deque mutexes. Because actors are serialised and a lock
//! is only granted when free, the real mutexes never contend — a lock cycle
//! that would hang a free-running pool shows up here as "no schedulable
//! actor while some are unfinished", which the controller reports as a
//! deadlock and aborts by unwinding every actor ([`McAbort`]).
//!
//! Idle spinning is made finite: a worker that yields is blocked until some
//! other actor reports progress (task completion), so the schedule tree has
//! no unbounded spin branches. A per-execution step cap backstops livelock.

use std::panic::panic_any;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use tricount_par::Scheduler;

/// Panic payload used to abort every actor of a doomed execution. The
/// exploration harness catches it with `catch_unwind`; anything else is
/// re-raised.
#[derive(Debug)]
pub struct McAbort;

/// Why an execution was aborted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbortReason {
    /// No schedulable actor while some are unfinished. The string renders
    /// each stuck actor's held locks and wanted resource.
    Deadlock(String),
    /// The per-execution step cap was exceeded (livelock backstop).
    StepLimit,
}

const NO_ACTOR: usize = usize::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Waiting {
    /// Runnable: not waiting on anything.
    Ready,
    /// Wants this lock; schedulable iff the lock is free.
    Lock(usize),
    /// Yielded at this progress epoch; schedulable iff the epoch advanced.
    Progress(u64),
    /// Retired.
    Finished,
}

#[derive(Debug)]
struct Ctl {
    waiting: Vec<Waiting>,
    lock_owner: Vec<Option<usize>>,
    current: usize,
    progress_epoch: u64,
    /// Choices to replay, indexed by decision number (arity > 1 only).
    /// Past the end, the first candidate is taken.
    script: Vec<usize>,
    /// Decisions taken this execution: `(arity, chosen)`, arity > 1 only.
    trail: Vec<(usize, usize)>,
    /// `None` = unbounded; `Some(b)` = at most `b` preemptions, after which
    /// the running actor keeps running until it blocks.
    preemption_budget: Option<u32>,
    preemptions_used: u32,
    steps: u64,
    max_steps: u64,
    abort: Option<AbortReason>,
}

/// A deterministic, serialising [`Scheduler`]: one schedule per instance.
#[derive(Debug)]
pub struct Controller {
    state: Mutex<Ctl>,
    cv: Condvar,
}

impl Controller {
    /// A controller for `actors` workers over `locks` virtual locks,
    /// replaying `script` under the given preemption budget and step cap.
    /// The initial "who runs first" decision is taken here, so it is part
    /// of the explored space.
    pub fn new(
        actors: usize,
        locks: usize,
        script: Vec<usize>,
        preemption_budget: Option<u32>,
        max_steps: u64,
    ) -> Self {
        let ctl = Ctl {
            waiting: vec![Waiting::Ready; actors],
            lock_owner: vec![None; locks],
            current: NO_ACTOR,
            progress_epoch: 0,
            script,
            trail: Vec::new(),
            preemption_budget,
            preemptions_used: 0,
            steps: 0,
            max_steps,
            abort: None,
        };
        let c = Controller {
            state: Mutex::new(ctl),
            cv: Condvar::new(),
        };
        {
            let mut g = c.lock();
            c.decide(&mut g, NO_ACTOR);
        }
        c
    }

    fn lock(&self) -> MutexGuard<'_, Ctl> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The decision trail of the finished (or aborted) execution.
    pub fn trail(&self) -> Vec<(usize, usize)> {
        self.lock().trail.clone()
    }

    /// Why the execution aborted, if it did.
    pub fn abort_reason(&self) -> Option<AbortReason> {
        self.lock().abort.clone()
    }

    /// Preemptions charged during the execution.
    pub fn preemptions_used(&self) -> u32 {
        self.lock().preemptions_used
    }

    fn schedulable(ctl: &Ctl, a: usize) -> bool {
        match ctl.waiting[a] {
            Waiting::Ready => true,
            Waiting::Lock(l) => ctl.lock_owner[l].is_none(),
            Waiting::Progress(e) => ctl.progress_epoch > e,
            Waiting::Finished => false,
        }
    }

    fn describe_stuck(ctl: &Ctl) -> String {
        let mut out = String::new();
        for (a, w) in ctl.waiting.iter().enumerate() {
            let holds: Vec<String> = ctl
                .lock_owner
                .iter()
                .enumerate()
                .filter(|&(_, o)| *o == Some(a))
                .map(|(l, _)| l.to_string())
                .collect();
            let wants = match w {
                Waiting::Ready => "ready".to_string(),
                Waiting::Lock(l) => format!("lock {l}"),
                Waiting::Progress(_) => "progress".to_string(),
                Waiting::Finished => "finished".to_string(),
            };
            out.push_str(&format!(
                "actor {a}: holds [{}], waits on {wants}; ",
                holds.join(",")
            ));
        }
        out
    }

    /// Picks the next actor to run. `prev` is the actor standing at the
    /// decision point (`NO_ACTOR` for the initial decision). Callers hold
    /// the state mutex; the choice is a pure function of controller state,
    /// so it does not matter which thread executes it.
    fn decide(&self, ctl: &mut Ctl, prev: usize) {
        if ctl.abort.is_some() {
            self.cv.notify_all();
            return;
        }
        let mut cands: Vec<usize> = (0..ctl.waiting.len())
            .filter(|&a| Self::schedulable(ctl, a))
            .collect();
        if cands.is_empty() {
            if ctl.waiting.iter().all(|w| *w == Waiting::Finished) {
                ctl.current = NO_ACTOR;
                self.cv.notify_all();
                return;
            }
            ctl.abort = Some(AbortReason::Deadlock(Self::describe_stuck(ctl)));
            self.cv.notify_all();
            return;
        }
        if let Some(b) = ctl.preemption_budget {
            if ctl.preemptions_used >= b && prev != NO_ACTOR && Self::schedulable(ctl, prev) {
                // budget exhausted: the running actor keeps running until it
                // genuinely blocks — no branching, no trail entry
                cands = vec![prev];
            }
        }
        let idx = if cands.len() > 1 {
            let k = ctl.trail.len();
            // clamp is a no-op on deterministic replays (same prefix ⇒ same
            // arity); it keeps divergent replays safe instead of panicking
            let want = ctl.script.get(k).copied().unwrap_or(0);
            let idx = want.min(cands.len() - 1);
            ctl.trail.push((cands.len(), idx));
            idx
        } else {
            0
        };
        let chosen = cands[idx];
        if prev != NO_ACTOR && chosen != prev && Self::schedulable(ctl, prev) {
            ctl.preemptions_used += 1;
        }
        ctl.current = chosen;
        self.cv.notify_all();
    }

    /// Parks until `a` is the current actor; panics with [`McAbort`] when
    /// the execution has been aborted.
    fn wait_until_current<'g>(
        &'g self,
        mut g: MutexGuard<'g, Ctl>,
        a: usize,
    ) -> MutexGuard<'g, Ctl> {
        loop {
            if g.abort.is_some() {
                drop(g);
                panic_any(McAbort);
            }
            if g.current == a {
                return g;
            }
            g = self.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Counts a step against the livelock cap; aborts on overflow.
    fn note_step(&self, g: &mut MutexGuard<'_, Ctl>) {
        g.steps += 1;
        if g.steps > g.max_steps {
            g.abort = Some(AbortReason::StepLimit);
            self.cv.notify_all();
        }
    }
}

impl Scheduler for Controller {
    fn actor_started(&self, actor: usize) {
        let g = self.lock();
        let g = self.wait_until_current(g, actor);
        drop(g);
    }

    fn actor_finished(&self, actor: usize) {
        let mut g = self.lock();
        g = self.wait_until_current(g, actor);
        g.waiting[actor] = Waiting::Finished;
        self.decide(&mut g, actor);
        // the thread exits without waiting: it will never run again
    }

    fn lock_acquire(&self, actor: usize, lock: usize) {
        let mut g = self.lock();
        g = self.wait_until_current(g, actor);
        self.note_step(&mut g);
        g.waiting[actor] = Waiting::Lock(lock);
        self.decide(&mut g, actor);
        let mut g = self.wait_until_current(g, actor);
        debug_assert!(g.lock_owner[lock].is_none(), "granted a held lock");
        g.lock_owner[lock] = Some(actor);
        g.waiting[actor] = Waiting::Ready;
    }

    fn lock_release(&self, actor: usize, lock: usize) {
        let mut g = self.lock();
        debug_assert_eq!(g.lock_owner[lock], Some(actor), "release by non-owner");
        g.lock_owner[lock] = None;
    }

    fn progress(&self, _actor: usize) {
        let mut g = self.lock();
        g.progress_epoch += 1;
    }

    fn yield_now(&self, actor: usize) {
        let mut g = self.lock();
        g = self.wait_until_current(g, actor);
        self.note_step(&mut g);
        let epoch = g.progress_epoch;
        g.waiting[actor] = Waiting::Progress(epoch);
        self.decide(&mut g, actor);
        let mut g = self.wait_until_current(g, actor);
        g.waiting[actor] = Waiting::Ready;
    }
}

/// Computes the script of the next unexplored schedule from a finished
/// execution's trail (depth-first: increment the deepest incrementable
/// choice, truncate everything after it). `None` when the space rooted at
/// this trail's prefix is exhausted.
pub fn next_script(trail: &[(usize, usize)]) -> Option<Vec<usize>> {
    let mut i = trail.len();
    while i > 0 {
        i -= 1;
        let (arity, chosen) = trail[i];
        if chosen + 1 < arity {
            let mut s: Vec<usize> = trail[..i].iter().map(|&(_, c)| c).collect();
            s.push(chosen + 1);
            return Some(s);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_script_walks_the_tree() {
        assert_eq!(next_script(&[]), None);
        assert_eq!(next_script(&[(2, 0)]), Some(vec![1]));
        assert_eq!(next_script(&[(2, 1)]), None);
        assert_eq!(next_script(&[(3, 0), (2, 1)]), Some(vec![1]));
        assert_eq!(next_script(&[(2, 0), (3, 1)]), Some(vec![0, 2]));
    }

    #[test]
    fn controller_serialises_and_terminates() {
        use tricount_par::Pool;
        let pool = Pool::new(2);
        let ctrl = Controller::new(2, 2, Vec::new(), None, 10_000);
        let results = pool.run_tasks_sched((0..4u64).collect(), |_i, x| x * 2, &ctrl);
        assert_eq!(results.len(), 4);
        assert!(ctrl.abort_reason().is_none());
        // at least the initial who-runs-first decision had arity 2
        assert!(!ctrl.trail().is_empty());
    }

    #[test]
    fn replay_is_deterministic() {
        use tricount_par::Pool;
        let run = |script: Vec<usize>| {
            let pool = Pool::new(3);
            let ctrl = Controller::new(3, 3, script, None, 10_000);
            let r = pool.run_tasks_sched((0..5u64).collect(), |_i, x| x + 7, &ctrl);
            (
                r.into_iter()
                    .map(|t| (t.task_index, t.result))
                    .collect::<Vec<_>>(),
                ctrl.trail(),
            )
        };
        let (r1, t1) = run(Vec::new());
        let (r2, t2) = run(Vec::new());
        assert_eq!(t1, t2, "same script must replay the same trail");
        assert_eq!(r1, r2);
        // replaying a full recorded trail reproduces it
        let script: Vec<usize> = t1.iter().map(|&(_, c)| c).collect();
        let (_, t3) = run(script);
        assert_eq!(t1, t3);
    }
}

//! DFS schedule exploration: drive a [`Controller`] (pool interleavings) or
//! a scripted [`DeliveryPick`] (message delivery orders) through every
//! schedule reachable within the configured bounds, asserting bit-identical
//! results and no deadlock on each.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use tricount_comm::{run_guarded, Ctx, DeliveryPick, Executor, SimOptions};
use tricount_par::Pool;

use crate::controller::{next_script, AbortReason, Controller, McAbort};

/// Exploration bounds.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Iterative preemption bounding: explore with budgets `0..=b`
    /// (`Some(b)`), or a single unbounded full DFS (`None`). Schedules
    /// reachable under a smaller budget are revisited under larger ones;
    /// the budget trades completeness for tractability, per the usual
    /// context-bounding argument that most concurrency bugs need few
    /// preemptions.
    pub max_preemptions: Option<u32>,
    /// Total schedule budget across all bounds.
    pub max_schedules: usize,
    /// Per-execution decision-step cap (livelock backstop).
    pub max_steps: u64,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_preemptions: Some(2),
            max_schedules: 10_000,
            max_steps: 100_000,
        }
    }
}

/// The outcome of a pool exploration.
#[derive(Debug)]
pub struct PoolReport {
    /// Schedules executed.
    pub schedules: usize,
    /// Whether the schedule space (within the bounds) was fully explored.
    /// False when `max_schedules` ran out or exploration stopped early on a
    /// failure.
    pub exhausted: bool,
    /// First deadlock found: the 1-based schedule number and the reason.
    pub deadlock: Option<(usize, AbortReason)>,
    /// Description of the first result divergence between schedules.
    pub divergence: Option<String>,
}

impl PoolReport {
    /// No deadlock, no divergence, fully explored.
    pub fn passed(&self) -> bool {
        self.exhausted && self.deadlock.is_none() && self.divergence.is_none()
    }
}

enum PoolMode {
    Correct,
    #[cfg(feature = "mc-regressions")]
    Buggy,
}

/// Explores every schedule of a `workers`-wide pool batch within `cfg`'s
/// bounds. `make_tasks` produces a fresh (identical) task set per schedule;
/// `f` must be a pure function of `(index, task)`. Asserts bit-identical
/// sorted results across schedules and reports the first deadlock.
pub fn explore_pool<T, R, F>(
    workers: usize,
    make_tasks: impl Fn() -> Vec<T>,
    f: F,
    cfg: &ExploreConfig,
) -> PoolReport
where
    T: Send,
    R: Send + PartialEq + std::fmt::Debug,
    F: Fn(usize, T) -> R + Sync,
{
    explore_pool_impl(workers, make_tasks, f, cfg, &PoolMode::Correct)
}

/// Like [`explore_pool`], but over the resurrected PR 2 steal path
/// (`Pool::run_tasks_buggy_sched`): the own-deque guard held across steal
/// attempts. Exists so the regression suite can prove the checker finds
/// that deadlock within a bounded budget.
#[cfg(feature = "mc-regressions")]
pub fn explore_pool_buggy<T, R, F>(
    workers: usize,
    make_tasks: impl Fn() -> Vec<T>,
    f: F,
    cfg: &ExploreConfig,
) -> PoolReport
where
    T: Send,
    R: Send + PartialEq + std::fmt::Debug,
    F: Fn(usize, T) -> R + Sync,
{
    explore_pool_impl(workers, make_tasks, f, cfg, &PoolMode::Buggy)
}

fn explore_pool_impl<T, R, F>(
    workers: usize,
    make_tasks: impl Fn() -> Vec<T>,
    f: F,
    cfg: &ExploreConfig,
    mode: &PoolMode,
) -> PoolReport
where
    T: Send,
    R: Send + PartialEq + std::fmt::Debug,
    F: Fn(usize, T) -> R + Sync,
{
    let mut report = PoolReport {
        schedules: 0,
        exhausted: true,
        deadlock: None,
        divergence: None,
    };
    let mut baseline: Option<Vec<(usize, usize, R)>> = None;
    let bounds: Vec<Option<u32>> = match cfg.max_preemptions {
        Some(m) => (0..=m).map(Some).collect(),
        None => vec![None],
    };
    'bounds: for bound in bounds {
        let mut script: Vec<usize> = Vec::new();
        loop {
            if report.schedules >= cfg.max_schedules {
                report.exhausted = false;
                break 'bounds;
            }
            let pool = Pool::new(workers);
            let ctrl = Controller::new(workers, workers, script.clone(), bound, cfg.max_steps);
            let tasks = make_tasks();
            let outcome = catch_unwind(AssertUnwindSafe(|| match mode {
                PoolMode::Correct => pool.run_tasks_sched(tasks, &f, &ctrl),
                #[cfg(feature = "mc-regressions")]
                PoolMode::Buggy => pool.run_tasks_buggy_sched(tasks, &f, &ctrl),
            }));
            report.schedules += 1;
            let trail = ctrl.trail();
            match outcome {
                Ok(results) => {
                    let shaped: Vec<(usize, usize, R)> = results
                        .into_iter()
                        .map(|t| (t.task_index, t.worker, t.result))
                        .collect();
                    // worker attribution is schedule-dependent by design;
                    // the *values* must not be
                    let values_match = |a: &[(usize, usize, R)], b: &[(usize, usize, R)]| {
                        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.0 == y.0 && x.2 == y.2)
                    };
                    match &baseline {
                        None => baseline = Some(shaped),
                        Some(b) if !values_match(b, &shaped) => {
                            report.divergence = Some(format!(
                                "schedule {} diverged: {:?} vs baseline {:?}",
                                report.schedules, shaped, b
                            ));
                            report.exhausted = false;
                            break 'bounds;
                        }
                        Some(_) => {}
                    }
                }
                Err(payload) => {
                    if payload.downcast_ref::<McAbort>().is_none() {
                        resume_unwind(payload);
                    }
                    let reason = ctrl
                        .abort_reason()
                        .unwrap_or(AbortReason::Deadlock("unknown".to_string()));
                    report.deadlock = Some((report.schedules, reason));
                    report.exhausted = false;
                    break 'bounds;
                }
            }
            match next_script(&trail) {
                Some(s) => script = s,
                None => break,
            }
        }
    }
    report
}

/// Per-rank scripted delivery chooser for [`explore_delivery`]. Records a
/// per-rank trail of `(arity, chosen)` pairs; choices past the script (or
/// beyond a diverged arity) clamp to the first candidate.
struct ScriptedDelivery {
    state: Mutex<DelState>,
}

struct DelState {
    script: Vec<Vec<usize>>,
    trail: Vec<Vec<(usize, usize)>>,
}

impl DeliveryPick for ScriptedDelivery {
    fn pick(&self, rank: usize, pending: &[(usize, u64)]) -> usize {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let k = st.trail[rank].len();
        let want = st.script[rank].get(k).copied().unwrap_or(0);
        let chosen = want.min(pending.len() - 1);
        st.trail[rank].push((pending.len(), chosen));
        chosen
    }
}

/// Next unexplored per-rank delivery script, rank-major depth-first:
/// increment the deepest incrementable choice of the highest such rank,
/// truncate that rank's tail, clear later ranks.
fn next_delivery_script(trail: &[Vec<(usize, usize)>]) -> Option<Vec<Vec<usize>>> {
    for r in (0..trail.len()).rev() {
        for i in (0..trail[r].len()).rev() {
            let (arity, chosen) = trail[r][i];
            if chosen + 1 < arity {
                let mut script: Vec<Vec<usize>> = trail
                    .iter()
                    .map(|t| t.iter().map(|&(_, c)| c).collect())
                    .collect();
                script[r].truncate(i);
                script[r].push(chosen + 1);
                for s in script.iter_mut().skip(r + 1) {
                    s.clear();
                }
                return Some(script);
            }
        }
    }
    None
}

/// The outcome of a delivery-order exploration.
#[derive(Debug)]
pub struct DeliveryReport {
    /// Schedules executed.
    pub schedules: usize,
    /// Whether the delivery-order space was exhausted within the budget.
    /// Exploration is best-effort: rank threads run concurrently, so the
    /// pending set an un-scripted pick sees can vary with OS timing; the
    /// canonical `(src, seq)` candidate ordering keeps replays aligned in
    /// practice, and every executed schedule is still a real, checked
    /// delivery order.
    pub exhausted: bool,
    /// First deadlock diagnosed by the watchdog, rendered.
    pub deadlock: Option<(usize, String)>,
    /// First result divergence between schedules.
    pub divergence: Option<String>,
}

impl DeliveryReport {
    /// No deadlock, no divergence.
    pub fn passed(&self) -> bool {
        self.deadlock.is_none() && self.divergence.is_none()
    }
}

/// Explores message delivery orders of rank program `f` on `p` PEs:
/// re-runs the program with every [`DeliveryPick`] schedule reachable
/// within `max_schedules`, asserting bit-identical per-rank results and no
/// deadlock (each run is supervised by the comm watchdog with `timeout`).
/// Every schedule runs on the same resident threads.
pub fn explore_delivery<R, F>(
    p: usize,
    f: F,
    max_schedules: usize,
    timeout: Duration,
) -> DeliveryReport
where
    R: PartialEq + std::fmt::Debug + Send + 'static,
    F: Fn(&mut Ctx) -> R + Send + Sync + 'static,
{
    let f = Arc::new(f);
    let exec = Executor::new();
    let mut report = DeliveryReport {
        schedules: 0,
        exhausted: true,
        deadlock: None,
        divergence: None,
    };
    let mut baseline: Option<Vec<R>> = None;
    let mut script: Vec<Vec<usize>> = vec![Vec::new(); p];
    loop {
        if report.schedules >= max_schedules {
            report.exhausted = false;
            break;
        }
        let chooser = Arc::new(ScriptedDelivery {
            state: Mutex::new(DelState {
                script: script.clone(),
                trail: vec![Vec::new(); p],
            }),
        });
        let opts = SimOptions {
            delivery: Some(chooser.clone() as Arc<dyn DeliveryPick>),
            ..SimOptions::default()
        };
        let fa = Arc::clone(&f);
        let outcome = run_guarded(&exec, p, &opts, timeout, move |ctx| fa(ctx));
        report.schedules += 1;
        match outcome {
            Ok(sim) => match &baseline {
                None => baseline = Some(sim.output.results),
                Some(b) => {
                    if *b != sim.output.results {
                        report.divergence = Some(format!(
                            "schedule {} diverged: {:?} vs baseline {:?}",
                            report.schedules, sim.output.results, b
                        ));
                        report.exhausted = false;
                        break;
                    }
                }
            },
            Err(dl) => {
                report.deadlock = Some((report.schedules, dl.to_string()));
                report.exhausted = false;
                break;
            }
        }
        let trail = {
            let st = chooser.state.lock().unwrap_or_else(PoisonError::into_inner);
            st.trail.clone()
        };
        match next_delivery_script(&trail) {
            Some(s) => script = s,
            None => break,
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_delivery_script_rank_major() {
        assert_eq!(next_delivery_script(&[vec![], vec![]]), None);
        assert_eq!(
            next_delivery_script(&[vec![(2, 0)], vec![(3, 2)]]),
            Some(vec![vec![1], vec![]])
        );
        assert_eq!(
            next_delivery_script(&[vec![(2, 1)], vec![(2, 0), (2, 1)]]),
            Some(vec![vec![1], vec![1]])
        );
    }
}

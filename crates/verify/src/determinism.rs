//! The deterministic-schedule harness: re-run a rank program under seeded
//! permutations of message delivery and thread interleaving and demand
//! bit-identical results; plus re-exports of the runtime's deadlock guard.
//!
//! The simulated runtime (like MPI) guarantees *per-channel* FIFO but says
//! nothing about cross-channel arrival order or thread scheduling. A
//! correct triangle counter must produce identical counts under every
//! legal schedule; a result that varies with the seed reveals a real
//! order-dependence bug (e.g. a reduction over ghost updates applied in
//! arrival order with a non-commutative operation, or a termination race).
//!
//! [`check_schedule_independence`] runs the natural schedule once as the
//! baseline, then `seeds.len()` perturbed schedules
//! ([`SimOptions::perturb_seed`]), comparing full per-rank results. For
//! hang-prone code, [`run_guarded`] (re-exported from `tricount-comm`)
//! wraps any of these runs with the wait-for-graph deadlock watchdog that
//! returns a [`DeadlockReport`] instead of blocking forever.

use std::fmt;

use tricount_comm::{run_sim, Ctx, SimOptions};

pub use tricount_comm::{run_guarded, DeadlockReport, PeSnapshot};

/// One seed whose schedule produced different results than the baseline.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The perturbation seed.
    pub seed: u64,
    /// Debug rendering of the baseline per-rank results.
    pub expected: String,
    /// Debug rendering of this schedule's per-rank results.
    pub found: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed {}: results diverge from the unperturbed schedule\n  baseline: {}\n  perturbed: {}",
            self.seed, self.expected, self.found
        )
    }
}

/// Runs `f` on `p` PEs once unperturbed and once per seed with a permuted
/// schedule, asserting bit-identical per-rank results. Returns the baseline
/// results, or every diverging seed.
///
/// `base_opts` carries trace and wall-profile settings shared by all
/// runs; its `perturb_seed` field is overridden per run.
pub fn check_schedule_independence<R, F>(
    p: usize,
    seeds: &[u64],
    base_opts: &SimOptions,
    f: F,
) -> Result<Vec<R>, Vec<Divergence>>
where
    R: PartialEq + fmt::Debug + Send,
    F: Fn(&mut Ctx) -> R + Send + Sync,
{
    let baseline = run_sim(
        p,
        &SimOptions {
            perturb_seed: None,
            ..base_opts.clone()
        },
        &f,
    )
    .output
    .results;
    let mut divergences = Vec::new();
    for &seed in seeds {
        let perturbed = run_sim(
            p,
            &SimOptions {
                perturb_seed: Some(seed),
                ..base_opts.clone()
            },
            &f,
        )
        .output
        .results;
        if perturbed != baseline {
            divergences.push(Divergence {
                seed,
                expected: format!("{baseline:?}"),
                found: format!("{perturbed:?}"),
            });
        }
    }
    if divergences.is_empty() {
        Ok(baseline)
    } else {
        Err(divergences)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_program_passes() {
        let results = check_schedule_independence(
            4,
            &[1, 2, 3, 4],
            &SimOptions::default(),
            |ctx: &mut Ctx| ctx.allreduce_sum(&[ctx.rank() as u64 + 1])[0],
        )
        .expect("schedule-independent");
        assert_eq!(results, vec![10, 10, 10, 10]);
    }

    #[test]
    fn order_dependent_program_flagged() {
        // Each PE reports the SOURCE ORDER in which its two incoming
        // messages arrived — inherently schedule-dependent.
        let p = 3;
        let body = move |ctx: &mut Ctx| {
            for d in 0..p {
                if d != ctx.rank() {
                    ctx.send_raw(d, vec![ctx.rank() as u64]);
                }
            }
            // All messages are in flight before anyone polls, so a perturbed
            // schedule always has a pending set to permute.
            ctx.barrier();
            let mut order = Vec::new();
            while order.len() < p - 1 {
                if let Some(m) = ctx.try_recv_raw() {
                    order.push(m.src as u64);
                } else {
                    std::thread::yield_now();
                }
            }
            order
        };
        // Many seeds so at least one permutes some PE's arrival order.
        let seeds: Vec<u64> = (0..32).collect();
        let verdict = check_schedule_independence(p, &seeds, &SimOptions::default(), body);
        assert!(
            verdict.is_err(),
            "arrival-order-dependent program must be flagged"
        );
    }
}

//! Sample statistics and the open-loop arrival schedule.

use cetric::gen::Rng;

/// Nearest-rank percentile (`pct` in 1..=100) of an ascending sample.
pub fn percentile(sorted: &[f64], pct: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), pct) - 1]
}

/// 1-based nearest rank of the `pct`-th percentile among `n` samples.
fn rank(n: usize, pct: u32) -> usize {
    (n * pct as usize).div_ceil(100).max(1)
}

pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(&sorted(xs.to_vec()), 50)
}

/// Percentiles a tail metric may be reported at.
const LADDER: [u32; 6] = [50, 75, 80, 90, 95, 99];

/// The reporting rule for tails: the highest percentile of [`LADDER`], at
/// most `cap`, that still has at least ten samples beyond it. A workload
/// fixes `cap`, so the percentile only drops when a run is too short to
/// support it.
pub fn tail_percentile(n: usize, cap: u32) -> u32 {
    LADDER
        .iter()
        .copied()
        .filter(|&pct| pct <= cap && n >= rank(n, pct) + 10)
        .max()
        .unwrap_or(50)
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// gives them (the exclusive method), so `compare` judges spread the way
/// the driver does. Needs two samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs.to_vec());
    let n = s.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Due times, in nanoseconds from the start of the phase, of a Poisson
/// arrival process of `rate` requests per second over `seconds`.
pub fn poisson_schedule(rng: &mut Rng, rate: f64, seconds: f64) -> Vec<u64> {
    let mut due = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        // next_f64 is in [0, 1): 1 - u is in (0, 1], so the log is finite
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= seconds {
            return due;
        }
        due.push((t * 1e9) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        // 60 samples: p80 leaves 12 beyond, p90 only 6
        assert_eq!(tail_percentile(60, 99), 80);
        assert_eq!(tail_percentile(60, 75), 75);
        // 100 samples support p90 exactly (10 beyond), 99 do not
        assert_eq!(tail_percentile(100, 99), 90);
        assert_eq!(tail_percentile(99, 99), 80);
        assert_eq!(tail_percentile(1000, 99), 99);
        assert_eq!(tail_percentile(999, 99), 95);
        // too few for anything: fall back to the median
        assert_eq!(tail_percentile(12, 99), 50);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50), 5.0);
        assert_eq!(percentile(&s, 90), 9.0);
        assert_eq!(percentile(&s, 99), 10.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = poisson_schedule(&mut Rng::new(7), 3000.0, 2.0);
        let b = poisson_schedule(&mut Rng::new(7), 3000.0, 2.0);
        assert_eq!(a, b);
        assert_ne!(a, poisson_schedule(&mut Rng::new(8), 3000.0, 2.0));
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
        assert!(*a.last().unwrap() < 2_000_000_000);
        // 6000 expected arrivals, sd ~77
        assert!((5600..6400).contains(&a.len()), "{} arrivals", a.len());
    }
}

//! Allgather collective probe over the threads transport.
//!
//! Sweeps PE counts and per-rank payload sizes through the transport's
//! `exchange` rendezvous and reports seconds per collective call. The
//! α·⌈log₂ p⌉ term the cost model charges for collectives can be checked
//! against the measured p-scaling here; together with the ping-pong probe
//! this yields a fully machine-calibrated `CostModel::calibrated`.
//!
//! Emits one JSON object on stdout:
//!
//! ```json
//! {"probe":"allgather","transport":"threads",
//!  "points":[{"p":4,"words_per_rank":64,"seconds_per_call":..},..],
//!  "alpha_log_seconds":..}
//! ```

use std::time::Instant;

use tricount_net::{Endpoint, ThreadsTransport};

/// PE counts swept (capped by available parallelism below).
const PES: [usize; 4] = [2, 4, 8, 16];

/// Per-rank payload sizes swept (machine words).
const SIZES: [usize; 3] = [1, 64, 4096];

/// Collective calls per timed repetition.
const CALLS: usize = 100;

/// Timed repetitions; the minimum is kept.
const REPS: usize = 3;

fn time_allgather(p: usize, words: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let eps = ThreadsTransport::endpoints(p);
        let elapsed = std::thread::scope(|scope| {
            let handles: Vec<_> = eps
                .into_iter()
                .enumerate()
                .map(|(rank, mut ep)| {
                    scope.spawn(move || {
                        ep.barrier();
                        let start = Instant::now();
                        for round in 0..CALLS as u64 {
                            let gathered = ep.exchange(vec![rank as u64 + round; words]);
                            debug_assert_eq!(gathered.len(), p);
                        }
                        start.elapsed().as_secs_f64()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or(f64::INFINITY))
                .fold(0.0f64, f64::max)
        });
        best = best.min(elapsed / CALLS as f64);
    }
    best
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(2, usize::from);
    let mut points: Vec<(usize, usize, f64)> = Vec::new();
    for &p in &PES {
        // oversubscribing a spin barrier past 2× the core count measures
        // scheduler noise, not the transport
        if p > cores * 2 {
            continue;
        }
        for &w in &SIZES {
            points.push((p, w, time_allgather(p, w)));
        }
    }
    // slope of the 1-word column against ⌈log₂ p⌉: the measured analogue of
    // the model's per-collective α·⌈log₂ p⌉ charge
    let small: Vec<(usize, f64)> = points
        .iter()
        .filter(|(_, w, _)| *w == SIZES[0])
        .map(|(p, _, t)| (usize::BITS as usize - (p - 1).leading_zeros() as usize, *t))
        .collect();
    let alpha_log = if small.len() >= 2 {
        let n = small.len() as f64;
        let sx: f64 = small.iter().map(|(x, _)| *x as f64).sum();
        let sy: f64 = small.iter().map(|(_, y)| *y).sum();
        let sxx: f64 = small.iter().map(|(x, _)| (*x as f64) * (*x as f64)).sum();
        let sxy: f64 = small.iter().map(|(x, y)| (*x as f64) * y).sum();
        let denom = n * sxx - sx * sx;
        if denom == 0.0 {
            0.0
        } else {
            ((n * sxy - sx * sy) / denom).max(0.0)
        }
    } else {
        0.0
    };
    let mut json = String::from("{\"probe\":\"allgather\",\"transport\":\"threads\",\"points\":[");
    for (i, (p, w, t)) in points.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"p\":{p},\"words_per_rank\":{w},\"seconds_per_call\":{t:.3e}}}"
        ));
    }
    json.push_str(&format!("],\"alpha_log_seconds\":{alpha_log:.3e}}}"));
    println!("{json}");
}

//! Modeled vs measured scaling of the transport backends: the same counting
//! runs on the metered simulator and the threads backend over p ∈ {1, 2, 4,
//! 8}, reporting modeled α+β+t_op seconds next to honest wall clock. The
//! headline number is the measured 1 → 4 PE-thread speedup on the largest
//! fixture — real parallelism the modeled axis can only predict. Results
//! land in `BENCH_transport.json`.

use std::time::Instant;

use cetric::comm::{SimOptions, TransportKind};
use cetric::core::dist::run_on;
use cetric::prelude::*;
use tricount_bench::report::{format_f64, BenchReport};
use tricount_bench::{fmt_time, print_table, Row, Scale};

const REPS: usize = 3;

fn wall_of(g: &Csr, p: usize, opts: &SimOptions) -> (f64, f64, u64) {
    let cfg = Algorithm::Cetric.config();
    let mut best = f64::INFINITY;
    let mut modeled = 0.0;
    let mut triangles = 0;
    for _ in 0..REPS {
        let dg = DistGraph::new(g, p);
        let t0 = Instant::now();
        let (r, _) = run_on(dg, Algorithm::Cetric, &cfg, opts).expect("count");
        best = best.min(t0.elapsed().as_secs_f64());
        modeled = r.modeled_time(&CostModel::supermuc());
        triangles = r.triangles;
    }
    (best, modeled, triangles)
}

fn main() {
    let scale = Scale::from_env();
    let n = 1u64 << (13 + scale.shift());
    let g = cetric::gen::rgg2d_default(n, 42);
    let mut report = BenchReport::new("transport", scale);
    let mut rows = Vec::new();

    let mut walls = Vec::new();
    let mut truth = None;
    for p in [1usize, 2, 4, 8] {
        let (sim_wall, modeled, t_sim) = wall_of(&g, p, &SimOptions::on(TransportKind::Sim));
        let (thr_wall, _, t_thr) = wall_of(&g, p, &SimOptions::on(TransportKind::Threads));
        assert_eq!(t_sim, t_thr, "backends disagreed on the count at p={p}");
        match truth {
            None => truth = Some(t_sim),
            Some(t) => assert_eq!(t, t_sim, "count changed with p"),
        }
        walls.push((p, thr_wall));
        rows.push(Row {
            label: format!("p={p}"),
            cells: vec![fmt_time(modeled), fmt_time(sim_wall), fmt_time(thr_wall)],
        });
        report.push_raw(
            &format!("transport/p{p}_modeled_seconds"),
            &format_f64(modeled),
        );
        report.push_raw(
            &format!("transport/p{p}_sim_wall_seconds"),
            &format_f64(sim_wall),
        );
        report.push_raw(
            &format!("transport/p{p}_threads_wall_seconds"),
            &format_f64(thr_wall),
        );
    }

    let wall_at = |q: usize| walls.iter().find(|&&(p, _)| p == q).map(|&(_, w)| w);
    let speedup = wall_at(1).unwrap_or(f64::NAN) / wall_at(4).unwrap_or(f64::NAN);
    report.push_raw("transport/measured_speedup_1_to_4", &format_f64(speedup));
    rows.push(Row {
        label: "speedup 1→4 (threads wall)".to_string(),
        cells: vec![String::new(), String::new(), format!("{speedup:.2}x")],
    });

    print_table(
        &format!(
            "transport backends, CETRIC on rgg2d n={n} (triangles {}) — modeled / sim wall / threads wall",
            truth.unwrap_or(0)
        ),
        &["modeled", "sim wall", "threads wall"],
        &rows,
    );

    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    if cores >= 4 {
        assert!(
            speedup > 1.0,
            "threads backend must beat its own 1-PE run going 1 → 4 PE threads \
             on a {cores}-core host (got {speedup:.2}x)"
        );
    } else {
        println!("(host has {cores} cores; skipping the 1 → 4 speedup assertion)");
    }

    match report.write() {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_transport.json: {e}"),
    }
}

//! Closed-loop benchmark of the resident query engine: build it once on an
//! RGG2D instance, then drive the scripted mixed workload through the
//! bounded queue (draining under backpressure) and report throughput,
//! per-kind latency and cache effectiveness. The full `EngineStats`
//! snapshot is embedded into `BENCH_engine.json` for tooling.

use std::time::Instant;

use cetric::engine::{scripted_workload, Engine, EngineConfig};
use tricount_bench::report::{format_f64, BenchReport};
use tricount_bench::{fmt_time, print_table, Row, Scale};

fn main() {
    let scale = Scale::from_env();
    let n = 1u64 << (9 + scale.shift());
    let queries = 300usize << scale.shift();
    let p = 4usize;

    let g = cetric::gen::rgg2d_default(n, 42);
    let mut report = BenchReport::new("engine", scale);
    let mut rows = Vec::new();
    let push =
        |rows: &mut Vec<Row>, report: &mut BenchReport, label: &str, cell: String, json: &str| {
            report.push_raw(label, json);
            rows.push(Row {
                label: label.to_string(),
                cells: vec![cell],
            });
        };

    // one-time setup: partition, orient, ghost exchange, contraction
    let t0 = Instant::now();
    let engine = Engine::build(&g, EngineConfig::new(p));
    let build = t0.elapsed().as_secs_f64();
    push(
        &mut rows,
        &mut report,
        "engine/build_seconds",
        fmt_time(build),
        &format_f64(build),
    );

    // closed loop: submit until backpressure, drain, resubmit
    let workload = scripted_workload(queries, g.num_vertices(), 7);
    let t0 = Instant::now();
    let mut answered = 0usize;
    for q in workload {
        loop {
            match engine.submit(q.clone()) {
                Ok(_) => break,
                Err(_) => answered += engine.tick().len(),
            }
        }
    }
    while engine.queue_depth() > 0 {
        answered += engine.tick().len();
    }
    let serve = t0.elapsed().as_secs_f64();
    assert_eq!(answered, queries, "closed loop must answer everything");

    let s = engine.stats();
    let throughput = answered as f64 / serve.max(1e-12);
    push(
        &mut rows,
        &mut report,
        "engine/serve_seconds",
        fmt_time(serve),
        &format_f64(serve),
    );
    push(
        &mut rows,
        &mut report,
        "engine/queries_per_second",
        format!("{throughput:.0}/s"),
        &format_f64(throughput),
    );
    push(
        &mut rows,
        &mut report,
        "engine/cache_hit_rate",
        format!("{:.1}%", s.cache_hit_rate() * 100.0),
        &format_f64(s.cache_hit_rate()),
    );
    push(
        &mut rows,
        &mut report,
        "engine/modeled_seconds_total",
        fmt_time(s.modeled_seconds_total),
        &format_f64(s.modeled_seconds_total),
    );

    // per-kind mean wall latency over the recorded queries
    for kind in ["global", "lcc", "support", "approx"] {
        let laps: Vec<f64> = s
            .per_query
            .iter()
            .filter(|r| r.kind == kind)
            .map(|r| r.wall_seconds)
            .collect();
        if laps.is_empty() {
            continue;
        }
        let mean = laps.iter().sum::<f64>() / laps.len() as f64;
        push(
            &mut rows,
            &mut report,
            &format!("engine/latency_mean/{kind}"),
            format!("{} (n={})", fmt_time(mean), laps.len()),
            &format_f64(mean),
        );
    }

    // log-bucketed latency quantiles from the engine's histograms
    for (label, sum) in [
        ("queue_wait", &s.queue_wait),
        ("run_wall", &s.run_wall),
        ("run_modeled", &s.run_modeled),
    ] {
        if sum.count == 0 {
            continue;
        }
        push(
            &mut rows,
            &mut report,
            &format!("engine/{label}_p50"),
            fmt_time(sum.p50),
            &format_f64(sum.p50),
        );
        push(
            &mut rows,
            &mut report,
            &format!("engine/{label}_p99"),
            format!("{} (max {})", fmt_time(sum.p99), fmt_time(sum.max)),
            &format_f64(sum.p99),
        );
    }
    report.push_raw("engine/stats", &s.to_json());

    print_table(
        &format!("resident engine, rgg2d n={n} on {p} PEs, {queries} queries"),
        &["value"],
        &rows,
    );
    match report.write() {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_engine.json: {e}"),
    }
}

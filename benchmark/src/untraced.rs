//! The untraced run behind the end-to-end metrics. One process takes the
//! workload's graph file through both of the program's paths: file to
//! answer (`load_graph` → partition → `run_on`) and a resident engine under
//! load. The workload's kind decides which path gets most of the seconds.
//!
//! Every timed interval sits between two samples of the reference and
//! is reported in calibrated seconds (see `calib`).

use std::io;
use std::time::Instant;

use cetric::comm::SimOptions;
use cetric::core::seq;
use cetric::engine::Engine;

use crate::calib::{Reference, Work};
use crate::common::{
    engine_config, load_and_partition, peak_rss_mb, timed_count, Outcome, RunArgs, SETUP_REPEATS,
    WARMUPS,
};
use crate::inputs::{load_serve_plan, write_graph, write_serve_plan, InputDir};
use crate::serve::{drive, serve_plan, split_seconds, verify, warm_up, ReadRecord, Writer};
use crate::spec::{pe_count, Kind, Spec, COUNT_TAIL_CAP, PRIMARY_SHARE};
use crate::stats::{median, percentile, sorted, tail_percentile};

pub fn measure(spec: &Spec, args: &RunArgs) -> io::Result<Outcome> {
    let p = pe_count();
    let count_share = match spec.kind {
        Kind::Count => PRIMARY_SHARE,
        Kind::Serve => 1.0 - PRIMARY_SHARE,
    };
    let count_seconds = args.seconds * count_share;
    let (open_s, closed_s) = split_seconds(args.seconds - count_seconds);

    let dir = InputDir::create(&args.out, spec.name)?;
    {
        let (_, g) = write_graph(spec, args.seed, args.shrink, &dir)?;
        let plan = serve_plan(spec, open_s, closed_s);
        write_serve_plan(spec, args.seed, &g, &plan, &dir, "load")?;
    }
    let plan = load_serve_plan(&dir, "load")?;

    // What a fresh process needs for both paths: memory is read once the
    // graph has been set up, counted and asked one query of each kind.
    // Later, what the allocator retains over a hundred repetitions moves
    // `VmHWM` by a quarter from run to run; and the benchmark's own reference
    // is built after the reading.
    let opts = SimOptions::default();
    let (peak_rss, reference) = {
        let (g, _, _) = load_and_partition(&dir, p)?;
        let engine = Engine::build(&g, engine_config(spec.load.cache_words, false));
        for _ in 0..WARMUPS {
            timed_count(&g, p, spec.alg, &opts);
        }
        warm_up(&engine, &plan);
        (peak_rss_mb(), Reference::new(&g, p))
    };

    // Set-up, several times over: graph file → partition → resident engine.
    let mut bracket = reference.open(Work::Parallel);
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut ready = None;
    for _ in 0..SETUP_REPEATS {
        drop(ready.take());
        let (g, load_s, partition_s) = load_and_partition(&dir, p)?;
        let t0 = Instant::now();
        let engine = Engine::build(&g, engine_config(spec.load.cache_words, false));
        let build_s = t0.elapsed().as_secs_f64();
        setups.push((load_s + partition_s + build_s) * reference.close(&mut bracket));
        ready = Some((g, engine));
    }
    let (g, engine) = ready.expect("SETUP_REPEATS is positive");

    // File to answer: `run_on` on a fresh partition per run.
    for _ in 0..WARMUPS {
        timed_count(&g, p, spec.alg, &opts);
    }
    let (mut raw, mut walls, mut counts) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    bracket = reference.open(Work::Parallel);
    while started.elapsed().as_secs_f64() < count_seconds {
        let (wall, result) = timed_count(&g, p, spec.alg, &opts);
        raw.push(wall);
        walls.push(wall * reference.close(&mut bracket));
        counts.push(result.triangles);
    }

    // Submit to reply: the workload's load on the resident engine.
    warm_up(&engine, &plan);
    let driven = drive(
        &engine,
        &reference,
        &plan,
        Writer::of(spec, Writer::Off),
        closed_s,
        || (),
    );

    let truth = seq::compact_forward(&g).triangles;
    let (served, served_wrong) = verify(&g, 0, &plan.batches, &driven);
    let mut out = Outcome {
        attempted: counts.len() as u64 + served,
        failed: counts.iter().filter(|&&c| c != truth).count() as u64 + served_wrong,
        ..Outcome::default()
    };
    let raw_reads = driven.open_latencies(ReadRecord::latency_s);
    let count_tail = tail_percentile(walls.len(), COUNT_TAIL_CAP);
    out.put("setup_s", median(&setups));
    out.put("count_s", median(&walls));
    out.put(
        "count_tail_s",
        percentile(&sorted(walls.clone()), count_tail),
    );
    out.put("read_p25_s", driven.calibrated_read_s(25));
    out.put("closed_loop_qps", driven.calibrated_closed_qps());
    out.put("peak_rss_mb", peak_rss);
    out.note("timed_counts", walls.len() as f64);
    out.note("count_tail_percentile", f64::from(count_tail));
    out.note("open_reads", raw_reads.len() as f64);
    out.note(
        "closed_reads",
        driven.reads.iter().filter(|r| !r.open).count() as f64,
    );
    out.note("updates", driven.updates.len() as f64);
    out.note("uncalibrated_count_s", median(&raw));
    out.note("uncalibrated_read_p25_s", percentile(&raw_reads, 25));
    out.note("uncalibrated_read_p50_s", percentile(&raw_reads, 50));
    out.note("calibrated_read_p50_s", driven.calibrated_read_s(50));
    out.note("uncalibrated_closed_loop_qps", driven.closed_qps);
    Ok(out)
}

//! Profiling a distributed run end to end: record a trace of a CETRIC
//! count, print the per-phase modeled/wall breakdown, export a
//! deterministic Chrome-trace/Perfetto JSON timeline (one track per PE,
//! flow arrows for every message), and render the run's metrics in the
//! Prometheus text exposition format.
//!
//! Run with:
//! ```text
//! cargo run --release --example profile_run
//! ```
//!
//! Set `TRICOUNT_PROFILE_OUT=/some/dir` to keep the exported files (CI
//! uploads them as artifacts); otherwise they land in the temp directory.

use cetric::comm::SimOptions;
use cetric::obs;
use cetric::prelude::*;

fn main() {
    // 1. A seeded RGG2D instance over 16 PEs — the paper's geometric
    // workload, where CETRIC's cut contraction shines.
    let g = cetric::gen::rgg2d_default(4_000, 42);
    let p = 16;
    let alg = Algorithm::Cetric;
    let model = CostModel::supermuc();
    let dg = DistGraph::new(&g, p);
    let (r, trace) = cetric::core::dist::run_on(dg, alg, &alg.config(), &SimOptions::traced())
        .expect("run succeeds");
    let trace = trace.expect("built with the trace feature");
    println!(
        "{} on {p} PEs: {} triangles, modeled {:.3} ms",
        alg.name(),
        r.triangles,
        r.modeled_time(&model) * 1e3
    );

    // 2. Terminal phase report: where modeled and wall time went, which PE
    // was the communication bottleneck, plus the recorded span summary.
    print!("{}", obs::phase_report(&r.stats, Some(&trace), &model));
    print!("{}", obs::span_summary(&trace));

    // 3. Chrome-trace export. Timestamps are reconstructed from
    // schedule-independent counters, so re-running this example always
    // produces byte-identical JSON. Every delivered message becomes a flow
    // arrow.
    let export = obs::export_run(&trace, &r.stats, &model);
    assert_eq!(
        export.flow_arrows,
        r.stats.totals().recv_messages,
        "one flow arrow per delivered message"
    );
    let dir = std::env::var("TRICOUNT_PROFILE_OUT")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| std::env::temp_dir());
    let trace_path = dir.join("profile_run.trace.json");
    std::fs::write(&trace_path, &export.json).expect("write chrome trace");
    println!(
        "chrome trace: {} ({} tracks, {} flow arrows; open in ui.perfetto.dev)",
        trace_path.display(),
        export.tracks,
        export.flow_arrows
    );

    // 4. Prometheus exposition of the same run: totals, per-phase modeled
    // seconds, message-size and queue-depth histograms.
    let reg = obs::run_metrics(&r.stats, &model, Some(&trace));
    let prom_path = dir.join("profile_run.prom");
    std::fs::write(&prom_path, reg.render()).expect("write exposition");
    let samples = obs::parse_exposition(&reg.render()).expect("exposition parses");
    println!(
        "prometheus exposition: {} ({} samples)",
        prom_path.display(),
        samples.len()
    );
}

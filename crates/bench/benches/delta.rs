//! Closed-loop benchmark of dynamic graph updates: build a resident engine
//! on an RGG2D instance, then stream random mixed edge-update batches
//! through `Engine::apply_updates` and report update throughput, modeled
//! communication words per update, the incremental-vs-rebuild comm ratio,
//! and the seconds each batch spends folding into the epoch it publishes
//! (read off the engine's `seal` spans). Every graph-changing batch folds,
//! so the throughput includes one fold per batch. Results land in
//! `BENCH_delta.json`.

use std::time::Instant;

use cetric::delta::random_batch;
use cetric::engine::{Engine, EngineConfig};
use tricount_bench::report::{format_f64, BenchReport};
use tricount_bench::{fmt_time, print_table, Row, Scale};

fn main() {
    let scale = Scale::from_env();
    let n = 1u64 << (10 + scale.shift());
    let batches = 20usize << scale.shift();
    let batch_ops = 16usize;
    let p = 4usize;

    let g = cetric::gen::rgg2d_default(n, 42);
    let mut report = BenchReport::new("delta", scale);
    let mut rows = Vec::new();
    let push =
        |rows: &mut Vec<Row>, report: &mut BenchReport, label: &str, cell: String, json: &str| {
            report.push_raw(label, json);
            rows.push(Row {
                label: label.to_string(),
                cells: vec![cell],
            });
        };

    let t0 = Instant::now();
    let engine = Engine::build(&g, EngineConfig::new(p));
    let build = t0.elapsed().as_secs_f64();
    let build_words = {
        let s = engine.setup_stats().totals();
        let b = engine.baseline_stats().totals();
        s.sent_words + s.coll_word_units + b.sent_words + b.coll_word_units
    };
    push(
        &mut rows,
        &mut report,
        "delta/build_seconds",
        fmt_time(build),
        &format_f64(build),
    );
    push(
        &mut rows,
        &mut report,
        "delta/build_comm_words",
        format!("{build_words}"),
        &format_f64(build_words as f64),
    );

    // closed loop: apply batches back to back, tracking the receipts
    let mut ops_applied = 0u64;
    let mut update_words = 0u64;
    let mut update_modeled = 0.0f64;
    let t0 = Instant::now();
    for i in 0..batches {
        // regenerate against the engine's current vertex set; the batch
        // mixes deletions of present edges with insertions of absent ones
        let batch = random_batch(&g, batch_ops, 1000 + i as u64);
        let receipt = engine.apply_updates(&batch).expect("in-range batch");
        ops_applied += receipt.inserted + receipt.deleted + receipt.noops;
        update_words += receipt.comm.sent_words + receipt.comm.coll_word_units;
        update_modeled += receipt.modeled_seconds;
    }
    let serve = t0.elapsed().as_secs_f64();

    let s = engine.stats();
    let updates_per_second = s.updates_applied as f64 / serve.max(1e-12);
    let words_per_update = update_words as f64 / s.updates_applied.max(1) as f64;
    push(
        &mut rows,
        &mut report,
        "delta/apply_seconds",
        fmt_time(serve),
        &format_f64(serve),
    );
    push(
        &mut rows,
        &mut report,
        "delta/updates_per_second",
        format!("{updates_per_second:.0}/s"),
        &format_f64(updates_per_second),
    );
    push(
        &mut rows,
        &mut report,
        "delta/ops_applied",
        format!(
            "{ops_applied} ({} ins, {} del, {} noop)",
            s.edges_inserted, s.edges_deleted, s.update_noops
        ),
        &format_f64(ops_applied as f64),
    );
    push(
        &mut rows,
        &mut report,
        "delta/comm_words_per_update",
        format!("{words_per_update:.0}"),
        &format_f64(words_per_update),
    );
    push(
        &mut rows,
        &mut report,
        "delta/update_vs_build_comm_ratio",
        format!("{:.4}", words_per_update / build_words.max(1) as f64),
        &format_f64(words_per_update / build_words.max(1) as f64),
    );
    push(
        &mut rows,
        &mut report,
        "delta/modeled_seconds_per_update",
        fmt_time(update_modeled / s.updates_applied.max(1) as f64),
        &format_f64(update_modeled / s.updates_applied.max(1) as f64),
    );
    let folds: Vec<f64> = s
        .spans
        .iter()
        .filter(|sp| sp.label == "seal")
        .map(|sp| (sp.end_nanos - sp.begin_nanos) as f64 * 1e-9)
        .collect();
    let fold_per_batch = folds.iter().sum::<f64>() / folds.len().max(1) as f64;
    push(
        &mut rows,
        &mut report,
        "delta/fold_seconds_per_batch",
        format!("{} ({} folds)", fmt_time(fold_per_batch), folds.len()),
        &format_f64(fold_per_batch),
    );
    report.push_raw("delta/stats", &s.to_json());

    print_table(
        &format!("dynamic updates, rgg2d n={n} on {p} PEs, {batches} batches x {batch_ops} ops"),
        &["value"],
        &rows,
    );
    match report.write() {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_delta.json: {e}"),
    }
}

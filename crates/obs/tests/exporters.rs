//! End-to-end exporter guarantees over real algorithm runs:
//!
//! * the Chrome trace of a p = 16 CETRIC run is valid JSON whose flow-arrow
//!   count equals the number of delivered messages,
//! * the exported bytes are identical across schedule perturbations,
//! * the Prometheus exposition round-trips through the text-format parser,
//! * recording a trace (and spans) does not perturb the run: the metered
//!   `Counters` of a traced run are bit-equal to an untraced run's.

use tricount_comm::{CostModel, SimOptions};
use tricount_core::config::Algorithm;
use tricount_core::dist::run_on;
use tricount_graph::dist::DistGraph;
use tricount_obs::{export_run, json, parse_exposition, run_metrics};

fn rgg16() -> DistGraph {
    let g = tricount_gen::rgg2d_default(2_000, 42);
    DistGraph::new(&g, 16)
}

/// Untimed + unperturbed-routing options so counters and trace events are
/// schedule independent (the sim clock stays 0 and never enters the data).
fn traced_opts(perturb_seed: Option<u64>) -> SimOptions {
    SimOptions {
        timing: None,
        record_trace: true,
        perturb_seed,
        ..SimOptions::default()
    }
}

#[test]
fn chrome_trace_is_valid_json_with_one_flow_per_delivery() {
    let alg = Algorithm::Cetric;
    let (r, trace) = run_on(rgg16(), alg, &alg.config(), &traced_opts(None)).unwrap();
    let trace = trace.expect("traced");
    let cost = CostModel::supermuc();
    let export = export_run(&trace, &r.stats, &cost);
    json::validate(&export.json).expect("chrome trace is valid JSON");
    assert_eq!(export.tracks, 16, "one track per PE");
    assert_eq!(
        export.flow_arrows,
        r.stats.totals().recv_messages,
        "every delivered message becomes exactly one flow arrow"
    );
    assert!(export.flow_arrows > 0, "CETRIC on p=16 communicates");
}

#[test]
fn chrome_trace_bytes_identical_across_schedule_perturbations() {
    let alg = Algorithm::Cetric;
    let cost = CostModel::supermuc();
    let mut exports = Vec::new();
    for seed in [None, Some(7), Some(1234)] {
        let (r, trace) = run_on(rgg16(), alg, &alg.config(), &traced_opts(seed)).unwrap();
        let trace = trace.expect("traced");
        exports.push(export_run(&trace, &r.stats, &cost).json);
    }
    assert_eq!(
        exports[0], exports[1],
        "perturbing the schedule must not change the exported bytes"
    );
    assert_eq!(exports[0], exports[2]);
}

#[test]
fn prometheus_snapshot_round_trips_through_the_parser() {
    let alg = Algorithm::Cetric;
    let (r, trace) = run_on(rgg16(), alg, &alg.config(), &traced_opts(None)).unwrap();
    let trace = trace.expect("traced");
    let cost = CostModel::supermuc();
    let text = run_metrics(&r.stats, &cost, Some(&trace)).render();
    let samples = parse_exposition(&text).expect("exposition parses");
    let get = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("missing sample {name}"))
            .value
    };
    assert_eq!(get("tricount_run_pes"), 16.0);
    assert_eq!(
        get("tricount_run_recv_messages_total"),
        r.stats.totals().recv_messages as f64
    );
    assert_eq!(
        get("tricount_run_sent_words_total"),
        r.stats.totals().sent_words as f64
    );
    // the message-size histogram sums to the traced wire volume
    assert_eq!(
        get("tricount_message_words_sum"),
        r.stats.totals().sent_words as f64
    );
    assert!(
        samples
            .iter()
            .any(|s| s.name == "tricount_phase_modeled_seconds"
                && s.labels.iter().any(|(k, v)| k == "phase" && v == "local")),
        "per-phase gauges carry the phase label"
    );
}

#[test]
fn update_run_exports_a_valid_chrome_trace() {
    use std::sync::Mutex;
    use tricount_core::config::DistConfig;
    use tricount_core::dist::delta::apply_batch_sim;
    use tricount_core::dist::residency::build_residency;
    use tricount_delta::{random_batch, Overlay};

    let g = tricount_gen::rgg2d_default(2_000, 42);
    let cfg = DistConfig::default();
    let dg = DistGraph::new(&g, 16);
    let (ranks, _) = build_residency(dg, &cfg, &SimOptions::default());
    let overlays: Vec<Mutex<Overlay>> = ranks
        .iter()
        .map(|r| Mutex::new(Overlay::for_local(&r.local)))
        .collect();
    let batch = random_batch(&g, 40, 9).canonicalize();
    let (_, stats, trace) = apply_batch_sim(&ranks, &overlays, &batch, &cfg, &traced_opts(None));
    let trace = trace.expect("traced");
    let cost = CostModel::supermuc();
    let export = export_run(&trace, &stats, &cost);
    json::validate(&export.json).expect("update-run chrome trace is valid JSON");
    assert_eq!(export.tracks, 16, "one track per PE");
    assert_eq!(
        export.flow_arrows,
        stats.totals().recv_messages,
        "every delivered update message becomes exactly one flow arrow"
    );
    assert!(export.flow_arrows > 0, "the update protocol communicates");
    // the update phases appear in the exported spans
    for phase in ["update_route", "update_count", "update_ghost_refresh"] {
        assert!(
            export.json.contains(phase),
            "phase {phase} missing from the export"
        );
    }
}

#[test]
fn tracing_does_not_perturb_the_run() {
    // Direct-routed variants: every counter is schedule independent, so
    // tracing must leave each one bit-equal.
    for alg in [Algorithm::Cetric, Algorithm::Ditric] {
        let untraced = SimOptions {
            timing: None,
            record_trace: false,
            perturb_seed: None,
            ..SimOptions::default()
        };
        let (r_plain, t_plain) = run_on(rgg16(), alg, &alg.config(), &untraced).unwrap();
        assert!(t_plain.is_none());
        let (r_traced, t_traced) = run_on(rgg16(), alg, &alg.config(), &traced_opts(None)).unwrap();
        assert!(t_traced.is_some());
        assert_eq!(r_plain.triangles, r_traced.triangles);
        assert_eq!(
            r_plain.stats.phases.len(),
            r_traced.stats.phases.len(),
            "{}: same phase structure",
            alg.name()
        );
        for (a, b) in r_plain.stats.phases.iter().zip(&r_traced.stats.phases) {
            assert_eq!(a.name, b.name);
            assert_eq!(
                a.per_rank,
                b.per_rank,
                "{} phase {}: tracing must not change any counter bit",
                alg.name(),
                a.name
            );
        }
    }
}

#[test]
fn tracing_does_not_perturb_grid_invariants() {
    // Grid-routed DITRIC2 re-aggregates at relay PEs in arrival order, so
    // its per-phase *message* counts vary run to run even untraced (checked
    // by probe). Words moved and work done are schedule independent — those
    // must stay bit-equal under tracing.
    let alg = Algorithm::Ditric2;
    let untraced = SimOptions {
        timing: None,
        record_trace: false,
        perturb_seed: None,
        ..SimOptions::default()
    };
    let (r_plain, _) = run_on(rgg16(), alg, &alg.config(), &untraced).unwrap();
    let (r_traced, _) = run_on(rgg16(), alg, &alg.config(), &traced_opts(None)).unwrap();
    assert_eq!(r_plain.triangles, r_traced.triangles);
    let (a, b) = (r_plain.stats.totals(), r_traced.stats.totals());
    assert_eq!(a.sent_words, b.sent_words);
    assert_eq!(a.recv_words, b.recv_words);
    assert_eq!(a.work_ops, b.work_ops);
    assert_eq!(a.coll_alpha_units, b.coll_alpha_units);
    assert_eq!(a.coll_word_units, b.coll_word_units);
}

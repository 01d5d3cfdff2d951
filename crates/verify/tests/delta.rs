//! Conformance of the dynamic-update protocol: a traced update run must
//! satisfy every invariant the linter knows — exactly-once envelope
//! delivery, the §IV-A memory bound, balanced collectives, reconciled
//! cost-model meters — and emit only registered phase names.

use std::sync::Mutex;

use tricount_comm::{SimOptions, TraceEvent};
use tricount_core::config::DistConfig;
use tricount_core::dist::delta::{apply_batch_sim, compact_rank};
use tricount_core::dist::phases;
use tricount_core::dist::residency::{build_residency, PreparedRank};
use tricount_delta::{random_batch, Overlay};
use tricount_graph::dist::DistGraph;
use tricount_verify::conformance::check_meters;
use tricount_verify::{check_phase_names, check_trace};

fn residency(g: &tricount_graph::Csr, p: usize, cfg: &DistConfig) -> Vec<PreparedRank> {
    let dg = DistGraph::new(g, p);
    build_residency(dg, cfg, &SimOptions::default()).0
}

/// A traced `apply_batch` run passes the full linter: every routed or
/// counted envelope is delivered exactly once, buffered volume respects
/// the configured δ bound, collectives are balanced across the three
/// phases, and the meters reconcile with the traced wire traffic.
#[test]
fn update_run_satisfies_all_invariants() {
    let cfg = DistConfig::default();
    for (p, seed) in [(2usize, 3u64), (4, 7), (8, 13)] {
        let g = tricount_gen::rgg2d_default(300, seed);
        let ranks = residency(&g, p, &cfg);
        let overlays: Vec<Mutex<Overlay>> = ranks
            .iter()
            .map(|r| Mutex::new(Overlay::for_local(&r.local)))
            .collect();
        let batch = random_batch(&g, 25, seed * 31).canonicalize();
        let (outcomes, stats, trace) =
            apply_batch_sim(&ranks, &overlays, &batch, &cfg, &SimOptions::traced());
        assert!(
            outcomes[0].inserted + outcomes[0].deleted > 0,
            "p={p}: batch must change something for the lint to be meaningful"
        );
        let trace = trace.expect("traced");
        let mut rep = check_trace(&trace);
        rep.violations.extend(check_meters(&trace, &stats));
        assert!(rep.is_clean(), "p={p}:\n{rep}");
        assert!(rep.envelopes_posted > 0, "p={p}: update run must exchange");
        assert_eq!(rep.envelopes_posted, rep.envelopes_delivered, "p={p}");
    }
}

/// Update and compaction runs emit only phase names from the central
/// registry — `update_route`, `update_count`, `update_ghost_refresh` and
/// `compaction` are part of the closed vocabulary.
#[test]
fn update_phases_are_registered() {
    let cfg = DistConfig::default();
    let g = tricount_gen::rgg2d_default(300, 5);
    let p = 4;
    let ranks = residency(&g, p, &cfg);
    let overlays: Vec<Mutex<Overlay>> = ranks
        .iter()
        .map(|r| Mutex::new(Overlay::for_local(&r.local)))
        .collect();
    let batch = random_batch(&g, 25, 41).canonicalize();
    let (_, _, trace) = apply_batch_sim(&ranks, &overlays, &batch, &cfg, &SimOptions::traced());
    let trace = trace.expect("traced");
    let violations = check_phase_names(&trace, phases::ALL);
    assert!(violations.is_empty(), "unregistered phases: {violations:?}");
    for want in [
        phases::UPDATE_ROUTE,
        phases::UPDATE_COUNT,
        phases::UPDATE_GHOST_REFRESH,
    ] {
        assert!(
            trace
                .per_pe
                .iter()
                .flatten()
                .any(|ev| matches!(ev, TraceEvent::PhaseEnded { name } if name == want)),
            "phase {want} missing from the update trace"
        );
    }

    // compaction, traced separately, is also clean and registered
    let sim = tricount_comm::run_sim(p, &SimOptions::traced(), |ctx: &mut tricount_comm::Ctx| {
        let mut ov = overlays[ctx.rank()].lock().unwrap();
        compact_rank(ctx, &ranks[ctx.rank()], &mut ov, &cfg)
    });
    let trace = sim.trace.expect("traced");
    assert!(check_trace(&trace).is_clean());
    assert!(check_phase_names(&trace, phases::ALL).is_empty());
    assert!(
        trace
            .per_pe
            .iter()
            .flatten()
            .any(|ev| matches!(ev, TraceEvent::PhaseEnded { name } if name == phases::COMPACTION)),
        "compaction phase missing"
    );
}

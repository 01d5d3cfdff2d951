//! End-to-end conformance: the unmutated runtime passes every invariant on
//! the real algorithm variants, and each injected mutation — at the runtime
//! level (fault injection) or the trace level (tampering) — is caught by the
//! dedicated invariant.

use tricount_comm::{
    run_sim, Ctx, Fault, MessageQueue, QueueConfig, Routing, SimOptions, Trace, TraceEvent,
};
use tricount_core::config::Algorithm;
use tricount_core::dist::run_on;
use tricount_core::seq::compact_forward;
use tricount_gen::rmat::rmat_default;
use tricount_graph::dist::DistGraph;
use tricount_verify::conformance::check_meters;
use tricount_verify::{check_trace, ConformanceReport, Violation};

/// Runs `alg` traced on `p` PEs over `g` and lints the full trace
/// (invariants 1–4) plus the cost-model meters (invariant 5).
fn traced_lint(g: &tricount_graph::Csr, p: usize, alg: Algorithm) -> (u64, ConformanceReport) {
    let dg = DistGraph::new(g, p);
    let (res, trace) = run_on(dg, alg, &alg.config(), &SimOptions::traced())
        .unwrap_or_else(|e| panic!("{} failed on p={p}: {e}", alg.name()));
    let trace = trace.expect("built with the `trace` feature");
    let mut rep = check_trace(&trace);
    rep.violations.extend(check_meters(&trace, &res.stats));
    (res.triangles, rep)
}

#[test]
fn unmutated_variants_pass_all_invariants() {
    let g = rmat_default(8, 7);
    let truth = compact_forward(&g).triangles;
    assert!(truth > 0, "test graph must contain triangles");
    for p in [4, 16] {
        for alg in [
            Algorithm::Unaggregated,
            Algorithm::Ditric,
            Algorithm::Ditric2,
            Algorithm::Cetric,
            Algorithm::Cetric2,
        ] {
            let (triangles, rep) = traced_lint(&g, p, alg);
            assert_eq!(triangles, truth, "{} p={p} miscounted", alg.name());
            assert!(rep.is_clean(), "{} p={p}:\n{rep}", alg.name());
        }
    }
}

#[test]
fn grid_variants_respect_sqrt_p_fanout() {
    // p = 16 is a full 4×4 grid: a PE's allowed flush set is its 3 row
    // peers plus its 3 column peers — at most 6 = 2(√p − 1) distinct peers.
    let g = rmat_default(8, 11);
    for alg in [Algorithm::Ditric2, Algorithm::Cetric2] {
        let (_, rep) = traced_lint(&g, 16, alg);
        assert!(rep.is_clean(), "{}:\n{rep}", alg.name());
        assert!(
            rep.max_grid_fanout <= 6,
            "{} contacted {} grid peers (limit 6)",
            alg.name(),
            rep.max_grid_fanout
        );
    }
}

/// A bespoke all-to-all rank program over the buffered queue: every PE
/// posts one envelope to every other PE and counts deliveries.
fn all_to_all_body(cfg: QueueConfig, fault: Option<(usize, Fault)>) -> impl Fn(&mut Ctx) -> u64 {
    move |ctx: &mut Ctx| {
        let me = ctx.rank();
        let p = ctx.num_ranks();
        let mut q = MessageQueue::new(ctx, cfg);
        if let Some((rank, fault)) = fault {
            if rank == me {
                q.inject_fault(fault);
            }
        }
        for d in 0..p {
            if d != me {
                q.post(ctx, d, &[me as u64, d as u64, 0xBEEF]);
            }
        }
        let mut got = 0u64;
        q.finish(ctx, &mut |_ctx, _env| got += 1);
        got
    }
}

#[test]
fn bespoke_exchange_is_clean() {
    let sim = run_sim(
        8,
        &SimOptions::traced(),
        all_to_all_body(QueueConfig::dynamic(16), None),
    );
    assert!(sim.output.results.iter().all(|&got| got == 7));
    let rep = tricount_verify::conformance::check_sim(&sim);
    assert!(rep.is_clean(), "{rep}");
    assert_eq!(rep.envelopes_posted, 8 * 7);
    assert_eq!(rep.envelopes_delivered, 8 * 7);
}

// ---- mutation 1 (runtime level): a dropped envelope terminates the
// exchange but is flagged as a missing delivery ----

#[test]
fn mutation_dropped_envelope_caught() {
    let sim = run_sim(
        4,
        &SimOptions::traced(),
        all_to_all_body(
            QueueConfig::dynamic(16),
            Some((1, Fault::DropEnvelope { index: 1 })),
        ),
    );
    // the exchange still terminates: 11 of 12 envelopes arrive
    let total: u64 = sim.output.results.iter().sum();
    assert_eq!(total, 11, "exactly one envelope must vanish");
    let rep = tricount_verify::conformance::check_sim(&sim);
    assert!(
        rep.violations
            .iter()
            .any(|v| matches!(v, Violation::MissingDelivery { count: 1, .. })),
        "linter must flag the dropped envelope:\n{rep}"
    );
    assert_eq!(rep.envelopes_posted, 12);
    assert_eq!(rep.envelopes_delivered, 11);
}

// ---- mutation 2 (runtime level): a skipped flush breaches the §IV-A
// memory bound ----

#[test]
fn mutation_skipped_flush_breaches_memory_bound() {
    // δ = 8, 3-word payloads → 5-word records. Unmutated, the buffer flushes
    // on crossing δ and stays ≤ δ + one record = 13 words. With the first
    // flush skipped the third post observes 15 buffered words.
    let body = |ctx: &mut Ctx| {
        let me = ctx.rank();
        let p = ctx.num_ranks();
        let mut q = MessageQueue::new(ctx, QueueConfig::dynamic(8));
        if me == 0 {
            q.inject_fault(Fault::SkipFlushOnce);
        }
        if me == 0 {
            for i in 0..6u64 {
                q.post(ctx, 1 + (i as usize % (p - 1)), &[i, i, i]);
            }
        }
        let mut got = 0u64;
        q.finish(ctx, &mut |_ctx, _env| got += 1);
        got
    };
    let sim = run_sim(4, &SimOptions::traced(), body);
    let rep = tricount_verify::conformance::check_sim(&sim);
    assert!(
        rep.violations
            .iter()
            .any(|v| matches!(v, Violation::MemoryBound { pe: 0, .. })),
        "linter must flag the δ-bound breach:\n{rep}"
    );
    // deliveries themselves are intact — only the bound was violated
    assert!(
        !rep.violations
            .iter()
            .any(|v| matches!(v, Violation::MissingDelivery { .. })),
        "{rep}"
    );
}

// ---- mutation 3 (trace level): collective epoch skew ----

#[test]
fn mutation_epoch_skew_caught() {
    let sim = run_sim(4, &SimOptions::traced(), |ctx: &mut Ctx| {
        ctx.barrier();
        ctx.allreduce_sum(&[1])[0]
    });
    let mut trace = sim.trace.expect("traced");
    assert!(check_trace(&trace).is_clean());
    // erase PE 2's barrier entry/exit, as if it had skipped the collective
    trace.per_pe[2].retain(|ev| {
        !matches!(
            ev,
            TraceEvent::CollEnter {
                kind: tricount_comm::CollKind::Barrier
            } | TraceEvent::CollExit {
                kind: tricount_comm::CollKind::Barrier
            }
        )
    });
    let rep = check_trace(&trace);
    assert!(
        rep.violations
            .iter()
            .any(|v| matches!(v, Violation::EpochMismatch { pe: 2, .. })),
        "linter must flag the epoch skew:\n{rep}"
    );
}

// ---- mutation 4 (trace level): unbalanced collective ----

#[test]
fn mutation_unbalanced_collective_caught() {
    let sim = run_sim(2, &SimOptions::traced(), |ctx: &mut Ctx| ctx.barrier());
    let mut trace = sim.trace.expect("traced");
    // drop PE 1's barrier *exit* only
    let exit_pos = trace.per_pe[1]
        .iter()
        .position(|ev| matches!(ev, TraceEvent::CollExit { .. }))
        .expect("barrier exit recorded");
    trace.per_pe[1].remove(exit_pos);
    let rep = check_trace(&trace);
    assert!(
        rep.violations
            .iter()
            .any(|v| matches!(v, Violation::UnbalancedCollective { pe: 1, .. })),
        "linter must flag the missing exit:\n{rep}"
    );
}

// ---- mutation 5 (trace level): grid flush to a peer outside the
// row/column set ----

#[test]
fn mutation_grid_fanout_caught() {
    let sim = run_sim(
        16,
        &SimOptions::traced(),
        all_to_all_body(
            QueueConfig {
                delta: Some(8),
                routing: Routing::Grid,
            },
            None,
        ),
    );
    let mut trace = sim.trace.expect("traced");
    assert!(check_trace(&trace).is_clean());
    // PE 0 (row {1,2,3}, column {4,8,12} in the 4×4 grid) flushes only to
    // those peers; rewrite one flush to PE 5 — a diagonal shortcut the
    // indirection scheme forbids.
    let flush = trace.per_pe[0]
        .iter_mut()
        .find_map(|ev| match ev {
            TraceEvent::Flushed { peer, .. } => Some(peer),
            _ => None,
        })
        .expect("PE 0 flushed at least once");
    *flush = 5;
    let rep = check_trace(&trace);
    assert!(
        rep.violations
            .iter()
            .any(|v| matches!(v, Violation::GridFanout { pe: 0, peer: 5 })),
        "linter must flag the off-grid flush:\n{rep}"
    );
}

// ---- mutation 6 (trace level): cost-model meters disagree with the
// traced wire traffic ----

#[test]
fn mutation_meter_mismatch_caught() {
    let sim = run_sim(4, &SimOptions::traced(), |ctx: &mut Ctx| {
        let to = (ctx.rank() + 1) % ctx.num_ranks();
        ctx.send_raw(to, vec![1, 2, 3]);
        let m = loop {
            if let Some(m) = ctx.try_recv_raw() {
                break m;
            }
            std::thread::yield_now();
        };
        m.words.len() as u64
    });
    let mut trace = sim.trace.clone().expect("traced");
    assert!(check_meters(&trace, &sim.output.stats).is_empty());
    // inflate one traced send by a word: the meters no longer reconcile
    let words = trace.per_pe[3]
        .iter_mut()
        .find_map(|ev| match ev {
            TraceEvent::Sent { words, .. } => Some(words),
            _ => None,
        })
        .expect("PE 3 sent");
    *words += 1;
    let violations = check_meters(&trace, &sim.output.stats);
    assert!(
        violations.iter().any(|v| matches!(
            v,
            Violation::MeterMismatch {
                pe: 3,
                direction: "sent",
                ..
            }
        )),
        "meter check must flag the extra word: {violations:?}"
    );
}

// ---- invariant 7: closed phase vocabulary ----

#[test]
fn all_variants_emit_only_registered_phase_names() {
    use tricount_core::dist::phases;
    let g = rmat_default(8, 13);
    for alg in Algorithm::all() {
        let dg = DistGraph::new(&g, 4);
        let (_, trace) = run_on(dg, alg, &alg.config(), &SimOptions::traced())
            .unwrap_or_else(|e| panic!("{} failed: {e}", alg.name()));
        let trace = trace.expect("traced");
        let violations = tricount_verify::check_phase_names(&trace, phases::ALL);
        assert!(
            violations.is_empty(),
            "{} emitted unregistered phase names: {violations:?}",
            alg.name()
        );
        assert!(
            trace
                .per_pe
                .iter()
                .flatten()
                .any(|ev| matches!(ev, TraceEvent::PhaseEnded { .. })),
            "{} recorded no phase boundaries at all",
            alg.name()
        );
    }
}

#[test]
fn mutation_rogue_phase_name_caught() {
    use tricount_core::dist::phases;
    let g = rmat_default(8, 13);
    let dg = DistGraph::new(&g, 4);
    let (_, trace) = run_on(
        dg,
        Algorithm::Cetric,
        &Algorithm::Cetric.config(),
        &SimOptions::traced(),
    )
    .unwrap();
    let mut trace = trace.expect("traced");
    // rewrite one PhaseEnded to a name outside the registry, as if a driver
    // bypassed the phases module
    let name = trace.per_pe[2]
        .iter_mut()
        .find_map(|ev| match ev {
            TraceEvent::PhaseEnded { name } => Some(name),
            _ => None,
        })
        .expect("PE 2 ended a phase");
    *name = "warmup".to_string();
    let violations = tricount_verify::check_phase_names(&trace, phases::ALL);
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, Violation::UnregisteredPhase { pe: 2, name } if name == "warmup")),
        "check must flag the rogue phase name: {violations:?}"
    );
}

/// The linter consumes traces — make sure an owned [`Trace`] round-trips
/// through the report rendering without a panic (smoke test for Display).
#[test]
fn report_renders() {
    let rep = check_trace(&Trace::default());
    let s = rep.to_string();
    assert!(s.contains("conformance"));
}

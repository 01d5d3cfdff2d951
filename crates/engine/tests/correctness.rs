//! Engine answers must bit-match the one-shot drivers and the sequential
//! references — plus the scripted-workload acceptance run: ≥1000 mixed
//! queries against a resident RGG2D with a warm cache and the setup
//! executed exactly once.

use tricount_comm::SimOptions;
use tricount_core::config::{Algorithm, DegreeExchange, DistConfig};
use tricount_core::dist::residency::build_residency;
use tricount_core::dist::{lcc as dist_lcc, run_on_profiled};
use tricount_core::seq;
use tricount_engine::{Engine, EngineConfig, Query, QueryAnswer};
use tricount_graph::dist::DistGraph;
use tricount_graph::intersect::merge_count;
use tricount_graph::{Csr, OrderingKind};

fn engine_for(g: &Csr, p: usize, dist: DistConfig) -> Engine {
    let mut cfg = EngineConfig::new(p);
    cfg.dist = dist;
    Engine::build(g, cfg)
}

/// Distributed `VertexLcc` answers bit-match the sequential LCC reference
/// across algorithm-variant configurations, seeds and PE counts.
#[test]
fn vertex_lcc_bitmatches_sequential_reference() {
    let configs = [
        Algorithm::Cetric.config(),
        Algorithm::Cetric2.config(),
        DistConfig {
            degree_exchange: DegreeExchange::Sparse,
            ..Algorithm::Cetric.config()
        },
    ];
    for seed in [1u64, 7] {
        let g = tricount_gen::rgg2d_default(300, seed);
        let reference = seq::local_clustering_coefficients(&g, OrderingKind::Degree);
        let all: Vec<u64> = (0..g.num_vertices()).collect();
        for p in [1usize, 2, 4] {
            for cfg in configs {
                let e = engine_for(&g, p, cfg);
                match e.query(Query::VertexLcc {
                    vertices: all.clone(),
                }) {
                    Ok(QueryAnswer::Lcc(pairs)) => {
                        assert_eq!(pairs.len(), reference.len());
                        for (v, lcc) in pairs {
                            assert_eq!(
                                lcc.to_bits(),
                                reference[v as usize].to_bits(),
                                "lcc({v}) diverges (seed {seed}, p {p}, cfg {cfg:?})"
                            );
                        }
                    }
                    other => panic!("expected Lcc answer, got {other:?}"),
                }
            }
        }
    }
}

/// The one-shot `dist::lcc` driver (which now routes through the shared
/// residency setup) also still matches the sequential reference.
#[test]
fn oneshot_lcc_still_matches_reference() {
    for seed in [3u64, 9] {
        let g = tricount_gen::rgg2d_default(256, seed);
        let reference = seq::local_clustering_coefficients(&g, OrderingKind::Degree);
        let per_vertex = seq::per_vertex_counts(&g, OrderingKind::Degree);
        for p in [2usize, 4] {
            let r = dist_lcc::lcc(&g, p, &Algorithm::Cetric.config());
            assert_eq!(r.per_vertex, per_vertex);
            for (v, (got, want)) in r.lcc.iter().zip(&reference).enumerate() {
                assert_eq!(got.to_bits(), want.to_bits(), "lcc({v}) diverges");
            }
        }
    }
}

/// Global-count answers bit-match the one-shot driver for every algorithm
/// variant at p ∈ {1, 4}, and the engine runs the same rank body: its
/// kernel-dispatch delta across one `GlobalTriangles` query equals, phase
/// by phase, the `DispatchReport` of `run_on_profiled`.
#[test]
fn global_counts_match_oneshot_drivers() {
    let g = tricount_gen::rgg2d_default(300, 5);
    let expected = seq::compact_forward(&g).triangles;
    for p in [1usize, 4] {
        let e = engine_for(&g, p, Algorithm::Cetric.config());
        for alg in Algorithm::all() {
            let label = format!("{} p={p}", alg.name());
            let dg = DistGraph::new_balanced_vertices(&g, p);
            let (oneshot, _, dispatch, _) =
                run_on_profiled(dg, alg, &alg.config(), &SimOptions::default()).unwrap();
            assert_eq!(oneshot.triangles, expected, "{label}");
            // the engine's tallies after the query must be its tallies
            // before plus exactly the one-shot run's, phase by phase
            let mut expected_dispatch = e.stats().kernel_dispatch;
            expected_dispatch.absorb(&dispatch);
            match e.query(Query::GlobalTriangles { algorithm: alg }) {
                Ok(QueryAnswer::Count(c)) => assert_eq!(c, expected, "{label}"),
                other => panic!("expected Count, got {other:?}"),
            }
            assert_eq!(
                e.stats().kernel_dispatch,
                expected_dispatch,
                "{label}: engine and one-shot dispatch differ"
            );
        }
    }
}

/// Edge-support answers match the direct neighborhood intersection.
#[test]
fn edge_support_matches_intersections() {
    let g = tricount_gen::rgg2d_default(300, 5);
    let mut edges = Vec::new();
    for v in 0..g.num_vertices() {
        for &u in g.neighbors(v) {
            if v < u && edges.len() < 40 {
                edges.push((v, u));
            }
        }
    }
    let e = engine_for(&g, 3, Algorithm::Cetric.config());
    match e.query(Query::EdgeSupport {
        edges: edges.clone(),
    }) {
        Ok(QueryAnswer::Support(pairs)) => {
            for ((a, b), s) in pairs {
                let want = merge_count(g.neighbors(a), g.neighbors(b)).0;
                assert_eq!(s, want, "support({a},{b})");
            }
        }
        other => panic!("expected Support, got {other:?}"),
    }
}

/// Approximate answers track the exact count; tighter error targets use
/// bigger sketches.
#[test]
fn approx_answers_are_sane() {
    let g = tricount_gen::rgg2d_default(400, 5);
    let exact = seq::compact_forward(&g).triangles as f64;
    let e = engine_for(&g, 4, Algorithm::Cetric.config());
    let mut last_bits = 0.0;
    for target in [0.5, 0.05, 0.005] {
        match e.query(Query::ApproxTriangles {
            max_rel_error: target,
        }) {
            Ok(QueryAnswer::Approx {
                estimate,
                bits_per_key,
            }) => {
                assert!(bits_per_key >= last_bits, "sketch must grow with precision");
                last_bits = bits_per_key;
                let rel = (estimate - exact).abs() / exact.max(1.0);
                assert!(
                    rel < 0.30,
                    "estimate {estimate} too far from {exact} (target {target})"
                );
            }
            other => panic!("expected Approx, got {other:?}"),
        }
    }
}

/// The rank programs the engine serves with are schedule independent under
/// the seeded-schedule harness from `crates/verify`.
#[test]
fn prepared_rank_programs_are_schedule_independent() {
    use tricount_comm::SimOptions;
    let g = tricount_gen::rgg2d_default(256, 2);
    let p = 4;
    let cfg = Algorithm::Cetric.config();
    let dg = DistGraph::new_balanced_vertices(&g, p);
    let (ranks, _) = build_residency(dg, &cfg, &SimOptions::default());

    let counts = tricount_verify::determinism::check_schedule_independence(
        p,
        &[1, 2, 3],
        &SimOptions::default(),
        |ctx| tricount_core::dist::cetric::count_prepared(ctx, &ranks[ctx.rank()], &cfg).0,
    )
    .expect("count must not depend on the schedule");
    assert_eq!(
        counts.iter().sum::<u64>() / p as u64,
        seq::compact_forward(&g).triangles
    );

    tricount_verify::determinism::check_schedule_independence(
        p,
        &[1, 2, 3],
        &SimOptions::default(),
        |ctx| tricount_core::dist::lcc::lcc_prepared(ctx, &ranks[ctx.rank()], &cfg).0,
    )
    .expect("per-vertex counts must not depend on the schedule");

    let acfg = tricount_core::dist::approx::ApproxConfig::default();
    tricount_verify::determinism::check_schedule_independence(
        p,
        &[1, 2, 3],
        &SimOptions::default(),
        |ctx| {
            let out =
                tricount_core::dist::approx::approx_prepared(ctx, &ranks[ctx.rank()], &cfg, &acfg);
            (
                out.exact_local,
                out.type3_raw,
                out.type3_corrected.to_bits(),
            )
        },
    )
    .expect("approx estimate must not depend on the schedule");
}

/// Acceptance run: ≥1000 mixed queries against a resident RGG2D complete
/// with a warm cache, and the comm counters prove the setup ran exactly
/// once (queries never repeat the ghost degree exchange).
#[test]
fn scripted_workload_acceptance() {
    let g = tricount_gen::rgg2d_default(512, 4);
    let mut cfg = EngineConfig::new(4);
    cfg.queue_capacity = 64;
    cfg.batch_max = 16;
    let mut e = Engine::build(&g, cfg);

    let workload = tricount_engine::scripted_workload(1000, g.num_vertices(), 42);
    let expected = seq::compact_forward(&g).triangles;
    let reference_lcc = seq::local_clustering_coefficients(&g, OrderingKind::Degree);

    let mut answered = 0usize;
    let mut backoff = 0usize;
    for q in &workload {
        loop {
            match e.submit(q.clone()) {
                Ok(_) => break,
                Err(_) => {
                    // closed loop: drain under backpressure, then resubmit
                    backoff += 1;
                    answered += e.tick().len();
                }
            }
        }
        if e.queue_depth() >= 16 {
            answered += check_batch(&mut e, expected, &reference_lcc, &g);
        }
    }
    while e.queue_depth() > 0 {
        answered += check_batch(&mut e, expected, &reference_lcc, &g);
    }
    assert_eq!(answered, workload.len(), "every query must be answered");

    let s = e.stats();
    assert_eq!(s.answered, 1000);
    assert!(s.cache_hit_rate() > 0.0, "workload repeats must hit");
    assert!(s.cache_hits > 0 && s.cache_misses > 0);
    assert_eq!(s.setup_runs, 1);
    // the setup performed the ghost degree exchange…
    assert!(s.setup_comm.sent_messages > 0 || s.setup_comm.coll_word_units > 0);
    // …and no query ever repeated it: their preprocessing phases moved no
    // point-to-point data (the ghost exchange's alltoallv payloads would
    // count here; what remains is TricLike's 1-word memory-accounting
    // all-reduce, charged to collective units)
    assert_eq!(s.query_preprocessing_comm.sent_messages, 0);
    assert_eq!(s.query_preprocessing_comm.sent_words, 0);
    assert_eq!(s.query_preprocessing_comm.recv_messages, 0);
    assert_eq!(s.query_preprocessing_comm.recv_words, 0);
    // queries did communicate overall (global phases)
    assert!(s.query_comm.sent_messages > 0);
    assert!(s.modeled_seconds_total > 0.0);
    assert!(backoff > 0 || s.rejected == 0, "loop stayed closed");
    let json = e.stats().to_json();
    assert!(json.contains("\"setup_runs\":1"));
}

/// Ticks once and verifies every answer in the batch against references.
fn check_batch(e: &mut Engine, expected: u64, reference_lcc: &[f64], g: &Csr) -> usize {
    let answers = e.tick();
    let n = answers.len();
    for (_, a) in answers {
        match a.expect("workload queries are valid") {
            QueryAnswer::Count(c) => assert_eq!(c, expected),
            QueryAnswer::Lcc(pairs) => {
                for (v, lcc) in pairs {
                    assert_eq!(lcc.to_bits(), reference_lcc[v as usize].to_bits());
                }
            }
            QueryAnswer::Support(pairs) => {
                for ((a, b), s) in pairs {
                    assert_eq!(s, merge_count(g.neighbors(a), g.neighbors(b)).0);
                }
            }
            QueryAnswer::Approx { estimate, .. } => {
                let rel = (estimate - expected as f64).abs() / (expected as f64).max(1.0);
                assert!(
                    rel < 0.5,
                    "approx answer wildly off: {estimate} vs {expected}"
                );
            }
        }
    }
    n
}

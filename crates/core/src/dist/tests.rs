//! Cross-variant correctness tests: every distributed algorithm must agree
//! with the sequential ground truth on every graph family and PE count.

use tricount_comm::{Counters, RunStats, SimOptions};
use tricount_gen::{gnm, rgg2d_default, rhg_default, rmat_default, road_default, Dataset};
use tricount_graph::kernels::KernelPolicy;
use tricount_graph::{Csr, DistGraph, EdgeList, OrderingKind};

use crate::config::{Aggregation, Algorithm, DistConfig};
use crate::dist::phases::{GLOBAL, LOCAL, PREPROCESSING};
use crate::dist::{approx, count, enumerate, lcc, run_on, run_ranks};
use crate::result::CountResult;
use crate::seq;

fn graph(edges: &[(u64, u64)], n: u64) -> Csr {
    let mut el = EdgeList::from_pairs(edges.to_vec());
    el.canonicalize();
    Csr::from_edges(n, &el)
}

fn check_all_algorithms(g: &Csr, ps: &[usize]) {
    let truth = seq::compact_forward(g).triangles;
    assert_eq!(truth, seq::brute_force_count(g), "sequential self-check");
    for &p in ps {
        for alg in Algorithm::all() {
            let r =
                count(g, p, alg, &alg.config()).unwrap_or_else(|e| panic!("{alg:?} p={p}: {e}"));
            assert_eq!(
                r.triangles,
                truth,
                "{} with p={p} (n={} m={})",
                alg.name(),
                g.num_vertices(),
                g.num_edges()
            );
        }
    }
}

#[test]
fn tiny_graphs_all_algorithms() {
    // triangle, K4, triangle+tail, two disjoint triangles spanning PEs
    check_all_algorithms(&graph(&[(0, 1), (1, 2), (0, 2)], 3), &[1, 2, 3]);
    check_all_algorithms(
        &graph(&[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 4),
        &[1, 2, 4],
    );
    check_all_algorithms(
        &graph(&[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)], 6),
        &[2, 3, 6],
    );
}

#[test]
fn type3_only_graph() {
    // a triangle whose corners land on three different PEs of a 3-way
    // partition of 0..6: vertices 0, 2, 4
    let g = graph(&[(0, 2), (2, 4), (0, 4)], 6);
    check_all_algorithms(&g, &[3]);
}

#[test]
fn triangle_free_graph() {
    let g = graph(&[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)], 6);
    check_all_algorithms(&g, &[1, 2, 4]);
}

#[test]
fn gnm_all_algorithms_various_p() {
    let g = gnm(200, 1200, 42);
    check_all_algorithms(&g, &[1, 2, 3, 5, 8]);
}

#[test]
fn rmat_skewed_all_algorithms() {
    let g = rmat_default(9, 7); // 512 vertices, hubs
    check_all_algorithms(&g, &[4, 7, 16]);
}

#[test]
fn rgg_local_heavy_all_algorithms() {
    let g = rgg2d_default(400, 3);
    check_all_algorithms(&g, &[4, 6]);
}

#[test]
fn rhg_all_algorithms() {
    let g = rhg_default(400, 5);
    check_all_algorithms(&g, &[3, 8]);
}

#[test]
fn road_all_algorithms() {
    let g = road_default(400, 1);
    check_all_algorithms(&g, &[4]);
}

#[test]
fn dataset_proxies_count_correctly() {
    for ds in Dataset::all() {
        let g = ds.generate(256, 11);
        let truth = seq::compact_forward(&g).triangles;
        for alg in [Algorithm::Ditric, Algorithm::Cetric2] {
            let r = count(&g, 4, alg, &alg.config()).unwrap();
            assert_eq!(r.triangles, truth, "{ds:?} {alg:?}");
        }
    }
}

#[test]
fn p_larger_than_n() {
    let g = graph(&[(0, 1), (1, 2), (0, 2)], 3);
    for alg in [Algorithm::Ditric, Algorithm::Cetric, Algorithm::TricLike] {
        let r = count(&g, 6, alg, &alg.config()).unwrap();
        assert_eq!(r.triangles, 1, "{alg:?}");
    }
}

#[test]
fn edge_balanced_partition_also_correct() {
    let g = rmat_default(8, 3);
    let truth = seq::compact_forward(&g).triangles;
    for alg in [Algorithm::Ditric, Algorithm::Cetric] {
        let dg = DistGraph::new(&g, 5);
        let (r, _) = run_on(dg, alg, &alg.config(), &SimOptions::default()).unwrap();
        assert_eq!(r.triangles, truth, "{alg:?}");
    }
}

#[test]
fn tric_like_oom_reproduction() {
    // on a skewed graph with a tiny memory cap, the static-buffer baseline
    // must fail with OutOfMemory while DITRIC (dynamic, linear memory) works
    let g = rmat_default(9, 2);
    let cfg = DistConfig {
        memory_limit_words: Some(500),
        ..Algorithm::TricLike.config()
    };
    let err = count(&g, 8, Algorithm::TricLike, &cfg).unwrap_err();
    match err {
        crate::result::DistError::OutOfMemory {
            needed_words,
            limit_words,
        } => {
            assert!(needed_words > limit_words);
        }
        other => panic!("expected OutOfMemory, got {other}"),
    }
    let ok = count(&g, 8, Algorithm::Ditric, &Algorithm::Ditric.config()).unwrap();
    assert_eq!(ok.triangles, seq::compact_forward(&g).triangles);
}

#[test]
fn ditric_memory_stays_linear() {
    let g = gnm(256, 2048, 9);
    let cfg = DistConfig {
        aggregation: Aggregation::Dynamic { delta_factor: 0.25 },
        ..DistConfig::default()
    };
    let r = count(&g, 8, Algorithm::Ditric, &cfg).unwrap();
    // per-PE peak buffer ≤ δ + one record; δ = max(64, |E_i|/4);
    // |E_i| ≈ 2m/p = 512 words → δ ≈ 128; a record can be ~A(v)+2
    let max_entries = (0..8)
        .map(|r| DistGraph::new(&g, 8).local(r).num_local_entries())
        .max()
        .unwrap();
    let bound = (max_entries / 4).max(64) + 2 + 64;
    assert!(
        r.stats.max_peak_buffered() <= bound,
        "peak {} > bound {}",
        r.stats.max_peak_buffered(),
        bound
    );
}

#[test]
fn static_aggregation_buffers_superlinearly_vs_dynamic() {
    let g = rmat_default(9, 5);
    let dyn_r = count(&g, 8, Algorithm::Ditric, &Algorithm::Ditric.config()).unwrap();
    let static_r = count(&g, 8, Algorithm::TricLike, &Algorithm::TricLike.config()).unwrap();
    assert!(
        static_r.stats.max_peak_buffered() > 4 * dyn_r.stats.max_peak_buffered(),
        "static {} vs dynamic {}",
        static_r.stats.max_peak_buffered(),
        dyn_r.stats.max_peak_buffered()
    );
}

#[test]
fn aggregation_reduces_messages() {
    let g = gnm(300, 3000, 4);
    let unagg = count(
        &g,
        6,
        Algorithm::Unaggregated,
        &Algorithm::Unaggregated.config(),
    )
    .unwrap();
    let agg = count(&g, 6, Algorithm::Ditric, &Algorithm::Ditric.config()).unwrap();
    assert!(
        agg.stats.total_messages() * 4 < unagg.stats.total_messages(),
        "agg {} vs unagg {}",
        agg.stats.total_messages(),
        unagg.stats.total_messages()
    );
}

#[test]
fn contraction_reduces_global_volume_on_local_graphs() {
    // RGG with locality: CETRIC's global phase must move far fewer words
    // than DITRIC's
    let g = rgg2d_default(2000, 8);
    let d = count(&g, 4, Algorithm::Ditric, &Algorithm::Ditric.config()).unwrap();
    let c = count(&g, 4, Algorithm::Cetric, &Algorithm::Cetric.config()).unwrap();
    let dv = phase_total(&d.stats, GLOBAL, |c| c.sent_words);
    let cv = phase_total(&c.stats, GLOBAL, |c| c.sent_words);
    assert!(cv < dv, "CETRIC global volume {cv} !< DITRIC {dv}");
}

#[test]
fn indirect_routing_still_correct_and_bounds_fanout() {
    let g = rmat_default(8, 1);
    let truth = seq::compact_forward(&g).triangles;
    let r2 = count(&g, 16, Algorithm::Ditric2, &Algorithm::Ditric2.config()).unwrap();
    assert_eq!(r2.triangles, truth);
    let r1 = count(&g, 16, Algorithm::Ditric, &Algorithm::Ditric.config()).unwrap();
    // grid routing may double volume but not more
    assert!(r2.stats.total_volume() <= 2 * r1.stats.total_volume() + 1000);
}

#[test]
fn phase_names_match_figure7() {
    let g = gnm(128, 512, 2);
    let r = count(&g, 4, Algorithm::Cetric, &Algorithm::Cetric.config()).unwrap();
    let names: Vec<&str> = r.stats.phases.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(names, vec!["preprocessing", "local", "global"]);
}

#[test]
fn lcc_matches_sequential() {
    for (g, p) in [
        (gnm(150, 900, 3), 4usize),
        (rmat_default(8, 9), 5),
        (rgg2d_default(300, 2), 3),
        (rmat_default(8, 11), 16),
    ] {
        let truth_delta = seq::per_vertex_counts(&g, OrderingKind::Degree);
        let truth_lcc = seq::local_clustering_coefficients(&g, OrderingKind::Degree);
        let r = lcc::lcc(&g, p, &DistConfig::default());
        assert_eq!(r.per_vertex, truth_delta);
        for (a, b) in r.lcc.iter().zip(&truth_lcc) {
            assert!((a - b).abs() < 1e-12);
        }
        assert_eq!(r.triangles, seq::compact_forward(&g).triangles);
    }
}

#[test]
fn approx_estimates_within_tolerance() {
    let g = gnm(300, 3600, 8);
    let truth = seq::compact_forward(&g).triangles as f64;
    for filter in [approx::FilterKind::Bloom, approx::FilterKind::SingleShot] {
        let r = approx::approx(
            &g,
            6,
            &DistConfig::default(),
            &approx::ApproxConfig {
                bits_per_key: 12.0,
                filter,
            },
        );
        // type-1/2 exact, type-3 approximated: total within 10%
        let rel = (r.estimate - truth).abs() / truth.max(1.0);
        assert!(
            rel < 0.10,
            "{filter:?}: estimate {} truth {truth}",
            r.estimate
        );
        // raw count never underestimates type-3 (no false negatives)
        assert!(r.exact_local as f64 + r.type3_raw as f64 >= truth);
    }
}

#[test]
fn approx_volume_below_exact_for_large_neighborhoods() {
    // approximate global phase should move fewer words than exact CETRIC
    // when contracted neighborhoods are sizable
    let g = gnm(400, 8000, 10);
    let exact = count(&g, 4, Algorithm::Cetric, &Algorithm::Cetric.config()).unwrap();
    let apx = approx::approx(
        &g,
        4,
        &DistConfig::default(),
        &approx::ApproxConfig {
            bits_per_key: 4.0,
            filter: approx::FilterKind::SingleShot,
        },
    );
    let ev = phase_total(&exact.stats, GLOBAL, |c| c.sent_words);
    let av = phase_total(&apx.stats, GLOBAL, |c| c.sent_words);
    assert!(av < ev, "approx volume {av} !< exact {ev}");
}

#[test]
fn hybrid_counts_correctly_and_cuts_volume() {
    // 8 cores as 8 ranks × 1 thread (flat) or 2 ranks × 4 pool workers
    let g = rgg2d_default(1500, 4);
    let truth = seq::compact_forward(&g).triangles;
    let hybrid = |threads: usize| {
        let cfg = DistConfig {
            kernels: KernelPolicy {
                pool_workers: threads,
            },
            ..DistConfig::default()
        };
        count(&g, 8 / threads, Algorithm::Ditric, &cfg).unwrap()
    };
    let (flat, hy) = (hybrid(1), hybrid(4));
    assert_eq!(flat.triangles, truth);
    assert_eq!(hy.triangles, truth);
    // fewer ranks (2 instead of 8) → smaller cut → less communication
    assert!(
        hy.stats.total_volume() < flat.stats.total_volume(),
        "hybrid {} !< flat {}",
        hy.stats.total_volume(),
        flat.stats.total_volume()
    );
}

#[test]
fn golden_trace_on_fixed_graph() {
    // Locks the exact protocol behaviour on the Fig.-1-style example (two
    // triangles, two cut edges, p = 2). Any change to message framing,
    // dedup, orientation or the degree exchange shows up here first.
    let g = graph(
        &[
            (0, 1),
            (0, 2),
            (1, 2),
            (3, 4),
            (3, 5),
            (4, 5),
            (2, 3),
            (1, 4),
        ],
        6,
    );
    let d = count(&g, 2, Algorithm::Ditric, &Algorithm::Ditric.config()).unwrap();
    assert_eq!(d.triangles, 2);
    // preprocessing: 2 request + 2 response messages of 2 ghost ids/degrees
    let pre = &d.stats.phases[0];
    assert_eq!(pre.name, "preprocessing");
    assert_eq!(pre.per_rank.iter().map(|c| c.sent_messages).sum::<u64>(), 4);
    assert_eq!(pre.total_volume(), 8);
    // global: PE0 ships one aggregated message; A(1)={2,4} and A(2)={3} go
    // to PE1 as [v,A(v)] records → 2+3 + 2+2 = 9 words; PE1 ships nothing
    // (its oriented cut heads point backwards under the degree order).
    let glob = d.stats.phases.last().unwrap();
    assert_eq!(
        glob.per_rank.iter().map(|c| c.sent_messages).sum::<u64>(),
        1
    );
    assert_eq!(glob.total_volume(), 9);
    assert_eq!(d.stats.total_work(), 17);
    assert_eq!(d.stats.max_peak_buffered(), 9);

    let c = count(&g, 2, Algorithm::Cetric, &Algorithm::Cetric.config()).unwrap();
    assert_eq!(c.triangles, 2);
    // contraction drops the intra-PE entry of A(1): one fewer payload word
    assert_eq!(c.stats.phases.last().unwrap().total_volume(), 8);
    // expanded-graph local phase does strictly more local work than DITRIC's
    assert_eq!(c.stats.total_work(), 21);
}

#[test]
fn havoqgt_delegates_count_correctly_and_flatten_hotspots() {
    // correctness first, across graphs and thresholds
    for (g, p) in [(rmat_default(9, 3), 8usize), (gnm(300, 3000, 5), 5)] {
        let truth = seq::compact_forward(&g).triangles;
        for threshold in [0u64, 4, 32] {
            let cfg = DistConfig {
                delegate_threshold: Some(threshold),
                ..Algorithm::HavoqgtLike.config()
            };
            let r = count(&g, p, Algorithm::HavoqgtLike, &cfg).unwrap();
            assert_eq!(r.triangles, truth, "threshold {threshold}");
        }
    }
    // the delegation payoff: wedge generation for hubs is spread over ~√p
    // PEs, so the hottest PE posts fewer visitors
    let g = rmat_default(10, 7);
    let p = 16;
    let plain = count(
        &g,
        p,
        Algorithm::HavoqgtLike,
        &Algorithm::HavoqgtLike.config(),
    )
    .unwrap();
    let cfg = DistConfig {
        delegate_threshold: Some(16),
        ..Algorithm::HavoqgtLike.config()
    };
    let delegated = count(&g, p, Algorithm::HavoqgtLike, &cfg).unwrap();
    assert_eq!(plain.triangles, delegated.triangles);
    let hot = |r: &CountResult| {
        (0..p)
            .map(|rk| {
                r.stats
                    .phases
                    .iter()
                    .map(|ph| ph.per_rank[rk].work_ops)
                    .sum::<u64>()
            })
            .max()
            .unwrap()
    };
    assert!(
        hot(&delegated) < hot(&plain),
        "delegation should flatten the hot PE's wedge work: {} !< {}",
        hot(&delegated),
        hot(&plain)
    );
}

#[test]
fn sparse_degree_exchange_matches_dense() {
    let g = rmat_default(9, 12);
    let truth = seq::compact_forward(&g).triangles;
    for alg in [Algorithm::Ditric, Algorithm::Cetric] {
        let cfg = DistConfig {
            degree_exchange: crate::config::DegreeExchange::Sparse,
            ..alg.config()
        };
        let r = count(&g, 7, alg, &cfg).unwrap();
        assert_eq!(r.triangles, truth, "{alg:?} sparse exchange");
    }
    // on a low-partner road graph the sparse exchange sends fewer
    // preprocessing messages than the dense one
    let road = road_default(2000, 2);
    let mk = |de| {
        let cfg = DistConfig {
            degree_exchange: de,
            ..DistConfig::default()
        };
        let r = count(&road, 16, Algorithm::Ditric, &cfg).unwrap();
        phase_total(&r.stats, PREPROCESSING, |c| c.sent_messages)
    };
    let dense = mk(crate::config::DegreeExchange::Dense);
    let sparse = mk(crate::config::DegreeExchange::Sparse);
    assert!(
        sparse <= dense,
        "sparse exchange should not send more messages on a road graph: {sparse} vs {dense}"
    );
}

#[test]
fn deterministic_stats_across_runs() {
    // counters (not timings) must be bit-identical between runs
    let g = gnm(200, 1600, 6);
    let a = count(&g, 5, Algorithm::Cetric, &Algorithm::Cetric.config()).unwrap();
    let b = count(&g, 5, Algorithm::Cetric, &Algorithm::Cetric.config()).unwrap();
    assert_eq!(a.triangles, b.triangles);
    assert_eq!(a.stats.total_volume(), b.stats.total_volume());
    assert_eq!(a.stats.total_work(), b.stats.total_work());
    // message counts can differ only through flush timing races in relayed
    // routing; direct DITRIC is fully deterministic
    let c = count(&g, 5, Algorithm::Ditric, &Algorithm::Ditric.config()).unwrap();
    let d = count(&g, 5, Algorithm::Ditric, &Algorithm::Ditric.config()).unwrap();
    assert_eq!(c.stats.total_messages(), d.stats.total_messages());
}

/// `field` summed over the ranks of every phase named `name`.
fn phase_total(stats: &RunStats, name: &str, field: fn(&Counters) -> u64) -> u64 {
    let phases = stats.phases.iter().filter(|ph| ph.name == name);
    phases.flat_map(|ph| &ph.per_rank).map(field).sum()
}

/// Per-rank counters of the phase `name`.
fn phase_counters<'a>(stats: &'a RunStats, name: &str) -> &'a [Counters] {
    let ph = stats
        .phases
        .iter()
        .find(|ph| ph.name == name)
        .unwrap_or_else(|| panic!("no {name} phase"));
    &ph.per_rank
}

#[test]
fn enumeration_runs_the_lcc_body() {
    let cfg = DistConfig::default();
    for (g, p) in [(rmat_default(8, 9), 5usize), (rgg2d_default(300, 2), 3)] {
        let l = lcc::lcc(&g, p, &cfg);
        let dg = DistGraph::new(&g, p);
        let e = run_ranks(dg, &SimOptions::default(), |ctx, lg| {
            enumerate::run_rank(ctx, lg, &cfg)
        });
        for phase in [PREPROCESSING, LOCAL, GLOBAL] {
            assert_eq!(
                phase_counters(&e.output.stats, phase),
                phase_counters(&l.stats, phase),
                "p={p} {phase}"
            );
        }
        assert_eq!(e.output.results.concat().len() as u64, l.triangles);
    }
}

#[test]
fn approx_local_phase_is_cetrics() {
    let g = gnm(300, 3600, 8);
    for p in [1usize, 4] {
        let a = approx::approx(&g, p, &DistConfig::default(), &Default::default());
        let c = count(&g, p, Algorithm::Cetric, &Algorithm::Cetric.config()).unwrap();
        for phase in [PREPROCESSING, LOCAL] {
            assert_eq!(
                phase_counters(&a.stats, phase),
                phase_counters(&c.stats, phase),
                "p={p} {phase}"
            );
        }
    }
}

#[test]
fn undeduplicated_contracted_protocols_stay_exact() {
    // `dedup = false` ships one `[v, u, A(v)…]` record per cut edge: more
    // words than surrogate deduplication, the same answers
    let plain = DistConfig {
        dedup: false,
        ..DistConfig::default()
    };
    let global_words = |r: &CountResult| phase_total(&r.stats, GLOBAL, |c| c.sent_words);
    for (g, p) in [
        (gnm(150, 900, 3), 4usize),
        (rmat_default(8, 9), 5),
        (rgg2d_default(300, 2), 3),
        (rmat_default(8, 11), 16),
    ] {
        let c = count(&g, p, Algorithm::Cetric, &plain).unwrap();
        assert_eq!(c.triangles, seq::compact_forward(&g).triangles, "p={p}");
        let deduped = count(&g, p, Algorithm::Cetric, &DistConfig::default()).unwrap();
        assert!(global_words(&c) >= global_words(&deduped), "p={p}");
        let l = lcc::lcc(&g, p, &plain);
        assert_eq!(
            l.per_vertex,
            seq::per_vertex_counts(&g, OrderingKind::Degree),
            "p={p}"
        );
    }
}

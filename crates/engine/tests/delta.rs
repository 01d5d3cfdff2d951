//! Dynamic-graph acceptance: the incrementally maintained resident
//! triangle count must bit-equal a from-scratch rebuild for every tested
//! (graph, batch, PE-count) triple — including randomised mixed batches
//! under proptest — the delta protocol must be schedule independent, and
//! a small batch must move far fewer communication words than a full
//! rebuild.

use proptest::prelude::*;
use std::sync::Mutex;
use std::time::Duration;
use tricount_comm::SimOptions;
use tricount_core::config::{Algorithm, DistConfig};
use tricount_core::dist::delta as delta_dist;
use tricount_core::dist::residency::build_residency;
use tricount_core::seq;
use tricount_delta::{apply_to_csr, random_batch, Overlay, UpdateBatch};
use tricount_engine::{Engine, EngineConfig, EngineError, Query, QueryAnswer};
use tricount_graph::dist::DistGraph;
use tricount_graph::intersect::merge_count;
use tricount_graph::Csr;

fn engine_for(g: &Csr, p: usize) -> Engine {
    Engine::build(g, EngineConfig::new(p))
}

/// A random mixed batch: ops over vertex ids of `g`, roughly half aimed at
/// present edges (deletions / redundant inserts) and half at random pairs
/// (insertions / no-op deletes), plus duplicates and self-loops that
/// canonicalisation must absorb.
fn arb_batch(n: u64) -> impl Strategy<Value = UpdateBatch> {
    proptest::collection::vec((0u64..2, 0..n, 0..n), 0..24).prop_map(|ops| {
        let mut b = UpdateBatch::new();
        for (ins, u, v) in ops {
            if ins == 1 {
                b.insert(u, v);
            } else {
                b.delete(u, v);
            }
        }
        b
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// For random sparse graphs and random mixed batches, the engine's
    /// incremental count bit-equals both the sequential recount of the
    /// edited graph and a freshly built engine over it — at 1, 4 and 9 PEs.
    #[test]
    fn incremental_count_equals_rebuild(
        n in 12u64..32,
        edge_factor in 1u64..4,
        seed in 0u64..1000,
        batch in (12u64..32).prop_flat_map(arb_batch),
    ) {
        let g = tricount_gen::gnm(n, n * edge_factor, seed);
        // clamp batch vertices into range (the strategy's id space may
        // exceed this case's n)
        let mut clamped = UpdateBatch::new();
        for op in &batch.ops {
            let (u, v) = op.endpoints();
            if u < n && v < n {
                if op.is_insert() {
                    clamped.insert(u, v);
                } else {
                    clamped.delete(u, v);
                }
            }
        }
        let edited = apply_to_csr(&g, &clamped.canonicalize());
        let expected = seq::compact_forward(&edited).triangles;
        for p in [1usize, 4, 9] {
            let e = engine_for(&g, p);
            let before = e.resident_triangles();
            prop_assert_eq!(before, seq::compact_forward(&g).triangles, "baseline, p {}", p);
            let receipt = e.apply_updates(&clamped).expect("in-range batch");
            prop_assert_eq!(receipt.triangles_before, before);
            prop_assert_eq!(receipt.triangles_after, expected, "incremental count, p {}", p);
            prop_assert_eq!(e.resident_triangles(), expected);
            let fresh = engine_for(&edited, p);
            prop_assert_eq!(fresh.resident_triangles(), expected, "fresh rebuild, p {}", p);
        }
    }
}

/// Chained batches: the resident count tracks the evolving graph exactly,
/// queries see the updated topology (read-your-writes), epochs advance
/// only when the graph changes, and every graph-changing update folds
/// exactly once, inside its own update span — no tick folds.
#[test]
fn chained_batches_track_evolving_graph() {
    let mut g = tricount_gen::rgg2d_default(200, 11);
    let e = Engine::build(&g, EngineConfig::new(4));
    let mut changed = 0;
    for round in 0..6u64 {
        let batch = random_batch(&g, 12, 1000 + round);
        g = apply_to_csr(&g, &batch.canonicalize());
        let epoch_before = e.epoch();
        let receipt = e.apply_updates(&batch).expect("valid batch");
        let expected = seq::compact_forward(&g).triangles;
        assert_eq!(
            e.resident_triangles(),
            expected,
            "round {round} incremental count"
        );
        if receipt.inserted + receipt.deleted > 0 {
            assert_eq!(e.epoch(), epoch_before + 1, "round {round} epoch");
            changed += 1;
        } else {
            assert_eq!(e.epoch(), epoch_before);
        }
        // queries run against the updated graph, not the stale base
        match e.query(Query::GlobalTriangles {
            algorithm: Algorithm::Cetric,
        }) {
            Ok(QueryAnswer::Count(c)) => assert_eq!(c, expected, "round {round} query"),
            other => panic!("expected Count, got {other:?}"),
        }
    }
    assert!(changed > 0, "the batches change the graph");
    let s = e.stats();
    assert_eq!(s.updates_applied, 6);
    assert_eq!(s.resident_triangles, seq::compact_forward(&g).triangles);
    let spans = |label| s.spans.iter().filter(move |sp| sp.label == label);
    assert_eq!(
        spans("seal").count(),
        changed,
        "one fold per changing update"
    );
    for seal in spans("seal") {
        assert!(
            spans("update")
                .any(|u| u.begin_nanos <= seal.begin_nanos && seal.end_nanos <= u.end_nanos),
            "a fold runs inside its update, never in a tick: {seal:?}"
        );
    }
    let json = s.to_json();
    assert!(json.contains("\"updates_applied\":6"));
    assert!(json.contains("\"resident_triangles\":"));
    let prom = e.prometheus();
    assert!(prom.contains("tricount_engine_updates_applied_total 6"));
    assert!(prom.contains("tricount_engine_resident_triangles"));
}

/// A watchdog-killed update publishes nothing: it returns `Err`, and the
/// epoch and the resident count stay those of the previous epoch. A zero
/// watchdog kills a run at the first poll that sees no heartbeat, which the
/// fold's unmetered re-orientation on this graph all but guarantees; an
/// update that slips through publishes normally and becomes the new
/// reference.
#[test]
fn killed_update_leaves_the_previous_epoch_serving() {
    let g = tricount_gen::rgg2d_default(1 << 13, 3);
    let mut cfg = EngineConfig::new(2);
    cfg.watchdog = Duration::ZERO;
    let e = Engine::build(&g, cfg);
    let mut killed = 0;
    for seed in 0..64u64 {
        if killed == 3 {
            break;
        }
        let (epoch, triangles) = (e.epoch(), e.resident_triangles());
        match e.apply_updates(&random_batch(&g, 64, seed)) {
            Err(EngineError::Dist(_)) => {
                killed += 1;
                assert_eq!(e.epoch(), epoch, "seed {seed}: a killed update publishes");
                assert_eq!(e.resident_triangles(), triangles, "seed {seed}");
            }
            Ok(receipt) => assert_eq!(receipt.epoch, e.epoch()),
            Err(other) => panic!("expected a watchdog kill, got {other}"),
        }
    }
    assert!(killed > 0, "a zero watchdog must kill some update");
    assert_eq!(e.stats().epochs_live, 1);
}

/// The delta rank program is schedule independent: perturbed message
/// delivery and thread interleaving leave every per-rank outcome
/// bit-identical.
#[test]
fn update_protocol_is_schedule_independent() {
    let g = tricount_gen::rgg2d_default(256, 5);
    let p = 4;
    let cfg = DistConfig::default();
    let dg = DistGraph::new(&g, p);
    let (ranks, _) = build_residency(dg, &cfg, &SimOptions::default());
    let batch = random_batch(&g, 20, 99).canonicalize();

    tricount_verify::determinism::check_schedule_independence(
        p,
        &[1, 2, 3, 4],
        &SimOptions::default(),
        |ctx| {
            // fresh overlay per run: the harness re-executes the program
            let mut ov = Overlay::for_local(&ranks[ctx.rank()].local);
            let out =
                delta_dist::apply_batch_rank(ctx, &ranks[ctx.rank()].local, &mut ov, &batch, &cfg);
            (
                out.inserted,
                out.deleted,
                out.noops,
                out.triangles_added,
                out.triangles_removed,
            )
        },
    )
    .expect("update outcome must not depend on the schedule");
}

/// The ISSUE's comm criterion: applying a small batch moves < 10% of the
/// communication words (p2p + collective) of a full build on the same
/// graph.
#[test]
fn small_batch_comm_is_under_a_tenth_of_rebuild() {
    let g = tricount_gen::rgg2d_default(2000, 21);
    let e = engine_for(&g, 4);
    let build_totals = {
        let s = e.setup_stats().totals();
        let b = e.baseline_stats().totals();
        (s.sent_words + s.coll_word_units) + (b.sent_words + b.coll_word_units)
    };
    assert!(build_totals > 0, "build must communicate");
    let batch = random_batch(&g, 8, 7);
    let receipt = e.apply_updates(&batch).expect("valid batch");
    let update_words = receipt.comm.sent_words + receipt.comm.coll_word_units;
    assert!(
        (update_words as f64) < 0.10 * build_totals as f64,
        "update moved {update_words} words, build moved {build_totals}"
    );
}

/// Degenerate batches: empty and self-cancelling batches return a zero
/// receipt without bumping the epoch; out-of-range vertices are rejected.
#[test]
fn degenerate_batches_and_validation() {
    let g = tricount_gen::rgg2d_default(100, 2);
    let e = engine_for(&g, 2);
    let epoch = e.epoch();

    let receipt = e.apply_updates(&UpdateBatch::new()).expect("empty is fine");
    assert_eq!(receipt.delta(), 0);
    assert_eq!(
        (receipt.inserted, receipt.deleted, receipt.noops),
        (0, 0, 0)
    );
    assert_eq!(e.epoch(), epoch, "empty batch must not bump the epoch");

    let mut cancel = UpdateBatch::new();
    cancel.insert(3, 4);
    cancel.delete(4, 3); // cancels in canonicalisation
    cancel.insert(5, 5); // self-loop, dropped
    let receipt = e.apply_updates(&cancel).expect("cancelling is fine");
    assert_eq!(receipt.delta(), 0);
    assert_eq!(e.epoch(), epoch);

    // pure no-ops against the live graph: effective count 0, epoch stays
    let mut noop = UpdateBatch::new();
    let v = (0..100u64)
        .find(|&v| !g.neighbors(v).is_empty())
        .expect("edges exist");
    noop.insert(v, g.neighbors(v)[0]); // already present
    let receipt = e.apply_updates(&noop).expect("noop is fine");
    assert_eq!((receipt.inserted, receipt.deleted), (0, 0));
    assert_eq!(receipt.noops, 1);
    assert_eq!(e.epoch(), epoch, "no-op batch must not bump the epoch");

    let mut bad = UpdateBatch::new();
    bad.insert(0, 100); // out of range
    match e.apply_updates(&bad) {
        Err(EngineError::UnknownVertex { vertex, .. }) => assert_eq!(vertex, 100),
        other => panic!("expected UnknownVertex, got {other:?}"),
    }
}

/// `apply_batch_sim` (the harness entry) agrees with the engine path, and
/// the fold the engine's update run adds sends no message, no word and no
/// collective word.
#[test]
fn sim_entry_matches_engine_path() {
    let g = tricount_gen::rgg2d_default(180, 9);
    let p = 3;
    let cfg = DistConfig::default();
    let dg = DistGraph::new(&g, p);
    let (ranks, _) = build_residency(dg, &cfg, &SimOptions::default());
    let overlays: Vec<Mutex<Overlay>> = ranks
        .iter()
        .map(|r| Mutex::new(Overlay::for_local(&r.local)))
        .collect();
    let batch = random_batch(&g, 15, 33);
    let canonical = batch.canonicalize();
    let (outcomes, stats, _) =
        delta_dist::apply_batch_sim(&ranks, &overlays, &canonical, &cfg, &SimOptions::default());

    let e = engine_for(&g, p);
    let receipt = e.apply_updates(&batch).expect("valid batch");
    assert_eq!(outcomes[0].inserted, receipt.inserted);
    assert_eq!(outcomes[0].deleted, receipt.deleted);
    assert_eq!(outcomes[0].noops, receipt.noops);
    assert_eq!(
        outcomes[0].triangles_added as i64 - outcomes[0].triangles_removed as i64,
        receipt.delta(),
    );
    assert!(receipt.inserted + receipt.deleted > 0, "the engine folded");
    let apply_only = stats.totals();
    let words = |c: &tricount_comm::Counters| (c.sent_messages, c.sent_words, c.coll_word_units);
    assert_eq!(words(&receipt.comm), words(&apply_only));
}

/// A cross-rank query edge `(a, b)` plus a vertex `x ∈ N(b) \ (N(a) ∪ {a})`:
/// inserting `(a, x)` makes `x` a common neighbour, so the support of
/// `(a, b)` rises by exactly one.
fn common_neighbour_fixture(g: &Csr, p: usize) -> (u64, u64, u64) {
    let part = tricount_graph::Partition::balanced_edges(g, p);
    for a in 0..g.num_vertices() {
        let na = g.neighbors(a);
        for b in 0..g.num_vertices() {
            if part.rank_of(a) == part.rank_of(b) {
                continue;
            }
            for &x in g.neighbors(b) {
                if x != a && !na.contains(&x) {
                    return (a, b, x);
                }
            }
        }
    }
    panic!("no cross-rank common-neighbour fixture in this graph");
}

/// Support of a cross-rank edge re-queried after an update ships the
/// post-update `N(a)`: it equals the intersection on the edited graph, and
/// the resident count equals a freshly built engine's and the sequential
/// count of the edited graph — at 4 and 16 PEs.
#[test]
fn cross_rank_support_sees_an_inserted_common_neighbour() {
    let g = tricount_gen::rgg2d_default(200, 11);
    for p in [4usize, 16] {
        let (a, b, x) = common_neighbour_fixture(&g, p);
        let support = |e: &Engine| match e
            .query(Query::EdgeSupport {
                edges: vec![(a, b)],
            })
            .expect("query executes")
        {
            QueryAnswer::Support(pairs) => pairs[0].1,
            other => panic!("expected Support, got {other:?}"),
        };
        let mut batch = UpdateBatch::new();
        batch.insert(a, x);
        let edited = apply_to_csr(&g, &batch.canonicalize());
        let before = merge_count(g.neighbors(a), g.neighbors(b)).0;
        let after = merge_count(edited.neighbors(a), edited.neighbors(b)).0;
        assert_eq!(after, before + 1, "fixture: x becomes a common neighbour");

        let e = engine_for(&g, p);
        assert_eq!(support(&e), before, "p={p}");
        e.apply_updates(&batch).expect("valid batch");
        assert_eq!(support(&e), after, "p={p}");
        assert_eq!(
            e.resident_triangles(),
            seq::compact_forward(&edited).triangles,
            "p={p}"
        );
        assert_eq!(
            e.resident_triangles(),
            engine_for(&edited, p).resident_triangles(),
            "p={p}"
        );
    }
}

/// `EngineConfig::with_cache_budget` is inert: an engine built with it
/// answers and meters exactly like one built without it, across queries of
/// every exact kind and an update batch.
#[test]
fn inert_cache_budget_answers_and_meters_identically() {
    let g = tricount_gen::rgg2d_default(240, 13);
    let p = 4;
    let run = |cfg: EngineConfig| {
        let e = Engine::build(&g, cfg);
        let queries = [
            Query::GlobalTriangles {
                algorithm: Algorithm::Cetric,
            },
            Query::GlobalTriangles {
                algorithm: Algorithm::Ditric,
            },
            Query::VertexLcc {
                vertices: vec![0, 17, 99],
            },
            Query::EdgeSupport {
                edges: vec![(0, 1), (5, 200)],
            },
        ];
        let mut answers: Vec<QueryAnswer> = queries
            .iter()
            .map(|q| e.query(q.clone()).expect("valid query"))
            .collect();
        e.apply_updates(&random_batch(&g, 20, 7))
            .expect("valid batch");
        answers.extend(
            queries
                .iter()
                .map(|q| e.query(q.clone()).expect("valid query")),
        );
        let s = e.stats();
        (answers, s.query_comm, s.update_comm, s.baseline_comm)
    };
    let plain = run(EngineConfig::new(p));
    let budgeted = run(EngineConfig::new(p).with_cache_budget(4 << 20));
    assert_eq!(plain.0, budgeted.0, "answers");
    assert_eq!(plain.1, budgeted.1, "query meters");
    assert_eq!(plain.2, budgeted.2, "update meters");
    assert_eq!(plain.3, budgeted.3, "baseline meters");
}

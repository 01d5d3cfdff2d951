//! MVCC acceptance: queries pin the epoch snapshot current at admission
//! and are answered against exactly that graph state — never a mid-batch
//! epoch — while updates publish new epochs concurrently. Includes the
//! regression test for the old read-your-writes tick (which folded
//! pending overlays into the live state and answered *waiting* queries
//! against the post-update graph), a proptest driving random
//! submit/update/tick interleavings (global counts, edge support and
//! vertex LCC) at 1, 4 and 9 PEs against a serialized oracle, true
//! cross-thread reads-during-writes, and the epoch retire-list lifecycle.

use proptest::prelude::*;
use std::sync::Mutex;
use tricount_core::config::Algorithm;
use tricount_core::seq;
use tricount_delta::{apply_to_csr, UpdateBatch};
use tricount_engine::{Engine, EngineConfig, Query, QueryAnswer};
use tricount_graph::intersect::merge_count;
use tricount_graph::{Csr, OrderingKind};

fn count_of(g: &Csr) -> u64 {
    seq::compact_forward(g).triangles
}

fn support_of(g: &Csr, edges: &[(u64, u64)]) -> Vec<u64> {
    edges
        .iter()
        .map(|&(a, b)| merge_count(g.neighbors(a), g.neighbors(b)).0)
        .collect()
}

fn lcc_of(g: &Csr, vertices: &[u64]) -> Vec<(u64, f64)> {
    let lcc = seq::local_clustering_coefficients(g, OrderingKind::Degree);
    vertices.iter().map(|&v| (v, lcc[v as usize])).collect()
}

/// Clamps `batch` into the vertex range `[0, n)`.
fn clamp(batch: &UpdateBatch, n: u64) -> UpdateBatch {
    let mut out = UpdateBatch::new();
    for op in &batch.ops {
        let (u, v) = op.endpoints();
        if u < n && v < n {
            if op.is_insert() {
                out.insert(u, v);
            } else {
                out.delete(u, v);
            }
        }
    }
    out
}

/// Regression for the pre-MVCC `tick()`: queries admitted *before* an
/// update batch must be answered against their admission-time graph even
/// when the draining tick happens after the update committed. The old
/// read-your-writes compaction folded pending overlays into the single
/// live state, so every waiting query observed the mid-batch epoch.
#[test]
fn waiting_queries_do_not_observe_mid_batch_epochs() {
    let g = tricount_gen::rgg2d_default(220, 3);
    let mut cfg = EngineConfig::new(4);
    cfg.batch_max = 8;
    let e = Engine::build(&g, cfg);

    let mut b1 = UpdateBatch::new();
    b1.insert(0, 7);
    b1.insert(1, 9);
    b1.delete(2, 3);
    let g1 = apply_to_csr(&g, &b1.canonicalize());
    let mut b2 = UpdateBatch::new();
    b2.insert(4, 11);
    b2.insert(0, 13);
    let g2 = apply_to_csr(&g1, &b2.canonicalize());

    // Interleave: submit → update → submit → update → submit, then drain
    // everything in ONE tick.
    let q0 = e
        .submit(Query::GlobalTriangles {
            algorithm: Algorithm::Cetric,
        })
        .expect("admitted");
    let r1 = e.apply_updates(&b1).expect("valid batch");
    let q1 = e
        .submit(Query::GlobalTriangles {
            algorithm: Algorithm::Ditric,
        })
        .expect("admitted");
    let r2 = e.apply_updates(&b2).expect("valid batch");
    let q2 = e
        .submit(Query::GlobalTriangles {
            algorithm: Algorithm::Cetric2,
        })
        .expect("admitted");
    assert_eq!(
        (r1.epoch, r2.epoch),
        (1, 2),
        "each batch published an epoch"
    );

    let answers = e.tick_pinned();
    assert_eq!(answers.len(), 3, "one tick drains all three");
    let lookup = |id| {
        answers
            .iter()
            .find(|(t, _, _)| *t == id)
            .map(|(_, ep, a)| (*ep, a.clone().expect("answers")))
            .expect("answered")
    };
    assert_eq!(
        lookup(q0),
        (0, QueryAnswer::Count(count_of(&g))),
        "query admitted before both updates sees the original graph"
    );
    assert_eq!(
        lookup(q1),
        (1, QueryAnswer::Count(count_of(&g1))),
        "query admitted between the updates sees exactly the first batch"
    );
    assert_eq!(
        lookup(q2),
        (2, QueryAnswer::Count(count_of(&g2))),
        "query admitted after both updates sees both batches"
    );
    assert_eq!(e.resident_triangles(), count_of(&g2));
}

/// Epoch lifecycle: a pinned reader keeps its superseded epoch alive;
/// answering it retires the epoch (recorded in the retire counters) and
/// leaves only the tip.
#[test]
fn pinned_reader_keeps_epoch_alive_until_drained() {
    let g = tricount_gen::rgg2d_default(180, 5);
    let e = Engine::build(&g, EngineConfig::new(2));
    e.submit(Query::GlobalTriangles {
        algorithm: Algorithm::Cetric,
    })
    .expect("admitted");
    // A guaranteed-effective batch: insert the first absent pair.
    let (a, b) = {
        let mut found = None;
        'outer: for a in 0..g.num_vertices() {
            for b in (a + 1)..g.num_vertices() {
                if !g.neighbors(a).contains(&b) {
                    found = Some((a, b));
                    break 'outer;
                }
            }
        }
        found.expect("graph is not complete")
    };
    let mut batch = UpdateBatch::new();
    batch.insert(a, b);
    let r = e.apply_updates(&batch).expect("valid batch");
    assert_eq!(r.inserted, 1, "the batch is effective");

    let s = e.stats();
    assert_eq!(s.epoch, 1);
    assert_eq!(s.epochs_live, 2, "epoch 0 survives for its pinned reader");
    assert_eq!(s.readers_pinned, 1);
    assert_eq!(s.epochs_retired, 0);

    let answers = e.tick();
    assert_eq!(answers.len(), 1);
    let s = e.stats();
    assert_eq!(s.epochs_live, 1, "drained epoch 0 retired");
    assert_eq!(s.readers_pinned, 0);
    assert_eq!(s.epochs_retired, 1);
    assert!(
        s.epoch_lifetime.count >= 1,
        "retired epoch recorded a lifetime sample"
    );
}

/// True concurrency: a writer thread streams update batches while a
/// reader thread submits and ticks global counts through a cloned engine
/// handle. Every answer must bit-equal the serial oracle's count for the
/// epoch the answer reports — a read racing a write sees either the old
/// or the new epoch, never a mid-batch state.
#[test]
fn concurrent_reads_match_their_pinned_epoch() {
    let g = tricount_gen::rgg2d_default(200, 7);
    let e = Engine::build(&g, EngineConfig::new(4));
    let initial = e.resident_triangles();
    assert_eq!(initial, count_of(&g));

    // Pre-plan effective batches and the truth per epoch.
    let mut truth = vec![initial];
    let mut cur = g.clone();
    let mut batches = Vec::new();
    for i in 0..4u64 {
        let mut b = UpdateBatch::new();
        b.insert(2 * i, 2 * i + 31);
        b.insert(2 * i + 1, 2 * i + 57);
        b.delete(i, i + 1);
        let canonical = b.canonicalize();
        cur = apply_to_csr(&cur, &canonical);
        truth.push(count_of(&cur));
        batches.push(b);
    }

    let answered: Mutex<Vec<(u64, u64)>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        let writer = e.clone();
        let reader = e.clone();
        let w = s.spawn(move || {
            for (i, b) in batches.iter().enumerate() {
                let r = writer.apply_updates(b).expect("valid batch");
                assert_eq!(r.epoch, i as u64 + 1, "batches publish in order");
            }
        });
        let answered = &answered;
        let r = s.spawn(move || {
            let mut got = 0usize;
            while got < 12 {
                if reader
                    .submit(Query::GlobalTriangles {
                        algorithm: Algorithm::Cetric,
                    })
                    .is_ok()
                {
                    for (_, epoch, a) in reader.tick_pinned() {
                        let QueryAnswer::Count(c) = a.expect("answers") else {
                            panic!("expected Count");
                        };
                        answered.lock().expect("answers lock").push((epoch, c));
                        got += 1;
                    }
                }
            }
        });
        w.join().expect("writer");
        r.join().expect("reader");
    });

    let answered = answered.into_inner().expect("answers lock");
    assert!(answered.len() >= 12);
    for (epoch, c) in &answered {
        assert_eq!(
            *c, truth[*epoch as usize],
            "answer at epoch {epoch} matches the serial oracle"
        );
    }
    let s = e.stats();
    assert_eq!(s.readers_pinned, 0, "everything drained");
    assert_eq!(e.resident_triangles(), *truth.last().expect("nonempty"));
}

/// Regression: `stats()`/`prometheus()` racing a tick's lazy seal must
/// not deadlock. The old `stats()` held the metrics mutex while peeking
/// the tip's sealed mutex, while the seal held the sealed mutex across a
/// fold that records into metrics — opposite acquisition orders, so a
/// stats call during an in-flight fold wedged both threads forever (this
/// test then hangs until the harness timeout).
#[test]
fn stats_never_deadlock_against_a_lazy_seal() {
    let g = tricount_gen::rgg2d_default(220, 11);
    let e = Engine::build(&g, EngineConfig::new(4));
    for round in 0..4u64 {
        // Dirty the tip: an effective batch small enough to stay below
        // the compaction threshold, so the next tick must lazily seal.
        let mut b = UpdateBatch::new();
        b.insert(round, round + 19);
        b.insert(round + 1, round + 43);
        e.apply_updates(&b).expect("valid batch");
        assert!(e.is_dirty(), "tip carries a frozen overlay");
        e.submit(Query::GlobalTriangles {
            algorithm: Algorithm::Cetric,
        })
        .expect("admitted");

        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let stats_handle = e.clone();
            let ticker = e.clone();
            let done = &done;
            let observer = s.spawn(move || {
                while !done.load(std::sync::atomic::Ordering::Relaxed) {
                    let st = stats_handle.stats();
                    assert!(st.submitted >= st.answered);
                    let _ = stats_handle.prometheus();
                }
            });
            let answers = s.spawn(move || ticker.tick()).join().expect("ticker");
            assert_eq!(answers.len(), 1);
            done.store(true, std::sync::atomic::Ordering::Relaxed);
            observer.join().expect("observer");
        });
    }
}

/// One interleaving op of the proptest script.
#[derive(Debug, Clone)]
enum Op {
    /// Submit a global count under the variant with this index.
    Global(usize),
    /// Submit an edge-support probe.
    Support,
    /// Submit a vertex-LCC probe.
    Lcc,
    /// Apply an update batch.
    Update(UpdateBatch),
    /// Drain one tick.
    Tick,
}

fn arb_batch(n: u64) -> impl Strategy<Value = UpdateBatch> {
    proptest::collection::vec((0u64..2, 0..n, 0..n), 1..12).prop_map(|ops| {
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

fn arb_ops(n: u64) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0usize..7).prop_map(Op::Global),
            Just(Op::Support),
            Just(Op::Lcc),
            arb_batch(n).prop_map(Op::Update),
            Just(Op::Tick),
        ],
        1..10,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random submit/update/tick interleavings across epochs, at 1, 4 and
    /// 9 PEs: every answer bit-equals the value a
    /// fully serialized execution produces on the query's admission-time
    /// graph — for all 7 global variants, edge-support probes and vertex
    /// LCC (the per-vertex oracle on the epoch's graph, so LCC after
    /// updates is covered).
    #[test]
    fn random_interleavings_are_serializable(
        n in 14u64..28,
        edge_factor in 1u64..4,
        seed in 0u64..500,
        ops in (14u64..28).prop_flat_map(arb_ops),
    ) {
        let g = tricount_gen::gnm(n, n * edge_factor, seed);
        let probe: Vec<(u64, u64)> = vec![(0, n / 2), (1, n - 1), (n / 3, n / 2 + 1)];
        let lcc_probe: Vec<u64> = vec![0, n / 3, n / 2, n - 1];
        for p in [1usize, 4, 9] {
            let mut cfg = EngineConfig::new(p);
            cfg.batch_max = 4;
            let e = Engine::build(&g, cfg);
            // The serialized oracle: the graph as of each admission.
            let mut serial = g.clone();
            let mut expected: Vec<(tricount_engine::TicketId, QueryAnswer)> = Vec::new();
            let mut got: Vec<(tricount_engine::TicketId, QueryAnswer)> = Vec::new();
            for op in &ops {
                match op {
                    Op::Global(idx) => {
                        let alg = Algorithm::all()[*idx];
                        let id = e.submit(Query::GlobalTriangles { algorithm: alg })
                            .expect("under capacity");
                        expected.push((id, QueryAnswer::Count(count_of(&serial))));
                    }
                    Op::Support => {
                        let id = e.submit(Query::EdgeSupport { edges: probe.clone() })
                            .expect("under capacity");
                        let s = support_of(&serial, &probe);
                        expected.push((id, QueryAnswer::Support(
                            probe.iter().copied().zip(s).collect(),
                        )));
                    }
                    Op::Lcc => {
                        let id = e.submit(Query::VertexLcc { vertices: lcc_probe.clone() })
                            .expect("under capacity");
                        expected.push((id, QueryAnswer::Lcc(lcc_of(&serial, &lcc_probe))));
                    }
                    Op::Update(b) => {
                        let clamped = clamp(b, n);
                        serial = apply_to_csr(&serial, &clamped.canonicalize());
                        let r = e.apply_updates(&clamped).expect("in-range batch");
                        prop_assert_eq!(
                            r.triangles_after,
                            count_of(&serial),
                            "receipt tracks the oracle, p {}", p
                        );
                    }
                    Op::Tick => {
                        for (id, a) in e.tick() {
                            got.push((id, a.expect("valid queries")));
                        }
                    }
                }
            }
            // Final drain.
            loop {
                let answers = e.tick();
                if answers.is_empty() {
                    break;
                }
                for (id, a) in answers {
                    got.push((id, a.expect("valid queries")));
                }
            }
            prop_assert_eq!(got.len(), expected.len(), "p {}", p);
            got.sort_by_key(|(id, _)| *id);
            expected.sort_by_key(|(id, _)| *id);
            for ((gid, ga), (eid, ea)) in got.iter().zip(&expected) {
                prop_assert_eq!(gid, eid, "p {}", p);
                prop_assert_eq!(
                    ga, ea,
                    "answer {:?} bit-equals serialized execution, p {}",
                    gid, p
                );
            }
            prop_assert_eq!(e.resident_triangles(), count_of(&serial));
            let s = e.stats();
            prop_assert_eq!(s.readers_pinned, 0, "all pins drained");
            prop_assert_eq!(s.epochs_live, 1, "only the tip survives a full drain");
        }
    }
}

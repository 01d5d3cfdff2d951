//! Engine observability: queue-wait latency records, executor counters,
//! lifecycle spans, and the Prometheus exposition endpoint.

use tricount_core::config::Algorithm;
use tricount_engine::{Engine, EngineConfig, Query};
use tricount_obs::parse_exposition;

fn small_engine(p: usize) -> Engine {
    let g = tricount_gen::rgg2d_default(128, 3);
    Engine::build(&g, EngineConfig::new(p))
}

#[test]
fn per_query_records_carry_queue_wait() {
    let e = small_engine(2);
    e.submit(Query::GlobalTriangles {
        algorithm: Algorithm::Cetric,
    })
    .unwrap();
    e.submit(Query::VertexLcc {
        vertices: vec![0, 1],
    })
    .unwrap();
    let answered = e.tick();
    assert_eq!(answered.len(), 2);
    let s = e.stats();
    assert_eq!(s.per_query.len(), 2);
    for r in &s.per_query {
        assert!(r.queue_seconds >= 0.0);
        assert!(r.queue_seconds < 60.0, "queue wait is sane");
    }
    assert_eq!(s.queue_wait.count, 2, "every answer recorded a queue wait");
    assert!(s.queue_wait.max >= s.queue_wait.p50);
    assert_eq!(s.run_wall.count, 2, "both keys executed (no cache hits)");
    assert!(s.run_wall.max > 0.0);
    assert_eq!(s.run_modeled.count, 2);
}

#[test]
fn pool_stats_accumulate_across_ticks() {
    let p = 2;
    let e = small_engine(p);
    let started = e.stats().threads_started;
    for _ in 0..2 {
        e.submit(Query::GlobalTriangles {
            algorithm: Algorithm::Cetric,
        })
        .unwrap();
        e.submit(Query::ApproxTriangles {
            max_rel_error: 0.25,
        })
        .unwrap();
        e.tick();
        e.advance_epoch();
    }
    let s = e.stats();
    // Two distinct keys per tick, two ticks: four runs of p rank jobs,
    // plus the one helper runner each two-job tick hands a key to.
    assert_eq!(s.jobs_run as usize, 2 * 2 * p + 2);
    assert_eq!(
        s.threads_started, started,
        "every job ran on a thread started at build"
    );
}

#[test]
fn lifecycle_spans_cover_every_tick() {
    let e = small_engine(2);
    e.submit(Query::GlobalTriangles {
        algorithm: Algorithm::Cetric,
    })
    .unwrap();
    e.tick();
    e.tick(); // empty tick: no batch, no spans
    let s = e.stats();
    assert_eq!(s.batches, 1, "empty ticks are not counted");
    assert_eq!(
        s.spans.len(),
        4,
        "batch/admit/run/answer per non-empty tick"
    );
    for span in &s.spans {
        assert!(span.end_nanos >= span.begin_nanos);
        assert!(["batch", "admit", "run", "answer"].contains(&span.label));
    }
    let batch0: Vec<_> = s.spans.iter().filter(|sp| sp.batch == 0).collect();
    assert_eq!(batch0.len(), 4);
    let outer = batch0.iter().find(|sp| sp.label == "batch").unwrap();
    for sp in &batch0 {
        assert!(sp.begin_nanos >= outer.begin_nanos);
        assert!(sp.end_nanos <= outer.end_nanos);
    }
}

#[test]
fn prometheus_exposition_parses_and_carries_quantiles() {
    let e = small_engine(2);
    let q = Query::GlobalTriangles {
        algorithm: Algorithm::Cetric,
    };
    e.query(q.clone()).unwrap();
    e.query(q).unwrap(); // cache hit
    let text = e.prometheus();
    let samples = parse_exposition(&text).expect("exposition parses");
    let get = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("missing sample {name}"))
            .value
    };
    assert_eq!(get("tricount_engine_submitted_total"), 2.0);
    assert_eq!(get("tricount_engine_answered_total"), 2.0);
    assert_eq!(get("tricount_engine_cache_hits_total"), 1.0);
    assert_eq!(get("tricount_engine_cache_misses_total"), 1.0);
    assert_eq!(get("tricount_engine_queue_wait_seconds_count"), 2.0);
    assert_eq!(get("tricount_engine_run_wall_seconds_count"), 1.0);
    let p99 = samples
        .iter()
        .find(|s| {
            s.name == "tricount_engine_queue_wait_seconds_quantile"
                && s.labels.iter().any(|(k, v)| k == "q" && v == "0.99")
        })
        .expect("p99 quantile gauge");
    assert!(p99.value >= 0.0);
    // One run of two ranks; the cache hit ran nothing.
    assert_eq!(get("tricount_engine_executor_jobs_run_total"), 2.0);
    assert!(get("tricount_engine_executor_threads_started_total") >= 2.0);
}

/// Epoch-lifecycle observability round-trip: the MVCC gauges appear in
/// `EngineStats`, its JSON, and the parsed Prometheus exposition, and
/// they move when an epoch is published and retired.
#[test]
fn epoch_lifecycle_metrics_round_trip() {
    let e = small_engine(2);
    // Pin epoch 0, publish epoch 1 underneath it.
    e.submit(Query::GlobalTriangles {
        algorithm: Algorithm::Cetric,
    })
    .unwrap();
    e.advance_epoch();
    let pinned = e.stats();
    assert_eq!(pinned.epochs_live, 2);
    assert_eq!(pinned.readers_pinned, 1);
    assert_eq!(pinned.epochs_retired, 0);

    let text = e.prometheus();
    let samples = parse_exposition(&text).expect("exposition parses");
    let get = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("missing sample {name}"))
            .value
    };
    assert_eq!(get("tricount_engine_epochs_live"), 2.0);
    assert_eq!(get("tricount_engine_readers_pinned"), 1.0);
    assert_eq!(get("tricount_engine_epochs_retired_total"), 0.0);
    assert_eq!(get("tricount_engine_epoch_lifetime_seconds_count"), 0.0);

    // Draining the reader retires epoch 0 and records its lifetime.
    e.tick();
    let drained = e.stats();
    assert_eq!(drained.epochs_live, 1);
    assert_eq!(drained.readers_pinned, 0);
    assert_eq!(drained.epochs_retired, 1);
    assert_eq!(drained.epoch_lifetime.count, 1);
    assert!(drained.epoch_lifetime.max >= 0.0);

    let samples = parse_exposition(&e.prometheus()).expect("exposition parses");
    let get = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("missing sample {name}"))
            .value
    };
    assert_eq!(get("tricount_engine_epochs_live"), 1.0);
    assert_eq!(get("tricount_engine_readers_pinned"), 0.0);
    assert_eq!(get("tricount_engine_epochs_retired_total"), 1.0);
    assert_eq!(get("tricount_engine_epoch_lifetime_seconds_count"), 1.0);

    let json = drained.to_json();
    for needle in [
        "\"epochs_live\":1",
        "\"epochs_retired\":1",
        "\"readers_pinned\":0",
        "\"epoch_lifetime\":{",
    ] {
        assert!(json.contains(needle), "stats JSON carries {needle}");
    }
}

#[test]
fn wall_profiled_engine_reports_contention() {
    let g = tricount_gen::rgg2d_default(128, 3);

    // profiling off: nothing is profiled, the snapshot stays silent
    let plain = Engine::build(&g, EngineConfig::new(2));
    plain
        .submit(Query::GlobalTriangles {
            algorithm: Algorithm::Cetric,
        })
        .unwrap();
    plain.tick();
    let off = plain.stats();
    assert_eq!(off.profiled_runs, 0);
    assert!(!plain.prometheus().contains("tricount_engine_profiled_runs"));

    // profiling on: setup + baseline + the query run all carry meters,
    // and the modeled counters match the unprofiled engine exactly
    let mut cfg = EngineConfig::new(2);
    cfg.wall_profile = true;
    let e = Engine::build(&g, cfg);
    e.submit(Query::GlobalTriangles {
        algorithm: Algorithm::Cetric,
    })
    .unwrap();
    e.tick();
    let s = e.stats();
    assert!(s.profiled_runs >= 3, "setup, baseline and one query run");
    assert!(s.lock_wait_seconds_total >= 0.0);
    assert!(s.barrier_spin_seconds_total > 0.0, "barriers always spin");
    assert_eq!(
        s.query_comm, off.query_comm,
        "profiling must not perturb the modeled meters"
    );
    assert_eq!(s.resident_triangles, off.resident_triangles);
    let json = s.to_json();
    assert!(json.contains("\"profiled_runs\":"));
    assert!(json.contains("\"barrier_spin_seconds_total\":"));
    let text = e.prometheus();
    let samples = parse_exposition(&text).expect("exposition parses");
    assert!(
        samples
            .iter()
            .any(|x| x.name == "tricount_engine_transport_barrier_spin_seconds" && x.value > 0.0),
        "contention gauges exported"
    );
}

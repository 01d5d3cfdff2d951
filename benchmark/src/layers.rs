//! The traced run: every layer's cost on one workload's inputs.
//!
//! Four passes over the workload's graph, each feeding per-layer metrics:
//! the count path (untraced and wall-profiled runs interleaved, with the
//! benchmark's own spans around load, partition and run), fixed-size
//! micro-measurements of the transport, queue and pool, probes of an idle
//! engine, and the workload's serving load on a wall-profiled engine.

use std::collections::BTreeMap;
use std::io;
use std::time::Instant;

use cetric::comm::{
    run_sim, CostModel, MessageQueue, QueueConfig, SimOptions, TransportKind, WallEventKind,
    WallProfile,
};
use cetric::core::config::Algorithm;
use cetric::core::dist::run_on_profiled;
use cetric::core::{seq, CountResult};
use cetric::engine::{Engine, EngineHost, EngineStats, HostConfig, HostRequest, Query};
use cetric::graph::intersect::merge_count;
use cetric::graph::io::load_graph;
use cetric::graph::kernels::{Dispatcher, KernelPolicy};
use cetric::graph::ordering::orient;
use cetric::graph::{Csr, DistGraph, OrderingKind};
use cetric::par::Pool;

use crate::calib::Reference;
use crate::common::{
    dist_config, engine_config, load_and_partition, timed_count, Outcome, RunArgs, SETUP_REPEATS,
    WARMUPS,
};
use crate::inputs::{
    load_serve_plan, write_graph, write_serve_plan, InputDir, LoadedPlan, ServePlan,
};
use crate::serve::{
    ask, drive, serve_plan, verify, warm_up, DriveOut, ReadRecord, UpdateRecord, Writer,
};
use crate::spec::{pe_count, Kind, Spec, BATCH_OPS, TAIL_BATCHES};
use crate::stats::{median, percentile, sorted};
use crate::trace::Trace;

/// Shares of the run's seconds: the count series, the traced open loop
/// (and, on a serve workload, an untraced one of the same length), and the
/// closed loop. The probes are sized by count, not by time.
const COUNT_SHARE: f64 = 0.3;
const OPEN_SHARE: f64 = 0.25;
const CLOSED_SHARE: f64 = 0.1;

/// Remote-adjacency cache budget of the cache-on probe engine when the
/// workload itself serves with the cache off.
const PROBE_CACHE_WORDS: u64 = 4 << 20;

pub fn measure(spec: &Spec, args: &RunArgs) -> io::Result<Outcome> {
    let dir = InputDir::create(&args.out, spec.name)?;
    let open_s = args.seconds * OPEN_SHARE;
    let closed_s = args.seconds * CLOSED_SHARE;
    let generate_s = {
        let (generate_s, g) = write_graph(spec, args.seed, args.shrink, &dir)?;
        let mut plan = serve_plan(spec, open_s, closed_s);
        if plan.batches == 0 {
            plan.batches = TAIL_BATCHES;
        }
        write_serve_plan(spec, args.seed, &g, &plan, &dir, "load")?;
        let probes = ServePlan {
            open_seconds: 0.0,
            closed_reads: PROBE_QUERIES,
            batches: PROBE_BATCHES,
        };
        write_serve_plan(spec, args.seed ^ 0x70be, &g, &probes, &dir, "probe")?;
        generate_s
    };

    let mut out = Outcome::default();
    let mut trace = Trace::default();
    out.put("gen.generate_s", generate_s);
    let (g, dropped) = count_pass(spec, args.seconds * COUNT_SHARE, &dir, &mut out, &mut trace)?;
    micro_pass(&mut out);
    engine_probes(spec, &g, &load_serve_plan(&dir, "probe")?, &mut out);
    let engine_spans = serve_pass(
        spec,
        &g,
        &load_serve_plan(&dir, "load")?,
        closed_s,
        dropped,
        &mut out,
        &mut trace,
    );

    trace.write(
        &args.out.join(format!("trace_{}.json", spec.name)),
        spec.name,
        &engine_spans,
    )?;
    // every name is reported once, in the order of the list
    out.metrics = crate::spec::PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let value = out.metrics.iter().find(|(n, _)| *n == name);
            (
                name,
                value.unwrap_or_else(|| panic!("{name} was not measured")).1,
            )
        })
        .collect();
    Ok(out)
}

/// Matches each receive of a wall profile with its send and returns the
/// seconds the messages spent queued.
fn queue_dwell(profile: &WallProfile) -> Vec<f64> {
    let mut sent: BTreeMap<(usize, usize, u64), u64> = BTreeMap::new();
    for log in &profile.per_pe {
        for e in &log.events {
            if let WallEventKind::Send { to, seq, .. } = e.kind {
                sent.insert((log.rank, to, seq), e.t_nanos);
            }
        }
    }
    let mut dwell = Vec::new();
    for log in &profile.per_pe {
        for e in &log.events {
            if let WallEventKind::Recv { from, seq, .. } = e.kind {
                if let Some(&t) = sent.get(&(from, log.rank, seq)) {
                    dwell.push(e.t_nanos.saturating_sub(t) as f64 * 1e-9);
                }
            }
        }
    }
    dwell
}

/// One traced count, file to answer, under the benchmark's own spans
/// (clock: since `origin`). Returns the wall of `run_on_profiled`, its
/// result and wall profile, and whether the outer spans (load, partition,
/// run) cover at least 95 % of file to answer.
fn traced_count(
    dir: &InputDir,
    p: usize,
    alg: Algorithm,
    id: u64,
    origin: Instant,
    trace: &mut Trace,
) -> io::Result<(f64, CountResult, Option<WallProfile>, bool)> {
    let t_begin = Instant::now();
    let g = load_graph(dir.graph())?;
    let t_loaded = Instant::now();
    let dg = DistGraph::new_balanced_vertices(&g, p);
    let t_partitioned = Instant::now();
    let (result, _, _, profile) =
        run_on_profiled(dg, alg, &dist_config(alg), &SimOptions::wall_profiled())
            .expect("no memory limit is set");
    let t_ran = Instant::now();
    drop(g);
    let t_end = Instant::now();

    let ns = |t: Instant| t.duration_since(origin).as_nanos() as u64;
    trace.push("file_to_answer", id, None, ns(t_begin), ns(t_end));
    for (name, from, to) in [
        ("load", t_begin, t_loaded),
        ("partition", t_loaded, t_partitioned),
        ("run", t_partitioned, t_ran),
    ] {
        trace.push(name, id, Some("file_to_answer"), ns(from), ns(to));
    }
    // phases end at barriers, so they follow one another from the start
    let mut at = ns(t_partitioned);
    for ph in &result.stats.phases {
        let name = match ph.name.as_str() {
            "preprocessing" => "preprocessing",
            "local" => "local",
            "global" => "global",
            _ => "rest",
        };
        let end = at + (ph.max_wall() * 1e9) as u64;
        trace.push(name, id, Some("run"), at, end);
        at = end;
    }
    let (outer, whole) = (t_ran - t_begin, t_end - t_begin);
    let covered = outer.as_secs_f64() >= 0.95 * whole.as_secs_f64();
    if !covered {
        eprintln!("traced run {id}: outer spans cover {outer:?} of {whole:?}");
    }
    Ok((
        (t_ran - t_partitioned).as_secs_f64(),
        result,
        profile,
        covered,
    ))
}

/// The count path on the workload's graph: set-up, kernels, the sequential
/// baseline, then untraced p=P, wall-profiled p=P and untraced p=1 runs in
/// rotation for `seconds`.
fn count_pass(
    spec: &Spec,
    seconds: f64,
    dir: &InputDir,
    out: &mut Outcome,
    trace: &mut Trace,
) -> io::Result<(Csr, u64)> {
    let p = pe_count();
    let alg = spec.alg;
    let (mut loads, mut partitions) = (Vec::new(), Vec::new());
    let mut loaded = None;
    for _ in 0..SETUP_REPEATS {
        let (g, load_s, partition_s) = load_and_partition(dir, p)?;
        loads.push(load_s);
        partitions.push(partition_s);
        loaded = Some(g);
    }
    let g = loaded.expect("SETUP_REPEATS is positive");
    out.put("graph.load_bin_s", median(&loads));
    out.put("graph.partition_s", median(&partitions));

    let mut orients = Vec::new();
    let mut oriented = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        oriented = Some(orient(&g, OrderingKind::Degree));
        orients.push(t0.elapsed().as_secs_f64());
    }
    let oriented = oriented.expect("three orientations ran");
    out.put("graph.orient_s", median(&orients));

    // The workload's own adjacency pairs (every oriented edge) through the
    // merge kernel and through the dispatcher; both per merge comparison,
    // so their ratio is a time ratio.
    let t0 = Instant::now();
    let (mut triangles, mut merge_ops) = (0u64, 0u64);
    for v in oriented.vertices() {
        let av = oriented.neighbors(v);
        for &u in av {
            let (c, ops) = merge_count(av, oriented.neighbors(u));
            triangles += c;
            merge_ops += ops;
        }
    }
    let merge_ns = t0.elapsed().as_nanos() as f64;
    let t0 = Instant::now();
    let mut auto = Dispatcher::new(KernelPolicy::default());
    let mut auto_triangles = 0u64;
    for v in oriented.vertices() {
        let av = oriented.neighbors(v);
        for &u in av {
            auto_triangles += auto.count(av, None, oriented.neighbors(u), None).0;
        }
    }
    let auto_ns = t0.elapsed().as_nanos() as f64;
    drop(oriented);
    out.put(
        "graph.intersect_merge_ns_per_op",
        merge_ns / merge_ops.max(1) as f64,
    );
    out.put(
        "graph.intersect_auto_ns_per_op",
        auto_ns / merge_ops.max(1) as f64,
    );

    let mut seqs = Vec::new();
    let mut truth = 0;
    for _ in 0..3 {
        let t0 = Instant::now();
        truth = seq::compact_forward(&g).triangles;
        seqs.push(t0.elapsed().as_secs_f64());
    }
    out.put("core.seq_s", median(&seqs));
    out.attempted += 2;
    out.failed += u64::from(triangles != truth) + u64::from(auto_triangles != truth);

    let plain = SimOptions::default();
    for _ in 0..WARMUPS {
        timed_count(&g, p, alg, &plain);
    }
    let (mut walls, mut walls_p1, mut walls_traced) = (Vec::new(), Vec::new(), Vec::new());
    let mut phases: [Vec<f64>; 3] = Default::default();
    let mut unattributed = Vec::new();
    let (mut lock_wait, mut barrier_spin, mut dwell) = (Vec::new(), Vec::new(), Vec::new());
    let mut dropped = 0u64;
    let mut stats = None;
    let started = Instant::now();
    let mut round = 0u64;
    while round < 3 || started.elapsed().as_secs_f64() < seconds {
        let (wall, result) = timed_count(&g, p, alg, &plain);
        walls.push(wall);
        let mut outside = wall;
        for (series, name) in phases.iter_mut().zip(["preprocessing", "local", "global"]) {
            let phase = result.stats.phases.iter().filter(|ph| ph.name == name);
            let phase_s: f64 = phase.map(|ph| ph.max_wall()).sum();
            series.push(phase_s);
            outside -= phase_s;
        }
        // cell hand-off, thread spawn, reduce, teardown
        unattributed.push(outside);
        out.attempted += 1;
        out.failed += u64::from(result.triangles != truth);
        stats = Some(result.stats);

        let (wall, result, profile, covered) = traced_count(dir, p, alg, round, started, trace)?;
        walls_traced.push(wall);
        out.attempted += 2;
        out.failed += u64::from(result.triangles != truth) + u64::from(!covered);
        if let Some(c) = &result.stats.contention {
            lock_wait.push(c.lock_wait_seconds());
            barrier_spin.push(c.barrier_spin_seconds());
            dropped += c.events_dropped;
        }
        if let Some(profile) = &profile {
            dwell.extend(queue_dwell(profile));
        }

        let (wall, result) = timed_count(&g, 1, alg, &plain);
        walls_p1.push(wall);
        out.attempted += 1;
        out.failed += u64::from(result.triangles != truth);
        round += 1;
    }

    let stats = stats.expect("at least three rounds ran");
    let count_s = median(&walls);
    let p1_s = median(&walls_p1);
    let [pre, local, global] = phases.map(|series| median(&series));
    let modeled = stats.modeled_time(&CostModel::supermuc());
    out.put("core.count_s", count_s);
    out.put("core.p1_count_s", p1_s);
    out.put("core.speedup_p1", p1_s / count_s);
    out.put("core.preprocessing_s", pre);
    out.put("core.local_s", local);
    out.put("core.global_s", global);
    out.put("core.unattributed_s", median(&unattributed));
    out.put("core.work_ops", stats.total_work() as f64);
    out.put("core.triangles", truth as f64);
    out.put("comm.sent_words", stats.total_volume() as f64);
    out.put("comm.sent_messages", stats.total_messages() as f64);
    out.put("comm.peak_buffered_words", stats.max_peak_buffered() as f64);
    out.put("comm.modeled_s", modeled);
    out.put("comm.wall_over_modeled", count_s / modeled);
    let or_zero = |xs: &[f64]| if xs.is_empty() { 0.0 } else { median(xs) };
    out.put("net.lock_wait_s", or_zero(&lock_wait));
    out.put("net.barrier_spin_s", or_zero(&barrier_spin));
    out.put("net.queue_dwell_p50_s", or_zero(&dwell));
    out.note("count_rounds", round as f64);
    out.note("dwell_samples", dwell.len() as f64);
    if spec.kind == Kind::Count {
        out.put(
            "obs.trace_overhead_fraction",
            median(&walls_traced) / count_s - 1.0,
        );
    }
    Ok((g, dropped))
}

const NOOP_RUNS: usize = 200;
const QUEUE_WORDS: usize = 1 << 20;
const QUEUE_PAYLOAD: usize = 64;
const PING_PONGS: u64 = 20_000;
const BARRIERS: u64 = 20_000;
const POOL_BATCHES: usize = 200;
const POOL_TASKS: usize = 32;

/// Fixed-size measurements of the layers under a run: what a spawned run
/// costs before it does anything, the buffered queue's throughput, the
/// transport's message and barrier latency, the pool's hand-off.
fn micro_pass(out: &mut Outcome) {
    let p = pe_count();
    let threads = SimOptions::on(TransportKind::Threads);

    let noop: Vec<f64> = (0..NOOP_RUNS)
        .map(|_| {
            let t0 = Instant::now();
            run_sim(p, &threads, |_| ());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    out.put("comm.run_sim_noop_s", median(&noop));

    // rank 0 posts QUEUE_WORDS to rank 1 through the buffered queue
    let payload = [7u64; QUEUE_PAYLOAD];
    let queue_s = run_sim(2, &threads, |ctx| {
        let mut q = MessageQueue::new(ctx, QueueConfig::dynamic(4096));
        let t0 = Instant::now();
        if ctx.rank() == 0 {
            for _ in 0..QUEUE_WORDS / QUEUE_PAYLOAD {
                q.post(ctx, 1, &payload);
            }
        }
        let mut received = 0usize;
        q.finish(ctx, &mut |_, env| received += env.payload.len());
        assert_eq!(received, if ctx.rank() == 1 { QUEUE_WORDS } else { 0 });
        t0.elapsed().as_secs_f64()
    })
    .output
    .results[0];
    out.put("comm.queue_words_per_s", QUEUE_WORDS as f64 / queue_s);

    let msg = |src: usize, seq: u64| cetric_net_msg(src, seq);
    let mut ends = cetric_endpoints(2).into_iter();
    let (mut a, mut b) = (ends.next().expect("rank 0"), ends.next().expect("rank 1"));
    let ping_s = std::thread::scope(|scope| {
        scope.spawn(move || {
            for seq in 0..PING_PONGS {
                while b.try_recv().is_none() {
                    std::hint::spin_loop();
                }
                b.send(0, msg(1, seq));
            }
        });
        let t0 = Instant::now();
        for seq in 0..PING_PONGS {
            a.send(1, msg(0, seq));
            while a.try_recv().is_none() {
                std::hint::spin_loop();
            }
        }
        t0.elapsed().as_secs_f64()
    });
    out.put("net.send_recv_ns", ping_s * 1e9 / (2 * PING_PONGS) as f64);

    let barrier_s = std::thread::scope(|scope| {
        let handles: Vec<_> = cetric_endpoints(p)
            .into_iter()
            .map(|ep| {
                scope.spawn(move || {
                    let t0 = Instant::now();
                    for _ in 0..BARRIERS {
                        ep.barrier();
                    }
                    t0.elapsed().as_secs_f64()
                })
            })
            .collect();
        let per_rank: Vec<f64> = handles
            .into_iter()
            .map(|h| h.join().expect("barrier thread panicked"))
            .collect();
        per_rank.into_iter().fold(0.0, f64::max)
    });
    out.put("net.barrier_ns", barrier_s * 1e9 / BARRIERS as f64);

    let pool = Pool::new(p);
    let batches: Vec<f64> = (0..POOL_BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            pool.run_tasks(vec![(); POOL_TASKS], |_, ()| ());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    out.put(
        "par.task_overhead_ns",
        median(&batches) * 1e9 / POOL_TASKS as f64,
    );
}

fn cetric_endpoints(p: usize) -> Vec<Box<dyn tricount_net::Endpoint>> {
    tricount_net::endpoints(TransportKind::Threads, p)
}

fn cetric_net_msg(src: usize, seq: u64) -> tricount_net::Msg {
    tricount_net::Msg {
        src,
        seq,
        words: vec![seq],
        arrival: 0.0,
    }
}

const PROBE_QUERIES: usize = 300;
const PROBE_BATCHES: usize = 6;
const NOOP_QUERIES: usize = 2000;
const RECOMPUTES: usize = 3;

/// What the probes of one idle engine measured.
struct Probed<'q> {
    support_s: f64,
    update_s: f64,
    /// The delta protocol's own run time inside `apply_updates`.
    apply_s: f64,
    words_per_op: f64,
    /// Everything asked and applied, for the oracle.
    driven: DriveOut<'q>,
}

/// Support reads and update batches against an idle engine: each batch is
/// applied, then a read forces the seal of the new epoch.
fn probe_engine<'q>(engine: &Engine, plan: &'q LoadedPlan) -> Probed<'q> {
    let mut driven = DriveOut::default();
    let mut supports = Vec::new();
    let support_queries = plan
        .closed
        .iter()
        .filter(|q| matches!(q, Query::EdgeSupport { .. }));
    for query in support_queries.clone() {
        let (seconds, record) = ask(engine, query);
        supports.push(seconds);
        driven.reads.push(record);
    }
    let (mut update_s, mut apply_s, mut words) = (Vec::new(), Vec::new(), Vec::new());
    for (batch, query) in plan.batches.iter().zip(support_queries) {
        let t0 = Instant::now();
        let receipt = engine.apply_updates(batch);
        let seconds = t0.elapsed().as_secs_f64();
        update_s.push(seconds);
        if let Ok(r) = &receipt {
            apply_s.push(r.wall_seconds);
            words.push(r.comm.sent_words as f64 / BATCH_OPS as f64);
        }
        driven.updates.push(UpdateRecord {
            due_ns: 0,
            start_ns: 0,
            end_ns: (seconds * 1e9) as u64,
            receipt,
        });
        driven.reads.push(ask(engine, query).1);
    }
    Probed {
        support_s: median(&supports),
        update_s: median(&update_s),
        apply_s: median(&apply_s),
        words_per_op: median(&words),
        driven,
    }
}

/// Probes of idle engines on the workload's graph: build, the cheapest and
/// the typical read, the per-epoch recomputes, the seal, and the same reads
/// and update batches with the adjacency cache on and off.
fn engine_probes(spec: &Spec, g: &Csr, plan: &LoadedPlan, out: &mut Outcome) {
    let own_words = spec.load.cache_words;
    let mut builds = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        drop(built.take());
        let t0 = Instant::now();
        built = Some(Engine::build(g, engine_config(own_words, false)));
        builds.push(t0.elapsed().as_secs_f64());
    }
    let own = built.expect("SETUP_REPEATS is positive");
    out.put("engine.build_s", median(&builds));

    let global = Query::GlobalTriangles {
        algorithm: Algorithm::Cetric,
    };
    let lcc = Query::VertexLcc { vertices: vec![0] };
    // the first answer computes the count; every later one is a
    // result-cache hit
    let mut first_reads = vec![ask(&own, &global).1];
    let noop: Vec<f64> = (0..NOOP_QUERIES).map(|_| ask(&own, &global).0).collect();
    out.put("engine.noop_query_s", median(&noop));

    let (mut lcc_s, mut global_s) = (Vec::new(), Vec::new());
    for _ in 0..RECOMPUTES {
        own.advance_epoch();
        for (query, series) in [(&lcc, &mut lcc_s), (&global, &mut global_s)] {
            let (seconds, record) = ask(&own, query);
            series.push(seconds);
            first_reads.push(record);
        }
    }
    out.put("engine.lcc_recompute_s", median(&lcc_s));
    out.put("engine.global_recompute_s", median(&global_s));

    let other_words = match own_words {
        Some(_) => None,
        None => Some(PROBE_CACHE_WORDS),
    };
    let other = Engine::build(g, engine_config(other_words, false));
    let mut own_probe = probe_engine(&own, plan);
    let other_probe = probe_engine(&other, plan);
    let seals: Vec<f64> = own
        .stats()
        .spans
        .iter()
        .filter(|s| s.label == "seal")
        .map(|s| (s.end_nanos - s.begin_nanos) as f64 * 1e-9)
        .collect();
    out.put("engine.seal_s", median(&seals));
    out.put("engine.support_query_s", own_probe.support_s);
    let (on, off) = match own_words {
        Some(_) => (&own_probe, &other_probe),
        None => (&other_probe, &own_probe),
    };
    out.put("cache.support_on_s", on.support_s);
    out.put("cache.support_off_s", off.support_s);
    out.put("cache.update_on_s", on.update_s);
    out.put("cache.update_off_s", off.update_s);
    out.put("delta.apply_s", off.apply_s);
    out.put("delta.words_per_update", off.words_per_op);

    // `advance_epoch` made epochs no update published; the oracle serves
    // them from the graph before
    first_reads.append(&mut own_probe.driven.reads);
    own_probe.driven.reads = first_reads;
    for probe in [&own_probe, &other_probe] {
        let (attempted, failed) = verify(g, 0, &plan.batches, &probe.driven);
        out.attempted += attempted;
        out.failed += failed;
    }

    let host = EngineHost::new(HostConfig::new());
    host.add_tenant("t", g, engine_config(own_words, false))
        .expect("first tenant of a fresh host");
    let round_trip = || {
        let t0 = Instant::now();
        let request = HostRequest::Query {
            tenant: "t".into(),
            query: global.clone(),
        };
        let accepted = host.submit(request).is_ok();
        host.drain();
        let replies = host.poll();
        (t0.elapsed().as_secs_f64(), accepted && replies.len() == 1)
    };
    round_trip();
    let trips: Vec<(f64, bool)> = (0..NOOP_QUERIES).map(|_| round_trip()).collect();
    out.attempted += trips.len() as u64;
    out.failed += trips.iter().filter(|(_, ok)| !ok).count() as u64;
    let seconds: Vec<f64> = trips.into_iter().map(|(s, _)| s).collect();
    out.put("host.noop_roundtrip_s", median(&seconds));
}

/// The workload's serving load on a wall-profiled engine (and, on a serve
/// workload, first on an unprofiled one to price the profiling).
/// `count_events_dropped` is what the count pass lost to ring overflow.
/// Returns the profiled engine's lifecycle spans for the trace file.
fn serve_pass(
    spec: &Spec,
    g: &Csr,
    plan: &LoadedPlan,
    closed_s: f64,
    count_events_dropped: u64,
    out: &mut Outcome,
    trace: &mut Trace,
) -> Vec<cetric::engine::EngineSpan> {
    // the schedules run in calibrated time here too; the latencies reported
    // are plain wall clock
    let reference = Reference::new(g, pe_count());
    let check = |driven: &DriveOut, out: &mut Outcome| {
        let (attempted, failed) = verify(g, 0, &plan.batches, driven);
        out.attempted += attempted;
        out.failed += failed;
    };
    let untraced_p50 = (spec.kind == Kind::Serve).then(|| {
        let engine = Engine::build(g, engine_config(spec.load.cache_words, false));
        warm_up(&engine, plan);
        let driven = drive(
            &engine,
            &reference,
            plan,
            Writer::of(spec, Writer::Off),
            0.0,
            || (),
        );
        check(&driven, out);
        percentile(&driven.open_latencies(ReadRecord::latency_s), 50)
    });

    let engine = Engine::build(g, engine_config(spec.load.cache_words, true));
    warm_up(&engine, plan);
    // a load without a writer still prices the update path, after its reads
    let driven = drive(
        &engine,
        &reference,
        plan,
        Writer::of(spec, Writer::After),
        closed_s,
        || (),
    );
    check(&driven, out);
    let stats: EngineStats = engine.stats();

    let open: Vec<&ReadRecord> = driven.reads.iter().filter(|r| r.open).collect();
    let latencies = driven.open_latencies(ReadRecord::latency_s);
    let lag = sorted(
        open.iter()
            .map(|r| (r.submitted_ns - r.due_ns) as f64 * 1e-9)
            .collect(),
    );
    let missed = open
        .iter()
        .filter(|r| !r.answered() || r.latency_s() > spec.load.limit_s)
        .count();
    let read_p50 = percentile(&latencies, 50);
    out.put("engine.read_p50_s", read_p50);
    out.put("engine.read_p90_s", percentile(&latencies, 90));
    out.put("engine.read_p99_s", percentile(&latencies, 99));
    out.put("engine.gen_lag_p99_s", percentile(&lag, 99));
    out.put(
        "engine.slo_miss_fraction",
        missed as f64 / open.len() as f64,
    );
    out.put("engine.closed_loop_qps", driven.closed_qps);
    let update_latencies: Vec<f64> = driven.updates.iter().map(UpdateRecord::latency_s).collect();
    out.put("engine.update_p50_s", median(&update_latencies));
    out.note("traced_open_reads", open.len() as f64);
    out.note("traced_updates", driven.updates.len() as f64);

    let ticks = stats.batches.max(1) as f64;
    for (metric, label) in [
        ("engine.admit_s", "admit"),
        ("engine.run_s", "run"),
        ("engine.answer_s", "answer"),
    ] {
        let total: u64 = stats
            .spans
            .iter()
            .filter(|s| s.label == label)
            .map(|s| s.end_nanos - s.begin_nanos)
            .sum();
        out.put(metric, total as f64 * 1e-9 / ticks);
    }
    let waits = sorted(stats.per_query.iter().map(|q| q.queue_seconds).collect());
    out.put("engine.queue_wait_p50_s", percentile(&waits, 50));
    out.put("engine.queue_wait_p99_s", percentile(&waits, 99));
    out.put("engine.batch_size_mean", stats.answered as f64 / ticks);
    out.put("engine.result_cache_hit_rate", stats.cache_hit_rate());
    out.put("cache.hit_rate", stats.adj_cache_hit_rate());
    let (saved, shipped) = [&stats.query_adjacency, &stats.update_adjacency]
        .iter()
        .fold((0u64, 0u64), |(s, w), r| {
            (s + r.words_saved, w + r.words_shipped)
        });
    out.put(
        "cache.words_saved_fraction",
        saved as f64 / (saved + shipped).max(1) as f64,
    );
    out.put(
        "cache.resident_words",
        stats.adj_cache_resident_words as f64,
    );
    out.put(
        "obs.wall_events_dropped",
        (count_events_dropped + stats.wall_events_dropped) as f64,
    );
    if let Some(untraced) = untraced_p50 {
        out.note("untraced_read_p50_s", untraced);
        out.put("obs.trace_overhead_fraction", read_p50 / untraced - 1.0);
    }

    for (id, r) in driven.reads.iter().enumerate() {
        let id = id as u64;
        trace.push("read", id, None, r.due_ns, r.answered_ns.max(r.due_ns));
        if r.open {
            trace.push("gen_lag", id, Some("read"), r.due_ns, r.submitted_ns);
        }
        trace.push(
            "submit_to_answer",
            id,
            Some("read"),
            r.submitted_ns,
            r.answered_ns.max(r.submitted_ns),
        );
    }
    for (id, u) in driven.updates.iter().enumerate() {
        trace.push("apply_updates", id as u64, None, u.start_ns, u.end_ns);
    }
    stats.spans
}

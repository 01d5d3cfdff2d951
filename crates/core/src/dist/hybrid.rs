//! Hybrid (thread × rank) parallelism (paper §IV-D and the appendix's
//! Fig. 8): for a fixed core budget, fewer MPI ranks each drive `t` worker
//! threads. The local phase is parallelised *edge-centrically* (the local
//! directed edge list is chunked into tasks executed by the work-stealing
//! pool, after Green et al.), which both speeds up the local phase and —
//! because fewer ranks mean a smaller cut — reduces communication volume.
//! The global phase stays *funneled*: one thread per rank performs all
//! communication and the receive-side intersections, which is exactly the
//! bottleneck the paper reports for its hybrid prototype. It is DITRIC's
//! global phase — the shared `dist::count_global` under `cfg.kernels` — so
//! at `p = cores / threads` its counters equal DITRIC's.
//!
//! Work metering: the local phase charges the *maximum* per-worker op count
//! (the slowest worker bounds the phase), so modeled times reflect `t`-way
//! parallel execution on the single-core host.

use tricount_comm::{Ctx, SimOptions};
use tricount_graph::dist::{DistGraph, LocalGraph, LocalId};
use tricount_graph::intersect::merge_count;
use tricount_par::Pool;

use crate::config::DistConfig;
use crate::dist::phases;
use crate::dist::{count_global, preprocess, run_ranks};
use crate::result::CountResult;

/// Edge chunk size per task (small enough for stealing to balance hubs).
const TASK_EDGES: usize = 128;

/// Runs the hybrid DITRIC variant on this rank with `threads` workers.
pub fn run_rank(ctx: &mut Ctx, mut lg: LocalGraph, cfg: &DistConfig, threads: usize) -> u64 {
    let pool = Pool::new(threads);
    preprocess(ctx, &mut lg, cfg);
    let o = lg.orient(cfg.ordering, false);
    ctx.end_phase(phases::PREPROCESSING);

    // Edge-centric local phase: all directed (v, u) with u local, chunked.
    let ids = o.ids();
    let mut edges: Vec<(LocalId, LocalId)> = Vec::new();
    for v in ids.owned() {
        for &u in o.a(v) {
            if ids.is_owned(u) {
                edges.push((v, u));
            }
        }
    }
    let tasks: Vec<Vec<(LocalId, LocalId)>> =
        edges.chunks(TASK_EDGES).map(|c| c.to_vec()).collect();
    let o_ref = &o;
    let results = pool.run_tasks(tasks, move |_idx, chunk| {
        let mut count = 0u64;
        let mut ops = 0u64;
        for (v, u) in chunk {
            let (c, w) = merge_count(o_ref.a(v), o_ref.a(u));
            count += c;
            ops += w + 1;
        }
        (count, ops)
    });
    let mut local_count = 0u64;
    let mut worker_ops = vec![0u64; threads];
    for r in &results {
        local_count += r.result.0;
        worker_ops[r.worker] += r.result.1;
    }
    // modeled parallel time: the busiest worker
    ctx.add_work(worker_ops.iter().copied().max().unwrap_or(0));
    ctx.end_phase(phases::LOCAL);

    // Funneled global phase — single-threaded DITRIC's, dispatcher and all.
    let sources = ids.owned().map(|l| (l, o.a(l)));
    let (remote_count, _) = count_global(ctx, cfg, &lg, ids, sources, |u| o.a(u));
    let total = ctx.allreduce_sum(&[local_count + remote_count])[0];
    ctx.end_phase(phases::GLOBAL);
    total
}

/// Drives a hybrid run with a fixed core budget: `cores = ranks × threads`.
/// Panics unless `threads` divides `cores`.
pub fn count_hybrid(
    g: &tricount_graph::Csr,
    cores: usize,
    threads: usize,
    cfg: &DistConfig,
) -> CountResult {
    assert!(
        threads >= 1 && cores % threads == 0,
        "cores must be ranks × threads"
    );
    let p = cores / threads;
    let dg = DistGraph::new(g, p);
    let out = run_ranks(dg, &SimOptions::on(cfg.transport), |ctx, lg| {
        run_rank(ctx, lg, cfg, threads)
    });
    CountResult {
        triangles: out.output.results[0],
        stats: out.output.stats,
    }
}

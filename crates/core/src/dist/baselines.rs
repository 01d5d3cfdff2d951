//! Re-implementations of the two competitors the paper benchmarks against
//! (§V-B), capturing the algorithmic strategies the paper attributes to
//! them:
//!
//! * **TriC-like** (Ghosh & Halappanavar): no degree orientation, static
//!   up-front message aggregation, one irregular all-to-all. Pre-buffering
//!   the whole outgoing volume is what makes TriC's memory superlinear —
//!   with a configured memory limit these runs fail with `OutOfMemory`
//!   exactly where the paper reports TriC crashing.
//! * **HavoqGT-like** (Pearce et al.): vertex-centric wedge *visitors* — for
//!   every wedge `(u, w)` of an oriented vertex a 2-word check message is
//!   routed (with aggregation + rerouting) to the owner of `u`, which tests
//!   the closing edge. Message volume is proportional to the number of
//!   wedges rather than to neighborhood sizes.

use tricount_comm::{Ctx, Envelope, MessageQueue, QueueConfig};
use tricount_graph::dist::LocalGraph;
use tricount_graph::intersect::merge_count;

use crate::config::DistConfig;
use crate::dist::phases;
use crate::dist::preprocess;
use crate::result::DistError;

/// TriC-like rank program. Counts every triangle three times (once per
/// edge, iterated from the lower id endpoint) and divides at the end.
pub fn tric_like_rank(ctx: &mut Ctx, lg: LocalGraph, cfg: &DistConfig) -> Result<u64, DistError> {
    // No degree exchange, no orientation: full neighborhoods throughout.
    // First compute the outgoing buffer volume this PE will need (TriC
    // allocates its buffers up front), and fail collectively if any PE
    // exceeds the memory limit.
    let mut outgoing_words = 0u64;
    for v in lg.owned_vertices() {
        for &u in lg.neighbors(v) {
            if u > v && !lg.is_owned(u) {
                // record: header (2) + [v, u] + N_v
                outgoing_words += 2 + 2 + lg.degree(v);
            }
        }
    }
    let needed = ctx.allreduce_max(outgoing_words);
    if let Some(limit) = cfg.memory_limit_words {
        if needed > limit {
            ctx.end_phase(phases::PREPROCESSING);
            return Err(DistError::OutOfMemory {
                needed_words: needed,
                limit_words: limit,
            });
        }
    }
    ctx.end_phase(phases::PREPROCESSING);

    let mut count = 0u64;
    // static aggregation: a single batch flushed at finish
    let mut q = MessageQueue::new(
        ctx,
        QueueConfig {
            delta: None,
            routing: cfg.routing,
        },
    );
    let part = lg.partition().clone();
    let mut scratch: Vec<u64> = Vec::new();
    for v in lg.owned_vertices() {
        let nv = lg.neighbors(v);
        for &u in nv {
            if u <= v {
                continue;
            }
            if lg.is_owned(u) {
                let (c, ops) = merge_count(nv, lg.neighbors(u));
                count += c;
                ctx.add_work(ops + 1);
            } else {
                scratch.clear();
                scratch.push(v);
                scratch.push(u);
                scratch.extend_from_slice(nv);
                q.post(ctx, part.rank_of(u), &scratch);
            }
        }
    }
    ctx.end_phase(phases::LOCAL);
    let lg_ref = &lg;
    let mut remote = 0u64;
    q.finish(ctx, &mut |ctx: &mut Ctx, env: Envelope<'_>| {
        let u = env.payload[1];
        let nv = &env.payload[2..];
        let (c, ops) = merge_count(nv, lg_ref.neighbors(u));
        remote += c;
        ctx.add_work(ops + 1);
    });
    let total = ctx.allreduce_sum(&[count + remote])[0];
    ctx.end_phase(phases::GLOBAL);
    debug_assert_eq!(total % 3, 0, "unoriented count must be divisible by 3");
    Ok(total / 3)
}

const TAG_CHECK: u64 = 0;
const TAG_DELEGATE: u64 = 1;

/// A delegated hub task received in round 1: generate this stride's wedges
/// of the hub's neighborhood in round 2.
struct DelegateTask {
    stride: u64,
    nstrides: u64,
    /// `(key-degree, id)` pairs of the hub's oriented neighborhood.
    neighbors: Vec<(u64, u64)>,
}

/// HavoqGT-like rank program: wedge-visitor counting on the degree-oriented
/// graph, optionally with vertex delegates for high-degree hubs
/// (`cfg.delegate_threshold`): a hub's neighborhood is broadcast to ~√p
/// delegate PEs which generate disjoint strides of its wedge pairs,
/// flattening the wedge-generation hotspot at the cost of the broadcast.
/// Delegation runs as a second exchange round so visitors generated by
/// delegates enter a fresh termination epoch.
pub fn havoqgt_like_rank(ctx: &mut Ctx, mut lg: LocalGraph, cfg: &DistConfig) -> u64 {
    preprocess(ctx, &mut lg, cfg);
    let o = lg.orient(cfg.ordering, false);
    ctx.end_phase(phases::PREPROCESSING);

    let p = ctx.num_ranks();
    let me = ctx.rank();
    let delta = cfg.resolve_delta(lg.num_local_entries());
    let mut q = MessageQueue::new(
        ctx,
        QueueConfig {
            delta,
            routing: cfg.routing,
        },
    );
    let part = o.partition().clone();
    let mut count = 0u64;

    // does the closing edge (u, w) exist? (u local, neighborhood id-sorted)
    let check = |o: &tricount_graph::dist::OrientedLocalGraph,
                 ctx: &mut Ctx,
                 u: u64,
                 w: u64,
                 acc: &mut u64| {
        let ids = o.ids();
        let au = o.a(ids.local_of(u).expect("the closing edge's tail is owned"));
        let log = (usize::BITS - au.len().leading_zeros()) as u64;
        ctx.add_work(log.max(1));
        if ids
            .local_of(w)
            .is_some_and(|w| au.binary_search(&w).is_ok())
        {
            *acc += 1;
        }
    };
    // emit the visitor for the wedge {a, b} (each endpoint given as
    // (key-degree, id)); `sink` either checks locally or posts
    let emit = |o: &tricount_graph::dist::OrientedLocalGraph,
                q: &mut MessageQueue,
                ctx: &mut Ctx,
                a: (u64, u64),
                b: (u64, u64),
                acc: &mut u64| {
        ctx.add_work(1);
        let (u, w) = if a < b { (a.1, b.1) } else { (b.1, a.1) };
        if o.owned_range().contains(&u) {
            check(o, ctx, u, w, acc);
        } else {
            q.post(ctx, part.rank_of(u), &[TAG_CHECK, u, w]);
        }
    };

    // round 1: wedge generation for normal vertices; hub neighborhoods are
    // broadcast to delegates instead
    let mut tasks: Vec<DelegateTask> = Vec::new();
    let handler_r1 = |o: &tricount_graph::dist::OrientedLocalGraph,
                      ctx: &mut Ctx,
                      env: Envelope<'_>,
                      acc: &mut u64,
                      tasks: &mut Vec<DelegateTask>| {
        match env.payload[0] {
            TAG_CHECK => check(o, ctx, env.payload[1], env.payload[2], acc),
            _ => {
                let stride = env.payload[1];
                let nstrides = env.payload[2];
                let neighbors = env.payload[3..]
                    .chunks_exact(2)
                    .map(|c| (c[0], c[1]))
                    .collect();
                tasks.push(DelegateTask {
                    stride,
                    nstrides,
                    neighbors,
                });
            }
        }
    };
    let keyed = |lg: &LocalGraph, x: u64| {
        let k = lg.ord_key(cfg.ordering, x);
        (k.degree, k.id)
    };
    let ids = o.ids();
    for l in ids.owned() {
        let av = o.a(l);
        let delegated = p > 1 && cfg.delegate_threshold.is_some_and(|t| av.len() as u64 > t);
        if delegated {
            // broadcast to D delegates; this PE generates stride 0 of D+1
            let d_count = (((p as f64).sqrt().ceil() as usize).max(1)).min(p - 1);
            let nstrides = (d_count + 1) as u64;
            let mut payload = Vec::with_capacity(3 + 2 * av.len());
            for d in 1..=d_count {
                payload.clear();
                payload.push(TAG_DELEGATE);
                payload.push(d as u64); // stride
                payload.push(nstrides);
                for &x in av {
                    let (deg, id) = keyed(&lg, ids.global_of(x));
                    payload.push(deg);
                    payload.push(id);
                }
                q.post(ctx, (me + d) % p, &payload);
            }
            let keys: Vec<(u64, u64)> = av.iter().map(|&x| keyed(&lg, ids.global_of(x))).collect();
            for i in 0..keys.len() {
                for j in (i + 1)..keys.len() {
                    if (i + j) as u64 % nstrides == 0 {
                        emit(&o, &mut q, ctx, keys[i], keys[j], &mut count);
                    }
                }
            }
        } else {
            let keys: Vec<(u64, u64)> = av.iter().map(|&x| keyed(&lg, ids.global_of(x))).collect();
            for i in 0..keys.len() {
                for j in (i + 1)..keys.len() {
                    emit(&o, &mut q, ctx, keys[i], keys[j], &mut count);
                }
            }
        }
        while q.poll(ctx, &mut |ctx, env| {
            handler_r1(&o, ctx, env, &mut count, &mut tasks)
        }) {}
    }
    ctx.end_phase(phases::LOCAL);
    q.finish(ctx, &mut |ctx, env| {
        handler_r1(&o, ctx, env, &mut count, &mut tasks)
    });

    // round 2: delegates generate their strides of the hub wedges
    let handler_r2 = |o: &tricount_graph::dist::OrientedLocalGraph,
                      ctx: &mut Ctx,
                      env: Envelope<'_>,
                      acc: &mut u64| {
        debug_assert_eq!(env.payload[0], TAG_CHECK);
        check(o, ctx, env.payload[1], env.payload[2], acc);
    };
    for task in &tasks {
        let ks = &task.neighbors;
        for i in 0..ks.len() {
            for j in (i + 1)..ks.len() {
                if (i + j) as u64 % task.nstrides == task.stride {
                    emit(&o, &mut q, ctx, ks[i], ks[j], &mut count);
                }
            }
        }
        while q.poll(ctx, &mut |ctx, env| handler_r2(&o, ctx, env, &mut count)) {}
    }
    q.finish(ctx, &mut |ctx, env| handler_r2(&o, ctx, env, &mut count));

    let total = ctx.allreduce_sum(&[count])[0];
    ctx.end_phase(phases::GLOBAL);
    total
}

//! The distributed edge-update protocol: incremental triangle maintenance
//! over the resident per-rank state.
//!
//! An update run applies one canonicalised batch (see
//! `tricount_delta::batch`) to every rank's adjacency overlay and returns
//! the exact global triangle delta, in three registered phases:
//!
//! 1. **`update_route`** — the ingress rank (rank 0) holds the batch and
//!    routes each edge `{u, v}` to the owner of `u` *and* the owner of `v`
//!    via one `alltoallv`. Each owner then filters no-ops against its
//!    current (base ⊕ overlay) adjacency: an insert of a present edge or a
//!    delete of an absent one is discarded. Both owners reach the same
//!    verdict independently — undirected adjacency is symmetric — so no
//!    agreement round is needed.
//! 2. **`update_count`** — the triangle delta. With `D` the effective
//!    deletions and `I` the effective insertions, the post-state is
//!    `G' = (G − D) + I` and
//!    `Δ = |{triangles of G' with an I-edge}| − |{triangles of G with a
//!    D-edge}|`: deleting `D` from `G` destroys exactly the triangles of
//!    `G` using a `D`-edge, and adding `I` to `G − D` creates exactly the
//!    triangles of `G'` using an `I`-edge. Each pass counts per batch edge
//!    `(u, v)` (initiated by the owner of the canonical tail `u`, answered
//!    locally or shipped to the owner of `v` through the §IV-A buffered
//!    queue) the distributed intersection `|N(u) ∩ N(v)|` — against the
//!    pre-state for deletions, the post-state for insertions — with the
//!    **min-edge correction** for same-batch edge pairs: a triangle whose
//!    batch edges are `S` is counted only by the lexicographically smallest
//!    edge of `S`, so triangles closed by two or three batch edges are
//!    neither double-counted nor missed. The correction is decidable at the
//!    counting rank: of the triangle's other two edges, one is incident to
//!    `u` (checked against the shipped batch-neighbor list of `u`) and one
//!    to `v` (checked against the local batch-neighbor list of `v`).
//!    Between the passes the batch is applied to the overlay, and the
//!    partial deltas are combined by one `allreduce`.
//! 3. **`update_ghost_refresh`** — every rank broadcasts `(v, degree)` for
//!    its *touched* owned vertices (endpoints of effective edges); ranks
//!    ghosting a touched vertex — or gaining it as a new ghost through an
//!    inserted cut edge — record the override in their overlay. This keeps
//!    ghost degrees current for exactly the vertices whose degrees
//!    changed, so a later compaction re-orients by degree with **no**
//!    communication.
//!
//! [`compact_rank`] is that compaction: merge the overlay into a fresh
//! base, re-orient, re-contract — the `compaction` phase, communication
//! free.

use std::collections::BTreeMap;
use std::sync::Mutex;

use tricount_comm::{
    run_sim, Ctx, Envelope, MessageQueue, QueueConfig, RunStats, SimOptions, Trace,
};
use tricount_delta::{CanonicalBatch, CanonicalOp, Overlay};
use tricount_graph::dist::LocalGraph;
use tricount_graph::kernels::{Dispatcher, KernelCounters};
use tricount_graph::VertexId;

use crate::config::DistConfig;
use crate::dist::phases;
use crate::dist::residency::PreparedRank;

/// One rank's result of an update run. The `inserted` / `deleted` /
/// `noops` / `triangles_*` fields are global (identical on every rank,
/// combined by the final allreduce); the rest are rank-local.
#[derive(Debug, Clone, Default)]
pub struct DeltaOutcome {
    /// Effective insertions applied, globally.
    pub inserted: u64,
    /// Effective deletions applied, globally.
    pub deleted: u64,
    /// Canonical operations filtered as no-ops, globally.
    pub noops: u64,
    /// Triangles gained by the insertions, globally.
    pub triangles_added: u64,
    /// Triangles lost to the deletions, globally.
    pub triangles_removed: u64,
    /// The effective edges whose canonical tail this rank owns
    /// (`(is_insert, u, v)`, `u < v`) — each effective edge appears in
    /// exactly one rank's list, so consumers can fold degree changes
    /// without double counting.
    pub tail_effective: Vec<(bool, VertexId, VertexId)>,
    /// Kernel-dispatch tallies of this rank's counting passes (deletions +
    /// insertions), rank-local.
    pub kernels: KernelCounters,
}

/// Applies one canonical batch on this rank: routes, filters, counts the
/// triangle delta, mutates the overlay, refreshes touched ghost degrees.
/// Collective — every rank must call it with the same `batch` and `cfg`.
pub fn apply_batch_rank(
    ctx: &mut Ctx,
    lg: &LocalGraph,
    ov: &mut Overlay,
    batch: &CanonicalBatch,
    cfg: &DistConfig,
) -> DeltaOutcome {
    let p = ctx.num_ranks();
    let part = lg.partition().clone();

    // Phase 1: route each edge to the owner(s) of its endpoints. Only the
    // ingress rank holds the batch.
    let mut outgoing: Vec<Vec<u64>> = vec![Vec::new(); p];
    if ctx.rank() == 0 {
        for op in &batch.ops {
            let ru = part.rank_of(op.u);
            let rv = part.rank_of(op.v);
            let msg = [u64::from(op.insert), op.u, op.v];
            outgoing[ru].extend_from_slice(&msg);
            if rv != ru {
                outgoing[rv].extend_from_slice(&msg);
            }
        }
    }
    let incoming = ctx.alltoallv(outgoing);
    let mut my_ops: Vec<CanonicalOp> = Vec::new();
    for msg in incoming {
        for c in msg.chunks_exact(3) {
            my_ops.push(CanonicalOp {
                insert: c[0] == 1,
                u: c[1],
                v: c[2],
            });
        }
    }

    // Effectiveness filter + per-owned-vertex batch-neighbor lists (both
    // directions — the min-edge correction needs every effective batch
    // edge incident to a vertex, not just the ones it is the tail of).
    let mut ins_nbrs: BTreeMap<VertexId, Vec<VertexId>> = BTreeMap::new();
    let mut del_nbrs: BTreeMap<VertexId, Vec<VertexId>> = BTreeMap::new();
    let mut effective: Vec<CanonicalOp> = Vec::new();
    let mut tail_effective: Vec<(bool, VertexId, VertexId)> = Vec::new();
    let (mut ins_tail, mut del_tail, mut noop_tail) = (0u64, 0u64, 0u64);
    for op in &my_ops {
        let (owned_end, other) = if lg.is_owned(op.u) {
            (op.u, op.v)
        } else {
            (op.v, op.u)
        };
        let present = ov.has_edge(lg, owned_end, other);
        let am_tail = lg.is_owned(op.u);
        if op.insert == present {
            // insert of a present edge / delete of an absent one: no-op
            if am_tail {
                noop_tail += 1;
            }
            continue;
        }
        effective.push(*op);
        if am_tail {
            if op.insert {
                ins_tail += 1;
            } else {
                del_tail += 1;
            }
            tail_effective.push((op.insert, op.u, op.v));
        }
        let nbrs = if op.insert {
            &mut ins_nbrs
        } else {
            &mut del_nbrs
        };
        if lg.is_owned(op.u) {
            nbrs.entry(op.u).or_default().push(op.v);
        }
        if lg.is_owned(op.v) {
            nbrs.entry(op.v).or_default().push(op.u);
        }
    }
    for l in ins_nbrs.values_mut() {
        l.sort_unstable();
    }
    for l in del_nbrs.values_mut() {
        l.sort_unstable();
    }
    ctx.add_work(my_ops.len() as u64 + 1);

    ctx.end_phase(phases::UPDATE_ROUTE);

    // Phase 2: count the triangle delta. Deletions intersect the
    // pre-state; then the batch lands in the overlay; insertions intersect
    // the post-state.
    let queue_cfg = QueueConfig {
        delta: cfg.resolve_delta(lg.num_local_entries().max(64)),
        routing: cfg.routing,
    };
    let del_edges: Vec<(VertexId, VertexId)> = tail_effective
        .iter()
        .filter(|(ins, _, _)| !ins)
        .map(|&(_, u, v)| (u, v))
        .collect();
    let ins_edges: Vec<(VertexId, VertexId)> = tail_effective
        .iter()
        .filter(|(ins, _, _)| *ins)
        .map(|&(_, u, v)| (u, v))
        .collect();

    let mut disp = Dispatcher::default();
    let removed_partial = ctx.with_span("count_deletions", |ctx| {
        count_pass(ctx, lg, ov, &del_edges, &del_nbrs, queue_cfg, &mut disp)
    });
    ctx.with_span("apply_overlay", |ctx| {
        let mut applied = 0u64;
        for op in &effective {
            for (a, b) in [(op.u, op.v), (op.v, op.u)] {
                if lg.is_owned(a) {
                    if op.insert {
                        ov.insert(lg, a, b);
                    } else {
                        ov.delete(lg, a, b);
                    }
                    applied += 1;
                }
            }
        }
        ctx.add_work(applied + 1);
    });
    let added_partial = ctx.with_span("count_insertions", |ctx| {
        count_pass(ctx, lg, ov, &ins_edges, &ins_nbrs, queue_cfg, &mut disp)
    });
    let global = ctx.allreduce_sum(&[
        removed_partial,
        added_partial,
        del_tail,
        ins_tail,
        noop_tail,
    ]);
    ctx.end_phase(phases::UPDATE_COUNT);

    // Phase 3: targeted ghost-degree refresh. Owners broadcast the new
    // degrees of their touched vertices; ghosting ranks record overrides.
    let touched: std::collections::BTreeSet<VertexId> =
        ins_nbrs.keys().chain(del_nbrs.keys()).copied().collect();
    let mut announce: Vec<u64> = Vec::with_capacity(touched.len() * 2);
    for &v in &touched {
        announce.push(v);
        announce.push(ov.degree_after(lg, v));
    }
    let gathered = ctx.allgatherv(announce);
    for (r, pairs) in gathered.iter().enumerate() {
        if r == ctx.rank() {
            continue;
        }
        for pair in pairs.chunks_exact(2) {
            if ov.tracks_remote(lg, pair[0]) {
                ov.set_ghost_degree(pair[0], pair[1]);
            }
        }
    }
    ctx.end_phase(phases::UPDATE_GHOST_REFRESH);

    DeltaOutcome {
        triangles_removed: global[0],
        triangles_added: global[1],
        deleted: global[2],
        inserted: global[3],
        noops: global[4],
        tail_effective,
        kernels: disp.counters(),
    }
}

/// One counting pass (deletion or insertion): for every batch edge
/// `(u, v)` whose tail this rank owns, the distributed intersection of the
/// *current* merged neighborhoods, with the min-edge same-batch
/// correction. Returns this rank's partial triangle count.
///
/// Every intersection is one [`Dispatcher::collect`] on two slices: a
/// clean side is its base CSR slice, a dirty side's merged view is copied
/// once into a reused buffer. The clean/dirty verdict is overlay state —
/// deterministic, schedule-independent.
fn count_pass(
    ctx: &mut Ctx,
    lg: &LocalGraph,
    ov: &Overlay,
    tail_edges: &[(VertexId, VertexId)],
    batch_nbrs: &BTreeMap<VertexId, Vec<VertexId>>,
    queue_cfg: QueueConfig,
    disp: &mut Dispatcher,
) -> u64 {
    let part = lg.partition().clone();
    let mut count = 0u64;
    let mut q = MessageQueue::new(ctx, queue_cfg);
    let empty: &[VertexId] = &[];
    let batch_of = |v: VertexId| batch_nbrs.get(&v).map_or(empty, |l| l.as_slice());
    let mut bufs = Buffers::default();

    // Remote request `[u, v, |B(u)|, B(u)…, N(u)…]` — answered against the
    // receiver's merged N(v) and local B(v).
    let handler = |ctx: &mut Ctx,
                   env: Envelope<'_>,
                   acc: &mut u64,
                   d: &mut Dispatcher,
                   bufs: &mut Buffers| {
        let u = env.payload[0];
        let v = env.payload[1];
        let blen = env.payload[2] as usize;
        let (bu, nu) = (&env.payload[3..3 + blen], &env.payload[3 + blen..]);
        bufs.common.clear();
        let nv = neighbors_now(lg, ov, v, &mut bufs.v);
        let ops = d.collect(nu, nv, &mut bufs.common);
        let (delta, checks) = min_edge_filter(u, v, &bufs.common, bu, batch_of(v));
        ctx.add_work(ops + checks + 1);
        *acc += delta;
    };

    let mut scratch: Vec<u64> = Vec::new();
    for &(u, v) in tail_edges {
        let bu = batch_nbrs
            .get(&u)
            .map(|l| l.as_slice())
            .expect("tail of an effective edge has a batch-neighbor list");
        if lg.is_owned(v) {
            bufs.common.clear();
            let nu = neighbors_now(lg, ov, u, &mut bufs.u);
            let nv = neighbors_now(lg, ov, v, &mut bufs.v);
            let ops = disp.collect(nu, nv, &mut bufs.common);
            let (d, checks) = min_edge_filter(u, v, &bufs.common, bu, batch_of(v));
            ctx.add_work(ops + checks + 1);
            count += d;
        } else {
            let j = part.rank_of(v);
            scratch.clear();
            scratch.push(u);
            scratch.push(v);
            scratch.push(bu.len() as u64);
            scratch.extend_from_slice(bu);
            scratch.extend_from_slice(neighbors_now(lg, ov, u, &mut bufs.u));
            q.post(ctx, j, &scratch);
            while q.poll(ctx, &mut |ctx, env| {
                handler(ctx, env, &mut count, disp, &mut bufs)
            }) {}
        }
    }
    q.finish(ctx, &mut |ctx, env| {
        handler(ctx, env, &mut count, disp, &mut bufs)
    });
    count
}

/// The reused buffers of one counting pass: the merged views of a dirty
/// `u` and `v`, and the common neighbors of the current intersection.
#[derive(Default)]
struct Buffers {
    u: Vec<VertexId>,
    v: Vec<VertexId>,
    common: Vec<VertexId>,
}

/// `N(v)` of owned vertex `v` in the current (base ⊕ overlay) graph as a
/// slice: the base CSR slice where `v` is clean, else its merged view
/// copied into `buf`.
fn neighbors_now<'a>(
    lg: &'a LocalGraph,
    ov: &Overlay,
    v: VertexId,
    buf: &'a mut Vec<VertexId>,
) -> &'a [VertexId] {
    if ov.is_clean_at(v) {
        lg.neighbors(v)
    } else {
        ov.merge_into(lg, v, buf);
        buf
    }
}

/// The same-batch correction: of the triangle `(u, v, w)` discovered via
/// batch edge `e = (u, v)`, count it iff `e` is the lexicographically
/// smallest batch edge of the triangle. `bu` / `bv` are the sorted
/// effective batch neighbors of `u` / `v` (for the pass's kind), which is
/// exactly the membership oracle for the triangle's other two edges
/// `{u, w}` and `{v, w}`. Returns `(count, comparisons)`.
fn min_edge_filter(
    u: VertexId,
    v: VertexId,
    common: &[VertexId],
    bu: &[VertexId],
    bv: &[VertexId],
) -> (u64, u64) {
    let e = (u, v);
    let mut count = 0u64;
    let mut checks = 0u64;
    for &w in common {
        checks += 2;
        let uw_in_batch = bu.binary_search(&w).is_ok();
        let vw_in_batch = bv.binary_search(&w).is_ok();
        let smaller_batch_edge =
            (uw_in_batch && (u.min(w), u.max(w)) < e) || (vw_in_batch && (v.min(w), v.max(w)) < e);
        if !smaller_batch_edge {
            count += 1;
        }
    }
    (count, checks)
}

/// Compacts this rank's overlay into fresh prepared state: merge the delta
/// lists into a new base local graph (ghost degrees installed from the
/// base exchange plus the refresh overrides — no communication), then
/// re-orient and re-contract. Resets the overlay. Collective only in the
/// phase-accounting sense: every rank must call it, but no messages flow.
pub fn compact_rank(
    ctx: &mut Ctx,
    prep: &PreparedRank,
    ov: &mut Overlay,
    cfg: &DistConfig,
) -> PreparedRank {
    let merged = ctx.with_span("merge_overlay", |ctx| {
        ctx.add_work(prep.local.num_local_entries() + ov.entries() + 1);
        ov.merged_local_graph(&prep.local)
    });
    let oriented = ctx.with_span("orient_expand", |_| merged.orient(cfg.ordering, true));
    let contracted = ctx.with_span("contract_cut_graph", |_| oriented.contracted());
    ov.reset();
    ctx.end_phase(phases::COMPACTION);
    PreparedRank {
        local: merged,
        oriented,
        contracted,
    }
}

/// Test/driver convenience: runs [`apply_batch_rank`] on every rank of a
/// prepared residency under the simulated machine, with overlays passed in
/// shared cells. Returns per-rank outcomes, the run's metered statistics
/// and (when `opts.record_trace`) the message trace.
pub fn apply_batch_sim(
    ranks: &[PreparedRank],
    overlays: &[Mutex<Overlay>],
    batch: &CanonicalBatch,
    cfg: &DistConfig,
    opts: &SimOptions,
) -> (Vec<DeltaOutcome>, RunStats, Option<Trace>) {
    assert_eq!(ranks.len(), overlays.len());
    let sim = run_sim(ranks.len(), opts, |ctx: &mut Ctx| {
        let mut ov = overlays[ctx.rank()].lock().unwrap();
        apply_batch_rank(ctx, &ranks[ctx.rank()].local, &mut ov, batch, cfg)
    });
    (sim.output.results, sim.output.stats, sim.trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::cetric;
    use crate::dist::residency::build_residency;
    use crate::seq;
    use tricount_delta::{apply_to_csr, random_batch};
    use tricount_graph::dist::DistGraph;
    use tricount_graph::Csr;

    fn residency_of(g: &Csr, p: usize, cfg: &DistConfig) -> Vec<PreparedRank> {
        let dg = DistGraph::new(g, p);
        build_residency(dg, cfg, &SimOptions::default()).0
    }

    fn count_ranks(ranks: &[PreparedRank], cfg: &DistConfig) -> u64 {
        let sim = run_sim(ranks.len(), &SimOptions::default(), |ctx: &mut Ctx| {
            cetric::count_prepared(ctx, &ranks[ctx.rank()], cfg).0
        });
        sim.output.results[0]
    }

    #[test]
    fn incremental_delta_matches_rebuild_across_pe_counts() {
        let cfg = DistConfig::default();
        let g0 = tricount_gen::rgg2d_default(300, 17);
        let before = seq::compact_forward(&g0).triangles;
        for p in [1usize, 2, 3, 4] {
            let ranks = residency_of(&g0, p, &cfg);
            let overlays: Vec<Mutex<Overlay>> = ranks
                .iter()
                .map(|r| Mutex::new(Overlay::for_local(&r.local)))
                .collect();
            let mut cur = g0.clone();
            let mut resident = before;
            for round in 0..3u64 {
                let batch = random_batch(&cur, 25, 1000 * round + p as u64).canonicalize();
                let (outs, _, _) =
                    apply_batch_sim(&ranks, &overlays, &batch, &cfg, &SimOptions::default());
                let next = apply_to_csr(&cur, &batch);
                let expect = seq::compact_forward(&next).triangles;
                for o in &outs {
                    assert_eq!(o.triangles_added, outs[0].triangles_added);
                    assert_eq!(o.triangles_removed, outs[0].triangles_removed);
                }
                resident = resident + outs[0].triangles_added - outs[0].triangles_removed;
                assert_eq!(
                    resident, expect,
                    "p={p} round={round}: incremental count diverged from rebuild"
                );
                cur = next;
            }
        }
    }

    #[test]
    fn same_batch_corrections_are_exact() {
        // A hand-built case where intra-batch pairs would double-count
        // without the min-edge rule: insert all three edges of a fresh
        // triangle in one batch, plus a second triangle sharing an edge.
        let lists: Vec<Vec<u64>> = vec![vec![], vec![], vec![], vec![], vec![4], vec![3]];
        let g = Csr::from_neighbor_lists(lists);
        assert_eq!(seq::compact_forward(&g).triangles, 0);
        let cfg = DistConfig::default();
        let mut batch = tricount_delta::UpdateBatch::new();
        // triangle {0,1,2} entirely new; triangle {0,1,3} reusing edge (0,1)
        for (a, b) in [(0, 1), (1, 2), (0, 2), (1, 3), (0, 3)] {
            batch.insert(a, b);
        }
        let batch = batch.canonicalize();
        for p in [1usize, 2, 3] {
            let ranks = residency_of(&g, p, &cfg);
            let overlays: Vec<Mutex<Overlay>> = ranks
                .iter()
                .map(|r| Mutex::new(Overlay::for_local(&r.local)))
                .collect();
            let (outs, _, _) =
                apply_batch_sim(&ranks, &overlays, &batch, &cfg, &SimOptions::default());
            assert_eq!(outs[0].triangles_added, 2, "p={p}");
            assert_eq!(outs[0].triangles_removed, 0, "p={p}");
            assert_eq!(outs[0].inserted, 5, "p={p}");

            // now delete the shared edge: both triangles die, counted once
            let mut del = tricount_delta::UpdateBatch::new();
            del.delete(0, 1);
            let del = del.canonicalize();
            let (outs, _, _) =
                apply_batch_sim(&ranks, &overlays, &del, &cfg, &SimOptions::default());
            assert_eq!(outs[0].triangles_removed, 2, "p={p}");
            assert_eq!(outs[0].triangles_added, 0, "p={p}");
        }
    }

    #[test]
    fn compaction_preserves_count_and_sends_nothing() {
        let cfg = DistConfig::default();
        let g0 = tricount_gen::rgg2d_default(240, 23);
        let p = 4;
        let ranks = residency_of(&g0, p, &cfg);
        let overlays: Vec<Mutex<Overlay>> = ranks
            .iter()
            .map(|r| Mutex::new(Overlay::for_local(&r.local)))
            .collect();
        let batch = random_batch(&g0, 40, 99).canonicalize();
        let (_, _, _) = apply_batch_sim(&ranks, &overlays, &batch, &cfg, &SimOptions::default());
        let expect = seq::compact_forward(&apply_to_csr(&g0, &batch)).triangles;

        let prepared: Vec<Mutex<Option<PreparedRank>>> =
            ranks.iter().map(|r| Mutex::new(Some(r.clone()))).collect();
        let sim = run_sim(p, &SimOptions::default(), |ctx: &mut Ctx| {
            let prep = prepared[ctx.rank()].lock().unwrap().take().unwrap();
            let mut ov = overlays[ctx.rank()].lock().unwrap();
            compact_rank(ctx, &prep, &mut ov, &cfg)
        });
        let compacted = sim.output.results;
        let t = sim.output.stats.totals();
        assert_eq!(t.sent_messages, 0, "compaction must not send messages");
        assert_eq!(t.sent_words, 0);
        assert_eq!(t.coll_word_units, 0, "compaction must not use collectives");
        for ov in &overlays {
            assert!(ov.lock().unwrap().is_clean());
        }
        assert_eq!(count_ranks(&compacted, &cfg), expect);
    }
}

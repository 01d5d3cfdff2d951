//! Distributed per-vertex triangle counts and local clustering coefficients
//! (the extension of paper §IV-E).
//!
//! The CETRIC pipeline finds each triangle exactly once; whenever one is
//! found, all three corners' `Δ`-counters are incremented. Counters of ghost
//! vertices accumulate locally and are aggregated to their owners in a
//! postprocessing all-to-all "analogous to the initial degree exchange".
//!
//! Like the plain count, the pipeline is split into the shared setup
//! ([`crate::dist::residency::prepare_rank`]) and the counting part
//! ([`lcc_prepared`]), so the resident query engine can serve LCC queries
//! from state prepared once.
//!
//! Intersections go through the adaptive kernel dispatcher; the local phase
//! optionally runs degree-aware chunked on the `par` pool, each chunk
//! accumulating its own `Δ` vectors which are summed element-wise in
//! canonical chunk order (u64 addition — bit-identical to sequential).

use tricount_comm::{run_sim, Ctx, Envelope, MessageQueue, QueueConfig, SimOptions};
use tricount_graph::dist::{DistGraph, LocalGraph, OrientedLocalGraph};
use tricount_graph::kernels::{balanced_chunks, Dispatcher, KernelCounters};
use tricount_graph::VertexId;
use tricount_par::Pool;

use crate::config::DistConfig;
use crate::dist::dispatch::DispatchReport;
use crate::dist::into_cells;
use crate::dist::phases;
use crate::dist::residency::{prepare_rank, PreparedRank};
use crate::result::LccResult;

/// Per-rank Δ accumulator over owned and ghost vertices.
struct DeltaAcc {
    start: VertexId,
    owned: Vec<u64>,
    ghost_ids: Vec<VertexId>,
    ghosts: Vec<u64>,
}

impl DeltaAcc {
    fn for_oriented(o: &OrientedLocalGraph) -> Self {
        let owned_range = o.owned_range();
        DeltaAcc {
            start: owned_range.start,
            owned: vec![0u64; (owned_range.end - owned_range.start) as usize],
            ghost_ids: o.ghost_ids().to_vec(),
            ghosts: vec![0u64; o.ghost_ids().len()],
        }
    }

    fn bump(&mut self, v: VertexId) {
        if v >= self.start && ((v - self.start) as usize) < self.owned.len() {
            self.owned[(v - self.start) as usize] += 1;
        } else {
            let gi = self
                .ghost_ids
                .binary_search(&v)
                .expect("triangle corner is neither owned nor ghost");
            self.ghosts[gi] += 1;
        }
    }

    /// Element-wise sum of another accumulator over the same vertex sets.
    fn absorb(&mut self, other: &DeltaAcc) {
        for (a, b) in self.owned.iter_mut().zip(&other.owned) {
            *a += b;
        }
        for (a, b) in self.ghosts.iter_mut().zip(&other.ghosts) {
            *a += b;
        }
    }
}

/// Runs the CETRIC-based per-vertex count on this rank. Returns this PE's
/// owned `Δ` values.
fn run_rank(ctx: &mut Ctx, lg: LocalGraph, cfg: &DistConfig) -> Vec<u64> {
    let prep = prepare_rank(ctx, lg, cfg);
    lcc_prepared(ctx, &prep, cfg)
}

/// One local-phase item: enumerate the triangles closing each directed edge
/// out of `v` and bump all three corners. Returns the metered work. Shared
/// by the sequential and chunked drivers.
#[inline]
fn lcc_local_item(
    o: &OrientedLocalGraph,
    v: VertexId,
    av: &[VertexId],
    acc: &mut DeltaAcc,
    commons: &mut Vec<VertexId>,
    d: &mut Dispatcher<'_>,
) -> u64 {
    let mut work = 0u64;
    for &u in av {
        let au = o.a_of(u).expect("head must be owned or ghost");
        commons.clear();
        let ops = d.collect(av, Some(v), au, Some(u), commons);
        work += ops + 1;
        for &w in commons.iter() {
            acc.bump(v);
            acc.bump(u);
            acc.bump(w);
        }
    }
    work
}

/// The per-vertex counting phases on already prepared per-rank state:
/// local and global triangle enumeration bumping all three corners, then
/// the ghost-Δ aggregation postprocessing. Returns this PE's owned `Δ`
/// values; no setup communication happens here.
pub fn lcc_prepared(ctx: &mut Ctx, prep: &PreparedRank, cfg: &DistConfig) -> Vec<u64> {
    lcc_prepared_stats(ctx, prep, cfg).0
}

/// [`lcc_prepared`] plus this rank's per-phase kernel-dispatch tallies.
pub fn lcc_prepared_stats(
    ctx: &mut Ctx,
    prep: &PreparedRank,
    cfg: &DistConfig,
) -> (Vec<u64>, DispatchReport) {
    let o = &prep.oriented;
    let owned_range = o.owned_range();
    let mut acc = DeltaAcc::for_oriented(o);

    // Local phase: enumerate type-1/2 triangles, bump all three corners.
    // Work list in canonical order: owned vertices, then ghosts.
    let mut local_pairs: Vec<(VertexId, &[VertexId])> = Vec::new();
    for v in owned_range.clone() {
        local_pairs.push((v, o.a_owned(v)));
    }
    for gi in 0..o.ghost_ids().len() {
        local_pairs.push((o.ghost_ids()[gi], o.a_ghost(gi)));
    }
    let policy = cfg.kernels;
    let local_dispatch = if policy.chunking && policy.pool_workers > 1 && !local_pairs.is_empty() {
        let weights: Vec<u64> = local_pairs.iter().map(|(_, av)| av.len() as u64).collect();
        let ranges = balanced_chunks(&weights, policy.pool_workers.saturating_mul(4));
        let pool = Pool::new(policy.pool_workers);
        let results = pool.run_tasks(ranges, |_, (s, e)| {
            let mut d = Dispatcher::with_hubs(policy, &prep.hubs_oriented);
            let mut chunk_acc = DeltaAcc::for_oriented(o);
            let mut commons: Vec<VertexId> = Vec::new();
            let mut work = 0u64;
            for &(v, av) in &local_pairs[s..e] {
                work += lcc_local_item(o, v, av, &mut chunk_acc, &mut commons, &mut d);
            }
            (chunk_acc, work, d.counters())
        });
        // Canonical chunk-order reduction: element-wise u64 sums of the
        // per-chunk Δ vectors are bit-identical to the sequential bumps.
        let mut work = 0u64;
        let mut counters = KernelCounters::default();
        for r in results {
            acc.absorb(&r.result.0);
            work += r.result.1;
            counters.absorb(&r.result.2);
        }
        ctx.add_work(work);
        counters
    } else {
        let mut d = Dispatcher::with_hubs(policy, &prep.hubs_oriented);
        let mut commons: Vec<VertexId> = Vec::new();
        for &(v, av) in &local_pairs {
            let work = lcc_local_item(o, v, av, &mut acc, &mut commons, &mut d);
            ctx.add_work(work);
        }
        d.counters()
    };
    drop(local_pairs);
    let contracted = &prep.contracted;
    ctx.end_phase(phases::LOCAL);

    // Global phase: type-3 triangles, again bumping all three corners
    // (v and w are ghosts of the receiving PE).
    let delta = cfg.resolve_delta(prep.local.num_local_entries());
    let mut q = MessageQueue::new(
        ctx,
        QueueConfig {
            delta,
            routing: cfg.routing,
        },
    );
    let part = o.partition().clone();
    let mut gd = Dispatcher::with_hubs(policy, &prep.hubs_contracted);
    // Same wire format as CETRIC's global phase ([`crate::dist::cetric`]):
    // `[v, A(v)...]`.
    fn handler(
        acc: &mut DeltaAcc,
        contracted: &tricount_graph::dist::ContractedGraph,
        owned: &std::ops::Range<u64>,
        ctx: &mut Ctx,
        env: Envelope<'_>,
        commons: &mut Vec<VertexId>,
        d: &mut Dispatcher<'_>,
    ) {
        let v = env.payload[0];
        let a = &env.payload[1..];
        for &u in a {
            if owned.contains(&u) {
                commons.clear();
                let ops = d.collect(a, None, contracted.a_of(u), Some(u), commons);
                ctx.add_work(ops + 1);
                for &w in commons.iter() {
                    acc.bump(v);
                    acc.bump(u);
                    acc.bump(w);
                }
            }
        }
    }
    let mut scratch: Vec<u64> = Vec::new();
    let mut commons2: Vec<VertexId> = Vec::new();
    for (v, a) in contracted.nonempty() {
        let mut last_rank: Option<usize> = None;
        for &u in a {
            let j = part.rank_of(u);
            if last_rank == Some(j) {
                continue;
            }
            last_rank = Some(j);
            scratch.clear();
            scratch.push(v);
            scratch.extend_from_slice(a);
            q.post(ctx, j, &scratch);
            while q.poll(ctx, &mut |ctx, env| {
                handler(
                    &mut acc,
                    contracted,
                    &owned_range,
                    ctx,
                    env,
                    &mut commons2,
                    &mut gd,
                )
            }) {}
        }
    }
    q.finish(ctx, &mut |ctx, env| {
        handler(
            &mut acc,
            contracted,
            &owned_range,
            ctx,
            env,
            &mut commons2,
            &mut gd,
        )
    });
    ctx.end_phase(phases::GLOBAL);

    // Postprocessing: ship ghost Δ contributions to their owners
    // ([id, delta] pairs), analogous to the degree exchange.
    let p = ctx.num_ranks();
    let mut outgoing: Vec<Vec<u64>> = vec![Vec::new(); p];
    for (gi, &g) in acc.ghost_ids.iter().enumerate() {
        if acc.ghosts[gi] > 0 {
            let r = part.rank_of(g);
            outgoing[r].push(g);
            outgoing[r].push(acc.ghosts[gi]);
        }
    }
    let incoming = ctx.alltoallv(outgoing);
    for part_in in incoming {
        for pair in part_in.chunks_exact(2) {
            let (v, d) = (pair[0], pair[1]);
            acc.owned[(v - acc.start) as usize] += d;
        }
    }
    ctx.end_phase(phases::POSTPROCESS);

    let mut report = DispatchReport::of(phases::LOCAL, local_dispatch);
    report.add(phases::GLOBAL, gd.counters());
    (acc.owned, report)
}

/// Normalises per-vertex `Δ` counts into clustering coefficients
/// `LCC(v) = Δ(v) / (d_v (d_v − 1) / 2)` under the global degree vector —
/// the exact expression the sequential reference uses, so distributed and
/// sequential answers bit-match.
pub fn normalize_lcc(per_vertex: &[u64], degrees: &[u64]) -> Vec<f64> {
    per_vertex
        .iter()
        .zip(degrees)
        .map(|(&d3, &deg)| {
            if deg < 2 {
                0.0
            } else {
                d3 as f64 / (deg * (deg - 1) / 2) as f64
            }
        })
        .collect()
}

/// Runs the distributed per-vertex count / LCC computation on a partitioned
/// graph. `degrees` must be the global degree vector (used only for the
/// final LCC normalisation).
pub fn lcc_on(dg: DistGraph, cfg: &DistConfig, degrees: &[u64]) -> LccResult {
    let p = dg.num_ranks();
    let cells = into_cells(dg);
    let out = run_sim(p, &SimOptions::on(cfg.transport), |ctx| {
        let lg = cells[ctx.rank()]
            .lock()
            .unwrap()
            .take()
            .expect("local graph already taken");
        run_rank(ctx, lg, cfg)
    });
    let mut per_vertex = Vec::with_capacity(degrees.len());
    for owned in out.output.results {
        per_vertex.extend(owned);
    }
    assert_eq!(per_vertex.len(), degrees.len());
    let triangles = per_vertex.iter().sum::<u64>() / 3;
    let lcc = normalize_lcc(&per_vertex, degrees);
    LccResult {
        triangles,
        per_vertex,
        lcc,
        stats: out.output.stats,
    }
}

/// Convenience driver: partitions `g` over `p` PEs and computes per-vertex
/// counts and LCCs.
pub fn lcc(g: &tricount_graph::Csr, p: usize, cfg: &DistConfig) -> LccResult {
    let degrees = g.degrees();
    lcc_on(DistGraph::new_balanced_vertices(g, p), cfg, &degrees)
}

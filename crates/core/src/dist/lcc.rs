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
//! The listing itself, `list_triangles`, is CETRIC's two phases with
//! collecting intersections — the shared `dist::local_pass` and
//! `dist::global_pass` — and a per-triangle sink; enumeration
//! ([`crate::dist::enumerate`]) runs the same body with a different sink.
//! The local pass is chunked on the `par` pool when
//! `cfg.kernels.pool_workers > 1`, each chunk accumulating its own `Δ`
//! vectors which are summed element-wise in canonical chunk order (u64
//! addition — bit-identical to sequential).

use tricount_comm::{Ctx, SimOptions};
use tricount_graph::dist::{DistGraph, OrientedLocalGraph};
use tricount_graph::{Csr, VertexId};

use crate::config::DistConfig;
use crate::dist::dispatch::DispatchReport;
use crate::dist::phases;
use crate::dist::residency::{prepare_rank, PreparedRank};
use crate::dist::{global_pass, local_pass, run_ranks};
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

/// The triangle-listing phases LCC and enumeration share, on prepared
/// per-rank state: the shared `dist::local_pass` over the expanded graph and
/// the shared `dist::global_pass` over the contracted cut graph, each
/// intersection collecting its common neighbours. Every triangle
/// `(v, u, w)` (edge `(v, u)`, closing corner `w`) is found exactly once and
/// handed to `emit` with the accumulator; `empty` and `absorb` are the
/// local pass's per-chunk accumulator. Ends the local and global phases and
/// returns the accumulator and the per-phase kernel-dispatch tallies.
pub(crate) fn list_triangles<A: Send>(
    ctx: &mut Ctx,
    prep: &PreparedRank,
    cfg: &DistConfig,
    empty: impl Fn() -> A + Sync,
    absorb: impl Fn(&mut A, A),
    emit: impl Fn(&mut A, VertexId, VertexId, VertexId) + Sync,
) -> (A, DispatchReport) {
    let o = &prep.oriented;
    // Local phase: type-1/2 triangles. Each partial carries its own
    // intersection scratch.
    let ((mut acc, mut commons), local_dispatch) = local_pass(
        ctx,
        o,
        cfg.kernels,
        || (empty(), Vec::new()),
        |total, (part, _)| absorb(&mut total.0, part),
        |v, av, (acc, commons), d| {
            let mut work = 0u64;
            for &u in av {
                let au = o.a_of(u).expect("head must be owned or ghost");
                commons.clear();
                work += d.collect(av, au, commons) + 1;
                for &w in commons.iter() {
                    emit(acc, v, u, w);
                }
            }
            work
        },
    );
    ctx.end_phase(phases::LOCAL);

    // Global phase: type-3 triangles (v and w are ghosts of the receiver).
    let c = &prep.contracted;
    let global_dispatch = global_pass(
        ctx,
        cfg,
        &prep.local,
        c.nonempty(),
        |u| c.a_of(u),
        |v, u, av, au, d| {
            commons.clear();
            let ops = d.collect(av, au, &mut commons);
            for &w in &commons {
                emit(&mut acc, v, u, w);
            }
            ops
        },
    );
    ctx.end_phase(phases::GLOBAL);

    let mut report = DispatchReport::of(phases::LOCAL, local_dispatch);
    report.add(phases::GLOBAL, global_dispatch);
    (acc, report)
}

/// The per-vertex counting phases on already prepared per-rank state:
/// `list_triangles` bumping all three corners of every triangle, then the
/// ghost-Δ aggregation postprocessing. Returns this PE's owned `Δ` values
/// and its per-phase kernel-dispatch tallies; no setup communication
/// happens here.
pub fn lcc_prepared(
    ctx: &mut Ctx,
    prep: &PreparedRank,
    cfg: &DistConfig,
) -> (Vec<u64>, DispatchReport) {
    // Element-wise u64 sums of the per-chunk Δ vectors are bit-identical to
    // inline bumps.
    let (mut acc, report) = list_triangles(
        ctx,
        prep,
        cfg,
        || DeltaAcc::for_oriented(&prep.oriented),
        |total, part| total.absorb(&part),
        |acc, v, u, w| {
            acc.bump(v);
            acc.bump(u);
            acc.bump(w);
        },
    );

    // Postprocessing: ship ghost Δ contributions to their owners
    // ([id, delta] pairs), analogous to the degree exchange.
    let part = prep.oriented.partition();
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

/// Partitions `g` over `p` PEs (`DistGraph::new`) and computes per-vertex
/// triangle counts and LCCs.
pub fn lcc(g: &Csr, p: usize, cfg: &DistConfig) -> LccResult {
    let degrees = g.degrees();
    let dg = DistGraph::new(g, p);
    let out = run_ranks(dg, &SimOptions::on(cfg.transport), |ctx, lg| {
        let prep = prepare_rank(ctx, lg, cfg);
        lcc_prepared(ctx, &prep, cfg).0
    });
    let mut per_vertex = Vec::with_capacity(degrees.len());
    for owned in out.output.results {
        per_vertex.extend(owned);
    }
    assert_eq!(per_vertex.len(), degrees.len());
    let triangles = per_vertex.iter().sum::<u64>() / 3;
    let lcc = normalize_lcc(&per_vertex, &degrees);
    LccResult {
        triangles,
        per_vertex,
        lcc,
        stats: out.output.stats,
    }
}

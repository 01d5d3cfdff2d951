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
//! vector; the vectors are summed element-wise in canonical chunk order
//! (u64 addition — bit-identical to sequential). Triangles are listed and
//! counted by dense id ([`tricount_graph::dist::DenseIds`]).

use tricount_comm::{Ctx, SimOptions};
use tricount_graph::dist::{DistGraph, LocalId};
use tricount_graph::kernels::Dense;
use tricount_graph::Csr;

use crate::config::DistConfig;
use crate::dist::dispatch::DispatchReport;
use crate::dist::phases;
use crate::dist::residency::{prepare_rank, PreparedRank};
use crate::dist::{global_pass, local_pass, run_ranks};
use crate::result::LccResult;

/// Per-rank Δ accumulator: one counter per dense id, owned and ghost.
struct DeltaAcc(Vec<u64>);

impl DeltaAcc {
    /// Element-wise sum of another accumulator over the same vertices.
    fn absorb(&mut self, other: &DeltaAcc) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a += b;
        }
    }
}

/// The triangle-listing phases LCC and enumeration share, on prepared
/// per-rank state: the shared `dist::local_pass` over the expanded graph and
/// the shared `dist::global_pass` over the contracted cut graph, each
/// intersection collecting its common neighbours. Every triangle
/// `(v, u, w)` (edge `(v, u)`, closing corner `w`, all three as dense ids
/// of `prep.oriented`) is found exactly once and handed to `emit` with the
/// accumulator; `empty` and `absorb` are the
/// local pass's per-chunk accumulator. Ends the local and global phases and
/// returns the accumulator and the per-phase kernel-dispatch tallies.
pub(crate) fn list_triangles<A: Send>(
    ctx: &mut Ctx,
    prep: &PreparedRank,
    cfg: &DistConfig,
    empty: impl Fn() -> A + Sync,
    absorb: impl Fn(&mut A, A),
    emit: impl Fn(&mut A, LocalId, LocalId, LocalId) + Sync,
) -> (A, DispatchReport) {
    let o = &prep.oriented;
    let ids = o.ids();
    // Local phase: type-1/2 triangles. Each partial carries its own
    // intersection scratch.
    let ((mut acc, mut commons), local_dispatch) = local_pass(
        ctx,
        o,
        cfg.kernels,
        || (empty(), Vec::new()),
        |total, (part, _)| absorb(&mut total.0, part),
        |v, av, (acc, commons), m| {
            let mut src = m.source(Dense, av);
            let mut work = 0u64;
            for &u in av {
                commons.clear();
                work += src.collect(o.a(u), commons) + 1;
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
        ids,
        c.nonempty(),
        |u| c.a(u),
        |v, u, src, au| {
            commons.clear();
            let ops = src.collect(au, &mut commons);
            if !commons.is_empty() {
                // v has the neighbour u here: it is a ghost of this PE
                let v = ids.local_of(v).expect("a record's source is visible");
                for &w in &commons {
                    emit(&mut acc, v, u, w);
                }
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
    let ids = prep.oriented.ids();
    let (DeltaAcc(mut delta), report) = list_triangles(
        ctx,
        prep,
        cfg,
        || DeltaAcc(vec![0u64; ids.len()]),
        |total, part| total.absorb(&part),
        |acc, v, u, w| {
            acc.0[v as usize] += 1;
            acc.0[u as usize] += 1;
            acc.0[w as usize] += 1;
        },
    );

    // Postprocessing: ship ghost Δ contributions — the counters outside
    // the owned dense ids — to their owners ([id, delta] pairs), analogous
    // to the degree exchange.
    let part = prep.oriented.partition();
    let owned = ids.owned();
    let mut outgoing: Vec<Vec<u64>> = vec![Vec::new(); ctx.num_ranks()];
    let ghosts = (0..owned.start).chain(owned.end..ids.len() as LocalId);
    for l in ghosts.filter(|&l| delta[l as usize] > 0) {
        let g = ids.global_of(l);
        outgoing[part.rank_of(g)].extend([g, delta[l as usize]]);
    }
    let incoming = ctx.alltoallv(outgoing);
    for part_in in incoming {
        for pair in part_in.chunks_exact(2) {
            let l = ids.local_of(pair[0]).expect("ghost counts go to the owner");
            delta[l as usize] += pair[1];
        }
    }
    ctx.end_phase(phases::POSTPROCESS);
    (
        delta[owned.start as usize..owned.end as usize].to_vec(),
        report,
    )
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

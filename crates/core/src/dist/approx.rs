//! AMQ-approximate type-3 counting (paper §IV-E): CETRIC's global phase
//! sends an approximate-membership sketch `A'(v)` instead of the exact
//! contracted neighborhood. The receiver approximates `|A(u) ∩ A(v)|` by
//! querying every member of its contracted `A(u)` against `A'(v)` and
//! counting positives — an overestimate, corrected by subtracting the
//! expected false positives (the *truthful estimator*).
//!
//! Type-1/2 triangles are still counted exactly (they never leave the PE):
//! the local phase is CETRIC's, the shared `dist::count_local` over the
//! expanded graph. The sketched global phase has its own wire format and
//! does not run through `dist::global_pass`.

use tricount_amq::{truthful_estimate_unclamped, Amq, BloomFilter, SingleShotBloom};
use tricount_comm::{Ctx, Envelope, MessageQueue, QueueConfig, SimOptions};
use tricount_graph::dist::DistGraph;
use tricount_graph::Csr;

use crate::config::DistConfig;
use crate::dist::phases;
use crate::dist::residency::{prepare_rank, PreparedRank};
use crate::dist::{count_local, run_ranks};
use crate::result::ApproxResult;

/// Which AMQ to ship in the global phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterKind {
    /// Textbook Bloom filter.
    Bloom,
    /// Blocked single-probe filter (footnote 2's recommendation).
    SingleShot,
}

/// Configuration of the approximate global phase.
#[derive(Debug, Clone, Copy)]
pub struct ApproxConfig {
    /// Filter bits per neighborhood element.
    pub bits_per_key: f64,
    /// AMQ implementation.
    pub filter: FilterKind,
}

impl Default for ApproxConfig {
    fn default() -> Self {
        ApproxConfig {
            bits_per_key: 8.0,
            filter: FilterKind::Bloom,
        }
    }
}

const TAG_BLOOM: u64 = 0;
const TAG_SINGLE_SHOT: u64 = 1;

/// One rank's contribution to the approximate count, aggregated by
/// [`approx`] (or by the query engine serving an `ApproxTriangles`
/// query against resident state).
#[derive(Debug, Clone, Copy)]
pub struct ApproxRankOutput {
    /// Exactly counted type-1/2 triangles on this rank.
    pub exact_local: u64,
    /// Raw positive AMQ queries (overestimate) on this rank.
    pub type3_raw: u64,
    /// This rank's truthful (false-positive corrected) type-3 contribution.
    pub type3_corrected: f64,
}

/// The approximate counting phases on already prepared per-rank state:
/// exact local phase plus the sketched global phase. No setup communication
/// happens here.
pub fn approx_prepared(
    ctx: &mut Ctx,
    prep: &PreparedRank,
    cfg: &DistConfig,
    acfg: &ApproxConfig,
) -> ApproxRankOutput {
    // exact local phase: CETRIC's
    let o = &prep.oriented;
    let (exact_local, _) = count_local(ctx, o, cfg.kernels);
    let contracted = &prep.contracted;
    ctx.end_phase(phases::LOCAL);

    // approximate global phase: per destination PE j, send the heads
    // A(v) ∩ V_j explicitly plus a sketch of the full contracted A(v):
    // payload = [tag, v, |heads|, heads..., filter words...]
    let delta = cfg.resolve_delta(prep.local.num_local_entries());
    let mut q = MessageQueue::new(
        ctx,
        QueueConfig {
            delta,
            routing: cfg.routing,
        },
    );
    let part = o.partition().clone();
    let mut raw = 0u64;
    // Per-intersection corrections are collected (not summed on arrival)
    // and reduced in a canonical order below: f64 addition is not
    // associative, and message arrival order depends on the schedule — the
    // deferred sorted sum keeps the estimate bit-identical across
    // schedules (the property `check_schedule_independence` asserts).
    let mut corrected = Vec::<f64>::new();
    let ids = o.ids();
    let handler = |contracted: &tricount_graph::dist::ContractedGraph,
                   ctx: &mut Ctx,
                   env: Envelope<'_>,
                   raw: &mut u64,
                   corrected: &mut Vec<f64>| {
        let tag = env.payload[0];
        let nheads = env.payload[2] as usize;
        let heads = &env.payload[3..3 + nheads];
        let fwords = &env.payload[3 + nheads..];
        enum AnyAmq {
            B(BloomFilter),
            S(SingleShotBloom),
        }
        let amq = if tag == TAG_BLOOM {
            AnyAmq::B(BloomFilter::from_words(fwords))
        } else {
            AnyAmq::S(SingleShotBloom::from_words(fwords))
        };
        let (contains, fpr): (Box<dyn Fn(u64) -> bool>, f64) = match &amq {
            AnyAmq::B(f) => (Box::new(move |k| f.contains(k)), f.false_positive_rate()),
            AnyAmq::S(f) => (Box::new(move |k| f.contains(k)), f.false_positive_rate()),
        };
        for &u in heads {
            let au = contracted.a(ids.local_of(u).expect("heads are owned"));
            let mut pos = 0u64;
            for &w in au {
                ctx.add_work(1);
                if contains(ids.global_of(w)) {
                    pos += 1;
                }
            }
            *raw += pos;
            corrected.push(truthful_estimate_unclamped(pos, au.len() as u64, fpr));
        }
    };

    let (mut scratch, mut a): (Vec<u64>, Vec<u64>) = (Vec::new(), Vec::new());
    for (v, dense) in contracted.nonempty() {
        // the wire and the sketch speak global ids
        let v = ids.global_of(v);
        a.clear();
        a.extend(dense.iter().map(|&w| ids.global_of(w)));
        // build the sketch of A(v) once per vertex
        let filter_words: Vec<u64> = match acfg.filter {
            FilterKind::Bloom => {
                let mut f = BloomFilter::new(a.len(), acfg.bits_per_key);
                for &w in &a {
                    f.insert(w);
                }
                f.to_words()
            }
            FilterKind::SingleShot => {
                let mut f = SingleShotBloom::new(a.len(), acfg.bits_per_key, 4);
                for &w in &a {
                    f.insert(w);
                }
                f.to_words()
            }
        };
        let tag = match acfg.filter {
            FilterKind::Bloom => TAG_BLOOM,
            FilterKind::SingleShot => TAG_SINGLE_SHOT,
        };
        // group heads by destination rank (contiguous in the sorted list)
        let mut i = 0usize;
        while i < a.len() {
            let j = part.rank_of(a[i]);
            let mut k = i + 1;
            while k < a.len() && part.rank_of(a[k]) == j {
                k += 1;
            }
            scratch.clear();
            scratch.push(tag);
            scratch.push(v);
            scratch.push((k - i) as u64);
            scratch.extend_from_slice(&a[i..k]);
            scratch.extend_from_slice(&filter_words);
            q.post(ctx, j, &scratch);
            while q.poll(ctx, &mut |ctx, env| {
                handler(contracted, ctx, env, &mut raw, &mut corrected)
            }) {}
            i = k;
        }
    }
    q.finish(ctx, &mut |ctx, env| {
        handler(contracted, ctx, env, &mut raw, &mut corrected)
    });
    ctx.end_phase(phases::GLOBAL);

    corrected.sort_by(f64::total_cmp);
    ApproxRankOutput {
        exact_local,
        type3_raw: raw,
        type3_corrected: corrected.iter().sum(),
    }
}

/// Partitions `g` over `p` PEs (`DistGraph::new`) and runs the approximate
/// count.
pub fn approx(g: &Csr, p: usize, cfg: &DistConfig, acfg: &ApproxConfig) -> ApproxResult {
    let dg = DistGraph::new(g, p);
    let out = run_ranks(dg, &SimOptions::default(), |ctx, lg| {
        let prep = prepare_rank(ctx, lg, cfg);
        approx_prepared(ctx, &prep, cfg, acfg)
    });
    let exact_local: u64 = out.output.results.iter().map(|r| r.exact_local).sum();
    let type3_raw: u64 = out.output.results.iter().map(|r| r.type3_raw).sum();
    // clamp only the aggregate: per-intersection clamping would bias upward
    let type3_corrected: f64 = out
        .output
        .results
        .iter()
        .map(|r| r.type3_corrected)
        .sum::<f64>()
        .max(0.0);
    ApproxResult {
        exact_local,
        type3_raw,
        type3_corrected,
        estimate: exact_local as f64 + type3_corrected,
        stats: out.output.stats,
    }
}

//! Kernel-layer determinism acceptance tests for the adaptive intersection
//! dispatcher and intra-PE chunked counting:
//!
//! * every forced kernel (and the adaptive dispatcher) produces the same
//!   triangle count **and** bit-identical communication counters — kernel
//!   choice only moves `work_ops`, never what goes on the wire;
//! * for a *fixed* policy, chunked counting is bit-identical to sequential
//!   counting — counts, `work_ops`, comm counters, and the per-phase
//!   dispatch report all match across pool sizes {1, 2, 8};
//! * a fixed chunked policy stays bit-identical under ≥8 seeded schedule
//!   perturbations (the determinism contract of PR 3 extends to the
//!   parallel counting path).

use tricount_comm::stats::Counters;
use tricount_comm::SimOptions;
use tricount_core::config::Algorithm;
use tricount_core::dist::dispatch::DispatchReport;
use tricount_core::dist::run_on_profiled;
use tricount_core::seq::compact_forward;
use tricount_gen::rmat::rmat_default;
use tricount_graph::dist::DistGraph;
use tricount_graph::kernels::{KernelChoice, KernelPolicy};
use tricount_graph::Csr;

const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];

/// Low enough that the 256-vertex fixture actually has hub-indexed lists,
/// so the bitmap path is exercised rather than silently skipped.
const HUB_THRESHOLD: u64 = 8;

/// Everything a run produces that the determinism contract covers: the
/// count, the full per-phase per-rank counters, and the dispatch report.
type Observed = (u64, Vec<(String, Vec<Counters>)>, DispatchReport);

fn run_with_policy(
    g: &Csr,
    p: usize,
    alg: Algorithm,
    policy: KernelPolicy,
    opts: &SimOptions,
) -> Observed {
    let dg = DistGraph::new(g, p);
    let mut cfg = alg.config();
    cfg.kernels = policy;
    let (res, _trace, dispatch, _wall) = run_on_profiled(dg, alg, &cfg, opts)
        .unwrap_or_else(|e| panic!("{} failed on p={p}: {e}", alg.name()));
    let phases = res
        .stats
        .phases
        .iter()
        .map(|ph| (ph.name.clone(), ph.per_rank.clone()))
        .collect();
    (res.triangles, phases, dispatch)
}

/// The communication-only projection of a counter set: every field except
/// local work. Kernel choice may change `work_ops`; it must never change
/// any of these.
fn comm_only(c: &Counters) -> [u64; 8] {
    [
        c.sent_messages,
        c.sent_words,
        c.recv_messages,
        c.recv_words,
        c.coll_alpha_units,
        c.coll_word_units,
        c.sent_peers,
        c.recv_peers,
    ]
}

fn comm_projection(phases: &[(String, Vec<Counters>)]) -> Vec<(String, Vec<[u64; 8]>)> {
    phases
        .iter()
        .map(|(name, ranks)| (name.clone(), ranks.iter().map(comm_only).collect()))
        .collect()
}

fn policy(kernel: KernelChoice, pool_workers: usize) -> KernelPolicy {
    KernelPolicy {
        kernel,
        hub_threshold: HUB_THRESHOLD,
        pool_workers,
    }
}

/// Forcing any single kernel — or letting the dispatcher pick — changes
/// neither the triangle count nor a single word on the wire. Only
/// `work_ops` is allowed to move with the kernel.
#[test]
fn kernel_choices_agree_on_counts_and_comm() {
    let g = rmat_default(8, 3);
    let truth = compact_forward(&g).triangles;
    assert!(truth > 0, "test graph must contain triangles");
    for p in [1usize, 4, 9] {
        for alg in [Algorithm::Cetric, Algorithm::Ditric] {
            let (base_count, base_phases, _) = run_with_policy(
                &g,
                p,
                alg,
                policy(KernelChoice::Merge, 1),
                &SimOptions::default(),
            );
            assert_eq!(base_count, truth, "{} p={p} merge miscounted", alg.name());
            let base_comm = comm_projection(&base_phases);
            for kernel in [
                KernelChoice::Gallop,
                KernelChoice::Binary,
                KernelChoice::Bitmap,
                KernelChoice::Auto,
            ] {
                let (count, phases, dispatch) =
                    run_with_policy(&g, p, alg, policy(kernel, 1), &SimOptions::default());
                assert_eq!(
                    count,
                    truth,
                    "{} p={p} {} miscounted",
                    alg.name(),
                    kernel.name()
                );
                assert_eq!(
                    comm_projection(&phases),
                    base_comm,
                    "{} p={p} {}: kernel choice leaked into comm counters",
                    alg.name(),
                    kernel.name()
                );
                assert!(
                    !dispatch.is_empty(),
                    "{} p={p} {}: no dispatches recorded",
                    alg.name(),
                    kernel.name()
                );
            }
        }
    }
}

/// The bit-equality contract of chunked counting: for a fixed policy,
/// running the local phase over a worker pool of any size reproduces the
/// sequential run exactly — count, `work_ops`, comm counters *and* the
/// per-phase dispatch report.
#[test]
fn chunked_counting_bit_identical_to_sequential() {
    let g = rmat_default(8, 3);
    for p in [1usize, 4, 9] {
        for alg in [Algorithm::Cetric, Algorithm::Ditric] {
            let sequential = run_with_policy(
                &g,
                p,
                alg,
                policy(KernelChoice::Auto, 1),
                &SimOptions::default(),
            );
            for pool_workers in [2usize, 8] {
                let chunked = run_with_policy(
                    &g,
                    p,
                    alg,
                    policy(KernelChoice::Auto, pool_workers),
                    &SimOptions::default(),
                );
                assert_eq!(
                    chunked,
                    sequential,
                    "{} p={p} pool={pool_workers}: chunked run diverged from sequential",
                    alg.name()
                );
            }
        }
    }
}

/// A fixed chunked policy under seeded schedule perturbations: counts,
/// counters and dispatch reports are bit-identical across all schedules,
/// at p = 4 and p = 9.
#[test]
fn chunked_policy_schedule_independent() {
    let g = rmat_default(8, 3);
    let pol = policy(KernelChoice::Auto, 4);
    for p in [4usize, 9] {
        for alg in [Algorithm::Cetric, Algorithm::Ditric] {
            let baseline = run_with_policy(&g, p, alg, pol, &SimOptions::default());
            for seed in SEEDS {
                let perturbed = run_with_policy(&g, p, alg, pol, &SimOptions::perturbed(seed));
                assert_eq!(
                    perturbed,
                    baseline,
                    "{} p={p} diverged under schedule seed {seed}",
                    alg.name()
                );
            }
        }
    }
}

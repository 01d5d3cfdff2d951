//! Kernel-layer determinism acceptance tests for intra-PE chunked counting
//! under the adaptive intersection dispatcher:
//!
//! * for a *fixed* policy, chunked counting is bit-identical to sequential
//!   counting — counts, `work_ops`, comm counters, and the per-phase
//!   dispatch report all match across pool sizes {1, 2, 3, 8, 12};
//! * a fixed chunked policy stays bit-identical under ≥8 seeded schedule
//!   perturbations (the determinism contract extends to the parallel
//!   counting path);
//! * Fig. 8's hybrid configuration (DITRIC² on the ID partition, 12 cores
//!   as ranks × pool workers) counts exactly and meters the same local
//!   work and volume under every schedule.

use tricount_comm::stats::Counters;
use tricount_comm::SimOptions;
use tricount_core::config::Algorithm;
use tricount_core::dist::dispatch::DispatchReport;
use tricount_core::dist::phases::LOCAL;
use tricount_core::dist::run_on_profiled;
use tricount_core::seq::compact_forward;
use tricount_gen::rmat::rmat_default;
use tricount_gen::Dataset;
use tricount_graph::dist::DistGraph;
use tricount_graph::kernels::KernelPolicy;
use tricount_graph::{Csr, Partition};

const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];

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

fn policy(pool_workers: usize) -> KernelPolicy {
    KernelPolicy { pool_workers }
}

/// The bit-equality contract of chunked counting: for a fixed policy,
/// running the local phase over a worker pool of any size reproduces the
/// sequential run exactly — count, `work_ops`, comm counters *and* the
/// per-phase dispatch report — and the count is the sequential truth.
#[test]
fn chunked_counting_bit_identical_to_sequential() {
    let g = rmat_default(8, 3);
    let truth = compact_forward(&g).triangles;
    for p in [1usize, 4, 9] {
        for alg in [Algorithm::Cetric, Algorithm::Ditric] {
            let sequential = run_with_policy(&g, p, alg, policy(1), &SimOptions::default());
            assert_eq!(sequential.0, truth, "{} p={p} miscounted", alg.name());
            for pool_workers in [2usize, 3, 8, 12] {
                let chunked =
                    run_with_policy(&g, p, alg, policy(pool_workers), &SimOptions::default());
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
    let pol = policy(4);
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

/// Fig. 8's configuration: DITRIC² on the paper's ID partition with a
/// 12-core budget as `12 / t` ranks × `t` pool workers. The count is
/// exact, and the local phase's per-rank `work_ops` and the run's total
/// sent words are the same in two natural runs and under four seeded
/// perturbations: the local phase meters every op its workers ran, not
/// the busiest worker's share.
#[test]
fn hybrid_fig8_meters_are_schedule_free() {
    let g = Dataset::Orkut.generate(1 << 10, 42);
    let truth = compact_forward(&g).triangles;
    let alg = Algorithm::Ditric2;
    for threads in [1usize, 2, 3, 4, 6, 12] {
        let p = 12 / threads;
        let cfg = tricount_core::DistConfig {
            kernels: policy(threads),
            ..alg.config()
        };
        let run = |opts: &SimOptions| {
            let dg =
                DistGraph::with_partition(&g, Partition::balanced_vertices(g.num_vertices(), p));
            let (res, ..) = run_on_profiled(dg, alg, &cfg, opts)
                .unwrap_or_else(|e| panic!("{p} x {threads}t failed: {e}"));
            assert_eq!(res.triangles, truth, "{p} x {threads}t miscounted");
            let local: Vec<u64> = res
                .stats
                .phases
                .iter()
                .filter(|ph| ph.name == LOCAL)
                .flat_map(|ph| ph.per_rank.iter().map(|c| c.work_ops))
                .collect();
            (local, res.stats.total_volume())
        };
        let natural = run(&SimOptions::default());
        assert_eq!(run(&SimOptions::default()), natural, "{p} x {threads}t");
        for seed in &SEEDS[..4] {
            assert_eq!(
                run(&SimOptions::perturbed(*seed)),
                natural,
                "{p} x {threads}t diverged under schedule seed {seed}"
            );
        }
    }
}

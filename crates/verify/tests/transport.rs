//! Cross-backend transport equivalence: the metered simulator and the
//! threads backend are the *same machine* observed two ways. Every
//! algorithm variant, the LCC/support pipelines and the dynamic-update
//! protocol must produce bit-identical answers on both; the comm meters
//! must agree wherever the protocol's traffic is schedule-independent.
//!
//! Comparison tiers (mirroring the schedule-perturbation precedent):
//!
//! * **Counts / answers** — bit-equal on every variant, always.
//! * **Direct-routing variants** — full per-phase, per-rank [`Counters`]
//!   equality: without relaying, what a PE sends is a function of its
//!   local state only.
//! * **Grid-routing variants** — relayed message *counts* depend on which
//!   envelopes share a proxy flush, and visitor-driven protocols process
//!   arrivals in whatever phase they land in, so neither message counts
//!   nor per-phase attribution is schedule-independent. What must agree
//!   are the per-rank *run totals* of words, local work and collective
//!   charges.
//!
//! Untimed runs only: the overlap-aware `sim_clock` interleaves `max`
//! (arrivals) with `add` (work), which does not commute across schedules.

use std::sync::Mutex;
use std::time::Duration;

use tricount_comm::{run_guarded, run_sim, Counters, Routing, RunStats, SimOptions, TransportKind};
use tricount_core::config::{Algorithm, DistConfig};
use tricount_core::dist::delta::apply_batch_sim;
use tricount_core::dist::residency::{build_residency, PreparedRank};
use tricount_core::dist::support::edge_support_rank;
use tricount_core::dist::{count_rank, fold_counts, lcc, run_on, run_ranks};
use tricount_core::seq::compact_forward;
use tricount_delta::{random_batch, Overlay};
use tricount_graph::dist::DistGraph;
use tricount_graph::Csr;
use tricount_verify::check_hb;

const PES: [usize; 4] = [1, 4, 9, 16];

fn fixture() -> Csr {
    tricount_gen::rmat::rmat_default(8, 11)
}

fn sim_opts() -> SimOptions {
    SimOptions::default()
}

fn threads_opts() -> SimOptions {
    SimOptions::on(TransportKind::Threads)
}

/// The schedule-independent projection of a [`Counters`] record: words
/// moved, local work, and collective charges (message counts and buffer
/// peaks vary with relay flush timing under grid routing).
fn schedule_free(c: &Counters) -> (u64, u64, u64, u64, u64) {
    (
        c.sent_words,
        c.recv_words,
        c.work_ops,
        c.coll_alpha_units,
        c.coll_word_units,
    )
}

/// Folds per-phase counters into one record per rank.
fn totals_per_rank(stats: &RunStats) -> Vec<Counters> {
    let mut out = vec![Counters::default(); stats.p];
    for ph in &stats.phases {
        for (r, c) in ph.per_rank.iter().enumerate() {
            out[r].absorb(c);
        }
    }
    out
}

/// Asserts the meter agreement tier appropriate for `routing`.
fn assert_stats_equiv(label: &str, routing: Routing, sim: &RunStats, thr: &RunStats) {
    assert_eq!(sim.p, thr.p, "{label}: rank count");
    assert_eq!(
        sim.phases.len(),
        thr.phases.len(),
        "{label}: phase structure"
    );
    match routing {
        Routing::Direct => {
            for (ps, pt) in sim.phases.iter().zip(&thr.phases) {
                assert_eq!(ps.name, pt.name, "{label}: phase order");
                for (rank, (cs, ct)) in ps.per_rank.iter().zip(&pt.per_rank).enumerate() {
                    assert_eq!(
                        cs, ct,
                        "{label}: counters diverged, phase {} rank {rank}",
                        ps.name
                    );
                }
            }
        }
        Routing::Grid => {
            for (rank, (cs, ct)) in totals_per_rank(sim)
                .iter()
                .zip(&totals_per_rank(thr))
                .enumerate()
            {
                assert_eq!(
                    schedule_free(cs),
                    schedule_free(ct),
                    "{label}: invariant meter totals diverged, rank {rank}"
                );
            }
        }
    }
}

/// All seven variants produce bit-identical counts on both backends over
/// p ∈ {1, 4, 9, 16}, with tiered meter agreement.
#[test]
fn all_variants_bit_equal_across_backends() {
    let g = fixture();
    let truth = compact_forward(&g).triangles;
    assert!(truth > 0, "fixture must contain triangles");
    for p in PES {
        for alg in Algorithm::all() {
            let cfg = alg.config();
            let run = |opts: &SimOptions| {
                run_on(DistGraph::new(&g, p), alg, &cfg, opts)
                    .unwrap_or_else(|e| panic!("{} p={p} failed: {e}", alg.name()))
                    .0
            };
            let sim = run(&sim_opts());
            let thr = run(&threads_opts());
            assert_eq!(sim.triangles, truth, "{} p={p} sim miscounted", alg.name());
            assert_eq!(
                thr.triangles,
                truth,
                "{} p={p} threads miscounted",
                alg.name()
            );
            let label = format!("{} p={p}", alg.name());
            assert_stats_equiv(&label, cfg.routing, &sim.stats, &thr.stats);
        }
    }
}

/// The LCC pipeline agrees per vertex on both backends (selected via
/// `DistConfig.transport`, the config-plumbing path the CLI uses).
#[test]
fn lcc_bit_equal_across_backends() {
    let g = fixture();
    let per_backend: Vec<_> = [TransportKind::Sim, TransportKind::Threads]
        .into_iter()
        .map(|transport| {
            let cfg = DistConfig {
                transport,
                ..DistConfig::default()
            };
            lcc::lcc(&g, 4, &cfg)
        })
        .collect();
    assert_eq!(per_backend[0].triangles, per_backend[1].triangles);
    assert_eq!(per_backend[0].per_vertex, per_backend[1].per_vertex);
    assert_eq!(per_backend[0].lcc, per_backend[1].lcc);
}

/// The edge-support protocol answers identically on both backends.
#[test]
fn edge_support_bit_equal_across_backends() {
    let g = fixture();
    let p = 4;
    let queries: Vec<(u64, u64)> = vec![(0, 1), (1, 2), (5, 9), (3, 200), (200, 3)];
    let run = |opts: &SimOptions| -> Vec<Vec<u64>> {
        let dg = DistGraph::new(&g, p);
        run_ranks(dg, opts, |ctx, lg| edge_support_rank(ctx, &lg, &queries).0)
            .output
            .results
    };
    let sim = run(&sim_opts());
    let thr = run(&threads_opts());
    assert_eq!(sim, thr, "edge support answers diverged across backends");
}

/// One dynamic-update program: same residency, same batch, both backends —
/// identical outcomes (insertions, deletions, triangle deltas) and
/// identical schedule-free meters.
#[test]
fn delta_update_bit_equal_across_backends() {
    let cfg = DistConfig::default();
    let p = 4;
    let g = tricount_gen::rgg2d_default(300, 7);
    let batch = random_batch(&g, 25, 217).canonicalize();
    let run = |opts: &SimOptions| {
        let dg = DistGraph::new(&g, p);
        let (ranks, _): (Vec<PreparedRank>, _) = build_residency(dg, &cfg, opts);
        let overlays: Vec<Mutex<Overlay>> = ranks
            .iter()
            .map(|r| Mutex::new(Overlay::for_local(&r.local)))
            .collect();
        let (outcomes, stats, _) = apply_batch_sim(&ranks, &overlays, &batch, &cfg, opts);
        (outcomes, stats)
    };
    let (sim_out, sim_stats) = run(&sim_opts());
    let (thr_out, thr_stats) = run(&threads_opts());
    for (rank, (s, t)) in sim_out.iter().zip(&thr_out).enumerate() {
        assert_eq!(s.inserted, t.inserted, "rank {rank} insertions");
        assert_eq!(s.deleted, t.deleted, "rank {rank} deletions");
        assert_eq!(s.noops, t.noops, "rank {rank} no-ops");
        assert_eq!(s.triangles_added, t.triangles_added, "rank {rank} gains");
        assert_eq!(
            s.triangles_removed, t.triangles_removed,
            "rank {rank} losses"
        );
        assert_eq!(s.tail_effective, t.tail_effective, "rank {rank} tails");
    }
    assert_stats_equiv("delta-update", cfg.routing, &sim_stats, &thr_stats);
}

/// A panicking PE on the threads backend poisons the transport and takes
/// the whole run down *promptly* — the supervisor re-raises instead of
/// leaking sibling rank threads spinning at a barrier.
#[test]
fn threads_backend_panic_shuts_down_cleanly() {
    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_sim(4, &threads_opts(), |ctx| {
            if ctx.rank() == 2 {
                panic!("injected rank failure");
            }
            // Survivors head into a barrier that rank 2 will never reach;
            // the poison must wake them instead of spinning forever.
            ctx.barrier();
            ctx.rank()
        })
    }));
    assert!(res.is_err(), "a rank panic must fail the whole run");
}

/// The deadlock watchdog composes with the threads backend: a healthy run
/// under a finite timeout completes with the right answer.
#[test]
fn run_guarded_on_threads_backend() {
    let g = fixture();
    let truth = compact_forward(&g).triangles;
    let cfg = Algorithm::Cetric.config();
    // the guarded rank program must be 'static, so it owns the partition
    let dg = DistGraph::new(&g, 4);
    let out = run_guarded(4, &threads_opts(), Duration::from_secs(30), move |ctx| {
        count_rank(ctx, dg.local(ctx.rank()).clone(), Algorithm::Cetric, &cfg)
    })
    .expect("guarded threads run");
    let (triangles, _) = fold_counts(out.output.results).expect("cetric cannot fail");
    assert_eq!(triangles, truth);
}

/// A traced threads-backend run is causally consistent: every receive
/// happens-after its send, collective epochs are barrier-ordered, and the
/// vector-clock sweep consumes the whole trace — i.e. the real-parallel
/// data plane upholds the ordering contract the simulator guarantees by
/// construction.
#[test]
fn threads_backend_trace_is_hb_consistent() {
    let g = fixture();
    let opts = SimOptions {
        transport: TransportKind::Threads,
        ..SimOptions::traced()
    };
    for alg in [Algorithm::Ditric, Algorithm::Cetric2] {
        let (_, trace) = run_on(DistGraph::new(&g, 4), alg, &alg.config(), &opts)
            .unwrap_or_else(|e| panic!("{} failed: {e}", alg.name()));
        let trace = trace.expect("built with the `trace` feature");
        let rep = check_hb(&trace);
        assert!(rep.is_clean(), "{}:\n{rep}", alg.name());
        assert_eq!(rep.events, trace.len(), "{}: full sweep", alg.name());
    }
}

/// Wall clock is measured, not modeled: a threads run reports nonzero
/// per-phase wall time while its modeled meters stay bit-equal to sim's.
#[test]
fn threads_backend_reports_wall_alongside_modeled() {
    let g = fixture();
    let cfg = Algorithm::Ditric.config();
    let (r, _) = run_on(
        DistGraph::new(&g, 4),
        Algorithm::Ditric,
        &cfg,
        &threads_opts(),
    )
    .expect("threads run");
    assert!(
        r.stats.wall_time() > 0.0,
        "threads backend must record wall time"
    );
    // modeled meters are still populated and schedule-independent
    assert!(r.stats.totals().sent_words > 0);
}

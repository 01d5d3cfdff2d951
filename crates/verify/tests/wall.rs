//! Wall-clock profiling is provably non-perturbing: a threads-backend run
//! with the transport probes enabled produces bit-identical modeled meters
//! (per-phase and per-rank for direct routing, schedule-free run totals
//! for grid routing) and bit-identical counts
//! versus the same run with profiling off. The probes only *add* an
//! honest wall-clock layer — contention summaries, event rings, matched
//! send→recv flows — and a saturated probe ring degrades by counting
//! drops, never by stalling or perturbing the run.

use tricount_comm::{Counters, Routing, RunStats, SimOptions};
use tricount_core::config::Algorithm;
use tricount_core::dist::{run_on, run_on_profiled};
use tricount_core::seq::compact_forward;
use tricount_graph::dist::DistGraph;
use tricount_graph::Csr;
use tricount_obs::WallTimeline;

const PES: [usize; 3] = [1, 4, 9];

fn fixture() -> Csr {
    tricount_gen::rmat::rmat_default(8, 11)
}

fn profiled_opts() -> SimOptions {
    SimOptions::wall_profiled()
}

/// The schedule-independent projection of a [`Counters`] record: words
/// moved, local work, and collective charges. Under grid routing relayed
/// message counts and buffer peaks vary with relay flush timing, so only
/// these run totals are comparable.
fn schedule_free(c: &Counters) -> (u64, u64, u64, u64, u64) {
    (
        c.sent_words,
        c.recv_words,
        c.work_ops,
        c.coll_alpha_units,
        c.coll_word_units,
    )
}

fn totals_per_rank(stats: &RunStats) -> Vec<Counters> {
    let mut out = vec![Counters::default(); stats.p];
    for ph in &stats.phases {
        for (r, c) in ph.per_rank.iter().enumerate() {
            out[r].absorb(c);
        }
    }
    out
}

fn assert_stats_equiv(label: &str, routing: Routing, plain: &RunStats, prof: &RunStats) {
    assert_eq!(plain.p, prof.p, "{label}: rank count");
    assert_eq!(
        plain.phases.len(),
        prof.phases.len(),
        "{label}: phase structure"
    );
    match routing {
        Routing::Direct => {
            for (ps, pp) in plain.phases.iter().zip(&prof.phases) {
                assert_eq!(ps.name, pp.name, "{label}: phase order");
                for (rank, (cs, cp)) in ps.per_rank.iter().zip(&pp.per_rank).enumerate() {
                    assert_eq!(
                        cs, cp,
                        "{label}: profiling perturbed the meters, phase {} rank {rank}",
                        ps.name
                    );
                }
            }
        }
        Routing::Grid => {
            for (rank, (cs, cp)) in totals_per_rank(plain)
                .iter()
                .zip(&totals_per_rank(prof))
                .enumerate()
            {
                assert_eq!(
                    schedule_free(cs),
                    schedule_free(cp),
                    "{label}: profiling perturbed the invariant totals, rank {rank}"
                );
            }
        }
    }
}

/// Profiling on vs off: all seven variants over p ∈ {1, 4, 9} on the
/// threads backend count identically and keep their modeled meters
/// bit-identical (tiered per routing) — and the profiled run actually
/// carries contention meters.
#[test]
fn profiling_does_not_perturb_any_variant() {
    let g = fixture();
    let truth = compact_forward(&g).triangles;
    assert!(truth > 0, "fixture must contain triangles");
    for p in PES {
        for alg in Algorithm::all() {
            let cfg = alg.config();
            let label = format!("{} p={p}", alg.name());
            let plain = run_on(DistGraph::new(&g, p), alg, &cfg, &SimOptions::default())
                .unwrap_or_else(|e| panic!("{label} (plain) failed: {e}"))
                .0;
            let prof = run_on(DistGraph::new(&g, p), alg, &cfg, &profiled_opts())
                .unwrap_or_else(|e| panic!("{label} (profiled) failed: {e}"))
                .0;
            assert_eq!(plain.triangles, truth, "{label}: plain miscounted");
            assert_eq!(prof.triangles, truth, "{label}: profiled miscounted");
            assert_stats_equiv(&label, cfg.routing, &plain.stats, &prof.stats);
            assert!(
                plain.stats.contention.is_none(),
                "{label}: unprofiled run must not carry contention meters"
            );
            let c = prof
                .stats
                .contention
                .as_ref()
                .unwrap_or_else(|| panic!("{label}: profiled run lost its contention summary"));
            assert_eq!(c.p, p, "{label}: contention PE count");
            if p > 1 {
                assert!(
                    c.events_recorded > 0,
                    "{label}: a multi-PE run must record transport events"
                );
            }
        }
    }
}

/// The drained wall profile reconstructs a coherent timeline: every
/// send matches its receive by (src, dst, seq) when nothing overflowed,
/// and the dwell histogram carries one sample per matched flow.
#[test]
fn wall_timeline_matches_flows() {
    let g = fixture();
    let alg = Algorithm::Cetric;
    let (r, _, _, wall) =
        run_on_profiled(DistGraph::new(&g, 4), alg, &alg.config(), &profiled_opts())
            .expect("profiled run");
    let wall = wall.expect("threads + wall_profile must yield a profile");
    assert_eq!(wall.events_dropped(), 0, "default ring must not overflow");
    let t = WallTimeline::build(&wall);
    assert_eq!(t.p, 4);
    assert!(!t.flows.is_empty(), "cetric on 4 PEs exchanges messages");
    assert_eq!(t.unmatched_sends, 0, "every send found its receive");
    assert_eq!(t.unmatched_recvs, 0, "every receive found its send");
    assert_eq!(
        t.dwell.count(),
        t.flows.len() as u64,
        "one dwell sample per matched flow"
    );
    // The probe counts *transport* messages; the comm meters count the
    // application envelopes inside them. Aggregation packs several
    // envelopes per transport message, so flows lower-bound deliveries.
    assert!(
        t.flows.len() as u64 <= r.stats.totals().recv_messages,
        "transport messages ({}) cannot exceed metered envelopes ({})",
        t.flows.len(),
        r.stats.totals().recv_messages
    );
    for f in &t.flows {
        assert!(
            f.recv_nanos >= f.send_nanos,
            "flow {}→{} seq {} received before it was sent",
            f.src,
            f.dst,
            f.seq
        );
    }
}

/// A deliberately tiny probe ring overflows gracefully: drops are counted,
/// the run neither stalls nor miscounts, and the modeled meters are still
/// untouched.
#[test]
fn ring_overflow_drops_events_never_stalls() {
    let g = fixture();
    let truth = compact_forward(&g).triangles;
    let alg = Algorithm::Cetric;
    let opts = SimOptions {
        wall_ring_capacity: 4,
        ..SimOptions::wall_profiled()
    };
    let (r, _, _, wall) = run_on_profiled(DistGraph::new(&g, 4), alg, &alg.config(), &opts)
        .expect("overflowing profiled run still completes");
    assert_eq!(r.triangles, truth, "overflow must not affect the count");
    let wall = wall.expect("profile present");
    assert!(
        wall.events_dropped() > 0,
        "a 4-slot ring must overflow on this workload"
    );
    assert!(
        wall.events_recorded() <= 4 * 4,
        "ring capacity bounds retention"
    );
    // the timeline degrades to unmatched flows, not an error
    let t = WallTimeline::build(&wall);
    assert_eq!(t.events_dropped, wall.events_dropped());
    let plain = run_on(
        DistGraph::new(&g, 4),
        alg,
        &alg.config(),
        &SimOptions::default(),
    )
    .expect("plain run")
    .0;
    assert_stats_equiv(
        "overflowing ring",
        alg.config().routing,
        &plain.stats,
        &r.stats,
    );
}

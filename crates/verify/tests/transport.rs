//! The threads mesh — the one data plane every run executes on — under
//! failure and observation: a panicking PE takes the run down promptly,
//! the deadlock watchdog composes with it, its traces are causally
//! consistent, and it records wall clock next to the modeled meters.
//! Answers against sequential truth are checked where the protocols are
//! (`tricount-core`'s cross-variant tests, the golden counter table, the
//! engine suites).

use std::time::Duration;

use tricount_comm::{run_guarded, run_sim, Executor, SimOptions};
use tricount_core::config::Algorithm;
use tricount_core::dist::{count_rank, fold_counts, run_on};
use tricount_core::seq::compact_forward;
use tricount_graph::dist::DistGraph;
use tricount_graph::Csr;
use tricount_verify::check_hb;

fn fixture() -> Csr {
    tricount_gen::rmat::rmat_default(8, 11)
}

/// A panicking PE on the threads backend poisons the transport and takes
/// the whole run down *promptly* — the supervisor re-raises instead of
/// leaking sibling rank threads spinning at a barrier.
#[test]
fn threads_backend_panic_shuts_down_cleanly() {
    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_sim(4, &SimOptions::default(), |ctx| {
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
    let out = run_guarded(
        &Executor::new(),
        4,
        &SimOptions::default(),
        Duration::from_secs(30),
        move |ctx| count_rank(ctx, dg.local(ctx.rank()).clone(), Algorithm::Cetric, &cfg),
    )
    .expect("guarded threads run");
    let (triangles, _) = fold_counts(out.output.results).expect("cetric cannot fail");
    assert_eq!(triangles, truth);
}

/// A traced threads-backend run is causally consistent: every receive
/// happens-after its send, collective epochs are barrier-ordered, and the
/// vector-clock sweep consumes the whole trace — i.e. the real-parallel
/// data plane upholds the ordering contract the conformance linter
/// assumes.
#[test]
fn threads_backend_trace_is_hb_consistent() {
    let g = fixture();
    let opts = SimOptions::traced();
    for alg in [Algorithm::Ditric, Algorithm::Cetric2] {
        let (_, trace) = run_on(DistGraph::new(&g, 4), alg, &alg.config(), &opts)
            .unwrap_or_else(|e| panic!("{} failed: {e}", alg.name()));
        let trace = trace.expect("built with the `trace` feature");
        let rep = check_hb(&trace);
        assert!(rep.is_clean(), "{}:\n{rep}", alg.name());
        assert_eq!(rep.events, trace.len(), "{}: full sweep", alg.name());
    }
}

/// Wall clock is measured, not modeled: a run reports nonzero per-phase
/// wall time while its modeled meters stay populated.
#[test]
fn threads_backend_reports_wall_alongside_modeled() {
    let g = fixture();
    let cfg = Algorithm::Ditric.config();
    let (r, _) = run_on(
        DistGraph::new(&g, 4),
        Algorithm::Ditric,
        &cfg,
        &SimOptions::default(),
    )
    .expect("threads run");
    assert!(
        r.stats.wall_time() > 0.0,
        "threads backend must record wall time"
    );
    // modeled meters are still populated
    assert!(r.stats.totals().sent_words > 0);
}

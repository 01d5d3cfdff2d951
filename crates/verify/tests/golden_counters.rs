//! Golden modeled counters: every kernel and transport change promises
//! that "no modeled counter moves", and `tricount-regress` only holds that
//! to ±10 %. This suite pins it exactly. For all 7 variants × p ∈ {1, 4, 9}
//! on one R-MAT and one RGG2D graph it renders the triangle count, each
//! rank's `work_ops` / `sent_words` / `sent_messages` /
//! `peak_buffered_words` and the kernel-dispatch tallies as text and
//! compares it, line by line, with `golden_counters.txt`. The per-vertex
//! LCC protocol (the engine's `VertexLcc` path) follows with the same rows
//! on the same graphs and PE counts.
//!
//! The relayed variants (grid routing, and the HavoqGT-like visitor
//! rerouting) batch what they forward in message *arrival* order, so their
//! `sent_messages` and `peak_buffered_words` differ from run to run (six
//! runs of one commit disagreed on 32–50 rank rows); only `work_ops` and
//! `sent_words` are pinned for them. Everything else repeats exactly.
//!
//! The table is a record of behaviour, not a derivation: regenerate it
//! only in a change that *means* to move a modeled counter, at the commit
//! before the change and after it, and say so in the PR:
//!
//! ```text
//! cargo test -p tricount-verify --test golden_counters -- --ignored --nocapture \
//!     | grep '^golden ' | sed 's/^golden //' > crates/verify/tests/golden_counters.txt
//! ```

use std::fmt::Write as _;

use tricount_comm::{RunStats, SimOptions};
use tricount_core::config::{Algorithm, DistConfig};
use tricount_core::dist::dispatch::DispatchReport;
use tricount_core::dist::lcc::lcc_prepared;
use tricount_core::dist::residency::prepare_rank;
use tricount_core::dist::{run_on_profiled, run_ranks};
use tricount_gen::rgg::rgg2d_default;
use tricount_gen::rmat::rmat_default;
use tricount_graph::dist::DistGraph;
use tricount_graph::Csr;

const GOLDEN: &str = include_str!("golden_counters.txt");

fn graphs() -> [(&'static str, Csr); 2] {
    [
        ("rmat10s7", rmat_default(10, 7)),
        ("rgg2d11s5", rgg2d_default(1 << 11, 5)),
    ]
}

/// The rows of one run: the triangle count, one line per rank (relayed
/// runs without their arrival-order fields) and one per dispatch phase.
fn render_run(
    out: &mut String,
    run: &str,
    triangles: u64,
    stats: &RunStats,
    dispatch: &DispatchReport,
    relayed: bool,
) {
    writeln!(out, "{run} triangles={triangles}").unwrap();
    for rank in 0..stats.p {
        let (mut work, mut words, mut msgs, mut peak) = (0u64, 0u64, 0u64, 0u64);
        for ph in &stats.phases {
            let c = &ph.per_rank[rank];
            work += c.work_ops;
            words += c.sent_words;
            msgs += c.sent_messages;
            peak = peak.max(c.peak_buffered_words);
        }
        write!(out, "{run} rank={rank} work_ops={work} sent_words={words}").unwrap();
        if !relayed {
            write!(out, " sent_messages={msgs} peak_buffered_words={peak}").unwrap();
        }
        writeln!(out).unwrap();
    }
    for (phase, k) in &dispatch.phases {
        writeln!(
            out,
            "{run} dispatch={phase} merge={} gallop={} binary={}",
            k.merge, k.gallop, k.binary
        )
        .unwrap();
    }
}

/// One line per run header, per rank and per dispatch phase, in a fixed
/// order, so a mismatch names the graph, variant, p and rank that moved.
fn render() -> String {
    let mut out = String::new();
    for (gname, g) in graphs() {
        for alg in Algorithm::all() {
            for p in [1usize, 4, 9] {
                let dg = DistGraph::new(&g, p);
                let (res, _, dispatch, _) =
                    run_on_profiled(dg, alg, &alg.config(), &SimOptions::default())
                        .unwrap_or_else(|e| panic!("{} failed on p={p}: {e}", alg.name()));
                let relayed = matches!(
                    alg,
                    Algorithm::Ditric2 | Algorithm::Cetric2 | Algorithm::HavoqgtLike
                );
                let run = format!("{gname} {} p={p}", alg.name());
                render_run(
                    &mut out,
                    &run,
                    res.triangles,
                    &res.stats,
                    &dispatch,
                    relayed,
                );
            }
        }
    }
    let cfg = DistConfig::default();
    for (gname, g) in graphs() {
        for p in [1usize, 4, 9] {
            let dg = DistGraph::new(&g, p);
            let sim = run_ranks(dg, &SimOptions::default(), |ctx, lg| {
                let prep = prepare_rank(ctx, lg, &cfg);
                lcc_prepared(ctx, &prep, &cfg)
            });
            let mut delta_sum = 0u64;
            let mut dispatch = DispatchReport::new();
            for (owned, d) in &sim.output.results {
                delta_sum += owned.iter().sum::<u64>();
                dispatch.absorb(d);
            }
            let run = format!("{gname} LCC p={p}");
            render_run(
                &mut out,
                &run,
                delta_sum / 3,
                &sim.output.stats,
                &dispatch,
                false,
            );
        }
    }
    out
}

#[test]
fn modeled_counters_match_the_golden_table() {
    let fresh = render();
    for (i, (got, want)) in fresh.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "golden_counters.txt line {}: a modeled counter moved",
            i + 1
        );
    }
    assert_eq!(
        fresh.lines().count(),
        GOLDEN.lines().count(),
        "golden_counters.txt: number of rows"
    );
    assert!(!GOLDEN.is_empty(), "golden table is empty");
}

/// The generator: prints the table, one `golden `-prefixed line per row.
#[test]
#[ignore = "prints the golden table; see the module docs for when to regenerate"]
fn print_golden_table() {
    for line in render().lines() {
        println!("golden {line}");
    }
}

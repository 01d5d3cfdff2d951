//! Verification layer: record a message trace of a real run, lint it
//! against the paper's protocol invariants, prove the count is
//! schedule-independent, and see the deadlock watchdog diagnose a stall.
//!
//! Run with:
//! ```text
//! cargo run --release --example verify_protocol
//! ```

use std::time::Duration;

use cetric::core::dist::run_on;
use cetric::core::seq;
use cetric::prelude::*;
use tricount_comm::{run_guarded, Ctx, SimOptions};
use tricount_graph::dist::DistGraph;
use tricount_verify::check_trace;
use tricount_verify::conformance::check_meters;
use tricount_verify::determinism::check_schedule_independence;

fn main() {
    let g = cetric::gen::rmat_default(10, 42);
    let truth = seq::compact_forward(&g).triangles;
    println!(
        "graph: n = {}, m = {}, {} triangles (sequential ground truth)\n",
        g.num_vertices(),
        g.num_edges(),
        truth
    );

    // 1. Record a trace of CETRIC² (grid-indirect routing) on 16 PEs and
    //    run the conformance linter over it: exactly-once delivery, the
    //    §IV-A memory bound, √p grid fan-out, epoch alignment, and the
    //    cost-model meters.
    let p = 16;
    let alg = Algorithm::Cetric2;
    let dg = DistGraph::new_balanced_vertices(&g, p);
    let (result, trace) =
        run_on(dg, alg, &alg.config(), &SimOptions::traced()).expect("run failed");
    assert_eq!(result.triangles, truth);
    let trace = trace.expect("built with the `trace` feature");
    let mut report = check_trace(&trace);
    report
        .violations
        .extend(check_meters(&trace, &result.stats));
    println!("{} on {p} PEs: {} triangles", alg.name(), result.triangles);
    print!("{report}");
    assert!(report.is_clean());

    // 2. Re-run under seeded schedule permutations: per-channel FIFO is
    //    guaranteed, cross-channel order is not — the count must not care.
    let seeds: Vec<u64> = (1..=8).collect();
    let g2 = g.clone();
    let verdict =
        check_schedule_independence(4, &seeds, &SimOptions::default(), move |ctx: &mut Ctx| {
            let dg = DistGraph::new_balanced_vertices(&g2, ctx.num_ranks());
            let lg = dg.into_locals().swap_remove(ctx.rank());
            cetric::core::dist::ditric::run_rank(ctx, lg, &Algorithm::Ditric.config()).0
        });
    match verdict {
        Ok(results) => println!(
            "\nDITRIC under {} perturbed schedules: all ranks agree ({} triangles)",
            seeds.len(),
            results[0]
        ),
        Err(divs) => {
            for d in &divs {
                println!("{d}");
            }
            panic!("schedule-dependent result!");
        }
    }

    // 3. The deadlock watchdog: a PE that skips a collective stalls the
    //    rest; instead of hanging, the run returns a wait-for report.
    let report = run_guarded(
        4,
        &SimOptions::default(),
        Duration::from_millis(250),
        |ctx: &mut Ctx| {
            if ctx.rank() != 0 {
                ctx.barrier();
            }
        },
    )
    .expect_err("this program deadlocks by construction");
    println!("\nwatchdog on a PE that skips a barrier:\n{report}");
}

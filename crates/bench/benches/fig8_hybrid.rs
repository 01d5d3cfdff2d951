//! Figure 8 (appendix): hybrid parallelism on orkut — local-phase time,
//! total time and communication volume for a fixed core budget with varying
//! threads per MPI rank (cores = ranks × threads).

use cetric::comm::SimOptions;
use cetric::core::dist::{hybrid, run_ranks};
use cetric::prelude::*;
use tricount_bench::{fmt_count, fmt_time, id_partition, print_table, Row, Scale};

fn main() {
    let scale = Scale::from_env();
    let model = CostModel::supermuc();
    let n = 1u64 << (11 + scale.shift());
    let g = Dataset::Orkut.generate(n, 42);
    let cores = *scale.pe_counts().last().unwrap().max(&12);
    // round the core budget to something divisible by all thread counts
    let cores = cores.next_multiple_of(12);
    println!(
        "Fig. 8 reproduction: orkut proxy n={} m={}, core budget {cores}",
        g.num_vertices(),
        g.num_edges()
    );

    let cfg = DistConfig {
        routing: Routing::Grid, // the paper uses DITRIC² here
        ..DistConfig::default()
    };
    let mut rows = Vec::new();
    let mut baseline_vol = 0u64;
    for threads in [1usize, 2, 3, 4, 6, 12] {
        // `hybrid::count_hybrid` on the paper's ID partition
        let out = run_ranks(
            id_partition(&g, cores / threads),
            &SimOptions::on(cfg.transport),
            |ctx, lg| hybrid::run_rank(ctx, lg, &cfg, threads),
        );
        let r = CountResult {
            triangles: out.output.results[0],
            stats: out.output.stats,
        };
        let local = r.stats.phase_time("local", &model);
        let total = r.modeled_time(&model);
        let vol = r.stats.total_volume();
        if threads == 1 {
            baseline_vol = vol;
        }
        rows.push(Row {
            label: format!("{} x {threads}t", cores / threads),
            cells: vec![
                fmt_time(local),
                fmt_time(r.stats.phase_time("global", &model)),
                fmt_time(total),
                fmt_count(vol),
                format!("-{:.0}%", 100.0 * (1.0 - vol as f64 / baseline_vol as f64)),
            ],
        });
    }
    print_table(
        &format!("Fig. 8: hybrid DITRIC2, {cores} cores (ranks x threads)"),
        &["local", "global", "total", "volume", "vol vs 1t"],
        &rows,
    );
    println!(
        "\npaper shapes: more threads/rank cut communication volume sharply \
         (fewer ranks → smaller cut; paper: −84% at 12 threads, we see the \
         same trend), while the funneled global phase does not parallelise \
         and limits the total. Note: per-rank local time *grows* with \
         threads here because intersections that were remote (global phase) \
         become local when ranks merge — the same work migration the paper's \
         local/global split shows."
    );
}

//! Figure 6: strong scaling on the eight real-world instances (proxies),
//! p = 2…64, all algorithm variants plus baselines. Cells report the same
//! triple as Fig. 5 (modeled time / max msgs per PE / bottleneck volume);
//! TriC-like runs under a memory cap and may report OOM, as in the paper.

use cetric::prelude::*;
use tricount_bench::{fmt_count, fmt_time, print_table, Row, Scale};

fn main() {
    let scale = Scale::from_env();
    let model = CostModel::supermuc();
    let n = 1u64 << (11 + scale.shift());
    let algs = [
        Algorithm::Ditric,
        Algorithm::Ditric2,
        Algorithm::Cetric,
        Algorithm::Cetric2,
        Algorithm::TricLike,
        Algorithm::HavoqgtLike,
    ];
    let col_names: Vec<&str> = algs.iter().map(|a| a.name()).collect();

    for ds in Dataset::all() {
        let g = ds.generate(n, 42);
        let mut rows = Vec::new();
        for p in scale.pe_counts() {
            // model a fixed per-PE memory budget of 48× the local input
            // size (generous, like the paper's 2 GB/core nodes relative to
            // the per-PE slice) — static buffering fails once the outgoing
            // volume outgrows it
            let dg = DistGraph::new_balanced_vertices(&g, p);
            let cap = 48
                * (0..p)
                    .map(|r| dg.local(r).num_local_entries())
                    .max()
                    .unwrap();
            let cells = algs
                .iter()
                .map(|&alg| {
                    let cfg = if alg == Algorithm::TricLike {
                        DistConfig {
                            memory_limit_words: Some(cap),
                            ..alg.config()
                        }
                    } else {
                        alg.config()
                    };
                    match count(&g, p, alg, &cfg) {
                        Ok(r) => format!(
                            "{} {} {}",
                            fmt_time(r.modeled_time(&model)),
                            fmt_count(r.stats.max_sent_messages()),
                            fmt_count(r.stats.bottleneck_volume())
                        ),
                        Err(DistError::OutOfMemory { .. }) => "OOM".to_string(),
                        Err(DistError::Deadlock { .. }) => "DEADLOCK".to_string(),
                    }
                })
                .collect();
            rows.push(Row {
                label: format!("p={p}"),
                cells,
            });
        }
        print_table(
            &format!(
                "Fig. 6 ({}): strong scaling, proxy n={} m={} — cells: time / max msgs/PE / bottleneck words",
                ds.paper_stats().name,
                g.num_vertices(),
                g.num_edges()
            ),
            &col_names,
            &rows,
        );
    }
    println!(
        "\npaper shapes: our variants lead on the social/web instances; \
         TriC-like OOMs on the skewed ones but is competitive on roads at \
         small p; indirect variants pay off only at the largest PE counts."
    );
}

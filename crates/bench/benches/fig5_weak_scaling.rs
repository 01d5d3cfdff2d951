//! Figure 5: weak scaling on RGG2D, RHG, GNM and R-MAT, comparing DITRIC,
//! DITRIC², CETRIC, CETRIC² against the TriC-like and HavoqGT-like
//! baselines. Three series per algorithm, as in the paper: total modeled
//! running time, maximum number of outgoing messages over all PEs, and
//! bottleneck communication volume.
//!
//! Problem size per PE is fixed (paper: RGG 2¹⁸, GNM 2¹⁶ vertices/PE; here
//! scaled down by the host budget), total size grows with p.

use cetric::prelude::*;
use tricount_bench::{print_table, run_cell, Row, Scale};

fn main() {
    let scale = Scale::from_env();
    let model = CostModel::supermuc();
    // vertices per PE by family (paper: RGG/RHG 2^18, GNM 2^16, RMAT small)
    let per_pe = |fam: Family| -> u64 {
        match fam {
            Family::Rgg2d | Family::Rhg => 1u64 << (8 + scale.shift()),
            Family::Gnm => 1u64 << (7 + scale.shift()),
            Family::Rmat => 1u64 << (7 + scale.shift()),
        }
    };
    let algs = [
        Algorithm::Ditric,
        Algorithm::Ditric2,
        Algorithm::Cetric,
        Algorithm::Cetric2,
        Algorithm::TricLike,
        Algorithm::HavoqgtLike,
    ];
    let col_names: Vec<&str> = algs.iter().map(|a| a.name()).collect();

    for fam in Family::all() {
        let npp = per_pe(fam);
        let mut rows = Vec::new();
        for p in scale.pe_counts() {
            let n = npp * p as u64;
            let g = fam.generate(n, 1000 + p as u64);
            // TriC-like gets the memory cap that reproduces its crashes on
            // skewed inputs (32 × the per-PE input size)
            let cells = algs
                .iter()
                .map(|&alg| {
                    if alg == Algorithm::TricLike {
                        let dg = DistGraph::new_balanced_vertices(&g, p);
                        let cap = 32
                            * (0..p)
                                .map(|r| dg.local(r).num_local_entries())
                                .max()
                                .unwrap();
                        let cfg = DistConfig {
                            memory_limit_words: Some(cap),
                            ..alg.config()
                        };
                        match count(&g, p, alg, &cfg) {
                            Ok(r) => format!(
                                "{} {} {}",
                                tricount_bench_fmt_time(r.modeled_time(&model)),
                                tricount_bench::fmt_count(r.stats.max_sent_messages()),
                                tricount_bench::fmt_count(r.stats.bottleneck_volume())
                            ),
                            Err(_) => "OOM".to_string(),
                        }
                    } else {
                        run_cell(&g, p, alg, &model)
                    }
                })
                .collect();
            rows.push(Row {
                label: format!("p={p} (n={n})"),
                cells,
            });
        }
        print_table(
            &format!(
                "Fig. 5 ({}): weak scaling, {npp} vertices/PE — cells: time / max msgs/PE / bottleneck words",
                fam.name()
            ),
            &col_names,
            &rows,
        );
    }
    println!(
        "\npaper shapes: all our variants beat the baselines on RGG/RHG/RMAT; \
         TriC-like OOMs on skewed families; on GNM contraction does not pay \
         (no locality) and HavoqGT-like is competitive; indirect variants \
         trade volume for fewer peers."
    );
}

use tricount_bench::fmt_time as tricount_bench_fmt_time;

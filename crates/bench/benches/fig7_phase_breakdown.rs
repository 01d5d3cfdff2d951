//! Figure 7: running time distribution over the algorithm phases
//! (preprocessing / local / global) for the best DITRIC variant vs the best
//! CETRIC variant on selected real-world instances.

use cetric::prelude::*;
use tricount_bench::{fmt_time, print_table, Row, Scale};

fn phase_cells(r: &CountResult, model: &CostModel) -> Vec<String> {
    let t = |name: &str| r.stats.phase_time(name, model);
    let total = r.modeled_time(model);
    vec![
        fmt_time(t("preprocessing")),
        fmt_time(t("local")),
        fmt_time(t("global")),
        fmt_time(total),
    ]
}

fn best(g: &Csr, p: usize, algs: &[Algorithm], model: &CostModel) -> (Algorithm, CountResult) {
    algs.iter()
        .map(|&a| (a, count(g, p, a, &a.config()).unwrap()))
        .min_by(|a, b| {
            a.1.modeled_time(model)
                .partial_cmp(&b.1.modeled_time(model))
                .unwrap()
        })
        .unwrap()
}

fn main() {
    let scale = Scale::from_env();
    let model = CostModel::supermuc();
    let n = 1u64 << (11 + scale.shift());
    let p = *scale.pe_counts().last().unwrap();
    // the instances Fig. 7 selects
    let instances = [
        Dataset::Friendster,
        Dataset::LiveJournal,
        Dataset::Webbase2001,
    ];

    let mut rows = Vec::new();
    for ds in instances {
        let g = ds.generate(n, 42);
        let (da, d) = best(&g, p, &[Algorithm::Ditric, Algorithm::Ditric2], &model);
        let (ca, c) = best(&g, p, &[Algorithm::Cetric, Algorithm::Cetric2], &model);
        assert_eq!(d.triangles, c.triangles);
        rows.push(Row {
            label: format!("{} [{}]", ds.paper_stats().name, da.name()),
            cells: phase_cells(&d, &model),
        });
        rows.push(Row {
            label: format!("{} [{}]", ds.paper_stats().name, ca.name()),
            cells: phase_cells(&c, &model),
        });
        // the volume comparison the paper reads off this figure
        let gv = |r: &CountResult| {
            r.stats
                .phases
                .iter()
                .filter(|ph| ph.name == "global")
                .map(|ph| ph.total_volume())
                .sum::<u64>()
        };
        rows.push(Row {
            label: format!("{}   -> global volume", ds.paper_stats().name),
            cells: vec![
                String::new(),
                String::new(),
                format!(
                    "{:.2}x less w/ CETRIC",
                    gv(&d) as f64 / gv(&c).max(1) as f64
                ),
                String::new(),
            ],
        });
    }
    print_table(
        &format!("Fig. 7: phase break-down at p={p} (best DITRIC vs best CETRIC variant)"),
        &["preprocessing", "local", "global", "total"],
        &rows,
    );
    println!(
        "\npaper shapes: CETRIC halves the global phase via contraction but \
         pays extra preprocessing + local work; on friendster-like inputs \
         (little locality) the reduction is small."
    );
}

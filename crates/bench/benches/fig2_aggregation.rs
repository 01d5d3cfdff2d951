//! Figure 2: running time of the basic distributed EDGEITERATOR on the
//! friendster instance, with and without message aggregation.
//!
//! Series: modeled running time vs PE count, for the unaggregated baseline
//! (one message per cut edge) and DITRIC's dynamically buffered queue.

use cetric::prelude::*;
use tricount_bench::{fmt_count, fmt_time, print_table, Row, Scale};

fn main() {
    let scale = Scale::from_env();
    let n = 1u64 << (11 + scale.shift());
    let g = Dataset::Friendster.generate(n, 4);
    let model = CostModel::supermuc();
    println!(
        "Fig. 2 reproduction: friendster proxy n={} m={}",
        g.num_vertices(),
        g.num_edges()
    );

    let mut rows = Vec::new();
    for p in scale.pe_counts() {
        let unagg = count(
            &g,
            p,
            Algorithm::Unaggregated,
            &Algorithm::Unaggregated.config(),
        )
        .unwrap();
        let agg = count(&g, p, Algorithm::Ditric, &Algorithm::Ditric.config()).unwrap();
        assert_eq!(unagg.triangles, agg.triangles);
        rows.push(Row {
            label: format!("p={p}"),
            cells: vec![
                fmt_time(unagg.modeled_time(&model)),
                fmt_time(agg.modeled_time(&model)),
                format!(
                    "{:.1}x",
                    unagg.modeled_time(&model) / agg.modeled_time(&model)
                ),
                fmt_count(unagg.stats.max_sent_messages()),
                fmt_count(agg.stats.max_sent_messages()),
            ],
        });
    }
    print_table(
        "Fig. 2: message aggregation on friendster",
        &[
            "no aggregation",
            "with aggregation",
            "speedup",
            "msgs/PE (none)",
            "msgs/PE (agg)",
        ],
        &rows,
    );
    println!(
        "\npaper shape: aggregation is an order of magnitude faster because the \
         per-cut-edge variant pays a startup latency per tiny message."
    );
}

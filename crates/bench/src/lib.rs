//! Shared utilities for the figure/table harnesses.
//!
//! Every `benches/figN_*.rs` target is a standalone binary (`harness =
//! false`) that regenerates the corresponding table or figure of the
//! paper's evaluation section and prints it as a text table: the same
//! series the paper plots (modeled running time, max outgoing messages per
//! PE, bottleneck communication volume), produced from real metered runs of
//! the same algorithms on proxy instances.
//!
//! Scale control: set `TRICOUNT_BENCH_SCALE=quick|default|full` to trade
//! fidelity against wall time (quick ≈ seconds, used in CI smoke runs).

#![warn(missing_docs)]

pub mod regress;

use cetric::prelude::*;

/// Benchmark scale selected via `TRICOUNT_BENCH_SCALE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny instances for smoke testing.
    Quick,
    /// Default: minutes of wall time, shapes clearly visible.
    Default,
    /// Larger instances; tens of minutes.
    Full,
}

impl Scale {
    /// Reads the scale from the environment.
    pub fn from_env() -> Scale {
        match std::env::var("TRICOUNT_BENCH_SCALE").as_deref() {
            Ok("quick") => Scale::Quick,
            Ok("full") => Scale::Full,
            _ => Scale::Default,
        }
    }

    /// Scale factor applied to instance sizes (log2).
    pub fn shift(self) -> u32 {
        match self {
            Scale::Quick => 0,
            Scale::Default => 2,
            Scale::Full => 4,
        }
    }

    /// The PE counts swept by the scaling figures.
    pub fn pe_counts(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![2, 4, 8],
            Scale::Default => vec![2, 4, 8, 16, 32],
            Scale::Full => vec![2, 4, 8, 16, 32, 64],
        }
    }
}

/// Machine-readable benchmark artifacts (`BENCH_<name>.json`), hand-rolled
/// because the workspace builds without registry access (no serde). Each
/// harness collects `(label, value)` entries and writes one JSON file next
/// to the human-readable table, so the perf trajectory can be tracked by
/// tooling instead of log-scraping.
pub mod report {
    use std::io::Write;
    use std::path::PathBuf;

    /// Collects benchmark results and serialises them to
    /// `BENCH_<name>.json`.
    pub struct BenchReport {
        name: String,
        scale: String,
        entries: Vec<(String, String)>,
    }

    impl BenchReport {
        /// A report for harness `name` under the given scale.
        pub fn new(name: &str, scale: super::Scale) -> BenchReport {
            BenchReport {
                name: name.to_string(),
                scale: format!("{scale:?}").to_lowercase(),
                entries: Vec::new(),
            }
        }

        /// Records a per-call wall time, in seconds.
        pub fn push_seconds(&mut self, label: &str, seconds: f64) {
            self.push_raw(label, &format_f64(seconds));
        }

        /// Records an already-serialised JSON value under `label`.
        pub fn push_raw(&mut self, label: &str, raw_json: &str) {
            self.entries.push((label.to_string(), raw_json.to_string()));
        }

        /// Serialises the report as a JSON object.
        pub fn to_json(&self) -> String {
            let mut s = String::with_capacity(256 + 64 * self.entries.len());
            s.push_str(&format!(
                "{{\"benchmark\":\"{}\",\"scale\":\"{}\",\"results\":{{",
                self.name, self.scale
            ));
            let parts: Vec<String> = self
                .entries
                .iter()
                .map(|(k, v)| format!("\"{k}\":{v}"))
                .collect();
            s.push_str(&parts.join(","));
            s.push_str("}}");
            s
        }

        /// Writes `BENCH_<name>.json` into `TRICOUNT_BENCH_OUT` (or the
        /// current directory) and returns the path.
        pub fn write(&self) -> std::io::Result<PathBuf> {
            let dir = std::env::var("TRICOUNT_BENCH_OUT").unwrap_or_else(|_| ".".to_string());
            let path = PathBuf::from(dir).join(format!("BENCH_{}.json", self.name));
            let mut f = std::fs::File::create(&path)?;
            f.write_all(self.to_json().as_bytes())?;
            Ok(path)
        }
    }

    /// JSON-safe float formatting (NaN/Inf become 0).
    pub fn format_f64(x: f64) -> String {
        if x.is_finite() {
            format!("{x}")
        } else {
            "0".to_string()
        }
    }
}

/// One row of a result table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (e.g. PE count or instance name).
    pub label: String,
    /// One formatted cell per algorithm/series.
    pub cells: Vec<String>,
}

/// Prints a text table with a header.
pub fn print_table(title: &str, columns: &[&str], rows: &[Row]) {
    println!("\n=== {title} ===");
    let widths: Vec<usize> = columns
        .iter()
        .enumerate()
        .map(|(i, c)| {
            rows.iter()
                .map(|r| r.cells.get(i).map_or(0, |s| s.len()))
                .max()
                .unwrap_or(0)
                .max(c.len())
        })
        .collect();
    let label_w = rows.iter().map(|r| r.label.len()).max().unwrap_or(0).max(5);
    print!("{:<label_w$}", "");
    for (c, w) in columns.iter().zip(&widths) {
        print!(" | {c:>w$}");
    }
    println!();
    for r in rows {
        print!("{:<label_w$}", r.label);
        for (i, w) in widths.iter().enumerate() {
            let empty = String::new();
            let cell = r.cells.get(i).unwrap_or(&empty);
            print!(" | {cell:>w$}");
        }
        println!();
    }
}

/// Formats a modeled time in engineering units.
pub fn fmt_time(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.2}s")
    } else if seconds >= 1e-3 {
        format!("{:.2}ms", seconds * 1e3)
    } else {
        format!("{:.1}us", seconds * 1e6)
    }
}

/// Formats a count with k/M suffixes.
pub fn fmt_count(x: u64) -> String {
    if x >= 10_000_000 {
        format!("{:.1}M", x as f64 / 1e6)
    } else if x >= 10_000 {
        format!("{:.1}k", x as f64 / 1e3)
    } else {
        x.to_string()
    }
}

/// The paper's ID partition of `g` over `p` PEs: contiguous ranges of equal
/// vertex count. The figure reproductions partition this way, not by the
/// library's degree-balanced default, so their tables stay the paper's.
pub fn id_partition(g: &Csr, p: usize) -> DistGraph {
    DistGraph::with_partition(g, Partition::balanced_vertices(g.num_vertices(), p))
}

/// [`count`] on the paper's ID partition ([`id_partition`]).
pub fn count_id(
    g: &Csr,
    p: usize,
    alg: Algorithm,
    cfg: &DistConfig,
) -> Result<CountResult, DistError> {
    cetric::core::run_on(id_partition(g, p), alg, cfg, &Default::default()).map(|(r, _)| r)
}

/// Runs `alg` on the ID partition and formats the Fig. 5/6 triple "time /
/// max msgs / bottleneck volume", or the error.
pub fn run_cell(g: &Csr, p: usize, alg: Algorithm, model: &CostModel) -> String {
    match count_id(g, p, alg, &alg.config()) {
        Ok(r) => format!(
            "{} {} {}",
            fmt_time(r.modeled_time(model)),
            fmt_count(r.stats.max_sent_messages()),
            fmt_count(r.stats.bottleneck_volume())
        ),
        Err(e) => match e {
            DistError::OutOfMemory { .. } => "OOM".to_string(),
            DistError::Deadlock { .. } => "DEADLOCK".to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(fmt_time(2.0), "2.00s");
        assert_eq!(fmt_time(0.0042), "4.20ms");
        assert_eq!(fmt_time(3e-6), "3.0us");
        assert_eq!(fmt_count(999), "999");
        assert_eq!(fmt_count(25_000), "25.0k");
        assert_eq!(fmt_count(25_000_000), "25.0M");
    }

    #[test]
    fn scale_env_parsing() {
        assert_eq!(Scale::Quick.shift(), 0);
        assert!(Scale::Full.pe_counts().contains(&64));
    }

    #[test]
    fn report_serialises() {
        let mut r = report::BenchReport::new("unit_test", Scale::Quick);
        r.push_seconds("kernel/a", 1.5e-6);
        r.push_raw("stats", "{\"x\":1}");
        let j = r.to_json();
        assert!(j.starts_with("{\"benchmark\":\"unit_test\",\"scale\":\"quick\""));
        assert!(j.contains("\"kernel/a\":0.0000015"));
        assert!(j.contains("\"stats\":{\"x\":1}"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn run_cell_produces_output() {
        let g = cetric::gen::gnm(128, 512, 1);
        let cell = run_cell(&g, 4, Algorithm::Ditric, &CostModel::supermuc());
        assert!(cell.contains(' '));
    }
}

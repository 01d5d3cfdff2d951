//! What the count path, the serve path and the layer probes share: run
//! arguments, the result record, and how the program is configured.

use std::io;
use std::path::PathBuf;
use std::time::Instant;

use cetric::comm::{SimOptions, TransportKind};
use cetric::core::config::{Algorithm, DistConfig};
use cetric::core::CountResult;
use cetric::engine::EngineConfig;
use cetric::graph::io::load_graph;
use cetric::graph::{Csr, DistGraph};

use crate::inputs::InputDir;
use crate::spec::pe_count;

/// Arguments of one measured run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// `--smoke`: lower every graph's size exponent by this much.
    pub shrink: u32,
    /// Where generated inputs and reports go.
    pub out: PathBuf,
}

/// What one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<(&'static str, f64)>,
    /// Operations checked against the oracle, and those that failed: a
    /// wrong answer, an error, or a refused request.
    pub attempted: u64,
    pub failed: u64,
    /// Sample counts and the like, for the report file.
    pub notes: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn note(&mut self, name: &'static str, value: f64) {
        self.notes.push((name, value));
    }
}

/// How often set-up is repeated; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// Untimed runs before a timed series, so caches and lazy set-up settle.
pub const WARMUPS: usize = 3;

/// The configuration `alg` counts under: its paper preset on the threads
/// transport.
pub fn dist_config(alg: Algorithm) -> DistConfig {
    DistConfig {
        transport: TransportKind::Threads,
        ..alg.config()
    }
}

/// Set-up of a count: read the graph file and partition it over `p` PEs.
/// Returns the graph with the seconds each step took.
pub fn load_and_partition(dir: &InputDir, p: usize) -> io::Result<(Csr, f64, f64)> {
    let t0 = Instant::now();
    let g = load_graph(dir.graph())?;
    let load_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let dg = DistGraph::new_balanced_vertices(&g, p);
    let partition_s = t0.elapsed().as_secs_f64();
    drop(dg);
    Ok((g, load_s, partition_s))
}

/// One count on a fresh partition of `g` over `p` PEs; only `run_on` is
/// timed (the paper's timed region).
pub fn timed_count(g: &Csr, p: usize, alg: Algorithm, opts: &SimOptions) -> (f64, CountResult) {
    let dg = DistGraph::new_balanced_vertices(g, p);
    let t0 = Instant::now();
    let (result, _) =
        cetric::core::run_on(dg, alg, &dist_config(alg), opts).expect("no memory limit is set");
    (t0.elapsed().as_secs_f64(), result)
}

/// The resident engine every serving measurement uses: `pe_count()` PEs on
/// the threads transport with as many pool workers. The admission queue is
/// deepened so a stall shows as latency, not as refused requests.
pub fn engine_config(cache_words: Option<u64>, wall_profile: bool) -> EngineConfig {
    let p = pe_count();
    let mut cfg = EngineConfig::new(p);
    cfg.dist.transport = TransportKind::Threads;
    cfg.workers = p;
    cfg.queue_capacity = 4096;
    cfg.wall_profile = wall_profile;
    match cache_words {
        Some(words) => cfg.with_cache_budget(words),
        None => cfg,
    }
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

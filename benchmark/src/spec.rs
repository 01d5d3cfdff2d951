//! The fixed part of the benchmark: the four workloads, the metric names
//! and the latency limits. `BENCHMARK.json` at the repository root repeats
//! the names; `suite --smoke` fails when the two disagree.

use cetric::core::config::Algorithm;
use cetric::graph::Csr;

/// Which path of the program a workload spends most of its run on. Every
/// run times both paths on the workload's graph, so that every metric has
/// one definition everywhere; the kind gets [`PRIMARY_SHARE`] of the time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// File to answer: `load_graph` → partition → `run_on`.
    Count,
    /// A resident engine under an open-loop read load.
    Serve,
}

/// Share of a run's seconds given to the path of the workload's kind.
pub const PRIMARY_SHARE: f64 = 0.6;

/// Highest percentile `count_tail_s` is reported at.
pub const COUNT_TAIL_CAP: u32 = 75;

#[derive(Debug, Clone, Copy)]
pub enum GraphSpec {
    /// RGG2D with `2^log_n` vertices at the paper's default density.
    Rgg { log_n: u32 },
    /// Graph 500 R-MAT of the given scale.
    Rmat { scale: u32 },
}

impl GraphSpec {
    /// `shrink` lowers the size exponent (`--smoke` passes 3: 8× smaller).
    pub fn generate(self, seed: u64, shrink: u32) -> Csr {
        match self {
            GraphSpec::Rgg { log_n } => cetric::gen::rgg2d_default(1 << (log_n - shrink), seed),
            GraphSpec::Rmat { scale } => cetric::gen::rmat_default(scale - shrink, seed),
        }
    }
}

/// The read/write load a resident engine is put under.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    /// Open-loop arrival rate, reads per second.
    pub rate: f64,
    /// Remote-adjacency cache budget in words; `None` leaves it off.
    pub cache_words: Option<u64>,
    /// A writer applies one update batch per period beside the reads.
    pub writer_period_ms: Option<u64>,
    /// Open-loop read latency limit in seconds: 2 ms for 90 % of reads, and
    /// 250 ms for 99 % where a writer forces recomputes.
    pub limit_s: f64,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub graph: GraphSpec,
    /// The counting algorithm of the count path.
    pub alg: Algorithm,
    /// The serving load.
    pub load: Load,
}

/// Operations per update batch.
pub const BATCH_OPS: usize = 64;
/// Edges per `EdgeSupport` read and vertices per `VertexLcc` read.
pub const SUPPORT_EDGES: usize = 8;
pub const LCC_VERTICES: usize = 4;
/// Outstanding reads of the closed loop.
pub const CLOSED_OUTSTANDING: usize = 32;
/// Update batches applied after the reads end when a load has no writer,
/// so the update layers are priced on every workload.
pub const TAIL_BATCHES: usize = 5;

const LIGHT_READS: Load = Load {
    rate: 200.0,
    cache_words: None,
    writer_period_ms: None,
    limit_s: 0.002,
};

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "count-rgg-local",
        kind: Kind::Count,
        graph: GraphSpec::Rgg { log_n: 17 },
        alg: Algorithm::Cetric,
        load: LIGHT_READS,
    },
    Spec {
        name: "count-rmat-comm",
        kind: Kind::Count,
        graph: GraphSpec::Rmat { scale: 15 },
        alg: Algorithm::Ditric,
        load: LIGHT_READS,
    },
    Spec {
        name: "serve-read",
        kind: Kind::Serve,
        graph: GraphSpec::Rmat { scale: 14 },
        alg: Algorithm::Ditric,
        load: Load {
            rate: 3000.0,
            cache_words: None,
            writer_period_ms: None,
            limit_s: 0.002,
        },
    },
    Spec {
        name: "serve-mixed-cached",
        kind: Kind::Serve,
        graph: GraphSpec::Rmat { scale: 13 },
        alg: Algorithm::Ditric,
        load: Load {
            rate: 200.0,
            cache_words: Some(4 << 20),
            writer_period_ms: Some(500),
            limit_s: 0.25,
        },
    },
];

pub fn workload(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// PE threads of every distributed run, and the cap on load-generating
/// threads.
pub fn pe_count() -> usize {
    cores().min(4)
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `(name, unit)` of every end-to-end metric, as printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("count_s", "s"),
    ("count_tail_s", "s"),
    ("read_p25_s", "s"),
    ("closed_loop_qps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, as printed with `--trace 1`.
/// The prefix is the crate that owns the work.
pub const PER_LAYER: [(&str, &str); 61] = [
    ("gen.generate_s", "s"),
    ("graph.load_bin_s", "s"),
    ("graph.partition_s", "s"),
    ("graph.orient_s", "s"),
    ("graph.intersect_merge_ns_per_op", "ns"),
    ("graph.intersect_auto_ns_per_op", "ns"),
    ("core.seq_s", "s"),
    ("core.count_s", "s"),
    ("core.p1_count_s", "s"),
    ("core.speedup_p1", "ratio"),
    ("core.preprocessing_s", "s"),
    ("core.local_s", "s"),
    ("core.global_s", "s"),
    ("core.unattributed_s", "s"),
    ("core.work_ops", "count"),
    ("core.triangles", "count"),
    ("comm.sent_words", "count"),
    ("comm.sent_messages", "count"),
    ("comm.peak_buffered_words", "count"),
    ("comm.modeled_s", "s"),
    ("comm.wall_over_modeled", "ratio"),
    ("comm.run_sim_noop_s", "s"),
    ("comm.queue_words_per_s", "1/s"),
    ("net.send_recv_ns", "ns"),
    ("net.barrier_ns", "ns"),
    ("net.lock_wait_s", "s"),
    ("net.barrier_spin_s", "s"),
    ("net.queue_dwell_p50_s", "s"),
    ("par.task_overhead_ns", "ns"),
    ("engine.build_s", "s"),
    ("engine.noop_query_s", "s"),
    ("engine.support_query_s", "s"),
    ("engine.lcc_recompute_s", "s"),
    ("engine.global_recompute_s", "s"),
    ("engine.seal_s", "s"),
    ("engine.admit_s", "s"),
    ("engine.run_s", "s"),
    ("engine.answer_s", "s"),
    ("engine.queue_wait_p50_s", "s"),
    ("engine.queue_wait_p99_s", "s"),
    ("engine.batch_size_mean", "count"),
    ("engine.result_cache_hit_rate", "ratio"),
    ("engine.read_p50_s", "s"),
    ("engine.read_p90_s", "s"),
    ("engine.read_p99_s", "s"),
    ("engine.gen_lag_p99_s", "s"),
    ("engine.slo_miss_fraction", "ratio"),
    ("engine.closed_loop_qps", "1/s"),
    ("engine.update_p50_s", "s"),
    ("cache.hit_rate", "ratio"),
    ("cache.words_saved_fraction", "ratio"),
    ("cache.resident_words", "count"),
    ("cache.support_on_s", "s"),
    ("cache.support_off_s", "s"),
    ("cache.update_on_s", "s"),
    ("cache.update_off_s", "s"),
    ("delta.apply_s", "s"),
    ("delta.words_per_update", "count"),
    ("host.noop_roundtrip_s", "s"),
    ("obs.trace_overhead_fraction", "ratio"),
    ("obs.wall_events_dropped", "count"),
];

//! Engine observability: per-query records and aggregate serving
//! statistics, serialisable to JSON without any external dependency.

use tricount_comm::Counters;
use tricount_core::dist::dispatch::DispatchReport;
use tricount_obs::Summary;

/// One served query, as recorded by [`Engine::tick`](crate::Engine::tick).
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// Query kind ("global", "lcc", "support", "approx").
    pub kind: &'static str,
    /// Whether the answer came from the result cache.
    pub cache_hit: bool,
    /// Time the query waited in the admission queue (submit → the tick
    /// that drained it).
    pub queue_seconds: f64,
    /// Modeled α+β+t_op time of the distributed run that produced the
    /// answer (0 for cache hits).
    pub modeled_seconds: f64,
    /// Wall time of the run on the host (0 for cache hits).
    pub wall_seconds: f64,
    /// Whether the query failed.
    pub failed: bool,
}

/// One engine lifecycle span: a tick stage (`admit` → `run` → `answer`,
/// under an enclosing `batch`) or a graph-mutation stage (`update`, and
/// `seal` inside it when the update folded a graph-changing batch into the
/// epoch it published), in wall nanoseconds since the engine was built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineSpan {
    /// Stage label: "batch", "admit", "run", "answer", "update" or "seal".
    pub label: &'static str,
    /// Tick index the span belongs to (0-based).
    pub batch: u64,
    /// Start of the stage.
    pub begin_nanos: u64,
    /// End of the stage.
    pub end_nanos: u64,
}

/// Inert adjacency-word meters, always zero. The remote-adjacency cache
/// that filled them was removed (DESIGN §5i); the type is kept only so the
/// frozen benchmark driver still builds, and the next `benchmark` PR
/// removes it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdjacencyWords {
    /// Always 0.
    pub words_shipped: u64,
    /// Always 0.
    pub words_saved: u64,
}

/// Aggregate serving statistics, snapshotted by
/// [`Engine::stats`](crate::Engine::stats).
#[derive(Debug, Clone)]
pub struct EngineStats {
    /// Number of PEs the resident graph is partitioned over.
    pub num_ranks: usize,
    /// Current epoch (bumped by [`advance_epoch`](crate::Engine::advance_epoch)).
    pub epoch: u64,
    /// Queries accepted by [`submit`](crate::Engine::submit).
    pub submitted: u64,
    /// Submissions rejected by admission control.
    pub rejected: u64,
    /// Queries answered (including failures).
    pub answered: u64,
    /// Answers served from the result cache.
    pub cache_hits: u64,
    /// Answers that required a distributed run.
    pub cache_misses: u64,
    /// Ticks executed.
    pub batches: u64,
    /// Queries waiting in the queue right now.
    pub queue_depth: usize,
    /// Live entries in the result cache (current epoch).
    pub cache_entries: usize,
    /// How many times the setup (partition + ghost exchange + orientation +
    /// contraction) ran. Stays 1 for the life of the engine — the point of
    /// residency.
    pub setup_runs: u64,
    /// Communication totals of the setup run.
    pub setup_comm: Counters,
    /// Communication totals of the one-time baseline count that seeded the
    /// resident triangle count.
    pub baseline_comm: Counters,
    /// The incrementally maintained resident triangle count.
    pub resident_triangles: u64,
    /// Update batches applied via `apply_updates`.
    pub updates_applied: u64,
    /// Effective edge insertions across all update batches.
    pub edges_inserted: u64,
    /// Effective edge deletions across all update batches.
    pub edges_deleted: u64,
    /// Canonical update operations that were no-ops against the live graph.
    pub update_noops: u64,
    /// Epoch snapshots alive right now (the current epoch plus every
    /// superseded epoch still pinned by an admitted reader).
    pub epochs_live: u64,
    /// Superseded epochs retired (freed after their last reader drained)
    /// since the engine was built.
    pub epochs_retired: u64,
    /// Queries currently pinning an epoch snapshot (admitted, not yet
    /// answered).
    pub readers_pinned: u64,
    /// Lifetime distribution of retired epochs (publish → retire).
    pub epoch_lifetime: Summary,
    /// Communication totals over every update run (route + count +
    /// ghost refresh + fold; the fold sends nothing).
    pub update_comm: Counters,
    /// Sum of modeled times over all update runs.
    pub update_modeled_seconds: f64,
    /// Sum of wall times over all update runs.
    pub update_wall_seconds: f64,
    /// Communication totals over every distributed query run.
    pub query_comm: Counters,
    /// Communication totals restricted to query runs' "preprocessing"
    /// phases — all zeros when residency works as intended (the ghost
    /// degree exchange never repeats).
    pub query_preprocessing_comm: Counters,
    /// Sum of modeled times over all executed runs.
    pub modeled_seconds_total: f64,
    /// Sum of wall times over all executed runs.
    pub wall_seconds_total: f64,
    /// Runs (setup, baseline, queries, updates) that carried
    /// wall-clock contention meters (0 unless `wall_profile` is on).
    pub profiled_runs: u64,
    /// Summed transport queue lock-wait seconds over profiled runs.
    pub lock_wait_seconds_total: f64,
    /// Summed transport barrier spin seconds over profiled runs.
    pub barrier_spin_seconds_total: f64,
    /// Wall events lost to probe-ring overflow over profiled runs.
    pub wall_events_dropped: u64,
    /// Queue-wait latency distribution (submit → draining tick).
    pub queue_wait: Summary,
    /// Wall latency distribution of executed runs (cache hits excluded).
    pub run_wall: Summary,
    /// Modeled latency distribution of executed runs.
    pub run_modeled: Summary,
    /// Threads the engine's executor has started. Constant while the
    /// engine serves: every run reuses threads started at build.
    pub threads_started: u64,
    /// Jobs the executor has run: one per rank of every query and update
    /// run, plus one per tick helper.
    pub jobs_run: u64,
    /// Lifecycle spans of every tick (batch/admit/run/answer stages).
    pub spans: Vec<EngineSpan>,
    /// Per-query records, in answer order.
    pub per_query: Vec<QueryRecord>,
    /// Kernel-dispatch tallies per counting phase, over every query and
    /// update run since the engine was built.
    pub kernel_dispatch: DispatchReport,
    /// Inert, always zero: kept only for the frozen benchmark driver; the
    /// next `benchmark` PR removes it.
    pub query_adjacency: AdjacencyWords,
    /// Inert, always zero: kept only for the frozen benchmark driver; the
    /// next `benchmark` PR removes it.
    pub update_adjacency: AdjacencyWords,
    /// Inert, always 0: kept only for the frozen benchmark driver; the
    /// next `benchmark` PR removes it.
    pub adj_cache_resident_words: u64,
}

impl EngineStats {
    /// Fraction of answers served from cache (0 when nothing answered).
    pub fn cache_hit_rate(&self) -> f64 {
        if self.answered == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.answered as f64
        }
    }

    /// Inert, always 0.0: kept only for the frozen benchmark driver; the
    /// next `benchmark` PR removes it.
    pub fn adj_cache_hit_rate(&self) -> f64 {
        0.0
    }

    /// Serialises the snapshot as a JSON object (hand-rolled: the workspace
    /// builds without registry access, so no serde).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push('{');
        push_field(&mut s, "num_ranks", &self.num_ranks.to_string());
        push_field(&mut s, "epoch", &self.epoch.to_string());
        push_field(&mut s, "submitted", &self.submitted.to_string());
        push_field(&mut s, "rejected", &self.rejected.to_string());
        push_field(&mut s, "answered", &self.answered.to_string());
        push_field(&mut s, "cache_hits", &self.cache_hits.to_string());
        push_field(&mut s, "cache_misses", &self.cache_misses.to_string());
        push_field(&mut s, "cache_hit_rate", &json_f64(self.cache_hit_rate()));
        push_field(&mut s, "batches", &self.batches.to_string());
        push_field(&mut s, "queue_depth", &self.queue_depth.to_string());
        push_field(&mut s, "cache_entries", &self.cache_entries.to_string());
        push_field(&mut s, "setup_runs", &self.setup_runs.to_string());
        push_field(&mut s, "setup_comm", &counters_json(&self.setup_comm));
        push_field(&mut s, "baseline_comm", &counters_json(&self.baseline_comm));
        push_field(
            &mut s,
            "resident_triangles",
            &self.resident_triangles.to_string(),
        );
        push_field(&mut s, "updates_applied", &self.updates_applied.to_string());
        push_field(&mut s, "edges_inserted", &self.edges_inserted.to_string());
        push_field(&mut s, "edges_deleted", &self.edges_deleted.to_string());
        push_field(&mut s, "update_noops", &self.update_noops.to_string());
        push_field(&mut s, "epochs_live", &self.epochs_live.to_string());
        push_field(&mut s, "epochs_retired", &self.epochs_retired.to_string());
        push_field(&mut s, "readers_pinned", &self.readers_pinned.to_string());
        push_field(
            &mut s,
            "epoch_lifetime",
            &summary_json(&self.epoch_lifetime),
        );
        push_field(&mut s, "update_comm", &counters_json(&self.update_comm));
        push_field(
            &mut s,
            "update_modeled_seconds",
            &json_f64(self.update_modeled_seconds),
        );
        push_field(
            &mut s,
            "update_wall_seconds",
            &json_f64(self.update_wall_seconds),
        );
        push_field(&mut s, "query_comm", &counters_json(&self.query_comm));
        push_field(
            &mut s,
            "query_preprocessing_comm",
            &counters_json(&self.query_preprocessing_comm),
        );
        push_field(
            &mut s,
            "modeled_seconds_total",
            &json_f64(self.modeled_seconds_total),
        );
        push_field(
            &mut s,
            "wall_seconds_total",
            &json_f64(self.wall_seconds_total),
        );
        push_field(&mut s, "profiled_runs", &self.profiled_runs.to_string());
        push_field(
            &mut s,
            "lock_wait_seconds_total",
            &json_f64(self.lock_wait_seconds_total),
        );
        push_field(
            &mut s,
            "barrier_spin_seconds_total",
            &json_f64(self.barrier_spin_seconds_total),
        );
        push_field(
            &mut s,
            "wall_events_dropped",
            &self.wall_events_dropped.to_string(),
        );
        push_field(&mut s, "queue_wait", &summary_json(&self.queue_wait));
        push_field(&mut s, "run_wall", &summary_json(&self.run_wall));
        push_field(&mut s, "run_modeled", &summary_json(&self.run_modeled));
        push_field(&mut s, "threads_started", &self.threads_started.to_string());
        push_field(&mut s, "jobs_run", &self.jobs_run.to_string());
        push_field(&mut s, "lifecycle_spans", &self.spans.len().to_string());
        push_field(
            &mut s,
            "kernel_dispatch",
            &dispatch_json(&self.kernel_dispatch),
        );
        let records: Vec<String> = self.per_query.iter().map(record_json).collect();
        s.push_str("\"per_query\":[");
        s.push_str(&records.join(","));
        s.push_str("]}");
        s
    }
}

fn record_json(r: &QueryRecord) -> String {
    format!(
        "{{\"kind\":\"{}\",\"cache_hit\":{},\"queue_seconds\":{},\"modeled_seconds\":{},\"wall_seconds\":{},\"failed\":{}}}",
        r.kind,
        r.cache_hit,
        json_f64(r.queue_seconds),
        json_f64(r.modeled_seconds),
        json_f64(r.wall_seconds),
        r.failed
    )
}

/// Serialises a latency [`Summary`] as a JSON object.
pub fn summary_json(s: &Summary) -> String {
    format!(
        "{{\"count\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
        s.count,
        json_f64(s.mean),
        json_f64(s.p50),
        json_f64(s.p90),
        json_f64(s.p99),
        json_f64(s.max)
    )
}

/// Serialises a [`DispatchReport`] as a JSON object keyed by phase, each
/// phase an object keyed by kernel name.
pub fn dispatch_json(r: &DispatchReport) -> String {
    let phases: Vec<String> = r
        .phases
        .iter()
        .map(|(phase, counters)| {
            let kernels: Vec<String> = counters
                .named()
                .iter()
                .map(|(k, n)| format!("\"{k}\":{n}"))
                .collect();
            format!("\"{phase}\":{{{}}}", kernels.join(","))
        })
        .collect();
    format!("{{{}}}", phases.join(","))
}

/// Serialises the interesting [`Counters`] fields as a JSON object.
pub fn counters_json(c: &Counters) -> String {
    format!(
        "{{\"sent_messages\":{},\"sent_words\":{},\"recv_messages\":{},\"recv_words\":{},\"work_ops\":{},\"coll_alpha_units\":{},\"coll_word_units\":{},\"peak_buffered_words\":{}}}",
        c.sent_messages,
        c.sent_words,
        c.recv_messages,
        c.recv_words,
        c.work_ops,
        c.coll_alpha_units,
        c.coll_word_units,
        c.peak_buffered_words
    )
}

/// Formats an `f64` as a JSON number (JSON has no NaN/Inf; those become 0).
pub fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn push_field(s: &mut String, name: &str, value: &str) {
    s.push('"');
    s.push_str(name);
    s.push_str("\":");
    s.push_str(value);
    s.push(',');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_snapshot_is_wellformed_enough() {
        let stats = EngineStats {
            num_ranks: 4,
            epoch: 0,
            submitted: 3,
            rejected: 1,
            answered: 2,
            cache_hits: 1,
            cache_misses: 1,
            batches: 1,
            queue_depth: 0,
            cache_entries: 1,
            setup_runs: 1,
            setup_comm: Counters::default(),
            baseline_comm: Counters::default(),
            resident_triangles: 7,
            updates_applied: 2,
            edges_inserted: 3,
            edges_deleted: 1,
            update_noops: 1,
            epochs_live: 1,
            epochs_retired: 2,
            readers_pinned: 0,
            epoch_lifetime: Summary::default(),
            update_comm: Counters::default(),
            update_modeled_seconds: 0.01,
            update_wall_seconds: 0.02,
            query_comm: Counters::default(),
            query_preprocessing_comm: Counters::default(),
            modeled_seconds_total: 0.5,
            wall_seconds_total: 0.25,
            profiled_runs: 2,
            lock_wait_seconds_total: 0.003,
            barrier_spin_seconds_total: 0.004,
            wall_events_dropped: 0,
            queue_wait: Summary {
                count: 1,
                mean: 0.001,
                p50: 0.001,
                p90: 0.001,
                p99: 0.001,
                max: 0.001,
            },
            run_wall: Summary::default(),
            run_modeled: Summary::default(),
            threads_started: 5,
            jobs_run: 9,
            spans: vec![EngineSpan {
                label: "batch",
                batch: 0,
                begin_nanos: 0,
                end_nanos: 10,
            }],
            per_query: vec![QueryRecord {
                kind: "global",
                cache_hit: false,
                queue_seconds: 0.001,
                modeled_seconds: 0.5,
                wall_seconds: 0.25,
                failed: false,
            }],
            kernel_dispatch: DispatchReport::of(
                "local",
                tricount_graph::kernels::KernelCounters {
                    merge: 3,
                    gallop: 2,
                    binary: 1,
                },
            ),
            query_adjacency: AdjacencyWords::default(),
            update_adjacency: AdjacencyWords::default(),
            adj_cache_resident_words: 0,
        };
        let j = stats.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"cache_hit_rate\":0.5"));
        assert!(
            !j.contains("adj"),
            "the inert adjacency fields stay out of JSON"
        );
        assert!(!j.contains("transport"), "one data plane: no transport key");
        assert!(
            j.contains("\"kernel_dispatch\":{\"local\":{\"merge\":3,\"gallop\":2,\"binary\":1}}")
        );
        assert!(j.contains("\"per_query\":[{\"kind\":\"global\""));
        assert!(j.contains("\"queue_wait\":{\"count\":1"));
        assert!(j.contains("\"threads_started\":5,\"jobs_run\":9,"));
        assert!(!j.contains("\"pool\""));
        assert!(j.contains("\"queue_seconds\":0.001"));
        assert!(j.contains("\"profiled_runs\":2"));
        assert!(j.contains("\"lock_wait_seconds_total\":0.003"));
        assert!(j.contains("\"barrier_spin_seconds_total\":0.004"));
        assert!(j.contains("\"wall_events_dropped\":0"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}

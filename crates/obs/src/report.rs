//! Human-readable profile reports and registry population from run data.
//!
//! Everything here consumes the schedule-independent [`RunStats`] counters
//! (plus, optionally, the recorded trace) — the same data the chrome
//! exporter uses — and renders either a fixed-width phase table for the
//! terminal or a [`MetricsRegistry`] for Prometheus scraping.

use tricount_comm::cost::CostModel;
use tricount_comm::stats::RunStats;
use tricount_comm::trace::{SpanKind, Trace, TraceEvent};

use crate::hist::LogHistogram;
use crate::prom::MetricsRegistry;

/// Message-size and queue-depth distributions extracted from a trace.
#[derive(Debug, Default)]
pub struct CommHistograms {
    /// Words per point-to-point message (`Sent` events).
    pub message_words: LogHistogram,
    /// Buffered words after each queue post (`Posted`/`Relayed` events) —
    /// the aggregation-queue depth the §IV-A memory lemma bounds.
    pub queue_depth_words: LogHistogram,
}

/// Builds the communication histograms from a recorded trace.
pub fn comm_histograms(trace: &Trace) -> CommHistograms {
    let mut out = CommHistograms::default();
    for events in &trace.per_pe {
        for ev in events {
            match ev {
                TraceEvent::Sent { words, .. } => out.message_words.record(*words),
                TraceEvent::Posted { buffered_after, .. }
                | TraceEvent::Relayed { buffered_after, .. } => {
                    out.queue_depth_words.record(*buffered_after)
                }
                _ => {}
            }
        }
    }
    out
}

/// Per-phase wall time: max over PEs of the i-th phase span's wall
/// duration (None when the trace carries no span for that phase).
fn phase_wall_ms(trace: &Trace, phase_index: usize, name: &str) -> Option<f64> {
    let mut max = None;
    for spans in &trace.spans {
        let span = spans
            .iter()
            .filter(|s| s.kind == SpanKind::Phase)
            .nth(phase_index)?;
        if span.label != name {
            return None;
        }
        let ms = span.wall_seconds() * 1e3;
        max = Some(max.map_or(ms, |m: f64| m.max(ms)));
    }
    max
}

/// Renders the per-phase breakdown table: modeled time, measured wall time
/// (traced runs), message/volume/work maxima — the numbers behind the
/// paper's Fig. 5-style analysis.
pub fn phase_report(stats: &RunStats, trace: Option<&Trace>, cost: &CostModel) -> String {
    let mut out = String::new();
    out.push_str(&format!("phase breakdown (p = {})\n", stats.p));
    out.push_str(&format!(
        "{:<16} {:>12} {:>12} {:>10} {:>14} {:>12} {:>14}\n",
        "phase", "modeled ms", "wall ms", "max msgs", "bottleneck wds", "work ops", "peak buffered"
    ));
    for (pi, ph) in stats.phases.iter().enumerate() {
        let wall = trace
            .and_then(|t| phase_wall_ms(t, pi, &ph.name))
            .map_or("-".to_string(), |ms| format!("{ms:.3}"));
        out.push_str(&format!(
            "{:<16} {:>12.3} {:>12} {:>10} {:>14} {:>12} {:>14}\n",
            ph.name,
            ph.modeled_time(cost) * 1e3,
            wall,
            ph.max_sent_messages(),
            ph.bottleneck_volume(),
            ph.total_work(),
            ph.max_peak_buffered(),
        ));
    }
    out.push_str(&format!(
        "total modeled: {:.3} ms\n",
        stats.modeled_time(cost) * 1e3
    ));
    out
}

/// One phase's modeled-vs-measured comparison in a [`ModelFitReport`].
#[derive(Debug, Clone)]
pub struct PhaseFit {
    /// Phase name.
    pub name: String,
    /// Modeled phase time (max over ranks, seconds).
    pub modeled_seconds: f64,
    /// Measured wall phase time (max over ranks, seconds).
    pub measured_seconds: f64,
    /// `measured / modeled` (∞ when the model predicts zero but the wall
    /// clock disagrees).
    pub ratio: f64,
    /// Whether the discrepancy factor `max(ratio, 1/ratio)` exceeds the
    /// report's threshold.
    pub flagged: bool,
}

/// Modeled-vs-measured fit of one run: per-phase ratios with outlier
/// flagging, and a calibration hand-off that feeds the overall discrepancy
/// back into [`CostModel::calibrated`].
///
/// This is the honesty check the dual-clock trace visualizes: phases where
/// the α/β/t_op fiction and the host's wall clock disagree by more than
/// `threshold`× are exactly where contention (or an unmodeled cost) lives.
#[derive(Debug, Clone)]
pub struct ModelFitReport {
    /// Per-phase fits, in execution order (phases without wall
    /// measurements are skipped).
    pub phases: Vec<PhaseFit>,
    /// Discrepancy factor above which a phase is flagged.
    pub threshold: f64,
    /// Total modeled seconds over the compared phases.
    pub modeled_total: f64,
    /// Total measured wall seconds over the compared phases.
    pub measured_total: f64,
}

impl ModelFitReport {
    /// Compares each phase's modeled time against its measured wall time,
    /// flagging phases whose discrepancy factor exceeds `threshold`
    /// (i.e. measured/modeled outside `[1/threshold, threshold]`). Phases
    /// with no wall measurement (synthetic stats) are skipped.
    pub fn compute(stats: &RunStats, cost: &CostModel, threshold: f64) -> ModelFitReport {
        let threshold = threshold.max(1.0);
        let mut phases = Vec::new();
        let mut modeled_total = 0.0;
        let mut measured_total = 0.0;
        for ph in &stats.phases {
            let measured = ph.max_wall();
            if measured <= 0.0 {
                continue;
            }
            let modeled = ph.modeled_time(cost);
            let ratio = if modeled > 0.0 {
                measured / modeled
            } else {
                f64::INFINITY
            };
            let factor = if ratio > 0.0 {
                ratio.max(1.0 / ratio)
            } else {
                f64::INFINITY
            };
            modeled_total += modeled;
            measured_total += measured;
            phases.push(PhaseFit {
                name: ph.name.clone(),
                modeled_seconds: modeled,
                measured_seconds: measured,
                ratio,
                flagged: factor > threshold,
            });
        }
        ModelFitReport {
            phases,
            threshold,
            modeled_total,
            measured_total,
        }
    }

    /// Overall `measured / modeled` ratio (1.0 when nothing was compared).
    pub fn overall_ratio(&self) -> f64 {
        if self.modeled_total > 0.0 && self.measured_total > 0.0 {
            self.measured_total / self.modeled_total
        } else {
            1.0
        }
    }

    /// Phases whose discrepancy exceeded the threshold.
    pub fn flagged(&self) -> Vec<&PhaseFit> {
        self.phases.iter().filter(|f| f.flagged).collect()
    }

    /// Feeds the overall discrepancy back into the cost model: every
    /// constant of `base` is scaled by [`ModelFitReport::overall_ratio`],
    /// so the returned model predicts this host's measured totals.
    /// (A proper per-constant fit needs the probe binaries — see
    /// `tricount-pingpong`/`tricount-allgather`; this is the coarse
    /// single-run correction.)
    pub fn calibrated(&self, base: &CostModel) -> CostModel {
        let s = self.overall_ratio();
        CostModel::calibrated(base.alpha * s, base.beta * s, base.t_op * s)
    }

    /// Renders the fit table plus the flagged-phase verdict.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "model fit (flag threshold {:.1}x)\n{:<16} {:>12} {:>12} {:>10}  {}\n",
            self.threshold, "phase", "modeled ms", "wall ms", "wall/model", "verdict"
        ));
        for f in &self.phases {
            out.push_str(&format!(
                "{:<16} {:>12.3} {:>12.3} {:>10.2}  {}\n",
                f.name,
                f.modeled_seconds * 1e3,
                f.measured_seconds * 1e3,
                f.ratio,
                if f.flagged { "FLAGGED" } else { "ok" }
            ));
        }
        out.push_str(&format!(
            "overall wall/model: {:.2} ({} of {} phases flagged)\n",
            self.overall_ratio(),
            self.flagged().len(),
            self.phases.len()
        ));
        out
    }
}

/// Renders a per-label span summary (count, total wall ms) aggregated over
/// all PEs, in first-appearance order.
pub fn span_summary(trace: &Trace) -> String {
    // (kind name, label) -> (count, wall s); Vec keeps label order
    // deterministic without relying on hash iteration.
    type SpanAgg = ((&'static str, String), (u64, f64));
    let mut rows: Vec<SpanAgg> = Vec::new();
    for spans in &trace.spans {
        for s in spans {
            let key = (s.kind.name(), s.label.clone());
            match rows.iter_mut().find(|(k, _)| *k == key) {
                Some((_, acc)) => {
                    acc.0 += 1;
                    acc.1 += s.wall_seconds();
                }
                None => rows.push((key, (1, s.wall_seconds()))),
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!(
        "{:<12} {:<20} {:>8} {:>14}\n",
        "kind", "label", "count", "wall ms"
    ));
    for ((kind, label), (count, wall)) in rows {
        out.push_str(&format!(
            "{:<12} {:<20} {:>8} {:>14.3}\n",
            kind,
            label,
            count,
            wall * 1e3
        ));
    }
    out
}

/// Renders kernel-dispatch tallies as a fixed-width table: one row per
/// (phase, kernel) with the call count and its share of the phase.
///
/// Takes plain `(phase, [(kernel, calls)])` data so the obs crate stays
/// decoupled from the kernel layer — callers flatten their
/// `DispatchReport` (e.g. `tricount_core::dist::dispatch`) into this shape
/// via `KernelCounters::named()`. Zero-call kernels are elided; phases
/// with no dispatches at all are skipped.
pub fn dispatch_table(phases: &[(&str, Vec<(&str, u64)>)]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16} {:<8} {:>12} {:>8}\n",
        "phase", "kernel", "calls", "share"
    ));
    let mut any = false;
    for (phase, kernels) in phases {
        let total: u64 = kernels.iter().map(|&(_, n)| n).sum();
        if total == 0 {
            continue;
        }
        for &(kernel, n) in kernels {
            if n == 0 {
                continue;
            }
            any = true;
            out.push_str(&format!(
                "{:<16} {:<8} {:>12} {:>7.1}%\n",
                phase,
                kernel,
                n,
                n as f64 / total as f64 * 100.0
            ));
        }
    }
    if !any {
        out.push_str("(no kernel dispatches recorded)\n");
    }
    out
}

/// Populates a [`MetricsRegistry`] from a run's statistics (and, when a
/// trace is available, its message-size/queue-depth histograms).
pub fn run_metrics(stats: &RunStats, cost: &CostModel, trace: Option<&Trace>) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    let t = stats.totals();
    reg.gauge(
        "tricount_run_pes",
        "Number of simulated PEs",
        stats.p as f64,
    );
    reg.counter(
        "tricount_run_sent_messages_total",
        "Point-to-point messages sent",
        t.sent_messages,
    );
    reg.counter(
        "tricount_run_sent_words_total",
        "Words sent point-to-point",
        t.sent_words,
    );
    reg.counter(
        "tricount_run_recv_messages_total",
        "Point-to-point messages received",
        t.recv_messages,
    );
    reg.counter(
        "tricount_run_work_ops_total",
        "Metered local work operations",
        t.work_ops,
    );
    reg.gauge(
        "tricount_run_modeled_seconds",
        "Modeled run time under the cost model",
        stats.modeled_time(cost),
    );
    reg.gauge(
        "tricount_run_max_sent_messages",
        "Per-PE message-count bottleneck",
        stats.max_sent_messages() as f64,
    );
    reg.gauge(
        "tricount_run_bottleneck_words",
        "Per-PE send-volume bottleneck",
        stats.bottleneck_volume() as f64,
    );
    for ph in &stats.phases {
        reg.gauge_with(
            "tricount_phase_modeled_seconds",
            "Per-phase modeled time",
            &[("phase", ph.name.clone())],
            ph.modeled_time(cost),
        );
    }
    if let Some(trace) = trace {
        let h = comm_histograms(trace);
        reg.histogram_units(
            "tricount_message_words",
            "Point-to-point message sizes in words",
            &h.message_words,
        );
        reg.histogram_units(
            "tricount_queue_depth_words",
            "Aggregation-queue depth after each post",
            &h.queue_depth_words,
        );
    }
    reg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prom::parse_exposition;
    use tricount_comm::stats::{Counters, PhaseStats};
    use tricount_comm::trace::{SpanRecord, SpanStamp};

    fn stats() -> RunStats {
        RunStats {
            p: 1,
            phases: vec![PhaseStats::unmeasured(
                "local",
                vec![Counters {
                    work_ops: 10,
                    sent_messages: 2,
                    sent_words: 8,
                    recv_messages: 2,
                    recv_words: 8,
                    ..Counters::default()
                }],
            )],
            contention: None,
        }
    }

    #[test]
    fn model_fit_flags_discrepant_phases() {
        let cost = CostModel::calibrated(0.0, 0.0, 1e-3); // 1 ms per op
        let mut s = stats(); // one phase, 10 work ops → modeled 10 ms
        s.phases[0].wall_per_rank = vec![0.200]; // measured 200 ms: 20x off
        let fit = ModelFitReport::compute(&s, &cost, 3.0);
        assert_eq!(fit.phases.len(), 1);
        assert!(fit.phases[0].flagged);
        assert!((fit.phases[0].ratio - 20.0).abs() < 1e-9);
        assert_eq!(fit.flagged().len(), 1);
        let rendered = fit.render();
        assert!(rendered.contains("FLAGGED"), "{rendered}");
        // feeding the discrepancy back scales the model onto the host
        let cal = fit.calibrated(&cost);
        assert!((cal.t_op - 20e-3).abs() < 1e-12);

        // a phase within tolerance is not flagged
        s.phases[0].wall_per_rank = vec![0.012];
        let fit = ModelFitReport::compute(&s, &cost, 3.0);
        assert!(!fit.phases[0].flagged);

        // synthetic stats (no wall measurements) compare nothing
        let fit = ModelFitReport::compute(&stats(), &cost, 3.0);
        assert!(fit.phases.is_empty());
        assert_eq!(fit.overall_ratio(), 1.0);
    }

    #[test]
    fn phase_report_renders_all_phases() {
        let rep = phase_report(&stats(), None, &CostModel::supermuc());
        assert!(rep.contains("local"));
        assert!(rep.contains("total modeled"));
    }

    #[test]
    fn phase_report_includes_wall_time_from_spans() {
        let trace = Trace {
            per_pe: vec![Vec::new()],
            spans: vec![vec![SpanRecord {
                kind: SpanKind::Phase,
                label: "local".to_string(),
                begin: SpanStamp { wall_nanos: 0 },
                end: SpanStamp {
                    wall_nanos: 2_000_000,
                },
            }]],
        };
        let rep = phase_report(&stats(), Some(&trace), &CostModel::supermuc());
        assert!(rep.contains("2.000"), "{rep}");
        let summary = span_summary(&trace);
        assert!(summary.contains("phase"));
        assert!(summary.contains("local"));
    }

    #[test]
    fn dispatch_table_elides_zero_rows() {
        let rows = vec![
            (
                "local",
                vec![("merge", 10u64), ("gallop", 30), ("binary", 0)],
            ),
            ("global", vec![("merge", 0u64), ("gallop", 0)]),
        ];
        let t = dispatch_table(&rows);
        assert!(t.contains("local"), "{t}");
        assert!(t.contains("gallop"), "{t}");
        assert!(t.contains("75.0%"), "{t}");
        assert!(!t.contains("binary"), "{t}");
        assert!(!t.contains("global"), "{t}");
        let empty = dispatch_table(&[("local", vec![("merge", 0u64)])]);
        assert!(empty.contains("no kernel dispatches"), "{empty}");
    }

    #[test]
    fn run_metrics_render_and_parse() {
        let trace = Trace {
            per_pe: vec![vec![
                TraceEvent::Sent {
                    to: 0,
                    words: 4,
                    seq: 0,
                },
                TraceEvent::Posted {
                    dest: 0,
                    hop: 0,
                    payload_words: 3,
                    payload_hash: 1,
                    buffered_after: 5,
                },
            ]],
            ..Trace::default()
        };
        let reg = run_metrics(&stats(), &CostModel::supermuc(), Some(&trace));
        let samples = parse_exposition(&reg.render()).expect("parse");
        assert!(samples
            .iter()
            .any(|s| s.name == "tricount_run_sent_messages_total" && s.value == 2.0));
        assert!(samples
            .iter()
            .any(|s| s.name == "tricount_message_words_count" && s.value == 1.0));
        assert!(samples
            .iter()
            .any(|s| s.name == "tricount_phase_modeled_seconds"));
    }
}

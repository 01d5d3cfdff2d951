//! Chrome-trace (Perfetto-loadable) JSON export of a simulated run.
//!
//! The exporter renders **one track per PE** with its barrier-delimited
//! phase spans, a nested work/communication split, flow arrows for every
//! point-to-point message, and a buffered-words counter series — the
//! per-PE interleaving view the paper's Fig. 5/Fig. 7 analysis needs.
//!
//! **Determinism.** Receive order depends on the thread schedule, and wall
//! stamps differ every run. Exported timelines therefore *reconstruct* all
//! timestamps from schedule-independent data only: per-phase counter
//! deltas priced under the cost model give the phase boundaries,
//! `t_op·work_ops` gives each PE's work slice, and send timestamps replay
//! each PE's `Sent` events in program order, charging `α` per message
//! (the matching flow arrival is `send + β·ℓ`). Receive events are ignored
//! entirely. The same trace always renders to the same bytes, across
//! schedule perturbations too — which the exporter tests assert.

use tricount_comm::cost::CostModel;
use tricount_comm::stats::RunStats;
use tricount_comm::trace::{Trace, TraceEvent};

use crate::wall::WallTimeline;

/// Escapes a string for embedding in a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats a timestamp/duration for the JSON output (plain `Display`,
/// which is deterministic and shortest-round-trip in Rust).
fn num(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

/// An incremental builder of chrome-trace JSON ("trace event format").
/// Timestamps and durations are in microseconds.
#[derive(Default)]
pub struct ChromeTraceBuilder {
    events: Vec<String>,
}

impl ChromeTraceBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        ChromeTraceBuilder::default()
    }

    /// Number of events emitted so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were emitted.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Names the process `pid`.
    pub fn process_name(&mut self, pid: u64, name: &str) {
        self.events.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"{}\"}}}}",
            esc(name)
        ));
    }

    /// Names the thread (track) `tid` of process `pid`.
    pub fn thread_name(&mut self, pid: u64, tid: u64, name: &str) {
        self.events.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
            esc(name)
        ));
    }

    /// A complete slice (`"X"`) on track `tid`: `[ts, ts+dur]` µs.
    pub fn complete(&mut self, pid: u64, tid: u64, cat: &str, name: &str, ts: f64, dur: f64) {
        self.events.push(format!(
            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"cat\":\"{}\",\"name\":\"{}\",\"ts\":{},\"dur\":{}}}",
            esc(cat),
            esc(name),
            num(ts),
            num(dur)
        ));
    }

    /// A counter sample (`"C"`): the value of `series` at `ts`.
    pub fn counter(&mut self, pid: u64, tid: u64, name: &str, series: &str, ts: f64, value: u64) {
        self.events.push(format!(
            "{{\"ph\":\"C\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{}\",\"ts\":{},\"args\":{{\"{}\":{value}}}}}",
            esc(name),
            num(ts),
            esc(series)
        ));
    }

    /// A flow-arrow start (`"s"`) bound to the slice enclosing `ts`.
    pub fn flow_start(&mut self, id: u64, pid: u64, tid: u64, cat: &str, name: &str, ts: f64) {
        self.events.push(format!(
            "{{\"ph\":\"s\",\"id\":{id},\"pid\":{pid},\"tid\":{tid},\"cat\":\"{}\",\"name\":\"{}\",\"ts\":{}}}",
            esc(cat),
            esc(name),
            num(ts)
        ));
    }

    /// The matching flow-arrow end (`"f"`, binding point "enclosing").
    pub fn flow_finish(&mut self, id: u64, pid: u64, tid: u64, cat: &str, name: &str, ts: f64) {
        self.events.push(format!(
            "{{\"ph\":\"f\",\"bp\":\"e\",\"id\":{id},\"pid\":{pid},\"tid\":{tid},\"cat\":\"{}\",\"name\":\"{}\",\"ts\":{}}}",
            esc(cat),
            esc(name),
            num(ts)
        ));
    }

    /// Assembles the final JSON document.
    pub fn finish(self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        out.push_str(&self.events.join(",\n"));
        out.push_str("\n]}\n");
        out
    }
}

/// What [`export_run`] produced, with the counts the acceptance criteria
/// compare.
#[derive(Debug)]
pub struct RunExport {
    /// The chrome-trace JSON document.
    pub json: String,
    /// Number of flow arrows (message send→deliver pairs). Equals the
    /// run's `totals().recv_messages`: every sent message is received.
    pub flow_arrows: u64,
    /// Number of PE tracks rendered.
    pub tracks: usize,
}

const PID: u64 = 0;
/// Seconds → chrome-trace microseconds.
const US: f64 = 1e6;

/// Renders a recorded run as chrome-trace JSON: one track per PE, one
/// slice per phase with a nested work/communication split, one flow arrow
/// per point-to-point message, and a `buffered_words` counter series from
/// the queue's `Posted` events. See the module docs for why timestamps are
/// reconstructed from counters rather than read off the live clock.
pub fn export_run(trace: &Trace, stats: &RunStats, cost: &CostModel) -> RunExport {
    let p = stats.p;
    assert_eq!(
        trace.per_pe.len(),
        p,
        "trace and stats disagree on the PE count"
    );
    let mut b = ChromeTraceBuilder::new();
    let flow_arrows = emit_modeled(&mut b, trace, stats, cost);
    RunExport {
        json: b.finish(),
        flow_arrows,
        tracks: p,
    }
}

/// Emits the modeled (reconstructed) machine into `b` as process [`PID`]
/// and returns the flow-arrow count. Shared by [`export_run`] and the
/// modeled half of [`export_dual`].
fn emit_modeled(
    b: &mut ChromeTraceBuilder,
    trace: &Trace,
    stats: &RunStats,
    cost: &CostModel,
) -> u64 {
    let p = stats.p;
    b.process_name(PID, "simulated machine");
    for r in 0..p {
        b.thread_name(PID, r as u64, &format!("PE {r}"));
    }

    // Deterministic phase boundaries: cumulative per-phase modeled times
    // (max over ranks, the same number `RunStats::phase_time` reports).
    let mut bounds = Vec::with_capacity(stats.phases.len() + 1);
    bounds.push(0.0f64);
    for ph in &stats.phases {
        bounds.push(bounds.last().expect("nonempty") + ph.modeled_time(cost));
    }

    // Per-PE, per-phase slices: the phase span plus a work/comm split.
    let mut work_dur = vec![vec![0.0f64; stats.phases.len()]; p];
    for (pi, ph) in stats.phases.iter().enumerate() {
        let t0 = bounds[pi] * US;
        let dur = (bounds[pi + 1] - bounds[pi]) * US;
        for (r, c) in ph.per_rank.iter().enumerate() {
            b.complete(PID, r as u64, "phase", &ph.name, t0, dur);
            let work = cost.t_op * c.work_ops as f64;
            let comm = (c.modeled_time(cost) - work).max(0.0);
            work_dur[r][pi] = work;
            if c.work_ops > 0 {
                b.complete(PID, r as u64, "work", "work", t0, work * US);
            }
            if comm > 0.0 {
                b.complete(PID, r as u64, "comm", "comm", t0 + work * US, comm * US);
            }
        }
    }

    // Flow arrows: replay each PE's Sent events in program order, charging
    // α per message after that phase's work slice — the runtime's own
    // sender-side rule. The arrival is send + β·ℓ on the destination track.
    let mut flow_arrows = 0u64;
    let mut flow_id = 0u64;
    for (r, events) in trace.per_pe.iter().enumerate() {
        let mut pi = 0usize;
        let mut cum = 0.0f64; // seconds of send charges within the phase
        for ev in events {
            match ev {
                TraceEvent::PhaseEnded { .. } => {
                    // The runtime may record more phase ends than the stats
                    // keep (an inactive trailing "rest" is dropped).
                    if pi + 1 < stats.phases.len() {
                        pi += 1;
                    }
                    cum = 0.0;
                }
                TraceEvent::Sent { to, words, .. } => {
                    cum += cost.alpha;
                    let send_ts = bounds[pi] + work_dur[r][pi] + cum;
                    let arrival = send_ts + cost.beta * *words as f64;
                    flow_id += 1;
                    flow_arrows += 1;
                    b.flow_start(flow_id, PID, r as u64, "msg", "msg", send_ts * US);
                    b.flow_finish(flow_id, PID, *to as u64, "msg", "msg", arrival * US);
                }
                TraceEvent::Posted { buffered_after, .. }
                | TraceEvent::Relayed { buffered_after, .. } => {
                    let ts = bounds[pi] + work_dur[r][pi] + cum;
                    b.counter(
                        PID,
                        r as u64,
                        "buffered_words",
                        "words",
                        ts * US,
                        *buffered_after,
                    );
                }
                _ => {}
            }
        }
    }

    flow_arrows
}

/// What [`export_dual`] produced.
#[derive(Debug)]
pub struct DualExport {
    /// The chrome-trace JSON document: process 0 is the modeled machine,
    /// process 1 the measured wall clock.
    pub json: String,
    /// Flow arrows on the modeled track (= `totals().recv_messages`).
    pub modeled_flows: u64,
    /// Flow arrows on the measured track (= matched send→recv pairs in the
    /// wall timeline; ring overflow can make this smaller).
    pub measured_flows: u64,
    /// PE tracks per process.
    pub tracks: usize,
}

/// Wall nanoseconds → chrome-trace microseconds.
const NS_TO_US: f64 = 1e-3;

/// Renders a wall-profiled run as a **dual-clock** chrome trace: process 0
/// is the deterministic modeled reconstruction of [`export_run`], process 1
/// is the measured wall clock of the same run — per-PE phase slices at
/// their real wall boundaries, barrier-spin slices, flow arrows at the
/// actual send→recv stamps, and per-PE contention counter series
/// (`send_lock_wait_ns`, `recv_lock_wait_ns`, `barrier_spin_ns`,
/// `occupancy_highwater`). Loading the document shows fiction and fact
/// side by side, per PE.
///
/// The two processes tick on different epochs (the model starts at 0; the
/// wall track starts when the transport was built), so compare *durations
/// and shapes*, not absolute offsets. The modeled half stays byte-stable
/// across runs; the measured half is honest and therefore is not.
pub fn export_dual(
    trace: &Trace,
    stats: &RunStats,
    cost: &CostModel,
    timeline: &WallTimeline,
) -> DualExport {
    let p = stats.p;
    assert_eq!(timeline.p, p, "timeline and stats disagree on the PE count");
    let mut b = ChromeTraceBuilder::new();
    let modeled_flows = emit_modeled(&mut b, trace, stats, cost);

    const WPID: u64 = 1;
    b.process_name(WPID, "measured (wall)");
    for r in 0..p {
        b.thread_name(WPID, r as u64, &format!("PE {r}"));
    }

    // Measured phase slices: each rank's own cumulative wall seconds. The
    // phase records are stamped on the runtime's epoch, not the
    // transport's, so the slices carry phase *durations* laid end to end
    // from 0 — aligned with the flow stamps only up to setup skew.
    for r in 0..p {
        let mut t = 0.0f64;
        for ph in &stats.phases {
            let dur = ph.wall_per_rank.get(r).copied().unwrap_or(0.0);
            b.complete(WPID, r as u64, "phase", &ph.name, t * US, dur * US);
            t += dur;
        }
    }

    // Barrier spin: real intervals from the wall probe.
    for (r, ivs) in timeline.barriers.iter().enumerate() {
        for iv in ivs {
            let dur = iv.exit_nanos.saturating_sub(iv.enter_nanos);
            b.complete(
                WPID,
                r as u64,
                "barrier",
                "barrier spin",
                iv.enter_nanos as f64 * NS_TO_US,
                dur as f64 * NS_TO_US,
            );
        }
    }

    // Flow arrows at the real send→recv stamps. Ids continue past the
    // modeled ones (they must be unique per document).
    let mut flow_id = u64::MAX / 2;
    for f in &timeline.flows {
        flow_id += 1;
        b.flow_start(
            flow_id,
            WPID,
            f.src as u64,
            "msg",
            "msg",
            f.send_nanos as f64 * NS_TO_US,
        );
        b.flow_finish(
            flow_id,
            WPID,
            f.dst as u64,
            "msg",
            "msg",
            f.recv_nanos as f64 * NS_TO_US,
        );
    }

    // Contention counter series, one closing sample per PE.
    if let Some(c) = &stats.contention {
        let ts = timeline.end_nanos as f64 * NS_TO_US;
        for r in 0..p.min(c.p) {
            let tid = r as u64;
            b.counter(
                WPID,
                tid,
                "send_lock_wait_ns",
                "ns",
                ts,
                c.send_lock_wait_nanos[r],
            );
            b.counter(
                WPID,
                tid,
                "recv_lock_wait_ns",
                "ns",
                ts,
                c.recv_lock_wait_nanos[r],
            );
            b.counter(
                WPID,
                tid,
                "barrier_spin_ns",
                "ns",
                ts,
                c.barrier_spin_nanos[r],
            );
            b.counter(
                WPID,
                tid,
                "occupancy_highwater",
                "msgs",
                ts,
                c.occupancy_highwater[r],
            );
        }
    }

    DualExport {
        json: b.finish(),
        modeled_flows,
        measured_flows: timeline.flows.len() as u64,
        tracks: p,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;
    use tricount_comm::stats::{Counters, PhaseStats};

    fn tiny_stats() -> RunStats {
        let c0 = Counters {
            work_ops: 100,
            sent_messages: 1,
            sent_words: 4,
            ..Counters::default()
        };
        let c1 = Counters {
            recv_messages: 1,
            recv_words: 4,
            ..Counters::default()
        };
        RunStats {
            p: 2,
            phases: vec![PhaseStats::unmeasured("local", vec![c0, c1])],
            contention: None,
        }
    }

    fn tiny_trace() -> Trace {
        Trace {
            per_pe: vec![
                vec![
                    TraceEvent::Sent {
                        to: 1,
                        words: 4,
                        seq: 0,
                    },
                    TraceEvent::PhaseEnded {
                        name: "local".to_string(),
                    },
                ],
                vec![
                    TraceEvent::Received {
                        from: 0,
                        words: 4,
                        seq: 0,
                    },
                    TraceEvent::PhaseEnded {
                        name: "local".to_string(),
                    },
                ],
            ],
            ..Trace::default()
        }
    }

    #[test]
    fn export_is_valid_json_with_expected_counts() {
        let cost = CostModel::supermuc();
        let export = export_run(&tiny_trace(), &tiny_stats(), &cost);
        validate(&export.json).expect("valid JSON");
        assert_eq!(export.tracks, 2);
        assert_eq!(export.flow_arrows, 1);
        assert!(export.json.contains("\"name\":\"PE 1\""));
        assert!(export.json.contains("\"name\":\"local\""));
        assert!(export.json.contains("\"ph\":\"s\""));
        assert!(export.json.contains("\"ph\":\"f\""));
    }

    #[test]
    fn export_is_reproducible() {
        let cost = CostModel::supermuc();
        let a = export_run(&tiny_trace(), &tiny_stats(), &cost);
        let b = export_run(&tiny_trace(), &tiny_stats(), &cost);
        assert_eq!(a.json, b.json);
    }

    #[test]
    fn receive_events_do_not_shift_timestamps() {
        // Schedule-dependent data (receive order) must not affect output:
        // add extra Received events and compare.
        let cost = CostModel::supermuc();
        let base = export_run(&tiny_trace(), &tiny_stats(), &cost);
        let mut shuffled = tiny_trace();
        shuffled.per_pe[1].insert(
            0,
            TraceEvent::Received {
                from: 0,
                words: 4,
                seq: 0,
            },
        );
        shuffled.per_pe[1].remove(1);
        let again = export_run(&shuffled, &tiny_stats(), &cost);
        assert_eq!(base.json, again.json);
    }

    #[test]
    fn dual_export_renders_both_clocks() {
        use tricount_comm::{ContentionMeters, PeWallLog, WallEvent, WallEventKind, WallProfile};
        let cost = CostModel::supermuc();
        let mut stats = tiny_stats();
        stats.phases[0].wall_per_rank = vec![0.001, 0.002];
        let mut meters0 = ContentionMeters::new(2);
        meters0.send_lock_wait_nanos[1] = 40;
        meters0.occupancy_highwater[1] = 1;
        stats.contention = Some(
            WallProfile {
                p: 2,
                ring_capacity: 64,
                per_pe: vec![
                    PeWallLog {
                        rank: 0,
                        events: Vec::new(),
                        dropped: 0,
                        meters: meters0.clone(),
                    },
                    PeWallLog {
                        rank: 1,
                        events: Vec::new(),
                        dropped: 0,
                        meters: ContentionMeters::new(2),
                    },
                ],
            }
            .contention(),
        );
        let profile = WallProfile {
            p: 2,
            ring_capacity: 64,
            per_pe: vec![
                PeWallLog {
                    rank: 0,
                    events: vec![
                        WallEvent {
                            kind: WallEventKind::Send {
                                to: 1,
                                seq: 0,
                                words: 4,
                            },
                            t_nanos: 100,
                        },
                        WallEvent {
                            kind: WallEventKind::BarrierEnter,
                            t_nanos: 200,
                        },
                        WallEvent {
                            kind: WallEventKind::BarrierExit,
                            t_nanos: 900,
                        },
                    ],
                    dropped: 0,
                    meters: meters0,
                },
                PeWallLog {
                    rank: 1,
                    events: vec![WallEvent {
                        kind: WallEventKind::Recv {
                            from: 0,
                            seq: 0,
                            words: 4,
                        },
                        t_nanos: 500,
                    }],
                    dropped: 0,
                    meters: ContentionMeters::new(2),
                },
            ],
        };
        let timeline = WallTimeline::build(&profile);
        let export = export_dual(&tiny_trace(), &stats, &cost, &timeline);
        validate(&export.json).expect("valid JSON");
        assert_eq!(export.tracks, 2);
        assert_eq!(export.modeled_flows, 1);
        assert_eq!(export.measured_flows, 1);
        assert!(export.json.contains("\"name\":\"simulated machine\""));
        assert!(export.json.contains("\"name\":\"measured (wall)\""));
        assert!(export.json.contains("barrier spin"));
        assert!(export.json.contains("send_lock_wait_ns"));
        assert!(export.json.contains("occupancy_highwater"));
        // the modeled half is still byte-identical to a plain export's
        let plain = export_run(&tiny_trace(), &stats, &cost);
        assert!(export.json.starts_with(
            plain
                .json
                .strip_suffix("\n]}\n")
                .expect("modeled document suffix")
        ));
    }
}

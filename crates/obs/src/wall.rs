//! The measured side of the dual clock: turns a drained
//! [`tricount_comm::WallProfile`] into a [`WallTimeline`] —
//! matched send→recv flows with queue-dwell times, per-PE barrier
//! intervals, and the contention meters folded into report/Prometheus
//! form.
//!
//! The modeled exporter ([`crate::chrome`]) reconstructs a *fiction*: the
//! α/β/t_op machine the paper reasons about. This module reconstructs the
//! *fact*: where the host's wall nanoseconds actually went. `tricount
//! profile` renders both side by side (dual-clock trace) and
//! [`crate::report::ModelFitReport`] quantifies the gap.

use std::collections::BTreeMap;

use tricount_comm::{WallEventKind, WallProfile};

use crate::hist::LogHistogram;
use crate::prom::MetricsRegistry;

/// One matched message: sent by `src` at `send_nanos`, popped by `dst` at
/// `recv_nanos` (both on the transport's shared epoch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flow {
    /// Sending rank.
    pub src: usize,
    /// Receiving rank.
    pub dst: usize,
    /// Per-`(src, dst)` sequence number.
    pub seq: u64,
    /// Payload machine words.
    pub words: u64,
    /// Wall nanoseconds of the push.
    pub send_nanos: u64,
    /// Wall nanoseconds of the pop.
    pub recv_nanos: u64,
}

impl Flow {
    /// Queue dwell: pop minus push (0 if the clocks raced backwards).
    pub fn dwell_nanos(&self) -> u64 {
        self.recv_nanos.saturating_sub(self.send_nanos)
    }
}

/// One barrier visit of one PE: enter and exit stamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierInterval {
    /// Wall nanoseconds of arrival at the barrier.
    pub enter_nanos: u64,
    /// Wall nanoseconds of release.
    pub exit_nanos: u64,
}

/// The post-run wall-clock reconstruction of one profiled threads run.
#[derive(Debug)]
pub struct WallTimeline {
    /// Number of PEs.
    pub p: usize,
    /// Matched send→recv flows, in send order.
    pub flows: Vec<Flow>,
    /// Barrier intervals per PE, indexed by rank.
    pub barriers: Vec<Vec<BarrierInterval>>,
    /// Queue-dwell histogram (nanoseconds) over all matched flows.
    pub dwell: LogHistogram,
    /// Sends whose receive never appeared in any ring (overflow on the
    /// receiver's side, or a run abandoned mid-flight).
    pub unmatched_sends: u64,
    /// Receives whose send never appeared in any ring (overflow on the
    /// sender's side).
    pub unmatched_recvs: u64,
    /// Events recorded over all rings.
    pub events_recorded: u64,
    /// Events dropped to ring overflow.
    pub events_dropped: u64,
    /// Wall nanoseconds of the last recorded event (timeline extent).
    pub end_nanos: u64,
}

impl WallTimeline {
    /// Matches sends to receives per `(src, dst, seq)` and folds the
    /// profile into a timeline. Ring overflow shows up as unmatched
    /// events, never as an error: the timeline is a best-effort view of
    /// whatever the rings held.
    pub fn build(profile: &WallProfile) -> WallTimeline {
        // (src, dst, seq) → send stamp+words. Sequence numbers are unique
        // per ordered pair by construction, so this is a bijective key.
        let mut sends: BTreeMap<(usize, usize, u64), (u64, u64)> = BTreeMap::new();
        let mut recvs: BTreeMap<(usize, usize, u64), u64> = BTreeMap::new();
        let mut barriers: Vec<Vec<BarrierInterval>> = vec![Vec::new(); profile.p];
        let mut end_nanos = 0u64;
        for log in &profile.per_pe {
            let mut pending_enter: Option<u64> = None;
            for ev in &log.events {
                end_nanos = end_nanos.max(ev.t_nanos);
                match ev.kind {
                    WallEventKind::Send { to, seq, words } => {
                        sends.insert((log.rank, to, seq), (ev.t_nanos, words));
                    }
                    WallEventKind::Recv { from, seq, .. } => {
                        recvs.insert((from, log.rank, seq), ev.t_nanos);
                    }
                    WallEventKind::BarrierEnter => pending_enter = Some(ev.t_nanos),
                    WallEventKind::BarrierExit => {
                        if let Some(enter_nanos) = pending_enter.take() {
                            barriers[log.rank].push(BarrierInterval {
                                enter_nanos,
                                exit_nanos: ev.t_nanos,
                            });
                        }
                    }
                }
            }
        }
        let mut flows = Vec::with_capacity(sends.len().min(recvs.len()));
        let mut dwell = LogHistogram::new();
        let mut unmatched_sends = 0u64;
        for (&(src, dst, seq), &(send_nanos, words)) in &sends {
            match recvs.remove(&(src, dst, seq)) {
                Some(recv_nanos) => {
                    let flow = Flow {
                        src,
                        dst,
                        seq,
                        words,
                        send_nanos,
                        recv_nanos,
                    };
                    dwell.record(flow.dwell_nanos());
                    flows.push(flow);
                }
                None => unmatched_sends += 1,
            }
        }
        flows.sort_by_key(|f| (f.send_nanos, f.src, f.dst, f.seq));
        WallTimeline {
            p: profile.p,
            flows,
            barriers,
            dwell,
            unmatched_sends,
            unmatched_recvs: recvs.len() as u64,
            events_recorded: profile.events_recorded(),
            events_dropped: profile.events_dropped(),
            end_nanos,
        }
    }

    /// Total barrier-spin seconds over all PEs (from the event intervals;
    /// the meters report the same quantity independently of ring capacity).
    pub fn barrier_spin_seconds(&self) -> f64 {
        self.barriers
            .iter()
            .flatten()
            .map(|b| b.exit_nanos.saturating_sub(b.enter_nanos))
            .sum::<u64>() as f64
            / 1e9
    }

    /// Human-readable wall report: flow/dwell/barrier summary.
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str("wall-clock timeline (threads transport, measured)\n");
        out.push_str(&format!(
            "  events recorded {}  dropped {}  span {:.3} ms\n",
            self.events_recorded,
            self.events_dropped,
            self.end_nanos as f64 / 1e6
        ));
        out.push_str(&format!(
            "  flows matched {}  unmatched sends {}  unmatched recvs {}\n",
            self.flows.len(),
            self.unmatched_sends,
            self.unmatched_recvs
        ));
        if !self.dwell.is_empty() {
            out.push_str(&format!(
                "  queue dwell ns: p50 {}  p90 {}  p99 {}  max {}\n",
                self.dwell.quantile(0.5),
                self.dwell.quantile(0.9),
                self.dwell.quantile(0.99),
                self.dwell.max()
            ));
        }
        let waits: usize = self.barriers.iter().map(Vec::len).sum();
        out.push_str(&format!(
            "  barrier waits {}  spin total {:.3} ms\n",
            waits,
            self.barrier_spin_seconds() * 1e3
        ));
        out
    }
}

/// Populates `reg` with the wall-clock metrics of one profiled run: the
/// queue-dwell histogram plus the per-PE contention meters riding on
/// `stats.contention`.
pub fn wall_metrics(
    reg: &mut MetricsRegistry,
    timeline: &WallTimeline,
    contention: Option<&tricount_comm::ContentionSummary>,
) {
    reg.histogram_units(
        "tricount_wall_queue_dwell_nanos",
        "Send-to-receive queue dwell time (wall nanoseconds)",
        &timeline.dwell,
    );
    reg.counter(
        "tricount_wall_events_recorded_total",
        "Wall-probe events recorded across all PE rings",
        timeline.events_recorded,
    );
    reg.counter(
        "tricount_wall_events_dropped_total",
        "Wall-probe events dropped to ring overflow",
        timeline.events_dropped,
    );
    reg.counter(
        "tricount_wall_flows_matched_total",
        "Send-receive pairs matched in the wall timeline",
        timeline.flows.len() as u64,
    );
    let Some(c) = contention else { return };
    for rank in 0..c.p {
        let labels = [("pe", rank.to_string())];
        reg.gauge_with(
            "tricount_wall_send_lock_wait_seconds",
            "Send-side queue lock wait per PE (wall seconds)",
            &labels,
            c.send_lock_wait_nanos[rank] as f64 / 1e9,
        );
        reg.gauge_with(
            "tricount_wall_recv_lock_wait_seconds",
            "Receive-side queue lock wait per PE (wall seconds)",
            &labels,
            c.recv_lock_wait_nanos[rank] as f64 / 1e9,
        );
        reg.gauge_with(
            "tricount_wall_barrier_spin_seconds",
            "Barrier spin per PE (wall seconds)",
            &labels,
            c.barrier_spin_nanos[rank] as f64 / 1e9,
        );
        reg.gauge_with(
            "tricount_wall_queue_occupancy_highwater",
            "High-water outgoing queue occupancy per PE (messages)",
            &labels,
            c.occupancy_highwater[rank] as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tricount_comm::{PeWallLog, WallEvent};

    fn ev(kind: WallEventKind, t_nanos: u64) -> WallEvent {
        WallEvent { kind, t_nanos }
    }

    fn log(rank: usize, p: usize, events: Vec<WallEvent>) -> PeWallLog {
        PeWallLog {
            rank,
            events,
            dropped: 0,
            meters: tricount_comm::ContentionMeters::new(p),
        }
    }

    fn two_pe_profile() -> WallProfile {
        WallProfile {
            p: 2,
            ring_capacity: 64,
            per_pe: vec![
                log(
                    0,
                    2,
                    vec![
                        ev(
                            WallEventKind::Send {
                                to: 1,
                                seq: 0,
                                words: 4,
                            },
                            100,
                        ),
                        ev(
                            WallEventKind::Send {
                                to: 1,
                                seq: 1,
                                words: 2,
                            },
                            200,
                        ),
                        ev(WallEventKind::BarrierEnter, 300),
                        ev(WallEventKind::BarrierExit, 900),
                    ],
                ),
                log(
                    1,
                    2,
                    vec![
                        ev(
                            WallEventKind::Recv {
                                from: 0,
                                seq: 0,
                                words: 4,
                            },
                            450,
                        ),
                        ev(
                            WallEventKind::Recv {
                                from: 0,
                                seq: 1,
                                words: 2,
                            },
                            460,
                        ),
                        ev(WallEventKind::BarrierEnter, 500),
                        ev(WallEventKind::BarrierExit, 901),
                    ],
                ),
            ],
        }
    }

    #[test]
    fn flows_match_by_seq_and_dwell_is_recorded() {
        let tl = WallTimeline::build(&two_pe_profile());
        assert_eq!(tl.flows.len(), 2);
        assert_eq!(tl.unmatched_sends, 0);
        assert_eq!(tl.unmatched_recvs, 0);
        assert_eq!(tl.flows[0].dwell_nanos(), 350);
        assert_eq!(tl.flows[1].dwell_nanos(), 260);
        assert_eq!(tl.dwell.count(), 2);
        assert_eq!(tl.barriers[0].len(), 1);
        assert_eq!(tl.barriers[1].len(), 1);
        assert_eq!(tl.end_nanos, 901);
        let spin = tl.barrier_spin_seconds();
        assert!((spin - (600 + 401) as f64 / 1e9).abs() < 1e-15);
    }

    #[test]
    fn overflow_shows_as_unmatched_not_error() {
        let mut profile = two_pe_profile();
        // the receiver's ring lost the second recv
        profile.per_pe[1].events.remove(1);
        profile.per_pe[1].dropped = 1;
        let tl = WallTimeline::build(&profile);
        assert_eq!(tl.flows.len(), 1);
        assert_eq!(tl.unmatched_sends, 1);
        assert_eq!(tl.events_dropped, 1);
    }

    #[test]
    fn report_and_metrics_render() {
        let tl = WallTimeline::build(&two_pe_profile());
        let rep = tl.report();
        assert!(rep.contains("flows matched 2"), "{rep}");
        assert!(rep.contains("queue dwell"), "{rep}");
        let mut reg = MetricsRegistry::new();
        wall_metrics(&mut reg, &tl, None);
        let text = reg.render();
        assert!(text.contains("tricount_wall_queue_dwell_nanos"));
        assert!(text.contains("tricount_wall_flows_matched_total 2"));
    }
}

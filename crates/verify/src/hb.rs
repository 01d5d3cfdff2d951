//! Happens-before analysis of recorded traces: a vector-clock sweep that
//! replays every PE's event stream in causal order and proves (or refutes)
//! that the recorded run is consistent with the runtime's ordering
//! guarantees.
//!
//! The happens-before relation checked here is the standard one for
//! message-passing programs:
//!
//! * **program order** — events of one PE in recorded order;
//! * **message order** — a [`TraceEvent::Received`] happens-after the
//!   [`TraceEvent::Sent`] carrying the same `(sender, receiver, seq)` key
//!   (`alltoallv` constituents, which carry the
//!   [`tricount_comm::trace::COLL_CONSTITUENT_SEQ`]
//!   sentinel, are matched FIFO per channel instead);
//! * **barrier order** — a [`TraceEvent::CollExit`] of epoch *k*
//!   happens-after every PE's `CollEnter` of epoch *k*, and the *k*-th
//!   [`TraceEvent::PhaseEnded`] is a full barrier (the runtime's
//!   `end_phase` synchronises all PEs before recording it).
//!
//! The sweep is Kahn-style: one cursor per PE, an event is *enabled* when
//! all its incoming HB edges have been processed, and processing it joins
//! the PE's vector clock with the clocks those edges carry. A trace whose
//! sweep consumes every event is causally consistent; a stall means the
//! remaining events form a cycle — an ordering the real machine could not
//! have produced — reported as [`Violation::HbCycle`]. Local pathologies
//! (an orphaned receive, a FIFO regression, overlapping collective epochs)
//! are caught by a pre-scan and reported as their own variants.

use std::collections::VecDeque;
use std::fmt;

use tricount_comm::trace::COLL_CONSTITUENT_SEQ;
use tricount_comm::{Trace, TraceEvent};
use tricount_graph::hash::FxHashMap;

use crate::Violation;

/// The analyzer's verdict on one trace.
#[derive(Debug, Clone, Default)]
pub struct HbReport {
    /// All detected ordering violations, in detection order.
    pub violations: Vec<Violation>,
    /// Total events swept.
    pub events: usize,
    /// Point-to-point receives joined with their matching send's clock
    /// (`alltoallv` constituents included).
    pub messages_matched: u64,
    /// Collective epochs plus phase barriers the sweep synchronised on.
    pub barrier_epochs: usize,
    /// Final vector clock of each PE (component `j` = events of PE `j`
    /// causally visible to this PE's last event).
    pub clocks: Vec<Vec<u64>>,
}

impl HbReport {
    /// Whether the trace is causally consistent.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for HbReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "happens-before: {} events, {} messages matched, {} barrier epochs: {}",
            self.events,
            self.messages_matched,
            self.barrier_epochs,
            if self.is_clean() {
                "consistent".to_string()
            } else {
                format!("{} violation(s)", self.violations.len())
            }
        )?;
        for v in &self.violations {
            writeln!(f, "  - {v}")?;
        }
        Ok(())
    }
}

fn join(into: &mut [u64], other: &[u64]) {
    for (a, b) in into.iter_mut().zip(other) {
        *a = (*a).max(*b);
    }
}

fn event_name(e: &TraceEvent) -> String {
    match e {
        TraceEvent::QueueConfigured { .. } => "QueueConfigured".to_string(),
        TraceEvent::Posted { dest, .. } => format!("Posted(dest={dest})"),
        TraceEvent::Relayed { dest, .. } => format!("Relayed(dest={dest})"),
        TraceEvent::Flushed { peer, .. } => format!("Flushed(peer={peer})"),
        TraceEvent::Delivered { .. } => "Delivered".to_string(),
        TraceEvent::Sent { to, seq, .. } => format!("Sent(to={to}, seq={seq})"),
        TraceEvent::Received { from, seq, .. } => format!("Received(from={from}, seq={seq})"),
        TraceEvent::CollEnter { kind } => format!("CollEnter({})", kind.name()),
        TraceEvent::CollExit { kind } => format!("CollExit({})", kind.name()),
        TraceEvent::PhaseEnded { name } => format!("PhaseEnded({name})"),
    }
}

/// Pre-scan: per-PE pathologies that need no cross-PE sweep — orphaned
/// receives, FIFO regressions, collective-epoch overlap. Returns the
/// violations plus the send index the sweep matches receives against.
#[allow(clippy::type_complexity)]
fn prescan(
    trace: &Trace,
    violations: &mut Vec<Violation>,
) -> (
    FxHashMap<(usize, usize, u64), ()>,
    FxHashMap<(usize, usize), u64>,
) {
    let mut sends: FxHashMap<(usize, usize, u64), ()> = FxHashMap::default();
    let mut sentinel_sends: FxHashMap<(usize, usize), u64> = FxHashMap::default();
    for (pe, events) in trace.per_pe.iter().enumerate() {
        for e in events {
            if let TraceEvent::Sent { to, seq, .. } = e {
                if *seq == COLL_CONSTITUENT_SEQ {
                    *sentinel_sends.entry((pe, *to)).or_insert(0) += 1;
                } else {
                    sends.insert((pe, *to, *seq), ());
                }
            }
        }
    }
    for (pe, events) in trace.per_pe.iter().enumerate() {
        let mut last_seq: FxHashMap<usize, u64> = FxHashMap::default();
        let mut open_coll: Option<&'static str> = None;
        for (i, e) in events.iter().enumerate() {
            match e {
                TraceEvent::Received { from, seq, .. } if *seq != COLL_CONSTITUENT_SEQ => {
                    if !sends.contains_key(&(*from, pe, *seq)) {
                        violations.push(Violation::HbUnmatchedReceive {
                            pe,
                            from: *from,
                            seq: *seq,
                        });
                    }
                    match last_seq.get(from) {
                        Some(&prev) if *seq <= prev => {
                            violations.push(Violation::HbReceiveReorder {
                                pe,
                                from: *from,
                                seq: *seq,
                                prev_seq: prev,
                            });
                        }
                        _ => {
                            last_seq.insert(*from, *seq);
                        }
                    }
                }
                TraceEvent::CollEnter { kind } => {
                    if let Some(inner) = open_coll {
                        violations.push(Violation::CollectiveOverlap {
                            pe,
                            index: i,
                            detail: format!("entered {} while inside {inner}", kind.name()),
                        });
                    }
                    open_coll = Some(kind.name());
                }
                TraceEvent::CollExit { kind } => match open_coll.take() {
                    None => violations.push(Violation::CollectiveOverlap {
                        pe,
                        index: i,
                        detail: format!("exited {} without entering it", kind.name()),
                    }),
                    Some(inner) if inner != kind.name() => {
                        violations.push(Violation::CollectiveOverlap {
                            pe,
                            index: i,
                            detail: format!("exited {} while inside {inner}", kind.name()),
                        });
                    }
                    Some(_) => {}
                },
                _ => {}
            }
        }
        if let Some(inner) = open_coll {
            violations.push(Violation::CollectiveOverlap {
                pe,
                index: events.len(),
                detail: format!("{inner} entered but never exited"),
            });
        }
    }
    (sends, sentinel_sends)
}

/// Sweeps `trace` in causal order with per-PE vector clocks and reports
/// every ordering violation found. A clean report proves the recorded run
/// is consistent with program order, per-channel FIFO message order, and
/// barrier-synchronised collectives/phases.
pub fn check_hb(trace: &Trace) -> HbReport {
    let p = trace.num_ranks();
    let mut report = HbReport {
        clocks: vec![vec![0u64; p]; p],
        ..HbReport::default()
    };
    if p == 0 {
        return report;
    }
    let (sends, sentinel_send_totals) = prescan(trace, &mut report.violations);

    // Sweep state.
    let mut cursor = vec![0usize; p];
    // Clock snapshot taken when a Sent is processed, keyed like `sends`.
    let mut send_clock: FxHashMap<(usize, usize, u64), Vec<u64>> = FxHashMap::default();
    // FIFO snapshots for alltoallv constituents, per (sender, receiver).
    let mut sentinel_clock: FxHashMap<(usize, usize), VecDeque<Vec<u64>>> = FxHashMap::default();
    let mut sentinel_recvd: FxHashMap<(usize, usize), u64> = FxHashMap::default();
    // Collective epochs: per-PE enter/exit counts and the merged
    // enter-clock of each epoch.
    let mut enters = vec![0usize; p];
    let mut coll_enter_merge: Vec<Vec<u64>> = Vec::new();
    // Phase barriers: per-PE PhaseEnded counts and the merged barrier
    // clock, computed when the first PE crosses.
    let mut phases = vec![0usize; p];
    let mut phase_merge: Vec<Option<Vec<u64>>> = Vec::new();

    let is_phase_ended = |pe: usize, at: usize| {
        matches!(
            trace.per_pe[pe].get(at),
            Some(TraceEvent::PhaseEnded { .. })
        )
    };

    loop {
        let mut progressed = false;
        for pe in 0..p {
            while cursor[pe] < trace.per_pe[pe].len() {
                let e = &trace.per_pe[pe][cursor[pe]];
                // Gate check: all incoming HB edges processed?
                let enabled = match e {
                    TraceEvent::Received { from, seq, .. } => {
                        if *seq == COLL_CONSTITUENT_SEQ {
                            let sent = sentinel_clock
                                .get(&(*from, pe))
                                .map_or(0, |q| q.len() as u64)
                                + sentinel_recvd.get(&(*from, pe)).copied().unwrap_or(0);
                            // More sentinel receives than the sender ever
                            // records sending can never be enabled; let the
                            // orphan through so the sweep can finish, and
                            // report it.
                            let total =
                                sentinel_send_totals.get(&(*from, pe)).copied().unwrap_or(0);
                            let consumed = sentinel_recvd.get(&(*from, pe)).copied().unwrap_or(0);
                            if consumed >= total {
                                report.violations.push(Violation::HbUnmatchedReceive {
                                    pe,
                                    from: *from,
                                    seq: *seq,
                                });
                                true
                            } else {
                                sent > consumed
                            }
                        } else if sends.contains_key(&(*from, pe, *seq)) {
                            send_clock.contains_key(&(*from, pe, *seq))
                        } else {
                            true // orphan, already reported by the pre-scan
                        }
                    }
                    TraceEvent::CollExit { .. } => {
                        // Epoch of this exit = how many enters this PE has
                        // processed, minus one (enter precedes exit in
                        // program order; a mismatched stream falls back to
                        // "enabled" and was reported by the pre-scan).
                        match enters[pe].checked_sub(1) {
                            Some(k) => enters.iter().all(|&c| c > k),
                            None => true,
                        }
                    }
                    TraceEvent::PhaseEnded { .. } => {
                        let k = phases[pe];
                        (0..p).all(|j| {
                            phases[j] > k || (phases[j] == k && is_phase_ended(j, cursor[j]))
                        })
                    }
                    _ => true,
                };
                if !enabled {
                    break;
                }
                // Process: bump own clock component, join incoming edges,
                // publish outgoing ones.
                report.clocks[pe][pe] += 1;
                match e {
                    TraceEvent::Sent { to, seq, .. } => {
                        let snap = report.clocks[pe].clone();
                        if *seq == COLL_CONSTITUENT_SEQ {
                            sentinel_clock.entry((pe, *to)).or_default().push_back(snap);
                        } else {
                            send_clock.insert((pe, *to, *seq), snap);
                        }
                    }
                    TraceEvent::Received { from, seq, .. } => {
                        if *seq == COLL_CONSTITUENT_SEQ {
                            if let Some(snap) = sentinel_clock
                                .get_mut(&(*from, pe))
                                .and_then(VecDeque::pop_front)
                            {
                                join_at(&mut report.clocks, pe, &snap);
                                *sentinel_recvd.entry((*from, pe)).or_insert(0) += 1;
                                report.messages_matched += 1;
                            }
                        } else if let Some(snap) = send_clock.get(&(*from, pe, *seq)) {
                            let snap = snap.clone();
                            join_at(&mut report.clocks, pe, &snap);
                            report.messages_matched += 1;
                        }
                    }
                    TraceEvent::CollEnter { .. } => {
                        let k = enters[pe];
                        if coll_enter_merge.len() <= k {
                            coll_enter_merge.resize(k + 1, vec![0u64; p]);
                        }
                        let snap = report.clocks[pe].clone();
                        join(&mut coll_enter_merge[k], &snap);
                        enters[pe] += 1;
                    }
                    TraceEvent::CollExit { .. } => {
                        if let Some(k) = enters[pe].checked_sub(1) {
                            if let Some(m) = coll_enter_merge.get(k) {
                                let m = m.clone();
                                join_at(&mut report.clocks, pe, &m);
                            }
                        }
                    }
                    TraceEvent::PhaseEnded { .. } => {
                        let k = phases[pe];
                        if phase_merge.len() <= k {
                            phase_merge.resize(k + 1, None);
                        }
                        if phase_merge[k].is_none() {
                            // First PE across: every other PE is parked at
                            // this barrier, so the join of all current
                            // clocks is the barrier clock.
                            let mut m = vec![0u64; p];
                            for c in report.clocks.iter() {
                                join(&mut m, c);
                            }
                            phase_merge[k] = Some(m);
                        }
                        if let Some(m) = phase_merge[k].clone() {
                            join_at(&mut report.clocks, pe, &m);
                        }
                        phases[pe] += 1;
                    }
                    _ => {}
                }
                cursor[pe] += 1;
                report.events += 1;
                progressed = true;
            }
        }
        if cursor
            .iter()
            .enumerate()
            .all(|(pe, &c)| c >= trace.per_pe[pe].len())
        {
            break;
        }
        if !progressed {
            let detail: Vec<String> = (0..p)
                .filter(|&pe| cursor[pe] < trace.per_pe[pe].len())
                .map(|pe| {
                    format!(
                        "PE {pe} stuck at event {} ({})",
                        cursor[pe],
                        event_name(&trace.per_pe[pe][cursor[pe]])
                    )
                })
                .collect();
            report.violations.push(Violation::HbCycle {
                detail: detail.join("; "),
            });
            break;
        }
    }
    report.barrier_epochs = coll_enter_merge.len() + phase_merge.len();
    report
}

/// Joins `other` into `clocks[pe]` (`other` is always a snapshot clone,
/// never an alias of `clocks[pe]`).
fn join_at(clocks: &mut [Vec<u64>], pe: usize, other: &[u64]) {
    join(&mut clocks[pe], other);
}

//! The serving path: a resident engine under an open-loop read schedule,
//! then a closed loop, optionally beside a writer; and the sequential
//! oracle every answer is checked against afterwards.
//!
//! Threads: the caller is the one client, one server thread loops
//! `tick_pinned`, one writer thread applies update batches. Latency runs
//! from a request's *due* time to the instant the server thread stamps its
//! answer, so a stall delays every request that came due during it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use cetric::core::seq;
use cetric::delta::{apply_to_csr, UpdateBatch};
use cetric::engine::{Engine, EngineError, Query, QueryAnswer, TicketId, UpdateReceipt};
use cetric::graph::intersect::merge_count;
use cetric::graph::Csr;

use crate::calib::{Reference, Work};
use crate::inputs::{LoadedPlan, ServePlan};
use crate::spec::{Spec, CLOSED_OUTSTANDING};
use crate::stats::{median, percentile, sorted};

/// One read as the client and the server saw it. Times are nanoseconds
/// since the start of [`drive`].
pub struct ReadRecord<'q> {
    /// Open loop: when the schedule wanted it sent. Closed loop: when it
    /// was sent.
    pub due_ns: u64,
    pub submitted_ns: u64,
    /// When the server thread stamped the answer (0 if refused).
    pub answered_ns: u64,
    /// The epoch the engine pinned for it.
    pub epoch: u64,
    pub query: &'q Query,
    /// `None` when the engine refused the request.
    pub answer: Option<Result<QueryAnswer, EngineError>>,
    pub open: bool,
    ticket: Option<TicketId>,
}

impl ReadRecord<'_> {
    pub fn latency_s(&self) -> f64 {
        self.answered_ns.saturating_sub(self.due_ns) as f64 * 1e-9
    }

    pub fn answered(&self) -> bool {
        matches!(self.answer, Some(Ok(_)))
    }
}

pub struct UpdateRecord {
    pub due_ns: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub receipt: Result<UpdateReceipt, EngineError>,
}

impl UpdateRecord {
    pub fn latency_s(&self) -> f64 {
        self.end_ns.saturating_sub(self.due_ns) as f64 * 1e-9
    }
}

/// One segment of the load: the reads `reads[first..end]`, between two
/// samples of the reference.
pub struct Segment {
    pub open: bool,
    pub first: usize,
    pub end: usize,
    /// Closed loop: seconds from the segment's first submission to its last
    /// answer.
    pub wall_s: f64,
    /// Calibrated seconds per wall second over the segment (see `calib`).
    pub factor: f64,
}

#[derive(Default)]
pub struct DriveOut<'q> {
    /// Every read, in submission order.
    pub reads: Vec<ReadRecord<'q>>,
    /// Every applied batch, in order.
    pub updates: Vec<UpdateRecord>,
    /// Answers per wall second of the closed loop (0 if it did not run).
    pub closed_qps: f64,
    pub segments: Vec<Segment>,
}

impl<'q> DriveOut<'q> {
    /// `latency` of every answered open-loop read, ascending.
    pub fn open_latencies(&self, latency: fn(&ReadRecord<'q>) -> f64) -> Vec<f64> {
        let answered = self.reads.iter().filter(|r| r.open && r.answered());
        sorted(answered.map(latency).collect())
    }

    /// The `pct`-th percentile of open-loop read latency in calibrated
    /// seconds: each segment's percentile times the segment's factor, and
    /// the median of those. A bad second of the host then moves one segment,
    /// not the result.
    pub fn calibrated_read_s(&self, pct: u32) -> f64 {
        let per_segment: Vec<f64> = self
            .segments
            .iter()
            .filter(|s| s.open)
            .filter_map(|s| {
                let answered = self.reads[s.first..s.end].iter().filter(|r| r.answered());
                let latencies = sorted(answered.map(ReadRecord::latency_s).collect());
                (!latencies.is_empty()).then(|| percentile(&latencies, pct) * s.factor)
            })
            .collect();
        median(&per_segment)
    }

    /// Closed-loop answers per calibrated second: the median over the
    /// segments that ran at least half as long as the longest (the last one
    /// is cut short by the phase's end).
    pub fn calibrated_closed_qps(&self) -> f64 {
        let closed = || self.segments.iter().filter(|s| !s.open);
        let longest = closed().map(|s| s.wall_s).fold(0.0, f64::max);
        let per_segment: Vec<f64> = closed()
            .filter(|s| s.wall_s >= longest / 2.0)
            .map(|s| {
                let answered = self.reads[s.first..s.end].iter().filter(|r| r.answered());
                answered.count() as f64 / (s.wall_s * s.factor)
            })
            .collect();
        median(&per_segment)
    }
}

/// Sleeps, then spins, until `due_ns` after `t0`.
fn wait_until(t0: Instant, due_ns: u64) {
    const SPIN_NS: u64 = 100_000;
    loop {
        let now = t0.elapsed().as_nanos() as u64;
        if now >= due_ns {
            return;
        }
        let left = due_ns - now;
        if left > SPIN_NS + 50_000 {
            std::thread::sleep(Duration::from_nanos(left - SPIN_NS));
        } else {
            std::hint::spin_loop();
        }
    }
}

type Stamped = (u64, Vec<(TicketId, u64, Result<QueryAnswer, EngineError>)>);

/// The load runs in segments of this much schedule time. Between two
/// segments the client lets the queue drain, waits [`SETTLE`] and samples
/// the reference. The sample sets the pace of the next segment: schedules
/// (arrivals, the writer's period) run in calibrated time, so a host that
/// is 20 % slower is also asked 20 % less often. Utilisation, and with it
/// the share of latency that is queueing, then does not move with the host,
/// and the latencies calibrate by the same factor as everything else.
const SEGMENT_NS: u64 = 1_000_000_000;

/// A pause before the reference is sampled, so that the exit of the
/// segment's last PE threads and the server's last wake-up are not timed
/// with it.
const SETTLE: Duration = Duration::from_millis(20);

/// When `plan.batches` are applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Writer {
    Off,
    /// By a writer thread, one batch per period, beside the reads. If the
    /// reads end before the first batch is due, as `After`: a phase shorter
    /// than the period still exercises the update path.
    Beside(Duration),
    /// By the client once the reads have ended, back to back.
    After,
}

impl Writer {
    /// The workload's own writer, or `otherwise` if it has none.
    pub fn of(spec: &Spec, otherwise: Writer) -> Writer {
        spec.load
            .writer_period_ms
            .map_or(otherwise, |ms| Writer::Beside(Duration::from_millis(ms)))
    }
}

/// Runs the load against `engine`: the open-loop reads at their due times,
/// then up to `closed_seconds` of closed loop over `plan.closed`, and
/// `plan.batches` as `writer` says, in segments of [`SEGMENT_NS`].
/// `server_gate` runs on the server thread before its first tick;
/// production passes a no-op.
pub fn drive<'q>(
    engine: &Engine,
    reference: &Reference,
    plan: &'q LoadedPlan,
    writer: Writer,
    closed_seconds: f64,
    server_gate: impl FnOnce() + Send,
) -> DriveOut<'q> {
    let t0 = Instant::now();
    let now_ns = move || t0.elapsed().as_nanos() as u64;
    let stop = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<Stamped>();
    let mut reads: Vec<ReadRecord<'q>> = Vec::with_capacity(plan.open.len() + plan.closed.len());
    let mut closed_qps = 0.0;
    let mut segments = Vec::new();
    // calibrated seconds per wall second right now, as f64 bits
    let pace = AtomicU64::new(1f64.to_bits());

    let apply = move |batch: &UpdateBatch, due_ns: Option<u64>| {
        let start_ns = now_ns();
        let receipt = engine.apply_updates(batch);
        UpdateRecord {
            due_ns: due_ns.unwrap_or(start_ns),
            start_ns,
            end_ns: now_ns(),
            receipt,
        }
    };

    let updates = std::thread::scope(|scope| {
        let (stop, pace) = (&stop, &pace);
        let server = scope.spawn(move || {
            server_gate();
            loop {
                let answers = engine.tick_pinned();
                if !answers.is_empty() {
                    // the client may already be gone only after `stop`
                    let _ = tx.send((now_ns(), answers));
                } else if stop.load(Ordering::SeqCst) {
                    return;
                } else {
                    std::thread::park_timeout(Duration::from_micros(200));
                }
            }
        });
        let period = match writer {
            Writer::Beside(period) => Some(period),
            _ => None,
        };
        let beside = period.map(|period| {
            scope.spawn(move || {
                let mut records = Vec::with_capacity(plan.batches.len());
                let mut due_ns = 0u64;
                for batch in &plan.batches {
                    let pace = f64::from_bits(pace.load(Ordering::Relaxed));
                    due_ns += (period.as_nanos() as f64 / pace) as u64;
                    while now_ns() < due_ns && !stop.load(Ordering::SeqCst) {
                        let left = due_ns.saturating_sub(now_ns());
                        std::thread::sleep(Duration::from_nanos(left.min(2_000_000)));
                    }
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    records.push(apply(batch, Some(due_ns)));
                }
                records
            })
        });

        // Submits one read and records it; wakes the server.
        let submit =
            |reads: &mut Vec<ReadRecord<'q>>, due_ns: Option<u64>, query: &'q Query| -> bool {
                let submitted_ns = now_ns();
                let ticket = engine.submit(query.clone()).ok();
                server.thread().unpark();
                reads.push(ReadRecord {
                    due_ns: due_ns.unwrap_or(submitted_ns),
                    submitted_ns,
                    answered_ns: 0,
                    epoch: 0,
                    query,
                    answer: None,
                    open: due_ns.is_some(),
                    ticket,
                });
                ticket.is_some()
            };
        // Files one stamped batch into the records; answers arrive in
        // submission order, so a cursor pairs them.
        let mut cursor = 0usize;
        let mut file = |reads: &mut Vec<ReadRecord<'q>>, (stamp, answers): Stamped| -> usize {
            let n = answers.len();
            for (ticket, epoch, answer) in answers {
                while reads[cursor].ticket.is_none() {
                    cursor += 1;
                }
                let r = &mut reads[cursor];
                assert_eq!(r.ticket, Some(ticket), "answers arrive in submission order");
                r.answered_ns = stamp;
                r.epoch = epoch;
                r.answer = Some(answer);
                cursor += 1;
            }
            n
        };

        let mut outstanding = 0usize;
        let mut bracket = reference.open(Work::Single);
        let close = |bracket: &mut _| {
            std::thread::sleep(SETTLE);
            reference.close(bracket)
        };
        let mut next_open = plan.open.iter().peekable();
        let mut segment = 0u64;
        while next_open.peek().is_some() {
            let first = reads.len();
            let host_speed = reference.speed(&bracket);
            pace.store(host_speed.to_bits(), Ordering::Relaxed);
            // the schedule's clock stands still between segments, and runs
            // at the host's speed within one
            let origin = now_ns();
            let wall = |schedule_ns: u64| {
                origin + ((schedule_ns - segment * SEGMENT_NS) as f64 / host_speed) as u64
            };
            let segment_end = (segment + 1) * SEGMENT_NS;
            while let Some((due_ns, query)) = next_open.next_if(|(due, _)| *due < segment_end) {
                wait_until(t0, wall(*due_ns));
                if submit(&mut reads, Some(wall(*due_ns)), query) {
                    outstanding += 1;
                }
            }
            if next_open.peek().is_some() {
                wait_until(t0, wall(segment_end));
            }
            while outstanding > 0 {
                outstanding -= file(&mut reads, rx.recv().expect("server is running"));
            }
            segments.push(Segment {
                open: true,
                first,
                end: reads.len(),
                wall_s: 0.0,
                factor: close(&mut bracket),
            });
            segment += 1;
        }

        if closed_seconds > 0.0 {
            let deadline = now_ns() + (closed_seconds * 1e9) as u64;
            let mut next = plan.closed.iter().peekable();
            let (mut answered, mut wall_s) = (0usize, 0.0);
            while now_ns() < deadline && next.peek().is_some() {
                let first = reads.len();
                let begin = now_ns();
                let segment_deadline = deadline.min(begin + SEGMENT_NS);
                let mut last_stamp = begin;
                loop {
                    while outstanding < CLOSED_OUTSTANDING && now_ns() < segment_deadline {
                        let Some(query) = next.next() else { break };
                        if submit(&mut reads, None, query) {
                            outstanding += 1;
                        }
                    }
                    if outstanding == 0 {
                        break;
                    }
                    let batch = rx.recv().expect("server is running");
                    last_stamp = batch.0;
                    let n = file(&mut reads, batch);
                    outstanding -= n;
                    answered += n;
                }
                let seconds = (last_stamp - begin) as f64 * 1e-9;
                segments.push(Segment {
                    open: false,
                    first,
                    end: reads.len(),
                    wall_s: seconds,
                    factor: close(&mut bracket),
                });
                pace.store(reference.speed(&bracket).to_bits(), Ordering::Relaxed);
                wall_s += seconds;
            }
            if answered > 0 {
                closed_qps = answered as f64 / wall_s;
            }
        }

        stop.store(true, Ordering::SeqCst);
        server.thread().unpark();
        server.join().expect("server thread panicked");
        let beside = beside.map_or_else(Vec::new, |w| w.join().expect("writer thread panicked"));
        if beside.is_empty() && writer != Writer::Off {
            plan.batches.iter().map(|b| apply(b, None)).collect()
        } else {
            beside
        }
    });

    DriveOut {
        reads,
        updates,
        closed_qps,
        segments,
    }
}

/// Checks every read and update of `out` against a sequential oracle on
/// the graph of the epoch it was pinned to. `batches[i]` must be what the
/// `i`-th update record applied, on top of `g0` at `start_epoch`. An epoch
/// no update published (`advance_epoch`) serves its predecessor's graph.
/// Returns (operations checked, operations failed).
pub fn verify(g0: &Csr, start_epoch: u64, batches: &[UpdateBatch], out: &DriveOut) -> (u64, u64) {
    let mut failed = 0u64;
    let mut graphs: BTreeMap<u64, Csr> = BTreeMap::new();
    graphs.insert(start_epoch, g0.clone());
    let mut tip = start_epoch;
    for (record, batch) in out.updates.iter().zip(batches) {
        let next = apply_to_csr(&graphs[&tip], &batch.canonicalize());
        match &record.receipt {
            Ok(r) if r.triangles_after == seq::compact_forward(&next).triangles => {
                tip = r.epoch;
                graphs.insert(tip, next);
            }
            _ => failed += 1,
        }
    }

    let mut globals: BTreeMap<u64, u64> = BTreeMap::new();
    for r in &out.reads {
        let graph = graphs.range(..=r.epoch).next_back().map(|(_, g)| g);
        let ok = match (r.query, &r.answer, graph) {
            (Query::GlobalTriangles { .. }, Some(Ok(QueryAnswer::Count(c))), Some(g)) => {
                *c == *globals
                    .entry(r.epoch)
                    .or_insert_with(|| seq::compact_forward(g).triangles)
            }
            (Query::VertexLcc { vertices }, Some(Ok(QueryAnswer::Lcc(pairs))), Some(g)) => {
                pairs.len() == vertices.len()
                    && pairs
                        .iter()
                        .zip(vertices)
                        .all(|(&(v, lcc), &want)| v == want && lcc == lcc_of(g, v))
            }
            (Query::EdgeSupport { edges }, Some(Ok(QueryAnswer::Support(pairs))), Some(g)) => {
                pairs.len() == edges.len()
                    && pairs.iter().zip(edges).all(|(&(e, support), &want)| {
                        e == want && support == merge_count(g.neighbors(e.0), g.neighbors(e.1)).0
                    })
            }
            _ => false,
        };
        failed += u64::from(!ok);
    }
    ((out.reads.len() + out.updates.len()) as u64, failed)
}

/// `LCC(v)` from scratch, in the expression `seq` and the engine use.
fn lcc_of(g: &Csr, v: u64) -> f64 {
    let d = g.degree(v);
    if d < 2 {
        return 0.0;
    }
    let nv = g.neighbors(v);
    let closed: u64 = nv.iter().map(|&u| merge_count(nv, g.neighbors(u)).0).sum();
    (closed / 2) as f64 / (d * (d - 1) / 2) as f64
}

/// Submits `query` to an otherwise idle engine and ticks it once. Returns
/// the seconds from submit to answer and the record for [`verify`].
pub fn ask<'q>(engine: &Engine, query: &'q Query) -> (f64, ReadRecord<'q>) {
    let t0 = Instant::now();
    let ticket = engine.submit(query.clone()).ok();
    let mut answers = engine.tick_pinned();
    let seconds = t0.elapsed().as_secs_f64();
    let (epoch, answer) = match answers.pop() {
        Some((id, epoch, answer)) if Some(id) == ticket => (epoch, Some(answer)),
        _ => (0, None),
    };
    let record = ReadRecord {
        due_ns: 0,
        submitted_ns: 0,
        answered_ns: (seconds * 1e9) as u64,
        epoch,
        query,
        answer,
        open: false,
        ticket,
    };
    (seconds, record)
}

/// Answers one query of each cached kind so the measured phase starts with
/// the per-epoch results (LCC vector, both global counts) resident.
pub fn warm_up(engine: &Engine, plan: &LoadedPlan) {
    let mut seen = [false; 3];
    for query in plan.open.iter().map(|(_, q)| q).chain(&plan.closed) {
        let slot = match query {
            Query::VertexLcc { .. } => 0,
            Query::GlobalTriangles { algorithm } => 1 + usize::from(algorithm.uses_contraction()),
            _ => continue,
        };
        if !std::mem::replace(&mut seen[slot], true) {
            engine.query(query.clone()).expect("warm-up query");
        }
        if seen == [true; 3] {
            return;
        }
    }
}

/// How a serving phase's seconds are split: two thirds open loop, one third
/// closed.
pub fn split_seconds(seconds: f64) -> (f64, f64) {
    (seconds * 2.0 / 3.0, seconds / 3.0)
}

/// Reads the closed loop may use per second of its duration; beyond what
/// the engine answers today, so the loop ends on time, not on inputs.
const CLOSED_READS_PER_S: f64 = 25_000.0;

/// The inputs of a serving phase of `open_s` + `closed_s` seconds.
pub fn serve_plan(spec: &Spec, open_s: f64, closed_s: f64) -> ServePlan {
    ServePlan {
        open_seconds: open_s,
        closed_reads: (closed_s * CLOSED_READS_PER_S) as usize,
        batches: match spec.load.writer_period_ms {
            Some(ms) => ((open_s + closed_s) * 1000.0 / ms as f64) as usize + 2,
            None => 0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::engine_config;
    use crate::inputs::{load_serve_plan, write_serve_plan, InputDir};
    use crate::spec::workload;

    /// Coordinated omission would hide a stall: a client that waits for
    /// each answer sends nothing while the server is stuck, so only one
    /// request looks slow. Here the server is held until the client has
    /// sent everything, and every request must carry the wait.
    #[test]
    fn a_stalled_server_delays_every_request_that_came_due() {
        let g = cetric::gen::rmat_default(8, 3);
        let engine = Engine::build(&g, engine_config(None, false));
        let edges: Vec<(u64, u64)> = g.edges().take(10).collect();
        let plan = LoadedPlan {
            open: (0..10u64)
                .map(|i| {
                    let query = Query::EdgeSupport {
                        edges: vec![edges[i as usize]],
                    };
                    (i * 1_000_000, query)
                })
                .collect(),
            closed: Vec::new(),
            batches: Vec::new(),
        };
        let gate = engine.clone();
        let reference = Reference::new(&g, 2);
        let out = drive(&engine, &reference, &plan, Writer::Off, 0.0, move || {
            // the stall: no tick before the last request has been sent
            while gate.queue_depth() < 10 {
                std::thread::yield_now();
            }
        });
        assert_eq!(out.reads.len(), 10);
        let last_sent = out.reads[9].submitted_ns;
        assert!(
            last_sent >= out.reads[9].due_ns && out.reads[9].due_ns > out.reads[0].due_ns,
            "the client kept to the schedule"
        );
        for r in &out.reads {
            assert!(r.answered());
            assert!(
                r.submitted_ns <= last_sent,
                "the client never waited for an answer"
            );
            assert!(
                r.answered_ns >= last_sent && r.latency_s() >= (last_sent - r.due_ns) as f64 * 1e-9,
                "request due at {} ns reports {} s; the stall lasted until {last_sent} ns",
                r.due_ns,
                r.latency_s()
            );
        }
        assert_eq!(verify(&g, 0, &[], &out), (10, 0));
    }

    #[test]
    fn oracle_rejects_a_wrong_answer_and_tracks_epochs() {
        let spec = workload("serve-mixed-cached").unwrap();
        let g = cetric::gen::rmat_default(8, 5);
        let dir = InputDir::create(&std::env::temp_dir(), "oracle-test").unwrap();
        let plan = ServePlan {
            open_seconds: 0.0,
            closed_reads: 200,
            batches: 3,
        };
        write_serve_plan(spec, 5, &g, &plan, &dir, "t").unwrap();
        let plan = load_serve_plan(&dir, "t").unwrap();
        assert_eq!(plan.closed.len(), 200);
        assert_eq!(plan.batches.len(), 3);

        let engine = Engine::build(&g, engine_config(spec.load.cache_words, false));
        let writer = Writer::Beside(Duration::from_millis(5));
        let reference = Reference::new(&g, 2);
        let mut out = drive(&engine, &reference, &plan, writer, 0.05, || ());
        assert!(!out.updates.is_empty(), "the writer ran beside the reads");
        assert!(
            out.reads.iter().any(|r| r.epoch > 0),
            "reads saw new epochs"
        );
        let (attempted, failed) = verify(&g, 0, &plan.batches, &out);
        assert_eq!(attempted, (out.reads.len() + out.updates.len()) as u64);
        assert_eq!(failed, 0);

        let victim = out
            .reads
            .iter_mut()
            .find(|r| matches!(r.query, Query::EdgeSupport { .. }))
            .unwrap();
        if let Some(Ok(QueryAnswer::Support(pairs))) = &mut victim.answer {
            pairs[0].1 += 1;
        }
        assert_eq!(verify(&g, 0, &plan.batches, &out).1, 1);
    }
}

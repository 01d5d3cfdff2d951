//! Execution-trace recording for the verification layer (see the
//! `tricount-verify` crate).
//!
//! When the `trace` cargo feature is enabled and a run requests recording
//! (see [`crate::runtime::SimOptions::record_trace`]), every PE appends one
//! [`TraceEvent`] per communication action to a private per-PE buffer; the
//! buffers are assembled into a [`Trace`] when the run ends. Recording is a
//! plain `Vec::push` per event with no synchronisation, so traced runs stay
//! faithful to untraced ones (the schedule is not perturbed by recording).
//!
//! The events are chosen so that the paper's protocol invariants are
//! machine-checkable from the trace alone:
//!
//! * [`TraceEvent::Posted`] / [`TraceEvent::Delivered`] — every envelope
//!   handed to the queue must reach its destination's sink exactly once
//!   (multiset equality on `(dest, payload)`).
//! * [`TraceEvent::Posted::buffered_after`] — the §IV-A memory lemma: with
//!   `delta: Some(d)` the buffered volume never exceeds `d` by more than a
//!   bounded overshoot.
//! * [`TraceEvent::Flushed`] — grid-routed traffic leaves a PE only toward
//!   its O(√p) row/column peers (§IV-B).
//! * [`TraceEvent::CollEnter`] / [`TraceEvent::CollExit`] — all PEs execute
//!   the same sequence of collectives (epoch alignment).
//! * [`TraceEvent::Sent`] / [`TraceEvent::Received`] — the words the cost
//!   model charges equal the words that actually crossed the (simulated)
//!   wire.

/// The collective operations a PE can enter, in trace events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollKind {
    /// [`crate::Ctx::barrier`].
    Barrier,
    /// [`crate::Ctx::allgatherv`].
    Allgatherv,
    /// [`crate::Ctx::allreduce_sum`].
    AllreduceSum,
    /// [`crate::Ctx::allreduce_max`].
    AllreduceMax,
    /// [`crate::Ctx::exscan_sum`].
    ExscanSum,
    /// [`crate::Ctx::alltoallv`].
    Alltoallv,
    /// [`crate::MessageQueue::finish`] — the sparse-exchange termination.
    SparseFinish,
}

impl CollKind {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            CollKind::Barrier => "barrier",
            CollKind::Allgatherv => "allgatherv",
            CollKind::AllreduceSum => "allreduce_sum",
            CollKind::AllreduceMax => "allreduce_max",
            CollKind::ExscanSum => "exscan_sum",
            CollKind::Alltoallv => "alltoallv",
            CollKind::SparseFinish => "sparse_finish",
        }
    }
}

/// Sentinel sequence number for [`TraceEvent::Sent`]/[`TraceEvent::Received`]
/// events that are constituents of an `alltoallv` collective rather than
/// true point-to-point messages: their ordering is established by the
/// collective's enter/exit barriers, not by the per-peer sequence space.
pub const COLL_CONSTITUENT_SEQ: u64 = u64::MAX;

/// One recorded action of one PE. The PE is implicit: events live in
/// per-PE buffers ([`Trace::per_pe`]).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A [`crate::MessageQueue`] announced its configuration (recorded once
    /// per queue, at the first post). Starts a new *queue segment* in the
    /// event stream; segment-scoped invariants (memory bound, grid fan-out)
    /// reset here.
    QueueConfigured {
        /// Flush threshold δ in words (`None` = static aggregation).
        delta: Option<u64>,
        /// Whether the queue routes via the §IV-B grid.
        grid: bool,
    },
    /// An envelope was posted to the queue.
    Posted {
        /// Final destination PE.
        dest: usize,
        /// First hop chosen by the routing discipline.
        hop: usize,
        /// Payload length in words (headers excluded).
        payload_words: u64,
        /// Order-sensitive hash of the payload words.
        payload_hash: u64,
        /// Total buffered words *after* this post was appended (pre-flush).
        buffered_after: u64,
    },
    /// A relay record passed through this PE's buffers (grid second hop).
    Relayed {
        /// Final destination PE.
        dest: usize,
        /// Payload length in words.
        payload_words: u64,
        /// Hash of the payload words.
        payload_hash: u64,
        /// Total buffered words after appending the relay record.
        buffered_after: u64,
    },
    /// One per-peer buffer was flushed as a single aggregated message.
    Flushed {
        /// The peer the aggregate was sent to.
        peer: usize,
        /// Aggregate size in words (headers included).
        words: u64,
    },
    /// An envelope reached its destination sink.
    Delivered {
        /// Payload length in words.
        payload_words: u64,
        /// Hash of the payload words (matches the posting event's hash).
        payload_hash: u64,
    },
    /// A raw point-to-point message left this PE (queue flushes and direct
    /// sends; `alltoallv` constituents are recorded here too).
    Sent {
        /// Destination rank.
        to: usize,
        /// Message length in words.
        words: u64,
        /// Per-`(sender, to)` sequence number assigned at send time; pairs
        /// this event with the matching [`TraceEvent::Received`] for
        /// happens-before analysis. [`COLL_CONSTITUENT_SEQ`] for `alltoallv`
        /// constituents (those are ordered by the collective itself).
        seq: u64,
    },
    /// A raw point-to-point message was received.
    Received {
        /// Immediate sender rank.
        from: usize,
        /// Message length in words.
        words: u64,
        /// Sequence number carried by the message (assigned by the sender);
        /// see [`TraceEvent::Sent::seq`].
        seq: u64,
    },
    /// The PE entered a collective.
    CollEnter {
        /// Which collective.
        kind: CollKind,
    },
    /// The PE left a collective.
    CollExit {
        /// Which collective.
        kind: CollKind,
    },
    /// The PE ended a phase ([`crate::Ctx::end_phase`]).
    PhaseEnded {
        /// Phase name.
        name: String,
    },
}

/// A timestamp captured at a span boundary: host wall time relative to the
/// run's start. Wall stamps are measurement, not model — they vary run to
/// run and never feed deterministic artifacts.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStamp {
    /// Host wall nanoseconds since the run started.
    pub wall_nanos: u64,
}

/// What a recorded [`SpanRecord`] covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A barrier-delimited phase, closed by [`crate::Ctx::end_phase`].
    Phase,
    /// A collective, from entry to exit.
    Collective(CollKind),
    /// A [`crate::MessageQueue`] flush that actually sent something.
    Flush,
    /// A caller-named section ([`crate::Ctx::with_span`]).
    Task,
}

impl SpanKind {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Phase => "phase",
            SpanKind::Collective(_) => "collective",
            SpanKind::Flush => "flush",
            SpanKind::Task => "task",
        }
    }
}

/// One recorded span of one PE: a labelled interval with begin/end
/// stamps. Recorded with a plain `Vec::push` into a private per-PE buffer,
/// exactly like [`TraceEvent`]s, so span recording never perturbs the
/// schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// What the span covers.
    pub kind: SpanKind,
    /// Phase name, collective name, or caller-chosen label.
    pub label: String,
    /// Stamp at span entry.
    pub begin: SpanStamp,
    /// Stamp at span exit.
    pub end: SpanStamp,
}

impl SpanRecord {
    /// Wall duration in seconds (0 if the clock went backwards).
    pub fn wall_seconds(&self) -> f64 {
        self.end.wall_nanos.saturating_sub(self.begin.wall_nanos) as f64 * 1e-9
    }
}

/// The full per-PE event record of one simulated run.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Events of each PE, indexed by rank, in program order.
    pub per_pe: Vec<Vec<TraceEvent>>,
    /// Spans of each PE, indexed by rank, in completion order (a span is
    /// recorded when it ends). Empty per-PE vectors when the run recorded
    /// no spans.
    pub spans: Vec<Vec<SpanRecord>>,
}

impl Trace {
    /// Number of PEs.
    pub fn num_ranks(&self) -> usize {
        self.per_pe.len()
    }

    /// Total number of recorded events.
    pub fn len(&self) -> usize {
        self.per_pe.iter().map(Vec::len).sum()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of recorded spans.
    pub fn num_spans(&self) -> usize {
        self.spans.iter().map(Vec::len).sum()
    }
}

/// Order-sensitive Fx-style hash of a word slice, used to match posted
/// envelopes with their deliveries without widening the wire format.
#[inline]
pub fn hash_words(words: &[u64]) -> u64 {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    let mut h = words.len() as u64;
    for &w in words {
        h = (h.rotate_left(5) ^ w).wrapping_mul(SEED);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_order_sensitive() {
        assert_ne!(hash_words(&[1, 2]), hash_words(&[2, 1]));
        assert_ne!(hash_words(&[]), hash_words(&[0]));
        assert_eq!(hash_words(&[5, 6, 7]), hash_words(&[5, 6, 7]));
    }

    #[test]
    fn empty_trace_reports_empty() {
        let t = Trace::default();
        assert!(t.is_empty());
        assert_eq!(t.num_ranks(), 0);
    }
}

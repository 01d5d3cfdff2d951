//! The dynamically buffered message queue and asynchronous sparse all-to-all
//! of paper §IV-A/§IV-B — the machinery behind DITRIC's linear memory
//! guarantee and the grid-indirection variants.
//!
//! A producer posts *envelopes* (a destination plus a word payload, e.g. a
//! vertex neighborhood `(v, A(v))`). Envelopes headed for the same first-hop
//! peer are appended to that peer's buffer `B_j`. When the total buffered
//! volume `B = Σ_j |B_j|` exceeds the threshold `δ`, all buffers are flushed,
//! each as one aggregated message (the simulator's stand-in for the paper's
//! double buffering: sends complete immediately here, and the recorded
//! high-water mark of buffered words is the memory bound the paper proves).
//! Setting `δ ∈ O(|E_i|)` keeps per-PE memory linear in the local input.
//!
//! Three regimes fall out of one knob:
//! * `delta: Some(0)` — flush after every post: **no aggregation**
//!   (the Fig. 2 baseline).
//! * `delta: Some(d)` — DITRIC's dynamic aggregation.
//! * `delta: None` — never auto-flush: **static aggregation** as in TriC,
//!   whose peak buffered volume is the total outgoing volume (superlinear —
//!   this is what the paper identifies as TriC's memory blow-up).
//!
//! With [`Routing::Grid`], envelopes travel via the proxy of §IV-B and are
//! re-aggregated there (relay records pass through the proxy's own buffers),
//! cutting the peer count to O(√p).
//!
//! **Send before compute.** While a PE is still posting, [`MessageQueue::poll`]
//! takes each arriving message off the transport and forwards its relay
//! records at once, but parks the message in a FIFO *inbox* instead of
//! handing its envelopes to the sink: the sink's work (an intersection per
//! head, in the counting protocols) would otherwise delay this PE's own
//! flushes while its peers idle. The oldest messages reach the sink only
//! once the inbox holds more than [`INBOX_FACTOR`]`·δ` words, so per-PE
//! memory stays linear on the receive side too (δ plus one record to send,
//! `4δ` plus one message to process). [`MessageQueue::finish`] flushes the
//! PE's own buffers first, then drains the inbox before it takes new
//! arrivals. δ = 0 still delivers every message at once; `delta: None`
//! defers every delivery to `finish`. Only the moment the sink runs
//! changes: delivery order and the metered counters of a direct-routed
//! exchange are the same as with immediate delivery.
//!
//! **Termination.** Real MPI needs a nonblocking-consensus (NBX) protocol to
//! detect that no messages are in flight. The simulator uses shared
//! expected/delivered counters instead, but charges each exchange the
//! equivalent of one p-word all-reduce so modeled times do not benefit from
//! the shortcut.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;

use crate::cost::ceil_log2;
use crate::grid::Grid;
use crate::runtime::Ctx;
use crate::trace::{hash_words, SpanKind, TraceEvent};

/// Envelope routing discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Routing {
    /// Send every envelope straight to its destination.
    #[default]
    Direct,
    /// Two-hop grid indirection via the proxy PE (§IV-B).
    Grid,
}

/// Configuration of a [`MessageQueue`].
#[derive(Debug, Clone, Copy)]
pub struct QueueConfig {
    /// Flush threshold δ in buffered words; `None` = only flush on
    /// [`MessageQueue::finish`] (static aggregation).
    pub delta: Option<usize>,
    /// Routing discipline.
    pub routing: Routing,
}

impl QueueConfig {
    /// Dynamic aggregation with direct routing (DITRIC's default).
    pub fn dynamic(delta: usize) -> Self {
        QueueConfig {
            delta: Some(delta),
            routing: Routing::Direct,
        }
    }

    /// No aggregation: every envelope is its own message.
    pub fn unaggregated() -> Self {
        QueueConfig {
            delta: Some(0),
            routing: Routing::Direct,
        }
    }

    /// Static aggregation (TriC-style single batch).
    pub fn static_aggregation() -> Self {
        QueueConfig {
            delta: None,
            routing: Routing::Direct,
        }
    }
}

/// A received envelope, handed to the sink callback.
#[derive(Debug, Clone, Copy)]
pub struct Envelope<'a> {
    /// Payload words.
    pub payload: &'a [u64],
}

/// Words of framing per buffered envelope: `[final_dest, payload_len]`.
/// Public so the conformance linter can reconstruct record sizes.
pub const HEADER_WORDS: u64 = 2;

/// The inbox bound as a multiple of δ: before [`MessageQueue::finish`],
/// received envelopes reach the sink once more than `INBOX_FACTOR · δ`
/// words wait in the inbox.
pub const INBOX_FACTOR: u64 = 4;

/// A protocol violation to inject into a [`MessageQueue`], for validating
/// the conformance linter by mutation (`fault-injection` cargo feature;
/// never compiled into normal builds).
#[cfg(feature = "fault-injection")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Silently drop the `index`-th envelope posted on this PE: the post is
    /// still recorded in the trace, but the envelope never enters a buffer
    /// (and the destination's expected-counter is not incremented, so the
    /// exchange terminates and the *linter*, not a hang, reports the loss).
    DropEnvelope {
        /// Zero-based index among this PE's posts.
        index: u64,
    },
    /// Skip the first δ-threshold flush, letting the buffered volume
    /// overshoot the §IV-A memory bound.
    SkipFlushOnce,
}

/// The per-PE buffered message queue. One sparse exchange at a time per run;
/// all PEs must eventually call [`MessageQueue::finish`] (it is collective).
pub struct MessageQueue {
    cfg: QueueConfig,
    grid: Grid,
    rank: usize,
    p: usize,
    /// Per-first-hop-peer buffers.
    buffers: Vec<Vec<u64>>,
    buffered_words: u64,
    /// Received messages holding envelopes for this PE, oldest first, not
    /// yet handed to the sink.
    inbox: VecDeque<Vec<u64>>,
    inbox_words: u64,
    peak_inbox_words: u64,
    delivered: u64,
    finishing: bool,
    #[cfg(feature = "fault-injection")]
    posts_seen: u64,
    #[cfg(feature = "fault-injection")]
    drop_at: Option<u64>,
    #[cfg(feature = "fault-injection")]
    skip_flush_pending: bool,
}

impl MessageQueue {
    /// Creates the queue for this PE.
    pub fn new(ctx: &mut Ctx, cfg: QueueConfig) -> Self {
        let p = ctx.num_ranks();
        ctx.trace_with(|| TraceEvent::QueueConfigured {
            delta: cfg.delta.map(|d| d as u64),
            grid: cfg.routing == Routing::Grid,
        });
        MessageQueue {
            cfg,
            grid: Grid::new(p),
            rank: ctx.rank(),
            p,
            buffers: vec![Vec::new(); p],
            buffered_words: 0,
            inbox: VecDeque::new(),
            inbox_words: 0,
            peak_inbox_words: 0,
            delivered: 0,
            finishing: false,
            #[cfg(feature = "fault-injection")]
            posts_seen: 0,
            #[cfg(feature = "fault-injection")]
            drop_at: None,
            #[cfg(feature = "fault-injection")]
            skip_flush_pending: false,
        }
    }

    /// Arms an injected protocol violation (see [`Fault`]).
    #[cfg(feature = "fault-injection")]
    pub fn inject_fault(&mut self, fault: Fault) {
        match fault {
            Fault::DropEnvelope { index } => self.drop_at = Some(index),
            Fault::SkipFlushOnce => self.skip_flush_pending = true,
        }
    }

    /// Number of envelopes delivered to this PE so far in the current
    /// exchange.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// The most words this PE's inbox has held at once since the queue was
    /// created: at most `INBOX_FACTOR · δ` plus one message.
    pub fn peak_inbox_words(&self) -> u64 {
        self.peak_inbox_words
    }

    /// Posts an envelope to `dest`. May trigger a flush of all buffers when
    /// the δ threshold is exceeded. Posting to self is a programming error.
    pub fn post(&mut self, ctx: &mut Ctx, dest: usize, payload: &[u64]) {
        assert!(dest != self.rank, "post to self");
        assert!(dest < self.p);
        let hop = match self.cfg.routing {
            Routing::Direct => dest,
            Routing::Grid => self.grid.proxy(self.rank, dest),
        };
        #[cfg(feature = "fault-injection")]
        {
            let idx = self.posts_seen;
            self.posts_seen += 1;
            if self.drop_at == Some(idx) {
                // The post is traced but the envelope vanishes; the
                // destination is never told to expect it, so the exchange
                // terminates and the conformance linter sees the loss.
                let buffered = self.buffered_words;
                ctx.trace_with(|| TraceEvent::Posted {
                    dest,
                    hop,
                    payload_words: payload.len() as u64,
                    payload_hash: hash_words(payload),
                    buffered_after: buffered,
                });
                return;
            }
        }
        ctx.shared.expected[dest].fetch_add(1, Ordering::SeqCst);
        self.push_record(ctx, hop, dest, payload);
        let buffered = self.buffered_words;
        ctx.trace_with(|| TraceEvent::Posted {
            dest,
            hop,
            payload_words: payload.len() as u64,
            payload_hash: hash_words(payload),
            buffered_after: buffered,
        });
        self.maybe_flush(ctx);
    }

    fn push_record(&mut self, ctx: &mut Ctx, hop: usize, dest: usize, payload: &[u64]) {
        let buf = &mut self.buffers[hop];
        buf.push(dest as u64);
        buf.push(payload.len() as u64);
        buf.extend_from_slice(payload);
        self.buffered_words += HEADER_WORDS + payload.len() as u64;
        ctx.note_buffered(self.buffered_words);
    }

    fn maybe_flush(&mut self, ctx: &mut Ctx) {
        match self.cfg.delta {
            Some(d) if self.buffered_words > d as u64 => {
                #[cfg(feature = "fault-injection")]
                if self.skip_flush_pending {
                    self.skip_flush_pending = false;
                    return;
                }
                self.flush_all(ctx);
            }
            _ => {}
        }
    }

    /// Flushes every nonempty buffer as one aggregated message per peer.
    pub fn flush_all(&mut self, ctx: &mut Ctx) {
        let active = self.buffered_words > 0;
        if active {
            ctx.span_begin(SpanKind::Flush, "flush");
        }
        for peer in 0..self.p {
            if !self.buffers[peer].is_empty() {
                let buf = std::mem::take(&mut self.buffers[peer]);
                let words = buf.len() as u64;
                ctx.trace_with(|| TraceEvent::Flushed { peer, words });
                ctx.send_raw(peer, buf);
            }
        }
        if active {
            ctx.span_end();
        }
        self.buffered_words = 0;
        ctx.note_buffered(0);
    }

    /// Receives at most one incoming aggregated message and forwards its
    /// relay records (re-aggregated through this PE's buffers, or
    /// immediately when finishing). Its envelopes addressed here go to the
    /// inbox, and `sink` runs on the oldest inbox messages while the inbox
    /// exceeds its bound; while finishing, the inbox is drained first, one
    /// message per call, and new envelopes go straight to `sink`. Returns
    /// whether a message was taken off the transport or the inbox.
    pub fn poll<F>(&mut self, ctx: &mut Ctx, sink: &mut F) -> bool
    where
        F: FnMut(&mut Ctx, Envelope<'_>),
    {
        if self.finishing {
            if let Some(words) = self.pop_inbox() {
                self.deliver(ctx, &words, sink);
                return true;
            }
        }
        let Some(msg) = ctx.try_recv_raw() else {
            return false;
        };
        if self.relay(ctx, &msg.words) {
            if self.finishing {
                self.deliver(ctx, &msg.words, sink);
            } else {
                self.inbox_words += msg.words.len() as u64;
                self.peak_inbox_words = self.peak_inbox_words.max(self.inbox_words);
                self.inbox.push_back(msg.words);
                self.drain_inbox(ctx, sink);
            }
        }
        true
    }

    /// Hands the oldest inbox messages to `sink` until the inbox holds at
    /// most `INBOX_FACTOR · δ` words (`delta: None`: keep everything).
    fn drain_inbox<F>(&mut self, ctx: &mut Ctx, sink: &mut F)
    where
        F: FnMut(&mut Ctx, Envelope<'_>),
    {
        let Some(d) = self.cfg.delta else {
            return;
        };
        while self.inbox_words > INBOX_FACTOR * d as u64 {
            let Some(words) = self.pop_inbox() else {
                break;
            };
            self.deliver(ctx, &words, sink);
        }
    }

    /// Takes the oldest message out of the inbox.
    fn pop_inbox(&mut self) -> Option<Vec<u64>> {
        let words = self.inbox.pop_front()?;
        self.inbox_words -= words.len() as u64;
        Some(words)
    }

    /// Forwards the relay records of a received message toward their final
    /// destinations (the second hop of grid routing is always direct).
    /// Returns whether the message holds envelopes addressed here.
    fn relay(&mut self, ctx: &mut Ctx, words: &[u64]) -> bool {
        let (mut local, mut relayed) = (false, false);
        for (dest, payload) in records(words) {
            if dest == self.rank {
                local = true;
                continue;
            }
            self.push_record(ctx, dest, dest, payload);
            let buffered = self.buffered_words;
            ctx.trace_with(|| TraceEvent::Relayed {
                dest,
                payload_words: payload.len() as u64,
                payload_hash: hash_words(payload),
                buffered_after: buffered,
            });
            relayed = true;
        }
        if relayed {
            if self.finishing {
                self.flush_all(ctx);
            } else {
                self.maybe_flush(ctx);
            }
        }
        local
    }

    /// Passes the envelopes of a received message that are addressed here
    /// to `sink`, in message order.
    fn deliver<F>(&mut self, ctx: &mut Ctx, words: &[u64], sink: &mut F)
    where
        F: FnMut(&mut Ctx, Envelope<'_>),
    {
        for (dest, payload) in records(words) {
            if dest != self.rank {
                continue;
            }
            self.delivered += 1;
            ctx.report_delivered(self.delivered);
            ctx.trace_with(|| TraceEvent::Delivered {
                payload_words: payload.len() as u64,
                payload_hash: hash_words(payload),
            });
            sink(ctx, Envelope { payload });
        }
    }

    /// Declares this PE done producing: flushes its buffers, then polls
    /// (draining the inbox first, then delivering and forwarding new
    /// arrivals) until the exchange has globally terminated. Collective:
    /// every PE must call it exactly once per exchange. The queue is reset
    /// and reusable for a subsequent exchange afterwards.
    pub fn finish<F>(&mut self, ctx: &mut Ctx, sink: &mut F)
    where
        F: FnMut(&mut Ctx, Envelope<'_>),
    {
        self.finishing = true;
        ctx.enter_sparse_finish();
        self.flush_all(ctx);
        let shared = ctx.shared;
        shared.producers_done.fetch_add(1, Ordering::SeqCst);
        let mut marked = false;
        loop {
            let progressed = self.poll(ctx, sink);
            if !marked
                && shared.producers_done.load(Ordering::SeqCst) == self.p
                && self.delivered == shared.expected[self.rank].load(Ordering::SeqCst)
            {
                shared.satisfied.fetch_add(1, Ordering::SeqCst);
                marked = true;
            }
            if shared.satisfied.load(Ordering::SeqCst) == self.p {
                break;
            }
            if !progressed {
                std::thread::yield_now();
            }
        }
        // Charge the NBX-equivalent termination consensus: one p-word
        // all-reduce.
        {
            let log = ceil_log2(self.p);
            ctx.charge_collective(log, log * self.p as u64);
        }
        // Reset shared exchange state for the next exchange.
        ctx.barrier_uncharged();
        if self.rank == 0 {
            for e in shared.expected.iter() {
                e.store(0, Ordering::SeqCst);
            }
            shared.producers_done.store(0, Ordering::SeqCst);
            shared.satisfied.store(0, Ordering::SeqCst);
        }
        ctx.barrier_uncharged();
        debug_assert!(self.inbox.is_empty(), "exchange ended with a full inbox");
        self.delivered = 0;
        ctx.report_delivered(0);
        self.finishing = false;
        ctx.exit_sparse_finish();
    }
}

/// The `(final_dest, payload)` records of an aggregated message.
fn records(words: &[u64]) -> impl Iterator<Item = (usize, &[u64])> {
    let mut i = 0usize;
    std::iter::from_fn(move || {
        (i < words.len()).then(|| {
            let len = words[i + 1] as usize;
            let record = (words[i] as usize, &words[i + 2..i + 2 + len]);
            i += 2 + len;
            record
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{run_sim, SimOptions};

    fn exchange_all_pairs(p: usize, cfg: QueueConfig) -> crate::runtime::RunOutput<Vec<Vec<u64>>> {
        run_sim(p, &SimOptions::default(), move |ctx| {
            let mut q = MessageQueue::new(ctx, cfg);
            let mut inbox: Vec<Vec<u64>> = Vec::new();
            let me = ctx.rank() as u64;
            for d in 0..p {
                if d != ctx.rank() {
                    q.post(ctx, d, &[me * 100 + d as u64, me]);
                }
                // interleave polling as the algorithms do
                q.poll(ctx, &mut |_c, env| inbox.push(env.payload.to_vec()));
            }
            q.finish(ctx, &mut |_c, env| inbox.push(env.payload.to_vec()));
            inbox.sort();
            inbox
        })
        .output
    }

    fn check_all_pairs(p: usize, out: &crate::runtime::RunOutput<Vec<Vec<u64>>>) {
        for (me, inbox) in out.results.iter().enumerate() {
            let mut expect: Vec<Vec<u64>> = (0..p)
                .filter(|&s| s != me)
                .map(|s| vec![(s * 100 + me) as u64, s as u64])
                .collect();
            expect.sort();
            assert_eq!(inbox, &expect, "rank {me} (p={p})");
        }
    }

    #[test]
    fn direct_unaggregated_delivers_everything() {
        for p in [2usize, 3, 5, 8] {
            let out = exchange_all_pairs(p, QueueConfig::unaggregated());
            check_all_pairs(p, &out);
            // one message per envelope
            assert_eq!(out.stats.total_messages(), (p * (p - 1)) as u64);
        }
    }

    #[test]
    fn dynamic_aggregation_delivers_everything_with_fewer_messages() {
        let p = 4;
        let rounds = 10u64;
        let mk = |cfg: QueueConfig| {
            run_sim(p, &SimOptions::default(), move |ctx| {
                let mut q = MessageQueue::new(ctx, cfg);
                let mut sum = 0u64;
                for r in 0..rounds {
                    for d in 0..p {
                        if d != ctx.rank() {
                            q.post(ctx, d, &[r + 1]);
                        }
                    }
                }
                q.finish(ctx, &mut |_c, env| sum += env.payload[0]);
                sum
            })
            .output
        };
        let agg = mk(QueueConfig::dynamic(1 << 20));
        let none = mk(QueueConfig::unaggregated());
        let expect: u64 = (p as u64 - 1) * (1..=rounds).sum::<u64>();
        assert!(agg.results.iter().all(|&s| s == expect));
        assert!(none.results.iter().all(|&s| s == expect));
        // aggregated: one message per (src,dst) pair; unaggregated: one per
        // envelope (rounds× more)
        assert_eq!(agg.stats.total_messages(), (p * (p - 1)) as u64);
        assert_eq!(none.stats.total_messages(), (p * (p - 1)) as u64 * rounds);
        // payload volume identical (headers included in both)
        assert_eq!(agg.stats.total_volume(), none.stats.total_volume());
    }

    #[test]
    fn static_aggregation_buffers_everything() {
        let p = 4;
        let out = exchange_all_pairs(p, QueueConfig::static_aggregation());
        check_all_pairs(p, &out);
        // exactly one message per (src, dest) pair
        assert_eq!(out.stats.total_messages(), (p * (p - 1)) as u64);
        // peak buffered = all 3 envelopes of 4 words
        assert_eq!(out.stats.max_peak_buffered(), 12);
    }

    #[test]
    fn grid_routing_delivers_everything() {
        for p in [2usize, 4, 7, 9, 12, 16] {
            let out = exchange_all_pairs(
                p,
                QueueConfig {
                    delta: Some(64),
                    routing: Routing::Grid,
                },
            );
            check_all_pairs(p, &out);
        }
    }

    #[test]
    fn grid_routing_reduces_peer_fanout() {
        // all-to-one hotspot: everyone sends many envelopes to rank 0
        let p = 16;
        let run_cfg = |routing| {
            run_sim(p, &SimOptions::default(), move |ctx| {
                let mut q = MessageQueue::new(
                    ctx,
                    QueueConfig {
                        delta: Some(1 << 16),
                        routing,
                    },
                );
                let mut got = 0u64;
                if ctx.rank() != 0 {
                    for i in 0..32u64 {
                        q.post(ctx, 0, &[i]);
                    }
                }
                q.finish(ctx, &mut |_c, _e| got += 1);
                got
            })
            .output
        };
        let direct = run_cfg(Routing::Direct);
        let grid = run_cfg(Routing::Grid);
        assert_eq!(direct.results[0], 15 * 32);
        assert_eq!(grid.results[0], 15 * 32);
        // Deterministic fan-in property (§IV-B): directly, the hotspot hears
        // from all p−1 = 15 peers; under grid routing only from its own row
        // and column (senders there go direct, every proxy for (i,j)→(0,0)
        // lies in column 0), i.e. ≤ (cols−1)+(rows−1) = 6 peers for p = 16.
        let recv_peers_direct = direct.stats.phases[0].per_rank[0].recv_peers;
        let recv_peers_grid = grid.stats.phases[0].per_rank[0].recv_peers;
        assert_eq!(recv_peers_direct, 15);
        assert!(
            recv_peers_grid <= 6,
            "grid fan-in {recv_peers_grid} exceeds row+column bound"
        );
    }

    #[test]
    fn delta_bounds_peak_buffering() {
        let p = 4;
        let delta = 16usize;
        let out = run_sim(p, &SimOptions::default(), move |ctx| {
            let mut q = MessageQueue::new(ctx, QueueConfig::dynamic(delta));
            for round in 0..50u64 {
                for d in 0..p {
                    if d != ctx.rank() {
                        q.post(ctx, d, &[round, round, round]);
                    }
                }
            }
            q.finish(ctx, &mut |_c, _e| {});
        })
        .output;
        // peak ≤ δ + one max record (header 2 + payload 3)
        assert!(out.stats.max_peak_buffered() <= delta as u64 + 5);
    }

    #[test]
    fn consecutive_exchanges_reuse_the_queue() {
        let p = 3;
        let out = run_sim(p, &SimOptions::default(), move |ctx| {
            let mut q = MessageQueue::new(ctx, QueueConfig::dynamic(8));
            let mut sums = Vec::new();
            for round in 1..=3u64 {
                let mut acc = 0u64;
                for d in 0..p {
                    if d != ctx.rank() {
                        q.post(ctx, d, &[round * 10]);
                    }
                }
                q.finish(ctx, &mut |_c, env| acc += env.payload[0]);
                sums.push(acc);
            }
            sums
        })
        .output;
        for r in &out.results {
            assert_eq!(r, &vec![20, 40, 60]);
        }
    }

    #[test]
    fn empty_exchange_terminates() {
        let out = run_sim(4, &SimOptions::default(), |ctx| {
            let mut q = MessageQueue::new(ctx, QueueConfig::dynamic(8));
            let mut n = 0u64;
            q.finish(ctx, &mut |_c, _e| n += 1);
            n
        })
        .output;
        assert!(out.results.iter().all(|&n| n == 0));
    }

    #[test]
    fn hotspot_volume_doubles_under_grid() {
        // grid indirection trades volume (2×) for fan-in (√p) — §IV-B.
        let p = 16;
        let mk = |routing| {
            run_sim(p, &SimOptions::default(), move |ctx| {
                let mut q = MessageQueue::new(
                    ctx,
                    QueueConfig {
                        delta: Some(1 << 16),
                        routing,
                    },
                );
                if ctx.rank() != 0 {
                    q.post(ctx, 0, &[7, 7, 7, 7]);
                }
                q.finish(ctx, &mut |_c, _e| {});
            })
            .output
        };
        let direct = mk(Routing::Direct);
        let grid = mk(Routing::Grid);
        let dv = direct.stats.total_volume();
        let gv = grid.stats.total_volume();
        assert!(gv > dv, "grid should add relay volume: {gv} !> {dv}");
        assert!(gv <= 2 * dv, "at most double: {gv} > 2*{dv}");
    }
}

//! Per-PE counters, per-phase aggregation, and modeled-time evaluation.
//!
//! Every quantity the paper's evaluation plots is derived from these
//! counters: total/modeled running time, the *maximum number of outgoing
//! messages over all PEs*, and the *bottleneck communication volume*
//! (max per-PE sent words) of Fig. 5, plus the per-phase break-down of
//! Fig. 7 and the buffer-memory footprints discussed for TriC.

use crate::cost::CostModel;

/// Counters owned by one PE. Message/word counters meter real traffic;
/// `coll_alpha_units`/`coll_word_units` meter the analytic cost of
/// collectives (charged as multiples of α and β); `work_ops` meters local
/// work in intersection candidate comparisons.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// Point-to-point messages sent (after aggregation, including relays).
    pub sent_messages: u64,
    /// Machine words sent in point-to-point messages (incl. envelope headers).
    pub sent_words: u64,
    /// Point-to-point messages received.
    pub recv_messages: u64,
    /// Machine words received.
    pub recv_words: u64,
    /// Local work in candidate comparisons.
    pub work_ops: u64,
    /// Collective latency charge, in multiples of α.
    pub coll_alpha_units: u64,
    /// Collective bandwidth charge, in machine words (multiples of β).
    pub coll_word_units: u64,
    /// Peak words simultaneously buffered in aggregation queues.
    pub peak_buffered_words: u64,
    /// Distinct PEs this PE has sent point-to-point messages to (running
    /// count over the whole run; phase deltas report the running value).
    pub sent_peers: u64,
    /// Distinct PEs point-to-point messages were received from (running
    /// count, like [`Counters::sent_peers`]).
    pub recv_peers: u64,
}

impl Counters {
    /// Counter-wise difference `self − earlier` (peaks take the later value,
    /// which is already a running maximum).
    pub fn delta_since(&self, earlier: &Counters) -> Counters {
        Counters {
            sent_messages: self.sent_messages - earlier.sent_messages,
            sent_words: self.sent_words - earlier.sent_words,
            recv_messages: self.recv_messages - earlier.recv_messages,
            recv_words: self.recv_words - earlier.recv_words,
            work_ops: self.work_ops - earlier.work_ops,
            coll_alpha_units: self.coll_alpha_units - earlier.coll_alpha_units,
            coll_word_units: self.coll_word_units - earlier.coll_word_units,
            peak_buffered_words: self.peak_buffered_words,
            sent_peers: self.sent_peers,
            recv_peers: self.recv_peers,
        }
    }

    /// Accumulates `other` into `self`: flow counters add, peak/peer
    /// counters take the max. This is the snapshot-folding rule used by
    /// long-lived consumers (the query engine) that aggregate many runs'
    /// statistics into one running [`Counters`] record.
    pub fn absorb(&mut self, other: &Counters) {
        self.sent_messages += other.sent_messages;
        self.sent_words += other.sent_words;
        self.recv_messages += other.recv_messages;
        self.recv_words += other.recv_words;
        self.work_ops += other.work_ops;
        self.coll_alpha_units += other.coll_alpha_units;
        self.coll_word_units += other.coll_word_units;
        self.peak_buffered_words = self.peak_buffered_words.max(other.peak_buffered_words);
        self.sent_peers = self.sent_peers.max(other.sent_peers);
        self.recv_peers = self.recv_peers.max(other.recv_peers);
    }

    /// Modeled execution time of this PE under `cost`, using the
    /// single-ported full-duplex rule: latency and bandwidth are charged on
    /// the max of the send and receive directions.
    pub fn modeled_time(&self, cost: &CostModel) -> f64 {
        let msgs = self.sent_messages.max(self.recv_messages) + self.coll_alpha_units;
        let words = self.sent_words.max(self.recv_words) + self.coll_word_units;
        cost.t_op * self.work_ops as f64 + cost.alpha * msgs as f64 + cost.beta * words as f64
    }
}

/// One barrier-delimited phase: a name and every PE's counter deltas.
#[derive(Debug, Clone)]
pub struct PhaseStats {
    /// Phase name (must agree across PEs; e.g. "preprocessing", "local",
    /// "global").
    pub name: String,
    /// Counter deltas per PE, indexed by rank.
    pub per_rank: Vec<Counters>,
    /// Measured wall-clock seconds each PE spent in the phase, indexed by
    /// rank. Deliberately *not* part of [`Counters`]: counters are the
    /// deterministic modeled record (bit-compared across schedules), while
    /// wall time is honest parallel execution time on the host machine.
    pub wall_per_rank: Vec<f64>,
}

impl PhaseStats {
    /// Builds a phase record with no wall-clock measurements (synthetic
    /// stats in tests and report tooling).
    pub fn unmeasured(name: impl Into<String>, per_rank: Vec<Counters>) -> PhaseStats {
        let wall_per_rank = vec![0.0; per_rank.len()];
        PhaseStats {
            name: name.into(),
            per_rank,
            wall_per_rank,
        }
    }

    /// Measured wall time of the phase: the slowest PE (the phase ends at
    /// a barrier). 0 for synthetic stats.
    pub fn max_wall(&self) -> f64 {
        self.wall_per_rank.iter().copied().fold(0.0, f64::max)
    }
    /// Modeled wall time of the phase: the slowest PE under `cost` (the
    /// phase ends at a barrier).
    pub fn modeled_time(&self, cost: &CostModel) -> f64 {
        self.per_rank
            .iter()
            .map(|c| c.modeled_time(cost))
            .fold(0.0, f64::max)
    }

    /// Max over PEs of outgoing messages in this phase.
    pub fn max_sent_messages(&self) -> u64 {
        self.per_rank
            .iter()
            .map(|c| c.sent_messages)
            .max()
            .unwrap_or(0)
    }

    /// Max over PEs of sent words (bottleneck communication volume).
    pub fn bottleneck_volume(&self) -> u64 {
        self.per_rank
            .iter()
            .map(|c| c.sent_words)
            .max()
            .unwrap_or(0)
    }

    /// Total words sent by all PEs.
    pub fn total_volume(&self) -> u64 {
        self.per_rank.iter().map(|c| c.sent_words).sum()
    }

    /// Total local work over all PEs.
    pub fn total_work(&self) -> u64 {
        self.per_rank.iter().map(|c| c.work_ops).sum()
    }

    /// Max over PEs of peak buffered words.
    pub fn max_peak_buffered(&self) -> u64 {
        self.per_rank
            .iter()
            .map(|c| c.peak_buffered_words)
            .max()
            .unwrap_or(0)
    }
}

/// The full execution record of one simulated run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Number of PEs.
    pub p: usize,
    /// Phases in execution order.
    pub phases: Vec<PhaseStats>,
    /// Measured transport contention (queue lock-wait, occupancy
    /// high-water, barrier spin) of a wall-profiled threads run
    /// (`SimOptions::wall_profile`); `None` otherwise. Strictly additive:
    /// the modeled meters above are bit-identical with or without it.
    pub contention: Option<tricount_net::ContentionSummary>,
}

impl RunStats {
    /// Modeled running time: the sum over phases of the slowest PE.
    pub fn modeled_time(&self, cost: &CostModel) -> f64 {
        self.phases.iter().map(|ph| ph.modeled_time(cost)).sum()
    }

    /// Measured wall-clock running time: the sum over phases of the slowest
    /// PE's wall seconds. The honest-parallel counterpart of
    /// [`RunStats::modeled_time`] — compare the two to see how far the
    /// machine model is from this host's reality.
    pub fn wall_time(&self) -> f64 {
        self.phases.iter().map(|ph| ph.max_wall()).sum()
    }

    /// Modeled time of one named phase (0 if absent).
    pub fn phase_time(&self, name: &str, cost: &CostModel) -> f64 {
        self.phases
            .iter()
            .filter(|ph| ph.name == name)
            .map(|ph| ph.modeled_time(cost))
            .sum()
    }

    /// Maximum outgoing messages over all PEs, whole run (Fig. 5 middle row).
    pub fn max_sent_messages(&self) -> u64 {
        (0..self.p)
            .map(|r| {
                self.phases
                    .iter()
                    .map(|ph| ph.per_rank[r].sent_messages)
                    .sum::<u64>()
            })
            .max()
            .unwrap_or(0)
    }

    /// Bottleneck communication volume: max over PEs of total sent words
    /// (Fig. 5 bottom row).
    pub fn bottleneck_volume(&self) -> u64 {
        (0..self.p)
            .map(|r| {
                self.phases
                    .iter()
                    .map(|ph| ph.per_rank[r].sent_words)
                    .sum::<u64>()
            })
            .max()
            .unwrap_or(0)
    }

    /// Total communication volume over all PEs and phases, in words.
    pub fn total_volume(&self) -> u64 {
        self.phases.iter().map(|ph| ph.total_volume()).sum()
    }

    /// Total messages over all PEs and phases.
    pub fn total_messages(&self) -> u64 {
        self.phases
            .iter()
            .flat_map(|ph| ph.per_rank.iter())
            .map(|c| c.sent_messages)
            .sum()
    }

    /// Total local work over all PEs and phases.
    pub fn total_work(&self) -> u64 {
        self.phases.iter().map(|ph| ph.total_work()).sum()
    }

    /// Max over PEs and phases of peak buffered words (the O(|E_i|) memory
    /// guarantee is asserted against this).
    pub fn max_peak_buffered(&self) -> u64 {
        self.phases
            .iter()
            .map(|ph| ph.max_peak_buffered())
            .max()
            .unwrap_or(0)
    }

    /// One whole-run [`Counters`] snapshot: flow counters summed over all
    /// phases and ranks, peaks/peers as run-wide maxima. The compact
    /// record long-lived consumers fold across runs via
    /// [`Counters::absorb`].
    pub fn totals(&self) -> Counters {
        let mut acc = Counters::default();
        for ph in &self.phases {
            for c in &ph.per_rank {
                acc.absorb(c);
            }
        }
        acc
    }

    /// Like [`RunStats::totals`] but restricted to phases named `name`
    /// (zeroed counters if the phase never ran). Lets callers prove phase-
    /// level properties, e.g. that a resident engine's queries spend no
    /// communication in "preprocessing".
    pub fn phase_totals(&self, name: &str) -> Counters {
        let mut acc = Counters::default();
        for ph in self.phases.iter().filter(|ph| ph.name == name) {
            for c in &ph.per_rank {
                acc.absorb(c);
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(sent_m: u64, sent_w: u64, recv_m: u64, recv_w: u64, work: u64) -> Counters {
        Counters {
            sent_messages: sent_m,
            sent_words: sent_w,
            recv_messages: recv_m,
            recv_words: recv_w,
            work_ops: work,
            ..Default::default()
        }
    }

    #[test]
    fn modeled_time_uses_max_direction() {
        let cost = CostModel::comm_only(1.0, 1.0);
        // 2 msgs out, 5 in → 5α; 10 words out, 3 in → 10β
        let t = c(2, 10, 5, 3, 0).modeled_time(&cost);
        assert_eq!(t, 5.0 + 10.0);
    }

    #[test]
    fn phase_time_is_bottleneck_rank() {
        let cost = CostModel::comm_only(0.0, 1.0);
        let ph = PhaseStats::unmeasured(
            "x",
            vec![c(0, 5, 0, 0, 0), c(0, 20, 0, 0, 0), c(0, 1, 0, 0, 0)],
        );
        assert_eq!(ph.modeled_time(&cost), 20.0);
        assert_eq!(ph.bottleneck_volume(), 20);
        assert_eq!(ph.total_volume(), 26);
    }

    #[test]
    fn run_aggregates_across_phases_per_rank() {
        let stats = RunStats {
            p: 2,
            phases: vec![
                PhaseStats::unmeasured("a", vec![c(1, 10, 0, 0, 0), c(3, 2, 0, 0, 0)]),
                PhaseStats::unmeasured("b", vec![c(4, 1, 0, 0, 0), c(1, 5, 0, 0, 0)]),
            ],
            contention: None,
        };
        // rank0: 5 msgs, 11 words; rank1: 4 msgs, 7 words
        assert_eq!(stats.max_sent_messages(), 5);
        assert_eq!(stats.bottleneck_volume(), 11);
        assert_eq!(stats.total_volume(), 18);
        assert_eq!(stats.total_messages(), 9);
    }

    #[test]
    fn delta_since_subtracts_flows_keeps_peak() {
        let early = Counters {
            sent_messages: 2,
            sent_words: 10,
            peak_buffered_words: 7,
            ..Default::default()
        };
        let late = Counters {
            sent_messages: 5,
            sent_words: 25,
            peak_buffered_words: 9,
            ..Default::default()
        };
        let d = late.delta_since(&early);
        assert_eq!(d.sent_messages, 3);
        assert_eq!(d.sent_words, 15);
        assert_eq!(d.peak_buffered_words, 9);
    }

    #[test]
    fn totals_fold_flows_and_peaks() {
        let mut a = c(1, 10, 2, 20, 5);
        a.peak_buffered_words = 7;
        let mut b = c(3, 30, 4, 40, 6);
        b.peak_buffered_words = 4;
        let stats = RunStats {
            p: 2,
            phases: vec![
                PhaseStats::unmeasured("x", vec![a, b]),
                PhaseStats::unmeasured("y", vec![c(0, 0, 0, 0, 1), c(0, 0, 0, 0, 2)]),
            ],
            contention: None,
        };
        let t = stats.totals();
        assert_eq!(t.sent_messages, 4);
        assert_eq!(t.sent_words, 40);
        assert_eq!(t.recv_words, 60);
        assert_eq!(t.work_ops, 14);
        assert_eq!(t.peak_buffered_words, 7);
        let px = stats.phase_totals("x");
        assert_eq!(px.work_ops, 11);
        assert_eq!(stats.phase_totals("missing"), Counters::default());
    }

    #[test]
    fn work_costs_via_t_op() {
        let cost = CostModel {
            alpha: 0.0,
            beta: 0.0,
            t_op: 2.0,
        };
        assert_eq!(c(9, 9, 9, 9, 3).modeled_time(&cost), 6.0);
    }
}

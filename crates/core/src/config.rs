//! Algorithm variants and their configuration knobs.
//!
//! The paper evaluates five of its own variants plus two competitors; all
//! are expressible as settings of [`DistConfig`] (plus the contraction that
//! distinguishes CETRIC from DITRIC, selected via [`Algorithm`]).

use tricount_comm::{Routing, TransportKind};
use tricount_graph::kernels::KernelPolicy;
use tricount_graph::OrderingKind;

/// Message-aggregation policy of the buffered queue (§IV-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Aggregation {
    /// No aggregation: every neighborhood/message is sent immediately
    /// (the Fig. 2 baseline).
    None,
    /// Dynamic buffering with flush threshold `δ = max(64,
    /// factor·|E_i|)` words — DITRIC's linear-memory scheme.
    Dynamic {
        /// δ as a fraction of the local input size `|E_i|`.
        delta_factor: f64,
    },
    /// Static buffering: everything is aggregated up front and sent in one
    /// batch (TriC's scheme; memory grows with the total outgoing volume).
    Static,
}

/// How the ghost degree exchange of the preprocessing phase is realised
/// (paper §IV-D): a *dense* all-to-all is simple and robust under skew; a
/// *sparse* (request/response through the buffered queue) exchange pays off
/// when each PE has few communication partners but "may perform worse than a
/// dense degree exchange" on skewed degree distributions — which is why the
/// paper's evaluation uses the dense one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegreeExchange {
    /// Dense irregular all-to-all (the paper's choice).
    #[default]
    Dense,
    /// Sparse asynchronous request/response via the message queue
    /// (Hoefler & Träff-style sparse collective).
    Sparse,
}

/// Configuration shared by the distributed algorithms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistConfig {
    /// Total order used to orient the graph.
    pub ordering: OrderingKind,
    /// Aggregation policy.
    pub aggregation: Aggregation,
    /// Direct or grid-indirect message delivery (§IV-B).
    pub routing: Routing,
    /// Surrogate deduplication (Arifuzzaman et al.): send each neighborhood
    /// at most once per destination PE.
    pub dedup: bool,
    /// Ghost degree exchange flavour (§IV-D).
    pub degree_exchange: DegreeExchange,
    /// Vertex-delegate threshold for the HavoqGT-like baseline (Pearce et
    /// al.: "partition the neighborhoods of high-degree vertices among
    /// multiple PEs"): oriented neighborhoods larger than this are broadcast
    /// to delegate PEs which generate the wedge visitors in parallel,
    /// flattening the wedge-generation hotspot. `None` = no delegation.
    pub delegate_threshold: Option<u64>,
    /// Per-PE memory limit in buffered words (`None` = unlimited). Runs
    /// whose buffers would exceed it fail with
    /// [`DistError::OutOfMemory`](crate::result::DistError::OutOfMemory),
    /// reproducing the TriC crashes the paper reports.
    pub memory_limit_words: Option<u64>,
    /// Intra-PE parallelism policy of the counting loops (chunked local
    /// pass on a worker pool).
    pub kernels: KernelPolicy,
    /// Which data plane carries the run's communication:
    /// [`TransportKind::Sim`] (default) is the metered simulator,
    /// [`TransportKind::Threads`] executes the same protocol in real
    /// parallel over shared memory. Counts and comm meters are identical on
    /// both; the threads backend additionally yields honest per-phase wall
    /// clock. Explicit `SimOptions.transport` overrides this field.
    pub transport: TransportKind,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            ordering: OrderingKind::Degree,
            aggregation: Aggregation::Dynamic { delta_factor: 0.25 },
            routing: Routing::Direct,
            dedup: true,
            degree_exchange: DegreeExchange::Dense,
            delegate_threshold: None,
            memory_limit_words: None,
            kernels: KernelPolicy::default(),
            transport: TransportKind::Sim,
        }
    }
}

impl DistConfig {
    /// Resolves the queue flush threshold for a PE with `local_entries`
    /// adjacency words. `None` means "never auto-flush" (static).
    pub fn resolve_delta(&self, local_entries: u64) -> Option<usize> {
        match self.aggregation {
            Aggregation::None => Some(0),
            Aggregation::Dynamic { delta_factor } => {
                Some(((local_entries as f64 * delta_factor) as usize).max(64))
            }
            Aggregation::Static => None,
        }
    }
}

/// The algorithm variants of the paper's evaluation (§V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Distributed EDGEITERATOR without aggregation or dedup — the
    /// "no aggregation" baseline of Fig. 2.
    Unaggregated,
    /// DITRIC: dynamic aggregation, direct delivery.
    Ditric,
    /// DITRIC²: DITRIC + grid-indirect delivery.
    Ditric2,
    /// CETRIC: DITRIC + locality exploitation (expanded local graph +
    /// contraction, §IV-C).
    Cetric,
    /// CETRIC²: CETRIC + grid-indirect delivery.
    Cetric2,
    /// TriC-like competitor: no orientation, static single-batch
    /// aggregation.
    TricLike,
    /// HavoqGT-like competitor: vertex-centric wedge visitors with
    /// aggregation and rerouting.
    HavoqgtLike,
}

impl Algorithm {
    /// The paper's own variants (Fig. 5/6 legend order).
    pub fn ours() -> [Algorithm; 4] {
        [
            Algorithm::Ditric,
            Algorithm::Ditric2,
            Algorithm::Cetric,
            Algorithm::Cetric2,
        ]
    }

    /// Everything compared in the scaling plots.
    pub fn all() -> [Algorithm; 7] {
        [
            Algorithm::Unaggregated,
            Algorithm::Ditric,
            Algorithm::Ditric2,
            Algorithm::Cetric,
            Algorithm::Cetric2,
            Algorithm::TricLike,
            Algorithm::HavoqgtLike,
        ]
    }

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Unaggregated => "EdgeIterator-unagg",
            Algorithm::Ditric => "DITRIC",
            Algorithm::Ditric2 => "DITRIC2",
            Algorithm::Cetric => "CETRIC",
            Algorithm::Cetric2 => "CETRIC2",
            Algorithm::TricLike => "TriC-like",
            Algorithm::HavoqgtLike => "HavoqGT-like",
        }
    }

    /// Whether this variant runs the CETRIC contraction pipeline.
    pub fn uses_contraction(self) -> bool {
        matches!(self, Algorithm::Cetric | Algorithm::Cetric2)
    }

    /// The default configuration realising this variant.
    pub fn config(self) -> DistConfig {
        let base = DistConfig::default();
        match self {
            Algorithm::Unaggregated => DistConfig {
                aggregation: Aggregation::None,
                dedup: false,
                ..base
            },
            Algorithm::Ditric | Algorithm::Cetric => base,
            Algorithm::Ditric2 | Algorithm::Cetric2 => DistConfig {
                routing: Routing::Grid,
                ..base
            },
            Algorithm::TricLike => DistConfig {
                ordering: OrderingKind::Id,
                aggregation: Aggregation::Static,
                dedup: false,
                ..base
            },
            Algorithm::HavoqgtLike => DistConfig {
                routing: Routing::Grid,
                ..base
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_resolution() {
        let cfg = DistConfig {
            aggregation: Aggregation::Dynamic { delta_factor: 0.5 },
            ..DistConfig::default()
        };
        assert_eq!(cfg.resolve_delta(1000), Some(500));
        assert_eq!(cfg.resolve_delta(10), Some(64)); // floor
        let none = DistConfig {
            aggregation: Aggregation::None,
            ..DistConfig::default()
        };
        assert_eq!(none.resolve_delta(1000), Some(0));
        let st = DistConfig {
            aggregation: Aggregation::Static,
            ..DistConfig::default()
        };
        assert_eq!(st.resolve_delta(1000), None);
    }

    #[test]
    fn presets_match_paper_variants() {
        assert_eq!(Algorithm::Ditric2.config().routing, Routing::Grid);
        assert_eq!(Algorithm::Ditric.config().routing, Routing::Direct);
        assert!(Algorithm::Cetric.uses_contraction());
        assert!(!Algorithm::Ditric.uses_contraction());
        assert_eq!(
            Algorithm::TricLike.config().aggregation,
            Aggregation::Static
        );
        assert!(!Algorithm::Unaggregated.config().dedup);
        assert_eq!(Algorithm::all().len(), 7);
    }
}

//! Reusable per-rank residency: the setup every CETRIC-family run performs
//! once and the query engine keeps alive across requests.
//!
//! A one-shot [`count`](crate::dist::count) pays the full pipeline on every
//! call: ghost degree exchange, degree orientation, ghost expansion and
//! cut-graph contraction, all discarded when the count returns. Strausz et
//! al. (*Asynchronous Distributed-Memory Triangle Counting and LCC with RMA
//! Caching*, 2022) observe that in a query-serving setting the win comes
//! from keeping exactly this state resident and amortising it over
//! requests. [`prepare_rank`] factors the setup out of the per-variant rank
//! programs so the one-shot path and the resident engine share one
//! implementation, and [`build_residency`] runs it once over a whole
//! partitioned graph, returning every rank's [`PreparedRank`] plus the
//! metered setup statistics.

use tricount_comm::{Ctx, RunStats, SimOptions};
use tricount_graph::dist::{ContractedGraph, DistGraph, LocalGraph, OrientedLocalGraph};
use tricount_graph::kernels::HubIndex;

use crate::config::DistConfig;
use crate::dist::phases;
use crate::dist::{preprocess, run_ranks};

/// One rank's resident state: the local graph with ghost degrees installed,
/// its expanded degree-oriented form, and the contracted cut graph. Built by
/// [`prepare_rank`]; everything CETRIC's local and global phases (and the
/// LCC pipeline on top of them) need, with no further communication.
#[derive(Debug, Clone)]
pub struct PreparedRank {
    /// The local graph, ghost degrees exchanged (so a later `preprocess` is
    /// a communication-free no-op).
    pub local: LocalGraph,
    /// The expanded oriented local graph (owned + ghost neighborhoods).
    pub oriented: OrientedLocalGraph,
    /// The contracted cut graph (Algorithm 3 line 8).
    pub contracted: ContractedGraph,
    /// Bitmap/hash membership index over hub neighborhoods of the oriented
    /// graph (owned + ghost lists with degree ≥ the policy's
    /// `hub_threshold`). Rebuilt on delta compaction — the overlay counting
    /// path never consults oriented lists between compactions, so
    /// rebuild-on-compaction keeps it coherent.
    pub hubs_oriented: HubIndex,
    /// Same index over the contracted cut graph's neighborhoods (used by
    /// the global-phase intersection handler).
    pub hubs_contracted: HubIndex,
}

/// Builds the hub indexes for a prepared rank's oriented and contracted
/// lists. Pure local work (no communication); shared by [`prepare_rank`]
/// and delta compaction so the two can never drift.
pub fn build_hub_indexes(
    oriented: &OrientedLocalGraph,
    contracted: &ContractedGraph,
    threshold: u64,
) -> (HubIndex, HubIndex) {
    let owned = oriented.owned_range().map(|v| (v, oriented.a_owned(v)));
    let ghosts = oriented
        .ghost_ids()
        .iter()
        .enumerate()
        .map(|(i, &g)| (g, oriented.a_ghost(i)));
    let hubs_oriented = HubIndex::build(owned.chain(ghosts), threshold);
    let hubs_contracted = HubIndex::build(contracted.nonempty(), threshold);
    (hubs_oriented, hubs_contracted)
}

/// Runs the per-rank setup shared by CETRIC, the LCC pipeline and the
/// resident engine: ghost degree exchange (when the ordering needs it),
/// orientation with ghost expansion, contraction. Ends the "preprocessing"
/// phase, exactly like the pre-factored rank programs did.
pub fn prepare_rank(ctx: &mut Ctx, mut lg: LocalGraph, cfg: &DistConfig) -> PreparedRank {
    preprocess(ctx, &mut lg, cfg);
    let oriented = ctx.with_span("orient_expand", |_| lg.orient(cfg.ordering, true));
    ctx.end_phase(phases::PREPROCESSING);
    let contracted = ctx.with_span("contract_cut_graph", |_| oriented.contracted());
    let (hubs_oriented, hubs_contracted) = ctx.with_span("build_hub_index", |_| {
        build_hub_indexes(&oriented, &contracted, cfg.kernels.hub_threshold)
    });
    PreparedRank {
        local: lg,
        oriented,
        contracted,
        hubs_oriented,
        hubs_contracted,
    }
}

/// Performs the whole-graph setup exactly once: one simulated run in which
/// every rank executes [`prepare_rank`] and hands its [`PreparedRank`] back.
/// The returned [`RunStats`] meter the setup communication (the ghost degree
/// exchange); a consumer serving queries from the result can verify against
/// its later per-query statistics that no setup communication ever repeats.
pub fn build_residency(
    dg: DistGraph,
    cfg: &DistConfig,
    opts: &SimOptions,
) -> (Vec<PreparedRank>, RunStats) {
    let sim = run_ranks(dg, opts, |ctx, lg| prepare_rank(ctx, lg, cfg));
    (sim.output.results, sim.output.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tricount_graph::OrderingKind;

    #[test]
    fn residency_is_setup_complete() {
        let g = tricount_gen::rgg2d_default(256, 3);
        let dg = DistGraph::new_balanced_vertices(&g, 4);
        let cfg = DistConfig::default();
        let (ranks, stats) = build_residency(dg, &cfg, &SimOptions::default());
        assert_eq!(ranks.len(), 4);
        for r in &ranks {
            // the exchange ran: a later preprocess has nothing to do
            assert!(r.local.ghosts().is_empty() || r.local.ghosts().degrees_known());
            assert!(r.oriented.is_expanded());
            assert_eq!(r.oriented.ordering(), OrderingKind::Degree);
        }
        // the setup run metered the ghost degree exchange
        assert!(stats.phases.iter().any(|ph| ph.name == "preprocessing"));
    }
}

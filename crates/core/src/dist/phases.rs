//! The central registry of phase names emitted by the distributed drivers.
//!
//! Every `ctx.end_phase(..)` in `core::dist` must pass one of these
//! constants — the `tricount-verify` conformance check
//! (`check_phase_names`) scans recorded traces and flags any phase name
//! outside this list, so exporters, reports and dashboards can rely on a
//! closed vocabulary.

/// Setup work before counting: ghost degree exchange, orientation,
/// contraction (Algorithm 3 lines 1–4).
pub const PREPROCESSING: &str = "preprocessing";

/// Local counting over owned + ghost-expanded neighborhoods.
pub const LOCAL: &str = "local";

/// The distributed phase: cut-triangle queries/aggregation and the final
/// count reduction.
pub const GLOBAL: &str = "global";

/// Answer assembly after the global phase (e.g. LCC division).
pub const POSTPROCESS: &str = "postprocess";

/// Edge-support (truss-style) counting over cut edges.
pub const SUPPORT: &str = "support";

/// Routing each update edge of a batch to the owners of its endpoints
/// (`dist::delta`, phase 1 of an update run).
pub const UPDATE_ROUTE: &str = "update_route";

/// Incremental triangle-delta counting: deletion intersections on the
/// pre-state, overlay application, insertion intersections on the
/// post-state, final delta reduction (`dist::delta`, phase 2).
pub const UPDATE_COUNT: &str = "update_count";

/// Targeted ghost-degree refresh: new global degrees of the batch's
/// touched vertices, broadcast so compaction needs no communication
/// (`dist::delta`, phase 3).
pub const UPDATE_GHOST_REFRESH: &str = "update_ghost_refresh";

/// Overlay compaction: merging delta lists into a fresh base local graph
/// and re-running orientation + contraction, communication-free.
pub const COMPACTION: &str = "compaction";

/// The runtime-added trailing phase covering work after the last explicit
/// `end_phase` (named by `tricount-comm`, not by the drivers, but part of
/// the vocabulary consumers see in `RunStats`).
pub const REST: &str = "rest";

/// Every phase name that may appear in a `RunStats` / `PhaseEnded` event.
pub const ALL: &[&str] = &[
    PREPROCESSING,
    LOCAL,
    GLOBAL,
    POSTPROCESS,
    SUPPORT,
    UPDATE_ROUTE,
    UPDATE_COUNT,
    UPDATE_GHOST_REFRESH,
    COMPACTION,
    REST,
];

/// Whether `name` is part of the registered phase vocabulary.
pub fn is_registered(name: &str) -> bool {
    ALL.contains(&name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_duplicate_free_and_closed() {
        for (i, a) in ALL.iter().enumerate() {
            for b in &ALL[i + 1..] {
                assert_ne!(a, b, "duplicate phase name");
            }
            assert!(is_registered(a));
        }
        assert!(!is_registered("warmup"));
        assert!(!is_registered(""));
        assert!(!is_registered("Local"), "registry is case-sensitive");
    }
}

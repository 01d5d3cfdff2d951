//! Concurrency check hooks: one call that turns the correctness tooling —
//! happens-before analysis (`tricount-verify`), protocol conformance, and
//! bounded schedule-space exploration (`tricount-mc`) — loose on a real
//! workload.
//!
//! This is what `tricount check` runs. The suite is deliberately layered:
//!
//! 1. **Trace analysis** — run the chosen algorithm traced and feed the
//!    recording through the happens-before analyzer and the conformance
//!    linter. One schedule, real workload, full protocol.
//! 2. **Pool exploration** — exhaustively interleave small work-stealing
//!    batches whose tasks do real intersection counting on the input
//!    graph, asserting bit-identical results and no deadlock on *every*
//!    schedule within the preemption bound.
//! 3. **Delivery exploration** — re-run an all-to-all exchange under every
//!    reachable message delivery order, watchdog-supervised.
//!
//! Layers 2 and 3 use small fixtures (pool width 2–3, p ≤ 4) because
//! exhaustiveness is the point: the schedule space must be walkable, and
//! the bugs these layers hunt — lock cycles, delivery-order dependence —
//! already manifest at minimal scale.

use std::time::Duration;

use tricount_comm::{Ctx, SimOptions};
use tricount_core::config::Algorithm;
use tricount_core::result::DistError;
use tricount_graph::dist::DistGraph;
use tricount_graph::Csr;
use tricount_mc::{explore_delivery, explore_pool, DeliveryReport, ExploreConfig, PoolReport};
use tricount_verify::{check_hb, check_trace, ConformanceReport, HbReport};

/// What [`check_concurrency`] should run.
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// Simulated PEs for the traced run.
    pub p: usize,
    /// Algorithm variant for the traced run.
    pub algorithm: Algorithm,
    /// Pool widths to explore exhaustively.
    pub pool_widths: Vec<usize>,
    /// Exploration bounds for the pool layer.
    pub explore: ExploreConfig,
    /// Delivery-order schedule budget.
    pub delivery_schedules: usize,
}

impl CheckOptions {
    /// The default suite for `p` PEs and `algorithm`.
    pub fn new(p: usize, algorithm: Algorithm) -> CheckOptions {
        CheckOptions {
            p,
            algorithm,
            pool_widths: vec![2, 3],
            explore: ExploreConfig {
                // Width-3 spaces explode under deeper preemption bounds;
                // one preemption already covers every single-context-switch
                // bug (the PR 2 class included).
                max_preemptions: Some(1),
                max_schedules: 5_000,
                ..ExploreConfig::default()
            },
            delivery_schedules: 200,
        }
    }
}

/// The combined verdict of one [`check_concurrency`] run.
#[derive(Debug)]
pub struct CheckReport {
    /// Triangles counted by the traced run (sanity anchor).
    pub triangles: u64,
    /// Happens-before analysis of the traced run.
    pub hb: HbReport,
    /// Protocol conformance of the traced run.
    pub conformance: ConformanceReport,
    /// Per pool width, the exhaustive interleaving verdict.
    pub pool: Vec<(usize, PoolReport)>,
    /// The delivery-order exploration verdict.
    pub delivery: DeliveryReport,
}

impl CheckReport {
    /// Whether every layer came back clean.
    pub fn passed(&self) -> bool {
        self.hb.is_clean()
            && self.conformance.is_clean()
            && self.pool.iter().all(|(_, r)| r.passed())
            && self.delivery.passed()
    }
}

impl std::fmt::Display for CheckReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.hb)?;
        write!(f, "{}", self.conformance)?;
        for (w, r) in &self.pool {
            writeln!(
                f,
                "pool width {w}: {} schedule(s): {}",
                r.schedules,
                match (&r.deadlock, &r.divergence, r.exhausted) {
                    (Some((s, reason)), _, _) => format!("DEADLOCK at schedule {s}: {reason:?}"),
                    (_, Some(d), _) => format!("DIVERGENCE: {d}"),
                    (None, None, true) => "exhaustive, bit-identical".to_string(),
                    (None, None, false) => "budget exhausted before the space was".to_string(),
                }
            )?;
        }
        writeln!(
            f,
            "delivery orders: {} schedule(s): {}",
            self.delivery.schedules,
            match (&self.delivery.deadlock, &self.delivery.divergence) {
                (Some((s, d)), _) => format!("DEADLOCK at schedule {s}:\n{d}"),
                (_, Some(d)) => format!("DIVERGENCE: {d}"),
                (None, None) => "bit-identical".to_string(),
            }
        )?;
        writeln!(
            f,
            "verdict: {}",
            if self.passed() { "PASS" } else { "FAIL" }
        )
    }
}

/// Triangles incident to `v` (ordered pairs of neighbours that are
/// themselves adjacent) — a real, pure intersection workload for the pool
/// exploration layer.
fn triangles_at(g: &Csr, v: u64) -> u64 {
    let adj = g.neighbors(v);
    let mut count = 0;
    for (i, &a) in adj.iter().enumerate() {
        for &b in &adj[i + 1..] {
            if g.neighbors(a).binary_search(&b).is_ok() {
                count += 1;
            }
        }
    }
    count
}

/// Runs the full concurrency suite on `g`. See the module docs for the
/// layers; the pool tasks do intersection counting on the first vertices
/// of `g` itself, so the explored computation is the algorithm's inner
/// kernel, not a toy.
pub fn check_concurrency(g: &Csr, opts: &CheckOptions) -> Result<CheckReport, DistError> {
    // Layer 1: one real traced run, analyzed.
    let dg = DistGraph::new(g, opts.p);
    let (res, trace) = tricount_core::dist::run_on(
        dg,
        opts.algorithm,
        &opts.algorithm.config(),
        &SimOptions::traced(),
    )?;
    let trace = trace.unwrap_or_default();
    let hb = check_hb(&trace);
    let conformance = check_trace(&trace);

    // Layer 2: exhaustive pool interleavings over real intersection tasks.
    let span = g.num_vertices().min(24);
    let mut pool = Vec::new();
    for &w in &opts.pool_widths {
        let chunk = (span / (2 * w as u64 + 1)).max(1);
        let report = explore_pool(
            w,
            || {
                (0..span)
                    .step_by(chunk as usize)
                    .map(|lo| (lo, (lo + chunk).min(span)))
                    .collect()
            },
            |_, (lo, hi)| (lo..hi).map(|v| triangles_at(g, v)).sum::<u64>(),
            &opts.explore,
        );
        pool.push((w, report));
    }

    // Layer 3: delivery orders of an all-to-all exchange.
    let dp = opts.p.clamp(1, 4);
    let delivery = explore_delivery(
        dp,
        |ctx: &mut Ctx| {
            let p = ctx.num_ranks();
            let me = ctx.rank();
            for to in 0..p {
                if to != me {
                    ctx.send_raw(to, vec![(me * 31 + to) as u64]);
                }
            }
            let mut acc = 0u64;
            let mut got = 0;
            while got < p - 1 {
                if let Some(m) = ctx.try_recv_raw() {
                    acc = acc.wrapping_add(m.words[0].wrapping_mul(m.src as u64 + 1));
                    got += 1;
                }
            }
            acc
        },
        opts.delivery_schedules,
        Duration::from_secs(5),
    );

    Ok(CheckReport {
        triangles: res.triangles,
        hb,
        conformance,
        pool,
        delivery,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_suite_passes_on_a_small_graph() {
        let g = tricount_gen::rgg2d_default(120, 11);
        let opts = CheckOptions::new(4, Algorithm::Cetric);
        let report = check_concurrency(&g, &opts).expect("run succeeds");
        assert!(report.passed(), "{report}");
        assert!(report.triangles > 0);
        assert!(report.pool.iter().all(|(_, r)| r.schedules > 1));
        assert!(report.delivery.schedules > 1);
    }
}

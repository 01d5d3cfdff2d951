//! Per-phase kernel-dispatch reporting for the counting rank bodies.
//!
//! The adaptive kernel layer (`tricount_graph::kernels`) tallies which
//! intersection kernel served each call site. Those tallies are *not* part
//! of the communication [`Counters`](tricount_comm::Counters) — they change
//! with the [`KernelPolicy`](tricount_graph::kernels::KernelPolicy) while
//! comm counters must not — so every counting rank body
//! ([`super::count_rank`], [`super::cetric::count_prepared`],
//! [`super::lcc::lcc_prepared`], [`super::support::edge_support_rank`])
//! returns a [`DispatchReport`] next to its answer, folded here in
//! canonical (phase, rank) order so every aggregate is
//! schedule-independent.

use tricount_graph::kernels::KernelCounters;

/// Kernel-dispatch tallies grouped by counting phase, in the order the
/// phases ran. Phase names come from [`super::phases`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DispatchReport {
    /// `(phase name, tallies)` in first-seen phase order.
    pub phases: Vec<(&'static str, KernelCounters)>,
}

impl DispatchReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// A report with a single phase entry.
    pub fn of(phase: &'static str, counters: KernelCounters) -> Self {
        let mut r = Self::default();
        r.add(phase, counters);
        r
    }

    /// Folds `counters` into the entry for `phase` (appending the phase if
    /// unseen).
    pub fn add(&mut self, phase: &'static str, counters: KernelCounters) {
        if let Some((_, c)) = self.phases.iter_mut().find(|(p, _)| *p == phase) {
            c.absorb(&counters);
        } else {
            self.phases.push((phase, counters));
        }
    }

    /// Folds another report into this one, phase by phase.
    pub fn absorb(&mut self, other: &DispatchReport) {
        for (phase, counters) in &other.phases {
            self.add(phase, *counters);
        }
    }

    /// Tallies summed over all phases.
    pub fn total(&self) -> KernelCounters {
        let mut t = KernelCounters::default();
        for (_, c) in &self.phases {
            t.absorb(c);
        }
        t
    }

    /// True when no dispatch was recorded.
    pub fn is_empty(&self) -> bool {
        self.total().total() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(merge: u64, gallop: u64) -> KernelCounters {
        KernelCounters {
            merge,
            gallop,
            ..KernelCounters::default()
        }
    }

    #[test]
    fn add_folds_by_phase_name() {
        let mut r = DispatchReport::new();
        r.add("local", c(1, 0));
        r.add("global", c(0, 2));
        r.add("local", c(3, 1));
        assert_eq!(r.phases.len(), 2);
        assert_eq!(r.phases[0], ("local", c(4, 1)));
        assert_eq!(r.total(), c(4, 3));
    }

    #[test]
    fn absorb_merges_reports() {
        let mut a = DispatchReport::of("local", c(1, 1));
        let b = DispatchReport::of("global", c(2, 0));
        a.absorb(&b);
        a.absorb(&DispatchReport::of("local", c(1, 0)));
        assert_eq!(a.phases.len(), 2);
        assert_eq!(a.total().total(), 5);
        assert!(!a.is_empty());
        assert!(DispatchReport::new().is_empty());
    }
}

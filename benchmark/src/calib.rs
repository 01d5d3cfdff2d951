//! Host-speed calibration.
//!
//! The benchmark runs on shared virtual machines whose speed moves by
//! 10–40 % for seconds to minutes at a time; a run's median follows the
//! host, not the code. So every timed interval of an end-to-end metric is
//! bracketed by two samples of a fixed reference (this file's own code,
//! nothing from the program) and expressed in seconds of a host on which
//! the reference takes its nominal time.
//!
//! A reference only cancels the host if the host slows it as it slows the
//! program. This one does a count's kind of work on a count's data: merge
//! intersections over a degree-oriented copy of the workload's own graph, a
//! fixed sample of its edges dealt round-robin to the run's `P` threads.
//! (What this file used first, a single-threaded arithmetic loop over two
//! synthetic lists, moved by up to 25 % against the count when the host
//! slowed memory-bound and compute-bound code differently.)

use std::cmp::Ordering;
use std::hint::black_box;
use std::time::Instant;

use cetric::graph::Csr;

/// How a reference sample runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Work {
    /// Every thread's share at once on `P` spawned threads, as a count runs.
    /// The fastest of two passes.
    Parallel,
    /// One thread's share on the calling thread, for the serving path: after
    /// a burst of sub-millisecond runs the scheduler keeps placing freshly
    /// spawned threads on one CPU for a tenth of a second and more, which
    /// doubles a parallel pass and says nothing about the host. The fastest
    /// of four passes.
    Single,
}

/// Nominal cost of one merge comparison, per thread. It only sets the unit:
/// between this host's cost on the R-MAT inputs (5 ns) and on the RGG input
/// (8 ns) on a quiet day, so that calibrated seconds read roughly like wall
/// seconds here.
const NOMINAL_COMPARISON_S: f64 = 6e-9;

/// Upper bound on the merge comparisons of one parallel pass (the sum of
/// the two list lengths over the sampled edges): about 8 ms on two threads.
const SAMPLE_OPS: usize = 3_000_000;

pub struct Reference {
    /// Out-neighbours of `v` under the degree order: `tgt[off[v]..off[v+1]]`.
    off: Vec<u32>,
    tgt: Vec<u32>,
    /// The sampled oriented edges; thread `t` of `P` takes every `P`-th from
    /// the `t`-th on.
    pairs: Vec<(u32, u32)>,
    threads: usize,
    /// Nominal seconds of a parallel and of a single pass: the exact
    /// comparisons of the slowest share, and of share 0, so that both are
    /// functions of the input alone.
    nominal_s: [f64; 2],
}

/// An open interval: the reference sample taken when it began.
pub struct Bracket {
    work: Work,
    before: f64,
}

impl Reference {
    /// The reference for a workload on `g` whose runs use `threads` PEs.
    pub fn new(g: &Csr, threads: usize) -> Reference {
        let id = |v: u64| u32::try_from(v).expect("the benchmark's graphs have < 2^32 vertices");
        let (mut off, mut tgt, mut src) = (vec![0u32], Vec::new(), Vec::new());
        for v in 0..g.num_vertices() {
            let dv = g.degree(v);
            for &u in g.neighbors(v) {
                if (g.degree(u), u) > (dv, v) {
                    tgt.push(id(u));
                    src.push(id(v));
                }
            }
            off.push(u32::try_from(tgt.len()).expect("the benchmark's graphs have < 2^32 edges"));
        }
        let mut reference = Reference {
            off,
            tgt,
            pairs: Vec::new(),
            threads,
            nominal_s: [0.0; 2],
        };
        let bound: usize = (0..src.len())
            .map(|e| reference.out(src[e]).len() + reference.out(reference.tgt[e]).len())
            .sum();
        let stride = (bound / SAMPLE_OPS).max(1);
        reference.pairs = (0..src.len())
            .step_by(stride)
            .map(|e| (src[e], reference.tgt[e]))
            .collect();
        let comparisons: Vec<u64> = (0..threads).map(|t| reference.share(t).1).collect();
        let slowest = comparisons.iter().copied().max().unwrap_or(0);
        reference.nominal_s =
            [slowest, comparisons[0]].map(|c| c.max(1) as f64 * NOMINAL_COMPARISON_S);
        reference
    }

    fn out(&self, v: u32) -> &[u32] {
        &self.tgt[self.off[v as usize] as usize..self.off[v as usize + 1] as usize]
    }

    /// Thread `t`'s share of the sampled edges: (common neighbours found,
    /// comparisons made).
    fn share(&self, t: usize) -> (u64, u64) {
        let (mut common, mut comparisons) = (0u64, 0u64);
        for &(v, u) in self.pairs.iter().skip(t).step_by(self.threads) {
            let (a, b) = (self.out(v), self.out(u));
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                comparisons += 1;
                match a[i].cmp(&b[j]) {
                    Ordering::Less => i += 1,
                    Ordering::Greater => j += 1,
                    Ordering::Equal => {
                        common += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
        (common, comparisons)
    }

    fn pass(&self, work: Work) -> f64 {
        let t0 = Instant::now();
        match work {
            Work::Parallel => std::thread::scope(|scope| {
                for t in 0..self.threads {
                    scope.spawn(move || black_box(self.share(t)));
                }
            }),
            Work::Single => {
                black_box(self.share(0));
            }
        }
        t0.elapsed().as_secs_f64()
    }

    /// The reference's seconds now: the fastest of a few passes, which
    /// drops the pass that warms the caches.
    fn sample(&self, work: Work) -> f64 {
        let passes = match work {
            Work::Parallel => 2,
            Work::Single => 4,
        };
        (0..passes)
            .map(|_| self.pass(work))
            .fold(f64::INFINITY, f64::min)
    }

    fn nominal_s(&self, work: Work) -> f64 {
        self.nominal_s[work as usize]
    }

    /// Opens an interval.
    pub fn open(&self, work: Work) -> Bracket {
        Bracket {
            work,
            before: self.sample(work),
        }
    }

    /// The host's speed relative to the nominal host when `bracket` was
    /// opened or last closed: calibrated seconds per wall second.
    pub fn speed(&self, bracket: &Bracket) -> f64 {
        self.nominal_s(bracket.work) / bracket.before
    }

    /// Closes the interval `bracket` opened and opens the next one with the
    /// same sample. Returns the interval's calibrated seconds per wall
    /// second: nominal over the mean of the two samples around it.
    pub fn close(&self, bracket: &mut Bracket) -> f64 {
        let after = self.sample(bracket.work);
        let factor = self.nominal_s(bracket.work) / ((bracket.before + after) / 2.0);
        bracket.before = after;
        factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_nominal_time_depends_on_the_input_alone() {
        let g = cetric::gen::rmat_default(9, 4);
        let (a, b) = (Reference::new(&g, 2), Reference::new(&g, 2));
        assert_eq!(a.nominal_s, b.nominal_s);
        assert!(a.nominal_s.iter().all(|&s| s > 0.0));
        // a graph this small is sampled whole, so the shares together find
        // every triangle once
        let common: u64 = (0..2).map(|t| a.share(t).0).sum();
        assert_eq!(common, cetric::core::seq::compact_forward(&g).triangles);
    }

    #[test]
    fn a_factor_is_nominal_over_the_mean_sample() {
        let g = cetric::gen::rmat_default(8, 4);
        let reference = Reference::new(&g, 2);
        for work in [Work::Parallel, Work::Single] {
            let mut bracket = reference.open(work);
            let before = bracket.before;
            let factor = reference.close(&mut bracket);
            let mean = (before + bracket.before) / 2.0;
            assert!((factor - reference.nominal_s(work) / mean).abs() < 1e-12);
            assert!(factor.is_finite() && factor > 0.0);
            assert_eq!(
                reference.speed(&bracket),
                reference.nominal_s(work) / bracket.before
            );
        }
    }
}

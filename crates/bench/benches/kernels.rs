//! Micro-benchmarks of the hot kernels: the set-intersection variants
//! (§III / §III-C), sequential counting, the oriented preprocessing, the
//! Bloom filters of the approximate extension, and the simulated
//! distributed pipeline end to end.
//!
//! A plain self-timing harness (median of repeated batches over a
//! monotonic clock) — the workspace builds offline, so there is no
//! criterion; the other `benches/` targets set the table-printing idiom
//! this follows.

use std::hint::black_box;
use std::time::Instant;

use cetric::amq::{Amq, BloomFilter, SingleShotBloom};
use cetric::core::seq;
use cetric::graph::intersect::{binary_search_count, gallop_count, merge_count};
use cetric::graph::ordering::{orient, relabel_by_degree, OrderingKind};
use tricount_bench::report::BenchReport;
use tricount_bench::{fmt_time, print_table, Row, Scale};

/// Times `f` as the median over `reps` batches of `batch` calls, returning
/// seconds per call.
fn time_per_call<R>(reps: usize, batch: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            t0.elapsed().as_secs_f64() / batch as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Times `f` and `g` in alternation, `reps` samples each, and returns the
/// median seconds per call of each.
fn time_alternating<R>(
    reps: usize,
    mut f: impl FnMut() -> R,
    mut g: impl FnMut() -> R,
) -> (f64, f64) {
    let (mut fs, mut gs) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    for _ in 0..reps {
        let t0 = Instant::now();
        black_box(f());
        fs.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        black_box(g());
        gs.push(t0.elapsed().as_secs_f64());
    }
    fs.sort_by(f64::total_cmp);
    gs.sort_by(f64::total_cmp);
    (fs[reps / 2], gs[reps / 2])
}

/// `len` sorted, distinct ids below `span` from a seeded SplitMix64 walk
/// (the fixture source of `adversarial_shapes_all_kernels_agree`).
fn random_list(rng: &mut u64, len: usize, span: u64) -> Vec<u64> {
    let mut v: Vec<u64> = Vec::with_capacity(len);
    while v.len() < len {
        v.extend((v.len()..len).map(|_| cetric::gen::rng::splitmix64(rng) % span));
        v.sort_unstable();
        v.dedup();
    }
    v
}

/// A slice intersection kernel: `(count, ops)` of two sorted lists.
type Kernel = fn(&[u64], &[u64]) -> (u64, u64);

/// Pairs per `intersect/*` row. One pair timed over and over is a fixed
/// comparison sequence that the branch predictor learns — strided lists
/// (`2i` against `3i`, period 6) at once, one random 1024 × 1024 pair
/// within a few calls — which hides exactly the cost adjacency lists pay
/// in a real sweep. 32 different pairs per call are ~65 k outcomes, more
/// than it holds; rows report the time of one intersection.
const PAIRS: usize = 32;

fn bench_intersections(reps: usize, rows: &mut Vec<Row>, report: &mut BenchReport) {
    let mut rng = 0x6b65_726e_u64; // "kern"
    let balanced: Vec<(Vec<u64>, Vec<u64>)> = (0..PAIRS)
        .map(|_| {
            (
                random_list(&mut rng, 1024, 3072),
                random_list(&mut rng, 1024, 3072),
            )
        })
        .collect();
    // the short lists end early in the long one, so a merge stops after
    // ~1.5 k of its 65 k elements
    let smalls: Vec<Vec<u64>> = (0..PAIRS)
        .map(|_| random_list(&mut rng, 16, 3072))
        .collect();
    let large = random_list(&mut rng, 1 << 16, 1 << 17);
    let kernels: [(&str, Kernel); 3] = [
        ("merge", merge_count),
        ("bsearch", binary_search_count),
        ("gallop", gallop_count),
    ];
    let shapes = [
        (
            "balanced",
            balanced
                .iter()
                .map(|(a, b)| (&a[..], &b[..]))
                .collect::<Vec<_>>(),
        ),
        (
            "skewed",
            smalls
                .iter()
                .map(|small| (&small[..], &large[..]))
                .collect(),
        ),
    ];
    for (shape, pairs) in &shapes {
        for (kernel, f) in kernels {
            let sweep = || pairs.iter().map(|(a, b)| f(a, b).0).sum::<u64>();
            let t = time_per_call(reps, 8, sweep) / PAIRS as f64;
            let name = format!("intersect/{kernel}/{shape}");
            report.push_seconds(&name, t);
            rows.push(Row {
                label: name,
                cells: vec![fmt_time(t)],
            });
        }
    }
}

/// One full counting sweep over an oriented adjacency: for every directed
/// edge `(v, u)` intersect `A(v) ∩ A(u)` with `intersect`. This is the
/// access pattern of the distributed local phase, reproduced sequentially
/// so the ablation isolates kernel choice from simulator overhead.
fn sweep(o: &cetric::graph::Csr, mut intersect: impl FnMut(&[u64], &[u64]) -> (u64, u64)) -> u64 {
    let mut total = 0u64;
    for v in o.vertices() {
        let av = o.neighbors(v);
        for &u in av {
            total += intersect(av, o.neighbors(u)).0;
        }
    }
    total
}

/// The kernel-ablation matrix: fixture skew × kernel. Merge, gallop and
/// binary run as plain functions over the sweep, `auto` through the
/// dispatcher. Emits per-cell wall times plus the dispatcher's
/// `speedup_vs_merge/{fixture}/auto` ratio (>1 means faster than merge);
/// CI fails when the dispatcher loses to merge on the skewed fixtures.
fn bench_kernel_ablation(scale: Scale, reps: usize, rows: &mut Vec<Row>, report: &mut BenchReport) {
    use cetric::graph::kernels::Dispatcher;
    use cetric::graph::Csr;

    let s = 10 + scale.shift();
    let n = 1u64 << s;
    let fixtures: Vec<(&str, Csr)> = vec![
        ("uniform", cetric::gen::gnm(n, 8 * n, 11)),
        ("skewed", cetric::gen::rmat_default(s, 11)),
        ("hub_heavy", cetric::gen::rmat_hub_heavy(s, 11)),
    ];
    for (fixture, g) in &fixtures {
        // Id orientation keeps the hub out-lists huge (hubs sit at low
        // ids): the adversarial case the adaptive kernels are built for.
        let o = orient(g, OrderingKind::Id);
        let merge = || sweep(&o, merge_count);
        let gallop = || sweep(&o, gallop_count);
        let binary = || sweep(&o, binary_search_count);
        let auto = || {
            let mut d = Dispatcher::default();
            sweep(&o, |a, b| d.count(a, None, b, None))
        };
        let expect = merge();
        let kernels: [(&str, &dyn Fn() -> u64); 4] = [
            ("merge", &merge),
            ("gallop", &gallop),
            ("binary", &binary),
            ("auto", &auto),
        ];
        for (kernel, run) in kernels {
            // warm + verify
            assert_eq!(run(), expect, "{fixture}/{kernel}: count mismatch vs merge");
            // The ratio is gated to a few percent, and this host's speed
            // drifts by ±10 % over the seconds a matrix row takes: time
            // the merge baseline again beside every kernel, sample by
            // sample, so both sides of a ratio see the same machine.
            let (merge_t, t) = time_alternating(reps.max(15), merge, run);
            let label = format!("kernel_matrix/{fixture}/{kernel}");
            report.push_seconds(&label, t);
            let speedup = merge_t / t;
            if kernel == "auto" {
                report.push_raw(
                    &format!("speedup_vs_merge/{fixture}/auto"),
                    &tricount_bench::report::format_f64(speedup),
                );
            }
            rows.push(Row {
                label,
                cells: vec![fmt_time(t), format!("{speedup:.2}x")],
            });
        }
    }
}

fn bench_sequential_counting(reps: usize, rows: &mut Vec<Row>, report: &mut BenchReport) {
    let graph = cetric::gen::rmat_default(12, 7);
    let t = time_per_call(reps, 2, || seq::compact_forward(black_box(&graph)));
    report.push_seconds("seq/compact_forward/rmat12", t);
    rows.push(Row {
        label: "seq/compact_forward/rmat12".into(),
        cells: vec![fmt_time(t)],
    });
    let t = time_per_call(reps, 2, || {
        seq::edge_iterator(black_box(&graph), OrderingKind::Id)
    });
    report.push_seconds("seq/edge_iterator_id/rmat12", t);
    rows.push(Row {
        label: "seq/edge_iterator_id/rmat12".into(),
        cells: vec![fmt_time(t)],
    });
}

fn bench_preprocessing(reps: usize, rows: &mut Vec<Row>, report: &mut BenchReport) {
    let graph = cetric::gen::rhg_default(1 << 12, 3);
    let t = time_per_call(reps, 4, || orient(black_box(&graph), OrderingKind::Degree));
    report.push_seconds("preprocess/orient_degree", t);
    rows.push(Row {
        label: "preprocess/orient_degree".into(),
        cells: vec![fmt_time(t)],
    });
    let t = time_per_call(reps, 4, || relabel_by_degree(black_box(&graph)));
    report.push_seconds("preprocess/relabel_by_degree", t);
    rows.push(Row {
        label: "preprocess/relabel_by_degree".into(),
        cells: vec![fmt_time(t)],
    });
}

fn bench_bloom(reps: usize, rows: &mut Vec<Row>, report: &mut BenchReport) {
    let keys: Vec<u64> = (0..256u64).map(|i| i * 7919).collect();
    let t = time_per_call(reps, 16, || {
        let mut f = BloomFilter::new(keys.len(), 8.0);
        for &k in &keys {
            f.insert(k);
        }
        keys.iter().filter(|&&k| f.contains(k + 1)).count()
    });
    report.push_seconds("amq/bloom/build+query", t);
    rows.push(Row {
        label: "amq/bloom/build+query".into(),
        cells: vec![fmt_time(t)],
    });
    let t = time_per_call(reps, 16, || {
        let mut f = SingleShotBloom::new(keys.len(), 8.0, 4);
        for &k in &keys {
            f.insert(k);
        }
        keys.iter().filter(|&&k| f.contains(k + 1)).count()
    });
    report.push_seconds("amq/single_shot/build+query", t);
    rows.push(Row {
        label: "amq/single_shot/build+query".into(),
        cells: vec![fmt_time(t)],
    });
}

fn bench_distributed_end_to_end(rows: &mut Vec<Row>, report: &mut BenchReport) {
    // wall-clock of the whole simulated pipeline (not the modeled time):
    // useful to track regressions of the simulator itself
    let graph = cetric::gen::rgg2d_default(1 << 11, 5);
    for alg in [
        cetric::core::Algorithm::Cetric,
        cetric::core::Algorithm::Ditric,
    ] {
        let t = time_per_call(3, 1, || {
            cetric::core::count(black_box(&graph), 4, alg, &alg.config()).unwrap()
        });
        let label = format!("dist_e2e/{}_p4/rgg2d_2k", alg.name());
        report.push_seconds(&label, t);
        rows.push(Row {
            label,
            cells: vec![fmt_time(t)],
        });
    }
}

fn main() {
    let scale = Scale::from_env();
    let reps = match scale {
        Scale::Quick => 3,
        Scale::Default => 7,
        Scale::Full => 15,
    };
    let mut rows = Vec::new();
    let mut report = BenchReport::new("kernels", scale);
    bench_intersections(reps, &mut rows, &mut report);
    bench_sequential_counting(reps, &mut rows, &mut report);
    bench_preprocessing(reps, &mut rows, &mut report);
    bench_bloom(reps, &mut rows, &mut report);
    bench_distributed_end_to_end(&mut rows, &mut report);
    print_table(
        "kernel micro-benchmarks (median wall time)",
        &["per call"],
        &rows,
    );
    let mut ablation_rows = Vec::new();
    bench_kernel_ablation(scale, reps, &mut ablation_rows, &mut report);
    print_table(
        "kernel ablation (fixture × kernel)",
        &["per sweep", "vs merge"],
        &ablation_rows,
    );
    match report.write() {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_kernels.json: {e}"),
    }
}

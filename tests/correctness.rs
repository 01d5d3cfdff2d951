//! End-to-end correctness: every distributed variant must produce the exact
//! sequential count on every graph family, partitioning, and PE count.

use cetric::core::dist::{approx, hybrid, lcc};
use cetric::core::seq;
use cetric::prelude::*;

fn check(g: &Csr, ps: &[usize]) {
    let truth = seq::compact_forward(g).triangles;
    for &p in ps {
        for alg in Algorithm::all() {
            let r =
                count(g, p, alg, &alg.config()).unwrap_or_else(|e| panic!("{alg:?} p={p}: {e}"));
            assert_eq!(r.triangles, truth, "{} p={p}", alg.name());
        }
    }
}

#[test]
fn families_medium_scale() {
    // moderately sized instances of each weak-scaling family
    for fam in Family::all() {
        let g = fam.generate(1 << 10, 99);
        check(&g, &[2, 6, 16]);
    }
}

#[test]
fn dataset_proxies_medium_scale() {
    for ds in Dataset::all() {
        let g = ds.generate(600, 21);
        check(&g, &[5, 9]);
    }
}

#[test]
fn many_pe_counts_on_one_graph() {
    let g = cetric::gen::gnm(512, 4096, 1234);
    check(&g, &[1, 2, 3, 4, 5, 7, 8, 11, 16, 23, 32]);
}

#[test]
fn high_locality_graph_many_pes() {
    let g = cetric::gen::rgg2d_default(1 << 11, 77);
    check(&g, &[8, 27]);
}

#[test]
fn custom_configs_still_correct() {
    let g = cetric::gen::rmat_default(9, 31);
    let truth = seq::compact_forward(&g).triangles;
    // sweep the aggregation threshold
    for factor in [0.01, 0.1, 1.0, 10.0] {
        let cfg = DistConfig {
            aggregation: Aggregation::Dynamic {
                delta_factor: factor,
            },
            ..DistConfig::default()
        };
        for alg in [Algorithm::Ditric, Algorithm::Cetric] {
            let r = count(&g, 6, alg, &cfg).unwrap();
            assert_eq!(r.triangles, truth, "{alg:?} delta_factor={factor}");
        }
    }
    // id ordering instead of degree ordering
    let cfg = DistConfig {
        ordering: OrderingKind::Id,
        ..DistConfig::default()
    };
    for alg in [Algorithm::Ditric, Algorithm::Cetric, Algorithm::HavoqgtLike] {
        let r = count(&g, 6, alg, &cfg).unwrap();
        assert_eq!(r.triangles, truth, "{alg:?} id-order");
    }
    // grid routing at awkward (non-square) PE counts
    for p in [3usize, 7, 13, 21] {
        let r = count(&g, p, Algorithm::Cetric2, &Algorithm::Cetric2.config()).unwrap();
        assert_eq!(r.triangles, truth, "CETRIC2 p={p}");
    }
}

#[test]
fn distributed_lcc_equals_sequential_on_every_family() {
    for fam in Family::all() {
        let g = fam.generate(512, 5);
        let truth = seq::per_vertex_counts(&g, OrderingKind::Degree);
        let r = lcc::lcc(&g, 7, &DistConfig::default());
        assert_eq!(r.per_vertex, truth, "{fam:?}");
    }
}

#[test]
fn hybrid_matches_flat_for_all_thread_counts() {
    let g = cetric::gen::rgg2d_default(1200, 3);
    let truth = seq::compact_forward(&g).triangles;
    for threads in [1usize, 2, 3, 4, 6, 12] {
        let r = hybrid::count_hybrid(&g, 12, threads, &DistConfig::default());
        assert_eq!(r.triangles, truth, "threads={threads}");
    }
}

#[test]
fn approx_beats_tolerance_on_all_families() {
    for fam in Family::all() {
        let g = fam.generate(1 << 10, 13);
        let truth = seq::compact_forward(&g).triangles as f64;
        if truth < 100.0 {
            continue; // relative error is meaningless on near-triangle-free graphs
        }
        let r = approx::approx(
            &g,
            6,
            &DistConfig::default(),
            &approx::ApproxConfig {
                bits_per_key: 12.0,
                filter: approx::FilterKind::Bloom,
            },
        );
        let rel = (r.estimate - truth).abs() / truth;
        assert!(rel < 0.08, "{fam:?}: estimate {} truth {truth}", r.estimate);
    }
}

#[test]
fn empty_and_degenerate_graphs() {
    // no vertices
    let g = Csr::from_edges(0, &EdgeList::new());
    assert_eq!(seq::compact_forward(&g).triangles, 0);
    // vertices but no edges
    let g = Csr::from_edges(10, &EdgeList::new());
    for alg in [Algorithm::Ditric, Algorithm::Cetric, Algorithm::TricLike] {
        assert_eq!(
            count(&g, 4, alg, &alg.config()).unwrap().triangles,
            0,
            "{alg:?}"
        );
    }
    // single edge
    let mut el = EdgeList::new();
    el.push(0, 1);
    el.canonicalize();
    let g = Csr::from_edges(2, &el);
    for alg in Algorithm::all() {
        assert_eq!(
            count(&g, 2, alg, &alg.config()).unwrap().triangles,
            0,
            "{alg:?}"
        );
    }
}

#[test]
fn results_identical_across_repeated_runs() {
    let g = cetric::gen::rhg_default(800, 17);
    for alg in [Algorithm::Ditric2, Algorithm::Cetric2] {
        let a = count(&g, 9, alg, &alg.config()).unwrap();
        let b = count(&g, 9, alg, &alg.config()).unwrap();
        assert_eq!(a.triangles, b.triangles);
        assert_eq!(a.stats.total_volume(), b.stats.total_volume());
        assert_eq!(a.stats.total_work(), b.stats.total_work());
    }
}

//! Integration coverage of the extension systems: compressed graphs,
//! distributed enumeration, sampling estimators, the 2D matrix baseline,
//! timed runs and the communication-free generation pipeline — all checked
//! against each other end to end.

use cetric::comm::SimOptions;
use cetric::core::dist::{enumerate, matrix2d};
use cetric::core::{sampling, seq};
use cetric::gen::distributed::{rgg2d_distributed, RggLayout};
use cetric::graph::compressed::CompressedCsr;
use cetric::prelude::*;

#[test]
fn five_independent_counters_agree() {
    // sequential, compressed-sequential, CETRIC, 2D SpGEMM, enumeration —
    // five implementations sharing almost no code must produce one number
    for (g, p2d) in [
        (cetric::gen::gnm(400, 4000, 9), 4usize),
        (cetric::gen::rmat_default(9, 4), 16),
        (Dataset::Uk2007.generate(512, 2), 9),
    ] {
        let a = seq::compact_forward(&g).triangles;
        let b = seq::compact_forward_compressed(&CompressedCsr::from_csr(&g)).triangles;
        let c = count(&g, 6, Algorithm::Cetric, &Algorithm::Cetric.config())
            .unwrap()
            .triangles;
        let d = matrix2d::count_matrix2d(&g, p2d).triangles;
        let e = enumerate::enumerate(&g, 5, &DistConfig::default()).len() as u64;
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(a, d);
        assert_eq!(a, e);
    }
}

#[test]
fn compressed_graphs_save_space_on_web_proxies() {
    // web crawls are the canonical compression win (host-local ids)
    let g = Dataset::Uk2007.generate(2048, 7);
    let c = CompressedCsr::from_csr(&g);
    let ratio = c.uncompressed_bytes() as f64 / c.data_bytes() as f64;
    assert!(ratio > 3.0, "web proxy should compress well: {ratio:.2}x");
    assert_eq!(c.to_csr(), g);
}

#[test]
fn sampling_estimators_bracket_the_truth() {
    let g = cetric::gen::rmat_default(10, 8);
    let truth = seq::compact_forward(&g).triangles as f64;
    // average over seeds: both estimators are (asymptotically) unbiased
    let mut doulion_mean = 0.0;
    let mut colorful_mean = 0.0;
    let runs = 6;
    for s in 0..runs {
        doulion_mean +=
            sampling::doulion_estimate(&g, 4, Algorithm::Ditric, 0.6, s).unwrap() / runs as f64;
        colorful_mean +=
            sampling::colorful_estimate(&g, 4, Algorithm::Ditric, 2, s).unwrap() / runs as f64;
    }
    assert!(
        (doulion_mean - truth).abs() / truth < 0.25,
        "DOULION {doulion_mean} vs {truth}"
    );
    assert!(
        (colorful_mean - truth).abs() / truth < 0.25,
        "colorful {colorful_mean} vs {truth}"
    );
    // and sparsification genuinely shrinks the communicated graph
    let sparse = sampling::doulion_sparsify(&g, 0.25, 1);
    assert!(sparse.num_edges() < g.num_edges() / 2);
}

#[test]
fn communication_free_generation_feeds_the_counter() {
    // per-rank generation + CETRIC without any global graph; verified
    // against central assembly of the identical per-cell streams
    let layout = RggLayout::new(1500, 16.0, 33);
    let p = 6;
    let cfg = DistConfig::default();
    let out = cetric::comm::run_sim(p, &SimOptions::default(), |ctx| {
        let (_part, lg) = rgg2d_distributed(&layout, p, ctx.rank(), 33);
        cetric::core::dist::cetric::run_rank(ctx, lg, &cfg).0
    })
    .output;
    let distributed_count = out.results[0];
    assert!(out.results.iter().all(|&t| t == distributed_count));

    // central reference from the same deterministic layout
    let mut el = EdgeList::new();
    let mut n = 0;
    for rank in 0..p {
        let (part, lg) = rgg2d_distributed(&layout, p, rank, 33);
        n = part.num_vertices();
        for v in lg.owned_vertices() {
            for &u in lg.neighbors(v) {
                el.push(v, u);
            }
        }
    }
    el.canonicalize();
    let g = Csr::from_edges(n, &el);
    assert_eq!(distributed_count, seq::compact_forward(&g).triangles);
}

#[test]
fn timed_and_untimed_runs_count_identically() {
    let g = Dataset::Orkut.generate(1024, 5);
    let cost = CostModel::cloud();
    for alg in [Algorithm::Ditric2, Algorithm::Cetric] {
        let dg = DistGraph::new(&g, 8);
        let opts = SimOptions {
            timing: Some(cost),
            ..SimOptions::default()
        };
        let (timed, _) = cetric::core::run_on(dg, alg, &alg.config(), &opts).unwrap();
        let untimed = count(&g, 8, alg, &alg.config()).unwrap();
        assert_eq!(timed.triangles, untimed.triangles);
        assert!(timed.stats.makespan() > 0.0);
        // counters identical: timing must not change the protocol
        assert_eq!(timed.stats.total_volume(), untimed.stats.total_volume());
        assert_eq!(timed.stats.total_work(), untimed.stats.total_work());
    }
}

#[test]
fn matrix2d_volume_wall_vs_cetric_on_local_graph() {
    // on a local (web-like) graph the contrast is starkest: CETRIC ships
    // only the cut, the 2D scheme replicates blocks regardless of locality
    let g = Dataset::Webbase2001.generate(2048, 3);
    let c16 = count(&g, 16, Algorithm::Cetric, &Algorithm::Cetric.config()).unwrap();
    let m16 = matrix2d::count_matrix2d(&g, 16);
    assert_eq!(c16.triangles, m16.triangles);
    assert!(
        m16.stats.total_volume() > 3 * c16.stats.total_volume(),
        "2D volume {} should dwarf CETRIC's {} on a local graph",
        m16.stats.total_volume(),
        c16.stats.total_volume()
    );
}

//! Integration coverage of the extension systems: distributed enumeration,
//! the 2D matrix baseline and the communication-free generation pipeline —
//! all checked against each other end to end.

use cetric::comm::SimOptions;
use cetric::core::dist::{enumerate, matrix2d};
use cetric::core::seq;
use cetric::gen::distributed::{rgg2d_distributed, RggLayout};
use cetric::prelude::*;

#[test]
fn four_independent_counters_agree() {
    // sequential, CETRIC, 2D SpGEMM, enumeration — four implementations
    // sharing almost no code must produce one number
    for (g, p2d) in [
        (cetric::gen::gnm(400, 4000, 9), 4usize),
        (cetric::gen::rmat_default(9, 4), 16),
        (Dataset::Uk2007.generate(512, 2), 9),
    ] {
        let a = seq::compact_forward(&g).triangles;
        let c = count(&g, 6, Algorithm::Cetric, &Algorithm::Cetric.config())
            .unwrap()
            .triangles;
        let d = matrix2d::count_matrix2d(&g, p2d).triangles;
        let e = enumerate::enumerate(&g, 5, &DistConfig::default()).len() as u64;
        assert_eq!(a, c);
        assert_eq!(a, d);
        assert_eq!(a, e);
    }
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

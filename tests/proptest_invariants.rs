//! Property-based tests: random graphs, partitions and parameters must
//! uphold the core invariants — all algorithms agree with brute force,
//! orientation is a triangle-preserving DAG, partitions cover the id space,
//! routing delivers exactly once, and the Bloom count never underestimates.

use cetric::comm::SimOptions;
use cetric::core::dist::approx::{approx, ApproxConfig, FilterKind};
use cetric::core::seq;
use cetric::prelude::*;
use proptest::prelude::*;
use tricount_graph::ordering::{orient, OrderingKind};

/// Strategy: a random simple graph as a canonical edge list over `n ≤ 24`
/// vertices.
fn arb_graph() -> impl Strategy<Value = Csr> {
    (
        2u64..24,
        proptest::collection::vec((0u64..24, 0u64..24), 0..80),
    )
        .prop_map(|(n, pairs)| {
            let mut el = EdgeList::new();
            for (u, v) in pairs {
                let (u, v) = (u % n, v % n);
                if u != v {
                    el.push(u, v);
                }
            }
            el.canonicalize();
            Csr::from_edges(n, &el)
        })
}

/// Strategy: the shapes a degree-prefix partition must cut — no vertices,
/// isolated vertices only, a star, a path — and random graphs.
fn arb_partition_shape() -> impl Strategy<Value = Csr> {
    (0u8..5, 0u64..40, arb_graph()).prop_map(|(shape, n, random)| {
        let pairs: Vec<(u64, u64)> = match shape {
            0 => return Csr::from_edges(0, &EdgeList::new()),
            1 => Vec::new(),
            2 => (1..n).map(|v| (0, v)).collect(),
            3 => (1..n).map(|v| (v - 1, v)).collect(),
            _ => return random,
        };
        let mut el = EdgeList::from_pairs(pairs);
        el.canonicalize();
        Csr::from_edges(n, &el)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_algorithms_agree_with_brute_force(g in arb_graph(), p in 1usize..6) {
        let truth = seq::brute_force_count(&g);
        prop_assert_eq!(seq::compact_forward(&g).triangles, truth);
        prop_assert_eq!(seq::edge_iterator(&g, OrderingKind::Id).triangles, truth);
        for alg in Algorithm::all() {
            let r = count(&g, p, alg, &alg.config()).unwrap();
            prop_assert_eq!(r.triangles, truth, "{} p={}", alg.name(), p);
        }
    }

    #[test]
    fn orientation_is_antisymmetric_and_complete(g in arb_graph()) {
        for kind in [OrderingKind::Degree, OrderingKind::Id] {
            let o = orient(&g, kind);
            prop_assert_eq!(o.num_directed_edges(), g.num_edges());
            for (u, v) in o.directed_edges() {
                prop_assert!(!o.neighbors(v).contains(&u));
                prop_assert!(g.has_edge(u, v));
            }
        }
    }

    #[test]
    fn per_vertex_counts_are_consistent(g in arb_graph()) {
        let delta = seq::per_vertex_counts(&g, OrderingKind::Degree);
        let total = seq::brute_force_count(&g);
        prop_assert_eq!(delta.iter().sum::<u64>(), 3 * total);
        let lcc = seq::local_clustering_coefficients(&g, OrderingKind::Degree);
        for (v, &x) in lcc.iter().enumerate() {
            prop_assert!((0.0..=1.0).contains(&x), "lcc[{}] = {}", v, x);
        }
    }

    #[test]
    fn distributed_lcc_matches_sequential(g in arb_graph(), p in 1usize..5) {
        let truth = seq::per_vertex_counts(&g, OrderingKind::Degree);
        let r = cetric::core::dist::lcc::lcc(&g, p, &DistConfig::default());
        prop_assert_eq!(r.per_vertex, truth);
    }

    #[test]
    fn partition_covers_and_sorts(n in 0u64..1000, p in 1usize..20) {
        let part = Partition::balanced_vertices(n, p);
        prop_assert_eq!(part.num_vertices(), n);
        let mut covered = 0u64;
        for r in 0..p {
            let range = part.range(r);
            covered += range.end - range.start;
            for v in range {
                prop_assert_eq!(part.rank_of(v), r);
            }
        }
        prop_assert_eq!(covered, n);
    }

    #[test]
    fn degree_partition_covers_and_balances(g in arb_partition_shape(), p in 1usize..50) {
        let part = Partition::balanced_edges(&g, p);
        let n = g.num_vertices();
        prop_assert_eq!(part.num_ranks(), p);
        prop_assert_eq!(part.range(0).start, 0);
        prop_assert_eq!(part.range(p - 1).end, n);
        let total: u64 = g.vertices().map(|v| g.degree(v)).sum();
        let max_degree = g.vertices().map(|v| g.degree(v)).max().unwrap_or(0);
        let cap = total.div_ceil(p as u64) + max_degree;
        for r in 0..p {
            let range = part.range(r);
            prop_assert!(range.start <= range.end, "rank {} range {:?}", r, range);
            if r + 1 < p {
                prop_assert_eq!(range.end, part.range(r + 1).start);
            }
            let load: u64 = range.clone().map(|v| g.degree(v)).sum();
            prop_assert!(load <= cap, "rank {} {:?} holds {} > {} (n={} p={})", r, range, load, cap, n, p);
        }
    }

    #[test]
    fn grid_routes_always_terminate_at_destination(p in 1usize..200) {
        let grid = cetric::comm::Grid::new(p);
        for from in 0..p {
            // sample a few destinations to keep the case count bounded
            for to in [0, p / 3, p / 2, p.saturating_sub(1)] {
                if from == to { continue; }
                let route = grid.route(from, to);
                prop_assert_eq!(*route.last().unwrap(), to);
                prop_assert!(route.len() <= 2);
            }
        }
    }

    #[test]
    fn bloom_raw_count_never_underestimates(g in arb_graph(), bits in 2.0f64..16.0) {
        let truth = seq::brute_force_count(&g);
        let r = approx(&g, 3, &DistConfig::default(), &ApproxConfig {
            bits_per_key: bits,
            filter: FilterKind::Bloom,
        });
        // no false negatives: exact local + raw type-3 ≥ truth
        prop_assert!(r.exact_local + r.type3_raw >= truth,
            "raw {} + {} < {}", r.exact_local, r.type3_raw, truth);
    }

    #[test]
    fn edge_balanced_partitions_count_correctly(g in arb_graph(), p in 1usize..5) {
        let truth = seq::brute_force_count(&g);
        let dg = DistGraph::new(&g, p);
        let alg = Algorithm::Cetric;
        let (r, _) = cetric::core::run_on(dg, alg, &alg.config(), &SimOptions::default()).unwrap();
        prop_assert_eq!(r.triangles, truth);
    }

    #[test]
    fn wedges_upper_bound_triangles(g in arb_graph()) {
        // every triangle closes three wedges
        prop_assert!(3 * seq::brute_force_count(&g) <= g.num_wedges());
    }
}

//! Shape-level reproduction checks: the qualitative claims of the paper's
//! evaluation must hold in the simulator — aggregation beats per-edge
//! messaging, contraction shrinks the cut-dependent volume on local graphs
//! but not on GNM, grid indirection caps fan-in, DITRIC's memory stays
//! linear while static buffering blows up, and modeled times scale sanely.

use cetric::prelude::*;

/// The paper's ID partition (equal vertex counts per PE), which the figure
/// shapes are stated for; the library default cuts at degree prefix sums.
fn id_partition(g: &Csr, p: usize) -> DistGraph {
    DistGraph::with_partition(g, Partition::balanced_vertices(g.num_vertices(), p))
}

/// [`count`] on [`id_partition`].
fn count_id(g: &Csr, p: usize, alg: Algorithm, cfg: &DistConfig) -> Result<CountResult, DistError> {
    cetric::core::run_on(id_partition(g, p), alg, cfg, &Default::default()).map(|(r, _)| r)
}

fn global_volume(r: &CountResult) -> u64 {
    r.stats
        .phases
        .iter()
        .filter(|ph| ph.name == "global")
        .map(|ph| ph.total_volume())
        .sum()
}

#[test]
fn fig2_shape_aggregation_wins_at_every_p() {
    let g = Dataset::Friendster.generate(1 << 11, 4);
    let model = CostModel::supermuc();
    for p in [4usize, 8, 16, 32] {
        let unagg = count_id(
            &g,
            p,
            Algorithm::Unaggregated,
            &Algorithm::Unaggregated.config(),
        )
        .unwrap();
        let agg = count_id(&g, p, Algorithm::Ditric, &Algorithm::Ditric.config()).unwrap();
        assert_eq!(unagg.triangles, agg.triangles);
        // order-of-magnitude running-time gap from startup overheads
        let gap = unagg.modeled_time(&model) / agg.modeled_time(&model);
        assert!(gap > 4.0, "p={p}: aggregation gap only {gap:.2}");
        // the mechanism: per-edge messaging floods the network with small
        // messages
        assert!(
            unagg.stats.total_messages() > 3 * agg.stats.total_messages(),
            "p={p}: unagg msgs {} !≫ agg msgs {}",
            unagg.stats.total_messages(),
            agg.stats.total_messages()
        );
    }
}

#[test]
fn fig5_shape_cetric_cuts_volume_on_rgg_not_on_gnm() {
    let p = 8;
    // RGG2D: strong locality → contraction pays in volume
    let rgg = cetric::gen::rgg2d_default(1 << 12, 2);
    let d = count_id(&rgg, p, Algorithm::Ditric, &Algorithm::Ditric.config()).unwrap();
    let c = count_id(&rgg, p, Algorithm::Cetric, &Algorithm::Cetric.config()).unwrap();
    let ratio_rgg = global_volume(&d) as f64 / global_volume(&c).max(1) as f64;
    assert!(ratio_rgg > 1.5, "RGG volume reduction only {ratio_rgg:.2}x");

    // GNM: no locality → reduction marginal (paper: "almost no reduction")
    let gnm = cetric::gen::gnm(1 << 12, 16 << 12, 2);
    let d = count_id(&gnm, p, Algorithm::Ditric, &Algorithm::Ditric.config()).unwrap();
    let c = count_id(&gnm, p, Algorithm::Cetric, &Algorithm::Cetric.config()).unwrap();
    let ratio_gnm = global_volume(&d) as f64 / global_volume(&c).max(1) as f64;
    assert!(
        ratio_gnm < ratio_rgg,
        "GNM reduction {ratio_gnm:.2} !< RGG reduction {ratio_rgg:.2}"
    );
    // and CETRIC costs extra local work on GNM without volume payoff
    assert!(c.stats.total_work() > d.stats.total_work());
}

#[test]
fn indirection_caps_peer_fanout_at_scale() {
    // RMAT hub: many PEs send to the hub's owner
    let g = cetric::gen::rmat_default(10, 6);
    let p = 36;
    let direct = count_id(&g, p, Algorithm::Ditric, &Algorithm::Ditric.config()).unwrap();
    let indirect = count_id(&g, p, Algorithm::Ditric2, &Algorithm::Ditric2.config()).unwrap();
    assert_eq!(direct.triangles, indirect.triangles);
    let max_peers_direct = direct
        .stats
        .phases
        .iter()
        .flat_map(|ph| ph.per_rank.iter())
        .map(|c| c.recv_peers)
        .max()
        .unwrap();
    let max_peers_indirect = indirect
        .stats
        .phases
        .iter()
        .flat_map(|ph| ph.per_rank.iter())
        .map(|c| c.recv_peers)
        .max()
        .unwrap();
    // grid bound: ≈ row + column (2√p) plus degree-exchange traffic, which
    // is dense. Compare only the global phase peers → use last phase.
    let global_direct = direct.stats.phases.last().unwrap();
    let global_indirect = indirect.stats.phases.last().unwrap();
    let gd = global_direct
        .per_rank
        .iter()
        .map(|c| c.recv_peers)
        .max()
        .unwrap();
    let gi = global_indirect
        .per_rank
        .iter()
        .map(|c| c.recv_peers)
        .max()
        .unwrap();
    assert!(
        gi <= gd,
        "indirect peers {gi} > direct {gd} (run-wide {max_peers_indirect} vs {max_peers_direct})"
    );
    // volume penalty bounded by 2×
    assert!(indirect.stats.total_volume() <= 2 * direct.stats.total_volume() + 1000);
}

#[test]
fn memory_bounds_linear_vs_superlinear() {
    let g = cetric::gen::rmat_default(10, 9);
    let p = 8;
    let dg = id_partition(&g, p);
    let max_entries = (0..p)
        .map(|r| dg.local(r).num_local_entries())
        .max()
        .unwrap();

    let ditric = count_id(&g, p, Algorithm::Ditric, &Algorithm::Ditric.config()).unwrap();
    // DITRIC: peak buffer within a small factor of δ (=|E_i|/4) — linear
    assert!(
        ditric.stats.max_peak_buffered() <= max_entries,
        "DITRIC peak {} exceeds local input {}",
        ditric.stats.max_peak_buffered(),
        max_entries
    );

    let tric = count_id(&g, p, Algorithm::TricLike, &Algorithm::TricLike.config()).unwrap();
    // TriC-like: peak buffer is the whole outgoing volume — superlinear in
    // the local input on this skewed graph
    assert!(
        tric.stats.max_peak_buffered() > max_entries,
        "TriC-like peak {} not superlinear (local input {})",
        tric.stats.max_peak_buffered(),
        max_entries
    );
}

#[test]
fn modeled_time_decreases_then_flattens_with_p() {
    // strong scaling on a mid-size instance: time at p=16 must be well
    // below p=2, and no catastrophic blow-up at p=32
    let g = cetric::gen::rgg2d_default(1 << 13, 11);
    let model = CostModel::supermuc();
    let t: Vec<f64> = [2usize, 16, 32]
        .iter()
        .map(|&p| {
            count_id(&g, p, Algorithm::Ditric, &Algorithm::Ditric.config())
                .unwrap()
                .modeled_time(&model)
        })
        .collect();
    assert!(t[1] < t[0] / 2.0, "no speedup: t2={} t16={}", t[0], t[1]);
    assert!(
        t[2] < t[0],
        "scaling wall at p=32: t2={} t32={}",
        t[0],
        t[2]
    );
}

#[test]
fn cloud_network_favours_cetric_supermuc_less_so() {
    // the §V-D/§V-E regime claim, as a relative statement: CETRIC's
    // advantage over DITRIC must be larger under the slow-network model
    let g = Dataset::Webbase2001.generate(1 << 12, 8);
    let p = 16;
    let d = count_id(&g, p, Algorithm::Ditric, &Algorithm::Ditric.config()).unwrap();
    let c = count_id(&g, p, Algorithm::Cetric, &Algorithm::Cetric.config()).unwrap();
    let fast = CostModel::supermuc();
    let slow = CostModel::cloud();
    let adv_fast = d.modeled_time(&fast) / c.modeled_time(&fast);
    let adv_slow = d.modeled_time(&slow) / c.modeled_time(&slow);
    assert!(
        adv_slow > adv_fast,
        "contraction advantage should grow on slow networks: fast {adv_fast:.3} slow {adv_slow:.3}"
    );
    assert!(
        adv_slow > 1.0,
        "CETRIC must win outright on the cloud model"
    );
}

#[test]
fn havoqgt_like_moves_wedge_volume() {
    // wedge-proportional messaging ≫ neighborhood messaging on skewed graphs
    let g = Dataset::Twitter.generate(1 << 11, 3);
    let p = 8;
    let ours = count_id(&g, p, Algorithm::Ditric, &Algorithm::Ditric.config()).unwrap();
    let theirs = count_id(
        &g,
        p,
        Algorithm::HavoqgtLike,
        &Algorithm::HavoqgtLike.config(),
    )
    .unwrap();
    assert_eq!(ours.triangles, theirs.triangles);
    assert!(
        theirs.stats.total_volume() > 2 * ours.stats.total_volume(),
        "HavoqGT-like volume {} !≫ DITRIC volume {}",
        theirs.stats.total_volume(),
        ours.stats.total_volume()
    );
}

#[test]
fn road_networks_tiny_communication() {
    // road family: cut and volume must be tiny relative to m
    let g = Dataset::RoadEurope.generate(1 << 12, 2);
    let r = count_id(&g, 8, Algorithm::Cetric, &Algorithm::Cetric.config()).unwrap();
    let m_words = 2 * g.num_edges();
    assert!(
        global_volume(&r) < m_words / 4,
        "road global volume {} not ≪ input {}",
        global_volume(&r),
        m_words
    );
}

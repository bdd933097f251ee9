//! Cross-crate integration tests: small-scale checks that each reproduced
//! theorem's *shape* (who wins, which way the curves bend) already shows up
//! end-to-end through the public facade API.

use faultnet::prelude::*;
use faultnet_percolation::branching::double_tree_critical_probability;
use faultnet_routing::router::Router;

/// Theorem 4: on the supercritical mesh the landmark router's cost grows
/// roughly linearly with the distance, far below the flooding cost.
#[test]
fn mesh_routing_is_linear_ish_and_beats_flooding() {
    let p = 0.75;
    let mut per_distance = Vec::new();
    for (side, dist) in [(15u64, 12u64), (27, 24), (51, 48)] {
        let mesh = Mesh::new(2, side);
        let u = mesh.vertex_at(&[1, side / 2]);
        let v = mesh.vertex_at(&[1 + dist, side / 2]);
        let harness = ComplexityHarness::new(mesh, PercolationConfig::new(p, 100 + side));
        let landmark = harness.measure_with_model(
            &BernoulliEdges::new(),
            &MeshLandmarkRouter::new(),
            u,
            v,
            15,
        );
        assert!(landmark.conditioned_trials() > 5);
        assert_eq!(landmark.success_rate(), 1.0);
        per_distance.push(landmark.mean_probes() / dist as f64);
        if dist == 24 {
            let flood =
                harness.measure_with_model(&BernoulliEdges::new(), &FloodRouter::new(), u, v, 15);
            assert!(landmark.mean_probes() < flood.mean_probes());
        }
    }
    // Probes per hop must not blow up as the distance quadruples.
    assert!(
        per_distance[2] < per_distance[0] * 3.0,
        "probes per hop grew too fast: {per_distance:?}"
    );
}

/// Theorem 3: the hypercube segment router is dramatically cheaper in the
/// easy regime (alpha < 1/2) than in the hard regime (alpha > 1/2).
#[test]
fn hypercube_transition_direction() {
    let n = 11u32;
    let cube = Hypercube::new(n);
    let (u, v) = cube.canonical_pair();
    let measure = |alpha: f64, seed: u64| {
        let p = (n as f64).powf(-alpha);
        let harness =
            ComplexityHarness::new(cube, PercolationConfig::new(p, seed)).with_probe_budget(80_000);
        let stats = harness.measure_with_model(
            &BernoulliEdges::new(),
            &SegmentRouter::for_alpha(alpha, 16),
            u,
            v,
            10,
        );
        let conditioned = stats.conditioned_trials().max(1) as f64;
        (stats.probe_counts().iter().sum::<u64>() as f64
            + stats.budget_exhaustions() as f64 * 80_000.0)
            / conditioned
    };
    let easy = measure(0.2, 41);
    let hard = measure(0.8, 42);
    assert!(
        hard > 3.0 * easy,
        "expected a big cost gap across the transition: easy {easy}, hard {hard}"
    );
}

/// Lemma 6 + Theorems 7 and 9 on the double tree: the connectivity threshold
/// sits near 1/sqrt(2), and the oracle router beats the local router by a
/// widening margin as the depth grows.
#[test]
fn double_tree_local_vs_oracle_gap() {
    let p = 0.8;
    assert!(p > double_tree_critical_probability());
    let mut ratios = Vec::new();
    for depth in [5u32, 8] {
        let tt = DoubleBinaryTree::new(depth);
        let (x, y) = tt.roots();
        let harness = ComplexityHarness::new(tt, PercolationConfig::new(p, 7 + depth as u64));
        let local = harness.measure_with_model(
            &BernoulliEdges::new(),
            &LeafPenetrationRouter::new(),
            x,
            y,
            25,
        );
        let oracle = harness.measure_with_model(
            &BernoulliEdges::new(),
            &PairedDfsOracleRouter::new(),
            x,
            y,
            25,
        );
        assert_eq!(local.success_rate(), 1.0);
        assert!(local.conditioned_trials() > 5);
        if oracle.successes() > 0 {
            ratios.push(local.mean_probes() / oracle.mean_probes());
        }
    }
    assert!(!ratios.is_empty());
    assert!(
        ratios.last().unwrap() > ratios.first().unwrap(),
        "the local/oracle cost ratio should widen with depth: {ratios:?}"
    );
}

/// Theorems 10 and 11 on G(n, p): the oracle router wins, and its advantage
/// grows with n (exponent 1.5 vs 2).
#[test]
fn gnp_oracle_advantage_grows_with_n() {
    let c = 2.0;
    let mut advantage = Vec::new();
    for n in [80u64, 320] {
        let k = CompleteGraph::new(n);
        let (u, v) = k.canonical_pair();
        let harness = ComplexityHarness::new(k, PercolationConfig::new(c / n as f64, n));
        let local = harness.measure_with_model(
            &BernoulliEdges::new(),
            &IncrementalLocalRouter::new(),
            u,
            v,
            12,
        );
        let oracle = harness.measure_with_model(
            &BernoulliEdges::new(),
            &BidirectionalGrowthRouter::new(),
            u,
            v,
            12,
        );
        assert_eq!(local.success_rate(), 1.0);
        assert_eq!(oracle.success_rate(), 1.0);
        advantage.push(local.mean_probes() / oracle.mean_probes());
    }
    assert!(advantage[0] > 1.0, "oracle should already win at n = 80");
    assert!(
        advantage[1] > advantage[0],
        "oracle advantage should grow with n: {advantage:?}"
    );
}

/// The conditioning of Definition 2 is enforced end to end: with p = 0 no
/// trial is conditioned, with p = 1 every trial is, and the probe counts of a
/// complete router are reproducible for a fixed seed.
#[test]
fn conditioning_and_reproducibility() {
    let cube = Hypercube::new(8);
    let (u, v) = cube.canonical_pair();
    let empty = ComplexityHarness::new(cube, PercolationConfig::new(0.0, 1)).measure_with_model(
        &BernoulliEdges::new(),
        &FloodRouter::new(),
        u,
        v,
        5,
    );
    assert_eq!(empty.conditioned_trials(), 0);
    let full = ComplexityHarness::new(cube, PercolationConfig::new(1.0, 1)).measure_with_model(
        &BernoulliEdges::new(),
        &FloodRouter::new(),
        u,
        v,
        5,
    );
    assert_eq!(full.conditioned_trials(), 5);

    let a = ComplexityHarness::new(cube, PercolationConfig::new(0.5, 99)).measure_with_model(
        &BernoulliEdges::new(),
        &SegmentRouter::default(),
        u,
        v,
        10,
    );
    let b = ComplexityHarness::new(cube, PercolationConfig::new(0.5, 99)).measure_with_model(
        &BernoulliEdges::new(),
        &SegmentRouter::default(),
        u,
        v,
        10,
    );
    assert_eq!(a.probe_counts(), b.probe_counts());
}

/// Locality is enforced through the whole stack: an oracle-only algorithm
/// (paired DFS) run through a *local* probe engine is rejected by the engine
/// rather than silently allowed to cheat.
#[test]
fn locality_violations_are_caught() {
    let tt = DoubleBinaryTree::new(4);
    let (x, y) = tt.roots();
    let sampler = PercolationConfig::new(0.9, 3).sampler();
    let mut local_engine = ProbeEngine::local(&tt, &sampler, x);
    let result = PairedDfsOracleRouter::new().route(&mut local_engine, x, y);
    // The mirror edge of the very first probe touches only second-tree
    // vertices, which a local engine must reject.
    assert!(result.is_err(), "a local engine must reject oracle probes");
}

/// The facade prelude exposes a working end-to-end path for every major type
/// (smoke test for the public API surface).
#[test]
fn facade_prelude_smoke_test() {
    let cube = Hypercube::new(6);
    let cfg = PercolationConfig::new(0.7, 5);
    let sampler = cfg.sampler();
    let census = ComponentCensus::compute(&cube, &sampler);
    assert!(census.giant_fraction() > 0.0);
    let gp = PercolatedGraph::new(&cube, &sampler);
    let (u, v) = cube.canonical_pair();
    assert!(gp.open_degree(u) <= cube.degree(u));
    let mut engine = ProbeEngine::local(&cube, &sampler, u);
    let outcome = FloodRouter::new().route(&mut engine, u, v).unwrap();
    assert_eq!(outcome.probes, engine.probes_used());
    let summary = Summary::from_counts([1u64, 2, 3]);
    assert_eq!(summary.median(), 2.0);
    let fit = fit_power_law(&[(1.0, 2.0), (2.0, 8.0), (4.0, 32.0)]).unwrap();
    assert!((fit.exponent - 2.0).abs() < 1e-9);
    let sweep = Sweep::over(vec![1u32, 2, 3]);
    assert_eq!(sweep.run(|x| x + 1).len(), 3);
    let mut table = Table::new(["a"]);
    table.push_row(["1"]);
    assert_eq!(table.num_rows(), 1);
    let line = fit_line(&[(0.0, 0.0), (1.0, 2.0)]).unwrap();
    assert!((line.slope - 2.0).abs() < 1e-12);
    let e = EdgeId::new(VertexId(0), VertexId(1));
    assert!(e.touches(VertexId(0)));
}

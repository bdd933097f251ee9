//! Property-based tests for the routing crate.
//!
//! The central invariants: routers only learn about edges through the probe
//! engine, local routers never issue illegal probes (the engine would reject
//! them), returned paths are always valid open paths with the right
//! endpoints, and complete routers succeed exactly when the conditioning
//! event `{u ∼ v}` holds.

use faultnet_faultmodel::{trials::TrialExec, BernoulliEdges};
use faultnet_percolation::bfs::connected;
use faultnet_percolation::sample::BitsetSample;
use faultnet_percolation::PercolationConfig;
use faultnet_routing::bfs::{BidirectionalOracleBfs, FloodRouter};
use faultnet_routing::complexity::ComplexityHarness;
use faultnet_routing::gnp::{BidirectionalGrowthRouter, IncrementalLocalRouter};
use faultnet_routing::hypercube::SegmentRouter;
use faultnet_routing::mesh::MeshLandmarkRouter;
use faultnet_routing::probe::ProbeEngine;
use faultnet_routing::router::Router;
use faultnet_routing::tree::{LeafPenetrationRouter, PairedDfsOracleRouter};
use faultnet_topology::complete::CompleteGraph;
use faultnet_topology::de_bruijn::DeBruijn;
use faultnet_topology::double_tree::DoubleBinaryTree;
use faultnet_topology::hypercube::Hypercube;
use faultnet_topology::mesh::Mesh;
use faultnet_topology::{Topology, VertexId};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn flood_router_success_iff_connected(p in 0.2f64..0.9, seed in any::<u64>(), a in any::<u64>(), b in any::<u64>()) {
        let cube = Hypercube::new(7);
        let u = VertexId(a % cube.num_vertices());
        let v = VertexId(b % cube.num_vertices());
        let sampler = PercolationConfig::new(p, seed).sampler();
        let mut engine = ProbeEngine::local(&cube, &sampler, u);
        let outcome = FloodRouter::new().route(&mut engine, u, v).unwrap();
        prop_assert_eq!(outcome.is_success(), connected(&cube, &sampler, u, v));
        prop_assert_eq!(outcome.probes, engine.probes_used());
        prop_assert!(outcome.probes <= cube.num_edges());
        if let Some(path) = outcome.path {
            prop_assert!(path.connects(u, v));
            prop_assert!(path.is_valid_open_path(&cube, &sampler));
        }
    }

    #[test]
    fn segment_router_paths_are_valid(p in 0.3f64..0.9, seed in any::<u64>()) {
        let cube = Hypercube::new(8);
        let (u, v) = cube.canonical_pair();
        let sampler = PercolationConfig::new(p, seed).sampler();
        let mut engine = ProbeEngine::local(&cube, &sampler, u);
        let outcome = SegmentRouter::default().route(&mut engine, u, v).unwrap();
        prop_assert_eq!(outcome.is_success(), connected(&cube, &sampler, u, v));
        if let Some(path) = outcome.path {
            prop_assert!(path.connects(u, v));
            prop_assert!(path.is_valid_open_path(&cube, &sampler));
        }
    }

    #[test]
    fn mesh_router_paths_are_valid(p in 0.55f64..0.95, seed in any::<u64>(), side in 6u64..14) {
        let mesh = Mesh::new(2, side);
        let (u, v) = mesh.canonical_pair();
        let sampler = PercolationConfig::new(p, seed).sampler();
        let mut engine = ProbeEngine::local(&mesh, &sampler, u);
        let outcome = MeshLandmarkRouter::new().route(&mut engine, u, v).unwrap();
        prop_assert_eq!(outcome.is_success(), connected(&mesh, &sampler, u, v));
        if let Some(path) = outcome.path {
            prop_assert!(path.connects(u, v));
            prop_assert!(path.is_valid_open_path(&mesh, &sampler));
            // A path can never be shorter than the graph metric allows.
            prop_assert!(path.len() as u64 >= mesh.distance(u, v).unwrap());
        }
    }

    #[test]
    fn oracle_bfs_agrees_with_local_bfs(p in 0.2f64..0.8, seed in any::<u64>()) {
        let cube = Hypercube::new(7);
        let (u, v) = cube.canonical_pair();
        let sampler = PercolationConfig::new(p, seed).sampler();
        let mut le = ProbeEngine::local(&cube, &sampler, u);
        let mut oe = ProbeEngine::oracle(&cube, &sampler);
        let flood = FloodRouter::new().route(&mut le, u, v).unwrap();
        let bidi = BidirectionalOracleBfs::new().route(&mut oe, u, v).unwrap();
        prop_assert_eq!(flood.is_success(), bidi.is_success());
    }

    #[test]
    fn double_tree_routers_respect_connectivity(p in 0.72f64..0.98, seed in any::<u64>(), depth in 3u32..7) {
        let tt = DoubleBinaryTree::new(depth);
        let (x, y) = tt.roots();
        let sampler = PercolationConfig::new(p, seed).sampler();
        let mut le = ProbeEngine::local(&tt, &sampler, x);
        let local = LeafPenetrationRouter::new().route(&mut le, x, y).unwrap();
        prop_assert_eq!(local.is_success(), connected(&tt, &sampler, x, y));
        if let Some(path) = local.path {
            prop_assert!(path.is_valid_open_path(&tt, &sampler));
        }
        let mut oe = ProbeEngine::oracle(&tt, &sampler);
        let oracle = PairedDfsOracleRouter::new().route(&mut oe, x, y).unwrap();
        // The paired-DFS router only finds mirror paths, so success implies
        // connectivity but not conversely.
        if oracle.is_success() {
            prop_assert!(connected(&tt, &sampler, x, y));
            let path = oracle.path.unwrap();
            prop_assert!(path.is_valid_open_path(&tt, &sampler));
            prop_assert_eq!(path.len() as u64, 2 * depth as u64);
        }
    }

    #[test]
    fn gnp_routers_success_iff_connected(c in 1.2f64..4.0, seed in any::<u64>(), n in 30u64..80) {
        let k = CompleteGraph::new(n);
        let (u, v) = k.canonical_pair();
        let p = c / n as f64;
        let sampler = PercolationConfig::new(p, seed).sampler();
        let truth = connected(&k, &sampler, u, v);
        let mut le = ProbeEngine::local(&k, &sampler, u);
        let local = IncrementalLocalRouter::new().route(&mut le, u, v).unwrap();
        prop_assert_eq!(local.is_success(), truth);
        let mut oe = ProbeEngine::oracle(&k, &sampler);
        let oracle = BidirectionalGrowthRouter::new().route(&mut oe, u, v).unwrap();
        prop_assert_eq!(oracle.is_success(), truth);
        if let (Some(lp), Some(op)) = (local.path, oracle.path) {
            prop_assert!(lp.is_valid_open_path(&k, &sampler));
            prop_assert!(op.is_valid_open_path(&k, &sampler));
        }
    }

    #[test]
    fn routing_over_bitset_states_matches_lazy_states(p in 0.2f64..0.9, seed in any::<u64>()) {
        // A router fed edge states from a materialised BitsetSample must
        // behave identically — probe for probe — to one fed the lazy
        // sampler, including on the newly indexed constant-degree families.
        let g = DeBruijn::new(7);
        let (u, v) = g.canonical_pair();
        let sampler = PercolationConfig::new(p, seed).sampler();
        let bitset = BitsetSample::from_states(&g, &sampler);
        let mut lazy_engine = ProbeEngine::local(&g, &sampler, u);
        let mut bitset_engine = ProbeEngine::local(&g, &bitset, u);
        let lazy = FloodRouter::new().route(&mut lazy_engine, u, v).unwrap();
        let dense = FloodRouter::new().route(&mut bitset_engine, u, v).unwrap();
        prop_assert_eq!(lazy, dense);
    }

    #[test]
    fn probe_budget_never_undercounts(budget in 1u64..40, p in 0.2f64..0.9, seed in any::<u64>()) {
        let cube = Hypercube::new(7);
        let (u, v) = cube.canonical_pair();
        let sampler = PercolationConfig::new(p, seed).sampler();
        let mut engine = ProbeEngine::local(&cube, &sampler, u).with_budget(budget);
        match FloodRouter::new().route(&mut engine, u, v) {
            Ok(outcome) => prop_assert!(outcome.probes <= budget),
            Err(_) => prop_assert!(engine.probes_used() <= budget),
        }
    }

    #[test]
    fn parallel_measure_is_bit_identical_to_sequential(
        p in 0.2f64..0.9,
        seed in any::<u64>(),
        threads in 2usize..9,
        trials in 1u32..20,
    ) {
        // The determinism contract of the parallel harness: for every seed,
        // trial count, and thread count, the merged ComplexityStats equal
        // the sequential ones field for field, probe list included.
        let cube = Hypercube::new(7);
        let (u, v) = cube.canonical_pair();
        let harness = ComplexityHarness::new(cube, PercolationConfig::new(p, seed));
        let model = BernoulliEdges::new();
        let sequential = harness.measure_with_model(&model, &FloodRouter::new(), u, v, trials);
        let exec = TrialExec::sequential().with_threads(threads);
        let parallel = harness.measure(&model, &FloodRouter::new(), u, v, trials, exec);
        prop_assert_eq!(sequential, parallel);
    }

    #[test]
    fn parallel_measure_matches_for_incomplete_routers(seed in any::<u64>(), threads in 2usize..6) {
        // Give-ups and budget exhaustions must also merge deterministically.
        let cube = Hypercube::new(8);
        let (u, v) = cube.canonical_pair();
        let harness = ComplexityHarness::new(cube, PercolationConfig::new(0.4, seed))
            .with_probe_budget(500);
        let router = SegmentRouter::default();
        let model = BernoulliEdges::new();
        let sequential = harness.measure_with_model(&model, &router, u, v, 10);
        let exec = TrialExec::sequential().with_threads(threads);
        let parallel = harness.measure(&model, &router, u, v, 10, exec);
        prop_assert_eq!(sequential, parallel);
    }
}

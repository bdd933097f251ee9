//! Property-based tests for the percolation substrate.

use faultnet_percolation::{
    bfs::{bfs, connected, percolation_distance, shortest_open_path, BfsOptions},
    branching::{root_to_leaf_probability, survival_probability},
    components::ComponentCensus,
    sample::{BitsetSample, EdgeStates, FrozenSample},
    union_find::UnionFind,
    PercolatedGraph, PercolationConfig,
};
use faultnet_topology::{
    binary_tree::BinaryTree,
    butterfly::Butterfly,
    complete::CompleteGraph,
    cycle_matching::{CycleWithMatching, MatchingKind},
    de_bruijn::DeBruijn,
    double_tree::DoubleBinaryTree,
    explicit::ExplicitGraph,
    hypercube::Hypercube,
    mesh::Mesh,
    shuffle_exchange::ShuffleExchange,
    torus::Torus,
    EdgeId, Topology, VertexId,
};
use proptest::prelude::*;

/// One small instance of every built-in family, used to sweep "all families"
/// checks without repeating the constructor list.
fn family_zoo() -> Vec<Box<dyn Topology>> {
    vec![
        Box::new(Hypercube::new(5)),
        Box::new(Mesh::new(2, 5)),
        Box::new(Torus::new(2, 4)),
        Box::new(CompleteGraph::new(16)),
        Box::new(DeBruijn::new(5)),
        Box::new(ShuffleExchange::new(5)),
        Box::new(Butterfly::new(3)),
        Box::new(BinaryTree::new(4)),
        Box::new(DoubleBinaryTree::new(3)),
        Box::new(CycleWithMatching::new(16, MatchingKind::Antipodal)),
        Box::new(CycleWithMatching::new(16, MatchingKind::Random { seed: 5 })),
        Box::new(ExplicitGraph::from_topology(&Mesh::new(2, 4))),
        // Loaded and generated substrates from `topology::load`, so the
        // three-backend agreement sweeps cover irregular degree sequences
        // (hubs, degree-1 hosts) alongside the structured families.
        Box::new(faultnet_topology::load::karate_club().graph),
        Box::new(faultnet_topology::load::barabasi_albert(48, 2, 9)),
        Box::new(faultnet_topology::load::fat_tree(4)),
        Box::new(faultnet_topology::load::random_regular(40, 3, 17)),
    ]
}

/// Every built-in family materialises one bit per edge-index slot, and the
/// bitset answers every edge as the lazy sampler does.
#[test]
fn every_builtin_family_takes_the_bitset_backend() {
    let sampler = PercolationConfig::new(0.5, 99).sampler();
    for graph in family_zoo() {
        let graph = graph.as_ref();
        let sample = BitsetSample::from_states(graph, &sampler);
        assert_eq!(
            sample.words().len() as u64,
            graph.edge_index_bound().unwrap().div_ceil(64),
            "{}: one bit per edge-index slot",
            graph.name()
        );
        for e in graph.edges() {
            assert_eq!(
                sample.is_open(e),
                sampler.is_open(e),
                "{e} on {}",
                graph.name()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sampler_agrees_with_itself_and_frozen_copy(p in 0.0f64..1.0, seed in any::<u64>()) {
        let cube = Hypercube::new(5);
        let sampler = PercolationConfig::new(p, seed).sampler();
        let frozen = FrozenSample::from_sampler(&cube, &sampler);
        for e in cube.edges() {
            prop_assert_eq!(sampler.is_open(e), sampler.is_open(e));
            prop_assert_eq!(sampler.is_open(e), frozen.is_open(e));
        }
    }

    #[test]
    fn all_backends_agree_on_every_family(p in 0.0f64..1.0, seed in any::<u64>()) {
        // Lazy hashing, the bitset over closed-form edge indices, and the
        // eagerly frozen set must report identical `is_open` verdicts for
        // every edge of every built-in family, at every seed.
        let sampler = PercolationConfig::new(p, seed).sampler();
        for graph in family_zoo() {
            let graph = graph.as_ref();
            let bitset = BitsetSample::from_states(graph, &sampler);
            let frozen = FrozenSample::from_sampler(graph, &sampler);
            let mut open = 0u64;
            for e in graph.edges() {
                let lazy = sampler.is_open(e);
                prop_assert!(
                    bitset.is_open(e) == lazy,
                    "bitset disagreement at {} on {}",
                    e,
                    graph.name()
                );
                prop_assert!(
                    frozen.is_open(e) == lazy,
                    "frozen disagreement at {} on {}",
                    e,
                    graph.name()
                );
                open += u64::from(lazy);
            }
            prop_assert_eq!(bitset.num_open(), open);
            prop_assert_eq!(frozen.num_open() as u64, open);
        }
    }

    #[test]
    fn bitset_census_matches_lazy_census(p in 0.1f64..0.9, seed in any::<u64>()) {
        // The dense consumers were rewired from the lazy sampler to the
        // bitset; the component structure must be unchanged.
        let cube = Hypercube::new(7);
        let sampler = PercolationConfig::new(p, seed).sampler();
        let bitset = BitsetSample::from_states(&cube, &sampler);
        let lazy = ComponentCensus::compute(&cube, &sampler);
        let dense = ComponentCensus::compute(&cube, &bitset);
        prop_assert_eq!(lazy.num_components(), dense.num_components());
        prop_assert_eq!(lazy.largest_component_size(), dense.largest_component_size());
        for v in cube.vertices() {
            prop_assert_eq!(lazy.component_of(v), dense.component_of(v));
        }
    }

    #[test]
    fn monotone_coupling_over_whole_graph(p1 in 0.0f64..1.0, p2 in 0.0f64..1.0, seed in any::<u64>()) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let cube = Hypercube::new(5);
        let s_lo = PercolationConfig::new(lo, seed).sampler();
        let s_hi = PercolationConfig::new(hi, seed).sampler();
        for e in cube.edges() {
            if s_lo.is_open(e) {
                prop_assert!(s_hi.is_open(e));
            }
        }
    }

    #[test]
    fn giant_fraction_monotone_under_coupling(seed in any::<u64>()) {
        let cube = Hypercube::new(7);
        let f_lo = ComponentCensus::compute(&cube, &PercolationConfig::new(0.2, seed).sampler())
            .giant_fraction();
        let f_hi = ComponentCensus::compute(&cube, &PercolationConfig::new(0.6, seed).sampler())
            .giant_fraction();
        prop_assert!(f_lo <= f_hi + 1e-12);
    }

    #[test]
    fn bfs_distances_are_consistent_with_components(p in 0.2f64..0.9, seed in any::<u64>()) {
        let mesh = Mesh::new(2, 6);
        let sampler = PercolationConfig::new(p, seed).sampler();
        let census = ComponentCensus::compute(&mesh, &sampler);
        let (u, v) = mesh.canonical_pair();
        let dist = percolation_distance(&mesh, &sampler, u, v);
        prop_assert_eq!(dist.is_some(), census.same_component(u, v));
        if let Some(d) = dist {
            // chemical distance dominates the graph metric
            prop_assert!(d >= mesh.distance(u, v).unwrap());
            // and any returned path realises it exactly
            let path = shortest_open_path(&mesh, &sampler, u, v).unwrap();
            let gp = PercolatedGraph::new(&mesh, &sampler);
            prop_assert!(gp.is_open_path(&path));
            prop_assert_eq!(path.len() as u64, d + 1);
        }
    }

    #[test]
    fn connected_agrees_with_the_bfs_tree_on_every_family(
        p in 0.0f64..1.0,
        seed in any::<u64>(),
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        // The early-exit conditioning BFS (dense visited bitset, mark tested
        // before the edge state) answers exactly what a full BFS tree says,
        // for the canonical pair and for an arbitrary one.
        let sampler = PercolationConfig::new(p, seed).sampler();
        for graph in family_zoo() {
            let graph = graph.as_ref();
            let n = graph.num_vertices();
            for (u, v) in [graph.canonical_pair(), (VertexId(a % n), VertexId(b % n))] {
                let tree = bfs(graph, &sampler, u, BfsOptions::default());
                prop_assert!(
                    connected(graph, &sampler, u, v) == tree.reached(v),
                    "connected({}, {}) disagrees with bfs on {}",
                    u,
                    v,
                    graph.name()
                );
            }
        }
    }

    #[test]
    fn bfs_ball_respects_max_depth(p in 0.3f64..1.0, seed in any::<u64>(), radius in 0u64..4) {
        let cube = Hypercube::new(6);
        let sampler = PercolationConfig::new(p, seed).sampler();
        let tree = bfs(&cube, &sampler, VertexId(0), BfsOptions { max_depth: Some(radius), target: None });
        for v in tree.reached_vertices() {
            prop_assert!(tree.distance_to(v).unwrap() <= radius);
        }
    }

    #[test]
    fn union_find_is_an_equivalence_relation(ops in proptest::collection::vec((0usize..20, 0usize..20), 0..40)) {
        let mut uf = UnionFind::new(20);
        for (a, b) in &ops {
            uf.union(*a, *b);
        }
        // reflexive and symmetric
        for i in 0..20 {
            prop_assert!(uf.connected(i, i));
        }
        for (a, b) in &ops {
            prop_assert!(uf.connected(*a, *b));
            prop_assert!(uf.connected(*b, *a));
        }
        // set sizes sum to the universe
        let mut total = 0;
        let mut seen_roots = std::collections::HashSet::new();
        for i in 0..20 {
            let r = uf.find(i);
            if seen_roots.insert(r) {
                total += uf.set_size(i);
            }
        }
        prop_assert_eq!(total, 20);
    }

    /// Each successful union merges exactly two sets into one; a failed
    /// union (already connected) changes nothing. So `num_sets` decreases
    /// by exactly 1 per `union` that returns `true` and is otherwise
    /// untouched — for *every* operation sequence, not just the hand-picked
    /// ones of the unit tests.
    #[test]
    fn union_find_set_count_tracks_successful_unions(
        ops in proptest::collection::vec((0usize..24, 0usize..24), 0..60),
    ) {
        let mut uf = UnionFind::new(24);
        for (a, b) in &ops {
            let before = uf.num_sets();
            let was_distinct = !uf.connected(*a, *b);
            let merged = uf.union(*a, *b);
            prop_assert_eq!(merged, was_distinct);
            let expected = if merged { before - 1 } else { before };
            prop_assert_eq!(uf.num_sets(), expected);
        }
        // The invariant composes: sets lost = successful unions.
        prop_assert!(uf.num_sets() >= 1 || uf.is_empty());
    }

    /// `find` is idempotent (a root's root is itself), stable across the
    /// path compression it triggers, and `connected` is transitive.
    #[test]
    fn union_find_find_is_idempotent_and_connected_transitive(
        ops in proptest::collection::vec((0usize..24, 0usize..24), 0..60),
        probes in proptest::collection::vec((0usize..24, 0usize..24, 0usize..24), 0..20),
    ) {
        let mut uf = UnionFind::new(24);
        for (a, b) in &ops {
            uf.union(*a, *b);
        }
        for i in 0..24 {
            let root = uf.find(i);
            // Idempotent after the path compression the first find performed.
            prop_assert_eq!(uf.find(root), root);
            prop_assert_eq!(uf.find(i), root);
            // The representative is connected to its member.
            prop_assert!(uf.connected(i, root));
        }
        for (a, b, c) in probes {
            if uf.connected(a, b) && uf.connected(b, c) {
                prop_assert!(uf.connected(a, c), "transitivity failed at ({a}, {b}, {c})");
            }
        }
    }

    /// The lock-free structure agrees with the sequential one on the final
    /// partition for every operation sequence (single-threaded here; the
    /// concurrent interleavings are covered by the unit test in
    /// `union_find.rs` and the zoo-wide census equivalence suite).
    #[test]
    fn atomic_union_find_partition_matches_sequential(
        ops in proptest::collection::vec((0usize..24, 0usize..24), 0..60),
    ) {
        use faultnet_percolation::union_find::AtomicUnionFind;
        let mut sequential = UnionFind::new(24);
        let atomic = AtomicUnionFind::new(24);
        for (a, b) in &ops {
            prop_assert_eq!(sequential.union(*a, *b), atomic.union(*a, *b));
        }
        for i in 0..24 {
            // The atomic root is the canonical minimum of its set.
            let root = atomic.find(i);
            prop_assert!(root <= i);
            prop_assert_eq!(atomic.find(root), root);
            for j in 0..24 {
                prop_assert_eq!(sequential.connected(i, j), atomic.same_set(i, j));
            }
        }
    }

    #[test]
    fn survival_probability_is_monotone(p1 in 0.0f64..1.0, p2 in 0.0f64..1.0) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(survival_probability(lo) <= survival_probability(hi) + 1e-12);
    }

    #[test]
    fn root_to_leaf_probability_decreases_with_depth(p in 0.0f64..1.0, d in 0u32..30) {
        prop_assert!(root_to_leaf_probability(p, d) + 1e-12 >= root_to_leaf_probability(p, d + 1));
    }

    #[test]
    fn frozen_sample_edits_round_trip(edges in proptest::collection::vec((0u64..30, 0u64..30), 0..40)) {
        let mut sample = FrozenSample::new();
        let mut reference = std::collections::HashSet::new();
        for (a, b) in edges {
            if a == b { continue; }
            let e = EdgeId::new(VertexId(a), VertexId(b));
            sample.open_edge(e);
            reference.insert(e);
        }
        prop_assert_eq!(sample.num_open(), reference.len());
        for e in &reference {
            prop_assert!(sample.is_open(*e));
        }
    }
}

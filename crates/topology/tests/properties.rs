//! Property-based tests for the topology crate.
//!
//! These check the structural laws that every family must satisfy (edge
//! symmetry, metric axioms, geodesic validity) on randomly drawn parameters
//! and vertex pairs.

use faultnet_topology::{
    binary_tree::BinaryTree,
    butterfly::Butterfly,
    check_topology_invariants,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn edge_id_round_trip(a in 0u64..1_000_000, b in 0u64..1_000_000) {
        prop_assume!(a != b);
        let e = EdgeId::new(VertexId(a), VertexId(b));
        let f = EdgeId::new(VertexId(b), VertexId(a));
        prop_assert_eq!(e, f);
        prop_assert_eq!(e.other(VertexId(a)), Some(VertexId(b)));
        prop_assert_eq!(e.other(VertexId(b)), Some(VertexId(a)));
        prop_assert!(e.lo().0 <= e.hi().0);
    }

    #[test]
    fn hypercube_metric_axioms(n in 2u32..10, seeds in proptest::collection::vec(any::<u64>(), 3)) {
        let cube = Hypercube::new(n);
        let size = cube.num_vertices();
        let v: Vec<VertexId> = seeds.iter().map(|s| VertexId(s % size)).collect();
        let d = |a, b| cube.distance(a, b).unwrap();
        // symmetry, identity, triangle inequality
        prop_assert_eq!(d(v[0], v[1]), d(v[1], v[0]));
        prop_assert_eq!(d(v[0], v[0]), 0);
        prop_assert!(d(v[0], v[2]) <= d(v[0], v[1]) + d(v[1], v[2]));
    }

    #[test]
    fn hypercube_geodesic_is_shortest_and_open(n in 2u32..10, a in any::<u64>(), b in any::<u64>()) {
        let cube = Hypercube::new(n);
        let size = cube.num_vertices();
        let u = VertexId(a % size);
        let v = VertexId(b % size);
        let path = cube.geodesic(u, v).unwrap();
        prop_assert_eq!(path.len() as u64, cube.distance(u, v).unwrap() + 1);
        prop_assert_eq!(path[0], u);
        prop_assert_eq!(*path.last().unwrap(), v);
        for w in path.windows(2) {
            prop_assert!(cube.has_edge(w[0], w[1]));
        }
    }

    #[test]
    fn mesh_metric_and_geodesic(d in 1u32..4, m in 2u64..8, a in any::<u64>(), b in any::<u64>()) {
        let mesh = Mesh::new(d, m);
        let size = mesh.num_vertices();
        let u = VertexId(a % size);
        let v = VertexId(b % size);
        prop_assert_eq!(mesh.distance(u, v), mesh.distance(v, u));
        let path = mesh.geodesic(u, v).unwrap();
        prop_assert_eq!(path.len() as u64, mesh.distance(u, v).unwrap() + 1);
        for w in path.windows(2) {
            prop_assert!(mesh.has_edge(w[0], w[1]));
        }
    }

    #[test]
    fn torus_distance_never_exceeds_mesh_distance(m in 3u64..8, a in any::<u64>(), b in any::<u64>()) {
        let mesh = Mesh::new(2, m);
        let torus = Torus::new(2, m);
        let size = mesh.num_vertices();
        let u = VertexId(a % size);
        let v = VertexId(b % size);
        prop_assert!(torus.distance(u, v).unwrap() <= mesh.distance(u, v).unwrap());
    }

    #[test]
    fn binary_tree_distance_matches_geodesic(depth in 1u32..8, a in any::<u64>(), b in any::<u64>()) {
        let tree = BinaryTree::new(depth);
        let size = tree.num_vertices();
        let u = VertexId(a % size);
        let v = VertexId(b % size);
        let path = tree.geodesic(u, v).unwrap();
        prop_assert_eq!(path.len() as u64, tree.distance(u, v).unwrap() + 1);
        for w in path.windows(2) {
            prop_assert!(tree.has_edge(w[0], w[1]));
        }
    }

    #[test]
    fn neighbor_symmetry_across_families(pick in 0usize..7, a in any::<u64>()) {
        let graph: Box<dyn Topology> = match pick {
            0 => Box::new(Hypercube::new(6)),
            1 => Box::new(Mesh::new(2, 6)),
            2 => Box::new(Torus::new(2, 5)),
            3 => Box::new(DoubleBinaryTree::new(4)),
            4 => Box::new(DeBruijn::new(6)),
            5 => Box::new(ShuffleExchange::new(6)),
            _ => Box::new(Butterfly::new(4)),
        };
        let v = VertexId(a % graph.num_vertices());
        for w in graph.neighbors(v) {
            prop_assert!(graph.neighbors(w).contains(&v));
            prop_assert!(graph.has_edge(v, w));
        }
    }

    #[test]
    fn complete_graph_every_pair_adjacent(n in 2u64..40, a in any::<u64>(), b in any::<u64>()) {
        let k = CompleteGraph::new(n);
        let u = VertexId(a % n);
        let v = VertexId(b % n);
        prop_assert_eq!(k.has_edge(u, v), u != v);
    }

    #[test]
    fn cycle_matching_partner_involution(half in 2u64..40, seed in any::<u64>()) {
        let g = CycleWithMatching::new(2 * half, MatchingKind::Random { seed });
        for v in g.vertices() {
            let w = g.partner(v);
            prop_assert_ne!(w, v);
            prop_assert_eq!(g.partner(w), v);
        }
    }

    #[test]
    fn double_tree_leaf_branches_reach_both_roots(depth in 1u32..8, leaf_seed in any::<u64>()) {
        let tt = DoubleBinaryTree::new(depth);
        let leaf = tt.leaf(leaf_seed % tt.num_leaves());
        let (x, y) = tt.roots();
        let b1 = tt.branch_to_root(leaf, faultnet_topology::double_tree::TreeSide::First);
        let b2 = tt.branch_to_root(leaf, faultnet_topology::double_tree::TreeSide::Second);
        prop_assert_eq!(*b1.last().unwrap(), x);
        prop_assert_eq!(*b2.last().unwrap(), y);
        prop_assert_eq!(b1.len(), depth as usize + 1);
        prop_assert_eq!(b2.len(), depth as usize + 1);
    }
}

#[test]
fn invariants_across_all_families() {
    check_topology_invariants(&Hypercube::new(5));
    check_topology_invariants(&Mesh::new(2, 6));
    check_topology_invariants(&Mesh::new(3, 4));
    check_topology_invariants(&Torus::new(2, 5));
    check_topology_invariants(&DoubleBinaryTree::new(4));
    check_topology_invariants(&BinaryTree::new(5));
    check_topology_invariants(&CompleteGraph::new(12));
    check_topology_invariants(&CycleWithMatching::new(20, MatchingKind::Antipodal));
    check_topology_invariants(&CycleWithMatching::new(
        20,
        MatchingKind::Random { seed: 1 },
    ));
    check_topology_invariants(&DeBruijn::new(6));
    check_topology_invariants(&ShuffleExchange::new(6));
    check_topology_invariants(&Butterfly::new(4));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The CSR layout on dirty edge lists: duplicates in both orientations,
    /// self-loops, isolated vertices (ids past every drawn endpoint) and
    /// one hub joined to a third of the graph.
    #[test]
    fn explicit_csr_indexes_edges_densely(
        n in 2u64..48,
        raw in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..96),
        hub in any::<u64>(),
        rotation in any::<u64>(),
    ) {
        let drawn = n - n / 4; // the top quarter of the ids stays isolated
        let hub = hub % drawn;
        let mut edges: Vec<(u64, u64)> =
            raw.iter().map(|&(a, b)| (a % drawn, b % drawn)).collect();
        edges.extend((0..drawn).step_by(3).map(|v| (hub, v)));
        edges.extend(raw.iter().take(8).map(|&(a, b)| (b % drawn, a % drawn)));
        let g = ExplicitGraph::from_edges(n, edges.iter().copied());
        let expected: std::collections::BTreeSet<(u64, u64)> = edges
            .iter()
            .filter(|(a, b)| a != b)
            .map(|&(a, b)| (a.min(b), a.max(b)))
            .collect();
        prop_assert_eq!(g.num_edges(), expected.len() as u64);
        prop_assert_eq!(g.edge_index_bound(), Some(g.num_edges()));

        // edge_index is a bijection from edges() onto 0..num_edges().
        let mut indices: Vec<u64> = g
            .edges()
            .into_iter()
            .map(|e| g.edge_index(e).expect("every edge indexes"))
            .collect();
        indices.sort_unstable();
        prop_assert_eq!(indices, (0..g.num_edges()).collect::<Vec<_>>());

        // Rows are strictly increasing (sorted, no duplicates).
        for v in g.vertices() {
            let row = g.neighbors(v);
            prop_assert!(row.windows(2).all(|w| w[0] < w[1]), "row {} unsorted", v);
        }

        // Exactly the expected pairs index; everything else is None.
        for a in 0..n {
            for b in a + 1..n + 2 {
                let index = g.edge_index(EdgeId::new(VertexId(a), VertexId(b)));
                prop_assert_eq!(index.is_some(), expected.contains(&(a, b)), "{{{}, {}}}", a, b);
            }
        }
        prop_assert_eq!(g.edge_index(EdgeId::new(VertexId(n), VertexId(n + 1))), None);

        // The graph does not depend on the input order or orientation.
        let shift = rotation as usize % edges.len().max(1);
        edges.rotate_left(shift);
        edges.reverse();
        let flipped = edges.iter().map(|&(a, b)| (b, a));
        prop_assert_eq!(&ExplicitGraph::from_edges(n, flipped), &g);
        check_topology_invariants(&g);
    }
}

//! The per-family edge-index conformance suite.
//!
//! Every built-in topology family must implement the closed-form
//! `edge_index` / `edge_index_bound` contract that `BitsetSample` relies on:
//! injectivity over all edges, bound validity, non-edge rejection, and
//! agreement with the `edges()` enumeration. One `#[test]` per family
//! instance is generated by `edge_index_conformance_suite!`; adding a family
//! to the zoo means adding a line here (and the suite fails loudly if the
//! family forgot its closed form).

use faultnet_topology::binary_tree::BinaryTree;
use faultnet_topology::butterfly::Butterfly;
use faultnet_topology::complete::CompleteGraph;
use faultnet_topology::cycle_matching::{CycleWithMatching, MatchingKind};
use faultnet_topology::de_bruijn::DeBruijn;
use faultnet_topology::double_tree::DoubleBinaryTree;
use faultnet_topology::edge_index_conformance_suite;
use faultnet_topology::explicit::ExplicitGraph;
use faultnet_topology::hypercube::Hypercube;
use faultnet_topology::mesh::Mesh;
use faultnet_topology::shuffle_exchange::ShuffleExchange;
use faultnet_topology::torus::Torus;

edge_index_conformance_suite! {
    hypercube_small => Hypercube::new(3);
    hypercube_medium => Hypercube::new(7);
    mesh_2d => Mesh::new(2, 7);
    mesh_3d => Mesh::new(3, 4);
    torus_2d => Torus::new(2, 6);
    torus_3d => Torus::new(3, 3);
    complete_small => CompleteGraph::new(4);
    complete_medium => CompleteGraph::new(25);
    de_bruijn_small => DeBruijn::new(3);
    de_bruijn_medium => DeBruijn::new(7);
    // 512 vertices: exercises the sampled (non-exhaustive) pair scan.
    de_bruijn_large => DeBruijn::new(9);
    shuffle_exchange_small => ShuffleExchange::new(3);
    shuffle_exchange_medium => ShuffleExchange::new(7);
    butterfly_small => Butterfly::new(1);
    butterfly_medium => Butterfly::new(4);
    binary_tree_single_vertex => BinaryTree::new(0);
    binary_tree_medium => BinaryTree::new(6);
    double_tree_smallest => DoubleBinaryTree::new(1);
    double_tree_medium => DoubleBinaryTree::new(5);
    cycle_matching_antipodal => CycleWithMatching::new(16, MatchingKind::Antipodal);
    cycle_matching_k4 => CycleWithMatching::new(4, MatchingKind::Antipodal);
    cycle_matching_random => CycleWithMatching::new(30, MatchingKind::Random { seed: 7 });
    explicit_triangle_with_pendant =>
        ExplicitGraph::from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]);
    explicit_from_mesh => ExplicitGraph::from_topology(&Mesh::new(2, 5));
    explicit_with_isolated_vertices => ExplicitGraph::from_edges(6, [(0, 3), (3, 5)]);
    // Loaded and generated substrates (the E13 families) obey the same
    // CSR edge_index contract as hand-built explicit graphs.
    loaded_karate_club => faultnet_topology::load::karate_club().graph;
    loaded_dirty_edge_list => faultnet_topology::load::parse_edge_list(
        "# dirt: duplicates, a reversed duplicate, and self-loops\n\
         0 1\n1 0\n1 2\n2 2\n2 3\n3 0\n2 3\n",
    )
    .unwrap()
    .graph;
    generated_barabasi_albert => faultnet_topology::load::barabasi_albert(96, 3, 11);
    generated_fat_tree => faultnet_topology::load::fat_tree(4);
    generated_random_regular => faultnet_topology::load::random_regular(60, 4, 5);
}

//! Property-based tests for the fault-model subsystem.
//!
//! The load-bearing guarantee: plugging the paper's Bernoulli-edge model
//! through the new `FaultModel` path changes **nothing** — for every family
//! in the zoo, the materialised bitset is bit-identical to the one the
//! pre-fault-model construction (`BitsetSample::from_config`) builds. The
//! remaining tests pin the determinism contract every model must obey.

use faultnet_faultmodel::{
    AdversarialBudget, BernoulliEdges, BernoulliNodes, CorrelatedRegions, FaultModel,
    FaultModelSpec, PairPlacement,
};
use faultnet_percolation::sample::{BitsetSample, EdgeStates};
use faultnet_percolation::PercolationConfig;
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
    Topology,
};
use proptest::prelude::*;

/// One small instance of every built-in family (mirrors the percolation
/// crate's zoo), so "all families" checks need no repeated constructor list.
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
    ]
}

/// Every named model with its default shape parameters.
fn all_models() -> Vec<Box<dyn FaultModel + Send + Sync>> {
    FaultModelSpec::ALL.iter().map(|s| s.build()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// No behavioural drift for the paper's model: `BernoulliEdges` through
    /// the `FaultModel` path materialises to the *bit-identical* bitset the
    /// existing `BitsetSample::from_config` construction produces, for every
    /// family in the zoo.
    #[test]
    fn bernoulli_edges_is_bit_identical_to_the_legacy_bitset_path(
        p in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let cfg = PercolationConfig::new(p, seed);
        let model = BernoulliEdges::new();
        for graph in family_zoo() {
            let graph = graph.as_ref();
            let legacy = BitsetSample::from_config(graph, &cfg);
            let instance = model.instance(graph, cfg, None);
            let through_model = BitsetSample::from_states(graph, &instance);
            prop_assert_eq!(
                legacy.words(),
                through_model.words(),
                "bitset words diverged on {}",
                graph.name()
            );
            prop_assert_eq!(legacy.num_open(), through_model.num_open());
        }
    }

    /// Determinism: every model, on every family, gives the same instance
    /// for the same `(config, pair)` — edge for edge.
    #[test]
    fn every_model_is_deterministic_on_every_family(
        p in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let cfg = PercolationConfig::new(p, seed);
        for graph in family_zoo() {
            let graph = graph.as_ref();
            let pair = graph.canonical_pair();
            for model in all_models() {
                let a = model.instance(graph, cfg, Some(pair));
                let b = model.instance(graph, cfg, Some(pair));
                for e in graph.edges() {
                    prop_assert_eq!(
                        a.is_open(e),
                        b.is_open(e),
                        "{} is nondeterministic on {} at {}",
                        model.name(),
                        graph.name(),
                        e
                    );
                }
            }
        }
    }

    /// Overlay soundness: no model ever *opens* an edge the background
    /// substrate closed — overlays only remove edges. (At p = 1 all
    /// substrates are fully open, so this degenerates; random p exercises
    /// it.)
    #[test]
    fn overlays_only_close_edges(p in 0.0f64..1.0, seed in any::<u64>()) {
        let cfg = PercolationConfig::new(p, seed);
        let sampler = cfg.sampler();
        let cube = Hypercube::new(6);
        let pair = cube.canonical_pair();
        // Background-substrate models: open ⊆ sampler-open.
        for model in [
            Box::new(CorrelatedRegions::default()) as Box<dyn FaultModel>,
            Box::new(AdversarialBudget::default()),
        ] {
            let instance = model.instance(&cube, cfg, Some(pair));
            for e in cube.edges() {
                if instance.is_open(e) {
                    prop_assert!(
                        sampler.is_open(e),
                        "{} opened closed edge {}",
                        model.name(),
                        e
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The placement-cache contract: for every model and family, an
    /// instance rebuilt from the hoisted [`PairPlacement`] is edge-for-edge
    /// the instance computed from scratch. This is what lets the harness
    /// compute the adversary's greedy placement once per measurement
    /// instead of once per trial without changing a single number.
    #[test]
    fn pair_placement_reproduces_the_fresh_instance(
        p in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let cfg = PercolationConfig::new(p, seed);
        for graph in family_zoo() {
            let graph = graph.as_ref();
            let pair = graph.canonical_pair();
            for model in all_models() {
                let placement = model.pair_placement(graph, pair);
                let cached = model.instance_from_placement(&placement, graph, cfg, pair);
                let fresh = model.instance(graph, cfg, Some(pair));
                for e in graph.edges() {
                    prop_assert_eq!(
                        cached.is_open(e),
                        fresh.is_open(e),
                        "{} cached placement diverged on {} at {}",
                        model.name(),
                        graph.name(),
                        e
                    );
                }
            }
        }
    }
}

/// The trait contract's pair default: `instance(.., None)` equals
/// `instance(.., Some(canonical_pair))` for every model and family. This
/// is what lets pair-free consumers (the giant/connectivity scans) hoist
/// placements with the canonical pair and still measure the `None`
/// configuration exactly.
#[test]
fn absent_pair_defaults_to_the_canonical_pair() {
    let cfg = PercolationConfig::new(0.55, 29);
    for graph in family_zoo() {
        let graph = graph.as_ref();
        let pair = graph.canonical_pair();
        for model in all_models() {
            let implicit = model.instance(graph, cfg, None);
            let explicit = model.instance(graph, cfg, Some(pair));
            for e in graph.edges() {
                assert_eq!(
                    implicit.is_open(e),
                    explicit.is_open(e),
                    "{} distinguishes None from the canonical pair on {} at {}",
                    model.name(),
                    graph.name(),
                    e
                );
            }
        }
    }
}

/// Only the adversary hoists work into its placement; the benign models
/// have nothing seed-independent to cache.
#[test]
fn only_the_adversary_has_a_nontrivial_placement() {
    let cube = Hypercube::new(5);
    let pair = cube.canonical_pair();
    for spec in FaultModelSpec::ALL {
        let model = spec.build();
        let placement = model.pair_placement(&cube, pair);
        match spec {
            FaultModelSpec::AdversarialBudget => {
                let PairPlacement::SeveredEdges(severed) = &placement else {
                    panic!("adversary must hoist its severed set");
                };
                assert_eq!(
                    severed,
                    &AdversarialBudget::default().severed_edges(&cube, pair)
                );
            }
            _ => assert_eq!(placement, PairPlacement::None, "{spec}"),
        }
    }
}

/// Every model materialises through `BitsetSample::from_states` onto one
/// bit per edge-index slot on every built-in family — the dense-analytics
/// path is model-agnostic.
#[test]
fn every_model_materialises_on_the_bitset_backend() {
    let cfg = PercolationConfig::new(0.6, 17);
    for graph in family_zoo() {
        let graph = graph.as_ref();
        let bound = graph.edge_index_bound().unwrap();
        for model in all_models() {
            let instance = model.instance(graph, cfg, Some(graph.canonical_pair()));
            let sample = BitsetSample::from_states(graph, &instance);
            assert_eq!(
                sample.words().len() as u64,
                bound.div_ceil(64),
                "{} on {}: one bit per edge-index slot",
                model.name(),
                graph.name()
            );
            // The materialised bitset agrees with the live instance.
            for e in graph.edges() {
                assert_eq!(sample.is_open(e), instance.is_open(e));
            }
        }
    }
}

/// At p = 1 with benign models there are no faults at all; at p = 0 nothing
/// survives. Sanity-pins the meaning of the `p` knob per model.
#[test]
fn survival_knob_extremes_behave_per_model() {
    let cube = Hypercube::new(5);
    let pair = cube.canonical_pair();
    let all = PercolationConfig::new(1.0, 3);
    let none = PercolationConfig::new(0.0, 3);
    for model in [
        Box::new(BernoulliEdges::new()) as Box<dyn FaultModel>,
        Box::new(BernoulliNodes::new()),
    ] {
        let healthy = model.instance(&cube, all, Some(pair));
        let dead = model.instance(&cube, none, Some(pair));
        for e in cube.edges() {
            assert!(healthy.is_open(e), "{}: {} closed at p=1", model.name(), e);
            assert!(!dead.is_open(e), "{}: {} open at p=0", model.name(), e);
        }
    }
    // The adversary at p = 1 closes exactly its severed set.
    let adversary = AdversarialBudget::new(2);
    let instance = adversary.instance(&cube, all, Some(pair));
    let severed = adversary.severed_edges(&cube, pair);
    let closed: Vec<_> = cube
        .edges()
        .into_iter()
        .filter(|e| !instance.is_open(*e))
        .collect();
    assert_eq!(closed.len(), severed.len());
    assert!(closed.iter().all(|e| severed.contains(e)));
}

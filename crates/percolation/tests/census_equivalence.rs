//! Zoo-wide equivalence suite for the component census.
//!
//! Two contracts are under test. First, [`ComponentCensus::compute_parallel`]
//! is **bit-identical** to the sequential [`ComponentCensus::compute`] — not
//! just in the giant size, but in *every* public accessor — for every
//! family in the topology zoo, every seed, and every thread count. Both
//! passes label a component by its smallest vertex id (the sequential pass
//! by an explicit relabeling fold, the parallel pass because its atomic
//! union-find links larger roots under smaller ones), so equality holds by
//! construction; this suite is what keeps that construction honest.
//!
//! Second, the census over a dense store — which reads each edge's bit at
//! the slot the edge walk yields — equals the census over the lazy
//! [`FaultInstance`] it was built from, which answers through the default
//! `is_open_at` (no slot), for every fault model.

use faultnet_faultmodel::{FaultInstance, FaultModelSpec};
use faultnet_percolation::{
    components::ComponentCensus,
    sample::{BitsetSample, FrozenSample},
    trial_batch::TrialBatch,
    PercolationConfig,
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
    Topology, VertexId,
};
use proptest::prelude::*;

/// One small instance of every built-in family (the same zoo as the other
/// property suites, with `Sync` added so instances can be shared with the
/// census workers).
fn family_zoo() -> Vec<Box<dyn Topology + Sync>> {
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

/// The thread counts the satellite contract names.
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Compares every public accessor of two censuses of the same instance.
fn assert_census_identical<T: Topology + ?Sized>(
    graph: &T,
    sequential: &ComponentCensus,
    parallel: &ComponentCensus,
    context: &str,
) {
    assert_eq!(
        sequential.num_vertices(),
        parallel.num_vertices(),
        "num_vertices diverged: {context}"
    );
    assert_eq!(
        sequential.num_components(),
        parallel.num_components(),
        "num_components diverged: {context}"
    );
    assert_eq!(
        sequential.largest_component_size(),
        parallel.largest_component_size(),
        "largest_component_size diverged: {context}"
    );
    // Exact f64 equality is intended: both fractions are computed from the
    // same two integers.
    assert_eq!(
        sequential.giant_fraction(),
        parallel.giant_fraction(),
        "giant_fraction diverged: {context}"
    );
    assert_eq!(
        sequential.sizes_descending(),
        parallel.sizes_descending(),
        "sizes_descending diverged: {context}"
    );
    assert_eq!(
        sequential.second_largest_component_size(),
        parallel.second_largest_component_size(),
        "second_largest_component_size diverged: {context}"
    );
    assert_eq!(
        sequential.giant_component_vertices(),
        parallel.giant_component_vertices(),
        "giant_component_vertices diverged: {context}"
    );
    let n = graph.num_vertices();
    for v in (0..n).map(VertexId) {
        assert_eq!(
            sequential.component_of(v),
            parallel.component_of(v),
            "component_of({v}) diverged: {context}"
        );
        assert_eq!(
            sequential.component_size(v),
            parallel.component_size(v),
            "component_size({v}) diverged: {context}"
        );
        assert_eq!(
            sequential.in_giant(v),
            parallel.in_giant(v),
            "in_giant({v}) diverged: {context}"
        );
    }
    // same_component over a deterministic pair sample (all-pairs would be
    // quadratic across the whole zoo × proptest cases).
    for a in (0..n).step_by(3).map(VertexId) {
        for b in [VertexId(0), VertexId(n / 2), VertexId(n - 1)] {
            assert_eq!(
                sequential.same_component(a, b),
                parallel.same_component(a, b),
                "same_component({a}, {b}) diverged: {context}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The headline property: across the zoo × seeds × threads 1/2/4/8,
    /// the parallel census equals the sequential census on all accessors —
    /// through the lazy sampler *and* through the materialised bitset (the
    /// two `EdgeStates` producers the dense paths actually use).
    #[test]
    fn compute_parallel_equals_compute_across_the_zoo(
        p in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let cfg = PercolationConfig::new(p, seed);
        for graph in family_zoo() {
            let graph = graph.as_ref();
            let sampler = cfg.sampler();
            let bitset = BitsetSample::from_states(graph, &sampler);
            let sequential = ComponentCensus::compute(graph, &bitset);
            for threads in THREAD_COUNTS {
                let over_bitset = ComponentCensus::compute_parallel(graph, &bitset, threads);
                assert_census_identical(
                    graph,
                    &sequential,
                    &over_bitset,
                    &format!("{} (bitset), p {p}, seed {seed}, threads {threads}", graph.name()),
                );
                let over_lazy = ComponentCensus::compute_parallel(graph, &sampler, threads);
                assert_census_identical(
                    graph,
                    &sequential,
                    &over_lazy,
                    &format!("{} (lazy), p {p}, seed {seed}, threads {threads}", graph.name()),
                );
            }
        }
    }
}

/// Lanes per batch in the slot-read suite: enough for a ragged word.
const LANES: u64 = 3;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Slot reads against the lazy path: across the zoo × every fault model
    /// (node faults and the adversary's cuts included), the census over a
    /// `BitsetSample` and over each `LaneView` of a `TrialBatch` equals the
    /// census over the lazy `FaultInstance`, accessor for accessor.
    #[test]
    fn slot_read_censuses_equal_the_lazy_census_across_the_zoo(
        p in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        for graph in family_zoo() {
            let graph = graph.as_ref();
            let pair = graph.canonical_pair();
            for spec in FaultModelSpec::ALL {
                let model = spec.build();
                let placement = model.pair_placement(graph, pair);
                let instances: Vec<FaultInstance> = (0..LANES)
                    .map(|l| {
                        let cfg = PercolationConfig::new(p, seed.wrapping_add(l));
                        model.instance_from_placement(&placement, graph, cfg, pair)
                    })
                    .collect();
                let batch = TrialBatch::from_lane_states(graph, &instances);
                for (lane, instance) in instances.iter().enumerate() {
                    let context = format!(
                        "{} ({}), p {p}, seed {seed}, lane {lane}",
                        graph.name(),
                        spec.cli_name()
                    );
                    let lazy = ComponentCensus::compute(graph, instance);
                    let bitset = BitsetSample::from_states(graph, instance);
                    assert_census_identical(
                        graph,
                        &lazy,
                        &ComponentCensus::compute(graph, &bitset),
                        &format!("{context} (bitset)"),
                    );
                    assert_census_identical(
                        graph,
                        &lazy,
                        &ComponentCensus::compute(graph, &batch.lane_view(lane)),
                        &format!("{context} (lane view)"),
                    );
                }
            }
        }
    }
}

/// The equivalence also holds on instances large enough that the parallel
/// workers genuinely interleave (the proptest zoo graphs are small enough
/// that a worker can finish before the next spawns).
#[test]
fn compute_parallel_equals_compute_on_a_large_hypercube() {
    let cube = Hypercube::new(12);
    for (p, seed) in [(0.08, 1u64), (0.5, 2), (0.95, 3)] {
        let cfg = PercolationConfig::new(p, seed);
        let bitset = BitsetSample::from_config(&cube, &cfg);
        let sequential = ComponentCensus::compute(&cube, &bitset);
        for threads in THREAD_COUNTS {
            let parallel = ComponentCensus::compute_parallel(&cube, &bitset, threads);
            assert_census_identical(
                &cube,
                &sequential,
                &parallel,
                &format!("H_12, p {p}, seed {seed}, threads {threads}"),
            );
        }
    }
}

/// Hand-crafted instances exercise the degenerate shapes: no open edges,
/// all open edges, and a single path component.
#[test]
fn compute_parallel_equals_compute_on_hand_built_instances() {
    let mesh = Mesh::new(1, 9);
    let empty = FrozenSample::new();
    let mut path = FrozenSample::new();
    for v in 0..4 {
        path.open_edge(faultnet_topology::EdgeId::new(VertexId(v), VertexId(v + 1)));
    }
    let full = PercolationConfig::new(1.0, 0).sampler();
    let full = FrozenSample::from_sampler(&mesh, &full);
    for (label, sample) in [("empty", &empty), ("path", &path), ("full", &full)] {
        let sequential = ComponentCensus::compute(&mesh, sample);
        for threads in THREAD_COUNTS {
            let parallel = ComponentCensus::compute_parallel(&mesh, sample, threads);
            assert_census_identical(
                &mesh,
                &sequential,
                &parallel,
                &format!("{label}, threads {threads}"),
            );
        }
    }
}

/// Requesting more workers than vertices must clamp, not crash or spin.
#[test]
fn thread_counts_beyond_the_vertex_count_are_clamped() {
    let tiny = Mesh::new(1, 3);
    let sampler = PercolationConfig::new(0.9, 7).sampler();
    let sequential = ComponentCensus::compute(&tiny, &sampler);
    let parallel = ComponentCensus::compute_parallel(&tiny, &sampler, 64);
    assert_census_identical(&tiny, &sequential, &parallel, "3-vertex path, threads 64");
}

//! Zoo-wide equivalence suite for the trial-batched (multispin) engine.
//!
//! The contract under test: a [`TrialBatch`] is a **pure relayout** of the
//! scalar trials it packs — lane `l` of a batch built from base seed `s`
//! holds bit-for-bit the [`BitsetSample`] of the scalar trial at seed
//! `s + l`, a census over a [`LaneView`] equals the census over that scalar
//! sample on *every* public accessor, the bit-parallel
//! [`TrialBatch::connected_lanes`] fixpoint decides per-lane connectivity
//! exactly as the scalar census does. The measurements built on top —
//! giant-fraction means and conditioned routing over the trial loop — pin
//! their own batched-vs-scalar equality next to their code.
//!
//! This is the mold of `census_equivalence.rs` one layer up: that suite
//! pins the parallel census to the sequential census; this one pins the
//! transposed substrate to the scalar substrate both suites walk.

use faultnet_percolation::{
    components::ComponentCensus,
    sample::{BitsetSample, EdgeStates, FrozenSample},
    trial_batch::{clamp_lanes, TrialBatch},
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

/// One small instance of every built-in family (the same zoo as
/// `census_equivalence.rs`).
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

/// The batch sizes the tentpole contract names: a single lane, both sides
/// of the word boundary, and a request past the 64-lane cap.
const BATCH_SIZES: [usize; 5] = [1, 63, 64, 65, 200];

/// Compares every public accessor of two censuses of the same instance.
fn assert_census_identical<T: Topology + ?Sized>(
    graph: &T,
    scalar: &ComponentCensus,
    batched: &ComponentCensus,
    context: &str,
) {
    assert_eq!(
        scalar.num_vertices(),
        batched.num_vertices(),
        "num_vertices diverged: {context}"
    );
    assert_eq!(
        scalar.num_components(),
        batched.num_components(),
        "num_components diverged: {context}"
    );
    assert_eq!(
        scalar.largest_component_size(),
        batched.largest_component_size(),
        "largest_component_size diverged: {context}"
    );
    assert_eq!(
        scalar.giant_fraction(),
        batched.giant_fraction(),
        "giant_fraction diverged: {context}"
    );
    assert_eq!(
        scalar.sizes_descending(),
        batched.sizes_descending(),
        "sizes_descending diverged: {context}"
    );
    assert_eq!(
        scalar.second_largest_component_size(),
        batched.second_largest_component_size(),
        "second_largest_component_size diverged: {context}"
    );
    assert_eq!(
        scalar.giant_component_vertices(),
        batched.giant_component_vertices(),
        "giant_component_vertices diverged: {context}"
    );
    for v in (0..graph.num_vertices()).map(VertexId) {
        assert_eq!(
            scalar.component_of(v),
            batched.component_of(v),
            "component_of({v}) diverged: {context}"
        );
    }
}

proptest! {
    // Each case walks the full zoo × batch sizes; keep the case count low so
    // `cargo test -q` stays within the 1-core box's budget. The exhaustive
    // sweep lives in `exhaustive_lane_by_lane_census_sweep` below (#[ignore],
    // run by the CI exhaustive job).
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The headline property, zoo-wide: every lane of a batch *is* its
    /// scalar trial. The packed words agree edge-for-edge with the scalar
    /// [`BitsetSample`] of seed `base + lane`, and the census through the
    /// [`faultnet_percolation::LaneView`] agrees with the census over that
    /// scalar sample on every accessor.
    #[test]
    fn every_lane_equals_its_scalar_trial_across_the_zoo(
        p in 0.0f64..1.0,
        base_seed in any::<u64>(),
    ) {
        for graph in family_zoo() {
            let graph = graph.as_ref();
            prop_assert!(
                TrialBatch::supported(graph),
                "{} lost its closed-form edge indices",
                graph.name()
            );
            for lanes in [1usize, 63, 64] {
                let cfg = PercolationConfig::new(p, base_seed);
                let batch = TrialBatch::from_config(graph, &cfg, lanes);
                for lane in 0..batch.lanes() {
                    let scalar_cfg =
                        cfg.with_seed(base_seed.wrapping_add(lane as u64));
                    let scalar = BitsetSample::from_config(graph, &scalar_cfg);
                    let view = batch.lane_view(lane);
                    for e in graph.edges() {
                        prop_assert_eq!(
                            scalar.is_open(e),
                            view.is_open(e),
                            "edge {} diverged: {}, lane {}/{}",
                            e, graph.name(), lane, lanes
                        );
                    }
                    let scalar_census = ComponentCensus::compute(graph, &scalar);
                    let lane_census = ComponentCensus::compute(graph, &view);
                    assert_census_identical(
                        graph,
                        &scalar_census,
                        &lane_census,
                        &format!("{}, lane {lane}/{lanes}, p {p}, seed {base_seed}", graph.name()),
                    );
                }
            }
        }
    }

    /// The bit-parallel connectivity fixpoint decides the Definition 2
    /// conditioning event for all lanes at once, and each of its bits must
    /// agree with what the scalar census says about that lane.
    #[test]
    fn connected_lanes_matches_the_scalar_census_across_the_zoo(
        p in 0.0f64..1.0,
        base_seed in any::<u64>(),
        lanes in 1usize..=64,
    ) {
        for graph in family_zoo() {
            let graph = graph.as_ref();
            let cfg = PercolationConfig::new(p, base_seed);
            let batch = TrialBatch::from_config(graph, &cfg, lanes);
            let (u, v) = graph.canonical_pair();
            let connected = batch.connected_lanes(u, v);
            prop_assert_eq!(
                connected & !batch.lane_mask(),
                0,
                "ragged-tail bits leaked: {}",
                graph.name()
            );
            for lane in 0..batch.lanes() {
                let census = ComponentCensus::compute(graph, &batch.lane_view(lane));
                prop_assert_eq!(
                    connected >> lane & 1 == 1,
                    census.same_component(u, v),
                    "lane {} of {} diverged from the census",
                    lane, graph.name()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Satellite 1 — the lane-salted seed streams never alias: the scalar
    /// samples at seeds `s` and `s + k` (k in 1..64) produce different
    /// [`BitsetSample::words`] on a graph with enough edges (80 on H_5;
    /// collision probability ≈ 2^-80 per pair at p = 1/2), so distinct
    /// lanes of one batch are genuinely independent trials, not copies.
    #[test]
    fn lane_salted_streams_never_alias(base_seed in any::<u64>()) {
        let cube = Hypercube::new(5);
        let words_at = |seed: u64| -> Vec<u64> {
            BitsetSample::from_config(&cube, &PercolationConfig::new(0.5, seed))
                .words()
                .to_vec()
        };
        let base = words_at(base_seed);
        for lane in 1u64..64 {
            prop_assert_ne!(
                &base,
                &words_at(base_seed.wrapping_add(lane)),
                "lane offset {} reproduced the base stream",
                lane
            );
        }
    }

    /// Satellite 1, transpose direction — the batch's words are exactly the
    /// transpose of the per-lane scalar words: bit `l` of
    /// `batch.words()[edge]` equals bit `edge` of lane `l`'s scalar bitset.
    /// The relayout moves bits, it never resamples them.
    #[test]
    fn batch_words_are_the_transpose_of_scalar_words(
        p in 0.0f64..1.0,
        base_seed in any::<u64>(),
        lanes in 1usize..=64,
    ) {
        let cube = Hypercube::new(5);
        let cfg = PercolationConfig::new(p, base_seed);
        let batch = TrialBatch::from_config(&cube, &cfg, lanes);
        for lane in 0..batch.lanes() {
            let scalar = BitsetSample::from_config(
                &cube,
                &cfg.with_seed(base_seed.wrapping_add(lane as u64)),
            );
            let bound = cube
                .edge_index_bound()
                .expect("hypercube has closed-form edge indices");
            for index in 0..bound as usize {
                let batch_bit = batch.words()[index] >> lane & 1;
                let scalar_bit = scalar.words()[index / 64] >> (index % 64) & 1;
                prop_assert_eq!(
                    batch_bit, scalar_bit,
                    "edge index {} lane {}", index, lane
                );
            }
        }
    }
}

/// Satellite 2 — the degenerate censuses, pinned as plain tests so they
/// run on every `cargo test` regardless of proptest's dice.
///
/// An all-lanes-closed batch censuses every lane to isolated singletons; a
/// batch with a single open lane keeps the other lanes untouched.
#[test]
fn degenerate_lane_censuses() {
    let mesh = Mesh::new(1, 9);
    let all_closed = FrozenSample::new();
    let closed_lanes: Vec<&FrozenSample> = vec![&all_closed; 5];
    let batch = TrialBatch::from_lane_states(&mesh, &closed_lanes);
    for lane in 0..5 {
        let census = ComponentCensus::compute(&mesh, &batch.lane_view(lane));
        assert_eq!(census.num_components() as u64, mesh.num_vertices());
        assert_eq!(census.largest_component_size(), 1);
    }

    let full_cfg = PercolationConfig::new(1.0, 0);
    let open = FrozenSample::from_sampler(&mesh, &full_cfg.sampler());
    let states: Vec<&FrozenSample> = vec![&all_closed, &open, &all_closed];
    let batch = TrialBatch::from_lane_states(&mesh, &states);
    let open_census = ComponentCensus::compute(&mesh, &batch.lane_view(1));
    assert_eq!(open_census.num_components(), 1);
    for lane in [0usize, 2] {
        let closed_census = ComponentCensus::compute(&mesh, &batch.lane_view(lane));
        assert_eq!(
            closed_census.num_components() as u64,
            mesh.num_vertices(),
            "open lane leaked into lane {lane}"
        );
    }
}

/// The exhaustive cross-product the proptest cap trims: all zoo families ×
/// all contract batch sizes × a seed grid, every lane censused against its
/// scalar trial. Minutes of work — `#[ignore]`d locally, run by the CI
/// exhaustive job (`cargo test -- --ignored`).
#[test]
#[ignore = "exhaustive cross-product; run via cargo test -- --ignored (CI exhaustive job)"]
fn exhaustive_lane_by_lane_census_sweep() {
    for graph in family_zoo() {
        let graph = graph.as_ref();
        for &(p, base_seed) in &[(0.1, 3u64), (0.5, 11), (0.9, 19)] {
            for batch_size in BATCH_SIZES {
                let cfg = PercolationConfig::new(p, base_seed);
                // `from_config` takes a lane count, not a requested width:
                // the trial loop clamps its width through `clamp_lanes`
                // before constructing, and so does this sweep.
                let batch = TrialBatch::from_config(graph, &cfg, clamp_lanes(batch_size));
                let (u, v) = graph.canonical_pair();
                let connected = batch.connected_lanes(u, v);
                for lane in 0..batch.lanes() {
                    let scalar = BitsetSample::from_config(
                        graph,
                        &cfg.with_seed(base_seed.wrapping_add(lane as u64)),
                    );
                    let scalar_census = ComponentCensus::compute(graph, &scalar);
                    let lane_census = ComponentCensus::compute(graph, &batch.lane_view(lane));
                    assert_census_identical(
                        graph,
                        &scalar_census,
                        &lane_census,
                        &format!(
                            "{}, p {p}, seed {base_seed}, batch {batch_size}, lane {lane}",
                            graph.name()
                        ),
                    );
                    assert_eq!(
                        connected >> lane & 1 == 1,
                        scalar_census.same_component(u, v),
                        "{}: connected_lanes bit {lane} diverged",
                        graph.name()
                    );
                }
            }
        }
    }
}

//! Differential suite for the one trial loop behind the complexity harness.
//!
//! The contract under test: for every [`TrialExec`],
//! [`ComplexityHarness::measure`] returns a
//! [`faultnet_routing::complexity::ComplexityStats`] **equal** (derived
//! `Eq` — every counter, every probe count, the router name) to the
//! sequential scalar oracle [`ComplexityHarness::measure_with_model`], for
//! every router × fault model × graph × thread count × forced batch size
//! combination. The trial loop runs routing scalar on its own; the forced
//! widths keep the lane path pinned as an oracle. Probe counts are folded in trial order on
//! every path, so even the probe-count *vector* must match element for
//! element — the strongest equality the type can express.

use faultnet_faultmodel::trials::TrialExec;
use faultnet_faultmodel::{FaultModel, FaultModelSpec};
use faultnet_percolation::PercolationConfig;
use faultnet_routing::bfs::FloodRouter;
use faultnet_routing::complexity::{ComplexityHarness, TrialRouter};
use faultnet_routing::hypercube::SegmentRouter;
use faultnet_routing::mesh::MeshLandmarkRouter;
use faultnet_topology::hypercube::Hypercube;
use faultnet_topology::load::karate_club;
use faultnet_topology::mesh::Mesh;
use faultnet_topology::torus::Torus;
use faultnet_topology::Topology;
use proptest::prelude::*;

/// The batch sizes the exhaustive grid walks: a single lane, both sides of
/// the word boundary, and a request past the 64-lane cap.
const BATCH_SIZES: [usize; 5] = [1, 63, 64, 65, 200];

/// Every combination of the wall-clock knobs the equivalence grid walks.
fn exec_grid(trial_batches: &[usize]) -> Vec<TrialExec> {
    let mut grid = Vec::new();
    for threads in [1, 2, 3] {
        for &trial_batch in trial_batches {
            grid.push(
                TrialExec::sequential()
                    .with_threads(threads)
                    .with_trial_batch(trial_batch),
            );
        }
    }
    grid
}

/// Asserts `measure` == the sequential oracle for `model` across `grid`.
fn assert_matches_oracle<T, M, R>(
    harness: &ComplexityHarness<T>,
    model: &M,
    router: &R,
    trials: u32,
    grid: &[TrialExec],
    context: &str,
) where
    T: Topology + Sync,
    M: FaultModel + Sync + ?Sized,
    R: TrialRouter<T>,
{
    let (u, v) = harness.graph().canonical_pair();
    let oracle = harness.measure_with_model(model, router, u, v, trials);
    assert_eq!(oracle.attempted_trials(), trials, "{context}");
    for &exec in grid {
        let measured = harness.measure(model, router, u, v, trials, exec);
        assert_eq!(oracle, measured, "{context}: {exec:?}");
    }
}

/// The tentpole grid: all four fault models on a hypercube, a mesh, a torus
/// and the loaded karate-club graph, across threads {1,2,3} × census
/// threads {1,2} × trial batch {0,1,5,64}, with a ragged last chunk (13
/// trials in chunks of 5) and zero trials.
#[test]
fn measure_equals_the_oracle_over_the_exec_grid() {
    let grid = exec_grid(&[0, 1, 5, 64]);
    let karate = karate_club().graph;
    for spec in FaultModelSpec::ALL {
        let model = spec.build();
        for trials in [13, 0] {
            let context = |graph: &str| format!("{spec} on {graph}, {trials} trials");
            let config = PercolationConfig::new(0.7, 29);
            assert_matches_oracle(
                &ComplexityHarness::new(Hypercube::new(6), config),
                &model,
                &FloodRouter::new(),
                trials,
                &grid,
                &context("H_6"),
            );
            assert_matches_oracle(
                &ComplexityHarness::new(Mesh::new(2, 6), config),
                &model,
                &FloodRouter::new(),
                trials,
                &grid,
                &context("6×6 mesh"),
            );
            assert_matches_oracle(
                &ComplexityHarness::new(Torus::new(2, 5), config),
                &model,
                &FloodRouter::new(),
                trials,
                &grid,
                &context("5×5 torus"),
            );
            assert_matches_oracle(
                &ComplexityHarness::new(karate.clone(), config),
                &model,
                &FloodRouter::new(),
                trials,
                &grid,
                &context("karate"),
            );
        }
    }
}

proptest! {
    // Every case runs a full exec grid; keep the case count low (the
    // exhaustive grid is the #[ignore] test below).
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Benign measurement: the complete flood router and the paper's
    /// Theorem 3 segment router on the hypercube, and the Theorem 4
    /// landmark router on the mesh, all land on identical stats through
    /// every store.
    #[test]
    fn batched_measure_equals_scalar_for_every_router(
        p in 0.3f64..0.9,
        seed in any::<u64>(),
    ) {
        let grid = exec_grid(&[0, 1, 64]);
        let model = FaultModelSpec::BernoulliEdges.build();
        let cube_harness =
            ComplexityHarness::new(Hypercube::new(6), PercolationConfig::new(p, seed));
        assert_matches_oracle(
            &cube_harness,
            &model,
            &FloodRouter::new(),
            13,
            &grid,
            &format!("flood on H_6, p {p}, seed {seed}"),
        );
        assert_matches_oracle(
            &cube_harness,
            &model,
            &SegmentRouter::default(),
            13,
            &grid,
            &format!("segment on H_6, p {p}, seed {seed}"),
        );
        let mesh_harness =
            ComplexityHarness::new(Mesh::new(2, 6), PercolationConfig::new(p, seed));
        assert_matches_oracle(
            &mesh_harness,
            &model,
            &MeshLandmarkRouter::new(),
            13,
            &grid,
            &format!("landmark on 6×6 mesh, p {p}, seed {seed}"),
        );
    }

    /// Fault-model measurement: every pluggable model (benign lanes and the
    /// adversary's scalar fallback alike) lands on identical stats.
    #[test]
    fn batched_measure_with_every_model_equals_scalar(
        p in 0.5f64..0.95,
        seed in any::<u64>(),
    ) {
        let harness = ComplexityHarness::new(Mesh::new(2, 5), PercolationConfig::new(p, seed));
        let grid = exec_grid(&[0, 1, 64]);
        for spec in FaultModelSpec::ALL {
            assert_matches_oracle(
                &harness,
                &spec.build(),
                &MeshLandmarkRouter::new(),
                9,
                &grid,
                &format!("{spec}, p {p}, seed {seed}"),
            );
        }
    }
}

/// A ragged trial count (65 = one full word + one lane) must not drop or
/// duplicate the tail trial on any configuration.
#[test]
fn ragged_tail_trials_are_neither_dropped_nor_duplicated() {
    let harness = ComplexityHarness::new(Hypercube::new(5), PercolationConfig::new(0.6, 23));
    let grid: Vec<TrialExec> = BATCH_SIZES
        .iter()
        .map(|&b| TrialExec::sequential().with_threads(2).with_trial_batch(b))
        .collect();
    assert_matches_oracle(
        &harness,
        &FaultModelSpec::BernoulliEdges.build(),
        &FloodRouter::new(),
        65,
        &grid,
        "flood on H_5, 65 trials",
    );
}

/// The exhaustive router × model × thread × batch grid the proptest caps
/// trim — `#[ignore]`d locally, run by the CI exhaustive job.
#[test]
#[ignore = "exhaustive cross-product; run via cargo test -- --ignored (CI exhaustive job)"]
fn exhaustive_router_model_thread_batch_grid() {
    let grid = exec_grid(&BATCH_SIZES);
    for &(p, seed) in &[(0.45, 3u64), (0.7, 11), (0.9, 19)] {
        let cube_harness =
            ComplexityHarness::new(Hypercube::new(6), PercolationConfig::new(p, seed));
        let mesh_harness = ComplexityHarness::new(Mesh::new(2, 8), PercolationConfig::new(p, seed));
        for spec in FaultModelSpec::ALL {
            let model = spec.build();
            let context = format!("{spec}: p {p}, seed {seed}");
            assert_matches_oracle(
                &cube_harness,
                &model,
                &FloodRouter::new(),
                40,
                &grid,
                &context,
            );
            assert_matches_oracle(
                &cube_harness,
                &model,
                &SegmentRouter::default(),
                40,
                &grid,
                &context,
            );
            assert_matches_oracle(
                &mesh_harness,
                &model,
                &MeshLandmarkRouter::new(),
                40,
                &grid,
                &context,
            );
        }
    }
}

//! Lane-composition suite: fault-model overlays on the batched substrate.
//!
//! Satellite of the trial-batched engine: the benign fault models
//! ([`BernoulliEdges`], [`BernoulliNodes`], [`CorrelatedRegions`]) declare
//! themselves lane-batchable, which promises that packing their per-trial
//! [`FaultInstance`]s into a [`TrialBatch`] and reading each trial back
//! through its [`faultnet_percolation::LaneView`] reproduces the instance's
//! edge states exactly — overlays (node masks, severed edges, correlated
//! regions) *compose* on the transposed substrate because they only ever
//! close edges per lane, never couple lanes. The adversary opts out
//! (`lane_batchable() == false`) and the trial loop runs it on the scalar
//! engine.

use faultnet_faultmodel::{
    AdversarialBudget, BernoulliEdges, BernoulliNodes, CorrelatedRegions, FaultInstance,
    FaultModel, FaultModelSpec,
};
use faultnet_percolation::sample::EdgeStates;
use faultnet_percolation::trial_batch::TrialBatch;
use faultnet_percolation::PercolationConfig;
use faultnet_topology::hypercube::Hypercube;
use faultnet_topology::mesh::Mesh;
use faultnet_topology::Topology;
use proptest::prelude::*;

/// Builds the per-lane instances a batched measurement would build (lane
/// `l` at seed `base + l`, from the hoisted pair placement) and asserts the
/// packed batch agrees with every instance on every edge of `graph`.
fn assert_lanes_compose<M: FaultModel + ?Sized, T: Topology + Sync>(
    model: &M,
    graph: &T,
    p: f64,
    base_seed: u64,
    lanes: usize,
    context: &str,
) {
    let pair = graph.canonical_pair();
    let placement = model.pair_placement(graph, pair);
    let instances: Vec<FaultInstance> = (0..lanes)
        .map(|l| {
            let cfg = PercolationConfig::new(p, base_seed.wrapping_add(l as u64));
            model.instance_from_placement(&placement, graph, cfg, pair)
        })
        .collect();
    let batch = TrialBatch::from_lane_states(graph, &instances);
    for (lane, instance) in instances.iter().enumerate() {
        let view = batch.lane_view(lane);
        for e in graph.edges() {
            assert_eq!(
                instance.is_open(e),
                view.is_open(e),
                "{context}: edge {e} diverged in lane {lane}/{lanes}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Node masks kill both endpoints' incident edges in exactly their own
    /// lane; correlated regions sever their balls in exactly their own
    /// lane; the Bernoulli background stays lane-salted underneath. The
    /// packed words must reproduce each instance bit for bit.
    #[test]
    fn benign_overlays_compose_identically_on_the_batched_substrate(
        p in 0.2f64..0.95,
        base_seed in any::<u64>(),
        lanes in 1usize..=64,
    ) {
        let cube = Hypercube::new(5);
        let mesh = Mesh::new(2, 5);
        assert_lanes_compose(
            &BernoulliEdges::new(), &cube, p, base_seed, lanes, "edges on H_5",
        );
        assert_lanes_compose(
            &BernoulliNodes::new(), &cube, p, base_seed, lanes, "nodes on H_5",
        );
        assert_lanes_compose(
            &BernoulliNodes::new(), &mesh, p, base_seed, lanes, "nodes on mesh",
        );
        assert_lanes_compose(
            &CorrelatedRegions::default(), &cube, p, base_seed, lanes, "regions on H_5",
        );
        assert_lanes_compose(
            &CorrelatedRegions::new(2, 2), &mesh, p, base_seed, lanes, "regions on mesh",
        );
    }
}

/// The lane-batchable contract: every benign model opts in, the adversary
/// opts out — and the flag survives the `&M`/`Box<M>` blanket forwards the
/// measurement loops rely on.
#[test]
fn exactly_the_benign_models_are_lane_batchable() {
    // Resolves through the `impl FaultModel for &M` blanket forward (the
    // shape the generic measurement loops see), not dyn dispatch.
    fn flag_via_blanket_forward<M: FaultModel>(model: M) -> bool {
        model.lane_batchable()
    }
    for spec in FaultModelSpec::ALL {
        let model = spec.build();
        let expected = spec != FaultModelSpec::AdversarialBudget;
        assert_eq!(
            model.lane_batchable(),
            expected,
            "{spec} changed its lane-batchable declaration"
        );
        assert_eq!(
            flag_via_blanket_forward(model.as_ref()),
            expected,
            "&M forward: {spec}"
        );
    }
    assert!(!AdversarialBudget::new(2).lane_batchable());
}

/// The adversary still *composes* correctly if packed (its severed set is
/// deterministic, so the relayout argument applies) — the scalar fallback
/// is a validation-reference choice, not a correctness necessity. Pin that
/// so a future opt-in only needs to flip the flag.
#[test]
fn adversarial_overlays_would_also_compose() {
    assert_lanes_compose(
        &AdversarialBudget::new(3),
        &Mesh::new(2, 6),
        0.8,
        41,
        17,
        "adversary on mesh",
    );
}

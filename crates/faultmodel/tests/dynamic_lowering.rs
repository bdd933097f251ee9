//! Integration suite for the dynamic lowerings: every named static fault
//! model, lowered through [`Churned`] and [`Resampled`], must produce
//! well-formed, deterministic schedules that the incremental census can
//! walk — across the whole model registry, not just Bernoulli edges.

use faultnet_faultmodel::dynamic::{Churned, DynamicFaultModel, Resampled};
use faultnet_faultmodel::{FaultModel, FaultModelSpec};
use faultnet_percolation::dynamic::{EventKind, IncrementalCensus};
use faultnet_percolation::sample::{EdgeStates, FrozenSample};
use faultnet_percolation::PercolationConfig;
use faultnet_topology::{hypercube::Hypercube, mesh::Mesh, Topology, VertexId};

const TIMESTEPS: usize = 6;

/// Runs `check` for every registered model under both lowerings.
fn for_every_lowering(check: impl Fn(&dyn DynamicFaultModel, &str)) {
    for spec in FaultModelSpec::ALL {
        let base = spec.build();
        let churned = Churned::new(&base, 0.08, 0.12).with_heterogeneity(0.4);
        check(&churned, &format!("{spec} churned"));
        let resampled = Resampled::new(&base);
        check(&resampled, &format!("{spec} resampled"));
    }
}

/// Both lowerings are pure functions of `(graph, config, pair)`: the
/// initial instance and the schedule regenerate identically, and a
/// different seed moves the event stream.
#[test]
fn every_lowering_is_deterministic_in_the_config() {
    let cube = Hypercube::new(5);
    let config = PercolationConfig::new(0.6, 41);
    let pair = Some(cube.canonical_pair());
    for_every_lowering(|dynamic, context| {
        let initial = dynamic.initial(&cube, config, pair);
        let schedule = dynamic.schedule(&cube, config, pair, &initial, TIMESTEPS);
        let replay = dynamic.schedule(&cube, config, pair, &initial, TIMESTEPS);
        assert_eq!(schedule, replay, "schedule is not replayable: {context}");
        for edge in cube.edges() {
            assert_eq!(
                initial.is_open(edge),
                dynamic.initial(&cube, config, pair).is_open(edge),
                "initial instance is not replayable: {context}"
            );
        }
        let other = dynamic.schedule(
            &cube,
            config.with_seed(42),
            pair,
            &dynamic.initial(&cube, config.with_seed(42), pair),
            TIMESTEPS,
        );
        assert_eq!(other.num_timesteps(), TIMESTEPS, "{context}");
        // Not a hard guarantee for degenerate models, but across the
        // registry at these rates a seed change must move *some* event
        // stream; assert it per-lowering to catch accidental seed drops.
        if schedule.total_events() > 0 || other.total_events() > 0 {
            assert_ne!(
                schedule, other,
                "changing the seed did not move the event stream: {context}"
            );
        }
    });
}

/// Schedule events only reference edges of the graph, fail events only hit
/// edges open at that moment, and repair events only hit closed ones — the
/// well-formedness contract the incremental census's net-effect batching
/// relies on.
#[test]
fn every_lowering_emits_well_formed_events() {
    let mesh = Mesh::new(2, 5);
    let config = PercolationConfig::new(0.55, 17);
    let graph_edges: std::collections::HashSet<_> = mesh.edges().into_iter().collect();
    for_every_lowering(|dynamic, context| {
        let initial = dynamic.initial(&mesh, config, None);
        let schedule = dynamic.schedule(&mesh, config, None, &initial, TIMESTEPS);
        let mut open =
            FrozenSample::from_open_edges(mesh.edges().into_iter().filter(|e| initial.is_open(*e)));
        for (t, events) in schedule.iter().enumerate() {
            for event in events {
                assert!(
                    graph_edges.contains(&event.edge),
                    "event on a non-edge {:?} at t {t}: {context}",
                    event.edge
                );
                match event.kind {
                    EventKind::Fail => assert!(
                        open.close_edge(event.edge),
                        "fail event on an already-closed edge {:?} at t {t}: {context}",
                        event.edge
                    ),
                    EventKind::Repair => assert!(
                        open.open_edge(event.edge),
                        "repair event on an already-open edge {:?} at t {t}: {context}",
                        event.edge
                    ),
                }
            }
        }
    });
}

/// Walks `dynamic`'s schedule on `graph` through the incremental census and
/// checks it against a from-scratch census after every step: the size
/// distribution, the giant fraction, and whether the canonical pair shares
/// a component (E12's "routable" column).
fn assert_walk_matches_rescans(
    graph: &dyn Topology,
    dynamic: &dyn DynamicFaultModel,
    config: PercolationConfig,
    pair: Option<(VertexId, VertexId)>,
    context: &str,
) {
    let (u, v) = graph.canonical_pair();
    let initial = dynamic.initial(graph, config, pair);
    let schedule = dynamic.schedule(graph, config, pair, &initial, TIMESTEPS);
    let mut census = IncrementalCensus::new(graph, &initial);
    for events in schedule.iter() {
        census.step(events);
        let scratch = census.rescan(graph);
        assert_eq!(
            census.sizes_descending(),
            scratch.sizes_descending(),
            "incremental census diverged from rescan: {context}"
        );
        assert_eq!(
            census.giant_fraction(),
            scratch.giant_fraction(),
            "giant fraction diverged from rescan: {context}"
        );
        assert_eq!(
            census.same_component(u, v),
            scratch.same_component(u, v),
            "canonical pair routability diverged from rescan: {context}"
        );
    }
}

/// The incremental census walks every lowering's schedule and stays in
/// agreement with a from-scratch census — the zoo-wide tentpole contract,
/// exercised here across the *model* registry rather than the topology zoo.
/// E12's exact lowering (stationary-matched churn from p = 0.6 on the 2-d
/// mesh, canonical pair pinned) is one more input.
#[test]
fn every_lowering_walks_through_the_incremental_census() {
    let cube = Hypercube::new(5);
    let config = PercolationConfig::new(0.6, 23);
    for_every_lowering(|dynamic, context| {
        assert_walk_matches_rescans(&cube, dynamic, config, None, context);
    });
    let mesh = Mesh::new(2, 12);
    let pair = Some(mesh.canonical_pair());
    for spec in FaultModelSpec::ALL {
        let base = spec.build();
        let e12 = Churned::new(&base, 0.04, 0.06).with_heterogeneity(0.5);
        let context = format!("{spec} churned as in E12");
        assert_walk_matches_rescans(&mesh, &e12, config, pair, &context);
    }
}

/// `Resampled` is the memoryless baseline: replaying its diff schedule
/// through the incremental census reproduces each timestep's directly
/// sampled instance edge for edge, for every registered model.
#[test]
fn resampled_diffs_reproduce_direct_instances_for_every_model() {
    let cube = Hypercube::new(5);
    let config = PercolationConfig::new(0.5, 31);
    for spec in FaultModelSpec::ALL {
        let base = spec.build();
        let resampled = Resampled::new(&base);
        let initial = resampled.initial(&cube, config, None);
        let schedule = resampled.schedule(&cube, config, None, &initial, TIMESTEPS);
        let mut census = IncrementalCensus::new(&cube, &initial);
        for (t, events) in schedule.iter().enumerate() {
            census.step(events);
            let step_seed =
                Resampled::<faultnet_faultmodel::BernoulliEdges>::step_seed(config, t + 1);
            let direct = base.instance(&cube, config.with_seed(step_seed), None);
            for edge in cube.edges() {
                assert_eq!(
                    census.is_open(edge),
                    direct.is_open(edge),
                    "{spec} diff replay diverged from the direct instance at t {}",
                    t + 1
                );
            }
        }
    }
}

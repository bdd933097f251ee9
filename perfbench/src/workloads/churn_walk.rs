//! `churn_walk`: `IncrementalCensus::step` over `ChurnProcess` schedules on
//! `H_14`, single-threaded — the census write path beside
//! `giant_census`'s rebuild path.
//!
//! `H_14` rather than `H_16`: a sparse step costs a few dozen hash-map and
//! union-find accesses, so its time is memory latency. On `H_16` the
//! census's edge-position map (about 10 MB) spills out of the 4 MB L2 cache
//! and the median step moved by 20–30% between runs with the load of other
//! tenants on the shared L3; on `H_14` (about 2 MB) it moved by under 5%.
//!
//! Each input set is one walk from the same starting census: a block of
//! sparse steady-state steps (a churn process over a small set of flaky
//! links, whose open edges sit at the top of the undo log, so a step
//! rewinds a few dozen unions) followed by a block of E12's uniform 4%
//! churn steps (failures spread over the whole log, so a step rebuilds).
//! Sparse steps are [`SPARSE_STEPS`] of the [`SPARSE_STEPS`] +
//! [`UNIFORM_STEPS`] steps, so the median falls deep inside the sparse mode,
//! and the uniform block holds far more than the ten steps beyond the tail
//! cut, so the tail falls deep inside the uniform mode. The unit of work is
//! a step; a pass's time is the sum of its step times, because the output
//! checks interleave with the steps.

use std::hint::black_box;
use std::time::Instant;

use faultnet_percolation::components::ComponentCensus;
use faultnet_percolation::dynamic::StepStats;
use faultnet_percolation::sample::FrozenSample;
use faultnet_percolation::{
    ChurnEvent, ChurnProcess, EdgeStates, EventKind, IncrementalCensus, PercolationConfig,
};
use faultnet_topology::explicit::ExplicitGraph;
use faultnet_topology::hypercube::Hypercube;
use faultnet_topology::{EdgeId, Topology, VertexId};

use crate::inputs::{Encoder, SeedRng};
use crate::trace::Tracer;
use crate::workloads::{finish_layers, topology_probes};
use crate::{ms_since, process_cpu_s, repeat_setup, run_passes, Outcome, Traced};

const CUBE_DIM: u32 = 14;
const INITIAL_P: f64 = 0.6;
const FLAKY_EDGES: usize = 64;
/// Sparse steady-state steps per walk.
pub const SPARSE_STEPS: usize = 1000;
/// Uniform-churn steps per walk.
pub const UNIFORM_STEPS: usize = 24;
/// E12's uniform churn: 4% of open edges fail per step, and the repair
/// rate keeps the stationary open fraction at [`INITIAL_P`].
const UNIFORM_FAIL: f64 = 0.04;
const UNIFORM_REPAIR: f64 = 0.06;
const FLAKY_FAIL: f64 = 0.1;
const FLAKY_REPAIR: f64 = 0.3;
/// Steps of a cold walk checked against a from-scratch rescan.
const CHECKPOINTS: [usize; 3] = [
    SPARSE_STEPS - 1,
    SPARSE_STEPS + UNIFORM_STEPS / 2,
    SPARSE_STEPS + UNIFORM_STEPS - 1,
];

/// Input sets a digest covers (see `route_probe::DIGEST_SETS`).
pub const DIGEST_SETS: usize = 2;

/// The starting instance shared by every walk of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Start {
    /// Seed of the Bernoulli instance at [`INITIAL_P`].
    pub seed: u64,
    /// The flaky links, failed and repaired once during set-up so that
    /// they start at the top of the undo log.
    pub flaky: Vec<EdgeId>,
}

/// A run's inputs: the start and the walks drawn so far.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// Starting instance.
    pub start: Start,
    /// One event list per step, per walk.
    pub walks: Vec<Vec<Vec<ChurnEvent>>>,
}

/// The seeded starting instance.
pub fn start(seed: u64) -> Start {
    let mut rng = SeedRng::new(seed, "churn_walk/start");
    let cube = Hypercube::new(CUBE_DIM);
    let mut flaky = Vec::new();
    while flaky.len() < FLAKY_EDGES {
        let v = rng.below(cube.num_vertices());
        let w = v ^ (1 << rng.below(u64::from(CUBE_DIM)));
        let edge = EdgeId::new(VertexId(v), VertexId(w));
        if !flaky.contains(&edge) {
            flaky.push(edge);
        }
    }
    Start {
        seed: rng.next_u64() >> 16,
        flaky,
    }
}

/// The open-edge set every walk starts from: the Bernoulli instance plus
/// every flaky link (set-up repairs them all).
fn start_state(cube: &Hypercube, start: &Start) -> FrozenSample {
    let sampler = PercolationConfig::new(INITIAL_P, start.seed).sampler();
    let open = cube.edges().into_iter().filter(|&e| sampler.is_open(e));
    FrozenSample::from_open_edges(open.chain(start.flaky.iter().copied()))
}

/// Walk `set` from the starting state: a churn process over the flaky
/// links, then a uniform churn process over the whole cube.
pub fn walk(cube: &Hypercube, start: &Start, set: usize) -> Vec<Vec<ChurnEvent>> {
    let mut rng = SeedRng::new(start.seed, &format!("churn_walk/{set}"));
    let mut state = start_state(cube, start);
    let flaky_graph = ExplicitGraph::from_edges(
        cube.num_vertices(),
        start.flaky.iter().map(|e| (e.lo().0, e.hi().0)),
    );
    let sparse = ChurnProcess::new(FLAKY_FAIL, FLAKY_REPAIR, rng.next_u64()).schedule(
        &flaky_graph,
        &state,
        SPARSE_STEPS,
    );
    let mut steps: Vec<Vec<ChurnEvent>> = sparse.iter().map(<[ChurnEvent]>::to_vec).collect();
    for event in steps.iter().flatten() {
        match event.kind {
            EventKind::Fail => state.close_edge(event.edge),
            EventKind::Repair => state.open_edge(event.edge),
        };
    }
    let uniform = ChurnProcess::new(UNIFORM_FAIL, UNIFORM_REPAIR, rng.next_u64()).schedule(
        cube,
        &state,
        UNIFORM_STEPS,
    );
    steps.extend(uniform.iter().map(<[ChurnEvent]>::to_vec));
    steps
}

/// The start and the first [`DIGEST_SETS`] walks.
pub fn inputs(seed: u64) -> Inputs {
    let cube = Hypercube::new(CUBE_DIM);
    let start = start(seed);
    let walks = (0..DIGEST_SETS)
        .map(|set| walk(&cube, &start, set))
        .collect();
    Inputs { start, walks }
}

/// Canonical encoding of [`Inputs`].
pub fn encode(inputs: &Inputs) -> Encoder {
    let mut enc = Encoder::default();
    enc.u64(inputs.start.seed);
    for e in &inputs.start.flaky {
        enc.u64(e.lo().0).u64(e.hi().0);
    }
    for walk in &inputs.walks {
        enc.u64(walk.len() as u64);
        for step in walk {
            enc.u64(step.len() as u64);
            for e in step {
                enc.u64(e.edge.lo().0)
                    .u64(e.edge.hi().0)
                    .u64(u64::from(e.kind == EventKind::Repair));
            }
        }
    }
    enc
}

/// Set-up: the cube, the starting census, and the discarded warm-up op —
/// failing and repairing every flaky link, which moves them to the top of
/// the undo log.
fn build(start: &Start) -> (Hypercube, IncrementalCensus) {
    let cube = Hypercube::new(CUBE_DIM);
    let sampler = PercolationConfig::new(INITIAL_P, start.seed).sampler();
    let mut census = IncrementalCensus::new(&cube, &sampler);
    let fail: Vec<ChurnEvent> = start.flaky.iter().map(|&e| ChurnEvent::fail(e)).collect();
    let repair: Vec<ChurnEvent> = start.flaky.iter().map(|&e| ChurnEvent::repair(e)).collect();
    black_box(census.step(&fail));
    black_box(census.step(&repair));
    (cube, census)
}

/// What a step leaves behind, compared between a walk and its replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StepResult {
    stats: StepStats,
    largest: u64,
    components: usize,
}

fn step_result(census: &IncrementalCensus, stats: StepStats) -> StepResult {
    StepResult {
        stats,
        largest: census.largest_component_size(),
        components: census.num_components(),
    }
}

/// Every public accessor of the incremental census against a rescan.
fn agrees(census: &IncrementalCensus, rescan: &ComponentCensus, probes: &[EdgeId]) -> bool {
    census.num_components() == rescan.num_components()
        && census.largest_component_size() == rescan.largest_component_size()
        && census.second_largest_component_size() == rescan.second_largest_component_size()
        && census.giant_fraction().to_bits() == rescan.giant_fraction().to_bits()
        && census.sizes_descending() == rescan.sizes_descending()
        && probes.iter().all(|e| {
            census.component_of(e.lo()) == rescan.component_of(e.lo())
                && census.same_component(e.lo(), e.hi()) == rescan.same_component(e.lo(), e.hi())
                && census.in_giant(e.hi()) == rescan.in_giant(e.hi())
        })
}

/// The untraced run.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let start = start(seed);
    let mut outcome = Outcome::default();
    let (cube, snapshot) = repeat_setup(&mut outcome, || build(&start));
    let mut steps: Vec<Vec<ChurnEvent>> = Vec::new();
    let mut cold: Vec<StepResult> = Vec::new();
    run_passes(
        &mut outcome,
        seconds,
        |_| true,
        |outcome, set, warm| {
            if !warm {
                steps = walk(&cube, &start, set);
                cold.clear();
            }
            let mut census = snapshot.clone();
            let mut busy_s = 0.0;
            for (t, events) in steps.iter().enumerate() {
                let started = Instant::now();
                let stats = census.step(events);
                let elapsed = started.elapsed().as_secs_f64();
                busy_s += elapsed;
                outcome.latency(warm, elapsed * 1e3);
                let result = step_result(&census, stats);
                if warm {
                    outcome.check(cold[t] == result, || {
                        format!(
                            "churn_walk walk {set} step {t}: replay differs from the first walk"
                        )
                    });
                } else {
                    cold.push(result);
                    if CHECKPOINTS.contains(&t) {
                        let rescan = census.rescan(&cube);
                        outcome.check(agrees(&census, &rescan, &start.flaky), || {
                            format!("churn_walk walk {set} step {t}: incremental census != rescan")
                        });
                    }
                }
            }
            (steps.len() as f64, busy_s)
        },
    );
    outcome
}

/// The traced run: walk 0 stepped untraced and traced side by side from the
/// same snapshot.
pub fn traced(seed: u64) -> Traced {
    let start = start(seed);
    let mut traced = Traced::default();
    let started = Instant::now();
    let cube = Hypercube::new(CUBE_DIM);
    traced.set("topology.build_ms", ms_since(started));
    let (_, snapshot) = build(&start);
    let steps = walk(&cube, &start, 0);

    // Each step runs untraced on one census and traced on a second census
    // in the same state, back to back, so both see the same cache and
    // clock state.
    let mut untraced = snapshot.clone();
    let mut census = snapshot;
    let mut tracer = Tracer::new();
    let mut untraced_ms = 0.0;
    let (mut replayed, mut rebuilt) = (0usize, 0usize);
    let mut rescan_ms = Vec::new();
    let cpu0 = process_cpu_s();
    let wall = Instant::now();
    for (t, events) in steps.iter().enumerate() {
        let started = Instant::now();
        let expected = untraced.step(events);
        untraced_ms += ms_since(started);
        let span = tracer.begin_op();
        let stats = tracer.time("percolation.dynamic.step", || census.step(events));
        tracer.exit(span);
        replayed += stats.replayed;
        rebuilt += usize::from(stats.rebuilt);
        traced.outcome.check(
            step_result(&census, stats) == step_result(&untraced, expected),
            || format!("churn_walk step {t}: traced step != untraced step"),
        );
        if CHECKPOINTS.contains(&t) {
            let started = Instant::now();
            let rescan = census.rescan(&cube);
            rescan_ms.push(ms_since(started));
            traced
                .outcome
                .check(agrees(&census, &rescan, &start.flaky), || {
                    format!("churn_walk step {t}: incremental census != rescan")
                });
        }
    }
    if let (Some(c0), Some(c1)) = (cpu0, process_cpu_s()) {
        traced.set("proc.cpu_s", c1 - c0);
        traced.set("proc.cpu_util", (c1 - c0) / wall.elapsed().as_secs_f64());
    }
    finish_layers(&mut traced, &tracer, untraced_ms);
    let n = steps.len() as f64;
    traced.set("percolation.dynamic.replayed", replayed as f64 / n);
    traced.set("percolation.dynamic.rebuild_frac", rebuilt as f64 / n);
    traced.set(
        "percolation.dynamic.rescan_ms",
        rescan_ms.iter().sum::<f64>() / rescan_ms.len() as f64,
    );
    topology_probes(&mut traced, &[&cube]);
    eprint!("{}", tracer.render_tree("churn_walk"));
    crate::workloads::write_trace("churn_walk", seed, &tracer);
    traced
}

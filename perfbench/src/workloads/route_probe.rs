//! `route_probe`: Definition-2 conditioned flood routing, the paper's
//! headline measurement.
//!
//! Each op is one `ComplexityHarness::measure_batched_with_model` call at
//! [`THREADS`] threads and 64 lanes on one grid point. The grid is `H_14`
//! at `p = n^{-α}` on both sides of `α = 1/2` with a probe budget, 2-D
//! mesh points above `p_c = 1/2`, one point for each non-Bernoulli fault
//! model (the adversary runs on the scalar fallback), and one Barabási–
//! Albert point. Trials per point are sized so every op costs roughly the
//! same, which keeps the median and the tail away from a boundary between
//! cheap and expensive points. The unit of work is an attempted trial.

use std::hint::black_box;
use std::time::Instant;

use faultnet_faultmodel::{FaultModel, FaultModelSpec};
use faultnet_percolation::bfs::connected;
use faultnet_percolation::{EdgeStates, PercolationConfig, TrialBatch};
use faultnet_routing::bfs::FloodRouter;
use faultnet_routing::complexity::TrialResult;
use faultnet_routing::router::RouteError;
use faultnet_routing::{ComplexityHarness, ComplexityStats, ProbeEngine, ProbeError, Router};
use faultnet_topology::explicit::ExplicitGraph;
use faultnet_topology::hypercube::Hypercube;
use faultnet_topology::load::SubstrateSpec;
use faultnet_topology::mesh::Mesh;
use faultnet_topology::{Topology, VertexId};

use crate::inputs::{Encoder, SeedRng};
use crate::trace::Tracer;
use crate::workloads::{finish_layers, topology_probes};
use crate::{ms_since, process_cpu_s, repeat_setup, run_passes, Outcome, Traced, THREADS};

const CUBE_DIM: u32 = 14;
const MESH_SIDE: u64 = 96;
const BA: &str = "ba-4096-3";
const LANES: usize = 64;
const BUDGET: u64 = 4096;
/// Grid points checked against the scalar engine in each run.
const ORACLE_POINTS: usize = 2;

/// The graph a point runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `H_14`.
    Cube,
    /// The 2-D mesh of side [`MESH_SIDE`].
    Mesh,
    /// The Barabási–Albert substrate [`BA`].
    Ba,
}

/// One grid point: an op's whole input.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// Graph.
    pub family: Family,
    /// Fault model.
    pub model: FaultModelSpec,
    /// Edge (or node) survival probability.
    pub p: f64,
    /// Attempted trials.
    pub trials: u32,
    /// Probe budget per trial.
    pub budget: u64,
    /// Base percolation seed.
    pub seed: u64,
}

/// Input sets a digest covers; a run draws as many sets as its time
/// allows, each a pure function of the seed and the set index.
pub const DIGEST_SETS: usize = 4;

/// The grid of input set `set`: fixed points, seeded percolation seeds.
pub fn input_set(seed: u64, set: usize) -> Vec<Point> {
    let mut rng = SeedRng::new(seed, &format!("route_probe/{set}"));
    let n = f64::from(CUBE_DIM);
    let mut point = |family, model, p: f64, trials| Point {
        family,
        model,
        p,
        trials,
        budget: BUDGET,
        seed: rng.next_u64() >> 16,
    };
    use FaultModelSpec::*;
    let mut points = Vec::new();
    for alpha in [0.3, 0.4, 0.45, 0.55, 0.6, 0.7] {
        points.push(point(Family::Cube, BernoulliEdges, n.powf(-alpha), 128));
    }
    for (p, trials) in [(0.6, 256), (0.75, 192)] {
        points.push(point(Family::Mesh, BernoulliEdges, p, trials));
    }
    let p = n.powf(-0.4);
    points.push(point(Family::Cube, BernoulliNodes, p, 192));
    points.push(point(Family::Cube, CorrelatedRegions, p, 128));
    points.push(point(Family::Cube, AdversarialBudget, p, 20));
    points.push(point(Family::Ba, BernoulliEdges, 0.5, 192));
    points
}

/// The first [`DIGEST_SETS`] input sets.
pub fn inputs(seed: u64) -> Vec<Point> {
    (0..DIGEST_SETS)
        .flat_map(|set| input_set(seed, set))
        .collect()
}

/// Canonical encoding of [`inputs`].
pub fn encode(points: &[Point]) -> Encoder {
    let mut enc = Encoder::default();
    for p in points {
        enc.str(&format!("{:?}", p.family))
            .str(p.model.cli_name())
            .f64(p.p)
            .u64(u64::from(p.trials))
            .u64(p.budget)
            .u64(p.seed);
    }
    enc
}

struct Graphs {
    cube: Hypercube,
    mesh: Mesh,
    ba: ExplicitGraph,
}

fn build_graphs() -> Graphs {
    Graphs {
        cube: Hypercube::new(CUBE_DIM),
        mesh: Mesh::new(2, MESH_SIDE),
        ba: SubstrateSpec::parse(BA).expect("valid substrate").build(),
    }
}

enum Harness {
    Cube(ComplexityHarness<Hypercube>),
    Mesh(ComplexityHarness<Mesh>),
    Ba(ComplexityHarness<ExplicitGraph>),
}

/// Dispatches `$body` over the harness's concrete graph type.
macro_rules! with_harness {
    ($harness:expr, $h:ident => $body:expr) => {
        match $harness {
            Harness::Cube($h) => $body,
            Harness::Mesh($h) => $body,
            Harness::Ba($h) => $body,
        }
    };
}

struct Prepared {
    point: Point,
    harness: Harness,
    model: Box<dyn FaultModel + Send + Sync>,
    pair: (VertexId, VertexId),
}

impl Prepared {
    fn new(point: &Point, graphs: &Graphs) -> Self {
        fn make<T: Topology>(g: T, point: &Point) -> (ComplexityHarness<T>, (VertexId, VertexId)) {
            let pair = g.canonical_pair();
            let h = ComplexityHarness::new(g, PercolationConfig::new(point.p, point.seed))
                .with_probe_budget(point.budget);
            (h, pair)
        }
        let (harness, pair) = match point.family {
            Family::Cube => {
                let (h, pair) = make(graphs.cube, point);
                (Harness::Cube(h), pair)
            }
            Family::Mesh => {
                let (h, pair) = make(graphs.mesh, point);
                (Harness::Mesh(h), pair)
            }
            Family::Ba => {
                let (h, pair) = make(graphs.ba.clone(), point);
                (Harness::Ba(h), pair)
            }
        };
        Prepared {
            point: point.clone(),
            harness,
            model: point.model.build(),
            pair,
        }
    }

    /// The op: the public batched entry point.
    fn measure(&self, threads: usize) -> ComplexityStats {
        let (u, v) = self.pair;
        let trials = self.point.trials;
        let model = &*self.model;
        with_harness!(&self.harness, h => h.measure_batched_with_model(
            model, &FloodRouter::new(), u, v, trials, LANES, threads))
    }

    /// The output check: the scalar engine on the same point.
    fn scalar(&self) -> ComplexityStats {
        let (u, v) = self.pair;
        let trials = self.point.trials;
        let model = &*self.model;
        with_harness!(&self.harness, h => h.measure_with_model(
            model, &FloodRouter::new(), u, v, trials))
    }
}

/// The untraced run.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut outcome = Outcome::default();
    let warm_up = input_set(seed, usize::MAX)[0].clone();
    let graphs = repeat_setup(&mut outcome, || {
        let graphs = build_graphs();
        black_box(Prepared::new(&warm_up, &graphs).measure(THREADS));
        graphs
    });
    let mut ops: Vec<Prepared> = Vec::new();
    let mut cold: Vec<ComplexityStats> = Vec::new();
    let mut set0: Vec<(Prepared, ComplexityStats)> = Vec::new();
    run_passes(
        &mut outcome,
        seconds,
        |_| true,
        |outcome, set, warm| {
            if !warm {
                ops = input_set(seed, set)
                    .iter()
                    .map(|p| Prepared::new(p, &graphs))
                    .collect();
                cold.clear();
            }
            let mut trials = 0.0;
            let pass_started = Instant::now();
            for (i, op) in ops.iter().enumerate() {
                let started = Instant::now();
                let stats = op.measure(THREADS);
                outcome.latency(warm, ms_since(started));
                trials += f64::from(stats.attempted_trials());
                if warm {
                    outcome.check(cold[i] == stats, || {
                        format!(
                            "route_probe set {set} point {i}: replay differs from the first run"
                        )
                    });
                } else {
                    cold.push(stats);
                }
            }
            let timed_s = pass_started.elapsed().as_secs_f64();
            if set == 0 && warm {
                set0 = ops.drain(..).zip(cold.iter().cloned()).collect();
            }
            (trials, timed_s)
        },
    );
    // Outside the timed phase: a seeded sample of set 0's points against
    // the scalar engine.
    let mut rng = SeedRng::new(seed, "route_probe/oracle");
    let mut picked: Vec<usize> = Vec::new();
    while picked.len() < ORACLE_POINTS {
        let i = rng.below(set0.len() as u64) as usize;
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    for i in picked {
        let (op, batched) = &set0[i];
        outcome.check(*batched == op.scalar(), || {
            format!("route_probe point {i}: batched engine != scalar engine")
        });
    }
    outcome
}

/// The decomposed statistics, comparable field by field with
/// [`ComplexityStats`].
#[derive(Default)]
struct Fold {
    conditioned: u32,
    probe_counts: Vec<u64>,
    gave_up: u32,
    budget: u32,
    invalid: u32,
    lanes: u64,
    probes: u64,
    sample_bytes: usize,
}

impl Fold {
    fn record(&mut self, trial: TrialResult) {
        self.conditioned += 1;
        match trial {
            TrialResult::Routed { probes } => self.probe_counts.push(probes),
            TrialResult::GaveUp { .. } => self.gave_up += 1,
            TrialResult::BudgetExhausted { .. } => self.budget += 1,
            TrialResult::InvalidPath => self.invalid += 1,
        }
    }

    fn matches(&self, stats: &ComplexityStats) -> bool {
        self.conditioned == stats.conditioned_trials()
            && self.probe_counts == stats.probe_counts()
            && self.gave_up == stats.give_ups()
            && self.budget == stats.budget_exhaustions()
            && self.invalid == stats.invalid_paths()
    }
}

fn route_one<T, S>(
    graph: &T,
    states: &S,
    pair: (VertexId, VertexId),
    budget: u64,
    fold: &mut Fold,
) -> TrialResult
where
    T: Topology,
    S: EdgeStates,
    FloodRouter: Router<T, S>,
{
    let router = FloodRouter::new();
    let (u, v) = pair;
    let mut engine =
        ProbeEngine::with_locality(graph, states, router.locality(), u).with_budget(budget);
    let result = router.route(&mut engine, u, v);
    fold.probes += engine.probes_used();
    match result {
        Ok(outcome) => match outcome.path {
            Some(path) if path.connects(u, v) && path.is_valid_open_path(graph, states) => {
                TrialResult::Routed {
                    probes: outcome.probes,
                }
            }
            Some(_) => TrialResult::InvalidPath,
            None => TrialResult::GaveUp {
                probes: outcome.probes,
            },
        },
        Err(RouteError::Probe(ProbeError::BudgetExhausted { budget })) => {
            TrialResult::BudgetExhausted { budget }
        }
        Err(other) => panic!("flood router failed: {other}"),
    }
}

/// One op decomposed into its layer calls, mirroring the harness's batched
/// path (or its scalar fallback for models that are not lane-batchable).
fn decomposed<T: Topology + Sync>(
    tracer: &mut Tracer,
    h: &ComplexityHarness<T>,
    model: &(dyn FaultModel + Send + Sync),
    point: &Point,
    pair: (VertexId, VertexId),
) -> Fold {
    let graph = h.graph();
    let (u, v) = pair;
    let mut fold = Fold::default();
    let config = |t: u64| PercolationConfig::new(point.p, point.seed.wrapping_add(t));
    let placement = tracer.time("faultmodel.instance", || model.pair_placement(graph, pair));
    if !model.lane_batchable() {
        for t in 0..u64::from(point.trials) {
            let instance = tracer.time("faultmodel.instance", || {
                model.instance_from_placement(&placement, graph, config(t), pair)
            });
            fold.lanes += 1;
            if tracer.time("percolation.condition", || {
                connected(graph, &instance, u, v)
            }) {
                let trial = tracer.time("routing.route", || {
                    route_one(graph, &instance, pair, point.budget, &mut fold)
                });
                fold.record(trial);
            }
        }
        return fold;
    }
    for t0 in (0..u64::from(point.trials)).step_by(LANES) {
        let lanes = (u64::from(point.trials) - t0).min(LANES as u64);
        let instances: Vec<_> = tracer.time("faultmodel.instance", || {
            (0..lanes)
                .map(|l| model.instance_from_placement(&placement, graph, config(t0 + l), pair))
                .collect()
        });
        let batch = tracer.time("percolation.sample", || {
            TrialBatch::from_lane_states(graph, &instances)
        });
        fold.sample_bytes = fold.sample_bytes.max(batch.words().len() * 8);
        let conditioned = tracer.time("percolation.condition", || batch.connected_lanes(u, v));
        fold.lanes += lanes;
        for l in 0..lanes as usize {
            if conditioned >> l & 1 == 1 {
                let view = batch.lane_view(l);
                let trial = tracer.time("routing.route", || {
                    route_one(graph, &view, pair, point.budget, &mut fold)
                });
                fold.record(trial);
            }
        }
    }
    fold
}

/// The traced run.
pub fn traced(seed: u64) -> Traced {
    let points = input_set(seed, 0);
    let mut traced = Traced::default();
    let started = Instant::now();
    let graphs = build_graphs();
    traced.set("topology.build_ms", ms_since(started));
    let prepared: Vec<Prepared> = points.iter().map(|p| Prepared::new(p, &graphs)).collect();

    let cpu0 = process_cpu_s();
    let started = Instant::now();
    let results: Vec<ComplexityStats> = prepared.iter().map(|op| op.measure(THREADS)).collect();
    let wall = started.elapsed().as_secs_f64();
    if let (Some(c0), Some(c1)) = (cpu0, process_cpu_s()) {
        traced.set("proc.cpu_s", c1 - c0);
        traced.set("proc.cpu_util", (c1 - c0) / (wall * THREADS as f64));
    }

    // Each op runs untraced on one thread and then decomposed under the
    // tracer, back to back, so both see the same cache and clock state.
    let mut tracer = Tracer::new();
    let mut total = Fold::default();
    let mut untraced_ms = 0.0;
    for (i, op) in prepared.iter().enumerate() {
        let started = Instant::now();
        black_box(op.measure(1));
        untraced_ms += ms_since(started);
        let span = tracer.begin_op();
        let fold = with_harness!(&op.harness, h => decomposed(&mut tracer, h, &*op.model, &op.point, op.pair));
        tracer.exit(span);
        traced.outcome.check(fold.matches(&results[i]), || {
            format!("route_probe point {i}: decomposed layers != untraced op")
        });
        total.lanes += fold.lanes;
        total.conditioned += fold.conditioned;
        total.budget += fold.budget;
        total.probes += fold.probes;
        total.sample_bytes = total.sample_bytes.max(fold.sample_bytes);
    }
    finish_layers(&mut traced, &tracer, untraced_ms);
    let route_ns = tracer
        .layer_times()
        .get("routing.route")
        .map_or(0, |t| t.total_ns);
    traced.set("percolation.sample_mb", total.sample_bytes as f64 / 1e6);
    traced.set(
        "percolation.conditioned_frac",
        f64::from(total.conditioned) / total.lanes.max(1) as f64,
    );
    traced.set(
        "routing.ns_per_probe",
        route_ns as f64 / total.probes.max(1) as f64,
    );
    traced.set(
        "routing.probes_per_trial",
        total.probes as f64 / f64::from(total.conditioned.max(1)),
    );
    traced.set(
        "routing.budget_hit_frac",
        f64::from(total.budget) / f64::from(total.conditioned.max(1)),
    );

    topology_probes(&mut traced, &[&graphs.cube, &graphs.mesh, &graphs.ba]);
    eprint!("{}", tracer.render_tree("route_probe"));
    crate::workloads::write_trace("route_probe", seed, &tracer);
    traced
}

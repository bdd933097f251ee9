//! `giant_census`: giant-fraction and connectivity points (E8a, E11 and
//! E13 style) through `measure_giant_point_with_model`.
//!
//! The grid covers `H_16` around the giant's emergence at `p = c/n` and
//! around the connectivity threshold `p ≈ 1/2`, one node-fault and one
//! correlated-fault point, and the hub-heavy `ba-65536-8` substrate. Hypercube
//! points run on the trial-batched store, the Barabási–Albert points on the
//! scalar bitset path (their edge-slot space, `n × max degree`, would make
//! a 64-lane word store hundreds of MB). Nothing is routed: instance
//! materialisation and census dominate. The unit of work is an instance.

use std::hint::black_box;
use std::time::Instant;

use faultnet_experiments::hypercube_giant::{measure_giant_point_with_model, HypercubePoint};
use faultnet_experiments::TrialExec;
use faultnet_faultmodel::{FaultModel, FaultModelSpec};
use faultnet_percolation::components::ComponentCensus;
use faultnet_percolation::trial_batch::clamp_lanes;
use faultnet_percolation::{BitsetSample, PercolationConfig, TrialBatch};
use faultnet_topology::explicit::ExplicitGraph;
use faultnet_topology::hypercube::Hypercube;
use faultnet_topology::load::SubstrateSpec;
use faultnet_topology::Topology;

use crate::inputs::{Encoder, SeedRng};
use crate::trace::Tracer;
use crate::workloads::{finish_layers, topology_probes};
use crate::{ms_since, process_cpu_s, repeat_setup, run_passes, Outcome, Traced, THREADS};

const CUBE_DIM: u32 = 16;
const BA: &str = "ba-65536-8";
/// Points per run checked against a plain sequential census.
const ORACLE_POINTS: usize = 2;

/// Input sets a digest covers (see `route_probe::DIGEST_SETS`).
pub const DIGEST_SETS: usize = 4;

/// One grid point: an op's whole input.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// `true` for `ba-65536-8`, `false` for `H_16`.
    pub ba: bool,
    /// Fault model.
    pub model: FaultModelSpec,
    /// Survival probability.
    pub p: f64,
    /// Instances.
    pub trials: u32,
    /// Base seed; instance `t` uses `seed + t`.
    pub seed: u64,
}

/// The grid of input set `set`.
pub fn input_set(seed: u64, set: usize) -> Vec<Point> {
    let mut rng = SeedRng::new(seed, &format!("giant_census/{set}"));
    let mut point = |ba, model, p, trials| Point {
        ba,
        model,
        p,
        trials,
        seed: rng.next_u64() >> 16,
    };
    use FaultModelSpec::*;
    let n = f64::from(CUBE_DIM);
    let mut points = Vec::new();
    // Instances per point are sized so every op costs about the same: a
    // `ba-65536-8` instance costs about three `H_16` instances.
    for p in [0.8 / n, 1.2 / n, 2.0 / n, 0.45, 0.5, 0.55] {
        points.push(point(false, BernoulliEdges, p, 6));
    }
    points.push(point(false, BernoulliNodes, 0.5, 6));
    points.push(point(false, CorrelatedRegions, 0.5, 6));
    for p in [0.2, 0.5] {
        points.push(point(true, BernoulliEdges, p, 2));
    }
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
        enc.u64(u64::from(p.ba))
            .str(p.model.cli_name())
            .f64(p.p)
            .u64(u64::from(p.trials))
            .u64(p.seed);
    }
    enc
}

struct Graphs {
    cube: Hypercube,
    ba: ExplicitGraph,
}

fn build_graphs() -> Graphs {
    Graphs {
        cube: Hypercube::new(CUBE_DIM),
        ba: SubstrateSpec::parse(BA).expect("valid substrate").build(),
    }
}

/// Execution knobs of an op: both threads on trial fan-out; hypercube
/// points split their trials into two lane chunks, one per thread.
fn exec(point: &Point, threads: usize) -> TrialExec {
    let batch = if point.ba {
        0
    } else {
        (point.trials as usize).div_ceil(threads)
    };
    TrialExec::sequential()
        .with_threads(threads)
        .with_trial_batch(batch)
}

fn measure(graphs: &Graphs, point: &Point, threads: usize) -> HypercubePoint {
    let model = point.model.build();
    let exec = exec(point, threads);
    if point.ba {
        measure_giant_point_with_model(&*model, &graphs.ba, point.p, point.trials, point.seed, exec)
    } else {
        measure_giant_point_with_model(
            &*model,
            &graphs.cube,
            point.p,
            point.trials,
            point.seed,
            exec,
        )
    }
}

/// The output check: a plain sequential census of every instance.
fn plain<T: Topology>(graph: &T, point: &Point) -> HypercubePoint {
    let model = point.model.build();
    let mut giant = 0.0;
    let mut connected = 0u32;
    for t in 0..u64::from(point.trials) {
        let config = PercolationConfig::new(point.p, point.seed.wrapping_add(t));
        let census = ComponentCensus::compute(graph, &model.instance(graph, config, None));
        giant += census.giant_fraction();
        connected += u32::from(census.num_components() == 1);
    }
    HypercubePoint {
        p: point.p,
        giant_fraction: giant / f64::from(point.trials),
        connectivity: f64::from(connected) / f64::from(point.trials),
    }
}

fn same(a: &HypercubePoint, b: &HypercubePoint) -> bool {
    a.p.to_bits() == b.p.to_bits()
        && a.giant_fraction.to_bits() == b.giant_fraction.to_bits()
        && a.connectivity.to_bits() == b.connectivity.to_bits()
}

/// The untraced run.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut outcome = Outcome::default();
    let warm_up = input_set(seed, usize::MAX)[0].clone();
    let graphs = repeat_setup(&mut outcome, || {
        let graphs = build_graphs();
        black_box(measure(&graphs, &warm_up, THREADS));
        graphs
    });
    let mut points: Vec<Point> = Vec::new();
    let mut cold: Vec<HypercubePoint> = Vec::new();
    let mut set0: Vec<(Point, HypercubePoint)> = Vec::new();
    run_passes(
        &mut outcome,
        seconds,
        |_| true,
        |outcome, set, warm| {
            if !warm {
                points = input_set(seed, set);
                cold.clear();
            }
            let mut instances = 0.0;
            let pass_started = Instant::now();
            for (i, point) in points.iter().enumerate() {
                let started = Instant::now();
                let result = measure(&graphs, point, THREADS);
                outcome.latency(warm, ms_since(started));
                instances += f64::from(point.trials);
                if warm {
                    outcome.check(same(&cold[i], &result), || {
                        format!(
                            "giant_census set {set} point {i}: replay differs from the first run"
                        )
                    });
                } else {
                    cold.push(result);
                }
            }
            let timed_s = pass_started.elapsed().as_secs_f64();
            if set == 0 && warm {
                set0 = points.iter().cloned().zip(cold.iter().copied()).collect();
            }
            (instances, timed_s)
        },
    );
    // Outside the timed phase: a seeded sample of set 0 against a plain
    // sequential census of the same instances.
    let mut rng = SeedRng::new(seed, "giant_census/oracle");
    let mut picked: Vec<usize> = Vec::new();
    while picked.len() < ORACLE_POINTS {
        let i = rng.below(set0.len() as u64) as usize;
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    for i in picked {
        let (point, measured) = &set0[i];
        let expected = if point.ba {
            plain(&graphs.ba, point)
        } else {
            plain(&graphs.cube, point)
        };
        outcome.check(same(measured, &expected), || {
            format!("giant_census point {i}: engine != plain census")
        });
    }
    outcome
}

/// One op decomposed into its layer calls, mirroring
/// `measure_giant_point_with_model` on one thread.
fn decomposed<T: Topology + Sync>(
    tracer: &mut Tracer,
    graph: &T,
    model: &(dyn FaultModel + Send + Sync),
    point: &Point,
    exec: TrialExec,
    sample_bytes: &mut usize,
) -> HypercubePoint {
    let pair = graph.canonical_pair();
    let config = |t: u64| PercolationConfig::new(point.p, point.seed.wrapping_add(t));
    let trials = u64::from(point.trials);
    let placement = tracer.time("faultmodel.instance", || model.pair_placement(graph, pair));
    let mut giant = 0.0;
    let mut connected = 0u32;
    let mut fold = |census: ComponentCensus| {
        giant += census.giant_fraction();
        connected += u32::from(census.num_components() == 1);
    };
    if exec.batched() && model.lane_batchable() && TrialBatch::supported(graph) {
        let lanes = clamp_lanes(exec.trial_batch) as u64;
        for t0 in (0..trials).step_by(lanes as usize) {
            let n = lanes.min(trials - t0);
            let instances: Vec<_> = tracer.time("faultmodel.instance", || {
                (0..n)
                    .map(|l| model.instance_from_placement(&placement, graph, config(t0 + l), pair))
                    .collect()
            });
            let batch = tracer.time("percolation.sample", || {
                TrialBatch::from_lane_states(graph, &instances)
            });
            *sample_bytes = (*sample_bytes).max(batch.words().len() * 8);
            for l in 0..n as usize {
                fold(tracer.time("percolation.census", || {
                    ComponentCensus::compute(graph, &batch.lane_view(l))
                }));
            }
        }
    } else {
        for t in 0..trials {
            let instance = tracer.time("faultmodel.instance", || {
                model.instance_from_placement(&placement, graph, config(t), pair)
            });
            let sample = tracer.time("percolation.sample", || {
                BitsetSample::from_states(graph, &instance)
            });
            *sample_bytes = (*sample_bytes).max(sample.words().len() * 8);
            fold(tracer.time("percolation.census", || {
                ComponentCensus::compute(graph, &sample)
            }));
        }
    }
    HypercubePoint {
        p: point.p,
        giant_fraction: giant / f64::from(point.trials),
        connectivity: f64::from(connected) / f64::from(point.trials),
    }
}

/// The traced run.
pub fn traced(seed: u64) -> Traced {
    let points = input_set(seed, 0);
    let mut traced = Traced::default();
    let started = Instant::now();
    let graphs = build_graphs();
    traced.set("topology.build_ms", ms_since(started));

    let cpu0 = process_cpu_s();
    let started = Instant::now();
    let results: Vec<HypercubePoint> = points
        .iter()
        .map(|p| measure(&graphs, p, THREADS))
        .collect();
    let wall = started.elapsed().as_secs_f64();
    if let (Some(c0), Some(c1)) = (cpu0, process_cpu_s()) {
        traced.set("proc.cpu_s", c1 - c0);
        traced.set("proc.cpu_util", (c1 - c0) / (wall * THREADS as f64));
    }

    let mut tracer = Tracer::new();
    let mut untraced_ms = 0.0;
    let mut sample_bytes = 0usize;
    for (i, point) in points.iter().enumerate() {
        let started = Instant::now();
        black_box(measure(&graphs, point, 1));
        untraced_ms += ms_since(started);
        let model = point.model.build();
        let exec = exec(point, 1);
        let span = tracer.begin_op();
        let result = if point.ba {
            decomposed(
                &mut tracer,
                &graphs.ba,
                &*model,
                point,
                exec,
                &mut sample_bytes,
            )
        } else {
            decomposed(
                &mut tracer,
                &graphs.cube,
                &*model,
                point,
                exec,
                &mut sample_bytes,
            )
        };
        tracer.exit(span);
        traced.outcome.check(same(&result, &results[i]), || {
            format!("giant_census point {i}: decomposed layers != untraced op")
        });
    }
    finish_layers(&mut traced, &tracer, untraced_ms);
    traced.set("percolation.sample_mb", sample_bytes as f64 / 1e6);

    // The census alternative on one instance of each graph:
    // `compute_parallel` at two threads, checked against `compute`.
    let mut par_ms = 0.0;
    for graph in [&graphs.cube as &(dyn Topology + Sync), &graphs.ba] {
        let sample = BitsetSample::from_config(graph, &PercolationConfig::new(0.5, seed));
        let started = Instant::now();
        let par = ComponentCensus::compute_parallel(graph, &sample, THREADS);
        par_ms += ms_since(started);
        let seq = ComponentCensus::compute(graph, &sample);
        traced
            .outcome
            .check(seq.sizes_descending() == par.sizes_descending(), || {
                "giant_census: parallel census != sequential census".to_string()
            });
    }
    traced.set("percolation.census_par_ms", par_ms / 2.0);

    topology_probes(&mut traced, &[&graphs.cube, &graphs.ba]);
    eprint!("{}", tracer.render_tree("giant_census"));
    crate::workloads::write_trace("giant_census", seed, &tracer);
    traced
}

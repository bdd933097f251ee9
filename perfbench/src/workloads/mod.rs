//! The four workloads. Each module exposes `inputs(seed)` (the seeded
//! input list), `encode` (its canonical bytes), `run(seed, seconds)` (the
//! untraced run) and `traced(seed)` (the per-layer run).

pub mod churn_walk;
pub mod giant_census;
pub mod route_probe;
pub mod serve_mix;

use std::hint::black_box;
use std::time::Instant;

use faultnet_topology::Topology;

use crate::inputs::Encoder;
use crate::trace::Tracer;
use crate::{ms_since, Outcome, Traced};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["route_probe", "giant_census", "churn_walk", "serve_mix"];

/// The untraced run of `name`, or `None` for an unknown workload.
pub fn run(name: &str, seed: u64, seconds: f64) -> Option<Outcome> {
    Some(match name {
        "route_probe" => route_probe::run(seed, seconds),
        "giant_census" => giant_census::run(seed, seconds),
        "churn_walk" => churn_walk::run(seed, seconds),
        "serve_mix" => serve_mix::run(seed, seconds),
        _ => return None,
    })
}

/// The traced run of `name`, or `None` for an unknown workload.
pub fn traced(name: &str, seed: u64) -> Option<Traced> {
    Some(match name {
        "route_probe" => route_probe::traced(seed),
        "giant_census" => giant_census::traced(seed),
        "churn_walk" => churn_walk::traced(seed),
        "serve_mix" => serve_mix::traced(seed),
        _ => return None,
    })
}

/// The canonical encoding of `name`'s input list for `seed`.
pub fn encoded_inputs(name: &str, seed: u64) -> Option<Encoder> {
    Some(match name {
        "route_probe" => route_probe::encode(&route_probe::inputs(seed)),
        "giant_census" => giant_census::encode(&giant_census::inputs(seed)),
        "churn_walk" => churn_walk::encode(&churn_walk::inputs(seed)),
        "serve_mix" => serve_mix::encode(&serve_mix::inputs(seed)),
        _ => return None,
    })
}

/// Directory, relative to the working directory, that traced runs write
/// their Chrome traces into.
const TRACE_DIR: &str = "perfbench/out";

/// Writes `tracer`'s spans to `perfbench/out/trace-<workload>-<seed>.json`;
/// a failure to write is reported on stderr and does not fail the run.
pub(crate) fn write_trace(workload: &str, seed: u64, tracer: &Tracer) {
    let path = format!("{TRACE_DIR}/trace-{workload}-{seed}.json");
    let written = std::fs::create_dir_all(TRACE_DIR)
        .and_then(|()| std::fs::write(&path, tracer.chrome_trace()));
    match written {
        Ok(()) => eprintln!("wrote {path} ({} spans)", tracer.spans().len()),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// Per-op layer self times of the engine layers, the unattributed share,
/// and the tracing overhead against `untraced_ms`, the same ops run
/// untraced on one thread. (Server stages are per call; `serve_mix` sets
/// them itself.)
pub(crate) fn finish_layers(traced: &mut Traced, tracer: &Tracer, untraced_ms: f64) {
    let layers = tracer.layer_times();
    let ops = tracer.ops().max(1) as f64;
    for (span, metric, scale) in [
        ("faultmodel.instance", "faultmodel.instance_ms", 1e6),
        ("percolation.sample", "percolation.sample_ms", 1e6),
        ("percolation.condition", "percolation.condition_ms", 1e6),
        ("percolation.census", "percolation.census_ms", 1e6),
        (
            "percolation.dynamic.step",
            "percolation.dynamic.step_us",
            1e3,
        ),
        ("routing.route", "routing.route_ms", 1e6),
    ] {
        if let Some(t) = layers.get(span) {
            traced.set(metric, t.self_ns as f64 / ops / scale);
        }
    }
    if let Some(op) = layers.get(crate::trace::OP) {
        traced.set(
            "op.unattributed_frac",
            op.self_ns as f64 / op.total_ns.max(1) as f64,
        );
        let traced_ms = op.total_ns as f64 / 1e6;
        traced.set(
            "trace.overhead_frac",
            (traced_ms - untraced_ms) / untraced_ms,
        );
    }
}

/// Topology-layer probes over the workload's graphs: `neighbors` over a
/// full vertex sweep and `edges()` on the largest graph, and the largest
/// edge-slot space per edge among them.
pub(crate) fn topology_probes(traced: &mut Traced, graphs: &[&dyn Topology]) {
    let largest = graphs
        .iter()
        .max_by_key(|g| g.num_edges())
        .expect("at least one graph");
    let started = Instant::now();
    let mut degree_sum = 0usize;
    for v in largest.vertices() {
        degree_sum += black_box(largest.neighbors(v)).len();
    }
    let sweep_ns = started.elapsed().as_nanos() as f64;
    black_box(degree_sum);
    traced.set(
        "topology.neighbors_ns",
        sweep_ns / largest.num_vertices() as f64,
    );
    let started = Instant::now();
    black_box(largest.edges());
    traced.set("topology.edges_ms", ms_since(started));
    let slots = graphs
        .iter()
        .filter_map(|g| Some(g.edge_index_bound()? as f64 / g.num_edges().max(1) as f64))
        .fold(0.0, f64::max);
    traced.set("topology.slots_per_edge", slots);
}

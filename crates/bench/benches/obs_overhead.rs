//! Bench target bounding the cost of the `faultnet_obs` instrumentation
//! layer — the "zero-perturbation" contract's wall-clock half.
//!
//! Three groups:
//!
//! * `obs/disabled_call` — the raw cost of one disabled `count()` /
//!   `record()` / `span()` call: a single relaxed atomic load each, the
//!   whole price every hot path pays when nobody is observing.
//! * `obs/census` — a full component census over a materialised hypercube
//!   instance with instrumentation off vs counting on vs tracing on. The
//!   engine emits a handful of obs calls per census (the counters are
//!   accumulated locally and flushed once per call), so the three rows
//!   should be statistically indistinguishable.
//! * `obs/routing_trials` — a batched routing measurement (the busiest
//!   instrumented path: one span + a few counters per conditioned trial)
//!   under the same three states.
//!
//! The byte-level half of the contract (enabled or not, the *numbers*
//! never change) lives in `crates/experiments/tests/obs_differential.rs`;
//! this target exists so a perturbation that shows up as time rather than
//! bytes is also caught.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use faultnet_faultmodel::{trials::TrialExec, BernoulliEdges};
use faultnet_percolation::components::ComponentCensus;
use faultnet_percolation::sample::BitsetSample;
use faultnet_percolation::PercolationConfig;
use faultnet_routing::bfs::FloodRouter;
use faultnet_routing::complexity::ComplexityHarness;
use faultnet_topology::hypercube::Hypercube;
use faultnet_topology::Topology;
use std::time::Duration;

/// The three instrumentation states each instrumented group is measured
/// under. Every iteration body runs identically; only the obs globals
/// differ.
const STATES: [&str; 3] = ["off", "counting", "tracing"];

fn set_state(state: &str) {
    faultnet_obs::reset();
    match state {
        "off" => {}
        "counting" => faultnet_obs::enable(),
        "tracing" => faultnet_obs::enable_tracing(),
        other => unreachable!("unknown obs state {other}"),
    }
}

/// One disabled instrumentation call: the contractual hot-path price.
fn bench_disabled_call(c: &mut Criterion) {
    faultnet_obs::reset();
    let mut group = c.benchmark_group("obs/disabled_call");
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(1));
    group.bench_function("count", |b| {
        b.iter(|| faultnet_obs::count("bench.disabled", criterion::black_box(1)))
    });
    group.bench_function("record", |b| {
        b.iter(|| faultnet_obs::record("bench.disabled", criterion::black_box(17)))
    });
    group.bench_function("span", |b| {
        b.iter(|| faultnet_obs::span(criterion::black_box("bench.disabled")))
    });
    group.finish();
}

/// A full census per iteration, off vs counting vs tracing.
fn bench_census_states(c: &mut Criterion) {
    let cube = Hypercube::new(12);
    let bitset = BitsetSample::from_config(&cube, &PercolationConfig::new(0.5, 7));
    let mut group = c.benchmark_group("obs/census");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    group.throughput(Throughput::Elements(cube.num_edges()));
    for state in STATES {
        set_state(state);
        group.bench_with_input(BenchmarkId::new(state, 12), &state, |b, _| {
            b.iter(|| ComponentCensus::compute(&cube, &bitset).largest_component_size())
        });
        // Drop this state's buffers so the next row starts clean and the
        // tracing row cannot grow its event vector without bound across
        // samples feeding back into reallocation cost.
        faultnet_obs::reset();
    }
    group.finish();
}

/// A batched routing measurement per iteration (64 lanes, 32 trials), off
/// vs counting vs tracing — the path with the most obs calls per unit of
/// work.
fn bench_routing_states(c: &mut Criterion) {
    let cube = Hypercube::new(8);
    let harness = ComplexityHarness::new(cube, PercolationConfig::new(0.6, 7));
    let (u, v) = cube.canonical_pair();
    let mut group = c.benchmark_group("obs/routing_trials");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    group.throughput(Throughput::Elements(32));
    let exec = TrialExec::sequential().with_trial_batch(64);
    for state in STATES {
        set_state(state);
        group.bench_with_input(BenchmarkId::new(state, 32), &state, |b, _| {
            b.iter(|| {
                harness
                    .measure(&BernoulliEdges::new(), &FloodRouter::new(), u, v, 32, exec)
                    .conditioned_trials()
            })
        });
        faultnet_obs::reset();
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_disabled_call,
    bench_census_states,
    bench_routing_states
);
criterion_main!(benches);

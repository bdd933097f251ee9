//! Bench target for the percolation substrate used by every experiment
//! (E5, E8): lazy sampling, component censuses, chemical distances, and
//! threshold estimation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use faultnet_experiments::chemical_distance::measure_stretch_point;
use faultnet_experiments::hypercube_giant::measure_hypercube_point;
use faultnet_experiments::threshold::giant_fraction_sweep;
use faultnet_experiments::TrialExec;
use faultnet_faultmodel::BernoulliEdges;
use faultnet_percolation::components::ComponentCensus;
use faultnet_percolation::sample::{BitsetSample, EdgeStates, FrozenSample};
use faultnet_percolation::PercolationConfig;
use faultnet_routing::bfs::FloodRouter;
use faultnet_routing::complexity::ComplexityHarness;
use faultnet_topology::de_bruijn::DeBruijn;
use faultnet_topology::hypercube::Hypercube;
use faultnet_topology::torus::Torus;
use faultnet_topology::Topology;
use std::time::Duration;

fn bench_sampler(c: &mut Criterion) {
    let mut group = c.benchmark_group("percolation/sampler");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let cube = Hypercube::new(14);
    let sampler = PercolationConfig::new(0.5, 3).sampler();
    let edges = cube.incident_edges(faultnet_topology::VertexId(12345));
    group.throughput(Throughput::Elements(edges.len() as u64));
    group.bench_function("lazy_edge_states", |b| {
        b.iter(|| edges.iter().filter(|e| sampler.is_open(**e)).count())
    });
    group.finish();
}

/// Lazy hashing vs materialised stores, measured as `is_open` throughput
/// over every edge of the 12-cube (the access pattern of a component census
/// or chemical-distance BFS, which touches each edge from both endpoints).
fn bench_is_open_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("percolation/is_open_backends");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    let cube = Hypercube::new(12);
    let sampler = PercolationConfig::new(0.5, 3).sampler();
    let bitset = BitsetSample::from_states(&cube, &sampler);
    let frozen = FrozenSample::from_sampler(&cube, &sampler);
    let edges = cube.edges();
    group.throughput(Throughput::Elements(edges.len() as u64));
    group.bench_function("lazy_hash_per_query", |b| {
        b.iter(|| edges.iter().filter(|e| sampler.is_open(**e)).count())
    });
    group.bench_function("bitset_bit_read", |b| {
        b.iter(|| edges.iter().filter(|e| bitset.is_open(**e)).count())
    });
    group.bench_function("frozen_hashset_probe", |b| {
        b.iter(|| edges.iter().filter(|e| frozen.is_open(**e)).count())
    });
    group.bench_function("bitset_build", |b| {
        b.iter(|| BitsetSample::from_states(&cube, &sampler).num_open())
    });
    // Same comparison on a newly indexed constant-degree family: the de
    // Bruijn graph used to take the FrozenSample fallback; its closed-form
    // arc index now gives it the single-bit-read path too.
    let db = DeBruijn::new(12);
    let db_bitset = BitsetSample::from_states(&db, &sampler);
    let db_edges = db.edges();
    group.throughput(Throughput::Elements(db_edges.len() as u64));
    group.bench_function("de_bruijn_lazy_hash_per_query", |b| {
        b.iter(|| db_edges.iter().filter(|e| sampler.is_open(**e)).count())
    });
    group.bench_function("de_bruijn_bitset_bit_read", |b| {
        b.iter(|| db_edges.iter().filter(|e| db_bitset.is_open(**e)).count())
    });
    group.bench_function("de_bruijn_bitset_build", |b| {
        b.iter(|| BitsetSample::from_states(&db, &sampler).num_open())
    });
    group.finish();
}

/// Cost of the fault-model overlays relative to the raw substrates: lazy
/// Bernoulli hashing vs the materialised bitset vs the node-mask overlay of
/// the node-fault model (each `is_open` adds two mask bit reads before the
/// substrate answer), plus the per-instance build costs. Tracks the
/// node-fault overlay's overhead so a regression in the mask path shows up
/// in the same group as the substrate numbers it must be compared to.
fn bench_fault_model_overlays(c: &mut Criterion) {
    use faultnet_faultmodel::{BernoulliNodes, FaultModel};
    let mut group = c.benchmark_group("percolation/fault_model_overlays");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    let cube = Hypercube::new(12);
    let cfg = PercolationConfig::new(0.5, 3);
    let sampler = cfg.sampler();
    let bitset = BitsetSample::from_states(&cube, &sampler);
    let node_model = BernoulliNodes::new();
    let node_instance = node_model.instance(&cube, cfg, None);
    let node_bitset = BitsetSample::from_states(&cube, &node_instance);
    let edges = cube.edges();
    group.throughput(Throughput::Elements(edges.len() as u64));
    group.bench_function("lazy_hash_per_query", |b| {
        b.iter(|| edges.iter().filter(|e| sampler.is_open(**e)).count())
    });
    group.bench_function("bitset_bit_read", |b| {
        b.iter(|| edges.iter().filter(|e| bitset.is_open(**e)).count())
    });
    group.bench_function("node_mask_overlay", |b| {
        b.iter(|| edges.iter().filter(|e| node_instance.is_open(**e)).count())
    });
    group.bench_function("node_mask_materialised_bit_read", |b| {
        b.iter(|| edges.iter().filter(|e| node_bitset.is_open(**e)).count())
    });
    group.bench_function("node_instance_build", |b| {
        b.iter(|| {
            node_model
                .instance(&cube, cfg, None)
                .dead_nodes()
                .map(|m| m.dead_count())
        })
    });
    group.finish();
}

/// Sequential vs parallel conditioned-trial measurement on one harness
/// configuration. The two paths produce bit-identical `ComplexityStats`;
/// only wall-clock differs (on multi-core machines).
fn bench_harness_parallelism(c: &mut Criterion) {
    let mut group = c.benchmark_group("percolation/harness_threads");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    let cube = Hypercube::new(10);
    let harness = ComplexityHarness::new(cube, PercolationConfig::new(0.45, 7));
    let (u, v) = cube.canonical_pair();
    let trials = 8;
    group.bench_function("sequential", |b| {
        b.iter(|| {
            harness
                .measure_with_model(&BernoulliEdges::new(), &FloodRouter::new(), u, v, trials)
                .successes()
        })
    });
    for &threads in &[2usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("parallel", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let exec = TrialExec::sequential().with_threads(threads);
                    harness
                        .measure(
                            &BernoulliEdges::new(),
                            &FloodRouter::new(),
                            u,
                            v,
                            trials,
                            exec,
                        )
                        .successes()
                })
            },
        );
    }
    group.finish();
}

fn bench_component_census(c: &mut Criterion) {
    let mut group = c.benchmark_group("percolation/component_census");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    for &n in &[10u32, 12, 14] {
        let cube = Hypercube::new(n);
        group.throughput(Throughput::Elements(cube.num_edges()));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            let sampler = PercolationConfig::new(0.5, 7).sampler();
            b.iter(|| ComponentCensus::compute(&cube, &sampler).giant_fraction())
        });
    }
    group.finish();
}

fn bench_thresholds_and_stretch(c: &mut Criterion) {
    let mut group = c.benchmark_group("percolation/analytics");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    let torus = Torus::new(2, 24);
    group.bench_function("giant_fraction_torus24", |b| {
        b.iter(|| giant_fraction_sweep(&torus, &[0.55], 3, 11, TrialExec::sequential()))
    });
    group.bench_function("chemical_stretch_d16", |b| {
        b.iter(|| measure_stretch_point(0.7, 16, 6, 3, 1))
    });
    group.bench_function("hypercube_giant_point_n10", |b| {
        b.iter(|| measure_hypercube_point(10, 0.15, 4, 5, TrialExec::sequential()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sampler,
    bench_is_open_backends,
    bench_fault_model_overlays,
    bench_harness_parallelism,
    bench_component_census,
    bench_thresholds_and_stretch
);
criterion_main!(benches);

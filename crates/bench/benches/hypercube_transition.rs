//! Bench target for E1/E3 (Theorem 3): hypercube routing cost on both sides
//! of the `α = 1/2` transition, for the segment router and the flooding
//! baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use faultnet_experiments::hypercube_transition::measure_alpha_point;
use faultnet_experiments::TrialExec;
use faultnet_faultmodel::BernoulliEdges;
use faultnet_percolation::PercolationConfig;
use faultnet_routing::bfs::FloodRouter;
use faultnet_routing::complexity::ComplexityHarness;
use faultnet_routing::hypercube::SegmentRouter;
use faultnet_topology::hypercube::Hypercube;
use faultnet_topology::Topology;
use std::time::Duration;

fn bench_alpha_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("hypercube_transition/segment_router");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    for &alpha in &[0.2f64, 0.4, 0.6, 0.8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("alpha_{alpha}")),
            &alpha,
            |b, &alpha| {
                b.iter(|| measure_alpha_point(9, alpha, 3, 20_000, 17, TrialExec::sequential()));
            },
        );
    }
    group.finish();
}

fn bench_router_comparison(c: &mut Criterion) {
    let mut group = c.benchmark_group("hypercube_transition/routers_at_p_0.5");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    let cube = Hypercube::new(10);
    let (u, v) = cube.canonical_pair();
    let harness = ComplexityHarness::new(cube, PercolationConfig::new(0.5, 5));
    group.bench_function("segment", |b| {
        b.iter(|| {
            harness.measure_with_model(&BernoulliEdges::new(), &SegmentRouter::default(), u, v, 3)
        })
    });
    group.bench_function("flood", |b| {
        b.iter(|| harness.measure_with_model(&BernoulliEdges::new(), &FloodRouter::new(), u, v, 3))
    });
    group.finish();
}

criterion_group!(benches, bench_alpha_sweep, bench_router_comparison);
criterion_main!(benches);

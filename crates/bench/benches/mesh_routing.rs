//! Bench target for E4 (Theorem 4): landmark routing on the supercritical
//! mesh as a function of the distance, against the flooding baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use faultnet_experiments::mesh_routing::measure_mesh_point;
use faultnet_experiments::TrialExec;
use std::time::Duration;

fn bench_distance_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("mesh_routing/landmark_vs_distance");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    for &distance in &[8u64, 16, 32] {
        group.throughput(Throughput::Elements(distance));
        group.bench_with_input(
            BenchmarkId::from_parameter(distance),
            &distance,
            |b, &distance| {
                b.iter(|| {
                    measure_mesh_point(2, 0.7, distance, 4, false, 11, TrialExec::sequential())
                });
            },
        );
    }
    group.finish();
}

fn bench_near_threshold(c: &mut Criterion) {
    let mut group = c.benchmark_group("mesh_routing/near_threshold");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    for &p in &[0.55f64, 0.7, 0.9] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("p_{p}")),
            &p,
            |b, &p| {
                b.iter(|| measure_mesh_point(2, p, 16, 4, false, 13, TrialExec::sequential()));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_distance_scaling, bench_near_threshold);
criterion_main!(benches);

//! Bench target for E7 (Theorems 10 and 11): local vs oracle routing on
//! `G(n, p)` at growing `n`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use faultnet_experiments::gnp::measure_gnp_point;
use faultnet_experiments::TrialExec;
use faultnet_faultmodel::BernoulliEdges;
use faultnet_percolation::PercolationConfig;
use faultnet_routing::complexity::ComplexityHarness;
use faultnet_routing::gnp::{BidirectionalGrowthRouter, IncrementalLocalRouter};
use faultnet_topology::complete::CompleteGraph;
use faultnet_topology::Topology;
use std::time::Duration;

fn bench_size_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("gnp/size_scaling");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    for &n in &[60u64, 120, 240] {
        group.throughput(Throughput::Elements(n));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| measure_gnp_point(n, 2.0, 4, 9, TrialExec::sequential()));
        });
    }
    group.finish();
}

fn bench_local_vs_oracle(c: &mut Criterion) {
    let mut group = c.benchmark_group("gnp/local_vs_oracle_n200");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    let n = 200u64;
    let k = CompleteGraph::new(n);
    let (u, v) = k.canonical_pair();
    let harness = ComplexityHarness::new(k, PercolationConfig::new(2.5 / n as f64, 77));
    group.bench_function("local", |b| {
        b.iter(|| {
            harness.measure_with_model(
                &BernoulliEdges::new(),
                &IncrementalLocalRouter::new(),
                u,
                v,
                4,
            )
        })
    });
    group.bench_function("oracle", |b| {
        b.iter(|| {
            harness.measure_with_model(
                &BernoulliEdges::new(),
                &BidirectionalGrowthRouter::new(),
                u,
                v,
                4,
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_size_scaling, bench_local_vs_oracle);
criterion_main!(benches);

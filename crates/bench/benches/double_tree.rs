//! Bench target for E6 (Lemma 6, Theorems 7 and 9): local vs oracle routing
//! on the double binary tree.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use faultnet_experiments::double_tree::{measure_connection_point, measure_tree_complexity};
use faultnet_experiments::TrialExec;
use faultnet_faultmodel::BernoulliEdges;
use faultnet_percolation::PercolationConfig;
use faultnet_routing::complexity::ComplexityHarness;
use faultnet_routing::tree::{LeafPenetrationRouter, PairedDfsOracleRouter};
use faultnet_topology::double_tree::DoubleBinaryTree;
use std::time::Duration;

fn bench_connectivity(c: &mut Criterion) {
    let mut group = c.benchmark_group("double_tree/connectivity");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    for &p in &[0.65f64, 0.71, 0.8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("p_{p}")),
            &p,
            |b, &p| {
                b.iter(|| measure_connection_point(10, p, 10, 3, 1));
            },
        );
    }
    group.finish();
}

fn bench_local_vs_oracle(c: &mut Criterion) {
    let mut group = c.benchmark_group("double_tree/local_vs_oracle");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    for &depth in &[5u32, 7, 9] {
        group.bench_with_input(BenchmarkId::new("combined", depth), &depth, |b, &depth| {
            b.iter(|| measure_tree_complexity(depth, 0.8, 8, 5, TrialExec::sequential()));
        });
    }
    let tt = DoubleBinaryTree::new(8);
    let (x, y) = tt.roots();
    let harness = ComplexityHarness::new(tt, PercolationConfig::new(0.8, 21));
    group.bench_function("local_only_depth8", |b| {
        b.iter(|| {
            harness.measure_with_model(
                &BernoulliEdges::new(),
                &LeafPenetrationRouter::new(),
                x,
                y,
                5,
            )
        })
    });
    group.bench_function("oracle_only_depth8", |b| {
        b.iter(|| {
            harness.measure_with_model(
                &BernoulliEdges::new(),
                &PairedDfsOracleRouter::new(),
                x,
                y,
                5,
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_connectivity, bench_local_vs_oracle);
criterion_main!(benches);

//! Bench target for E2 (Lemma 5 / Theorem 3(i)): the Monte-Carlo cut bound
//! and the closed-form hypercube ball bound.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use faultnet_experiments::hypercube_lower_bound::compare_bound_to_measurement;
use faultnet_experiments::TrialExec;
use faultnet_routing::lower_bound::{hypercube_ball_log_eta, hypercube_required_log_probes};
use std::time::Duration;

fn bench_closed_form(c: &mut Criterion) {
    let mut group = c.benchmark_group("lower_bound/closed_form");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.bench_function("ball_eta_grid", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for n in (16u32..=1024).step_by(16) {
                for alpha in [0.6f64, 0.7, 0.8, 0.9] {
                    if let Some(v) = hypercube_ball_log_eta(n, alpha, 0.08) {
                        acc += v;
                    }
                    if let Some(v) = hypercube_required_log_probes(n, alpha, 0.08) {
                        acc += v;
                    }
                }
            }
            acc
        })
    });
    group.finish();
}

fn bench_monte_carlo_bound(c: &mut Criterion) {
    let mut group = c.benchmark_group("lower_bound/monte_carlo");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    for &n in &[8u32, 9, 10] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| compare_bound_to_measurement(n, 0.7, 2, 10, 3, TrialExec::sequential()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_closed_form, bench_monte_carlo_bound);
criterion_main!(benches);

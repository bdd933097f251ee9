//! Bench target for the intra-instance component census: the sequential
//! union-find pass vs the edge-partitioned parallel engine
//! (`ComponentCensus::compute_parallel`), across hypercube sizes.
//!
//! At n = 16 one census touches 524 288 edges, at n = 18 over 2.3 million
//! — per *trial*. No experiment runs the parallel engine: the trial loop
//! already spreads the censuses of a grid point over `--threads`, which
//! beat splitting each census on a 2-core machine, so `compute_parallel`
//! is library code that this bench and the equivalence suite keep
//! measured. The `census/seq_vs_par` group reports both paths on the same
//! materialised instance so the speedup (on multi-core hardware) reads
//! straight out of `cargo bench`; the two are bit-identical in output, so
//! any measured gap is pure wall-clock. On a single-core box the parallel
//! rows regress slightly (thread spawn + CAS traffic with nothing to
//! overlap) — record numbers from a multi-core machine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use faultnet_percolation::components::ComponentCensus;
use faultnet_percolation::dynamic::{ChurnEvent, IncrementalCensus};
use faultnet_percolation::sample::{BitsetSample, FrozenSample};
use faultnet_percolation::{EdgeStates, PercolationConfig};
use faultnet_topology::hypercube::Hypercube;
use faultnet_topology::Topology;
use std::time::Duration;

/// Sequential vs parallel census over one materialised hypercube instance,
/// n = 14 .. 18. p = 0.5 sits in the regime where components are plentiful
/// and the union-find does real merging work (p near 0 or 1 degenerates to
/// almost-no-unions or one-big-chain respectively).
fn bench_census_seq_vs_par(c: &mut Criterion) {
    let mut group = c.benchmark_group("census/seq_vs_par");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.sample_size(10);
    for &n in &[14u32, 16, 18] {
        let cube = Hypercube::new(n);
        let bitset = BitsetSample::from_config(&cube, &PercolationConfig::new(0.5, 7));
        group.throughput(Throughput::Elements(cube.num_edges()));
        group.bench_with_input(BenchmarkId::new("seq", n), &n, |b, _| {
            b.iter(|| ComponentCensus::compute(&cube, &bitset).largest_component_size())
        });
        for &threads in &[2usize, 4, 8] {
            group.bench_with_input(BenchmarkId::new(format!("par{threads}"), n), &n, |b, _| {
                b.iter(|| {
                    ComponentCensus::compute_parallel(&cube, &bitset, threads)
                        .largest_component_size()
                })
            });
        }
    }
    group.finish();
}

/// Incremental census steps vs from-scratch rescans under churn, across
/// event-batch sizes k = 1, 16, 256 on H₁₄ and H₁₆. Each iteration fails a
/// fixed batch of k open edges and repairs them again (two steps), so the
/// structure returns to the same state every iteration — a steady-state
/// measurement of the recent-churn case, where the failed edges sit at the
/// top of the undo log and a step rewinds/replays only a short suffix. The
/// `rescan` rows run the same two event batches through a mirror open set
/// with a full `ComponentCensus::compute` after each, which is what the
/// incremental engine replaces; the crossover batch size where rescan wins
/// back (failures deep in the log degrade a step towards O(E) replay) reads
/// straight out of the group. Throughput is events per iteration (2k).
fn bench_incremental_vs_rescan(c: &mut Criterion) {
    let mut group = c.benchmark_group("census/incremental_vs_rescan");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.sample_size(10);
    for &n in &[14u32, 16] {
        let cube = Hypercube::new(n);
        let bitset = BitsetSample::from_config(&cube, &PercolationConfig::new(0.5, 7));
        let open_edges: Vec<_> = cube
            .edges()
            .into_iter()
            .filter(|e| bitset.is_open(*e))
            .collect();
        for &k in &[1usize, 16, 256] {
            let fail: Vec<ChurnEvent> = open_edges
                .iter()
                .take(k)
                .map(|&e| ChurnEvent::fail(e))
                .collect();
            let repair: Vec<ChurnEvent> = open_edges
                .iter()
                .take(k)
                .map(|&e| ChurnEvent::repair(e))
                .collect();
            group.throughput(Throughput::Elements(2 * k as u64));
            let mut incremental = IncrementalCensus::new(&cube, &bitset);
            group.bench_with_input(BenchmarkId::new(format!("inc_k{k}"), n), &n, |b, _| {
                b.iter(|| {
                    incremental.step(&fail);
                    incremental.step(&repair);
                    incremental.largest_component_size()
                })
            });
            let mut mirror = FrozenSample::from_open_edges(open_edges.iter().copied());
            group.bench_with_input(BenchmarkId::new(format!("rescan_k{k}"), n), &n, |b, _| {
                b.iter(|| {
                    for event in &fail {
                        mirror.close_edge(event.edge);
                    }
                    let after_fail =
                        ComponentCensus::compute(&cube, &mirror).largest_component_size();
                    for event in &repair {
                        mirror.open_edge(event.edge);
                    }
                    after_fail + ComponentCensus::compute(&cube, &mirror).largest_component_size()
                })
            });
        }
    }
    group.finish();
}

/// The previously *inverted* case: churn whose failures land uniformly
/// across the whole undo log instead of at its recent top. The earliest
/// failed edge then sits near the bottom, so before the rebuild fallback a
/// step rewound and replayed almost the entire log — O(E) work per step
/// that made H₁₈ uniform churn take twice as long incrementally (88 s) as
/// with per-step rescans (44 s). With the fallback
/// (`IncrementalCensus::should_rebuild`: rebuild when 2·suffix >
/// survivors) the fail step now costs one from-scratch build — the same
/// union pass a rescan pays — and the repair step stays incremental (k
/// unions instead of a second full compute), so `inc_uniform` must come in
/// at or below `rescan_uniform` on every size. Each iteration fails k open
/// edges spread evenly through the log and repairs them again, returning
/// the structure to the same state (steady-state, like the recent-churn
/// group above).
fn bench_uniform_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("census/incremental_vs_rescan");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.sample_size(10);
    for &n in &[16u32, 18] {
        let cube = Hypercube::new(n);
        let bitset = BitsetSample::from_config(&cube, &PercolationConfig::new(0.5, 7));
        let open_edges: Vec<_> = cube
            .edges()
            .into_iter()
            .filter(|e| bitset.is_open(*e))
            .collect();
        let k = 256usize;
        let stride = open_edges.len() / k;
        // Rotate the failed slice's offset every iteration: a repaired edge
        // re-appends at the *top* of the log, so failing one fixed set would
        // degenerate to the shallow recent-churn case after one iteration.
        // A fresh stride-sampled slice keeps hitting edges that have sat
        // deep in the log since the initial build, so every fail step stays
        // on the deep side of the crossover.
        let slice = move |offset: usize, open_edges: &[faultnet_topology::EdgeId]| {
            let uniform: Vec<_> = open_edges
                .iter()
                .skip(offset)
                .step_by(stride)
                .take(k)
                .copied()
                .collect();
            let fail: Vec<ChurnEvent> = uniform.iter().map(|&e| ChurnEvent::fail(e)).collect();
            let repair: Vec<ChurnEvent> = uniform.iter().map(|&e| ChurnEvent::repair(e)).collect();
            (fail, repair)
        };
        group.throughput(Throughput::Elements(2 * k as u64));
        let mut incremental = IncrementalCensus::new(&cube, &bitset);
        let mut inc_offset = 0usize;
        group.bench_with_input(
            BenchmarkId::new(format!("inc_uniform_k{k}"), n),
            &n,
            |b, _| {
                b.iter(|| {
                    let (fail, repair) = slice(inc_offset, &open_edges);
                    inc_offset = (inc_offset + 1) % stride;
                    incremental.step(&fail);
                    incremental.step(&repair);
                    incremental.largest_component_size()
                })
            },
        );
        let mut mirror = FrozenSample::from_open_edges(open_edges.iter().copied());
        let mut rescan_offset = 0usize;
        group.bench_with_input(
            BenchmarkId::new(format!("rescan_uniform_k{k}"), n),
            &n,
            |b, _| {
                b.iter(|| {
                    let (fail, repair) = slice(rescan_offset, &open_edges);
                    rescan_offset = (rescan_offset + 1) % stride;
                    for event in &fail {
                        mirror.close_edge(event.edge);
                    }
                    let after_fail =
                        ComponentCensus::compute(&cube, &mirror).largest_component_size();
                    for event in &repair {
                        mirror.open_edge(event.edge);
                    }
                    after_fail + ComponentCensus::compute(&cube, &mirror).largest_component_size()
                })
            },
        );
    }
    group.finish();
}

/// The harness's single-instance conditioning check `{u ∼ v}` is the
/// early-exiting BFS; this group pins why, against a whole census on one
/// or two workers, on the instance the harness actually routes over (a
/// Bernoulli-edge `FaultInstance`, lazily hashed). With a giant component
/// (p = 0.5) the BFS must chase most of the graph while the census scans
/// edges in order; below the `1/n` threshold
/// (H₁₆ at p = 0.05) `u`'s component is tiny, the BFS stops at once, and a
/// census still touches every edge. The case names read
/// `<check>/<n>@<p>`.
fn bench_conditioning_bfs_vs_census(c: &mut Criterion) {
    use faultnet_faultmodel::{BernoulliEdges, FaultModel};
    use faultnet_percolation::bfs::connected;
    let mut group = c.benchmark_group("conditioning/bfs_vs_census");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));
    group.sample_size(10);
    for &(n, p) in &[(8u32, 0.5), (10, 0.5), (12, 0.5), (14, 0.5), (16, 0.05)] {
        let cube = Hypercube::new(n);
        let (u, v) = cube.canonical_pair();
        let instance = BernoulliEdges::new().instance(&cube, PercolationConfig::new(p, 7), None);
        let point = format!("{n}@{p}");
        group.bench_with_input(BenchmarkId::new("bfs", &point), &n, |b, _| {
            b.iter(|| connected(&cube, &instance, u, v))
        });
        for &threads in &[1usize, 2] {
            let name = format!("census{threads}");
            group.bench_with_input(BenchmarkId::new(name, &point), &n, |b, _| {
                b.iter(|| {
                    ComponentCensus::compute_parallel(&cube, &instance, threads)
                        .same_component(u, v)
                })
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_census_seq_vs_par,
    bench_conditioning_bfs_vs_census,
    bench_incremental_vs_rescan,
    bench_uniform_churn
);
criterion_main!(benches);

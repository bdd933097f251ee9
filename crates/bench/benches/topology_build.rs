//! Bench target for `ExplicitGraph` construction and the `topology::load`
//! parser.
//!
//! `from_edges` is the one constructor: one sort + dedup over the whole
//! edge list, then a CSR fill. The hub-heavy Barabási–Albert list is the
//! shape real edge-list datasets have, so this group keeps the cost of
//! building the loader's substrates visible.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use faultnet_topology::explicit::ExplicitGraph;
use faultnet_topology::load::{barabasi_albert, emit_edge_list, parse_edge_list};
use faultnet_topology::Topology;
use std::time::Duration;

/// A hub-heavy edge list: every edge of a preferential-attachment graph,
/// so a few vertices carry degrees in the hundreds.
fn hub_heavy_edges() -> (u64, Vec<(u64, u64)>) {
    let graph = barabasi_albert(4096, 4, 23);
    let n = graph.num_vertices();
    let edges = graph
        .edges()
        .into_iter()
        .map(|e| (e.endpoints().0 .0, e.endpoints().1 .0))
        .collect();
    (n, edges)
}

fn bench_explicit_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("topology/explicit_build");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    let (n, edges) = hub_heavy_edges();
    group.throughput(Throughput::Elements(edges.len() as u64));
    group.bench_function("bulk_from_edges", |b| {
        b.iter(|| ExplicitGraph::from_edges(n, edges.iter().copied()).num_edges())
    });
    group.finish();
}

fn bench_edge_list_parsing(c: &mut Criterion) {
    let mut group = c.benchmark_group("topology/edge_list_parse");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    let graph = barabasi_albert(4096, 4, 23);
    let text = emit_edge_list(&graph);
    group.throughput(Throughput::Bytes(text.len() as u64));
    group.bench_function("parse_ba_4096", |b| {
        b.iter(|| parse_edge_list(&text).unwrap().graph.num_edges())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_explicit_construction,
    bench_edge_list_parsing
);
criterion_main!(benches);

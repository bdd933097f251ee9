//! Exact ground truth for the Monte-Carlo measurements.
//!
//! On a graph with at most 16 edges every fault pattern can be enumerated:
//! pattern `S` of open edges has probability `p^|S| (1 − p)^(|E| − |S|)`,
//! so `P(u ∼ v)` and the expected giant fraction are finite sums. So is
//! `E[probes | u ∼ v]` of the flood router (Definition 2): the router is
//! deterministic given the instance, so each pattern contributes its one
//! probe count. The estimators the experiments are built on —
//! [`measure_giant_point_with_model`] and the conditioned routing harness's
//! `connectivity_rate` and `mean_probes` — must land within a fixed z-bound
//! of those sums, under every instance store the trial loop can pick, and
//! exactly on them at `p ∈ {0, 1}`, where there is only one pattern.

use faultnet_experiments::hypercube_giant::measure_giant_point_with_model;
use faultnet_experiments::TrialExec;
use faultnet_faultmodel::BernoulliEdges;
use faultnet_percolation::sample::FrozenSample;
use faultnet_percolation::PercolationConfig;
use faultnet_routing::bfs::FloodRouter;
use faultnet_routing::complexity::ComplexityHarness;
use faultnet_routing::probe::ProbeEngine;
use faultnet_routing::router::Router;
use faultnet_topology::complete::CompleteGraph;
use faultnet_topology::explicit::ExplicitGraph;
use faultnet_topology::hypercube::Hypercube;
use faultnet_topology::mesh::Mesh;
use faultnet_topology::{Topology, VertexId};

/// Standard deviations an estimate may stray from its exact value. Fixed
/// up front: 48 interior checks at 4.5σ (4 graphs × 3 values of `p` × 4
/// estimates; the stores agree to the bit) fail by chance with probability
/// below 4·10⁻⁴, and the seeds are fixed, so a pass is reproducible.
const Z: f64 = 4.5;

const TRIALS: u32 = 2000;

/// The exact moments of one graph at one `p`, summed over all patterns.
struct Exact {
    /// `P(u ∼ v)`.
    connected: f64,
    /// `E[giant fraction]`.
    giant: f64,
    /// `E[giant fraction²]`.
    giant_sq: f64,
    /// `P(the whole graph is one component)`.
    spanning: f64,
    /// `E[flood router probes · 1{u ∼ v}]`.
    probes: f64,
    /// `E[flood router probes² · 1{u ∼ v}]`.
    probes_sq: f64,
}

impl Exact {
    /// `E[probes | u ∼ v]` and `Var[probes | u ∼ v]`.
    fn conditioned_probes(&self) -> (f64, f64) {
        let mean = self.probes / self.connected;
        (mean, self.probes_sq / self.connected - mean * mean)
    }
}

/// Component representative of `x`, with path halving.
fn find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

fn enumerate<T: Topology>(graph: &T, p: f64, (u, v): (VertexId, VertexId)) -> Exact {
    let n = graph.num_vertices() as usize;
    let edges = graph.edges();
    assert!(
        edges.len() <= 16,
        "{}: too many edges to enumerate",
        graph.name()
    );
    let mut exact = Exact {
        connected: 0.0,
        giant: 0.0,
        giant_sq: 0.0,
        spanning: 0.0,
        probes: 0.0,
        probes_sq: 0.0,
    };
    let router = FloodRouter::new();
    for mask in 0u32..1 << edges.len() {
        let open = mask.count_ones() as i32;
        let weight = p.powi(open) * (1.0 - p).powi(edges.len() as i32 - open);
        let mut parent: Vec<usize> = (0..n).collect();
        let mut states = FrozenSample::new();
        for (i, e) in edges.iter().enumerate() {
            if mask >> i & 1 == 1 {
                states.open_edge(*e);
                let (a, b) = (
                    find(&mut parent, e.lo().0 as usize),
                    find(&mut parent, e.hi().0 as usize),
                );
                parent[a] = b;
            }
        }
        let mut sizes = vec![0usize; n];
        for x in 0..n {
            sizes[find(&mut parent, x)] += 1;
        }
        let largest = *sizes.iter().max().unwrap();
        let giant = largest as f64 / n as f64;
        let (ru, rv) = (
            find(&mut parent, u.0 as usize),
            find(&mut parent, v.0 as usize),
        );
        if ru == rv {
            let locality = Router::<T, FrozenSample>::locality(&router);
            let mut engine = ProbeEngine::with_locality(graph, &states, locality, u);
            let outcome = router.route(&mut engine, u, v).expect("flood never errs");
            assert!(outcome.is_success(), "the flood finds every connected pair");
            let probes = outcome.probes as f64;
            exact.probes += weight * probes;
            exact.probes_sq += weight * probes * probes;
        }
        exact.connected += weight * f64::from(u8::from(ru == rv));
        exact.giant += weight * giant;
        exact.giant_sq += weight * giant * giant;
        exact.spanning += weight * f64::from(u8::from(largest == n));
    }
    exact
}

/// The trial loop's store choices: the automatic one at one and two
/// threads, and the forced widths 1 and 64.
fn stores() -> [TrialExec; 4] {
    let auto = TrialExec::sequential();
    [
        auto,
        auto.with_threads(2),
        auto.with_trial_batch(1),
        auto.with_trial_batch(64),
    ]
}

/// What the estimators report when every trial sees the same value `x`:
/// the trial-order sum, divided by the trial count.
fn constant_mean(x: f64) -> f64 {
    (0..TRIALS).fold(0.0, |sum, _| sum + x) / f64::from(TRIALS)
}

fn check<T: Topology + Clone + Sync>(graph: T, pair: (VertexId, VertexId), seed: u64) {
    let name = graph.name();
    let (u, v) = pair;
    for p in [0.0, 0.3, 0.5, 0.7, 1.0] {
        let exact = enumerate(&graph, p, pair);
        let harness = ComplexityHarness::new(graph.clone(), PercolationConfig::new(p, seed));
        let model = BernoulliEdges::new();
        let mut previous = None;
        for exec in stores() {
            let label = format!("{name}, p = {p}, {exec:?}");
            let point = measure_giant_point_with_model(&model, &graph, p, TRIALS, seed, exec);
            let stats = harness.measure(&model, &FloodRouter::new(), u, v, TRIALS, exec);
            let rate = stats.connectivity_rate();
            let probes = stats.mean_probes();
            if p == 0.0 || p == 1.0 {
                assert_eq!(point.giant_fraction, constant_mean(exact.giant), "{label}");
                assert_eq!(point.connectivity, exact.spanning, "{label}");
                assert_eq!(rate, exact.connected, "{label}");
                if exact.connected == 1.0 {
                    assert_eq!(probes, exact.conditioned_probes().0, "{label}");
                } else {
                    assert_eq!(stats.successes(), 0, "{label}");
                }
            } else {
                let trials = f64::from(TRIALS);
                let giant_sd = ((exact.giant_sq - exact.giant * exact.giant) / trials).sqrt();
                let rate_sd = (exact.connected * (1.0 - exact.connected) / trials).sqrt();
                let spanning_sd = (exact.spanning * (1.0 - exact.spanning) / trials).sqrt();
                assert!(
                    (point.giant_fraction - exact.giant).abs() <= Z * giant_sd,
                    "{label}: giant {} vs exact {} (sd {giant_sd})",
                    point.giant_fraction,
                    exact.giant
                );
                assert!(
                    (rate - exact.connected).abs() <= Z * rate_sd,
                    "{label}: P(u ~ v) {rate} vs exact {} (sd {rate_sd})",
                    exact.connected
                );
                assert!(
                    (point.connectivity - exact.spanning).abs() <= Z * spanning_sd,
                    "{label}: connectivity {} vs exact {} (sd {spanning_sd})",
                    point.connectivity,
                    exact.spanning
                );
                // The flood always routes a connected pair, so every
                // conditioned trial contributes one probe count.
                assert_eq!(stats.successes(), stats.conditioned_trials(), "{label}");
                let (mean, variance) = exact.conditioned_probes();
                let probes_sd = (variance / f64::from(stats.successes())).sqrt();
                assert!(
                    (probes - mean).abs() <= Z * probes_sd,
                    "{label}: E[probes | u ~ v] {probes} vs exact {mean} (sd {probes_sd})"
                );
            }
            // Every store draws the same instances, so the estimates agree
            // to the bit, not merely within the bound.
            let estimates = (
                point.giant_fraction,
                point.connectivity,
                rate,
                probes.to_bits(),
            );
            assert_eq!(*previous.get_or_insert(estimates), estimates, "{label}");
        }
    }
}

#[test]
fn hypercube_h3_matches_exhaustive_enumeration() {
    let cube = Hypercube::new(3);
    let pair = cube.canonical_pair();
    check(cube, pair, 11);
}

#[test]
fn mesh_3x3_matches_exhaustive_enumeration() {
    let mesh = Mesh::new(2, 3);
    let pair = mesh.canonical_pair();
    check(mesh, pair, 12);
}

#[test]
fn complete_k5_matches_exhaustive_enumeration() {
    let k5 = CompleteGraph::new(5);
    check(k5, (VertexId(0), VertexId(3)), 13);
}

#[test]
fn explicit_graph_matches_exhaustive_enumeration() {
    // Two blocks joined by a bridge and a chord, vertex 4 isolated, with a
    // duplicate and a self-loop in the list: 10 edges on 8 vertices.
    let graph = ExplicitGraph::from_edges(
        8,
        [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 0),
            (0, 2),
            (3, 5),
            (5, 6),
            (6, 7),
            (7, 5),
            (2, 6),
            (7, 7),
            (1, 0),
        ],
    );
    assert_eq!(graph.num_edges(), 10);
    check(graph, (VertexId(0), VertexId(7)), 14);
}

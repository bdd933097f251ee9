//! E10 — ablations of the design choices called out in DESIGN.md.
//!
//! Three questions the headline experiments keep fixed:
//!
//! 1. **Hypercube router choice** (Theorem 3(ii) remark). How much of the
//!    segment router's cheapness comes from the landmark structure rather
//!    than from greediness? Compared: strict greedy, greedy with detours,
//!    target-directed DFS, the segment router, and flooding — same instances,
//!    same conditioning.
//! 2. **Mesh search escalation** (Theorem 4). The paper's algorithm searches
//!    around the current landmark without a depth limit; does starting
//!    shallow and escalating change the probe count?
//! 3. **Lazy vs eager sampling.** The lazy hashing sampler must agree edge
//!    for edge with an eagerly materialised copy of the same instance — this
//!    is the correctness property the whole probe-accounting design rests on.

use faultnet_analysis::stats::Summary;
use faultnet_analysis::table::{fmt_float, Table};
use faultnet_faultmodel::BernoulliEdges;
use faultnet_percolation::sample::{BitsetSample, EdgeStates, FrozenSample};
use faultnet_percolation::PercolationConfig;
use faultnet_routing::bfs::FloodRouter;
use faultnet_routing::complexity::{ComplexityHarness, TrialRouter};
use faultnet_routing::dfs::{DepthFirstRouter, NeighborOrder};
use faultnet_routing::hypercube::{GreedyHypercubeRouter, SegmentRouter};
use faultnet_routing::mesh::MeshLandmarkRouter;
use faultnet_topology::hypercube::Hypercube;
use faultnet_topology::mesh::Mesh;
use faultnet_topology::Topology;

use crate::report::{Effort, ExperimentReport};
use crate::TrialExec;

/// Summary of one router in the hypercube router ablation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RouterAblationRow {
    /// Router name.
    pub router: String,
    /// Success rate under the `{u ∼ v}` conditioning.
    pub success_rate: f64,
    /// Mean probes over successful trials.
    pub mean_probes: f64,
    /// Median probes over successful trials.
    pub median_probes: f64,
}

/// Runs the hypercube router ablation at one `(n, p)` point under `exec`
/// (the result is identical for every value).
pub(crate) fn hypercube_router_ablation(
    dimension: u32,
    p: f64,
    trials: u32,
    base_seed: u64,
    exec: TrialExec,
) -> Vec<RouterAblationRow> {
    let cube = Hypercube::new(dimension);
    let harness = ComplexityHarness::new(cube, PercolationConfig::new(p, base_seed));
    vec![
        router_row(&harness, &GreedyHypercubeRouter::strict(), trials, exec),
        router_row(
            &harness,
            &GreedyHypercubeRouter::with_detours(100_000),
            trials,
            exec,
        ),
        router_row(
            &harness,
            &DepthFirstRouter::new(NeighborOrder::GreedyTowardsTarget),
            trials,
            exec,
        ),
        router_row(&harness, &SegmentRouter::default(), trials, exec),
        router_row(&harness, &FloodRouter::new(), trials, exec),
    ]
}

/// One row of the router ablation: `router` on the canonical pair.
fn router_row<R>(
    harness: &ComplexityHarness<Hypercube>,
    router: &R,
    trials: u32,
    exec: TrialExec,
) -> RouterAblationRow
where
    R: TrialRouter<Hypercube>,
{
    let (u, v) = harness.graph().canonical_pair();
    let stats = harness.measure(&BernoulliEdges::new(), router, u, v, trials, exec);
    let summary = Summary::from_counts(stats.probe_counts().iter().copied());
    RouterAblationRow {
        router: stats.router().to_string(),
        success_rate: stats.success_rate(),
        mean_probes: summary.mean(),
        median_probes: summary.median(),
    }
}

/// Runs the mesh escalation ablation at one `(p, distance)` point; returns
/// `(label, mean probes)` rows.
pub(crate) fn mesh_escalation_ablation(
    p: f64,
    side: u64,
    trials: u32,
    base_seed: u64,
    exec: TrialExec,
) -> Vec<(String, f64)> {
    let mesh = Mesh::new(2, side);
    let (u, v) = mesh.canonical_pair();
    let harness = ComplexityHarness::new(mesh, PercolationConfig::new(p, base_seed));
    let variants: Vec<(String, MeshLandmarkRouter)> = vec![
        ("unbounded (paper)".to_string(), MeshLandmarkRouter::new()),
        (
            "escalating 1..4".to_string(),
            MeshLandmarkRouter::with_escalation(1, 4),
        ),
        (
            "escalating 2..16".to_string(),
            MeshLandmarkRouter::with_escalation(2, 16),
        ),
    ];
    variants
        .into_iter()
        .map(|(label, router)| {
            let stats = harness.measure(&BernoulliEdges::new(), &router, u, v, trials, exec);
            (
                label,
                Summary::from_counts(stats.probe_counts().iter().copied()).mean(),
            )
        })
        .collect()
}

/// Checks that the lazy sampler, an eagerly frozen copy, and the bitset
/// materialisation all agree on every edge of the given hypercube instance;
/// returns `(edges, open_edges, disagreements)` where a disagreement is any
/// edge on which one of the materialised views differs from the lazy
/// sampler.
pub(crate) fn sampling_agreement(dimension: u32, p: f64, seed: u64) -> (u64, u64, u64) {
    let cube = Hypercube::new(dimension);
    let sampler = PercolationConfig::new(p, seed).sampler();
    let frozen = FrozenSample::from_sampler(&cube, &sampler);
    let bitset = BitsetSample::from_states(&cube, &sampler);
    let mut open = 0u64;
    let mut disagreements = 0u64;
    let edges = cube.edges();
    for e in &edges {
        let lazy = sampler.is_open(*e);
        if lazy {
            open += 1;
        }
        if lazy != frozen.is_open(*e) || lazy != bitset.is_open(*e) {
            disagreements += 1;
        }
    }
    (edges.len() as u64, open, disagreements)
}

/// The E10 experiment.
#[derive(Debug, Clone)]
pub struct AblationExperiment {
    /// Hypercube dimension for the router ablation.
    pub dimension: u32,
    /// Retention probabilities for the router ablation.
    pub hypercube_ps: Vec<f64>,
    /// Mesh side length for the escalation ablation.
    pub mesh_side: u64,
    /// Retention probability for the escalation ablation.
    pub mesh_p: f64,
    /// Trials per point.
    pub trials: u32,
    /// Base seed.
    pub base_seed: u64,
    /// Wall-clock execution knobs (the reported numbers are identical for
    /// every value).
    pub exec: TrialExec,
}

impl AblationExperiment {
    /// Configuration at the requested effort level.
    pub fn with_effort(effort: Effort) -> Self {
        AblationExperiment {
            dimension: effort.pick(9, 12),
            hypercube_ps: vec![0.6, 0.4, 0.25],
            mesh_side: effort.pick(17, 41),
            mesh_p: 0.65,
            trials: effort.pick(10, 40),
            base_seed: 0xFA10,
            exec: TrialExec::sequential(),
        }
    }

    /// Quick configuration (seconds) for tests and benches.
    pub fn quick() -> Self {
        Self::with_effort(Effort::Quick)
    }

    /// Full configuration used to produce EXPERIMENTS.md.
    pub fn full() -> Self {
        Self::with_effort(Effort::Full)
    }

    /// Sets the execution knobs.
    #[must_use]
    pub fn with_exec(mut self, exec: TrialExec) -> Self {
        self.exec = exec;
        self
    }

    /// Runs the ablations and assembles the report.
    pub fn run(&self) -> ExperimentReport {
        let _span = faultnet_obs::span("experiment.ablation");
        let mut report = ExperimentReport::new(
            "E10: ablations (router choice, search escalation, sampling)",
            "design-choice ablations for the Theorem 3(ii)/Theorem 4 algorithms and the sampling substrate",
        );
        for (pi, &p) in self.hypercube_ps.iter().enumerate() {
            let mut table = Table::new(["router", "success rate", "mean probes", "median probes"])
                .with_title(format!(
                    "hypercube n = {}, p = {p} ({} trials)",
                    self.dimension, self.trials
                ));
            let rows = hypercube_router_ablation(
                self.dimension,
                p,
                self.trials,
                self.base_seed.wrapping_add(pi as u64 * 67),
                self.exec,
            );
            for row in rows {
                table.push_row([
                    row.router,
                    fmt_float(row.success_rate),
                    fmt_float(row.mean_probes),
                    fmt_float(row.median_probes),
                ]);
            }
            report.push_table(table);
        }
        report.push_note(
            "Strict greedy is cheapest when it succeeds but its success rate collapses as faults \
             grow; the segment router keeps a 100% conditioned success rate at a small multiple of \
             the greedy cost, which is exactly the Theorem 3(ii) remark about greedy routing needing \
             a more extensive search near the target."
                .to_string(),
        );

        let mut mesh_table =
            Table::new(["per-gap search policy", "mean probes"]).with_title(format!(
                "mesh landmark escalation ablation (side {}, p = {}, {} trials)",
                self.mesh_side, self.mesh_p, self.trials
            ));
        for (label, probes) in mesh_escalation_ablation(
            self.mesh_p,
            self.mesh_side,
            self.trials,
            self.base_seed ^ 0x1111,
            self.exec,
        ) {
            mesh_table.push_row([label, fmt_float(probes)]);
        }
        report.push_table(mesh_table);

        let (edges, open, disagreements) =
            sampling_agreement(self.dimension, 0.5, self.base_seed ^ 0x2222);
        let mut sampling_table = Table::new(["edges", "open edges", "lazy/eager disagreements"])
            .with_title("lazy vs materialised (frozen set + bitset) sampling of the same instance");
        sampling_table.push_row([
            edges.to_string(),
            open.to_string(),
            disagreements.to_string(),
        ]);
        report.push_table(sampling_table);
        report.push_note(format!(
            "sampling agreement: {disagreements} disagreements over {edges} edges (must be 0)"
        ));
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_ablation_orders_routers_sensibly() {
        let rows =
            hypercube_router_ablation(9, 0.6, 10, 3, TrialExec::sequential().with_threads(2));
        assert_eq!(rows.len(), 5);
        let flood = rows.iter().find(|r| r.router.contains("flood")).unwrap();
        let segment = rows.iter().find(|r| r.router.contains("segment")).unwrap();
        assert_eq!(flood.success_rate, 1.0);
        assert_eq!(segment.success_rate, 1.0);
        assert!(segment.mean_probes < flood.mean_probes);
    }

    #[test]
    fn mesh_escalation_variants_all_complete() {
        let rows = mesh_escalation_ablation(0.7, 13, 8, 5, TrialExec::sequential());
        assert_eq!(rows.len(), 3);
        for (label, probes) in rows {
            assert!(probes.is_finite(), "{label} produced no successes");
        }
    }

    #[test]
    fn lazy_and_eager_sampling_agree() {
        let (edges, open, disagreements) = sampling_agreement(8, 0.5, 9);
        assert_eq!(disagreements, 0);
        assert!(open > 0 && open < edges);
    }

    #[test]
    fn quick_report_renders() {
        let report = AblationExperiment::quick().run();
        assert!(report.tables().len() >= 5);
        assert!(report
            .notes()
            .iter()
            .any(|n| n.contains("sampling agreement: 0 disagreements")));
    }
}

//! E4 — linear-time routing on the supercritical mesh (Theorem 4).
//!
//! Theorem 4: on the `d`-dimensional mesh with any fixed `p > p_c^d`, the
//! landmark router finds a path between vertices at distance `n` with
//! expected `O(n)` probes. The experiment measures the conditioned mean probe
//! count as a function of the distance for several `p` (from just above the
//! threshold up to nearly fault-free), fits the scaling exponent, and
//! contrasts the landmark router with the flooding baseline whose cost grows
//! with the *area* rather than the distance.

use faultnet_analysis::figure::{AsciiFigure, Scale, Series};
use faultnet_analysis::regression::fit_power_law;
use faultnet_analysis::stats::Summary;
use faultnet_analysis::table::{fmt_float, Table};
use faultnet_faultmodel::BernoulliEdges;
use faultnet_percolation::PercolationConfig;
use faultnet_routing::bfs::FloodRouter;
use faultnet_routing::complexity::ComplexityHarness;
use faultnet_routing::mesh::MeshLandmarkRouter;
use faultnet_topology::mesh::Mesh;

use crate::report::{Effort, ExperimentReport};
use crate::TrialExec;

/// One measured point: probes at a given distance on a given mesh.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MeshPoint {
    /// Mesh dimension `d`.
    pub dimension: u32,
    /// Retention probability.
    pub p: f64,
    /// Distance between the routed pair.
    pub distance: u64,
    /// Fraction of instances in which the pair was connected.
    pub connectivity_rate: f64,
    /// Conditioned mean probes of the landmark router.
    pub landmark_mean_probes: f64,
    /// Conditioned mean probes of the flooding baseline (`NaN` if skipped).
    pub flood_mean_probes: f64,
}

/// Builds the mesh and pair used for a distance-`distance` measurement: a
/// `d`-dimensional mesh with a small margin around a straight pair. Shared
/// with the fault-model experiment so every model is measured on the exact
/// grid geometry of E4.
pub(crate) fn mesh_and_pair(
    dimension: u32,
    distance: u64,
) -> (
    Mesh,
    faultnet_topology::VertexId,
    faultnet_topology::VertexId,
) {
    let margin = 2u64;
    let side = distance + 2 * margin + 1;
    let mesh = Mesh::new(dimension, side);
    let mut a = vec![margin; dimension as usize];
    let mut b = vec![margin; dimension as usize];
    b[0] = margin + distance;
    a.iter_mut().skip(1).for_each(|c| *c = side / 2);
    b.iter_mut().skip(1).for_each(|c| *c = side / 2);
    let u = mesh.vertex_at(&a);
    let v = mesh.vertex_at(&b);
    (mesh, u, v)
}

/// Measures one `(d, p, distance)` point under `exec` (the result is
/// identical for every value).
pub(crate) fn measure_mesh_point(
    dimension: u32,
    p: f64,
    distance: u64,
    trials: u32,
    include_flood_baseline: bool,
    base_seed: u64,
    exec: TrialExec,
) -> MeshPoint {
    let (mesh, u, v) = mesh_and_pair(dimension, distance);
    let harness = ComplexityHarness::new(mesh, PercolationConfig::new(p, base_seed));
    let model = BernoulliEdges::new();
    let landmark = harness.measure(&model, &MeshLandmarkRouter::new(), u, v, trials, exec);
    let landmark_summary = Summary::from_counts(landmark.probe_counts().iter().copied());
    let flood_mean = if include_flood_baseline {
        let flood = harness.measure(&model, &FloodRouter::new(), u, v, trials, exec);
        Summary::from_counts(flood.probe_counts().iter().copied()).mean()
    } else {
        f64::NAN
    };
    MeshPoint {
        dimension,
        p,
        distance,
        connectivity_rate: landmark.connectivity_rate(),
        landmark_mean_probes: landmark_summary.mean(),
        flood_mean_probes: flood_mean,
    }
}

/// The E4 experiment.
#[derive(Debug, Clone)]
pub struct MeshRoutingExperiment {
    /// Mesh dimensions to evaluate (the paper's statement is for every `d`).
    pub dimensions: Vec<u32>,
    /// Retention probabilities (all above the corresponding `p_c^d`).
    pub ps: Vec<f64>,
    /// Pair distances to sweep.
    pub distances: Vec<u64>,
    /// Trials per point.
    pub trials: u32,
    /// Whether to also measure the flooding baseline (quadratic cost).
    pub include_flood_baseline: bool,
    /// Base seed.
    pub base_seed: u64,
    /// Wall-clock execution knobs (the reported numbers are identical for
    /// every value).
    pub exec: TrialExec,
}

impl MeshRoutingExperiment {
    /// Configuration at the requested effort level.
    pub fn with_effort(effort: Effort) -> Self {
        MeshRoutingExperiment {
            dimensions: effort.pick(vec![2], vec![2, 3]),
            ps: effort.pick(vec![0.6, 0.8], vec![0.55, 0.6, 0.7, 0.8, 0.9]),
            // The distance-160 point extends the Theorem 4 linear fit; it
            // assumes the parallel harness.
            distances: effort.pick(vec![8, 16, 32], vec![10, 20, 40, 80, 120, 160]),
            trials: effort.pick(10, 40),
            include_flood_baseline: true,
            base_seed: 0xFA04,
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

    /// Runs the experiment and assembles the report.
    pub fn run(&self) -> ExperimentReport {
        let _span = faultnet_obs::span("experiment.mesh_routing");
        let mut report = ExperimentReport::new(
            "E4: mesh routing above the percolation threshold",
            "Theorem 4 — expected routing complexity O(n) for any p > p_c^d",
        );
        for &d in &self.dimensions {
            let mut figure = AsciiFigure::new(format!(
                "mean probes vs distance on the {d}-dimensional mesh (landmark router)"
            ))
            .with_scales(Scale::Log, Scale::Log)
            .with_size(60, 16);
            for (pi, &p) in self.ps.iter().enumerate() {
                let mut table = Table::new([
                    "distance",
                    "connected",
                    "landmark mean probes",
                    "probes / distance",
                    "flood mean probes",
                ])
                .with_title(format!(
                    "mesh d = {d}, p = {p} ({} trials/point)",
                    self.trials
                ));
                let mut curve = Vec::new();
                for (di, &distance) in self.distances.iter().enumerate() {
                    let point = measure_mesh_point(
                        d,
                        p,
                        distance,
                        self.trials,
                        self.include_flood_baseline,
                        self.base_seed
                            .wrapping_add((pi as u64) << 24)
                            .wrapping_add((di as u64) << 8)
                            .wrapping_add(d as u64),
                        self.exec,
                    );
                    table.push_row([
                        distance.to_string(),
                        fmt_float(point.connectivity_rate),
                        fmt_float(point.landmark_mean_probes),
                        fmt_float(point.landmark_mean_probes / distance as f64),
                        fmt_float(point.flood_mean_probes),
                    ]);
                    if point.landmark_mean_probes.is_finite() {
                        curve.push((distance as f64, point.landmark_mean_probes));
                    }
                }
                report.push_table(table);
                if let Some(fit) = fit_power_law(&curve) {
                    report.push_note(format!(
                        "d = {d}, p = {p}: probes ≈ {:.2}·n^{:.2} (R² = {:.3}); Theorem 4 predicts exponent 1",
                        fit.amplitude, fit.exponent, fit.r_squared
                    ));
                }
                figure = figure.with_series(Series::new(format!("{p}"), curve));
            }
            report.push_figure(figure.render());
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_scale_roughly_linearly_with_distance() {
        let near = measure_mesh_point(
            2,
            0.8,
            8,
            10,
            false,
            1,
            TrialExec::sequential().with_threads(2),
        );
        let far = measure_mesh_point(
            2,
            0.8,
            32,
            10,
            false,
            1,
            TrialExec::sequential().with_threads(2),
        );
        assert!(near.connectivity_rate > 0.5);
        assert!(far.connectivity_rate > 0.5);
        // 4x the distance should cost well under 16x the probes (quadratic
        // growth would give 16x).
        assert!(
            far.landmark_mean_probes < near.landmark_mean_probes * 10.0,
            "near {} far {}",
            near.landmark_mean_probes,
            far.landmark_mean_probes
        );
    }

    #[test]
    fn landmark_router_beats_flooding() {
        let point = measure_mesh_point(2, 0.7, 16, 8, true, 5, TrialExec::sequential());
        assert!(point.flood_mean_probes.is_finite());
        assert!(point.landmark_mean_probes < point.flood_mean_probes);
    }

    #[test]
    fn quick_report_contains_fits() {
        let report = MeshRoutingExperiment::quick().run();
        assert!(report.tables().len() >= 2);
        assert_eq!(report.figures().len(), 1);
        assert!(report.notes().iter().any(|n| n.contains("exponent 1")));
    }

    #[test]
    fn mesh_and_pair_have_requested_distance() {
        let (mesh, u, v) = mesh_and_pair(3, 12);
        assert_eq!(faultnet_topology::Topology::distance(&mesh, u, v), Some(12));
    }
}

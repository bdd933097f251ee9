//! E11 — the fault-model scenario matrix: the paper's headline grids rerun
//! under every pluggable fault model, side by side.
//!
//! The paper proves its theorems for i.i.d. Bernoulli *edge* faults. This
//! experiment asks how far each result's *shape* survives when the fault
//! process changes: independent node (router) faults, geometrically
//! correlated fault regions, and budgeted adversarial cuts. Two grids are
//! rerun — the Theorem 4 mesh-routing distance sweep (E4) and the §1.2
//! hypercube giant-component/connectivity scan (E8a) — with one column per
//! model, so the benign-vs-structured-vs-adversarial gap is read straight
//! across each row.
//!
//! What the theory predicts (and the tables exhibit):
//!
//! * **Theorem 4 / mesh** — supercritical mesh routing stays `O(distance)`
//!   under node faults and correlated regions (both are still finite local
//!   perturbations of a supercritical percolation, cf. arXiv:1301.5993 for
//!   the node case); the adversary inflates the constant near the source
//!   but cannot change the exponent while its budget is below the source
//!   degree.
//! * **§1.2 / hypercube** — the giant-component threshold is robust to the
//!   benign models (node faults shift the curve by the survival factor `p`;
//!   a constant number of radius-`r` regions is vanishing volume), while
//!   connectivity is *fragile*: any dead vertex disconnects the cube, so
//!   the connectivity column collapses for every non-edge model.

use faultnet_analysis::stats::Summary;
use faultnet_analysis::table::{fmt_float, Table};
use faultnet_faultmodel::{FaultModel, FaultModelSpec};
use faultnet_percolation::PercolationConfig;
use faultnet_routing::complexity::ComplexityHarness;
use faultnet_routing::mesh::MeshLandmarkRouter;

use crate::hypercube_giant::measure_hypercube_point_with_model;
use crate::mesh_routing::mesh_and_pair;
use crate::report::{Effort, ExperimentReport};
use crate::TrialExec;

/// One measured mesh point under one model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ModelMeshPoint {
    /// Fraction of instances in which the pair was connected.
    pub connectivity_rate: f64,
    /// Conditioned mean probes of the landmark router (`NaN` if no trial
    /// conditioned).
    pub mean_probes: f64,
}

/// Measures the E4 landmark-router point (2-d mesh, straight pair at
/// `distance`) under `model` and `exec` — bit-identical numbers for every
/// `exec` (non-lane-batchable models fall back to the scalar store after a
/// one-shot stderr note).
pub(crate) fn measure_mesh_point_with_model<M: FaultModel + Sync + ?Sized>(
    model: &M,
    p: f64,
    distance: u64,
    trials: u32,
    base_seed: u64,
    exec: TrialExec,
) -> ModelMeshPoint {
    let (mesh, u, v) = mesh_and_pair(2, distance);
    let harness = ComplexityHarness::new(mesh, PercolationConfig::new(p, base_seed));
    let stats = harness.measure(model, &MeshLandmarkRouter::new(), u, v, trials, exec);
    ModelMeshPoint {
        connectivity_rate: stats.connectivity_rate(),
        mean_probes: Summary::from_counts(stats.probe_counts().iter().copied()).mean(),
    }
}

/// The E11 experiment.
#[derive(Debug, Clone)]
pub struct FaultModelsExperiment {
    /// Models to compare (columns of every table, in [`FaultModelSpec::ALL`]
    /// order unless restricted by `--fault-model`).
    pub models: Vec<FaultModelSpec>,
    /// Mesh retention probabilities (above `p_c² = 1/2`).
    pub mesh_ps: Vec<f64>,
    /// Mesh pair distances.
    pub mesh_distances: Vec<u64>,
    /// Trials per mesh point.
    pub mesh_trials: u32,
    /// Hypercube dimension for the giant/connectivity scan.
    pub cube_dimension: u32,
    /// Hypercube survival probabilities.
    pub cube_ps: Vec<f64>,
    /// Trials per hypercube point.
    pub cube_trials: u32,
    /// Base seed.
    pub base_seed: u64,
    /// Wall-clock execution knobs (the reported numbers are identical for
    /// every value).
    pub exec: TrialExec,
}

impl FaultModelsExperiment {
    /// Configuration at the requested effort level.
    pub fn with_effort(effort: Effort) -> Self {
        FaultModelsExperiment {
            models: FaultModelSpec::ALL.to_vec(),
            mesh_ps: effort.pick(vec![0.8], vec![0.7, 0.8, 0.9]),
            mesh_distances: effort.pick(vec![8, 16], vec![10, 20, 40, 80]),
            mesh_trials: effort.pick(8, 30),
            cube_dimension: effort.pick(8, 12),
            cube_ps: effort.pick(
                vec![0.3, 0.6, 0.9],
                vec![0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
            ),
            cube_trials: effort.pick(6, 20),
            base_seed: 0xFA11,
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

    /// Restricts the comparison to one model (the `--fault-model` knob);
    /// `None` keeps all models side by side.
    #[must_use]
    pub fn with_fault_model(mut self, model: Option<FaultModelSpec>) -> Self {
        if let Some(spec) = model {
            self.models = vec![spec];
        }
        self
    }

    /// Runs the experiment and assembles the report.
    pub fn run(&self) -> ExperimentReport {
        let _span = faultnet_obs::span("experiment.fault_models");
        let mut report = ExperimentReport::new(
            "E11: fault-model scenario matrix",
            "Theorem 4 + §1.2 grids under node, correlated, and adversarial fault models",
        );
        let built: Vec<(FaultModelSpec, Box<dyn FaultModel + Send + Sync>)> =
            self.models.iter().map(|s| (*s, s.build())).collect();
        // Seed offsets key on the model's *canonical* index, not its position
        // in the (possibly --fault-model-restricted) column list, so a
        // single-model rerun byte-reproduces its column of the full matrix.
        let canonical_index = |spec: FaultModelSpec| -> u64 {
            FaultModelSpec::ALL
                .iter()
                .position(|s| *s == spec)
                .expect("specs come from FaultModelSpec::ALL") as u64
        };

        // Grid 1: Theorem 4 mesh routing, one probe column per model.
        for (pi, &p) in self.mesh_ps.iter().enumerate() {
            let mut headers = vec!["distance".to_string()];
            headers.extend(built.iter().map(|(s, _)| format!("{s} probes")));
            let mut table = Table::new(headers).with_title(format!(
                "landmark routing on the 2-d mesh, p = {p} ({} trials/point)",
                self.mesh_trials
            ));
            for (di, &distance) in self.mesh_distances.iter().enumerate() {
                let mut row = vec![distance.to_string()];
                for (spec, model) in &built {
                    let point = measure_mesh_point_with_model(
                        model,
                        p,
                        distance,
                        self.mesh_trials,
                        self.base_seed
                            .wrapping_add((pi as u64) << 24)
                            .wrapping_add((di as u64) << 8)
                            .wrapping_add(canonical_index(*spec)),
                        self.exec,
                    );
                    row.push(fmt_float(point.mean_probes));
                }
                table.push_row(row);
            }
            report.push_table(table);
        }

        // Grid 2: hypercube giant fraction and connectivity per model.
        let n = self.cube_dimension;
        let mut giant = Table::new(
            std::iter::once("p".to_string())
                .chain(built.iter().map(|(s, _)| format!("{s} giant")))
                .collect::<Vec<_>>(),
        )
        .with_title(format!(
            "H_{{{n},p}} giant fraction per fault model ({} trials)",
            self.cube_trials
        ));
        let mut conn = Table::new(
            std::iter::once("p".to_string())
                .chain(built.iter().map(|(s, _)| format!("{s} Pr[conn]")))
                .collect::<Vec<_>>(),
        )
        .with_title(format!(
            "H_{{{n},p}} connectivity per fault model ({} trials)",
            self.cube_trials
        ));
        for (qi, &p) in self.cube_ps.iter().enumerate() {
            let mut giant_row = vec![format!("{p:.2}")];
            let mut conn_row = vec![format!("{p:.2}")];
            for (spec, model) in &built {
                let point = measure_hypercube_point_with_model(
                    model,
                    n,
                    p,
                    self.cube_trials,
                    self.base_seed
                        .wrapping_add(0xC0DE)
                        .wrapping_add((qi as u64) * 131)
                        .wrapping_add(canonical_index(*spec)),
                    self.exec,
                );
                giant_row.push(fmt_float(point.giant_fraction));
                conn_row.push(fmt_float(point.connectivity));
            }
            giant.push_row(giant_row);
            conn.push_row(conn_row);
        }
        report.push_table(giant);
        report.push_table(conn);

        report.push_note(
            "Theorem 4's O(distance) shape is robust to node and correlated faults \
             (supercritical percolation survives local perturbations); the adversary \
             raises the constant near the source while its budget stays below deg(u)."
                .to_string(),
        );
        report.push_note(
            "Hypercube connectivity is fragile outside the edge model: one dead vertex \
             disconnects H_n, so Pr[connected] collapses for node/correlated faults even \
             where the giant component persists."
                .to_string(),
        );
        for (spec, model) in &built {
            // Record the shape parameters behind each parameterised column.
            if model.name() != spec.cli_name() {
                report.push_note(format!("{spec} = {}", model.name()));
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_report_has_one_probe_column_per_model() {
        let report = FaultModelsExperiment::quick().run();
        // One mesh table per p, plus the giant and connectivity tables.
        let expected_tables = FaultModelsExperiment::quick().mesh_ps.len() + 2;
        assert_eq!(report.tables().len(), expected_tables);
        assert_eq!(
            report.tables()[0].num_columns(),
            1 + FaultModelSpec::ALL.len()
        );
        assert!(report.render().contains("bernoulli-nodes"));
        assert!(report.render_markdown().contains("### E11"));
    }

    #[test]
    fn fault_model_restriction_narrows_the_columns() {
        let report = FaultModelsExperiment::quick()
            .with_fault_model(Some(FaultModelSpec::AdversarialBudget))
            .run();
        assert_eq!(report.tables()[0].num_columns(), 2);
        assert!(!report.render().contains("bernoulli-nodes giant"));
    }

    #[test]
    fn restricted_run_reproduces_its_full_matrix_column() {
        // Seed offsets key on the canonical model index, so rerunning one
        // model with --fault-model must byte-reproduce its column of the
        // full side-by-side matrix.
        let full = FaultModelsExperiment::quick().run();
        let only = FaultModelsExperiment::quick()
            .with_fault_model(Some(FaultModelSpec::AdversarialBudget))
            .run();
        let column = 1 + FaultModelSpec::ALL
            .iter()
            .position(|s| *s == FaultModelSpec::AdversarialBudget)
            .unwrap();
        for (full_table, only_table) in full.tables().iter().zip(only.tables()) {
            for (full_row, only_row) in full_table.rows().iter().zip(only_table.rows()) {
                assert_eq!(
                    full_row[column], only_row[1],
                    "restricted adversarial column diverged from the full matrix"
                );
            }
        }
    }

    #[test]
    fn node_faults_are_harsher_than_edge_faults_on_the_mesh() {
        let exec = TrialExec::sequential().with_threads(2);
        let edge = measure_mesh_point_with_model(
            &faultnet_faultmodel::BernoulliEdges::new(),
            0.9,
            8,
            12,
            7,
            exec,
        );
        let node = measure_mesh_point_with_model(
            &faultnet_faultmodel::BernoulliNodes::new(),
            0.9,
            8,
            12,
            7,
            exec,
        );
        assert!(edge.connectivity_rate > 0.0);
        assert!(
            node.connectivity_rate <= edge.connectivity_rate,
            "node {} vs edge {}",
            node.connectivity_rate,
            edge.connectivity_rate
        );
    }

    #[test]
    fn hypercube_connectivity_collapses_under_node_faults() {
        let exec = TrialExec::sequential().with_threads(2);
        let edge = measure_hypercube_point_with_model(
            &faultnet_faultmodel::BernoulliEdges::new(),
            8,
            0.9,
            6,
            3,
            exec,
        );
        let node = measure_hypercube_point_with_model(
            &faultnet_faultmodel::BernoulliNodes::new(),
            8,
            0.9,
            6,
            3,
            exec,
        );
        // At p = 0.9 the edge-fault cube is essentially always connected;
        // with 256 vertices each dying w.p. 0.1, the node-fault cube has
        // dead (isolated) vertices in virtually every instance.
        assert!(edge.connectivity > node.connectivity);
        assert!(node.giant_fraction > 0.5, "giant survives node faults");
    }

    #[test]
    fn batched_matrix_is_byte_identical_to_scalar() {
        // The adversarial column exercises the scalar fallback inside an
        // otherwise-batched run; the benign columns exercise the multispin
        // engine end to end. Either way, the rendered report must not move
        // by a byte.
        let scalar = FaultModelsExperiment::quick().run().render();
        for trial_batch in [1, 64] {
            let batched = FaultModelsExperiment::quick()
                .with_exec(
                    TrialExec::sequential()
                        .with_trial_batch(trial_batch)
                        .with_threads(2),
                )
                .run()
                .render();
            assert_eq!(scalar, batched, "trial_batch {trial_batch}");
        }
    }
}

//! The experiment registry — the single source of truth for what every
//! experiment binary executes.
//!
//! Kept as a library function so the `exp_*` binaries, `run_all` and the
//! end-to-end regression tests run the exact same code: the tests assert
//! that the rendered output is byte-identical across `--threads` values,
//! which is the determinism contract the parallel harness promises.
//!
//! Every experiment registers itself exactly once, in [`registry`]. Each
//! `exp_*` binary looks its entry up by name ([`crate::cli::run_binary`]),
//! and `run_all` (and anything else that wants "every experiment")
//! enumerates the registry instead of maintaining a second hand-written
//! list, so a newly registered experiment is automatically picked up by
//! `run_all_reports`, the byte-identity regression test, and the docs
//! listing. The registry's uniqueness invariants are themselves tested.

use crate::{
    ablation::AblationExperiment, chemical_distance::ChemicalDistanceExperiment,
    churn::ChurnExperiment, double_tree::DoubleTreeExperiment, fault_models::FaultModelsExperiment,
    gnp::GnpExperiment, hypercube_giant::HypercubeGiantExperiment,
    hypercube_lower_bound::HypercubeLowerBoundExperiment,
    hypercube_transition::HypercubeTransitionExperiment, mesh_routing::MeshRoutingExperiment,
    mesh_threshold::MeshThresholdExperiment, open_questions::OpenQuestionsExperiment,
    real_world::RealWorldExperiment, Effort, ExperimentReport, TrialExec,
};
use faultnet_faultmodel::FaultModelSpec;

/// One registered experiment: its identity plus a uniform way to run it at
/// any effort/thread configuration.
pub struct RegisteredExperiment {
    /// Experiment id in the paper-mapping scheme (`"E4"`, `"E8a"`, …).
    pub id: &'static str,
    /// Name of the dedicated binary (`"exp_mesh_routing"`, …).
    pub binary: &'static str,
    /// One-line description (paper result or scenario).
    pub title: &'static str,
    run: Run,
}

/// How an entry runs: with the fault model its experiment defines, or
/// with the one `--fault-model` selects.
enum Run {
    Fixed(fn(Effort, TrialExec) -> ExperimentReport),
    WithFaultModel(fn(Effort, TrialExec, Option<FaultModelSpec>) -> ExperimentReport),
}

impl RegisteredExperiment {
    /// Whether the experiment reads `--fault-model` (E11, E12 and E13).
    pub fn reads_fault_model(&self) -> bool {
        matches!(self.run, Run::WithFaultModel(_))
    }

    /// Runs the experiment at the given effort under `exec`, on
    /// `fault_model` if it [reads one](Self::reads_fault_model) (`None` =
    /// its default); the others ignore `fault_model`. Every knob is a pure
    /// wall-clock lever: the report is a function of `effort` and the
    /// fault model alone.
    pub fn run(
        &self,
        effort: Effort,
        exec: TrialExec,
        fault_model: Option<FaultModelSpec>,
    ) -> ExperimentReport {
        // `binary` is 'static, so it doubles as the span name: one span per
        // experiment, visible in `--trace` output as `exp_mesh_routing` etc.
        let _span = faultnet_obs::span(self.binary);
        match self.run {
            Run::Fixed(run) => run(effort, exec),
            Run::WithFaultModel(run) => run(effort, exec, fault_model),
        }
    }
}

/// Every experiment, in canonical E1→E13 order. The one list to extend when
/// adding an experiment (and its one-line `src/bin` file); the `exp_*`
/// binaries, `run_all` and the end-to-end tests derive from it.
pub fn registry() -> Vec<RegisteredExperiment> {
    // A macro keeps each entry to one line and guarantees every experiment
    // is wired through the same with_effort/with_exec/run protocol; an
    // entry ending in `, fault_model` also passes `--fault-model` through
    // its `with_fault_model`.
    macro_rules! experiments {
        (@run $ty:ty) => {
            Run::Fixed(|effort, exec| <$ty>::with_effort(effort).with_exec(exec).run())
        };
        (@run $ty:ty, fault_model) => {
            Run::WithFaultModel(|effort, exec, fault_model| {
                <$ty>::with_effort(effort).with_exec(exec).with_fault_model(fault_model).run()
            })
        };
        ($($id:literal, $binary:literal, $title:literal => $ty:ty $(, $reads:ident)?;)+) => {
            vec![$(RegisteredExperiment {
                id: $id,
                binary: $binary,
                title: $title,
                run: experiments!(@run $ty $(, $reads)?),
            }),+]
        };
    }
    experiments! {
        "E1/E3", "exp_hypercube_transition", "Theorem 3 — hypercube routing phase transition" => HypercubeTransitionExperiment;
        "E2", "exp_hypercube_lower_bound", "Lemma 5 — cut lower bound vs. measured cost" => HypercubeLowerBoundExperiment;
        "E4", "exp_mesh_routing", "Theorem 4 — O(n) mesh routing above p_c" => MeshRoutingExperiment;
        "E5", "exp_chemical_distance", "Lemma 8 — chemical distance is linear above p_c" => ChemicalDistanceExperiment;
        "E6", "exp_double_tree", "Lemma 6 + Theorems 7, 9 — double tree local vs. oracle" => DoubleTreeExperiment;
        "E7", "exp_gnp", "Theorems 10, 11 — G(n,p) local n² vs. oracle n^{3/2}" => GnpExperiment;
        "E8a", "exp_hypercube_giant", "§1.2 — hypercube giant/connectivity thresholds" => HypercubeGiantExperiment;
        "E8b", "exp_mesh_threshold", "§1.2 — mesh percolation threshold" => MeshThresholdExperiment;
        "E9", "exp_open_questions", "§6 open questions — constant-degree families" => OpenQuestionsExperiment;
        "E10", "exp_ablation", "design-choice ablations" => AblationExperiment;
        "E11", "exp_fault_models", "fault-model scenario matrix (node/correlated/adversarial)" => FaultModelsExperiment, fault_model;
        "E12", "exp_churn", "dynamic fault churn — incremental census over fail/repair dynamics" => ChurnExperiment, fault_model;
        "E13", "exp_real_world", "fault-model matrix on real-world/scale-free substrates" => RealWorldExperiment, fault_model;
    }
}

/// The registered experiment whose dedicated binary is `binary`.
///
/// # Panics
///
/// Panics if no registered experiment has that binary name.
pub fn registered(binary: &str) -> RegisteredExperiment {
    registry()
        .into_iter()
        .find(|e| e.binary == binary)
        .unwrap_or_else(|| panic!("{binary} is not a registered experiment"))
}

/// Runs every registered experiment at the given effort under `exec`, in
/// registry order and each on its default fault model, and returns the
/// reports.
///
/// The reported numbers are a pure function of `effort` (each experiment
/// bakes in its base seed); `exec` only changes wall-clock time.
pub fn run_all_reports(effort: Effort, exec: TrialExec) -> Vec<ExperimentReport> {
    registry()
        .iter()
        .map(|experiment| experiment.run(effort, exec, None))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn registry_ids_and_binaries_are_unique() {
        let experiments = registry();
        let ids: HashSet<_> = experiments.iter().map(|e| e.id).collect();
        let binaries: HashSet<_> = experiments.iter().map(|e| e.binary).collect();
        assert_eq!(ids.len(), experiments.len(), "duplicate experiment id");
        assert_eq!(binaries.len(), experiments.len(), "duplicate binary name");
    }

    #[test]
    fn fault_models_experiment_is_registered() {
        assert!(
            registry().iter().any(|e| e.binary == "exp_fault_models"),
            "exp_fault_models missing from the registry — run_all would skip it"
        );
    }

    #[test]
    fn churn_experiment_is_registered_as_scalar() {
        // The churn walk evolves one instance per trial and never enters
        // the trial loop, so it has no store to pick.
        let experiments = registry();
        let churn = experiments
            .iter()
            .find(|e| e.binary == "exp_churn")
            .expect("exp_churn missing from the registry — run_all would skip it");
        assert_eq!(churn.id, "E12");
    }

    #[test]
    fn every_binary_is_registered_and_only_e11_e12_e13_read_the_fault_model() {
        let bins = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
        let mut found = 0;
        for entry in std::fs::read_dir(bins).expect("src/bin is readable") {
            let name = entry.expect("directory entry").file_name();
            let Some(binary) = name.to_str().and_then(|n| n.strip_suffix(".rs")) else {
                continue;
            };
            if binary == "run_all" {
                continue;
            }
            assert_eq!(registered(binary).binary, binary);
            found += 1;
        }
        assert_eq!(
            found,
            registry().len(),
            "a registered experiment has no binary"
        );
        let readers: Vec<_> = registry()
            .into_iter()
            .filter(RegisteredExperiment::reads_fault_model)
            .map(|e| e.id)
            .collect();
        assert_eq!(readers, ["E11", "E12", "E13"]);
    }

    #[test]
    #[should_panic(expected = "not a registered experiment")]
    fn unregistered_binaries_are_rejected() {
        let _ = registered("exp_missing");
    }
}

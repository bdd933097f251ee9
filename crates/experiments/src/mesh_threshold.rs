//! E8b — mesh critical probabilities.
//!
//! Theorem 4 applies for every `p > p_c^d`; the paper quotes `p_c² = 1/2` and
//! `p_c^d = (1 + o(1))/2d` (§1.2). This experiment estimates the thresholds
//! by bisection on the giant-fraction curve of tori (wrap-around meshes, to
//! suppress boundary effects) of growing side length.

use faultnet_analysis::sweep::Sweep;
use faultnet_analysis::table::{fmt_float, Table};
use faultnet_topology::torus::Torus;

use crate::report::{Effort, ExperimentReport};
use crate::threshold::{estimate_threshold, giant_fraction_sweep};
use crate::TrialExec;

/// The E8b experiment.
#[derive(Debug, Clone)]
pub struct MeshThresholdExperiment {
    /// `(dimension, side lengths)` pairs to evaluate.
    pub cases: Vec<(u32, Vec<u64>)>,
    /// Giant-fraction level whose crossing defines the finite-size threshold.
    pub target_fraction: f64,
    /// Trials per probability evaluation.
    pub trials: u32,
    /// Bisection tolerance on `p`.
    pub tolerance: f64,
    /// Probabilities for the reported giant-fraction sweep.
    pub sweep_ps: Vec<f64>,
    /// Base seed.
    pub base_seed: u64,
    /// Wall-clock execution knobs (the reported numbers are identical for
    /// every value).
    pub exec: TrialExec,
}

impl MeshThresholdExperiment {
    /// Configuration at the requested effort level.
    pub fn with_effort(effort: Effort) -> Self {
        MeshThresholdExperiment {
            // The side-96 / side-20 points shrink the finite-size drift of
            // the p_c estimates; they assume the parallel bisections.
            cases: effort.pick(
                vec![(2, vec![16, 24]), (3, vec![6, 8])],
                vec![(2, vec![24, 40, 64, 96]), (3, vec![8, 12, 16, 20])],
            ),
            target_fraction: 0.25,
            trials: effort.pick(4, 20),
            tolerance: effort.pick(0.02, 0.005),
            sweep_ps: vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8],
            base_seed: 0xFA05,
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
        let _span = faultnet_obs::span("experiment.mesh_threshold");
        let mut report = ExperimentReport::new(
            "E8b: mesh percolation thresholds",
            "§1.2 background — p_c² = 1/2, p_c^d decreasing in d (applicability boundary of Theorem 4)",
        );
        let mut estimates =
            Table::new(["d", "side", "estimated p_c", "reference"]).with_title(format!(
                "threshold estimates (giant fraction crossing {}, tolerance {})",
                self.target_fraction, self.tolerance
            ));
        // Flatten the (dimension, side) grid so every bisection can run on
        // its own worker; the sweep preserves order, so the table rows come
        // out identical to a sequential run.
        let mut bisection_points = Vec::new();
        for (case_index, (d, sides)) in self.cases.iter().enumerate() {
            for (side_index, &side) in sides.iter().enumerate() {
                bisection_points.push((case_index, *d, side_index, side));
            }
        }
        // Each bisection is inherently sequential in p and runs on its own
        // worker, so its trials stay on that worker; trial batching still
        // applies inside every evaluation.
        let inner = self.exec.with_threads(1);
        let estimated = Sweep::over(bisection_points).run_parallel(
            self.exec.threads,
            |&(case_index, d, side_index, side)| {
                let torus = Torus::new(d, side);
                let seed = self
                    .base_seed
                    .wrapping_add((case_index as u64) << 20)
                    .wrapping_add(side_index as u64);
                estimate_threshold(
                    &torus,
                    self.target_fraction,
                    self.trials,
                    self.tolerance,
                    seed,
                    inner,
                )
            },
        );
        for point in &estimated {
            let (_, d, _, side) = point.parameter;
            let reference = match d {
                2 => "0.5 (exact)".to_string(),
                3 => "\u{2248} 0.2488".to_string(),
                other => format!(
                    "\u{2248} {:.3} (1/2d heuristic)",
                    1.0 / (2.0 * other as f64)
                ),
            };
            estimates.push_row([
                d.to_string(),
                side.to_string(),
                fmt_float(point.value),
                reference,
            ]);
        }
        for (case_index, (d, sides)) in self.cases.iter().enumerate() {
            // A giant-fraction sweep for the largest side of this dimension.
            let &largest = sides.last().expect("at least one side per case");
            let torus = Torus::new(*d, largest);
            let sweep_seed = self.base_seed.wrapping_add(777 + case_index as u64);
            let sweep =
                giant_fraction_sweep(&torus, &self.sweep_ps, self.trials, sweep_seed, self.exec);
            let mut sweep_table = Table::new(["p", "giant fraction"]).with_title(format!(
                "giant fraction sweep, d = {d}, torus side {largest}"
            ));
            for point in sweep {
                sweep_table.push_row([fmt_float(point.p), fmt_float(point.giant_fraction)]);
            }
            report.push_table(sweep_table);
        }
        report.push_table(estimates);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_dimensional_estimate_is_near_one_half() {
        let torus = Torus::new(2, 20);
        let est = estimate_threshold(&torus, 0.25, 4, 0.02, 9, TrialExec::sequential());
        assert!((0.35..0.65).contains(&est), "estimate {est}");
    }

    #[test]
    fn three_dimensional_threshold_is_below_two_dimensional() {
        let t2 = estimate_threshold(
            &Torus::new(2, 16),
            0.25,
            4,
            0.02,
            5,
            TrialExec::sequential(),
        );
        let t3 = estimate_threshold(&Torus::new(3, 7), 0.25, 4, 0.02, 5, TrialExec::sequential());
        assert!(t3 < t2, "t3 {t3} should be below t2 {t2}");
    }

    #[test]
    fn quick_report_renders() {
        let report = MeshThresholdExperiment::quick().run();
        assert!(report.tables().len() >= 3);
        assert!(report.render().contains("p_c"));
    }

    #[test]
    fn quick_report_is_byte_identical_with_batching() {
        // Every probability evaluation inside every bisection must land on
        // the same bits whether its trials are scalar or lane-packed —
        // otherwise the bisection could take a *different path* through p.
        let scalar = MeshThresholdExperiment::quick().run().render();
        let batched = MeshThresholdExperiment::quick()
            .with_exec(TrialExec::sequential().with_trial_batch(64).with_threads(2))
            .run()
            .render();
        assert_eq!(scalar, batched);
    }
}

//! E1/E3 — the hypercube routing phase transition (Theorem 3).
//!
//! For `p = n^{-α}` the paper proves that local routing complexity is
//! polynomial in `n` for `α < 1/2` (Theorem 3(ii)) and `2^{Ω(n^β)}` for
//! `α > 1/2` (Theorem 3(i)). This experiment sweeps `α` across the predicted
//! transition for several dimensions and measures the cost of the
//! Theorem 3(ii) segment router (with the flooding router as the classical
//! baseline), reporting:
//!
//! * the conditioned mean probe count as a function of `α` (the "figure":
//!   log-cost against `α`, one series per dimension),
//! * the fraction of trials stopped by the probe budget (a direct signature
//!   of the hard phase),
//! * the location of the steepest rise of the log-cost curve — the measured
//!   transition point, to compare against the predicted `α = 1/2`.

use faultnet_analysis::figure::{AsciiFigure, Scale, Series};
use faultnet_analysis::phase::steepest_rise;
use faultnet_analysis::stats::Summary;
use faultnet_analysis::table::{fmt_float, Table};
use faultnet_faultmodel::BernoulliEdges;
use faultnet_percolation::PercolationConfig;
use faultnet_routing::complexity::ComplexityHarness;
use faultnet_routing::hypercube::SegmentRouter;
use faultnet_topology::hypercube::Hypercube;
use faultnet_topology::Topology;

use crate::report::{Effort, ExperimentReport};
use crate::TrialExec;

/// One measured point of the `α` sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlphaPoint {
    /// Hypercube dimension `n`.
    pub dimension: u32,
    /// Fault exponent `α` (so `p = n^{-α}`).
    pub alpha: f64,
    /// The edge retention probability `p = n^{-α}`.
    pub p: f64,
    /// Fraction of sampled instances in which the pair was connected.
    pub connectivity_rate: f64,
    /// Fraction of conditioned trials the router completed within budget.
    pub success_rate: f64,
    /// Fraction of conditioned trials stopped by the probe budget.
    pub budget_exhaustion_rate: f64,
    /// Mean probe count over completed trials (`NaN` if none).
    pub mean_probes: f64,
    /// 90th percentile of the completed-trial probe counts (`NaN` if none).
    pub p90_probes: f64,
    /// Mean *cost*, where budget-exhausted trials are charged the full
    /// budget (a lower bound on their true cost).
    pub mean_cost: f64,
}

/// Measures one `(n, α)` point with the segment router under `exec` (the
/// result is identical for every value).
pub fn measure_alpha_point(
    dimension: u32,
    alpha: f64,
    trials: u32,
    probe_budget: u64,
    base_seed: u64,
    exec: TrialExec,
) -> AlphaPoint {
    let cube = Hypercube::new(dimension);
    let p = (dimension as f64).powf(-alpha).min(1.0);
    let harness = ComplexityHarness::new(cube, PercolationConfig::new(p, base_seed))
        .with_probe_budget(probe_budget);
    let (u, v) = cube.canonical_pair();
    let router = SegmentRouter::for_alpha(alpha, 16);
    let stats = harness.measure(&BernoulliEdges::new(), &router, u, v, trials, exec);
    let summary = Summary::from_counts(stats.probe_counts().iter().copied());
    let conditioned = stats.conditioned_trials().max(1) as f64;
    let mean_cost = (stats.probe_counts().iter().sum::<u64>() as f64
        + stats.budget_exhaustions() as f64 * probe_budget as f64)
        / conditioned;
    AlphaPoint {
        dimension,
        alpha,
        p,
        connectivity_rate: stats.connectivity_rate(),
        success_rate: stats.success_rate(),
        budget_exhaustion_rate: stats.budget_exhaustions() as f64 / conditioned,
        mean_probes: summary.mean(),
        p90_probes: summary.quantile(0.9),
        mean_cost: if stats.conditioned_trials() == 0 {
            f64::NAN
        } else {
            mean_cost
        },
    }
}

/// The E1/E3 experiment: sweep `α` across the predicted transition.
#[derive(Debug, Clone)]
pub struct HypercubeTransitionExperiment {
    /// Hypercube dimensions to sweep.
    pub dimensions: Vec<u32>,
    /// Fault exponents `α` to sweep.
    pub alphas: Vec<f64>,
    /// Independent percolation instances per point.
    pub trials: u32,
    /// Probe budget per trial (trials exceeding it are reported as such).
    pub probe_budget: u64,
    /// Base seed.
    pub base_seed: u64,
    /// Wall-clock execution knobs (the reported numbers are identical for
    /// every value).
    pub exec: TrialExec,
}

impl HypercubeTransitionExperiment {
    /// Configuration at the requested effort level.
    pub fn with_effort(effort: Effort) -> Self {
        HypercubeTransitionExperiment {
            // The n = 16 point (65 536 vertices) exists to sharpen the
            // measured transition location; it is only tractable with the
            // parallel harness.
            dimensions: effort.pick(vec![9, 11], vec![10, 12, 14, 16]),
            alphas: effort.pick(
                vec![0.1, 0.3, 0.5, 0.7, 0.9],
                vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
            ),
            trials: effort.pick(8, 40),
            probe_budget: effort.pick(30_000, 400_000),
            base_seed: 0xFA01,
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

    /// Runs the sweep and assembles the report.
    pub fn run(&self) -> ExperimentReport {
        let _span = faultnet_obs::span("experiment.hypercube_transition");
        let mut report = ExperimentReport::new(
            "E1/E3: hypercube routing phase transition",
            "Theorem 3 — local routing is polynomial for α < 1/2 and exponential for α > 1/2",
        );
        let mut figure = AsciiFigure::new(
            "mean routing cost (log10) vs fault exponent α — segment router, one series per n",
        )
        .with_scales(Scale::Linear, Scale::Log)
        .with_size(64, 18);

        for &n in &self.dimensions {
            let mut table = Table::new([
                "alpha",
                "p = n^-alpha",
                "connected",
                "success",
                "budget-hit",
                "mean probes",
                "p90 probes",
                "mean cost",
            ])
            .with_title(format!("hypercube n = {n} ({} trials/point)", self.trials));
            let mut series_points = Vec::new();
            let mut transition_curve = Vec::new();
            for (i, &alpha) in self.alphas.iter().enumerate() {
                let point = measure_alpha_point(
                    n,
                    alpha,
                    self.trials,
                    self.probe_budget,
                    self.base_seed.wrapping_add(i as u64 * 1000 + n as u64),
                    self.exec,
                );
                table.push_row([
                    format!("{alpha:.2}"),
                    fmt_float(point.p),
                    fmt_float(point.connectivity_rate),
                    fmt_float(point.success_rate),
                    fmt_float(point.budget_exhaustion_rate),
                    fmt_float(point.mean_probes),
                    fmt_float(point.p90_probes),
                    fmt_float(point.mean_cost),
                ]);
                if point.mean_cost.is_finite() {
                    series_points.push((alpha, point.mean_cost));
                    transition_curve.push((alpha, point.mean_cost.ln()));
                }
            }
            report.push_table(table);
            if let Some(alpha_star) = steepest_rise(&transition_curve) {
                report.push_note(format!(
                    "n = {n}: steepest rise of log-cost at α ≈ {alpha_star:.2} (paper predicts the transition at α = 0.5)"
                ));
            }
            figure = figure.with_series(Series::new(format!("{n}"), series_points));
        }
        report.push_figure(figure.render());
        report.push_note(
            "Budget-exhausted trials are charged the full budget, so the reported cost in the hard \
             phase is a lower bound."
                .to_string(),
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn easy_regime_is_cheap_and_complete() {
        let point = measure_alpha_point(10, 0.2, 8, 50_000, 7, TrialExec::sequential());
        assert!(point.connectivity_rate > 0.9);
        assert_eq!(point.success_rate, 1.0);
        assert_eq!(point.budget_exhaustion_rate, 0.0);
        assert!(point.mean_probes < 5_000.0);
        assert!((point.p - 10f64.powf(-0.2)).abs() < 1e-12);
    }

    #[test]
    fn hard_regime_costs_much_more_than_easy_regime() {
        // α = 0.75 (> 1/2) vs α = 0.25 (< 1/2) on the 11-cube: the conditioned
        // mean cost must be markedly larger in the hard regime.
        let easy = measure_alpha_point(
            11,
            0.25,
            8,
            100_000,
            11,
            TrialExec::sequential().with_threads(2),
        );
        let hard = measure_alpha_point(
            11,
            0.75,
            8,
            100_000,
            11,
            TrialExec::sequential().with_threads(2),
        );
        assert!(easy.mean_cost.is_finite());
        if hard.mean_cost.is_finite() {
            assert!(
                hard.mean_cost > 3.0 * easy.mean_cost,
                "hard {} vs easy {}",
                hard.mean_cost,
                easy.mean_cost
            );
        }
    }

    #[test]
    fn quick_experiment_produces_a_full_report() {
        let report = HypercubeTransitionExperiment::quick().run();
        assert_eq!(report.tables().len(), 2);
        assert_eq!(report.figures().len(), 1);
        assert!(!report.notes().is_empty());
        let text = report.render();
        assert!(text.contains("Theorem 3"));
        assert!(text.contains("alpha"));
    }

    #[test]
    fn effort_configurations_differ() {
        let quick = HypercubeTransitionExperiment::quick();
        let full = HypercubeTransitionExperiment::full();
        assert!(quick.trials < full.trials);
        assert!(quick.alphas.len() < full.alphas.len());
        assert!(quick.probe_budget < full.probe_budget);
    }
}

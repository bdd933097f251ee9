//! E6 — the double binary tree: connectivity threshold, exponential local
//! routing, linear oracle routing (Lemma 6, Theorems 7 and 9).
//!
//! Three measurements on `TT_n`:
//!
//! 1. **Lemma 6** — the probability that the two roots are connected, as a
//!    function of `p`, against the exact Galton–Watson recursion; the curve
//!    collapses to 0 below `1/√2 ≈ 0.707` as the depth grows.
//! 2. **Theorem 7** — the conditioned probe count of the local router as a
//!    function of the depth `n`, which grows exponentially (semi-log fit),
//!    together with the probes certified by the Theorem 7 bound.
//! 3. **Theorem 9** — the probe count of the paired-DFS oracle router, which
//!    grows only linearly in `n` (power-law fit with exponent ≈ 1).

use faultnet_analysis::figure::{AsciiFigure, Scale, Series};
use faultnet_analysis::phase::crossing_point;
use faultnet_analysis::regression::{fit_exponential, fit_line};
use faultnet_analysis::stats::Summary;
use faultnet_analysis::sweep::Sweep;
use faultnet_analysis::table::{fmt_float, Table};
use faultnet_faultmodel::BernoulliEdges;
use faultnet_percolation::branching::{
    double_tree_connection_probability, double_tree_critical_probability,
};
use faultnet_percolation::PercolationConfig;
use faultnet_routing::complexity::ComplexityHarness;
use faultnet_routing::lower_bound::double_tree_certified_probes;
use faultnet_routing::tree::{LeafPenetrationRouter, PairedDfsOracleRouter};
use faultnet_topology::double_tree::DoubleBinaryTree;

use crate::report::{Effort, ExperimentReport};
use crate::TrialExec;

/// Connection-probability measurement at one `(depth, p)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ConnectionPoint {
    /// Tree depth.
    pub depth: u32,
    /// Retention probability.
    pub p: f64,
    /// Measured root-to-root connection frequency.
    pub measured: f64,
    /// Exact Galton–Watson recursion value.
    pub exact: f64,
}

/// Measures the root connectivity frequency of `TT_depth` at probability
/// `p`, fanning the instances across `threads` workers. The per-instance
/// connectivity checks are merged in trial order, so the measured frequency
/// is identical for every thread count.
pub(crate) fn measure_connection_point(
    depth: u32,
    p: f64,
    trials: u32,
    base_seed: u64,
    threads: usize,
) -> ConnectionPoint {
    let tt = DoubleBinaryTree::new(depth);
    let (x, y) = tt.roots();
    let connected = Sweep::over(0..trials).run_parallel(threads.max(1), |&t| {
        let cfg = PercolationConfig::new(p, base_seed.wrapping_add(t as u64));
        faultnet_percolation::bfs::connected(&tt, &cfg.sampler(), x, y)
    });
    let hits = connected.iter().filter(|point| point.value).count();
    ConnectionPoint {
        depth,
        p,
        measured: hits as f64 / trials as f64,
        exact: double_tree_connection_probability(p, depth),
    }
}

/// Local-vs-oracle complexity measurement at one depth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TreeComplexityPoint {
    /// Tree depth.
    pub depth: u32,
    /// Retention probability.
    pub p: f64,
    /// Conditioned mean probes of the local router.
    pub local_mean_probes: f64,
    /// Mean probes of the oracle router over its successes.
    pub oracle_mean_probes: f64,
    /// Success rate of the (mirror-path-only) oracle router under the
    /// conditioning.
    pub oracle_success_rate: f64,
    /// Probes certified by the Theorem 7 bound at failure probability 1/2.
    pub certified_probes: u64,
}

/// Measures the local and oracle routers on `TT_depth` at probability `p`
/// under `exec` (the result is identical for every value).
pub(crate) fn measure_tree_complexity(
    depth: u32,
    p: f64,
    trials: u32,
    base_seed: u64,
    exec: TrialExec,
) -> TreeComplexityPoint {
    let tt = DoubleBinaryTree::new(depth);
    let (x, y) = tt.roots();
    let harness = ComplexityHarness::new(tt, PercolationConfig::new(p, base_seed));
    let model = BernoulliEdges::new();
    let local = harness.measure(&model, &LeafPenetrationRouter::new(), x, y, trials, exec);
    let oracle = harness.measure(&model, &PairedDfsOracleRouter::new(), x, y, trials, exec);
    TreeComplexityPoint {
        depth,
        p,
        local_mean_probes: Summary::from_counts(local.probe_counts().iter().copied()).mean(),
        oracle_mean_probes: Summary::from_counts(oracle.probe_counts().iter().copied()).mean(),
        oracle_success_rate: oracle.success_rate(),
        certified_probes: double_tree_certified_probes(p, depth, 0.5),
    }
}

/// The E6 experiment.
#[derive(Debug, Clone)]
pub struct DoubleTreeExperiment {
    /// Depths for the connectivity scan.
    pub connectivity_depths: Vec<u32>,
    /// Probabilities for the connectivity scan.
    pub connectivity_ps: Vec<f64>,
    /// Depths for the complexity scan.
    pub complexity_depths: Vec<u32>,
    /// Probability for the complexity scan (above `1/√2`).
    pub complexity_p: f64,
    /// Trials per point.
    pub trials: u32,
    /// Base seed.
    pub base_seed: u64,
    /// Wall-clock execution knobs (the reported numbers are identical for
    /// every value).
    pub exec: TrialExec,
}

impl DoubleTreeExperiment {
    /// Configuration at the requested effort level.
    pub fn with_effort(effort: Effort) -> Self {
        DoubleTreeExperiment {
            connectivity_depths: effort.pick(vec![8, 12], vec![10, 14, 18]),
            connectivity_ps: vec![0.6, 0.65, 0.68, 0.71, 0.74, 0.78, 0.85, 0.92],
            // Depth 14 extends the Theorem 7 semi-log fit by two doublings
            // of the leaf count; it assumes the parallel harness.
            complexity_depths: effort.pick(vec![4, 6, 8], vec![4, 6, 8, 10, 12, 14]),
            complexity_p: 0.8,
            trials: effort.pick(20, 80),
            base_seed: 0xFA07,
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
        let _span = faultnet_obs::span("experiment.double_tree");
        let mut report = ExperimentReport::new(
            "E6: double binary tree — connectivity threshold, local vs oracle routing",
            "Lemma 6 (threshold 1/√2), Theorem 7 (local routing exponential), Theorem 9 (oracle routing linear)",
        );

        // (1) Connectivity scan.
        for (di, &depth) in self.connectivity_depths.iter().enumerate() {
            let mut table =
                Table::new(["p", "measured Pr[x~y]", "exact recursion"]).with_title(format!(
                    "TT_{depth} root connectivity ({} trials/point)",
                    self.trials
                ));
            let mut curve = Vec::new();
            for (pi, &p) in self.connectivity_ps.iter().enumerate() {
                let seed = self
                    .base_seed
                    .wrapping_add((di as u64) << 20)
                    .wrapping_add(pi as u64);
                let point =
                    measure_connection_point(depth, p, self.trials, seed, self.exec.threads);
                table.push_row([
                    format!("{p:.2}"),
                    fmt_float(point.measured),
                    fmt_float(point.exact),
                ]);
                curve.push((p, point.measured));
            }
            report.push_table(table);
            if let Some(p_star) = crossing_point(&curve, 0.5) {
                report.push_note(format!(
                    "depth {depth}: measured connection probability crosses 1/2 at p ≈ {p_star:.3} \
                     (Lemma 6 threshold: 1/√2 ≈ {:.3})",
                    double_tree_critical_probability()
                ));
            }
        }

        // (2)+(3) Complexity scan.
        let mut table = Table::new([
            "depth",
            "local mean probes",
            "certified probes (Thm 7)",
            "oracle mean probes",
            "oracle success",
        ])
        .with_title(format!(
            "TT_n routing complexity at p = {} ({} trials/point)",
            self.complexity_p, self.trials
        ));
        let mut local_curve = Vec::new();
        let mut oracle_curve = Vec::new();
        for (di, &depth) in self.complexity_depths.iter().enumerate() {
            let point = measure_tree_complexity(
                depth,
                self.complexity_p,
                self.trials,
                self.base_seed.wrapping_add(0xC0 + di as u64),
                self.exec,
            );
            table.push_row([
                depth.to_string(),
                fmt_float(point.local_mean_probes),
                point.certified_probes.to_string(),
                fmt_float(point.oracle_mean_probes),
                fmt_float(point.oracle_success_rate),
            ]);
            if point.local_mean_probes.is_finite() {
                local_curve.push((depth as f64, point.local_mean_probes));
            }
            if point.oracle_mean_probes.is_finite() {
                oracle_curve.push((depth as f64, point.oracle_mean_probes));
            }
        }
        report.push_table(table);
        if let Some(fit) = fit_exponential(&local_curve) {
            report.push_note(format!(
                "local router: probes ≈ {:.2}·e^({:.2}·n) (R² = {:.3}); Theorem 7 predicts exponential growth with rate ≥ ln(1/p) = {:.2}",
                fit.amplitude,
                fit.rate,
                fit.r_squared,
                (1.0 / self.complexity_p).ln()
            ));
        }
        if let Some(fit) = fit_line(&oracle_curve) {
            report.push_note(format!(
                "oracle router: probes ≈ {:.2}·n + {:.2} (R² = {:.3}); Theorem 9 predicts linear growth",
                fit.slope, fit.intercept, fit.r_squared
            ));
        }
        let figure =
            AsciiFigure::new("probes vs depth (log y): local explodes, oracle stays linear")
                .with_scales(Scale::Linear, Scale::Log)
                .with_size(60, 16)
                .with_series(Series::new("local", local_curve))
                .with_series(Series::new("oracle", oracle_curve));
        report.push_figure(figure.render());
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connectivity_matches_exact_recursion() {
        let point = measure_connection_point(10, 0.85, 60, 5, 2);
        assert!(
            (point.measured - point.exact).abs() < 0.2,
            "measured {} exact {}",
            point.measured,
            point.exact
        );
    }

    #[test]
    fn connectivity_vanishes_below_the_threshold() {
        let below = measure_connection_point(14, 0.6, 30, 7, 1);
        let above = measure_connection_point(14, 0.9, 30, 7, 1);
        assert!(below.measured < 0.2);
        assert!(above.measured > 0.5);
    }

    #[test]
    fn local_probes_exceed_oracle_probes() {
        let point = measure_tree_complexity(7, 0.8, 25, 9, TrialExec::sequential().with_threads(2));
        assert!(point.local_mean_probes.is_finite());
        if point.oracle_mean_probes.is_finite() {
            assert!(point.local_mean_probes > point.oracle_mean_probes);
        }
    }

    #[test]
    fn quick_report_renders_with_fits() {
        let report = DoubleTreeExperiment::quick().run();
        assert!(report.tables().len() >= 3);
        assert_eq!(report.figures().len(), 1);
        assert!(report.notes().iter().any(|n| n.contains("Theorem 9")));
        assert!(report.notes().iter().any(|n| n.contains("Theorem 7")));
    }
}

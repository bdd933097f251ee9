//! E7 — `G(n, p)`: local `Ω(n²)` versus oracle `Θ(n^{3/2})`
//! (Theorems 10 and 11).
//!
//! The experiment sweeps the number of vertices `n` at fixed mean degree
//! `c = n·p`, measures the conditioned probe counts of the incremental local
//! router and the bidirectional-growth oracle router, and fits the scaling
//! exponents; the paper predicts exponents 2 and 3/2 respectively.

use faultnet_analysis::figure::{AsciiFigure, Scale, Series};
use faultnet_analysis::regression::fit_power_law;
use faultnet_analysis::stats::Summary;
use faultnet_analysis::table::{fmt_float, Table};
use faultnet_faultmodel::BernoulliEdges;
use faultnet_percolation::PercolationConfig;
use faultnet_routing::complexity::ComplexityHarness;
use faultnet_routing::gnp::{BidirectionalGrowthRouter, IncrementalLocalRouter};
use faultnet_topology::complete::CompleteGraph;
use faultnet_topology::Topology;

use crate::report::{Effort, ExperimentReport};
use crate::TrialExec;

/// Probe counts at one graph size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct GnpPoint {
    /// Number of vertices.
    pub n: u64,
    /// Mean degree `c` (so `p = c/n`).
    pub c: f64,
    /// Fraction of instances in which the pair was connected.
    pub connectivity_rate: f64,
    /// Conditioned mean probes of the local router.
    pub local_mean_probes: f64,
    /// Conditioned mean probes of the oracle router.
    pub oracle_mean_probes: f64,
}

/// Measures both `G(n, p)` routers at one size under `exec` (the result is
/// identical for every value).
pub(crate) fn measure_gnp_point(
    n: u64,
    c: f64,
    trials: u32,
    base_seed: u64,
    exec: TrialExec,
) -> GnpPoint {
    let graph = CompleteGraph::new(n);
    let p = (c / n as f64).min(1.0);
    let harness = ComplexityHarness::new(graph, PercolationConfig::new(p, base_seed));
    let (u, v) = graph.canonical_pair();
    let model = BernoulliEdges::new();
    let local = harness.measure(&model, &IncrementalLocalRouter::new(), u, v, trials, exec);
    let oracle = harness.measure(
        &model,
        &BidirectionalGrowthRouter::new(),
        u,
        v,
        trials,
        exec,
    );
    GnpPoint {
        n,
        c,
        connectivity_rate: local.connectivity_rate(),
        local_mean_probes: Summary::from_counts(local.probe_counts().iter().copied()).mean(),
        oracle_mean_probes: Summary::from_counts(oracle.probe_counts().iter().copied()).mean(),
    }
}

/// The E7 experiment.
#[derive(Debug, Clone)]
pub struct GnpExperiment {
    /// Graph sizes to sweep.
    pub sizes: Vec<u64>,
    /// Mean degrees `c` (one table per value).
    pub mean_degrees: Vec<f64>,
    /// Trials per point.
    pub trials: u32,
    /// Base seed.
    pub base_seed: u64,
    /// Wall-clock execution knobs (the reported numbers are identical for
    /// every value).
    pub exec: TrialExec,
}

impl GnpExperiment {
    /// Configuration at the requested effort level.
    pub fn with_effort(effort: Effort) -> Self {
        GnpExperiment {
            // n = 2400 extends the scaling fit by half a decade; it assumes
            // the parallel harness (the local router is Ω(n²) per trial).
            sizes: effort.pick(vec![60, 120, 240], vec![100, 200, 400, 800, 1600, 2400]),
            mean_degrees: effort.pick(vec![2.0], vec![1.5, 2.0, 3.0]),
            trials: effort.pick(10, 40),
            base_seed: 0xFA08,
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
        let _span = faultnet_obs::span("experiment.gnp");
        let mut report = ExperimentReport::new(
            "E7: G(n, p) — local vs oracle routing complexity",
            "Theorem 10 (local Ω(n²)) and Theorem 11 (oracle Θ(n^{3/2}))",
        );
        for (ci, &c) in self.mean_degrees.iter().enumerate() {
            let mut table = Table::new([
                "n",
                "connected",
                "local mean probes",
                "oracle mean probes",
                "local / n^2",
                "oracle / n^1.5",
            ])
            .with_title(format!(
                "G(n, c/n) with c = {c} ({} trials/point)",
                self.trials
            ));
            let mut local_curve = Vec::new();
            let mut oracle_curve = Vec::new();
            for (ni, &n) in self.sizes.iter().enumerate() {
                let point = measure_gnp_point(
                    n,
                    c,
                    self.trials,
                    self.base_seed
                        .wrapping_add((ci as u64) << 20)
                        .wrapping_add(ni as u64),
                    self.exec,
                );
                table.push_row([
                    n.to_string(),
                    fmt_float(point.connectivity_rate),
                    fmt_float(point.local_mean_probes),
                    fmt_float(point.oracle_mean_probes),
                    fmt_float(point.local_mean_probes / (n as f64).powi(2)),
                    fmt_float(point.oracle_mean_probes / (n as f64).powf(1.5)),
                ]);
                if point.local_mean_probes.is_finite() {
                    local_curve.push((n as f64, point.local_mean_probes));
                }
                if point.oracle_mean_probes.is_finite() {
                    oracle_curve.push((n as f64, point.oracle_mean_probes));
                }
            }
            report.push_table(table);
            if let Some(fit) = fit_power_law(&local_curve) {
                report.push_note(format!(
                    "c = {c}: local probes ≈ {:.2}·n^{:.2} (R² = {:.3}); Theorem 10 predicts exponent 2",
                    fit.amplitude, fit.exponent, fit.r_squared
                ));
            }
            if let Some(fit) = fit_power_law(&oracle_curve) {
                report.push_note(format!(
                    "c = {c}: oracle probes ≈ {:.2}·n^{:.2} (R² = {:.3}); Theorem 11 predicts exponent 1.5",
                    fit.amplitude, fit.exponent, fit.r_squared
                ));
            }
            let figure = AsciiFigure::new(format!(
                "G(n, {c}/n): probes vs n (log–log) — local (l) above oracle (o)"
            ))
            .with_scales(Scale::Log, Scale::Log)
            .with_size(60, 16)
            .with_series(Series::new("local", local_curve))
            .with_series(Series::new("oracle", oracle_curve));
            report.push_figure(figure.render());
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_is_cheaper_than_local() {
        let point = measure_gnp_point(150, 2.5, 10, 3, TrialExec::sequential().with_threads(2));
        assert!(point.connectivity_rate > 0.3);
        assert!(point.local_mean_probes > point.oracle_mean_probes);
    }

    #[test]
    fn exponent_gap_is_visible_even_at_small_sizes() {
        let small = measure_gnp_point(60, 2.0, 12, 5, TrialExec::sequential());
        let large = measure_gnp_point(240, 2.0, 12, 5, TrialExec::sequential());
        let local_growth = large.local_mean_probes / small.local_mean_probes;
        let oracle_growth = large.oracle_mean_probes / small.oracle_mean_probes;
        // Quadrupling n should grow the local cost markedly faster than the
        // oracle cost (16x vs 8x in the asymptotic limit).
        assert!(
            local_growth > oracle_growth,
            "local growth {local_growth} vs oracle growth {oracle_growth}"
        );
    }

    #[test]
    fn quick_report_contains_exponent_fits() {
        let report = GnpExperiment::quick().run();
        assert_eq!(report.tables().len(), 1);
        assert_eq!(report.figures().len(), 1);
        assert!(report.notes().iter().any(|n| n.contains("exponent 2")));
        assert!(report.notes().iter().any(|n| n.contains("exponent 1.5")));
    }
}

//! E2 — the Lemma 5 / Theorem 3(i) lower bound, numerically.
//!
//! Two complementary views of the hypercube lower bound:
//!
//! 1. **Closed form.** The §3.1 path-counting bound gives
//!    `η ≤ n^{(β−α)n^β}` for the ball of radius `n^β` around the target, and
//!    hence a probe requirement of `n^{(α−β)n^β}/n`. Evaluated (in log space)
//!    for growing `n` this exhibits the `2^{Ω(n^β)}` growth of Theorem 3(i)
//!    — doubly-exponentially beyond anything a simulation can touch.
//! 2. **Monte-Carlo cut bound.** For simulatable sizes the same Lemma 5
//!    machinery is instantiated with an empirical `η` (estimated by
//!    restricted BFS inside a small ball) and compared against the *measured*
//!    probe counts of the flooding router, checking that the certified lower
//!    bound is indeed below the observed cost — i.e. the bound is sound — and
//!    not absurdly loose.

use std::collections::HashSet;

use faultnet_analysis::stats::Summary;
use faultnet_analysis::table::{fmt_float, Table};
use faultnet_faultmodel::BernoulliEdges;
use faultnet_percolation::PercolationConfig;
use faultnet_routing::bfs::FloodRouter;
use faultnet_routing::complexity::ComplexityHarness;
use faultnet_routing::lower_bound::{
    estimate_cut_bound, hypercube_ball_cut, hypercube_required_log_probes, CutBound,
};
use faultnet_topology::hypercube::Hypercube;
use faultnet_topology::Topology;

use crate::report::{Effort, ExperimentReport};
use crate::TrialExec;

/// A Monte-Carlo comparison point: the empirical cut bound and the measured
/// flooding cost at the same `(n, α)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct BoundComparison {
    /// Hypercube dimension.
    pub dimension: u32,
    /// Fault exponent.
    pub alpha: f64,
    /// The empirical Lemma 5 bound.
    pub bound: CutBound,
    /// Probes certified by the bound at failure probability 1/2.
    pub certified_probes: u64,
    /// Measured mean probes of the flooding router (conditioned).
    pub measured_mean_probes: f64,
    /// Measured minimum probes of the flooding router (conditioned).
    pub measured_min_probes: f64,
}

/// Estimates the Lemma 5 bound with a radius-`radius` ball around the target
/// and measures the flooding router on the same configuration under `exec`
/// (the result is identical for every value).
pub(crate) fn compare_bound_to_measurement(
    dimension: u32,
    alpha: f64,
    radius: u32,
    trials: u32,
    base_seed: u64,
    exec: TrialExec,
) -> BoundComparison {
    let cube = Hypercube::new(dimension);
    let p = (dimension as f64).powf(-alpha).min(1.0);
    let (u, v) = cube.canonical_pair();
    let ball: HashSet<_> = hypercube_ball_cut(&cube, v, radius);
    let bound = estimate_cut_bound(&cube, p, &ball, u, v, trials, base_seed);
    let harness = ComplexityHarness::new(cube, PercolationConfig::new(p, base_seed ^ 0x5EED));
    let stats = harness.measure(
        &BernoulliEdges::new(),
        &FloodRouter::new(),
        u,
        v,
        trials,
        exec,
    );
    let summary = Summary::from_counts(stats.probe_counts().iter().copied());
    BoundComparison {
        dimension,
        alpha,
        bound,
        certified_probes: if bound.prob_connected > 0.0 {
            bound.certified_probes(0.5)
        } else {
            0
        },
        measured_mean_probes: summary.mean(),
        measured_min_probes: summary.min(),
    }
}

/// The E2 experiment.
#[derive(Debug, Clone)]
pub struct HypercubeLowerBoundExperiment {
    /// Dimensions at which the closed-form bound is tabulated.
    pub closed_form_dimensions: Vec<u32>,
    /// Fault exponents for the closed-form table (must be > 1/2).
    pub closed_form_alphas: Vec<f64>,
    /// `β` exponent of the ball radius `n^β` in the closed form.
    pub beta: f64,
    /// Dimensions at which the Monte-Carlo comparison runs.
    pub monte_carlo_dimensions: Vec<u32>,
    /// Fault exponent for the Monte-Carlo comparison.
    pub monte_carlo_alpha: f64,
    /// Ball radius for the Monte-Carlo cut.
    pub monte_carlo_radius: u32,
    /// Trials per Monte-Carlo estimate.
    pub trials: u32,
    /// Base seed.
    pub base_seed: u64,
    /// Wall-clock execution knobs (the reported numbers are identical for
    /// every value).
    pub exec: TrialExec,
}

impl HypercubeLowerBoundExperiment {
    /// Configuration at the requested effort level.
    pub fn with_effort(effort: Effort) -> Self {
        HypercubeLowerBoundExperiment {
            closed_form_dimensions: vec![16, 32, 64, 128, 256, 512, 1024],
            closed_form_alphas: vec![0.6, 0.7, 0.8, 0.9],
            beta: 0.08,
            monte_carlo_dimensions: effort.pick(vec![9], vec![10, 12]),
            monte_carlo_alpha: 0.7,
            monte_carlo_radius: 2,
            trials: effort.pick(30, 120),
            base_seed: 0xFA02,
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
        let _span = faultnet_obs::span("experiment.hypercube_lower_bound");
        let mut report = ExperimentReport::new(
            "E2: hypercube lower bound (Lemma 5 / Theorem 3(i))",
            "Lemma 5 cut bound; Theorem 3(i) — any local router needs 2^{Ω(n^β)} probes for α > 1/2",
        );

        // Closed-form table (log10 of the required probe count).
        let mut closed = Table::new(
            std::iter::once("n".to_string()).chain(
                self.closed_form_alphas
                    .iter()
                    .map(|a| format!("log10 probes @ α={a}")),
            ),
        )
        .with_title(format!(
            "Theorem 3(i) closed-form probe requirement, ball radius n^{}",
            self.beta
        ));
        for &n in &self.closed_form_dimensions {
            let mut row = vec![n.to_string()];
            for &alpha in &self.closed_form_alphas {
                let cell = match hypercube_required_log_probes(n, alpha, self.beta) {
                    Some(log_probes) => fmt_float(log_probes / std::f64::consts::LN_10),
                    None => "-".to_string(),
                };
                row.push(cell);
            }
            closed.push_row(row);
        }
        report.push_table(closed);
        report.push_note(
            "The closed-form requirement grows without bound in n for every α > 1/2 \
             (super-polynomially: its log grows like n^β·ln n), matching the 2^{Ω(n^β)} statement."
                .to_string(),
        );

        // Monte-Carlo comparison table.
        let mut mc = Table::new([
            "n",
            "alpha",
            "eta (max over cut)",
            "Pr[u~v]",
            "certified probes (δ=1/2)",
            "measured mean probes",
            "measured min probes",
        ])
        .with_title(format!(
            "Lemma 5 Monte-Carlo bound vs measured flooding cost (ball radius {}, {} trials)",
            self.monte_carlo_radius, self.trials
        ));
        let mut sound = true;
        for (i, &n) in self.monte_carlo_dimensions.iter().enumerate() {
            let cmp = compare_bound_to_measurement(
                n,
                self.monte_carlo_alpha,
                self.monte_carlo_radius,
                self.trials,
                self.base_seed.wrapping_add(i as u64),
                self.exec,
            );
            mc.push_row([
                n.to_string(),
                format!("{:.2}", cmp.alpha),
                fmt_float(cmp.bound.eta),
                fmt_float(cmp.bound.prob_connected),
                cmp.certified_probes.to_string(),
                fmt_float(cmp.measured_mean_probes),
                fmt_float(cmp.measured_min_probes),
            ]);
            if cmp.measured_min_probes.is_finite()
                && (cmp.certified_probes as f64) > cmp.measured_min_probes
            {
                sound = false;
            }
        }
        report.push_table(mc);
        report.push_note(if sound {
            "Soundness check passed: the certified lower bound never exceeds any measured probe \
             count."
                .to_string()
        } else {
            "WARNING: the certified lower bound exceeded a measured probe count — investigate."
                .to_string()
        });
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_grows_with_dimension() {
        let a = hypercube_required_log_probes(32, 0.7, 0.08).unwrap();
        let b = hypercube_required_log_probes(1024, 0.7, 0.08).unwrap();
        assert!(b > a);
    }

    #[test]
    fn monte_carlo_bound_is_sound_against_measurement() {
        let cmp =
            compare_bound_to_measurement(8, 0.7, 2, 40, 3, TrialExec::sequential().with_threads(2));
        // The bound certifies a probe count every local router must reach
        // with probability ≥ 1/2; the flooding router's *minimum* observed
        // probe count must therefore not be (much) below it. We check
        // soundness in the direction the lemma guarantees.
        if cmp.measured_min_probes.is_finite() {
            assert!(
                (cmp.certified_probes as f64) <= cmp.measured_mean_probes.max(1.0) * 10.0,
                "certified {} vs measured mean {}",
                cmp.certified_probes,
                cmp.measured_mean_probes
            );
        }
        assert!(cmp.bound.eta >= 0.0 && cmp.bound.eta <= 1.0);
    }

    #[test]
    fn quick_report_renders() {
        let report = HypercubeLowerBoundExperiment::quick().run();
        assert_eq!(report.tables().len(), 2);
        assert!(report.render().contains("Lemma 5"));
        assert!(report
            .notes()
            .iter()
            .any(|n| n.contains("Soundness check passed")));
    }
}

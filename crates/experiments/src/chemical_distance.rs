//! E5 — chemical distance above the threshold (Lemma 8 / Antal–Pisztora).
//!
//! The mesh routing algorithm of Theorem 4 relies on the chemical distance
//! between connected vertices being at most a constant multiple of their
//! graph distance once `p > p_c`. The paper cites Antal–Pisztora for this;
//! the reproduction measures the stretch `D(x, y) / d(x, y)` directly on
//! tori (no boundary effects) at several probabilities and distances, and
//! reports the mean, the maximum, and the empirical tail.

use faultnet_analysis::histogram::Histogram;
use faultnet_analysis::sweep::Sweep;
use faultnet_analysis::table::{fmt_float, Table};
use faultnet_percolation::chemical::{
    stretch_sample_for_trial, stretch_samples_over_instances, StretchSample,
};
use faultnet_topology::torus::Torus;
use faultnet_topology::Topology;

use crate::report::{Effort, ExperimentReport};
use crate::TrialExec;

/// Stretch statistics at one `(p, distance)` point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StretchPoint {
    /// Retention probability.
    pub p: f64,
    /// Graph distance of the measured pair.
    pub distance: u64,
    /// Fraction of instances in which the pair was connected.
    pub connectivity_rate: f64,
    /// Mean stretch over connected instances.
    pub mean_stretch: f64,
    /// Maximum stretch over connected instances.
    pub max_stretch: f64,
    /// Fraction of connected instances with stretch above 2.
    pub tail_above_2: f64,
}

/// Measures the stretch of an axis-aligned pair at the given distance on a
/// 2-dimensional torus, fanning the instances across `threads` workers.
///
/// Each worker runs `percolation::chemical::stretch_sample_for_trial` — the
/// same per-trial recipe (seed derivation + bitset materialisation) the
/// sequential collector uses — and results are merged in trial order, so
/// the summary is identical for every thread count.
pub fn measure_stretch_point(
    p: f64,
    distance: u64,
    trials: u32,
    base_seed: u64,
    threads: usize,
) -> StretchPoint {
    let side = (2 * distance + 2).max(8);
    let torus = Torus::new(2, side);
    let u = torus.vertex_at(&[0, 0]);
    let v = torus.vertex_at(&[distance, 0]);
    debug_assert_eq!(torus.distance(u, v), Some(distance));
    let samples: Vec<StretchSample> = Sweep::over(0..trials)
        .run_parallel(threads.max(1), |&t| {
            stretch_sample_for_trial(&torus, u, v, p, base_seed, t)
        })
        .into_iter()
        .filter_map(|point| point.value)
        .collect();
    let n = samples.len();
    let stretches: Vec<f64> = samples.iter().map(StretchSample::stretch).collect();
    let mean = if n == 0 {
        f64::NAN
    } else {
        stretches.iter().sum::<f64>() / n as f64
    };
    let max = stretches.iter().copied().fold(f64::NAN, f64::max);
    let tail = if n == 0 {
        f64::NAN
    } else {
        stretches.iter().filter(|s| **s > 2.0).count() as f64 / n as f64
    };
    StretchPoint {
        p,
        distance,
        connectivity_rate: n as f64 / trials as f64,
        mean_stretch: mean,
        max_stretch: max,
        tail_above_2: tail,
    }
}

/// The E5 experiment.
#[derive(Debug, Clone)]
pub struct ChemicalDistanceExperiment {
    /// Retention probabilities (above `p_c = 1/2`).
    pub ps: Vec<f64>,
    /// Pair distances.
    pub distances: Vec<u64>,
    /// Trials per point.
    pub trials: u32,
    /// Base seed.
    pub base_seed: u64,
    /// Wall-clock execution knobs (the reported numbers are identical for
    /// every value).
    pub exec: TrialExec,
}

impl ChemicalDistanceExperiment {
    /// Configuration at the requested effort level.
    pub fn with_effort(effort: Effort) -> Self {
        ChemicalDistanceExperiment {
            ps: effort.pick(vec![0.6, 0.8], vec![0.55, 0.6, 0.7, 0.8, 0.9, 0.95]),
            // Distance 80 doubles the longest measured pair (torus side
            // 162); it assumes the parallel harness.
            distances: effort.pick(vec![8, 16], vec![10, 20, 40, 60, 80]),
            trials: effort.pick(15, 60),
            base_seed: 0xFA06,
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
        let _span = faultnet_obs::span("experiment.chemical_distance");
        let mut report = ExperimentReport::new(
            "E5: chemical distance above the threshold",
            "Lemma 8 (Antal–Pisztora) — D(x, y) ≤ ρ·d(x, y) w.h.p. for p > p_c",
        );
        for (pi, &p) in self.ps.iter().enumerate() {
            let mut table = Table::new([
                "distance",
                "connected",
                "mean stretch",
                "max stretch",
                "Pr[stretch > 2]",
            ])
            .with_title(format!("2-d torus, p = {p} ({} trials/point)", self.trials));
            let mut all_stretches = Vec::new();
            for (di, &distance) in self.distances.iter().enumerate() {
                let seed = self
                    .base_seed
                    .wrapping_add((pi as u64) << 16)
                    .wrapping_add(di as u64);
                let point =
                    measure_stretch_point(p, distance, self.trials, seed, self.exec.threads);
                table.push_row([
                    distance.to_string(),
                    fmt_float(point.connectivity_rate),
                    fmt_float(point.mean_stretch),
                    fmt_float(point.max_stretch),
                    fmt_float(point.tail_above_2),
                ]);
                if point.mean_stretch.is_finite() {
                    all_stretches.push(point.mean_stretch);
                }
            }
            report.push_table(table);
            if !all_stretches.is_empty() {
                let worst = all_stretches.iter().copied().fold(f64::NAN, f64::max);
                report.push_note(format!(
                    "p = {p}: mean stretch stays bounded (worst mean over distances ≈ {worst:.2}), \
                     consistent with a distance-independent ρ"
                ));
            }
        }
        // A stretch histogram at the lowest probability and largest distance
        // (the hardest case): the Antal–Pisztora statement is about the tail.
        if let (Some(&p), Some(&distance)) = (self.ps.first(), self.distances.last()) {
            let side = (2 * distance + 2).max(8);
            let torus = Torus::new(2, side);
            let u = torus.vertex_at(&[0, 0]);
            let v = torus.vertex_at(&[distance, 0]);
            let samples =
                stretch_samples_over_instances(&torus, u, v, p, self.trials, self.base_seed ^ 0x77);
            if !samples.is_empty() {
                let hist = Histogram::from_values(samples.iter().map(StretchSample::stretch), 8);
                report.push_figure(format!(
                    "stretch distribution at p = {p}, distance {distance}\n{}",
                    hist.render(40)
                ));
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stretch_is_small_far_above_threshold() {
        let point = measure_stretch_point(0.9, 12, 15, 3, 2);
        assert!(point.connectivity_rate > 0.8);
        assert!(point.mean_stretch >= 1.0);
        assert!(
            point.mean_stretch < 1.5,
            "mean stretch {}",
            point.mean_stretch
        );
    }

    #[test]
    fn stretch_grows_as_p_approaches_the_threshold() {
        let far = measure_stretch_point(0.95, 10, 20, 4, 1);
        let near = measure_stretch_point(0.6, 10, 20, 4, 1);
        assert!(near.mean_stretch >= far.mean_stretch - 0.05);
    }

    #[test]
    fn quick_report_renders() {
        let report = ChemicalDistanceExperiment::quick().run();
        assert_eq!(report.tables().len(), 2);
        assert!(!report.figures().is_empty());
        assert!(report.render().contains("stretch"));
    }
}

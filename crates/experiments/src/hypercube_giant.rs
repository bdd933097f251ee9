//! E8a — background structure of `H_{n,p}`: the giant-component threshold at
//! `p ≈ 1/n` (Ajtai–Komlós–Szemerédi) and the connectivity threshold at
//! `p = 1/2` (Erdős–Spencer), both quoted in §1.2/§1.3 of the paper and used
//! to frame where routing is even meaningful.

use faultnet_analysis::phase::crossing_point;
use faultnet_analysis::table::{fmt_float, Table};
use faultnet_faultmodel::trials::{run_trials, TrialVisitor};
use faultnet_faultmodel::{FaultInstance, FaultModel};
use faultnet_percolation::components::ComponentCensus;
use faultnet_percolation::sample::BitsetSample;
use faultnet_percolation::trial_batch::TrialBatch;
use faultnet_percolation::PercolationConfig;
use faultnet_topology::hypercube::Hypercube;
use faultnet_topology::Topology;

use crate::report::{Effort, ExperimentReport};
use crate::TrialExec;

/// Giant fraction and connectivity probability of `H_{n,p}` at one `p`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HypercubePoint {
    /// Retention probability.
    pub p: f64,
    /// Mean fraction of vertices in the largest component.
    pub giant_fraction: f64,
    /// Fraction of instances in which the whole cube was connected.
    pub connectivity: f64,
}

/// Measures giant fraction and connectivity of `H_{n,p}` over `trials`
/// Bernoulli-edge instances under `exec` (see
/// [`measure_giant_point_with_model`]). Per-trial fan-out spreads the
/// censuses over workers and the trial loop packs them into lanes, which
/// amortises the edge sampling; the means are identical for every `exec`.
pub fn measure_hypercube_point(
    dimension: u32,
    p: f64,
    trials: u32,
    base_seed: u64,
    exec: TrialExec,
) -> HypercubePoint {
    measure_hypercube_point_with_model(
        &faultnet_faultmodel::BernoulliEdges::new(),
        dimension,
        p,
        trials,
        base_seed,
        exec,
    )
}

/// Like [`measure_hypercube_point`], but drawing each instance from an
/// arbitrary [`faultnet_faultmodel::FaultModel`] (the Bernoulli-edge model
/// reproduces the original numbers exactly; the fault-model property tests
/// assert the materialised bitsets are bit-identical).
///
/// Dead vertices under node-fault models still count toward the giant
/// *fraction*'s denominator (they are isolated components), so a node model
/// at survival `p` caps the giant fraction near `p` — exactly the effect
/// `exp_fault_models` tabulates side by side.
///
/// The trial loop packs the trials into lanes where the model is
/// [`FaultModel::lane_batchable`] and runs them scalar otherwise — the
/// results are identical either way.
pub fn measure_hypercube_point_with_model<M: FaultModel + Sync + ?Sized>(
    model: &M,
    dimension: u32,
    p: f64,
    trials: u32,
    base_seed: u64,
    exec: TrialExec,
) -> HypercubePoint {
    let _span = faultnet_obs::span("hypercube_giant.point");
    let cube = Hypercube::new(dimension);
    measure_giant_point_with_model(model, &cube, p, trials, base_seed, exec)
}

/// The family-generic giant/connectivity engine behind
/// [`measure_hypercube_point_with_model`]: a fold over the workspace's one
/// trial loop ([`run_trials`]) with a per-trial census, so it inherits the
/// seed discipline (trial `t` at `base_seed + t`), the batched/scalar
/// store choice and its equivalence, and trial-order summation — the means
/// are identical for every `exec`. `exp_real_world` (E13) drives it over
/// loaded and generated [`faultnet_topology::explicit::ExplicitGraph`]
/// substrates, and `threshold` builds the E8b sweeps and bisections on it.
/// The returned [`HypercubePoint`] is the substrate-agnostic point record
/// despite its historical name.
///
/// A giant scan has no routed pair; the [`FaultModel`] contract defines an
/// absent pair as the canonical pair, so the trial loop hoists the
/// placement for the canonical pair and measures exactly the `None`
/// configuration (both halves of that equality are property-tested in the
/// faultmodel crate).
pub fn measure_giant_point_with_model<M, T>(
    model: &M,
    graph: &T,
    p: f64,
    trials: u32,
    base_seed: u64,
    exec: TrialExec,
) -> HypercubePoint
where
    M: FaultModel + Sync + ?Sized,
    T: Topology + Sync,
{
    let visitor = Census { graph };
    let config = PercolationConfig::new(p, base_seed);
    let pair = graph.canonical_pair();
    let mut giant_total = 0.0;
    let mut connected_count = 0u32;
    for (giant, connected) in run_trials(model, graph, config, pair, trials, exec, &visitor) {
        giant_total += giant;
        connected_count += u32::from(connected);
    }
    HypercubePoint {
        p,
        giant_fraction: giant_total / trials as f64,
        connectivity: connected_count as f64 / trials as f64,
    }
}

/// One trial of a giant scan: the giant fraction and whether the whole
/// graph is one component. A single instance is materialised as a
/// [`BitsetSample`] (one bit read per edge in the census); a batch lane is
/// read in place through its [`faultnet_percolation::LaneView`].
struct Census<'g, T> {
    graph: &'g T,
}

impl<T: Topology + Sync> Census<'_, T> {
    fn fold(&self, census: ComponentCensus) -> (f64, bool) {
        (census.giant_fraction(), census.num_components() == 1)
    }
}

impl<T: Topology + Sync> TrialVisitor<T> for Census<'_, T> {
    type Output = (f64, bool);

    /// A census reads every edge of every lane, so sampling the lanes in
    /// one pass pays off.
    fn lanes_pay_off(&self) -> bool {
        true
    }

    fn instance(&self, instance: &FaultInstance) -> (f64, bool) {
        let sample = BitsetSample::from_states(self.graph, instance);
        self.fold(ComponentCensus::compute(self.graph, &sample))
    }

    fn batch(&self, batch: &TrialBatch<'_, T>) -> Vec<(f64, bool)> {
        (0..batch.lanes())
            .map(|l| self.fold(ComponentCensus::compute(self.graph, &batch.lane_view(l))))
            .collect()
    }
}

/// The E8a experiment.
#[derive(Debug, Clone)]
pub struct HypercubeGiantExperiment {
    /// Hypercube dimensions.
    pub dimensions: Vec<u32>,
    /// Multipliers `c` for the giant-component scan at `p = c/n`.
    pub giant_multipliers: Vec<f64>,
    /// Probabilities for the connectivity scan (around 1/2).
    pub connectivity_ps: Vec<f64>,
    /// Trials per point.
    pub trials: u32,
    /// Base seed.
    pub base_seed: u64,
    /// Wall-clock execution knobs (the reported numbers are identical for
    /// every value).
    pub exec: TrialExec,
}

impl HypercubeGiantExperiment {
    /// Configuration at the requested effort level.
    pub fn with_effort(effort: Effort) -> Self {
        HypercubeGiantExperiment {
            // n = 16 (65 536 vertices, 524 288 edges per instance) sharpens
            // both threshold estimates; it assumes the parallel harness.
            dimensions: effort.pick(vec![10], vec![12, 14, 16]),
            giant_multipliers: vec![0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0],
            connectivity_ps: vec![0.30, 0.40, 0.45, 0.50, 0.55, 0.60, 0.70],
            trials: effort.pick(6, 30),
            base_seed: 0xFA03,
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
        let _span = faultnet_obs::span("experiment.hypercube_giant");
        let mut report = ExperimentReport::new(
            "E8a: hypercube giant component and connectivity thresholds",
            "§1.2 background — giant component at p ≈ 1/n (AKS 82), connectivity at p = 1/2",
        );
        for &n in &self.dimensions {
            // Giant-component scan at p = c/n.
            let mut giant_table = Table::new(["c (p = c/n)", "p", "giant fraction"]).with_title(
                format!("H_{{{n},p}} giant component scan ({} trials)", self.trials),
            );
            let mut giant_curve = Vec::new();
            for (i, &c) in self.giant_multipliers.iter().enumerate() {
                let p = (c / n as f64).min(1.0);
                let point = measure_hypercube_point(
                    n,
                    p,
                    self.trials,
                    self.base_seed + i as u64 * 31,
                    self.exec,
                );
                giant_table.push_row([
                    format!("{c:.2}"),
                    fmt_float(p),
                    fmt_float(point.giant_fraction),
                ]);
                giant_curve.push((c, point.giant_fraction));
            }
            report.push_table(giant_table);
            if let Some(c_star) = crossing_point(&giant_curve, 0.25) {
                report.push_note(format!(
                    "n = {n}: giant fraction crosses 0.25 at c ≈ {c_star:.2} (paper/AKS predict a giant component for c > 1)"
                ));
            }

            // Connectivity scan around p = 1/2.
            let mut conn_table = Table::new(["p", "giant fraction", "Pr[connected]"]).with_title(
                format!("H_{{{n},p}} connectivity scan ({} trials)", self.trials),
            );
            let mut conn_curve = Vec::new();
            for (i, &p) in self.connectivity_ps.iter().enumerate() {
                let point = measure_hypercube_point(
                    n,
                    p,
                    self.trials,
                    self.base_seed + 991 + i as u64,
                    self.exec,
                );
                conn_table.push_row([
                    format!("{p:.2}"),
                    fmt_float(point.giant_fraction),
                    fmt_float(point.connectivity),
                ]);
                conn_curve.push((p, point.connectivity));
            }
            report.push_table(conn_table);
            if let Some(p_star) = crossing_point(&conn_curve, 0.5) {
                report.push_note(format!(
                    "n = {n}: connectivity probability crosses 1/2 at p ≈ {p_star:.2} (Erdős–Spencer predict p = 0.5 asymptotically)"
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
    fn giant_fraction_transitions_around_one_over_n() {
        let exec = TrialExec::sequential().with_threads(2);
        let sub = measure_hypercube_point(10, 0.25 / 10.0, 6, 1, exec);
        let sup = measure_hypercube_point(10, 3.0 / 10.0, 6, 1, exec);
        assert!(
            sub.giant_fraction < 0.2,
            "subcritical {}",
            sub.giant_fraction
        );
        assert!(
            sup.giant_fraction > 0.4,
            "supercritical {}",
            sup.giant_fraction
        );
    }

    #[test]
    fn connectivity_transitions_around_one_half() {
        let below = measure_hypercube_point(10, 0.35, 6, 2, TrialExec::sequential());
        let above = measure_hypercube_point(10, 0.65, 6, 2, TrialExec::sequential());
        assert!(below.connectivity < above.connectivity + 1e-9);
        assert!(above.connectivity > 0.5);
    }

    #[test]
    fn batched_point_is_bit_identical_to_scalar() {
        // The oracle censuses one scalar instance per seed. Trial-order
        // summation makes even the f64 addition sequence match, so the
        // means of every store are *equal*, not merely close.
        let cube = Hypercube::new(8);
        let (mut giant, mut connected) = (0.0, 0u32);
        for t in 0..10 {
            let sample = BitsetSample::from_config(&cube, &PercolationConfig::new(0.4, 7 + t));
            let census = ComponentCensus::compute(&cube, &sample);
            giant += census.giant_fraction();
            connected += u32::from(census.num_components() == 1);
        }
        let scalar = HypercubePoint {
            p: 0.4,
            giant_fraction: giant / 10.0,
            connectivity: f64::from(connected) / 10.0,
        };
        for trial_batch in [0, 1, 4, 64, 200] {
            for threads in [1, 3, 10] {
                let exec = TrialExec::sequential()
                    .with_threads(threads)
                    .with_trial_batch(trial_batch);
                let batched = measure_hypercube_point(8, 0.4, 10, 7, exec);
                assert_eq!(scalar, batched, "batch {trial_batch}, threads {threads}");
            }
        }
    }

    #[test]
    fn quick_report_renders() {
        let report = HypercubeGiantExperiment::quick().run();
        assert_eq!(report.tables().len(), 2);
        assert!(!report.notes().is_empty());
        assert!(report.render().contains("giant"));
    }

    #[test]
    fn quick_report_is_byte_identical_with_batching() {
        let render = |exec| {
            HypercubeGiantExperiment::quick()
                .with_exec(exec)
                .run()
                .render()
        };
        let auto = render(TrialExec::sequential());
        assert_eq!(auto, render(TrialExec::sequential().with_threads(6)));
        for trial_batch in [1, 64] {
            let forced = render(TrialExec::sequential().with_trial_batch(trial_batch));
            assert_eq!(auto, forced, "trial_batch {trial_batch}");
        }
    }
}

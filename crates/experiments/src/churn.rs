//! E12 — dynamic fault churn: giant fraction and pair routability *over
//! time* under fail-stop-with-repair dynamics, tracked by the incremental
//! (rewindable union–find) census.
//!
//! The paper samples faults once and routes; this experiment lets the fault
//! set evolve. Each trial materialises a fault instance at `t = 0`, lowers
//! the model to a deterministic churn schedule
//! ([`faultnet_faultmodel::dynamic::Churned`]: per step every open edge
//! fails w.p. `fail_rate`, every closed edge is repaired w.p.
//! `repair_rate`, with heterogeneous per-edge failure rates), and walks the
//! schedule with an [`IncrementalCensus`], recording at every timestep the
//! giant-component fraction and whether the canonical source–target pair is
//! routable (same component — the paper's Definition 2 conditioning event).
//!
//! With `fail_rate/repair_rate` chosen so the stationary open fraction
//! `repair/(fail + repair)` equals the initial `p`, the rows exhibit a
//! supercritical network that *stays* supercritical under churn: the giant
//! fraction fluctuates around its static value instead of drifting, which
//! is exactly the regime in which the paper's routing guarantees keep
//! holding per-timestep.
//!
//! The incremental census equals a from-scratch census on every accessor at
//! every timestep (proven zoo-wide in
//! `crates/percolation/tests/churn_equivalence.rs`), so the reported
//! numbers are exactly those of per-step rescans.

use faultnet_analysis::sweep::Sweep;
use faultnet_analysis::table::{fmt_float, Table};
use faultnet_faultmodel::dynamic::{Churned, DynamicFaultModel};
use faultnet_faultmodel::FaultModelSpec;
use faultnet_percolation::dynamic::IncrementalCensus;
use faultnet_percolation::PercolationConfig;
use faultnet_topology::hypercube::Hypercube;
use faultnet_topology::mesh::Mesh;
use faultnet_topology::Topology;

use crate::report::{Effort, ExperimentReport};
use crate::TrialExec;

/// One trial's time series: per timestep `0..=timesteps`, the number of
/// events applied that step (0 at `t = 0`), the giant fraction, and whether
/// the canonical pair was in one component.
type TrialSeries = Vec<(usize, f64, bool)>;

/// Walks one trial's churn schedule through the incremental census and
/// records the series.
fn trial_series(
    graph: &(dyn Topology + Sync),
    dynamic: &(dyn DynamicFaultModel + Sync),
    p: f64,
    seed: u64,
    timesteps: usize,
) -> TrialSeries {
    let pair = graph.canonical_pair();
    let config = PercolationConfig::new(p, seed);
    let initial = dynamic.initial(graph, config, Some(pair));
    let schedule = dynamic.schedule(graph, config, Some(pair), &initial, timesteps);
    let mut census = IncrementalCensus::new(graph, &initial);
    let mut series = Vec::with_capacity(timesteps + 1);
    series.push((
        0,
        census.giant_fraction(),
        census.same_component(pair.0, pair.1),
    ));
    for events in schedule.iter() {
        census.step(events);
        series.push((
            events.len(),
            census.giant_fraction(),
            census.same_component(pair.0, pair.1),
        ));
    }
    series
}

/// The E12 experiment.
#[derive(Debug, Clone)]
pub struct ChurnExperiment {
    /// Hypercube dimensions to churn (one table each).
    pub cube_dimensions: Vec<u32>,
    /// Side of the 2-d mesh to churn.
    pub mesh_side: u64,
    /// Initial retention probability of the base model.
    pub p: f64,
    /// Per-step failure rate of open edges.
    pub fail_rate: f64,
    /// Per-step repair rate of closed edges.
    pub repair_rate: f64,
    /// Per-edge failure-rate spread in `[0, 1]` (0 = homogeneous).
    pub heterogeneity: f64,
    /// Number of churn timesteps per trial.
    pub timesteps: usize,
    /// Independent trials per family (schedules and instances both vary).
    pub trials: u32,
    /// Base seed.
    pub base_seed: u64,
    /// Static base model lowered to churn (the `--fault-model` knob;
    /// Bernoulli edge faults by default).
    pub model: FaultModelSpec,
    /// Wall-clock execution knobs (the reported numbers are identical for
    /// every value).
    pub exec: TrialExec,
}

impl ChurnExperiment {
    /// Configuration at the requested effort level.
    ///
    /// Rates satisfy `repair/(fail + repair) = p`, so the stationary open
    /// fraction of the churn equals the initial retention probability and
    /// the network stays in its static regime throughout.
    pub fn with_effort(effort: Effort) -> Self {
        ChurnExperiment {
            cube_dimensions: effort.pick(vec![8], vec![14, 16, 18]),
            mesh_side: effort.pick(12, 96),
            p: 0.6,
            fail_rate: 0.04,
            repair_rate: 0.06,
            heterogeneity: 0.5,
            timesteps: effort.pick(6, 20),
            trials: effort.pick(4, 6),
            base_seed: 0xC4A2,
            model: FaultModelSpec::BernoulliEdges,
            exec: TrialExec::sequential(),
        }
    }

    /// Quick configuration (seconds) for tests and CI.
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

    /// Churns a different static base model (the `--fault-model` knob);
    /// `None` keeps Bernoulli edge faults.
    #[must_use]
    pub fn with_fault_model(mut self, model: Option<FaultModelSpec>) -> Self {
        if let Some(spec) = model {
            self.model = spec;
        }
        self
    }

    /// Measures one family and renders its per-timestep table.
    fn family_table(&self, graph: &(dyn Topology + Sync), family_seed: u64) -> Table {
        let base = self.model.build();
        let dynamic = Churned::new(&base, self.fail_rate, self.repair_rate)
            .with_heterogeneity(self.heterogeneity);
        let per_trial = Sweep::over(0..self.trials).run_parallel(self.exec.threads, |&t| {
            trial_series(
                graph,
                &dynamic,
                self.p,
                self.base_seed
                    .wrapping_add(family_seed << 32)
                    .wrapping_add(t as u64),
                self.timesteps,
            )
        });
        // Fold in trial order: the f64 sums (and therefore every rendered
        // digit) are identical for every thread count.
        let mut events_total = vec![0usize; self.timesteps + 1];
        let mut giant_total = vec![0.0f64; self.timesteps + 1];
        let mut routable_count = vec![0u32; self.timesteps + 1];
        for point in &per_trial {
            for (t, &(events, giant, routable)) in point.value.iter().enumerate() {
                events_total[t] += events;
                giant_total[t] += giant;
                routable_count[t] += u32::from(routable);
            }
        }
        let mut table = Table::new(["t", "mean events", "giant fraction", "Pr[pair routable]"])
            .with_title(format!(
                "{} under churn: p = {}, fail = {}, repair = {}, het = {} ({} trials)",
                graph.name(),
                self.p,
                self.fail_rate,
                self.repair_rate,
                self.heterogeneity,
                self.trials
            ));
        for t in 0..=self.timesteps {
            table.push_row([
                t.to_string(),
                fmt_float(events_total[t] as f64 / self.trials as f64),
                fmt_float(giant_total[t] / self.trials as f64),
                fmt_float(routable_count[t] as f64 / self.trials as f64),
            ]);
        }
        table
    }

    /// Runs the experiment and assembles the report.
    pub fn run(&self) -> ExperimentReport {
        let _span = faultnet_obs::span("experiment.churn");
        let mut report = ExperimentReport::new(
            "E12: dynamic fault churn",
            "beyond the paper — fail/repair dynamics over the §1.2/Theorem 4 substrates, \
             tracked by incremental connectivity",
        );
        let mut families: Vec<Box<dyn Topology + Sync>> = Vec::new();
        for &n in &self.cube_dimensions {
            families.push(Box::new(Hypercube::new(n)));
        }
        families.push(Box::new(Mesh::new(2, self.mesh_side)));
        for (fi, family) in families.iter().enumerate() {
            report.push_table(self.family_table(&**family, fi as u64));
        }
        report.push_note(format!(
            "Stationary open fraction repair/(fail+repair) = {} equals the initial p, so \
             the churn holds each family in its static regime: the giant fraction and the \
             canonical pair's routability fluctuate around their t = 0 values instead of \
             drifting.",
            fmt_float(self.repair_rate / (self.fail_rate + self.repair_rate))
        ));
        report.push_note(
            "Per-timestep numbers come from the incremental census (rewindable union-find: \
             repairs are unions, failures rewind the undo log and replay the surviving \
             suffix), proven bit-identical to a from-scratch census at every step by the \
             zoo-wide differential suite."
                .to_string(),
        );
        let base = self.model.build();
        if faultnet_faultmodel::FaultModel::name(&base) != self.model.cli_name() {
            report.push_note(format!("{} = {}", self.model, base.name()));
        }
        if self.model != FaultModelSpec::BernoulliEdges {
            report.push_note(format!(
                "Base model under churn: {} (selected with --fault-model).",
                self.model
            ));
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_report_has_one_table_per_family() {
        let experiment = ChurnExperiment::quick();
        let report = experiment.run();
        assert_eq!(
            report.tables().len(),
            experiment.cube_dimensions.len() + 1,
            "one table per cube dimension plus the mesh"
        );
        for table in report.tables() {
            assert_eq!(table.num_rows(), experiment.timesteps + 1);
            assert_eq!(table.num_columns(), 4);
        }
        assert!(report.render().contains("under churn"));
        assert!(report.render_markdown().contains("### E12"));
    }

    /// The deleted from-scratch engine, kept as the test oracle: apply each
    /// timestep's events to an open-edge set and run a full census.
    fn rescan_series(
        graph: &(dyn Topology + Sync),
        dynamic: &(dyn DynamicFaultModel + Sync),
        p: f64,
        seed: u64,
        timesteps: usize,
    ) -> TrialSeries {
        use faultnet_percolation::components::ComponentCensus;
        use faultnet_percolation::dynamic::EventKind;
        use faultnet_percolation::sample::FrozenSample;
        use faultnet_percolation::EdgeStates;

        let pair = graph.canonical_pair();
        let config = PercolationConfig::new(p, seed);
        let initial = dynamic.initial(graph, config, Some(pair));
        let schedule = dynamic.schedule(graph, config, Some(pair), &initial, timesteps);
        let mut open = FrozenSample::from_open_edges(
            graph.edges().into_iter().filter(|e| initial.is_open(*e)),
        );
        let census = ComponentCensus::compute(graph, &open);
        let mut series = vec![(
            0,
            census.giant_fraction(),
            census.same_component(pair.0, pair.1),
        )];
        for events in schedule.iter() {
            for event in events {
                match event.kind {
                    EventKind::Fail => open.close_edge(event.edge),
                    EventKind::Repair => open.open_edge(event.edge),
                };
            }
            let census = ComponentCensus::compute(graph, &open);
            series.push((
                events.len(),
                census.giant_fraction(),
                census.same_component(pair.0, pair.1),
            ));
        }
        series
    }

    #[test]
    fn rescan_engine_is_byte_identical_to_incremental() {
        // Every number E12 reports comes from `trial_series`; a from-scratch
        // census per timestep must reproduce each of them bit for bit, on
        // both quick families and for a churned base model other than
        // Bernoulli edges.
        let experiment = ChurnExperiment::quick();
        let families: [Box<dyn Topology + Sync>; 2] = [
            Box::new(Hypercube::new(experiment.cube_dimensions[0])),
            Box::new(Mesh::new(2, experiment.mesh_side)),
        ];
        for model in [
            FaultModelSpec::BernoulliEdges,
            FaultModelSpec::BernoulliNodes,
        ] {
            let base = model.build();
            let dynamic = Churned::new(&base, experiment.fail_rate, experiment.repair_rate)
                .with_heterogeneity(experiment.heterogeneity);
            for family in &families {
                for t in 0..experiment.trials as u64 {
                    let seed = experiment.base_seed.wrapping_add(t);
                    let (p, steps) = (experiment.p, experiment.timesteps);
                    let incremental = trial_series(&**family, &dynamic, p, seed, steps);
                    let rescan = rescan_series(&**family, &dynamic, p, seed, steps);
                    let bits = |s: &TrialSeries| -> Vec<(usize, u64, bool)> {
                        s.iter().map(|&(e, g, r)| (e, g.to_bits(), r)).collect()
                    };
                    assert_eq!(
                        bits(&incremental),
                        bits(&rescan),
                        "{model} on {} seed {seed}",
                        family.name()
                    );
                }
            }
        }
    }

    #[test]
    fn report_is_byte_identical_across_thread_counts() {
        let baseline = ChurnExperiment::quick().run().render();
        for threads in [2, 4] {
            let threaded = ChurnExperiment::quick()
                .with_exec(TrialExec::sequential().with_threads(threads))
                .run()
                .render();
            assert_eq!(baseline, threaded, "threads = {threads}");
        }
    }

    #[test]
    fn supercritical_families_stay_supercritical_under_churn() {
        // Stationary-matched rates: the giant fraction in the last timestep
        // should still be macroscopic for the quick hypercube.
        let report = ChurnExperiment::quick().run();
        let cube_table = &report.tables()[0];
        let last_row = cube_table.rows().last().unwrap();
        let giant: f64 = last_row[2].parse().unwrap();
        assert!(giant > 0.5, "giant fraction collapsed under churn: {giant}");
    }

    #[test]
    fn churned_base_model_selection_is_reported() {
        let report = ChurnExperiment::quick()
            .with_fault_model(Some(FaultModelSpec::BernoulliNodes))
            .run();
        assert!(report.notes().iter().any(|n| n.contains("bernoulli-nodes")));
    }
}

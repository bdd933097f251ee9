//! E9 — exploration of the §6 open questions on constant-degree families.
//!
//! The paper asks (Open Questions, §6) whether there is a constant-degree,
//! logarithmic-diameter family whose percolation threshold and routing
//! threshold coincide, and names de Bruijn graphs, shuffle-exchange graphs
//! and butterflies as candidates. This experiment does not (and cannot)
//! answer the question; it *explores* it: for each candidate family it sweeps
//! the retention probability and reports
//!
//! * the giant-component fraction (locating the percolation threshold), and
//! * the conditioned cost and success rate of flooding between the family's
//!   canonical far pair, normalised by the edge count (locating where routing
//!   becomes cheap relative to probing the whole graph).
//!
//! A visible gap between the two curves is evidence of hypercube-like
//! behaviour; curves moving together is evidence of mesh-like behaviour.

use faultnet_analysis::stats::Summary;
use faultnet_analysis::table::{fmt_float, Table};
use faultnet_faultmodel::BernoulliEdges;
use faultnet_percolation::PercolationConfig;
use faultnet_routing::bfs::FloodRouter;
use faultnet_routing::complexity::ComplexityHarness;
use faultnet_topology::butterfly::Butterfly;
use faultnet_topology::cycle_matching::{CycleWithMatching, MatchingKind};
use faultnet_topology::de_bruijn::DeBruijn;
use faultnet_topology::shuffle_exchange::ShuffleExchange;
use faultnet_topology::Topology;

use crate::hypercube_giant::measure_giant_point_with_model;
use crate::report::{Effort, ExperimentReport};
use crate::TrialExec;

/// Per-family sweep output: the rendered table plus the `(p, giant fraction)`
/// and `(p, normalised flood cost)` curves used for threshold comparison.
type FamilyMeasurement = (Table, Vec<(f64, f64)>, Vec<(f64, f64)>);

/// Measurements for one family at one retention probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FamilyPoint {
    /// Retention probability.
    pub p: f64,
    /// Mean giant-component fraction.
    pub giant_fraction: f64,
    /// Fraction of instances in which the canonical pair was connected.
    pub pair_connectivity: f64,
    /// Conditioned mean flooding probes divided by the number of edges
    /// (1.0 means "probed essentially the whole graph").
    pub normalized_flood_cost: f64,
}

/// Measures one family at one probability under `exec`: the giant
/// fraction through [`measure_giant_point_with_model`] and the conditioned
/// flooding cost through the complexity harness (the result is identical
/// for every `exec`).
///
/// Every candidate family has a closed-form `Topology::edge_index`, so the
/// per-instance [`faultnet_percolation::BitsetSample`] always materialises
/// as a true bitset (single-bit `is_open` reads) — the census loop never
/// pays the `FrozenSample` hash path. A test below pins this down.
pub(crate) fn measure_family_point<T: Topology + Clone + Sync>(
    graph: &T,
    p: f64,
    trials: u32,
    base_seed: u64,
    exec: TrialExec,
) -> FamilyPoint {
    let model = BernoulliEdges::new();
    let giant = measure_giant_point_with_model(&model, graph, p, trials, base_seed, exec);
    let harness =
        ComplexityHarness::new(graph.clone(), PercolationConfig::new(p, base_seed ^ 0xABCD));
    let (u, v) = graph.canonical_pair();
    let stats = harness.measure(&model, &FloodRouter::new(), u, v, trials, exec);
    let mean_probes = Summary::from_counts(stats.probe_counts().iter().copied()).mean();
    FamilyPoint {
        p,
        giant_fraction: giant.giant_fraction,
        pair_connectivity: stats.connectivity_rate(),
        normalized_flood_cost: mean_probes / graph.num_edges() as f64,
    }
}

/// The E9 experiment.
#[derive(Debug, Clone)]
pub struct OpenQuestionsExperiment {
    /// Retention probabilities to sweep.
    pub ps: Vec<f64>,
    /// Size exponent for the binary-string families (2^k vertices).
    pub string_length: u32,
    /// Butterfly dimension.
    pub butterfly_dimension: u32,
    /// Cycle-plus-matching order.
    pub cycle_order: u64,
    /// Trials per point.
    pub trials: u32,
    /// Base seed.
    pub base_seed: u64,
    /// Wall-clock execution knobs (the reported numbers are identical for
    /// every value).
    pub exec: TrialExec,
}

impl OpenQuestionsExperiment {
    /// Configuration at the requested effort level.
    pub fn with_effort(effort: Effort) -> Self {
        OpenQuestionsExperiment {
            ps: vec![0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
            // Length-12 strings (4096 vertices) double the full-effort
            // family size; tractable with the parallel harness.
            string_length: effort.pick(8, 12),
            butterfly_dimension: effort.pick(5, 7),
            cycle_order: effort.pick(256, 2048),
            trials: effort.pick(6, 30),
            base_seed: 0xFA09,
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

    fn family_table<T: Topology + Clone + Sync>(
        &self,
        graph: &T,
        seed_offset: u64,
    ) -> FamilyMeasurement {
        let mut table = Table::new([
            "p",
            "giant fraction",
            "pair connectivity",
            "flood probes / |E|",
        ])
        .with_title(format!(
            "{} ({} vertices, {} edges, {} trials/point)",
            graph.name(),
            graph.num_vertices(),
            graph.num_edges(),
            self.trials
        ));
        let mut giant_curve = Vec::new();
        let mut cost_curve = Vec::new();
        for (pi, &p) in self.ps.iter().enumerate() {
            let point = measure_family_point(
                graph,
                p,
                self.trials,
                self.base_seed
                    .wrapping_add(seed_offset)
                    .wrapping_add(pi as u64 * 131),
                self.exec,
            );
            table.push_row([
                format!("{p:.2}"),
                fmt_float(point.giant_fraction),
                fmt_float(point.pair_connectivity),
                fmt_float(point.normalized_flood_cost),
            ]);
            giant_curve.push((p, point.giant_fraction));
            cost_curve.push((p, point.normalized_flood_cost));
        }
        (table, giant_curve, cost_curve)
    }

    /// Runs the experiment and assembles the report.
    pub fn run(&self) -> ExperimentReport {
        let _span = faultnet_obs::span("experiment.open_questions");
        let mut report = ExperimentReport::new(
            "E9: open-question exploration on constant-degree families",
            "§6 Open Questions — do the percolation and routing thresholds coincide for constant-degree, log-diameter families?",
        );
        let de_bruijn = DeBruijn::new(self.string_length);
        let shuffle = ShuffleExchange::new(self.string_length);
        let butterfly = Butterfly::new(self.butterfly_dimension);
        let cycle = CycleWithMatching::new(
            self.cycle_order,
            MatchingKind::Random {
                seed: self.base_seed,
            },
        );

        let mut note_curves = Vec::new();
        {
            let (table, giant, cost) = self.family_table(&de_bruijn, 1);
            report.push_table(table);
            note_curves.push(("de Bruijn", giant, cost));
        }
        {
            let (table, giant, cost) = self.family_table(&shuffle, 2);
            report.push_table(table);
            note_curves.push(("shuffle-exchange", giant, cost));
        }
        {
            let (table, giant, cost) = self.family_table(&butterfly, 3);
            report.push_table(table);
            note_curves.push(("butterfly", giant, cost));
        }
        {
            let (table, giant, cost) = self.family_table(&cycle, 4);
            report.push_table(table);
            note_curves.push(("cycle+matching", giant, cost));
        }
        for (name, giant, _cost) in &note_curves {
            if let Some(p_perc) = faultnet_analysis::phase::crossing_point(giant, 0.25) {
                report.push_note(format!(
                    "{name}: giant fraction crosses 0.25 at p ≈ {p_perc:.2}"
                ));
            }
        }
        report.push_note(
            "Flooding cost normalised by |E| close to the giant fraction curve indicates that a \
             local router still has to probe a constant fraction of the graph well above the \
             percolation threshold — the open question asks whether a smarter local router can \
             avoid this on these families."
                .to_string(),
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_point_fields_are_sane() {
        let g = DeBruijn::new(7);
        let point = measure_family_point(&g, 0.7, 5, 1, TrialExec::sequential().with_threads(2));
        assert!((0.0..=1.0).contains(&point.giant_fraction));
        assert!((0.0..=1.0).contains(&point.pair_connectivity));
        assert!(point.normalized_flood_cost.is_nan() || point.normalized_flood_cost <= 1.0);
    }

    #[test]
    fn giant_fraction_grows_with_p() {
        let g = ShuffleExchange::new(8);
        let low = measure_family_point(&g, 0.3, 5, 2, TrialExec::sequential());
        let high = measure_family_point(&g, 0.9, 5, 2, TrialExec::sequential());
        assert!(high.giant_fraction > low.giant_fraction);
    }

    #[test]
    fn e9_families_materialise_on_the_bitset_backend() {
        // The experiment's dense path builds one BitsetSample per instance;
        // all four candidate families hold one bit per edge-index slot and
        // read back the sampler's states.
        use faultnet_percolation::sample::{BitsetSample, EdgeStates};
        fn check<T: Topology>(graph: &T, cfg: &PercolationConfig) {
            let sample = BitsetSample::from_config(graph, cfg);
            let bound = graph.edge_index_bound().unwrap();
            assert_eq!(sample.words().len() as u64, bound.div_ceil(64));
            let sampler = cfg.sampler();
            for e in graph.edges() {
                assert_eq!(sample.is_open(e), sampler.is_open(e), "{}", graph.name());
            }
        }
        let quick = OpenQuestionsExperiment::quick();
        let cfg = PercolationConfig::new(0.5, quick.base_seed);
        let de_bruijn = DeBruijn::new(quick.string_length);
        let shuffle = ShuffleExchange::new(quick.string_length);
        let butterfly = Butterfly::new(quick.butterfly_dimension);
        let cycle = CycleWithMatching::new(
            quick.cycle_order,
            MatchingKind::Random {
                seed: quick.base_seed,
            },
        );
        check(&de_bruijn, &cfg);
        check(&shuffle, &cfg);
        check(&butterfly, &cfg);
        check(&cycle, &cfg);
    }

    #[test]
    fn quick_report_covers_all_four_families() {
        let report = OpenQuestionsExperiment::quick().run();
        assert_eq!(report.tables().len(), 4);
        let text = report.render();
        assert!(text.contains("de_bruijn"));
        assert!(text.contains("shuffle_exchange"));
        assert!(text.contains("butterfly"));
        assert!(text.contains("cycle_matching"));
    }
}

//! Measuring routing complexity (Definition 2 of the paper).
//!
//! The routing complexity of an algorithm `A` with respect to `u, v` is the
//! number of probes `A` makes to find a path in `G_p`, **conditioned on the
//! event `{u ∼ v}`**. The harness in this module turns that definition into a
//! measurement procedure: sample independent fault instances, discard those
//! where `u` and `v` are not connected (checking connectivity with an
//! un-metered BFS or census — the ground truth, not a router), run the
//! router on the remaining instances, verify any returned path, and record
//! the probe counts.
//!
//! The fault process is pluggable: [`ComplexityHarness::measure`] draws
//! each trial from any [`faultnet_faultmodel::FaultModel`] (the paper's
//! i.i.d. edge faults are [`faultnet_faultmodel::BernoulliEdges`]; node
//! faults, correlated regions and adversarial cuts plug in the same way).
//! The trials come from the workspace's one trial loop,
//! [`faultnet_faultmodel::trials::run_trials`]: trial `t` is a pure function
//! of `config.seed() + t`, and results fold in trial order, so the
//! statistics are bit-identical for every [`TrialExec`].

use faultnet_faultmodel::trials::{run_trials, TrialExec, TrialVisitor};
use faultnet_faultmodel::{FaultInstance, FaultModel};
use faultnet_percolation::bfs::connected;
use faultnet_percolation::components::ComponentCensus;
use faultnet_percolation::sample::EdgeStates;
use faultnet_percolation::trial_batch::{LaneView, TrialBatch};
use faultnet_percolation::{EdgeSampler, PercolationConfig};
use faultnet_topology::{Topology, VertexId};

use crate::probe::ProbeEngine;
use crate::router::{RouteError, Router};

/// Outcome classification of a single conditioned trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialResult {
    /// The router found a valid open path; the probe count is recorded.
    Routed {
        /// Probes spent in this trial.
        probes: u64,
    },
    /// The router terminated without a path even though `u ∼ v` held
    /// (possible for deliberately incomplete routers such as strict greedy
    /// or the paper-faithful paired-DFS oracle).
    GaveUp {
        /// Probes spent before giving up.
        probes: u64,
    },
    /// The router hit its probe budget.
    BudgetExhausted {
        /// The budget that was in force.
        budget: u64,
    },
    /// The router returned a path that is not a valid open `u → v` path
    /// (this indicates a bug in the router; the harness surfaces it rather
    /// than silently accepting the claim).
    InvalidPath,
}

/// Aggregated routing-complexity statistics for one router and vertex pair.
///
/// Two `ComplexityStats` compare equal iff every counter **and** the ordered
/// list of per-trial probe counts agree; this is the equality the
/// determinism contract is stated in (see [`ComplexityHarness::measure`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComplexityStats {
    router: String,
    attempted: u32,
    conditioned: u32,
    probe_counts: Vec<u64>,
    gave_up: u32,
    budget_exhausted: u32,
    invalid_paths: u32,
}

impl ComplexityStats {
    fn empty(router: String, attempted: u32) -> Self {
        ComplexityStats {
            router,
            attempted,
            conditioned: 0,
            probe_counts: Vec::new(),
            gave_up: 0,
            budget_exhausted: 0,
            invalid_paths: 0,
        }
    }

    /// Folds one conditioned trial outcome into the statistics.
    fn record(&mut self, result: TrialResult) {
        self.conditioned += 1;
        match result {
            TrialResult::Routed { probes } => self.probe_counts.push(probes),
            TrialResult::GaveUp { .. } => self.gave_up += 1,
            TrialResult::BudgetExhausted { .. } => self.budget_exhausted += 1,
            TrialResult::InvalidPath => self.invalid_paths += 1,
        }
    }

    /// Name of the router that was measured.
    pub fn router(&self) -> &str {
        &self.router
    }

    /// Number of percolation instances sampled in total.
    pub fn attempted_trials(&self) -> u32 {
        self.attempted
    }

    /// Number of instances that satisfied the conditioning event `{u ∼ v}`.
    pub fn conditioned_trials(&self) -> u32 {
        self.conditioned
    }

    /// Empirical probability of the conditioning event.
    pub fn connectivity_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.conditioned as f64 / self.attempted as f64
        }
    }

    /// Probe counts of the successful (routed) trials.
    pub fn probe_counts(&self) -> &[u64] {
        &self.probe_counts
    }

    /// Number of conditioned trials in which the router found a valid path.
    pub fn successes(&self) -> u32 {
        self.probe_counts.len() as u32
    }

    /// Number of conditioned trials in which the router gave up.
    pub fn give_ups(&self) -> u32 {
        self.gave_up
    }

    /// Number of conditioned trials stopped by the probe budget.
    pub fn budget_exhaustions(&self) -> u32 {
        self.budget_exhausted
    }

    /// Number of conditioned trials in which the router returned an invalid
    /// path (always 0 unless a router is buggy).
    pub fn invalid_paths(&self) -> u32 {
        self.invalid_paths
    }

    /// Fraction of conditioned trials in which the router found a path.
    pub fn success_rate(&self) -> f64 {
        if self.conditioned == 0 {
            0.0
        } else {
            self.successes() as f64 / self.conditioned as f64
        }
    }

    /// Mean probe count over successful trials (`NaN` if there were none).
    pub fn mean_probes(&self) -> f64 {
        if self.probe_counts.is_empty() {
            f64::NAN
        } else {
            self.probe_counts.iter().sum::<u64>() as f64 / self.probe_counts.len() as f64
        }
    }

    /// Median probe count over successful trials (`None` if there were none).
    pub fn median_probes(&self) -> Option<u64> {
        if self.probe_counts.is_empty() {
            return None;
        }
        let mut sorted = self.probe_counts.clone();
        sorted.sort_unstable();
        Some(sorted[sorted.len() / 2])
    }

    /// Maximum probe count over successful trials.
    pub fn max_probes(&self) -> Option<u64> {
        self.probe_counts.iter().copied().max()
    }

    /// Minimum probe count over successful trials.
    pub fn min_probes(&self) -> Option<u64> {
        self.probe_counts.iter().copied().min()
    }
}

/// A router the harness can run on every store a trial comes in: one
/// [`FaultInstance`], the bare [`EdgeSampler`] of a plain Bernoulli
/// instance, or one lane of a [`TrialBatch`]. Every router generic over its
/// [`EdgeStates`] is one.
pub trait TrialRouter<T: Topology>:
    Router<T, FaultInstance>
    + Router<T, EdgeSampler>
    + for<'b, 'g> Router<T, LaneView<'b, 'g, T>>
    + Sync
{
}

impl<T, R> TrialRouter<T> for R
where
    T: Topology,
    R: Router<T, FaultInstance>
        + Router<T, EdgeSampler>
        + for<'b, 'g> Router<T, LaneView<'b, 'g, T>>
        + Sync,
{
}

/// Measurement harness realising Definition 2 for a fixed topology, failure
/// probability, and vertex pair.
///
/// # Examples
///
/// ```
/// use faultnet_faultmodel::{trials::TrialExec, BernoulliEdges};
/// use faultnet_percolation::PercolationConfig;
/// use faultnet_routing::{bfs::FloodRouter, complexity::ComplexityHarness};
/// use faultnet_topology::{hypercube::Hypercube, Topology};
///
/// let cube = Hypercube::new(8);
/// let cfg = PercolationConfig::new(0.6, 7);
/// let harness = ComplexityHarness::new(cube, cfg);
/// let (u, v) = harness.graph().canonical_pair();
/// let stats = harness.measure(
///     &BernoulliEdges::new(),
///     &FloodRouter::new(),
///     u,
///     v,
///     10,
///     TrialExec::sequential(),
/// );
/// assert!(stats.success_rate() > 0.9);
/// ```
#[derive(Debug, Clone)]
pub struct ComplexityHarness<T> {
    graph: T,
    config: PercolationConfig,
    probe_budget: Option<u64>,
}

impl<T: Topology> ComplexityHarness<T> {
    /// Creates a harness for `graph` at the given percolation configuration.
    /// Trial `t` uses seed `config.seed() + t`.
    pub fn new(graph: T, config: PercolationConfig) -> Self {
        ComplexityHarness {
            graph,
            config,
            probe_budget: None,
        }
    }

    /// Caps every trial at `budget` probes; trials that exceed it are
    /// recorded as [`TrialResult::BudgetExhausted`] instead of running to
    /// completion. Essential when measuring routers in their exponential
    /// regime (Theorems 3(i) and 7).
    #[must_use]
    pub fn with_probe_budget(mut self, budget: u64) -> Self {
        self.probe_budget = Some(budget);
        self
    }

    /// The topology under measurement.
    pub fn graph(&self) -> &T {
        &self.graph
    }

    /// The percolation configuration (probability and base seed).
    pub fn config(&self) -> PercolationConfig {
        self.config
    }

    /// Classifies one conditioned trial: runs `router` against the given
    /// edge `states` and buckets the outcome. Every store (one instance or
    /// one lane of a batch) goes through here, so all classify identically.
    fn classify_trial<R, S>(&self, router: &R, states: &S, u: VertexId, v: VertexId) -> TrialResult
    where
        S: EdgeStates,
        R: Router<T, S>,
    {
        let span = faultnet_obs::span("routing.trial");
        let mut engine = ProbeEngine::with_locality(&self.graph, states, router.locality(), u);
        if let Some(budget) = self.probe_budget {
            engine = engine.with_budget(budget);
        }
        let result = match router.route(&mut engine, u, v) {
            Ok(outcome) => match outcome.path {
                Some(path) => {
                    if path.connects(u, v) && path.is_valid_open_path(&self.graph, states) {
                        TrialResult::Routed {
                            probes: outcome.probes,
                        }
                    } else {
                        TrialResult::InvalidPath
                    }
                }
                None => TrialResult::GaveUp {
                    probes: outcome.probes,
                },
            },
            Err(RouteError::Probe(crate::probe::ProbeError::BudgetExhausted { budget })) => {
                TrialResult::BudgetExhausted { budget }
            }
            Err(other) => panic!("router {} failed: {other}", router.name()),
        };
        drop(span);
        faultnet_obs::count("routing.trials.conditioned", 1);
        match &result {
            TrialResult::Routed { probes } => {
                faultnet_obs::count("routing.trials.routed", 1);
                faultnet_obs::record("routing.probes_per_trial", *probes);
            }
            TrialResult::GaveUp { .. } => faultnet_obs::count("routing.trials.gave_up", 1),
            TrialResult::BudgetExhausted { .. } => {
                faultnet_obs::count("routing.trials.budget_exhausted", 1)
            }
            TrialResult::InvalidPath => faultnet_obs::count("routing.trials.invalid_path", 1),
        }
        result
    }

    /// Measures `router` between `u` and `v` over `trials` instances of
    /// `model`, conditioning on `{u ∼ v}`.
    ///
    /// Trials come from [`run_trials`]: the model's seed-independent
    /// placement is hoisted once, trial `t` is the instance at seed
    /// `config.seed() + t`, and outcomes fold in trial order. `exec` only
    /// changes how the trials run, never the statistics:
    ///
    /// * `exec.threads` fans trials (or lane chunks) across workers;
    /// * `exec.trial_batch > 0` packs up to 64 trials into one
    ///   [`TrialBatch`] where the model and graph allow, and decides
    ///   conditioning for the whole chunk with
    ///   [`TrialBatch::connected_lanes`];
    /// * on a single instance, `exec.census_threads > 1` checks `{u ∼ v}`
    ///   with [`ComponentCensus::compute_parallel`] instead of the
    ///   early-exiting BFS [`connected`]. The BFS is faster at every
    ///   measured point. Below `1/n` it stops once `u`'s small component
    ///   is exhausted, where a census scans every edge: H₁₆ at p = 0.05
    ///   takes 0.9 µs by BFS vs 16.5 ms by sequential census. With a
    ///   giant component it chases most of the graph over a dense visited
    ///   bitset and still wins: H₁₄ at p = 0.5 takes 1.3 ms by BFS vs
    ///   4.6 ms by sequential census and 2.9 ms on two census workers
    ///   (`conditioning/bfs_vs_census` in the `census` bench target,
    ///   release build, 2-core VM).
    ///
    /// For every `exec`, the result equals
    /// [`ComplexityHarness::measure_with_model`] — every counter and the
    /// ordered probe counts (the `trial_equivalence` suite pins this).
    ///
    /// # Panics
    ///
    /// Panics if `exec.threads == 0`, or if the router reports an error
    /// other than budget exhaustion (locality violations and
    /// unsupported-topology errors indicate misuse and should fail loudly).
    ///
    /// # Examples
    ///
    /// ```
    /// use faultnet_faultmodel::{trials::TrialExec, BernoulliNodes};
    /// use faultnet_percolation::PercolationConfig;
    /// use faultnet_routing::{bfs::FloodRouter, complexity::ComplexityHarness};
    /// use faultnet_topology::{hypercube::Hypercube, Topology};
    ///
    /// let harness = ComplexityHarness::new(Hypercube::new(7), PercolationConfig::new(0.8, 3));
    /// let (u, v) = harness.graph().canonical_pair();
    /// let model = BernoulliNodes::new();
    /// let sequential = harness.measure_with_model(&model, &FloodRouter::new(), u, v, 12);
    /// let exec = TrialExec::sequential().with_threads(4).with_trial_batch(64);
    /// let batched = harness.measure(&model, &FloodRouter::new(), u, v, 12, exec);
    /// assert_eq!(sequential, batched);
    /// ```
    pub fn measure<M, R>(
        &self,
        model: &M,
        router: &R,
        u: VertexId,
        v: VertexId,
        trials: u32,
        exec: TrialExec,
    ) -> ComplexityStats
    where
        T: Sync,
        M: FaultModel + Sync + ?Sized,
        R: TrialRouter<T>,
    {
        let visitor = Conditioned {
            harness: self,
            router,
            u,
            v,
            census_threads: exec.census_threads,
        };
        let per_trial = run_trials(
            model,
            &self.graph,
            self.config,
            (u, v),
            trials,
            exec,
            &visitor,
        );
        let mut stats = ComplexityStats::empty(Router::<T, FaultInstance>::name(router), trials);
        for result in per_trial.into_iter().flatten() {
            stats.record(result);
        }
        stats
    }

    /// The sequential scalar measurement: [`ComplexityHarness::measure`]
    /// under [`TrialExec::sequential`], the oracle every other `exec` must
    /// reproduce.
    pub fn measure_with_model<M, R>(
        &self,
        model: &M,
        router: &R,
        u: VertexId,
        v: VertexId,
        trials: u32,
    ) -> ComplexityStats
    where
        T: Sync,
        M: FaultModel + Sync + ?Sized,
        R: TrialRouter<T>,
    {
        self.measure(model, router, u, v, trials, TrialExec::sequential())
    }

    /// [`ComplexityHarness::measure`] on `threads` workers with
    /// `trial_batch` lanes per chunk.
    #[allow(clippy::too_many_arguments)]
    pub fn measure_batched_with_model<M, R>(
        &self,
        model: &M,
        router: &R,
        u: VertexId,
        v: VertexId,
        trials: u32,
        trial_batch: usize,
        threads: usize,
    ) -> ComplexityStats
    where
        T: Sync,
        M: FaultModel + Sync + ?Sized,
        R: TrialRouter<T>,
    {
        let exec = TrialExec::sequential()
            .with_threads(threads)
            .with_trial_batch(trial_batch);
        self.measure(model, router, u, v, trials, exec)
    }
}

/// The Definition 2 trial: condition on `{u ∼ v}`, then route and classify.
struct Conditioned<'a, T, R> {
    harness: &'a ComplexityHarness<T>,
    router: &'a R,
    u: VertexId,
    v: VertexId,
    census_threads: usize,
}

impl<T, R> Conditioned<'_, T, R>
where
    T: Topology + Sync,
    R: TrialRouter<T>,
{
    /// Conditions one scalar trial on `{u ∼ v}`, then routes it.
    fn scalar<S>(&self, states: &S) -> Option<TrialResult>
    where
        S: EdgeStates + Sync,
        R: Router<T, S>,
    {
        let (graph, u, v) = (&self.harness.graph, self.u, self.v);
        let conditioned = if self.census_threads <= 1 {
            connected(graph, states, u, v)
        } else {
            ComponentCensus::compute_parallel(graph, states, self.census_threads)
                .same_component(u, v)
        };
        if !conditioned {
            faultnet_obs::count("routing.trials.rejected", 1);
            return None;
        }
        Some(self.harness.classify_trial(self.router, states, u, v))
    }
}

impl<T, R> TrialVisitor<T> for Conditioned<'_, T, R>
where
    T: Topology + Sync,
    R: TrialRouter<T>,
{
    type Output = Option<TrialResult>;

    fn instance(&self, instance: &FaultInstance) -> Option<TrialResult> {
        // A plain Bernoulli instance runs on its bare sampler: the same
        // edge states, without the overlay checks on every probed edge.
        match instance.bare_sampler() {
            Some(sampler) => self.scalar(sampler),
            None => self.scalar(instance),
        }
    }

    fn batch(&self, batch: &TrialBatch<'_, T>) -> Vec<Option<TrialResult>> {
        let conditioned = batch.connected_lanes(self.u, self.v);
        (0..batch.lanes())
            .map(|l| {
                if conditioned >> l & 1 == 1 {
                    let lane = batch.lane_view(l);
                    Some(
                        self.harness
                            .classify_trial(self.router, &lane, self.u, self.v),
                    )
                } else {
                    faultnet_obs::count("routing.trials.rejected", 1);
                    None
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::FloodRouter;
    use crate::gnp::{BidirectionalGrowthRouter, IncrementalLocalRouter};
    use crate::hypercube::GreedyHypercubeRouter;
    use faultnet_faultmodel::{AdversarialBudget, BernoulliEdges, BernoulliNodes, FaultModelSpec};
    use faultnet_topology::complete::CompleteGraph;
    use faultnet_topology::hypercube::Hypercube;

    fn exec(threads: usize, census_threads: usize, trial_batch: usize) -> TrialExec {
        TrialExec::sequential()
            .with_threads(threads)
            .with_census_threads(census_threads)
            .with_trial_batch(trial_batch)
    }

    /// The paper's edge faults, measured sequentially.
    fn bernoulli<T, R>(harness: &ComplexityHarness<T>, router: &R, trials: u32) -> ComplexityStats
    where
        T: Topology + Sync,
        R: TrialRouter<T>,
    {
        let (u, v) = harness.graph().canonical_pair();
        harness.measure_with_model(&BernoulliEdges::new(), router, u, v, trials)
    }

    #[test]
    fn flood_router_never_fails_under_conditioning() {
        let cube = Hypercube::new(8);
        let harness = ComplexityHarness::new(cube, PercolationConfig::new(0.4, 11));
        let stats = bernoulli(&harness, &FloodRouter::new(), 20);
        assert_eq!(stats.attempted_trials(), 20);
        assert!(stats.conditioned_trials() > 0);
        assert_eq!(stats.successes(), stats.conditioned_trials());
        assert_eq!(stats.give_ups(), 0);
        assert_eq!(stats.invalid_paths(), 0);
        assert_eq!(stats.success_rate(), 1.0);
        assert!(stats.mean_probes() > 0.0);
        assert!(stats.median_probes().unwrap() <= stats.max_probes().unwrap());
        assert!(stats.min_probes().unwrap() <= stats.median_probes().unwrap());
        assert_eq!(stats.router(), "flood-bfs");
    }

    #[test]
    fn incomplete_router_records_give_ups() {
        // Strict greedy strands regularly at p = 0.4 on the 9-cube.
        let cube = Hypercube::new(9);
        let harness = ComplexityHarness::new(cube, PercolationConfig::new(0.4, 3));
        let stats = bernoulli(&harness, &GreedyHypercubeRouter::strict(), 30);
        assert_eq!(
            stats.successes() + stats.give_ups(),
            stats.conditioned_trials()
        );
        assert!(stats.give_ups() > 0, "expected greedy to strand at p = 0.4");
        assert!(stats.success_rate() < 1.0);
    }

    #[test]
    fn budget_exhaustion_is_recorded() {
        let cube = Hypercube::new(8);
        let harness =
            ComplexityHarness::new(cube, PercolationConfig::new(0.5, 5)).with_probe_budget(3);
        let stats = bernoulli(&harness, &FloodRouter::new(), 10);
        assert!(stats.budget_exhaustions() > 0);
        assert_eq!(stats.successes(), 0);
    }

    #[test]
    fn connectivity_rate_reflects_percolation() {
        let cube = Hypercube::new(8);
        let harness_high = ComplexityHarness::new(cube, PercolationConfig::new(0.9, 1));
        let harness_low = ComplexityHarness::new(cube, PercolationConfig::new(0.05, 1));
        let high = bernoulli(&harness_high, &FloodRouter::new(), 20);
        let low = bernoulli(&harness_low, &FloodRouter::new(), 20);
        assert!(high.connectivity_rate() > low.connectivity_rate());
        assert_eq!(low.conditioned_trials(), 0);
        assert_eq!(low.success_rate(), 0.0);
        assert!(low.mean_probes().is_nan());
        assert!(low.median_probes().is_none());
    }

    #[test]
    fn parallel_measure_is_bit_identical_to_sequential() {
        let cube = Hypercube::new(8);
        let (u, v) = cube.canonical_pair();
        let model = BernoulliEdges::new();
        for seed in [1u64, 7, 42] {
            let harness = ComplexityHarness::new(cube, PercolationConfig::new(0.45, seed));
            let sequential = bernoulli(&harness, &FloodRouter::new(), 16);
            for threads in [1usize, 2, 3, 8, 32] {
                let parallel =
                    harness.measure(&model, &FloodRouter::new(), u, v, 16, exec(threads, 1, 0));
                assert_eq!(sequential, parallel, "seed {seed}, threads {threads}");
            }
        }
    }

    #[test]
    fn parallel_measure_preserves_budget_classification() {
        let cube = Hypercube::new(8);
        let harness =
            ComplexityHarness::new(cube, PercolationConfig::new(0.5, 5)).with_probe_budget(3);
        let (u, v) = cube.canonical_pair();
        let sequential = bernoulli(&harness, &FloodRouter::new(), 10);
        let parallel = harness.measure(
            &BernoulliEdges::new(),
            &FloodRouter::new(),
            u,
            v,
            10,
            exec(4, 1, 0),
        );
        assert_eq!(sequential, parallel);
        assert!(parallel.budget_exhaustions() > 0);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let cube = Hypercube::new(4);
        let harness = ComplexityHarness::new(cube, PercolationConfig::new(0.5, 1));
        let (u, v) = cube.canonical_pair();
        let exec = TrialExec {
            threads: 0,
            ..TrialExec::sequential()
        };
        let _ = harness.measure(&BernoulliEdges::new(), &FloodRouter::new(), u, v, 4, exec);
    }

    #[test]
    fn parallel_measure_with_zero_trials() {
        let cube = Hypercube::new(4);
        let harness = ComplexityHarness::new(cube, PercolationConfig::new(0.5, 1));
        let (u, v) = cube.canonical_pair();
        let stats = harness.measure(
            &BernoulliEdges::new(),
            &FloodRouter::new(),
            u,
            v,
            0,
            exec(4, 1, 0),
        );
        assert_eq!(stats.attempted_trials(), 0);
        assert_eq!(stats.conditioned_trials(), 0);
    }

    #[test]
    fn bernoulli_edges_model_reproduces_the_legacy_measurement_exactly() {
        // The paper's model through the FaultModel path must be
        // indistinguishable from conditioning and routing directly on the
        // lazy edge sampler: same conditioning decisions, same probe
        // counts, same buckets.
        let cube = Hypercube::new(8);
        let (u, v) = cube.canonical_pair();
        let router = FloodRouter::new();
        for (p, seed) in [(0.4, 11u64), (0.55, 3), (0.9, 42)] {
            let harness = ComplexityHarness::new(cube, PercolationConfig::new(p, seed));
            let mut legacy =
                ComplexityStats::empty(Router::<Hypercube, FaultInstance>::name(&router), 16);
            for t in 0..16u64 {
                let sampler = harness.config().with_seed(seed + t).sampler();
                if connected(&cube, &sampler, u, v) {
                    legacy.record(harness.classify_trial(&router, &sampler, u, v));
                }
            }
            assert_eq!(
                legacy,
                bernoulli(&harness, &router, 16),
                "p = {p}, seed = {seed}"
            );
        }
    }

    #[test]
    fn every_fault_model_measures_bit_identically_across_thread_counts() {
        // The acceptance criterion of the fault-model subsystem: for every
        // model, the parallel merge is bit-identical to the sequential fold.
        let cube = Hypercube::new(7);
        let harness = ComplexityHarness::new(cube, PercolationConfig::new(0.7, 5));
        let (u, v) = cube.canonical_pair();
        for spec in FaultModelSpec::ALL {
            let model = spec.build();
            let sequential = harness.measure_with_model(&model, &FloodRouter::new(), u, v, 12);
            assert!(
                sequential.conditioned_trials() > 0,
                "{spec}: no conditioned trials — the determinism check would be vacuous"
            );
            for threads in [1usize, 2, 4] {
                let parallel =
                    harness.measure(&model, &FloodRouter::new(), u, v, 12, exec(threads, 1, 0));
                assert_eq!(sequential, parallel, "{spec} diverged at threads {threads}");
            }
        }
    }

    #[test]
    fn node_faults_lower_connectivity_below_edge_faults() {
        // At equal p, node faults are strictly harsher than edge faults on
        // the conditioning event: the routed pair itself must survive.
        let cube = Hypercube::new(8);
        let harness = ComplexityHarness::new(cube, PercolationConfig::new(0.8, 9));
        let (u, v) = cube.canonical_pair();
        let edges =
            harness.measure_with_model(&BernoulliEdges::new(), &FloodRouter::new(), u, v, 30);
        let nodes =
            harness.measure_with_model(&BernoulliNodes::new(), &FloodRouter::new(), u, v, 30);
        assert!(
            nodes.connectivity_rate() < edges.connectivity_rate(),
            "nodes {} vs edges {}",
            nodes.connectivity_rate(),
            edges.connectivity_rate()
        );
        // Flood routing stays complete under conditioning for every model.
        assert_eq!(nodes.successes(), nodes.conditioned_trials());
    }

    #[test]
    fn adversary_with_full_degree_budget_defeats_conditioning() {
        let cube = Hypercube::new(6);
        let harness = ComplexityHarness::new(cube, PercolationConfig::new(1.0, 2));
        let (u, v) = cube.canonical_pair();
        // Budget = deg(u): the adversary isolates the source even with no
        // random faults at all, so no trial ever satisfies {u ∼ v}.
        let stats =
            harness.measure_with_model(&AdversarialBudget::new(6), &FloodRouter::new(), u, v, 8);
        assert_eq!(stats.conditioned_trials(), 0);
        // One cut short of the degree leaves the pair routable at p = 1:
        // every trial conditions and floods its way around the cuts.
        let stats =
            harness.measure_with_model(&AdversarialBudget::new(5), &FloodRouter::new(), u, v, 8);
        assert_eq!(stats.successes(), 8);
        assert_eq!(stats.connectivity_rate(), 1.0);
    }

    #[test]
    fn census_conditioning_is_bit_identical_to_bfs_conditioning() {
        // census_threads > 1 swaps the single-instance conditioning check
        // from BFS to the parallel census; both decide exactly the same
        // connectivity event, so measurements must not move by a bit — for
        // the paper's model and for every fault model, sequential or
        // parallel.
        let cube = Hypercube::new(8);
        let harness = ComplexityHarness::new(cube, PercolationConfig::new(0.45, 9));
        let (u, v) = cube.canonical_pair();
        for spec in FaultModelSpec::ALL {
            let model = spec.build();
            let bfs = harness.measure_with_model(&model, &FloodRouter::new(), u, v, 14);
            assert!(bfs.conditioned_trials() > 0, "{spec}: vacuous check");
            for census_threads in [2usize, 4] {
                for threads in [1usize, 2] {
                    let censused = harness.measure(
                        &model,
                        &FloodRouter::new(),
                        u,
                        v,
                        14,
                        exec(threads, census_threads, 0),
                    );
                    assert_eq!(
                        bfs, censused,
                        "{spec}: census_threads {census_threads}, threads {threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn cached_adversary_placement_is_byte_identical_to_per_trial_recomputation() {
        // The trial loop hoists the adversary's greedy placement once per
        // measurement; the uncached oracle asks the model for a fresh
        // instance in every trial. The two must agree byte for byte, on
        // one thread and on several.
        let cube = Hypercube::new(7);
        let harness = ComplexityHarness::new(cube, PercolationConfig::new(0.75, 13));
        let (u, v) = cube.canonical_pair();
        let model = AdversarialBudget::new(3);
        let router = FloodRouter::new();
        let trials = 12;
        let mut uncached =
            ComplexityStats::empty(Router::<Hypercube, FaultInstance>::name(&router), trials);
        for t in 0..trials {
            let seed = harness.config().seed().wrapping_add(t as u64);
            let instance = model.instance(&cube, harness.config().with_seed(seed), Some((u, v)));
            if connected(&cube, &instance, u, v) {
                uncached.record(harness.classify_trial(&router, &instance, u, v));
            }
        }
        assert!(uncached.conditioned_trials() > 0, "vacuous comparison");
        for threads in [1usize, 3] {
            let cached = harness.measure(&model, &router, u, v, trials, exec(threads, 1, 0));
            assert_eq!(cached, uncached, "threads {threads}");
        }
    }

    #[test]
    fn batched_measure_is_bit_identical_to_sequential() {
        // The zoo-wide version lives in tests/trial_equivalence.rs; this
        // unit test pins the contract on one family, including the ragged
        // tail (14 % 4 != 0) and single-lane batches.
        let cube = Hypercube::new(8);
        let (u, v) = cube.canonical_pair();
        for seed in [1u64, 42] {
            let harness = ComplexityHarness::new(cube, PercolationConfig::new(0.45, seed));
            let scalar = bernoulli(&harness, &FloodRouter::new(), 14);
            assert!(scalar.conditioned_trials() > 0, "vacuous check");
            for trial_batch in [1usize, 4, 64, 200] {
                for threads in [1usize, 3] {
                    let batched = harness.measure(
                        &BernoulliEdges::new(),
                        &FloodRouter::new(),
                        u,
                        v,
                        14,
                        exec(threads, 1, trial_batch),
                    );
                    assert_eq!(
                        scalar, batched,
                        "seed {seed}, trial_batch {trial_batch}, threads {threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_measure_preserves_budget_classification() {
        let cube = Hypercube::new(8);
        let harness =
            ComplexityHarness::new(cube, PercolationConfig::new(0.5, 5)).with_probe_budget(3);
        let (u, v) = cube.canonical_pair();
        let scalar = bernoulli(&harness, &FloodRouter::new(), 10);
        let batched = harness.measure_batched_with_model(
            &BernoulliEdges::new(),
            &FloodRouter::new(),
            u,
            v,
            10,
            64,
            2,
        );
        assert_eq!(scalar, batched);
        assert!(batched.budget_exhaustions() > 0);
    }

    #[test]
    fn batched_measure_with_zero_trials_is_empty() {
        let cube = Hypercube::new(4);
        let harness = ComplexityHarness::new(cube, PercolationConfig::new(0.5, 1));
        let (u, v) = cube.canonical_pair();
        let stats = harness.measure(
            &BernoulliEdges::new(),
            &FloodRouter::new(),
            u,
            v,
            0,
            exec(4, 1, 64),
        );
        assert_eq!(stats.attempted_trials(), 0);
        assert_eq!(stats.conditioned_trials(), 0);
    }

    #[test]
    fn every_fault_model_measures_bit_identically_batched() {
        // Benign models ride the multispin store; the adversary declares
        // itself non-batchable and falls back to the scalar store. Either
        // way the statistics must not move by a bit.
        let cube = Hypercube::new(7);
        let harness = ComplexityHarness::new(cube, PercolationConfig::new(0.7, 5));
        let (u, v) = cube.canonical_pair();
        for spec in FaultModelSpec::ALL {
            let model = spec.build();
            let scalar = harness.measure_with_model(&model, &FloodRouter::new(), u, v, 12);
            assert!(scalar.conditioned_trials() > 0, "{spec}: vacuous check");
            for trial_batch in [1usize, 5, 64] {
                let batched = harness.measure(
                    &model,
                    &FloodRouter::new(),
                    u,
                    v,
                    12,
                    exec(2, 1, trial_batch),
                );
                assert_eq!(
                    scalar, batched,
                    "{spec} diverged at trial_batch {trial_batch}"
                );
            }
        }
    }

    #[test]
    fn gnp_routers_measured_through_the_harness() {
        let k = CompleteGraph::new(80);
        let p = 2.5 / 80.0;
        let harness = ComplexityHarness::new(k, PercolationConfig::new(p, 17));
        let local = bernoulli(&harness, &IncrementalLocalRouter::new(), 15);
        let oracle = bernoulli(&harness, &BidirectionalGrowthRouter::new(), 15);
        assert_eq!(local.success_rate(), 1.0);
        assert_eq!(oracle.success_rate(), 1.0);
        assert!(oracle.mean_probes() < local.mean_probes());
    }
}

//! The one trial loop behind every Monte-Carlo measurement.
//!
//! The paper makes two kinds of measurement. Definition 2's routing
//! complexity samples `G_p`, keeps the trials where `u ∼ v`, and counts
//! probes; the giant-component fraction behind the `1/n` and `1/2`
//! hypercube thresholds and the mesh `p_c` censuses every sample. Both are
//! a fold over the same loop, and [`run_trials`] is that loop:
//!
//! * the model's seed-independent placement is hoisted once
//!   ([`FaultModel::pair_placement`]);
//! * trial `t` is the instance at seed `config.seed() + t`;
//! * the loop picks the store: visitors whose lanes pay off (census) get
//!   chunks of up to 64 consecutive trials in one [`TrialBatch`] (lane `l`
//!   of the chunk at `t0` is trial `t0 + l`); the rest (Definition-2
//!   routing) get one [`FaultInstance`] per trial;
//! * chunks fan out over [`Sweep::run_parallel`], inline at one thread;
//! * per-trial results come back in trial order.
//!
//! What a measurement does with a trial is a [`TrialVisitor`], with one
//! method per store. Because every trial is a pure function of its seed
//! and results are returned in trial order, the output is identical for
//! every store and every [`TrialExec`]: the knobs only change wall-clock
//! time.

use faultnet_analysis::sweep::Sweep;
use faultnet_percolation::trial_batch::{clamp_lanes, TrialBatch};
use faultnet_percolation::PercolationConfig;
use faultnet_topology::{Topology, VertexId};

use crate::{FaultInstance, FaultModel};

/// Wall-clock execution knobs for a trial-fan-out measurement.
///
/// Neither knob changes a reported number. Trials fold in trial order,
/// and each lane of the batched store is bit-identical to its scalar
/// trial (proven by its own equivalence suite), so a `TrialExec` is purely
/// a wall-clock configuration. The instance store is not a user knob:
/// [`run_trials`] picks it from the visitor, and `trial_batch` only forces
/// a lane width for tests and benchmarks.
///
/// # Examples
///
/// ```
/// use faultnet_faultmodel::trials::TrialExec;
///
/// let exec = TrialExec::sequential().with_threads(4).with_trial_batch(64);
/// assert_eq!(exec.threads, 4);
/// assert!(exec.batched());
/// assert!(!TrialExec::default().batched());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialExec {
    /// Per-trial (or per-chunk, when batched) worker threads; at least 1.
    pub threads: usize,
    /// Forced lane width: 0 (the default) lets [`run_trials`] pick the
    /// store; `N >= 1` forces the multispin store with `min(N, 64)` lanes
    /// per word wherever the model and graph allow it.
    pub trial_batch: usize,
}

impl TrialExec {
    /// Fully sequential execution: one thread, and the store left to
    /// [`run_trials`]. The baseline every other configuration
    /// must bit-identically reproduce.
    pub fn sequential() -> Self {
        TrialExec {
            threads: 1,
            trial_batch: 0,
        }
    }

    /// Sets the per-trial worker count (clamped to at least 1).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Forces a lane width (0 leaves the store to [`run_trials`]).
    #[must_use]
    pub fn with_trial_batch(mut self, trial_batch: usize) -> Self {
        self.trial_batch = trial_batch;
        self
    }

    /// Whether a lane width is forced.
    pub fn batched(&self) -> bool {
        self.trial_batch > 0
    }
}

impl Default for TrialExec {
    fn default() -> Self {
        TrialExec::sequential()
    }
}

/// What a measurement does with each trial, once per instance store.
///
/// [`run_trials`] calls exactly one of the two methods for every trial,
/// and the results must not depend on which: lane `l` of a batch is the
/// same instance the scalar store would have built for that trial.
pub trait TrialVisitor<T: ?Sized>: Sync {
    /// The per-trial result.
    type Output: Send;

    /// Whether packing trials into lanes pays off for this visitor. A
    /// census reads every edge of every lane, so sampling them all in one
    /// pass wins; a conditioned route reads a few edges of one instance at
    /// a time and runs faster on its own. Defaults to `false`.
    fn lanes_pay_off(&self) -> bool {
        false
    }

    /// Visits one trial materialised as a single [`FaultInstance`].
    fn instance(&self, instance: &FaultInstance) -> Self::Output;

    /// Visits a chunk of consecutive trials packed into one [`TrialBatch`],
    /// returning one result per lane, in lane order.
    fn batch(&self, batch: &TrialBatch<'_, T>) -> Vec<Self::Output>;
}

/// Runs `trials` trials of `model` on `graph` and returns `visitor`'s
/// per-trial results in trial order.
///
/// Trial `t` is the instance at seed `config.seed() + t` (wrapping) for
/// the routed `pair`. The loop picks the store:
///
/// * a visitor whose [lanes pay off](TrialVisitor::lanes_pay_off) gets
///   `ceil(trials / exec.threads)` lanes per chunk, clamped to 64, so
///   every worker gets one chunk; a width of 1 runs scalar;
/// * every other visitor runs scalar, one [`FaultInstance`] per trial;
/// * a forced `exec.trial_batch > 0` overrides both with that width.
///
/// Lanes need a [`FaultModel::lane_batchable`] model; otherwise the loop
/// runs scalar. Every store is O(|E|) per chunk, and the results are the
/// same for every choice.
///
/// # Panics
///
/// Panics if `exec.threads == 0`, or if the visitor panics.
pub fn run_trials<M, T, V>(
    model: &M,
    graph: &T,
    config: PercolationConfig,
    pair: (VertexId, VertexId),
    trials: u32,
    exec: TrialExec,
    visitor: &V,
) -> Vec<V::Output>
where
    M: FaultModel + Sync + ?Sized,
    T: Topology + Sync,
    V: TrialVisitor<T>,
{
    assert!(exec.threads > 0, "at least one thread is required");
    let placement = model.pair_placement(graph, pair);
    let instance = |t: u32| {
        let seed = config.seed().wrapping_add(u64::from(t));
        model.instance_from_placement(&placement, graph, config.with_seed(seed), pair)
    };
    let width = lane_width(visitor.lanes_pay_off(), trials, exec);
    let batched = width > 0 && model.lane_batchable();
    let lanes = if batched { clamp_lanes(width) } else { 1 };
    let run_chunk = |&t0: &u32| -> Vec<V::Output> {
        if !batched {
            return vec![visitor.instance(&instance(t0))];
        }
        let end = t0.saturating_add(lanes as u32).min(trials);
        let instances: Vec<FaultInstance> = (t0..end).map(instance).collect();
        visitor.batch(&TrialBatch::from_lane_states(graph, &instances))
    };
    let starts: Vec<u32> = (0..trials).step_by(lanes).collect();
    // Chunks extend one preallocated vector: collecting them into a
    // `Vec<Vec<_>>` and flattening afterwards raised peak RSS by one edge
    // list (8 MB on H₁₆) every few calls, measured on repeated giant scans.
    let mut per_trial = Vec::with_capacity(trials as usize);
    if exec.threads == 1 || starts.len() <= 1 {
        for t0 in &starts {
            per_trial.extend(run_chunk(t0));
        }
    } else {
        for chunk in Sweep::over(starts).run_parallel(exec.threads, run_chunk) {
            per_trial.extend(chunk.value);
        }
    }
    per_trial
}

/// The lane width [`run_trials`] asks for, before clamping; 0 = scalar.
fn lane_width(lanes_pay_off: bool, trials: u32, exec: TrialExec) -> usize {
    if exec.batched() {
        return exec.trial_batch;
    }
    let per_worker = (trials as usize).div_ceil(exec.threads);
    if lanes_pay_off && per_worker > 1 {
        per_worker
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BernoulliEdges, FaultModelSpec};
    use faultnet_percolation::BitsetSample;
    use faultnet_topology::hypercube::Hypercube;
    use faultnet_topology::mesh::Mesh;

    /// Records each trial's bitset words, so a run's output pins the exact
    /// instance every trial saw, whichever store carried it.
    struct Words<'g, T> {
        graph: &'g T,
        lanes_pay_off: bool,
    }

    impl<T: Topology + Sync> TrialVisitor<T> for Words<'_, T> {
        type Output = Vec<u64>;

        fn lanes_pay_off(&self) -> bool {
            self.lanes_pay_off
        }

        fn instance(&self, instance: &FaultInstance) -> Vec<u64> {
            BitsetSample::from_states(self.graph, instance)
                .words()
                .to_vec()
        }

        fn batch(&self, batch: &TrialBatch<'_, T>) -> Vec<Vec<u64>> {
            (0..batch.lanes())
                .map(|l| {
                    BitsetSample::from_states(self.graph, &batch.lane_view(l))
                        .words()
                        .to_vec()
                })
                .collect()
        }
    }

    #[test]
    fn sequential_is_the_default() {
        assert_eq!(TrialExec::default(), TrialExec::sequential());
        assert_eq!(TrialExec::sequential().threads, 1);
        assert!(!TrialExec::sequential().batched());
    }

    #[test]
    fn builders_clamp_threads_but_not_the_batch() {
        let exec = TrialExec::sequential().with_threads(0).with_trial_batch(0);
        assert_eq!(exec.threads, 1);
        // 0 is meaningful for the batch knob: the trial loop decides.
        assert_eq!(exec.trial_batch, 0);
        assert!(TrialExec::sequential().with_trial_batch(200).batched());
    }

    #[test]
    fn every_exec_visits_the_same_instances_in_trial_order() {
        let cube = Hypercube::new(6);
        let config = PercolationConfig::new(0.5, 41);
        let pair = cube.canonical_pair();
        for spec in FaultModelSpec::ALL {
            let model = spec.build();
            let run = |trials, exec, lanes_pay_off| {
                let visitor = Words {
                    graph: &cube,
                    lanes_pay_off,
                };
                run_trials(&*model, &cube, config, pair, trials, exec, &visitor)
            };
            // Trial t of the oracle is the instance at seed 41 + t.
            let oracle = run(67, TrialExec::sequential(), false);
            for (t, words) in oracle.iter().enumerate() {
                let direct = model.instance(&cube, config.with_seed(41 + t as u64), Some(pair));
                assert_eq!(
                    words,
                    BitsetSample::from_states(&cube, &direct).words(),
                    "{spec}, trial {t}"
                );
            }
            for threads in [1, 2, 3] {
                for trial_batch in [0, 1, 5, 64] {
                    let exec = TrialExec::sequential()
                        .with_threads(threads)
                        .with_trial_batch(trial_batch);
                    for lanes_pay_off in [false, true] {
                        let label = format!("{spec}, {exec:?}, lanes pay off: {lanes_pay_off}");
                        assert_eq!(oracle, run(67, exec, lanes_pay_off), "{label}");
                        assert!(run(0, exec, lanes_pay_off).is_empty(), "{label}: 0 trials");
                    }
                }
            }
        }
    }

    /// Reports the lane width each trial ran at (0 = the scalar store).
    struct Stores {
        lanes_pay_off: bool,
    }

    impl<T: Topology + ?Sized> TrialVisitor<T> for Stores {
        type Output = usize;

        fn lanes_pay_off(&self) -> bool {
            self.lanes_pay_off
        }

        fn instance(&self, _: &FaultInstance) -> usize {
            0
        }

        fn batch(&self, batch: &TrialBatch<'_, T>) -> Vec<usize> {
            vec![batch.lanes(); batch.lanes()]
        }
    }

    const CENSUS: Stores = Stores {
        lanes_pay_off: true,
    };
    const ROUTING: Stores = Stores {
        lanes_pay_off: false,
    };

    #[test]
    fn the_batched_store_is_chosen_exactly_when_every_condition_holds() {
        let mesh = Mesh::new(2, 4);
        let config = PercolationConfig::new(0.5, 3);
        let pair = mesh.canonical_pair();
        let widths = |spec: FaultModelSpec, trials, exec, visitor: &Stores| {
            let mut widths = run_trials(&*spec.build(), &mesh, config, pair, trials, exec, visitor);
            widths.dedup();
            widths
        };
        let edges = FaultModelSpec::BernoulliEdges;
        let threads = |n| TrialExec::sequential().with_threads(n);
        // Census batches ceil(trials / threads) lanes, clamped to 64, so
        // every worker gets one chunk.
        assert_eq!(widths(edges, 30, threads(1), &CENSUS), [30]);
        assert_eq!(widths(edges, 30, threads(2), &CENSUS), [15]);
        assert_eq!(widths(edges, 31, threads(2), &CENSUS), [16, 15]);
        assert_eq!(widths(edges, 200, threads(1), &CENSUS), [64, 8]);
        // One lane per chunk is the scalar store.
        assert_eq!(widths(edges, 2, threads(2), &CENSUS), [0]);
        assert_eq!(widths(edges, 1, threads(1), &CENSUS), [0]);
        // Definition-2 routing always runs scalar.
        assert_eq!(widths(edges, 30, threads(1), &ROUTING), [0]);
        assert_eq!(widths(edges, 30, threads(2), &ROUTING), [0]);
        // A forced width overrides both choices.
        let forced = threads(2).with_trial_batch(5);
        assert_eq!(widths(edges, 10, forced, &ROUTING), [5]);
        assert_eq!(widths(edges, 10, forced, &CENSUS), [5]);
        assert_eq!(
            widths(edges, 3, threads(1).with_trial_batch(1), &ROUTING),
            [1]
        );
        // A model that is not lane-batchable runs scalar, forced or not.
        let adversary = FaultModelSpec::AdversarialBudget;
        assert_eq!(widths(adversary, 30, threads(1), &CENSUS), [0]);
        assert_eq!(widths(adversary, 30, forced, &CENSUS), [0]);
        // Explicit graphs batch like the closed-form families.
        let explicit = faultnet_topology::explicit::ExplicitGraph::from_topology(&mesh);
        assert!(TrialBatch::supported(&explicit));
        assert_eq!(
            run_trials(
                &BernoulliEdges::new(),
                &explicit,
                config,
                pair,
                3,
                TrialExec::sequential(),
                &CENSUS
            ),
            [3; 3]
        );
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let mesh = Mesh::new(2, 4);
        let exec = TrialExec {
            threads: 0,
            ..TrialExec::sequential()
        };
        let config = PercolationConfig::new(0.5, 3);
        let _ = run_trials(
            &BernoulliEdges::new(),
            &mesh,
            config,
            mesh.canonical_pair(),
            3,
            exec,
            &CENSUS,
        );
    }
}

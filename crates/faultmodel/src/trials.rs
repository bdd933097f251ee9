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
//! * with batching on, chunks of up to 64 consecutive trials share one
//!   [`TrialBatch`] (lane `l` of the chunk at `t0` is trial `t0 + l`);
//!   otherwise each trial is one [`FaultInstance`];
//! * chunks fan out over [`Sweep::run_parallel`], inline at one thread;
//! * per-trial results come back in trial order.
//!
//! What a measurement does with a trial is a [`TrialVisitor`], with one
//! method per store. Because every trial is a pure function of its seed
//! and results are returned in trial order, the output is identical for
//! every [`TrialExec`]: the knobs only change wall-clock time.

use faultnet_analysis::sweep::Sweep;
use faultnet_percolation::trial_batch::{clamp_lanes, TrialBatch};
use faultnet_percolation::PercolationConfig;
use faultnet_topology::{Topology, VertexId};

use crate::{warn_scalar_fallback, FaultInstance, FaultModel};

/// Wall-clock execution knobs for a trial-fan-out measurement.
///
/// All three share one contract: **they never change a reported number**.
/// Trials fold in trial order, the parallel census is bit-identical to the
/// sequential one, and each lane of the batched store is bit-identical to
/// its scalar trial (each proven by its own equivalence suite), so a
/// `TrialExec` is purely a wall-clock configuration.
///
/// # Examples
///
/// ```
/// use faultnet_faultmodel::trials::TrialExec;
///
/// let exec = TrialExec::sequential().with_threads(4).with_trial_batch(64);
/// assert_eq!(exec.threads, 4);
/// assert_eq!(exec.census_threads, 1);
/// assert!(exec.batched());
/// assert!(!TrialExec::default().batched());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialExec {
    /// Per-trial (or per-chunk, when batched) worker threads; at least 1.
    pub threads: usize,
    /// Intra-census worker threads; 1 = sequential census.
    pub census_threads: usize,
    /// Trial-batch lane request: 0 = scalar engine, `N >= 1` = multispin
    /// engine with `min(N, 64)` lanes per word.
    pub trial_batch: usize,
}

impl TrialExec {
    /// Fully sequential scalar execution: one thread, sequential census,
    /// batching off. The baseline every other configuration must
    /// bit-identically reproduce.
    pub fn sequential() -> Self {
        TrialExec {
            threads: 1,
            census_threads: 1,
            trial_batch: 0,
        }
    }

    /// Sets the per-trial worker count (clamped to at least 1).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the intra-census worker count (clamped to at least 1).
    #[must_use]
    pub fn with_census_threads(mut self, census_threads: usize) -> Self {
        self.census_threads = census_threads.max(1);
        self
    }

    /// Sets the trial-batch lane request (0 keeps the scalar engine).
    #[must_use]
    pub fn with_trial_batch(mut self, trial_batch: usize) -> Self {
        self.trial_batch = trial_batch;
        self
    }

    /// Whether the trial-batched engine was requested.
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
/// the routed `pair`. The batched store is used iff `exec.trial_batch > 0`,
/// the model is [`FaultModel::lane_batchable`] (otherwise the fallback is
/// announced once through [`warn_scalar_fallback`]), and the graph has a
/// closed-form edge index ([`TrialBatch::supported`]).
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
    if exec.batched() && !model.lane_batchable() {
        warn_scalar_fallback(&model.name());
    }
    let batched = exec.batched() && model.lane_batchable() && TrialBatch::supported(graph);
    let lanes = if batched {
        clamp_lanes(exec.trial_batch)
    } else {
        1
    };
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BernoulliEdges, FaultModelSpec};
    use faultnet_percolation::BitsetSample;
    use faultnet_topology::hypercube::Hypercube;
    use faultnet_topology::mesh::Mesh;

    /// Records each trial's bitset words, so a run's output pins the exact
    /// instance every trial saw, whichever store carried it.
    struct Words<'g, T>(&'g T);

    impl<T: Topology + Sync> TrialVisitor<T> for Words<'_, T> {
        type Output = Vec<u64>;

        fn instance(&self, instance: &FaultInstance) -> Vec<u64> {
            BitsetSample::from_states(self.0, instance).words().to_vec()
        }

        fn batch(&self, batch: &TrialBatch<'_, T>) -> Vec<Vec<u64>> {
            (0..batch.lanes())
                .map(|l| {
                    BitsetSample::from_states(self.0, &batch.lane_view(l))
                        .words()
                        .to_vec()
                })
                .collect()
        }
    }

    #[test]
    fn every_exec_visits_the_same_instances_in_trial_order() {
        let cube = Hypercube::new(6);
        let config = PercolationConfig::new(0.5, 41);
        let pair = cube.canonical_pair();
        for spec in FaultModelSpec::ALL {
            let model = spec.build();
            let run = |trials, exec| {
                run_trials(&*model, &cube, config, pair, trials, exec, &Words(&cube))
            };
            // Trial t of the oracle is the instance at seed 41 + t.
            let oracle = run(67, TrialExec::sequential());
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
                    assert_eq!(oracle, run(67, exec), "{spec}, {exec:?}");
                    assert!(run(0, exec).is_empty(), "{spec}, {exec:?}: zero trials");
                }
            }
        }
    }

    /// Counts how many trials reached each store.
    struct Stores;

    impl<T: Topology + ?Sized> TrialVisitor<T> for Stores {
        type Output = bool;

        fn instance(&self, _: &FaultInstance) -> bool {
            false
        }

        fn batch(&self, batch: &TrialBatch<'_, T>) -> Vec<bool> {
            vec![true; batch.lanes()]
        }
    }

    #[test]
    fn the_batched_store_is_chosen_exactly_when_every_condition_holds() {
        let mesh = Mesh::new(2, 4);
        let config = PercolationConfig::new(0.5, 3);
        let pair = mesh.canonical_pair();
        let batched = TrialExec::sequential().with_trial_batch(64);
        let stores = |spec: FaultModelSpec, exec| {
            run_trials(&*spec.build(), &mesh, config, pair, 3, exec, &Stores)
        };
        assert_eq!(stores(FaultModelSpec::BernoulliEdges, batched), [true; 3]);
        assert_eq!(
            stores(FaultModelSpec::BernoulliEdges, TrialExec::sequential()),
            [false; 3]
        );
        assert_eq!(
            stores(FaultModelSpec::AdversarialBudget, batched),
            [false; 3]
        );
        let explicit = faultnet_topology::explicit::ExplicitGraph::from_topology(&mesh);
        assert!(TrialBatch::supported(&explicit));
        assert_eq!(
            run_trials(
                &BernoulliEdges::new(),
                &explicit,
                config,
                pair,
                3,
                batched,
                &Stores
            ),
            [true; 3]
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
            &Stores,
        );
    }
}

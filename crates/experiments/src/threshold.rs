//! Critical-probability estimation for E8b.
//!
//! The mesh result (Theorem 4) applies for every `p > p_c^d`, and the
//! background results the experiments reproduce include `p_c² = 1/2` for the
//! two-dimensional mesh. This module estimates thresholds from the
//! Bernoulli-edge giant fraction of [`measure_giant_point_with_model`]: a
//! sweep over `p`, and a bisection on the crossing of a fixed level. The
//! bisection relies on the monotone coupling of
//! [`faultnet_percolation::PercolationConfig::with_p`] (the same seed reuses
//! the same uniforms, so the fraction is monotone in `p` sample by sample).

use faultnet_faultmodel::BernoulliEdges;
use faultnet_topology::Topology;

use crate::hypercube_giant::{measure_giant_point_with_model, HypercubePoint};
use crate::TrialExec;

/// The giant point of `graph` under Bernoulli edge faults at `p`.
fn giant_point<T: Topology + Sync>(
    graph: &T,
    p: f64,
    trials: u32,
    base_seed: u64,
    exec: TrialExec,
) -> HypercubePoint {
    assert!(trials > 0, "at least one trial is required");
    measure_giant_point_with_model(&BernoulliEdges::new(), graph, p, trials, base_seed, exec)
}

/// Evaluates the mean giant fraction (and connectivity) at each probability
/// in `ps`, every point from the same `base_seed`.
///
/// # Panics
///
/// Panics if `trials` is zero.
pub fn giant_fraction_sweep<T: Topology + Sync>(
    graph: &T,
    ps: &[f64],
    trials: u32,
    base_seed: u64,
    exec: TrialExec,
) -> Vec<HypercubePoint> {
    ps.iter()
        .map(|&p| giant_point(graph, p, trials, base_seed, exec))
        .collect()
}

/// Estimates the probability at which the mean giant fraction first exceeds
/// `target_fraction`, by bisection to within `tolerance`.
///
/// This is the standard finite-size proxy for the percolation threshold: for
/// a fixed finite graph the giant fraction is a smooth increasing function of
/// `p`, and the crossing point of a fixed level (e.g. 0.2) converges to `p_c`
/// as the graph grows. Every evaluation is identical for every `exec`, so
/// the bisection takes the same branch at every step and the estimate is
/// identical too.
///
/// # Panics
///
/// Panics if `target_fraction` is not in `(0, 1)`, `tolerance` is not
/// positive, or `trials` is zero.
pub fn estimate_threshold<T: Topology + Sync>(
    graph: &T,
    target_fraction: f64,
    trials: u32,
    tolerance: f64,
    base_seed: u64,
    exec: TrialExec,
) -> f64 {
    assert!(
        (0.0..1.0).contains(&target_fraction) && target_fraction > 0.0,
        "target fraction must be in (0, 1)"
    );
    assert!(tolerance > 0.0, "tolerance must be positive");
    let mut lo = 0.0f64;
    let mut hi = 1.0f64;
    while hi - lo > tolerance {
        let mid = 0.5 * (lo + hi);
        if giant_point(graph, mid, trials, base_seed, exec).giant_fraction >= target_fraction {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultnet_percolation::components::ComponentCensus;
    use faultnet_percolation::sample::BitsetSample;
    use faultnet_percolation::PercolationConfig;
    use faultnet_topology::{
        binary_tree::BinaryTree,
        butterfly::Butterfly,
        complete::CompleteGraph,
        cycle_matching::{CycleWithMatching, MatchingKind},
        de_bruijn::DeBruijn,
        double_tree::DoubleBinaryTree,
        explicit::ExplicitGraph,
        hypercube::Hypercube,
        mesh::Mesh,
        shuffle_exchange::ShuffleExchange,
        torus::Torus,
    };
    use proptest::prelude::*;

    const SEQ: TrialExec = TrialExec {
        threads: 1,
        trial_batch: 0,
    };

    /// The batch sizes the multispin contract names: a single lane, both
    /// sides of the word boundary, and a request past the 64-lane cap.
    const BATCH_SIZES: [usize; 5] = [1, 63, 64, 65, 200];

    fn mean<T: Topology + Sync>(graph: &T, p: f64, trials: u32, seed: u64, exec: TrialExec) -> f64 {
        giant_fraction_sweep(graph, &[p], trials, seed, exec)[0].giant_fraction
    }

    /// The giant-fraction mean as the scalar engine always defined it: the
    /// bitset of seed `base + t`, censused, summed in trial order.
    fn oracle_mean<T: Topology + Sync>(graph: &T, p: f64, trials: u32, seed: u64) -> f64 {
        let mut total = 0.0;
        for t in 0..trials {
            let cfg = PercolationConfig::new(p, seed.wrapping_add(u64::from(t)));
            let sample = BitsetSample::from_config(graph, &cfg);
            total += ComponentCensus::compute(graph, &sample).giant_fraction();
        }
        total / f64::from(trials)
    }

    /// Asserts the mean equals the oracle, to the bit, for ragged trial
    /// counts on both sides of the word boundary and every batch size.
    fn assert_batched_means_identical<T: Topology + Sync>(graph: &T, p: f64, seed: u64) {
        for trials in [1u32, 63, 65] {
            let oracle = oracle_mean(graph, p, trials, seed);
            assert_eq!(
                oracle.to_bits(),
                mean(graph, p, trials, seed, SEQ).to_bits()
            );
            for batch in BATCH_SIZES {
                let batched = mean(graph, p, trials, seed, SEQ.with_trial_batch(batch));
                assert_eq!(
                    oracle.to_bits(),
                    batched.to_bits(),
                    "{}: trials {trials}, batch {batch}, p {p}, seed {seed}",
                    graph.name()
                );
            }
        }
    }

    #[test]
    fn giant_fraction_is_monotone_in_p() {
        let cube = Hypercube::new(8);
        let sweep = giant_fraction_sweep(&cube, &[0.1, 0.3, 0.8], 5, 42, SEQ);
        assert!(sweep[0].giant_fraction <= sweep[1].giant_fraction + 1e-9);
        assert!(sweep[1].giant_fraction <= sweep[2].giant_fraction + 1e-9);
        assert!(sweep[2].giant_fraction > 0.9);
    }

    #[test]
    fn sweep_returns_requested_points() {
        let mesh = Mesh::new(2, 8);
        let ps = [0.2, 0.5, 0.8];
        let sweep = giant_fraction_sweep(&mesh, &ps, 3, 7, SEQ);
        assert_eq!(sweep.len(), 3);
        for (point, p) in sweep.iter().zip(ps) {
            assert_eq!(point.p, p);
            assert!((0.0..=1.0).contains(&point.giant_fraction));
        }
    }

    #[test]
    fn two_dimensional_threshold_is_near_one_half() {
        // p_c = 1/2 for the 2-d square lattice; a 24x24 torus gives a crude
        // but stable finite-size estimate.
        let torus = Torus::new(2, 24);
        let est = estimate_threshold(&torus, 0.25, 4, 0.02, 11, SEQ);
        assert!(
            (0.35..0.65).contains(&est),
            "2-d threshold estimate {est} too far from 0.5"
        );
    }

    #[test]
    fn complete_graph_threshold_is_near_one_over_n() {
        // G(n, p) has a giant component for p > 1/n; with n = 200 the
        // threshold estimate should be well below 0.05.
        let k = CompleteGraph::new(200);
        let est = estimate_threshold(&k, 0.2, 3, 0.005, 5, SEQ);
        assert!(est < 0.05, "G(n,p) threshold estimate {est} too large");
        assert!(est > 0.001, "G(n,p) threshold estimate {est} too small");
    }

    #[test]
    fn thread_count_never_changes_the_numbers() {
        // The trial fan-out is a pure wall-clock lever: means, sweeps, and
        // bisection estimates are bit-identical for every value.
        let cube = Hypercube::new(8);
        let base = mean(&cube, 0.3, 4, 17, SEQ);
        for threads in [1usize, 2, 4, 8] {
            let exec = SEQ.with_threads(threads);
            assert_eq!(base, mean(&cube, 0.3, 4, 17, exec), "threads {threads}");
        }
        let torus = Torus::new(2, 12);
        assert_eq!(
            estimate_threshold(&torus, 0.25, 2, 0.05, 3, SEQ),
            estimate_threshold(&torus, 0.25, 2, 0.05, 3, SEQ.with_threads(4)),
        );
        assert_eq!(
            giant_fraction_sweep(&torus, &[0.2, 0.6], 2, 5, SEQ),
            giant_fraction_sweep(&torus, &[0.2, 0.6], 2, 5, SEQ.with_threads(3)),
        );
    }

    #[test]
    fn batched_mean_is_bit_identical_to_scalar() {
        // Including ragged tails (5 % 4 != 0) and parallel chunks; the
        // scalar mean itself must equal the per-seed bitset oracle.
        let cube = Hypercube::new(7);
        let scalar = mean(&cube, 0.3, 5, 17, SEQ);
        assert_eq!(scalar.to_bits(), oracle_mean(&cube, 0.3, 5, 17).to_bits());
        for trial_batch in [1usize, 4, 64, 200] {
            for threads in [1, 2] {
                let exec = SEQ.with_trial_batch(trial_batch).with_threads(threads);
                assert_eq!(scalar, mean(&cube, 0.3, 5, 17, exec), "{exec:?}");
            }
        }
        let torus = Torus::new(2, 12);
        assert_eq!(
            estimate_threshold(&torus, 0.25, 2, 0.05, 3, SEQ),
            estimate_threshold(&torus, 0.25, 2, 0.05, 3, SEQ.with_trial_batch(64)),
        );
        assert_eq!(
            giant_fraction_sweep(&torus, &[0.2, 0.6], 2, 5, SEQ),
            giant_fraction_sweep(&torus, &[0.2, 0.6], 2, 5, SEQ.with_trial_batch(3)),
        );
    }

    /// Asserts the batched-mean contract on every family of the zoo.
    fn assert_zoo_means_identical(p: f64, seed: u64) {
        assert_batched_means_identical(&Hypercube::new(5), p, seed);
        assert_batched_means_identical(&Mesh::new(2, 5), p, seed);
        assert_batched_means_identical(&Torus::new(2, 4), p, seed);
        assert_batched_means_identical(&CompleteGraph::new(16), p, seed);
        assert_batched_means_identical(&DeBruijn::new(5), p, seed);
        assert_batched_means_identical(&ShuffleExchange::new(5), p, seed);
        assert_batched_means_identical(&Butterfly::new(3), p, seed);
        assert_batched_means_identical(&BinaryTree::new(4), p, seed);
        assert_batched_means_identical(&DoubleBinaryTree::new(3), p, seed);
        assert_batched_means_identical(
            &CycleWithMatching::new(16, MatchingKind::Antipodal),
            p,
            seed,
        );
        assert_batched_means_identical(&ExplicitGraph::from_topology(&Mesh::new(2, 4)), p, seed);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The batched mean is bit-identical to the per-seed oracle across
        /// the family zoo, for every batch size — including 65 and 200,
        /// which clamp to 64 — and for ragged trial counts on both sides of
        /// the word boundary.
        #[test]
        fn batched_means_are_bit_identical_across_the_zoo(
            p in 0.0f64..1.0,
            base_seed in any::<u64>(),
        ) {
            assert_zoo_means_identical(p, base_seed);
        }
    }

    /// The zoo contract at fixed points, including a base seed whose trial
    /// seeds wrap past `u64::MAX`.
    #[test]
    fn batched_means_are_bit_identical_at_fixed_points() {
        for (p, seed) in [(0.2, 3u64), (0.5, 0xFA05), (0.85, u64::MAX - 40)] {
            assert_zoo_means_identical(p, seed);
        }
    }

    /// The ragged tails, pinned on one family at a fixed point.
    #[test]
    fn ragged_trial_counts_are_bit_identical() {
        assert_batched_means_identical(&Torus::new(2, 4), 0.45, 17);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn batched_zero_trials_rejected() {
        let mesh = Mesh::new(2, 4);
        let _ = giant_fraction_sweep(&mesh, &[0.5], 0, 0, SEQ.with_trial_batch(64));
    }

    #[test]
    #[should_panic(expected = "target fraction")]
    fn bad_target_rejected() {
        let mesh = Mesh::new(2, 4);
        let _ = estimate_threshold(&mesh, 1.5, 1, 0.1, 0, SEQ);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_rejected() {
        let mesh = Mesh::new(2, 4);
        let _ = estimate_threshold(&mesh, 0.5, 0, 0.1, 0, SEQ);
    }
}

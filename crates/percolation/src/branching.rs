//! Galton–Watson (binary branching process) analytics.
//!
//! Percolation on a rooted binary tree with edge-retention probability `π` is
//! exactly a Galton–Watson process with offspring distribution
//! `Binomial(2, π)`. The paper uses this correspondence twice:
//!
//! * **Lemma 6** — the two roots of the double tree `TT_n` are connected with
//!   probability bounded away from zero iff `p² > 1/2`, because a root-to-root
//!   path is a root-to-leaf branch open in *both* trees, i.e. a root-to-leaf
//!   ray in a binary tree percolated with probability `p²`.
//! * **Theorem 9** — the paired-edge DFS oracle router explores exactly the
//!   subcritical/supercritical Galton–Watson tree; its linear complexity
//!   follows because failed branches have finite expected size.
//!
//! This module provides the exact recursions and closed forms the experiments
//! compare against.

/// The critical retention probability of the binary Galton–Watson process
/// (mean offspring `2π = 1`).
pub const BINARY_CRITICAL_PROBABILITY: f64 = 0.5;

/// Survival probability of the binary Galton–Watson process with per-child
/// retention probability `pi` (probability that the root's progeny is
/// infinite).
///
/// Solves `e = (1 - π + π e)²` for the extinction probability `e` and returns
/// `1 - e`. For `π ≤ 1/2` this is exactly 0.
///
/// # Panics
///
/// Panics if `pi` is not in `[0, 1]`.
///
/// # Examples
///
/// ```
/// use faultnet_percolation::branching::survival_probability;
///
/// assert_eq!(survival_probability(0.4), 0.0);
/// assert!(survival_probability(0.9) > 0.8);
/// ```
pub fn survival_probability(pi: f64) -> f64 {
    assert!((0.0..=1.0).contains(&pi), "probability must be in [0, 1]");
    if pi <= BINARY_CRITICAL_PROBABILITY {
        return 0.0;
    }
    // e = (1 - π + π e)^2  ⇔  π² e² + (2π(1-π) - 1) e + (1-π)² = 0.
    // The extinction probability is the smaller root; by direct factoring the
    // roots are ((1-π)/π)² and 1.
    let e = ((1.0 - pi) / pi).powi(2);
    (1.0 - e).clamp(0.0, 1.0)
}

/// Probability that the root of a depth-`depth` complete binary tree, with
/// each edge open independently with probability `pi`, is connected to at
/// least one depth-`depth` leaf.
///
/// Computed by the exact recursion `r_0 = 1`, `r_{k+1} = 1 - (1 - π r_k)²`.
/// As `depth → ∞` this converges to [`survival_probability`].
pub fn root_to_leaf_probability(pi: f64, depth: u32) -> f64 {
    assert!((0.0..=1.0).contains(&pi), "probability must be in [0, 1]");
    let mut r = 1.0f64;
    for _ in 0..depth {
        r = 1.0 - (1.0 - pi * r).powi(2);
    }
    r
}

/// Probability that the two roots of the double tree `TT_depth` are connected
/// when each edge survives with probability `p` (Lemma 6).
///
/// A root-to-root path consists of a leaf whose branch is open in both trees;
/// pairing corresponding edges reduces this to [`root_to_leaf_probability`]
/// with per-edge probability `p²`.
pub fn double_tree_connection_probability(p: f64, depth: u32) -> f64 {
    assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
    root_to_leaf_probability(p * p, depth)
}

/// The critical edge probability of the double tree root-connection event,
/// `1/√2` (Lemma 6).
pub fn double_tree_critical_probability() -> f64 {
    (0.5f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn survival_is_zero_at_or_below_criticality() {
        assert_eq!(survival_probability(0.0), 0.0);
        assert_eq!(survival_probability(0.3), 0.0);
        assert_eq!(survival_probability(0.5), 0.0);
    }

    #[test]
    fn survival_increases_above_criticality() {
        let s6 = survival_probability(0.6);
        let s8 = survival_probability(0.8);
        let s1 = survival_probability(1.0);
        assert!(s6 > 0.0 && s6 < s8 && s8 < s1);
        assert!((s1 - 1.0).abs() < 1e-12);
        // closed form check at π = 0.75: e = (1/3)² = 1/9.
        assert!((survival_probability(0.75) - (1.0 - 1.0 / 9.0)).abs() < 1e-12);
    }

    #[test]
    fn fixed_point_property_of_extinction() {
        for pi in [0.55, 0.7, 0.9] {
            let e = 1.0 - survival_probability(pi);
            let rhs = (1.0 - pi + pi * e).powi(2);
            assert!((e - rhs).abs() < 1e-10, "π = {pi}");
        }
    }

    #[test]
    fn root_to_leaf_recursion_limits() {
        // depth 0: always "connected" to itself.
        assert_eq!(root_to_leaf_probability(0.3, 0), 1.0);
        // subcritical: decays towards 0.
        assert!(root_to_leaf_probability(0.4, 40) < 0.01);
        // supercritical: converges to the survival probability.
        let pi = 0.7;
        let deep = root_to_leaf_probability(pi, 200);
        assert!((deep - survival_probability(pi)).abs() < 1e-6);
        // monotone decreasing in depth
        assert!(root_to_leaf_probability(pi, 3) >= root_to_leaf_probability(pi, 10));
    }

    #[test]
    fn double_tree_threshold_behaviour() {
        let pc = double_tree_critical_probability();
        assert!((pc - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
        // below the threshold the connection probability vanishes with depth
        assert!(double_tree_connection_probability(0.65, 60) < 0.02);
        // above the threshold it stays bounded away from zero
        assert!(double_tree_connection_probability(0.85, 60) > 0.3);
        // and it matches the paired-edge reduction
        let p = 0.8;
        assert!(
            (double_tree_connection_probability(p, 17) - root_to_leaf_probability(p * p, 17)).abs()
                < 1e-12
        );
    }
}

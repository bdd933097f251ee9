//! Bond-percolation substrate for *Routing Complexity of Faulty Networks*.
//!
//! The paper's fault model is independent edge failure: every edge of a graph
//! `G` survives with probability `p` (fails with `q = 1 - p`), independently
//! of all other edges, producing the random subgraph `G_p`. This crate
//! provides:
//!
//! * [`PercolationConfig`] / [`sample::EdgeSampler`] — a deterministic,
//!   lazily-evaluated assignment of open/closed states to edges. An edge's
//!   state is a pure function of `(seed, edge)`, so an algorithm that probes
//!   edges on demand (the paper's model) and an analysis pass that sweeps the
//!   whole graph see exactly the same percolation instance.
//! * [`sample::BitsetSample`] — the same instance materialised once as a
//!   bitset over canonical edge indices, turning the repeated `is_open`
//!   queries of dense analytics into single bit reads.
//! * [`trial_batch::TrialBatch`] — the transposed (multispin) layout: up to
//!   64 *trials* of the same edge per word, so trial-fan-out workloads
//!   advance every trial with single ALU ops; each lane is bit-identical
//!   to the corresponding scalar trial.
//! * [`subgraph::PercolatedGraph`] — a view of a topology restricted to open
//!   edges.
//! * [`components`] — the giant-component census behind the critical
//!   probabilities (the `p_c` of Theorem 4, the `1/n` threshold of
//!   Ajtai–Komlós–Szemerédi on the hypercube), which the experiments
//!   estimate by Monte-Carlo over the trial loop in `faultnet-faultmodel`.
//! * [`bfs`], [`chemical`] — percolation (chemical) distances, used to
//!   verify the Antal–Pisztora input of Lemma 8.
//! * [`branching`] — Galton–Watson analytics used by the double-tree results
//!   (Lemma 6, Theorem 9).
//! * [`dynamic`] — fail/repair churn schedules ([`dynamic::ChurnProcess`])
//!   and the incremental census ([`dynamic::IncrementalCensus`], backed by
//!   [`union_find::RewindableUnionFind`]) that tracks an evolving instance
//!   without per-timestep rescans, bit-identical to a from-scratch census
//!   at every step.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfs;
pub mod branching;
pub mod chemical;
pub mod components;
pub mod dynamic;
pub mod sample;
pub mod subgraph;
pub mod trial_batch;
pub mod union_find;

pub use dynamic::{ChurnEvent, ChurnProcess, ChurnSchedule, EventKind, IncrementalCensus};
pub use sample::{BitsetSample, EdgeSampler, EdgeStates};
pub use subgraph::PercolatedGraph;
pub use trial_batch::{LaneView, TrialBatch};

/// Parameters of a bond-percolation experiment: the edge retention
/// probability `p` and the seed identifying one percolation instance.
///
/// # Examples
///
/// ```
/// use faultnet_percolation::PercolationConfig;
///
/// let cfg = PercolationConfig::new(0.75, 42);
/// assert_eq!(cfg.p(), 0.75);
/// let other = cfg.with_seed(43);
/// assert_ne!(cfg.seed(), other.seed());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PercolationConfig {
    p: f64,
    seed: u64,
}

impl PercolationConfig {
    /// Creates a configuration with retention probability `p` and `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a finite number in `[0, 1]`.
    pub fn new(p: f64, seed: u64) -> Self {
        assert!(
            p.is_finite() && (0.0..=1.0).contains(&p),
            "retention probability must lie in [0, 1], got {p}"
        );
        PercolationConfig { p, seed }
    }

    /// The edge retention (survival) probability `p`.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// The seed identifying this percolation instance.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The same probability with a different seed (a fresh instance).
    #[must_use]
    pub fn with_seed(&self, seed: u64) -> Self {
        PercolationConfig { p: self.p, seed }
    }

    /// The same seed with a different probability.
    ///
    /// Because the sampler derives an edge's state by comparing a
    /// seed-and-edge-determined uniform variate against `p`, configurations
    /// sharing a seed are *monotonically coupled*: every edge open at
    /// probability `p₁` is also open at any `p₂ ≥ p₁`. The threshold
    /// estimators rely on this coupling.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a finite number in `[0, 1]`.
    #[must_use]
    pub fn with_p(&self, p: f64) -> Self {
        PercolationConfig::new(p, self.seed)
    }

    /// A lazily evaluated sampler for this configuration.
    pub fn sampler(&self) -> EdgeSampler {
        EdgeSampler::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let cfg = PercolationConfig::new(0.3, 7);
        assert_eq!(cfg.p(), 0.3);
        assert_eq!(cfg.seed(), 7);
    }

    #[test]
    fn with_seed_and_with_p() {
        let cfg = PercolationConfig::new(0.5, 1);
        assert_eq!(cfg.with_seed(9).seed(), 9);
        assert_eq!(cfg.with_seed(9).p(), 0.5);
        assert_eq!(cfg.with_p(0.25).p(), 0.25);
        assert_eq!(cfg.with_p(0.25).seed(), 1);
    }

    #[test]
    fn boundary_probabilities_allowed() {
        let _ = PercolationConfig::new(0.0, 0);
        let _ = PercolationConfig::new(1.0, 0);
    }

    #[test]
    #[should_panic(expected = "retention probability")]
    fn negative_probability_rejected() {
        let _ = PercolationConfig::new(-0.1, 0);
    }

    #[test]
    #[should_panic(expected = "retention probability")]
    fn nan_probability_rejected() {
        let _ = PercolationConfig::new(f64::NAN, 0);
    }
}

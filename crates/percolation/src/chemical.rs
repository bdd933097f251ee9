//! Chemical-distance (percolation distance) measurements.
//!
//! Lemma 8 of the paper restates the Antal–Pisztora theorem: above the
//! critical probability of the `d`-dimensional mesh, the chemical distance
//! `D(x, y)` between connected vertices is at most `ρ · d(x, y)` except with
//! probability exponentially small in `d(x, y)`. The mesh routing algorithm
//! of Theorem 4 relies on exactly this linear-stretch property. The paper
//! *uses* the theorem; the reproduction *measures* it, which is the
//! substitution documented in DESIGN.md.

use faultnet_topology::{Topology, VertexId};

use crate::bfs::percolation_distance;
use crate::sample::{BitsetSample, EdgeStates};
use crate::PercolationConfig;

/// One chemical-distance observation for a connected pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StretchSample {
    /// Graph (fault-free) distance between the pair.
    pub graph_distance: u64,
    /// Chemical (open-subgraph) distance between the pair.
    pub chemical_distance: u64,
}

impl StretchSample {
    /// The stretch ratio `D(x, y) / d(x, y)`; defined as 1 for coincident
    /// vertices.
    pub fn stretch(&self) -> f64 {
        if self.graph_distance == 0 {
            1.0
        } else {
            self.chemical_distance as f64 / self.graph_distance as f64
        }
    }
}

/// Measures the chemical distance between `u` and `v` in one percolation
/// instance. Returns `None` if the pair is not connected (the conditioning
/// event of Definition 2 fails) or if the topology has no closed-form
/// distance.
pub fn stretch_for_pair<T: Topology, S: EdgeStates>(
    graph: &T,
    states: &S,
    u: VertexId,
    v: VertexId,
) -> Option<StretchSample> {
    let graph_distance = graph.distance(u, v)?;
    let chemical_distance = percolation_distance(graph, states, u, v)?;
    Some(StretchSample {
        graph_distance,
        chemical_distance,
    })
}

/// Measures the stretch of one pair in the instance of trial `t` — the
/// single source of truth for the per-trial recipe: instance seed
/// `base_seed + t`, materialised once as a [`BitsetSample`] (the BFS behind
/// the chemical distance inspects every edge of the explored component from
/// both endpoints, so a single hashing pass followed by bit reads beats
/// re-hashing per query), then [`stretch_for_pair`]. Both the sequential
/// collector below and the parallel sweep in the experiments crate call
/// this, so they are guaranteed to measure the same instance stream.
pub fn stretch_sample_for_trial<T: Topology>(
    graph: &T,
    u: VertexId,
    v: VertexId,
    p: f64,
    base_seed: u64,
    t: u32,
) -> Option<StretchSample> {
    let cfg = PercolationConfig::new(p, base_seed.wrapping_add(t as u64));
    let states = BitsetSample::from_config(graph, &cfg);
    stretch_for_pair(graph, &states, u, v)
}

/// Collects stretch samples for a fixed pair over many independent
/// percolation instances (skipping instances where the pair is disconnected).
pub fn stretch_samples_over_instances<T: Topology>(
    graph: &T,
    u: VertexId,
    v: VertexId,
    p: f64,
    trials: u32,
    base_seed: u64,
) -> Vec<StretchSample> {
    (0..trials)
        .filter_map(|t| stretch_sample_for_trial(graph, u, v, p, base_seed, t))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultnet_topology::{mesh::Mesh, torus::Torus};

    #[test]
    fn fully_open_graph_has_stretch_one() {
        let mesh = Mesh::new(2, 10);
        let (u, v) = mesh.canonical_pair();
        let cfg = PercolationConfig::new(1.0, 0);
        let s = stretch_for_pair(&mesh, &cfg.sampler(), u, v).unwrap();
        assert_eq!(s.graph_distance, 18);
        assert_eq!(s.chemical_distance, 18);
        assert_eq!(s.stretch(), 1.0);
    }

    #[test]
    fn stretch_is_at_least_one() {
        let torus = Torus::new(2, 12);
        let (u, v) = torus.canonical_pair();
        for seed in 0..5 {
            let cfg = PercolationConfig::new(0.7, seed);
            if let Some(s) = stretch_for_pair(&torus, &cfg.sampler(), u, v) {
                assert!(s.stretch() >= 1.0);
            }
        }
    }

    #[test]
    fn disconnected_pair_gives_none() {
        let mesh = Mesh::new(2, 6);
        let (u, v) = mesh.canonical_pair();
        let cfg = PercolationConfig::new(0.0, 0);
        assert!(stretch_for_pair(&mesh, &cfg.sampler(), u, v).is_none());
    }

    #[test]
    fn coincident_pair_has_unit_stretch() {
        let s = StretchSample {
            graph_distance: 0,
            chemical_distance: 0,
        };
        assert_eq!(s.stretch(), 1.0);
    }

    /// Mean and max stretch over `samples`.
    fn mean_and_max(samples: &[StretchSample]) -> (f64, f64) {
        let stretches = samples.iter().map(StretchSample::stretch);
        let mean = stretches.clone().sum::<f64>() / samples.len() as f64;
        (mean, stretches.fold(f64::NEG_INFINITY, f64::max))
    }

    #[test]
    fn summary_far_above_threshold_has_small_stretch() {
        // p = 0.85 on a 2-d torus: stretch should be close to 1 and the pair
        // essentially always connected.
        let torus = Torus::new(2, 14);
        let (u, v) = torus.canonical_pair();
        let samples = stretch_samples_over_instances(&torus, u, v, 0.85, 20, 9);
        let (mean, max) = mean_and_max(&samples);
        assert!(samples.len() >= 17, "{} of 20 connected", samples.len());
        assert!(mean < 1.6, "mean stretch {mean}");
        assert!(max < 2.5, "max stretch {max}");
    }

    #[test]
    fn summary_handles_fully_disconnected_case() {
        let mesh = Mesh::new(2, 5);
        let (u, v) = mesh.canonical_pair();
        assert!(stretch_samples_over_instances(&mesh, u, v, 0.0, 4, 0).is_empty());
    }

    #[test]
    fn stretch_decreases_as_p_increases() {
        let torus = Torus::new(2, 12);
        let (u, v) = torus.canonical_pair();
        let low = stretch_samples_over_instances(&torus, u, v, 0.65, 30, 4);
        let high = stretch_samples_over_instances(&torus, u, v, 0.95, 30, 4);
        let (low_mean, _) = mean_and_max(&low);
        let (high_mean, _) = mean_and_max(&high);
        assert!(
            high_mean <= low_mean + 0.2,
            "low {low_mean} high {high_mean}"
        );
        assert!(high.len() >= low.len());
    }
}

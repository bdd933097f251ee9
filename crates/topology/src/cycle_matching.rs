//! A cycle plus a (pseudo-random or antipodal) perfect matching.
//!
//! The paper's introduction cites Bollobás–Chung: a cycle with a random
//! matching has logarithmic diameter, yet local algorithms cannot find short
//! paths quickly — the original motivation for separating *existence* of
//! short paths from the ability to *find* them. This family is used by the
//! open-question exploration experiment (§6) as an additional constant-degree
//! topology.
//!
//! The matching can be either the deterministic antipodal chord matching
//! (`i ↔ i + n/2`) or a pseudo-random perfect matching derived from a seed via
//! an internal SplitMix64 shuffle, so the topology stays a pure function of
//! its parameters.

use std::ops::ControlFlow;

use crate::{splitmix64, EdgeId, Topology, VertexId};

/// How the matching chords of a [`CycleWithMatching`] are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatchingKind {
    /// Vertex `i` is matched to `i + n/2 (mod n)`.
    Antipodal,
    /// A uniformly pseudo-random perfect matching generated from the seed.
    Random {
        /// Seed of the internal SplitMix64 generator.
        seed: u64,
    },
}

/// A cycle `C_n` (even `n`) together with a perfect matching: every vertex
/// has degree 3 (or 2 if its chord coincides with a cycle edge).
///
/// # Examples
///
/// ```
/// use faultnet_topology::{cycle_matching::{CycleWithMatching, MatchingKind}, Topology};
///
/// let g = CycleWithMatching::new(64, MatchingKind::Random { seed: 7 });
/// assert_eq!(g.num_vertices(), 64);
/// assert!(g.max_degree() <= 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CycleWithMatching {
    order: u64,
    kind: MatchingKind,
    /// partner[i] = the vertex matched with i.
    partner: Vec<u64>,
}

impl CycleWithMatching {
    /// Creates a cycle on `order` vertices plus a perfect matching.
    ///
    /// # Panics
    ///
    /// Panics if `order` is odd or smaller than 4.
    pub fn new(order: u64, kind: MatchingKind) -> Self {
        assert!(order >= 4, "cycle needs at least 4 vertices, got {order}");
        assert!(order % 2 == 0, "a perfect matching needs an even order");
        let partner = match kind {
            MatchingKind::Antipodal => (0..order).map(|i| (i + order / 2) % order).collect(),
            MatchingKind::Random { seed } => {
                let mut ids: Vec<u64> = (0..order).collect();
                let mut state = seed ^ 0xA076_1D64_78BD_642F;
                // Fisher–Yates shuffle with SplitMix64.
                for i in (1..ids.len()).rev() {
                    let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
                    ids.swap(i, j);
                }
                let mut partner = vec![0u64; order as usize];
                for pair in ids.chunks_exact(2) {
                    partner[pair[0] as usize] = pair[1];
                    partner[pair[1] as usize] = pair[0];
                }
                partner
            }
        };
        CycleWithMatching {
            order,
            kind,
            partner,
        }
    }

    /// The number of vertices on the cycle.
    pub fn order(&self) -> u64 {
        self.order
    }

    /// How the matching was generated.
    pub fn kind(&self) -> MatchingKind {
        self.kind
    }

    /// The matching partner of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a vertex of this graph.
    pub fn partner(&self, v: VertexId) -> VertexId {
        assert!(self.contains(v), "vertex {v} out of range");
        VertexId(self.partner[v.0 as usize])
    }

    fn cycle_neighbors(&self, v: VertexId) -> (VertexId, VertexId) {
        let n = self.order;
        (VertexId((v.0 + n - 1) % n), VertexId((v.0 + 1) % n))
    }
}

impl Topology for CycleWithMatching {
    fn num_vertices(&self) -> u64 {
        self.order
    }

    fn num_edges(&self) -> u64 {
        // Cycle edges plus matching chords that are not already cycle edges.
        let mut chords = 0u64;
        for v in 0..self.order {
            let w = self.partner[v as usize];
            if v < w {
                let is_cycle_edge = (v + 1) % self.order == w || (w + 1) % self.order == v;
                if !is_cycle_edge {
                    chords += 1;
                }
            }
        }
        self.order + chords
    }

    fn neighbors(&self, v: VertexId) -> Vec<VertexId> {
        crate::collect_neighbors(self, v)
    }

    #[inline]
    fn for_each_neighbor(
        &self,
        v: VertexId,
        f: &mut dyn FnMut(VertexId) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        assert!(self.contains(v), "vertex {v} out of range");
        let (prev, next) = self.cycle_neighbors(v);
        let chord = self.partner(v);
        f(prev)?;
        f(next)?;
        if chord != prev && chord != next && chord != v {
            f(chord)?;
        }
        ControlFlow::Continue(())
    }

    fn max_degree(&self) -> usize {
        3
    }

    fn name(&self) -> String {
        match self.kind {
            MatchingKind::Antipodal => format!("cycle_matching(n={}, antipodal)", self.order),
            MatchingKind::Random { seed } => {
                format!("cycle_matching(n={}, seed={seed})", self.order)
            }
        }
    }

    fn canonical_pair(&self) -> (VertexId, VertexId) {
        (VertexId(0), VertexId(self.order / 2))
    }

    /// `2·v + kind`: the cycle edge leaving `v` clockwise (the wrap edge
    /// `{0, n−1}` counts as leaving `n−1`) takes the even slot of `v`, and
    /// the matching chord with lower endpoint `v` takes the odd slot. A
    /// chord that coincides with a cycle edge indexes through the cycle
    /// slot, leaving its odd slot unused, so every edge has exactly one
    /// index.
    fn edge_index(&self, edge: EdgeId) -> Option<u64> {
        if !self.contains(edge.hi()) {
            return None;
        }
        let (lo, hi) = (edge.lo().0, edge.hi().0);
        if hi == lo + 1 {
            return Some(2 * lo);
        }
        if lo == 0 && hi == self.order - 1 {
            return Some(2 * (self.order - 1));
        }
        if self.partner[lo as usize] == hi {
            return Some(2 * lo + 1);
        }
        None
    }

    fn edge_index_bound(&self) -> Option<u64> {
        Some(2 * self.order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_topology_invariants;

    #[test]
    fn invariants_hold_for_both_kinds() {
        check_topology_invariants(&CycleWithMatching::new(16, MatchingKind::Antipodal));
        check_topology_invariants(&CycleWithMatching::new(
            16,
            MatchingKind::Random { seed: 3 },
        ));
        check_topology_invariants(&CycleWithMatching::new(
            30,
            MatchingKind::Random { seed: 9 },
        ));
    }

    #[test]
    fn antipodal_matching_structure() {
        let g = CycleWithMatching::new(12, MatchingKind::Antipodal);
        assert_eq!(g.partner(VertexId(0)), VertexId(6));
        assert_eq!(g.partner(VertexId(6)), VertexId(0));
        assert_eq!(g.num_edges(), 12 + 6);
        for v in g.vertices() {
            assert_eq!(g.degree(v), 3);
        }
    }

    #[test]
    fn matching_is_an_involution_without_fixed_points() {
        let g = CycleWithMatching::new(40, MatchingKind::Random { seed: 11 });
        for v in g.vertices() {
            let w = g.partner(v);
            assert_ne!(w, v);
            assert_eq!(g.partner(w), v);
        }
    }

    #[test]
    fn random_matching_is_deterministic_per_seed() {
        let a = CycleWithMatching::new(20, MatchingKind::Random { seed: 5 });
        let b = CycleWithMatching::new(20, MatchingKind::Random { seed: 5 });
        let c = CycleWithMatching::new(20, MatchingKind::Random { seed: 6 });
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn smallest_cycle_with_matching() {
        // n = 4 antipodal: chords 0-2 and 1-3, every vertex degree 3.
        let g = CycleWithMatching::new(4, MatchingKind::Antipodal);
        assert_eq!(g.num_edges(), 6); // K4
        check_topology_invariants(&g);
    }

    #[test]
    fn edge_index_slots_cycle_and_chord_edges() {
        let g = CycleWithMatching::new(12, MatchingKind::Antipodal);
        // Cycle edge {3, 4} -> even slot of 3.
        assert_eq!(g.edge_index(EdgeId::new(VertexId(3), VertexId(4))), Some(6));
        // Wrap edge {0, 11} -> even slot of 11.
        assert_eq!(
            g.edge_index(EdgeId::new(VertexId(0), VertexId(11))),
            Some(22)
        );
        // Chord {2, 8} -> odd slot of 2.
        assert_eq!(g.edge_index(EdgeId::new(VertexId(2), VertexId(8))), Some(5));
        // {1, 3} is neither a cycle edge nor a chord.
        assert_eq!(g.edge_index(EdgeId::new(VertexId(1), VertexId(3))), None);
    }

    #[test]
    fn edge_index_handles_chords_coinciding_with_cycle_edges() {
        // n = 4 antipodal is K4: chords {0,2} and {1,3} plus the 4-cycle.
        let g = CycleWithMatching::new(4, MatchingKind::Antipodal);
        // The wrap edge {0, 3} is a cycle edge; 3's partner is 1, not 0.
        assert_eq!(g.edge_index(EdgeId::new(VertexId(0), VertexId(3))), Some(6));
        // The chords of K4 use odd slots.
        assert_eq!(g.edge_index(EdgeId::new(VertexId(0), VertexId(2))), Some(1));
        assert_eq!(g.edge_index(EdgeId::new(VertexId(1), VertexId(3))), Some(3));
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_order_rejected() {
        let _ = CycleWithMatching::new(7, MatchingKind::Antipodal);
    }
}

//! The (unwrapped) butterfly network `BF_n`.
//!
//! Vertices are pairs `(level, row)` with `level ∈ {0, …, n}` and `row` an
//! `n`-bit string; level `i` is joined to level `i+1` by a *straight* edge
//! (same row) and a *cross* edge (row with bit `i` flipped). The butterfly is
//! one of the constant-degree families named in the paper's related work
//! (Cole–Maggs–Sitaraman routing on faulty butterflies) and open questions
//! (§6).
//!
//! Vertex ids encode `(level, row)` as `level * 2^n + row`.

use std::ops::ControlFlow;

use crate::{EdgeId, Topology, VertexId};

/// The unwrapped butterfly with `n+1` levels of `2^n` rows each.
///
/// # Examples
///
/// ```
/// use faultnet_topology::{butterfly::Butterfly, Topology};
///
/// let bf = Butterfly::new(3);
/// assert_eq!(bf.num_vertices(), 4 * 8);
/// assert_eq!(bf.num_edges(), 2 * 3 * 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Butterfly {
    dimension: u32,
}

impl Butterfly {
    /// Creates the butterfly of the given dimension `n`.
    ///
    /// # Panics
    ///
    /// Panics if `dimension` is 0 or greater than 28.
    pub fn new(dimension: u32) -> Self {
        assert!(
            (1..=28).contains(&dimension),
            "butterfly dimension must be in 1..=28, got {dimension}"
        );
        Butterfly { dimension }
    }

    /// The dimension `n` (there are `n + 1` levels).
    pub fn dimension(&self) -> u32 {
        self.dimension
    }

    /// Number of rows per level, `2^n`.
    pub fn rows(&self) -> u64 {
        1u64 << self.dimension
    }

    /// Decodes a vertex id into `(level, row)`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a vertex of this graph.
    pub fn level_row(&self, v: VertexId) -> (u32, u64) {
        assert!(self.contains(v), "vertex {v} out of range");
        ((v.0 / self.rows()) as u32, v.0 % self.rows())
    }

    /// Encodes `(level, row)` into a vertex id.
    ///
    /// # Panics
    ///
    /// Panics if `level > n` or `row >= 2^n`.
    pub fn vertex_at(&self, level: u32, row: u64) -> VertexId {
        assert!(level <= self.dimension, "level {level} out of range");
        assert!(row < self.rows(), "row {row} out of range");
        VertexId(level as u64 * self.rows() + row)
    }
}

impl Topology for Butterfly {
    fn num_vertices(&self) -> u64 {
        (self.dimension as u64 + 1) * self.rows()
    }

    fn num_edges(&self) -> u64 {
        // Each of the n level transitions contributes 2 edges per row.
        2 * self.dimension as u64 * self.rows()
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
        let (level, row) = self.level_row(v);
        if level > 0 {
            let bit = 1u64 << (level - 1);
            f(self.vertex_at(level - 1, row))?;
            f(self.vertex_at(level - 1, row ^ bit))?;
        }
        if level < self.dimension {
            let bit = 1u64 << level;
            f(self.vertex_at(level + 1, row))?;
            f(self.vertex_at(level + 1, row ^ bit))?;
        }
        ControlFlow::Continue(())
    }

    fn max_degree(&self) -> usize {
        4
    }

    fn name(&self) -> String {
        format!("butterfly(n={})", self.dimension)
    }

    fn distance(&self, u: VertexId, v: VertexId) -> Option<u64> {
        // No simple closed form for arbitrary pairs; only the same-row
        // level-to-level distance is trivial. Leave to BFS.
        let (lu, ru) = self.level_row(u);
        let (lv, rv) = self.level_row(v);
        if ru == rv && (lu as i64 - lv as i64).unsigned_abs() >= self.dimension as u64 {
            // Same row, levels at least n apart: the straight path is a geodesic.
            return Some((lu as i64 - lv as i64).unsigned_abs());
        }
        None
    }

    fn canonical_pair(&self) -> (VertexId, VertexId) {
        // First row of level 0 to last row of the last level.
        (
            self.vertex_at(0, 0),
            self.vertex_at(self.dimension, self.rows() - 1),
        )
    }

    /// `2·lo + kind`, kind 0 for the straight edge and 1 for the cross edge
    /// out of the lower-level endpoint `lo` (ids grow with the level, so the
    /// canonical low endpoint is always the lower level). The pair
    /// `(lo, kind)` reconstructs the upper endpoint, so the map is
    /// injective; the top level's slots stay unused.
    fn edge_index(&self, edge: EdgeId) -> Option<u64> {
        if !self.contains(edge.hi()) {
            return None;
        }
        let (lo_level, lo_row) = self.level_row(edge.lo());
        let (hi_level, hi_row) = self.level_row(edge.hi());
        if hi_level != lo_level + 1 {
            return None;
        }
        if hi_row == lo_row {
            return Some(2 * edge.lo().0);
        }
        if hi_row == lo_row ^ (1u64 << lo_level) {
            return Some(2 * edge.lo().0 + 1);
        }
        None
    }

    fn edge_index_bound(&self) -> Option<u64> {
        Some(2 * self.num_vertices())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_topology_invariants;

    #[test]
    fn counts() {
        let bf = Butterfly::new(3);
        assert_eq!(bf.num_vertices(), 32);
        assert_eq!(bf.num_edges(), 48);
    }

    #[test]
    fn invariants_hold() {
        for n in 1..=5 {
            check_topology_invariants(&Butterfly::new(n));
        }
    }

    #[test]
    fn level_row_round_trip() {
        let bf = Butterfly::new(4);
        for v in bf.vertices() {
            let (level, row) = bf.level_row(v);
            assert_eq!(bf.vertex_at(level, row), v);
        }
    }

    #[test]
    fn interior_levels_have_degree_four() {
        let bf = Butterfly::new(4);
        for v in bf.vertices() {
            let (level, _) = bf.level_row(v);
            let expected = if level == 0 || level == 4 { 2 } else { 4 };
            assert_eq!(bf.degree(v), expected);
        }
    }

    #[test]
    fn cross_edges_flip_the_level_bit() {
        let bf = Butterfly::new(3);
        let v = bf.vertex_at(1, 0b010);
        let neigh = bf.neighbors(v);
        assert!(neigh.contains(&bf.vertex_at(0, 0b010)));
        assert!(neigh.contains(&bf.vertex_at(0, 0b011)));
        assert!(neigh.contains(&bf.vertex_at(2, 0b010)));
        assert!(neigh.contains(&bf.vertex_at(2, 0b000)));
    }

    #[test]
    fn edge_index_distinguishes_straight_and_cross_edges() {
        let bf = Butterfly::new(3);
        let v = bf.vertex_at(1, 0b010);
        let straight = EdgeId::new(v, bf.vertex_at(2, 0b010));
        let cross = EdgeId::new(v, bf.vertex_at(2, 0b000));
        assert_eq!(bf.edge_index(straight), Some(2 * v.0));
        assert_eq!(bf.edge_index(cross), Some(2 * v.0 + 1));
        // Same level: never an edge.
        assert_eq!(
            bf.edge_index(EdgeId::new(bf.vertex_at(1, 0), bf.vertex_at(1, 1))),
            None
        );
        // Adjacent levels but wrong bit flipped.
        assert_eq!(
            bf.edge_index(EdgeId::new(bf.vertex_at(1, 0b010), bf.vertex_at(2, 0b011))),
            None
        );
        // Out-of-range endpoint.
        let n = bf.num_vertices();
        assert_eq!(bf.edge_index(EdgeId::new(VertexId(0), VertexId(n))), None);
    }

    #[test]
    fn butterfly_is_connected() {
        let bf = Butterfly::new(4);
        let mut seen = vec![false; bf.num_vertices() as usize];
        seen[0] = true;
        let mut queue = std::collections::VecDeque::from([VertexId(0)]);
        let mut count = 1u64;
        while let Some(v) = queue.pop_front() {
            for w in bf.neighbors(v) {
                if !seen[w.0 as usize] {
                    seen[w.0 as usize] = true;
                    count += 1;
                    queue.push_back(w);
                }
            }
        }
        assert_eq!(count, bf.num_vertices());
    }
}

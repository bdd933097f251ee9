//! The `d`-dimensional torus (wrap-around mesh).
//!
//! Identical to [`crate::mesh::Mesh`] except that coordinates wrap modulo the
//! side length, so every vertex has degree `2d`. The torus is not analysed in
//! the paper directly, but it is the standard way to remove boundary effects
//! when measuring bulk percolation quantities (chemical distance, giant
//! component fraction) and is used by the ablation experiments.

use std::ops::ControlFlow;

use crate::{EdgeId, Topology, VertexId};

/// The `d`-dimensional torus with side length `m` (`m^d` vertices, all of
/// degree `2d`).
///
/// # Examples
///
/// ```
/// use faultnet_topology::{torus::Torus, Topology, VertexId};
///
/// let t = Torus::new(2, 4);
/// assert_eq!(t.num_vertices(), 16);
/// assert_eq!(t.num_edges(), 32);
/// assert_eq!(t.degree(VertexId(0)), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Torus {
    dimension: u32,
    side: u64,
}

impl Torus {
    /// Creates a `dimension`-dimensional torus with `side` vertices per axis.
    ///
    /// # Panics
    ///
    /// Panics if `dimension == 0`, `side < 3` (side 2 would create parallel
    /// edges), or the vertex count overflows a `u64`.
    pub fn new(dimension: u32, side: u64) -> Self {
        assert!(dimension > 0, "torus dimension must be positive");
        assert!(side >= 3, "torus side must be at least 3, got {side}");
        let mut total: u64 = 1;
        for _ in 0..dimension {
            total = total
                .checked_mul(side)
                .expect("torus size overflows u64; use a smaller side/dimension");
        }
        Torus { dimension, side }
    }

    /// The number of dimensions `d`.
    pub fn dimension(&self) -> u32 {
        self.dimension
    }

    /// The side length `m`.
    pub fn side(&self) -> u64 {
        self.side
    }

    /// Decodes a vertex id into its coordinate vector.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a vertex of this torus.
    pub fn coordinates(&self, v: VertexId) -> Vec<u64> {
        assert!(self.contains(v), "vertex {v} out of range");
        let mut rest = v.0;
        let mut coords = Vec::with_capacity(self.dimension as usize);
        for _ in 0..self.dimension {
            coords.push(rest % self.side);
            rest /= self.side;
        }
        coords
    }

    /// Encodes a coordinate vector into a vertex id.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate count differs from the dimension or any
    /// coordinate is `>= side`.
    pub fn vertex_at(&self, coords: &[u64]) -> VertexId {
        assert_eq!(
            coords.len(),
            self.dimension as usize,
            "expected {} coordinates, got {}",
            self.dimension,
            coords.len()
        );
        let mut id: u64 = 0;
        for &c in coords.iter().rev() {
            assert!(c < self.side, "coordinate {c} exceeds side {}", self.side);
            id = id * self.side + c;
        }
        VertexId(id)
    }

    /// Wrap-around (toroidal) L1 distance between two vertices.
    pub fn toroidal_distance(&self, u: VertexId, v: VertexId) -> u64 {
        self.coordinates(u)
            .iter()
            .zip(self.coordinates(v).iter())
            .map(|(a, b)| {
                let diff = a.abs_diff(*b);
                diff.min(self.side - diff)
            })
            .sum()
    }
}

impl Topology for Torus {
    fn num_vertices(&self) -> u64 {
        self.side.pow(self.dimension)
    }

    fn num_edges(&self) -> u64 {
        (self.dimension as u64) * self.side.pow(self.dimension)
    }

    /// Per axis, the step down then the step up, each wrapping around.
    #[inline]
    fn for_each_neighbor(
        &self,
        v: VertexId,
        f: &mut dyn FnMut(VertexId) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        assert!(self.contains(v), "vertex {v} out of range");
        let wrap = self.side - 1;
        let mut rest = v.0;
        let mut stride: u64 = 1;
        for _ in 0..self.dimension {
            let c = rest % self.side;
            rest /= self.side;
            f(VertexId(if c == 0 {
                v.0 + wrap * stride
            } else {
                v.0 - stride
            }))?;
            f(VertexId(if c == wrap {
                v.0 - wrap * stride
            } else {
                v.0 + stride
            }))?;
            stride *= self.side;
        }
        ControlFlow::Continue(())
    }

    fn degree(&self, _v: VertexId) -> usize {
        2 * self.dimension as usize
    }

    fn max_degree(&self) -> usize {
        2 * self.dimension as usize
    }

    fn name(&self) -> String {
        format!("torus(d={}, m={})", self.dimension, self.side)
    }

    fn distance(&self, u: VertexId, v: VertexId) -> Option<u64> {
        Some(self.toroidal_distance(u, v))
    }

    fn geodesic(&self, u: VertexId, v: VertexId) -> Option<Vec<VertexId>> {
        let from = self.coordinates(u);
        let to = self.coordinates(v);
        let side = self.side as i64;
        let mut path = vec![u];
        let mut cur = from;
        for axis in 0..self.dimension as usize {
            // Choose the wrap direction that is shorter.
            let a = cur[axis] as i64;
            let b = to[axis] as i64;
            let forward = (b - a).rem_euclid(side);
            let backward = (a - b).rem_euclid(side);
            let (steps, dir) = if forward <= backward {
                (forward, 1i64)
            } else {
                (backward, -1i64)
            };
            for _ in 0..steps {
                cur[axis] = ((cur[axis] as i64 + dir).rem_euclid(side)) as u64;
                path.push(self.vertex_at(&cur));
            }
        }
        debug_assert_eq!(*path.last().unwrap(), v);
        Some(path)
    }

    fn canonical_pair(&self) -> (VertexId, VertexId) {
        let origin = vec![0u64; self.dimension as usize];
        let far = vec![self.side / 2; self.dimension as usize];
        (self.vertex_at(&origin), self.vertex_at(&far))
    }

    /// `(lo * d + axis) * 2 + kind`, with kind 0 for an in-row step edge and
    /// kind 1 for the wrap-around edge of the axis. The two kinds share a low
    /// endpoint only at coordinate 0, where both slots are needed.
    fn edge_index(&self, edge: EdgeId) -> Option<u64> {
        if !self.contains(edge.hi()) {
            return None;
        }
        let delta = edge.hi().0 - edge.lo().0;
        let mut stride: u64 = 1;
        for axis in 0..self.dimension as u64 {
            let coord = (edge.lo().0 / stride) % self.side;
            if delta == stride && coord + 1 < self.side {
                return Some((edge.lo().0 * self.dimension as u64 + axis) * 2);
            }
            if delta == (self.side - 1) * stride && coord == 0 {
                return Some((edge.lo().0 * self.dimension as u64 + axis) * 2 + 1);
            }
            stride *= self.side;
        }
        None
    }

    fn edge_index_bound(&self) -> Option<u64> {
        Some(self.num_vertices() * self.dimension as u64 * 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_topology_invariants;

    #[test]
    fn counts_and_regular_degree() {
        let t = Torus::new(2, 5);
        assert_eq!(t.num_vertices(), 25);
        assert_eq!(t.num_edges(), 50);
        for v in t.vertices() {
            assert_eq!(t.neighbors(v).len(), 4);
        }
    }

    #[test]
    fn invariants_hold() {
        check_topology_invariants(&Torus::new(1, 5));
        check_topology_invariants(&Torus::new(2, 4));
        check_topology_invariants(&Torus::new(3, 3));
    }

    #[test]
    fn edge_index_separates_step_and_wrap_edges() {
        let t = Torus::new(2, 5);
        // Both edges have low endpoint (0, 0) on axis 0: the in-row step to
        // (1, 0) and the wrap to (4, 0). They must get distinct indices.
        let step = EdgeId::new(t.vertex_at(&[0, 0]), t.vertex_at(&[1, 0]));
        let wrap = EdgeId::new(t.vertex_at(&[0, 0]), t.vertex_at(&[4, 0]));
        let (si, wi) = (t.edge_index(step).unwrap(), t.edge_index(wrap).unwrap());
        assert_ne!(si, wi);
        // A two-axis move is not an edge.
        let diag = EdgeId::new(t.vertex_at(&[0, 0]), t.vertex_at(&[1, 1]));
        assert_eq!(t.edge_index(diag), None);
    }

    #[test]
    fn wrap_around_adjacency() {
        let t = Torus::new(1, 6);
        let first = t.vertex_at(&[0]);
        let last = t.vertex_at(&[5]);
        assert!(t.has_edge(first, last));
    }

    #[test]
    fn toroidal_distance_uses_shorter_way() {
        let t = Torus::new(2, 10);
        let a = t.vertex_at(&[0, 0]);
        let b = t.vertex_at(&[9, 8]);
        assert_eq!(t.distance(a, b), Some(1 + 2));
    }

    #[test]
    fn geodesic_matches_distance() {
        let t = Torus::new(2, 7);
        let a = t.vertex_at(&[1, 6]);
        let b = t.vertex_at(&[5, 0]);
        let d = t.distance(a, b).unwrap();
        let path = t.geodesic(a, b).unwrap();
        assert_eq!(path.len() as u64, d + 1);
        for pair in path.windows(2) {
            assert!(t.has_edge(pair[0], pair[1]));
        }
    }

    #[test]
    fn canonical_pair_is_far() {
        let t = Torus::new(2, 8);
        let (u, v) = t.canonical_pair();
        assert_eq!(t.distance(u, v), Some(8));
    }

    #[test]
    #[should_panic(expected = "side")]
    fn side_two_rejected() {
        let _ = Torus::new(2, 2);
    }
}

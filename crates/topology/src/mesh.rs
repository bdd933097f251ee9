//! The `d`-dimensional mesh `M^d` (§4 of the paper).
//!
//! A mesh with side length `m` in `d` dimensions has `m^d` vertices, each
//! identified with a coordinate vector in `{0, …, m-1}^d`. Two vertices are
//! adjacent when they differ by one in exactly one coordinate. Vertex ids are
//! the mixed-radix encoding of the coordinate vector (least significant
//! coordinate first).

use std::ops::ControlFlow;

use crate::{EdgeId, Topology, VertexId};

/// The `d`-dimensional mesh with side length `m` (so `m^d` vertices).
///
/// # Examples
///
/// ```
/// use faultnet_topology::{mesh::Mesh, Topology, VertexId};
///
/// let grid = Mesh::new(2, 4); // the 4x4 grid
/// assert_eq!(grid.num_vertices(), 16);
/// assert_eq!(grid.num_edges(), 24);
/// let a = grid.vertex_at(&[0, 0]);
/// let b = grid.vertex_at(&[3, 2]);
/// assert_eq!(grid.distance(a, b), Some(5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mesh {
    dimension: u32,
    side: u64,
}

impl Mesh {
    /// Creates a `dimension`-dimensional mesh with `side` vertices per axis.
    ///
    /// # Panics
    ///
    /// Panics if `dimension == 0`, `side < 2`, or `side^dimension` overflows
    /// a `u64`.
    pub fn new(dimension: u32, side: u64) -> Self {
        assert!(dimension > 0, "mesh dimension must be positive");
        assert!(side >= 2, "mesh side must be at least 2, got {side}");
        let mut total: u64 = 1;
        for _ in 0..dimension {
            total = total
                .checked_mul(side)
                .expect("mesh size overflows u64; use a smaller side/dimension");
        }
        Mesh { dimension, side }
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
    /// Panics if `v` is not a vertex of this mesh.
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
    /// Panics if the number of coordinates differs from the dimension or any
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
        for (axis, &c) in coords.iter().enumerate().rev() {
            assert!(
                c < self.side,
                "coordinate {c} on axis {axis} exceeds side {}",
                self.side
            );
            id = id * self.side + c;
        }
        VertexId(id)
    }

    /// L1 (Manhattan) distance between two vertices.
    pub fn l1_distance(&self, u: VertexId, v: VertexId) -> u64 {
        self.coordinates(u)
            .iter()
            .zip(self.coordinates(v).iter())
            .map(|(a, b)| a.abs_diff(*b))
            .sum()
    }

    /// The vertex in the "center" of the mesh (all coordinates `side / 2`),
    /// useful for distance-`n` experiments away from the boundary.
    pub fn center(&self) -> VertexId {
        let coords = vec![self.side / 2; self.dimension as usize];
        self.vertex_at(&coords)
    }

    /// A vertex at L1 distance exactly `dist` from `from`, obtained by
    /// walking axis by axis (staying inside the mesh, each axis moved in a
    /// single direction). Returns `None` if `dist` exceeds the sum over the
    /// axes of `max(c, side - 1 - c)` — the farthest the walk can reach.
    pub fn offset_by(&self, from: VertexId, dist: u64) -> Option<VertexId> {
        let mut coords = self.coordinates(from);
        let mut remaining = dist;
        for c in coords.iter_mut() {
            if remaining == 0 {
                break;
            }
            // Move along a single direction per axis so the contributions of
            // the axes add up to exactly `dist`.
            let up = self.side - 1 - *c;
            let down = *c;
            if up >= down {
                let step = up.min(remaining);
                *c += step;
                remaining -= step;
            } else {
                let step = down.min(remaining);
                *c -= step;
                remaining -= step;
            }
        }
        if remaining == 0 {
            Some(self.vertex_at(&coords))
        } else {
            None
        }
    }

    /// All vertices whose L∞ distance from `center` is at most `radius`
    /// (a sub-cube clipped to the mesh boundary).
    pub fn box_around(&self, center: VertexId, radius: u64) -> Vec<VertexId> {
        let c = self.coordinates(center);
        let mut ranges = Vec::with_capacity(self.dimension as usize);
        for &x in &c {
            let lo = x.saturating_sub(radius);
            let hi = (x + radius).min(self.side - 1);
            ranges.push((lo, hi));
        }
        let mut out = Vec::new();
        let mut cursor: Vec<u64> = ranges.iter().map(|r| r.0).collect();
        loop {
            out.push(self.vertex_at(&cursor));
            let mut axis = 0usize;
            loop {
                if axis == self.dimension as usize {
                    return out;
                }
                if cursor[axis] < ranges[axis].1 {
                    cursor[axis] += 1;
                    break;
                }
                cursor[axis] = ranges[axis].0;
                axis += 1;
            }
        }
    }
}

impl Topology for Mesh {
    fn num_vertices(&self) -> u64 {
        self.side.pow(self.dimension)
    }

    fn num_edges(&self) -> u64 {
        // Per axis: (side - 1) * side^(d-1) edges.
        (self.dimension as u64) * (self.side - 1) * self.side.pow(self.dimension - 1)
    }

    /// Per axis, the step down then the step up; the coordinates are peeled
    /// off `v` digit by digit rather than materialised.
    #[inline]
    fn for_each_neighbor(
        &self,
        v: VertexId,
        f: &mut dyn FnMut(VertexId) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        assert!(self.contains(v), "vertex {v} out of range");
        let mut rest = v.0;
        let mut stride: u64 = 1;
        for _ in 0..self.dimension {
            let c = rest % self.side;
            rest /= self.side;
            if c > 0 {
                f(VertexId(v.0 - stride))?;
            }
            if c + 1 < self.side {
                f(VertexId(v.0 + stride))?;
            }
            stride *= self.side;
        }
        ControlFlow::Continue(())
    }

    fn max_degree(&self) -> usize {
        2 * self.dimension as usize
    }

    fn name(&self) -> String {
        format!("mesh(d={}, m={})", self.dimension, self.side)
    }

    fn distance(&self, u: VertexId, v: VertexId) -> Option<u64> {
        Some(self.l1_distance(u, v))
    }

    fn geodesic(&self, u: VertexId, v: VertexId) -> Option<Vec<VertexId>> {
        let from = self.coordinates(u);
        let to = self.coordinates(v);
        let mut path = vec![u];
        let mut cur = from;
        for axis in 0..self.dimension as usize {
            while cur[axis] != to[axis] {
                if cur[axis] < to[axis] {
                    cur[axis] += 1;
                } else {
                    cur[axis] -= 1;
                }
                path.push(self.vertex_at(&cur));
            }
        }
        debug_assert_eq!(*path.last().unwrap(), v);
        Some(path)
    }

    fn canonical_pair(&self) -> (VertexId, VertexId) {
        let origin = vec![0u64; self.dimension as usize];
        let corner = vec![self.side - 1; self.dimension as usize];
        (self.vertex_at(&origin), self.vertex_at(&corner))
    }

    /// `lo * d + axis`. A mesh edge steps by exactly `side^axis` without
    /// crossing a row boundary, so the pair `(lo, axis)` identifies it.
    fn edge_index(&self, edge: EdgeId) -> Option<u64> {
        if !self.contains(edge.hi()) {
            return None;
        }
        let delta = edge.hi().0 - edge.lo().0;
        let mut stride: u64 = 1;
        for axis in 0..self.dimension as u64 {
            if delta == stride {
                let coord = (edge.lo().0 / stride) % self.side;
                return (coord + 1 < self.side).then(|| edge.lo().0 * self.dimension as u64 + axis);
            }
            stride *= self.side;
        }
        None
    }

    fn edge_index_bound(&self) -> Option<u64> {
        Some(self.num_vertices() * self.dimension as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_topology_invariants;

    #[test]
    fn grid_counts() {
        let grid = Mesh::new(2, 5);
        assert_eq!(grid.num_vertices(), 25);
        assert_eq!(grid.num_edges(), 2 * 4 * 5);
        assert_eq!(grid.max_degree(), 4);
    }

    #[test]
    fn invariants_hold() {
        check_topology_invariants(&Mesh::new(1, 7));
        check_topology_invariants(&Mesh::new(2, 5));
        check_topology_invariants(&Mesh::new(3, 4));
        check_topology_invariants(&Mesh::new(4, 3));
    }

    #[test]
    fn edge_index_rejects_row_boundary_pairs() {
        // In the 5x5 grid, ids 4 = (4,0) and 5 = (0,1) are consecutive but
        // not adjacent: the +1 step crosses a row boundary.
        let grid = Mesh::new(2, 5);
        assert_eq!(grid.edge_index(EdgeId::new(VertexId(4), VertexId(5))), None);
        // The same delta one row up is a real edge.
        let e = EdgeId::new(VertexId(5), VertexId(6));
        assert!(grid.edge_index(e).is_some());
    }

    #[test]
    fn coordinates_round_trip() {
        let mesh = Mesh::new(3, 6);
        for v in mesh.vertices() {
            let coords = mesh.coordinates(v);
            assert_eq!(mesh.vertex_at(&coords), v);
        }
    }

    #[test]
    fn corner_and_interior_degrees() {
        let grid = Mesh::new(2, 4);
        let corner = grid.vertex_at(&[0, 0]);
        let edge = grid.vertex_at(&[1, 0]);
        let interior = grid.vertex_at(&[1, 1]);
        assert_eq!(grid.degree(corner), 2);
        assert_eq!(grid.degree(edge), 3);
        assert_eq!(grid.degree(interior), 4);
    }

    #[test]
    fn l1_distance_and_geodesic_agree() {
        let mesh = Mesh::new(3, 5);
        let a = mesh.vertex_at(&[0, 4, 2]);
        let b = mesh.vertex_at(&[3, 1, 2]);
        let d = mesh.distance(a, b).unwrap();
        assert_eq!(d, 6);
        let path = mesh.geodesic(a, b).unwrap();
        assert_eq!(path.len() as u64, d + 1);
        for pair in path.windows(2) {
            assert!(mesh.has_edge(pair[0], pair[1]), "{} {}", pair[0], pair[1]);
        }
        assert_eq!(path[0], a);
        assert_eq!(*path.last().unwrap(), b);
    }

    #[test]
    fn canonical_pair_spans_the_mesh() {
        let mesh = Mesh::new(2, 10);
        let (u, v) = mesh.canonical_pair();
        assert_eq!(mesh.distance(u, v), Some(18));
    }

    #[test]
    fn offset_by_reaches_requested_distance() {
        let mesh = Mesh::new(2, 50);
        let c = mesh.center();
        for dist in [0u64, 1, 5, 24, 40] {
            let target = mesh.offset_by(c, dist).unwrap();
            assert_eq!(mesh.l1_distance(c, target), dist, "dist {dist}");
        }
    }

    #[test]
    fn offset_by_too_far_is_none() {
        let mesh = Mesh::new(1, 4);
        // From coordinate 1 the farthest reachable point in one direction is
        // coordinate 3, at distance 2.
        assert!(mesh.offset_by(VertexId(1), 3).is_none());
        assert_eq!(mesh.offset_by(VertexId(1), 2), Some(VertexId(3)));
    }

    #[test]
    fn box_around_clips_to_boundary() {
        let grid = Mesh::new(2, 4);
        let corner = grid.vertex_at(&[0, 0]);
        let b = grid.box_around(corner, 1);
        assert_eq!(b.len(), 4); // 2x2 box
        let center = grid.vertex_at(&[2, 2]);
        let b = grid.box_around(center, 1);
        assert_eq!(b.len(), 9);
    }

    #[test]
    fn one_dimensional_mesh_is_a_path() {
        let path = Mesh::new(1, 10);
        assert_eq!(path.num_edges(), 9);
        assert_eq!(path.degree(VertexId(0)), 1);
        assert_eq!(path.degree(VertexId(5)), 2);
    }

    #[test]
    #[should_panic(expected = "side")]
    fn tiny_side_rejected() {
        let _ = Mesh::new(2, 1);
    }

    #[test]
    #[should_panic(expected = "coordinate")]
    fn vertex_at_rejects_out_of_range() {
        let mesh = Mesh::new(2, 3);
        let _ = mesh.vertex_at(&[3, 0]);
    }
}

//! The double binary tree `TT_n` (§2.1 of the paper).
//!
//! `TT_n` is built from two complete binary trees of depth `n` whose leaves
//! are identified pairwise. The two roots `x` and `y` are the canonical
//! routing pair: the paper shows (Lemma 6) that they are connected with
//! probability bounded away from zero iff `p > 1/√2`, that any *local* router
//! between them needs exponentially many probes (Theorem 7), while an
//! *oracle* router needs only `O(n)` probes (Theorem 9).
//!
//! # Vertex numbering
//!
//! Using 1-based heap indices `h` inside a depth-`n` complete binary tree
//! (internal nodes `1 ≤ h < 2^n`, leaves `2^n ≤ h < 2^{n+1}`):
//!
//! * ids `0 .. 2^n - 1`            — internal nodes of the first tree (`id = h - 1`),
//! * ids `2^n - 1 .. 2^{n+1} - 1`  — the shared leaves (`id = 2^n - 1 + (h - 2^n)`),
//! * ids `2^{n+1} - 1 .. 3·2^n - 2` — internal nodes of the second tree.
//!
//! The first root `x` is id `0`; the second root `y` is id `2^{n+1} - 1`.

use std::ops::ControlFlow;

use crate::{EdgeId, Topology, VertexId};

/// Which part of the double tree a vertex belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TreeSide {
    /// Internal node of the first tree (the one rooted at `x`).
    First,
    /// A shared leaf (belongs to both trees).
    Leaf,
    /// Internal node of the second tree (the one rooted at `y`).
    Second,
}

/// The double binary tree `TT_n`: two depth-`n` complete binary trees glued
/// at their leaves.
///
/// # Examples
///
/// ```
/// use faultnet_topology::{double_tree::DoubleBinaryTree, Topology};
///
/// let tt = DoubleBinaryTree::new(3);
/// assert_eq!(tt.num_vertices(), 3 * 8 - 2);
/// assert_eq!(tt.num_edges(), 2 * (2 * 8 - 2));
/// let (x, y) = tt.roots();
/// assert_eq!(tt.degree(x), 2);
/// assert_eq!(tt.degree(y), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DoubleBinaryTree {
    depth: u32,
}

impl DoubleBinaryTree {
    /// Creates `TT_n` for the given leaf depth `n ≥ 1`.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is 0 or greater than 60.
    pub fn new(depth: u32) -> Self {
        assert!(
            (1..=60).contains(&depth),
            "double tree depth must be in 1..=60, got {depth}"
        );
        DoubleBinaryTree { depth }
    }

    /// The depth `n` (leaves are at distance `n` from each root).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Number of leaves, `2^n`.
    pub fn num_leaves(&self) -> u64 {
        1u64 << self.depth
    }

    fn internal_per_tree(&self) -> u64 {
        (1u64 << self.depth) - 1
    }

    /// The two roots `(x, y)`.
    pub fn roots(&self) -> (VertexId, VertexId) {
        (VertexId(0), VertexId(2 * self.num_leaves() - 1))
    }

    /// Which side of the double tree `v` belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a vertex of this graph.
    pub fn side(&self, v: VertexId) -> TreeSide {
        assert!(self.contains(v), "vertex {v} out of range");
        let internal = self.internal_per_tree();
        let leaves = self.num_leaves();
        if v.0 < internal {
            TreeSide::First
        } else if v.0 < internal + leaves {
            TreeSide::Leaf
        } else {
            TreeSide::Second
        }
    }

    /// The depth of `v` measured from its own tree's root (leaves have depth
    /// `n` from both roots).
    pub fn depth_of(&self, v: VertexId) -> u32 {
        let h = match self.side(v) {
            TreeSide::First => v.0 + 1,
            TreeSide::Leaf => v.0 - self.internal_per_tree() + self.num_leaves(),
            TreeSide::Second => v.0 - (self.internal_per_tree() + self.num_leaves()) + 1,
        };
        63 - h.leading_zeros()
    }

    /// The `i`-th shared leaf (`0 ≤ i < 2^n`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_leaves()`.
    pub fn leaf(&self, i: u64) -> VertexId {
        assert!(i < self.num_leaves(), "leaf index {i} out of range");
        VertexId(self.internal_per_tree() + i)
    }

    /// Heap index (1-based, within a single depth-`n` tree) of `v` viewed
    /// from the first tree (for leaves this is the leaf's heap index).
    fn heap_in_first(&self, v: VertexId) -> Option<u64> {
        match self.side(v) {
            TreeSide::First => Some(v.0 + 1),
            TreeSide::Leaf => Some(v.0 - self.internal_per_tree() + self.num_leaves()),
            TreeSide::Second => None,
        }
    }

    /// Heap index of `v` viewed from the second tree.
    fn heap_in_second(&self, v: VertexId) -> Option<u64> {
        match self.side(v) {
            TreeSide::Second => Some(v.0 - (self.internal_per_tree() + self.num_leaves()) + 1),
            TreeSide::Leaf => Some(v.0 - self.internal_per_tree() + self.num_leaves()),
            TreeSide::First => None,
        }
    }

    fn vertex_from_heap(&self, tree: TreeSide, h: u64) -> VertexId {
        let leaves = self.num_leaves();
        if h >= leaves {
            // a leaf regardless of which tree we were navigating
            VertexId(self.internal_per_tree() + (h - leaves))
        } else {
            match tree {
                TreeSide::First => VertexId(h - 1),
                TreeSide::Second => VertexId(self.internal_per_tree() + leaves + h - 1),
                TreeSide::Leaf => unreachable!("leaf side has no internal nodes"),
            }
        }
    }

    /// The parent of `v` inside the first tree (towards root `x`), if any.
    pub fn parent_in_first(&self, v: VertexId) -> Option<VertexId> {
        let h = self.heap_in_first(v)?;
        if h == 1 {
            None
        } else {
            Some(self.vertex_from_heap(TreeSide::First, h / 2))
        }
    }

    /// The parent of `v` inside the second tree (towards root `y`), if any.
    pub fn parent_in_second(&self, v: VertexId) -> Option<VertexId> {
        let h = self.heap_in_second(v)?;
        if h == 1 {
            None
        } else {
            Some(self.vertex_from_heap(TreeSide::Second, h / 2))
        }
    }

    /// The two children of an internal node `v` (within its own tree,
    /// descending towards the shared leaves). Returns `None` for leaves.
    pub fn children(&self, v: VertexId) -> Option<(VertexId, VertexId)> {
        let (tree, h) = match self.side(v) {
            TreeSide::First => (TreeSide::First, self.heap_in_first(v).unwrap()),
            TreeSide::Second => (TreeSide::Second, self.heap_in_second(v).unwrap()),
            TreeSide::Leaf => return None,
        };
        Some((
            self.vertex_from_heap(tree, 2 * h),
            self.vertex_from_heap(tree, 2 * h + 1),
        ))
    }

    /// The mirror image of `v`: the vertex occupying the same heap position
    /// in the *other* tree. Leaves (which belong to both trees) are their own
    /// mirror image.
    ///
    /// Mirroring maps the edge `{parent, child}` of the first tree to the
    /// corresponding edge of the second tree; the oracle router of Theorem 9
    /// probes such edge pairs together.
    pub fn mirror(&self, v: VertexId) -> VertexId {
        match self.side(v) {
            TreeSide::Leaf => v,
            TreeSide::First => {
                let h = self.heap_in_first(v).expect("first-tree vertex");
                self.vertex_from_heap(TreeSide::Second, h)
            }
            TreeSide::Second => {
                let h = self.heap_in_second(v).expect("second-tree vertex");
                self.vertex_from_heap(TreeSide::First, h)
            }
        }
    }

    /// For a shared leaf, the branch of tree-`side` ancestors from the leaf
    /// up to (and including) that tree's root.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a leaf.
    pub fn branch_to_root(&self, v: VertexId, side: TreeSide) -> Vec<VertexId> {
        assert_eq!(self.side(v), TreeSide::Leaf, "{v} is not a leaf");
        let mut out = vec![v];
        let mut cur = v;
        loop {
            let parent = match side {
                TreeSide::First => self.parent_in_first(cur),
                TreeSide::Second => self.parent_in_second(cur),
                TreeSide::Leaf => panic!("side must be First or Second"),
            };
            match parent {
                Some(p) => {
                    out.push(p);
                    cur = p;
                }
                None => break,
            }
        }
        out
    }
}

impl Topology for DoubleBinaryTree {
    fn num_vertices(&self) -> u64 {
        3 * self.num_leaves() - 2
    }

    fn num_edges(&self) -> u64 {
        // Each of the two depth-n trees contributes 2^{n+1} - 2 edges.
        2 * (2 * self.num_leaves() - 2)
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
        match self.side(v) {
            TreeSide::First => {
                if let Some(p) = self.parent_in_first(v) {
                    f(p)?;
                }
                let (a, b) = self.children(v).expect("internal node has children");
                f(a)?;
                f(b)?;
            }
            TreeSide::Second => {
                if let Some(p) = self.parent_in_second(v) {
                    f(p)?;
                }
                let (a, b) = self.children(v).expect("internal node has children");
                f(a)?;
                f(b)?;
            }
            TreeSide::Leaf => {
                f(self.parent_in_first(v).expect("leaf has a first parent"))?;
                f(self.parent_in_second(v).expect("leaf has a second parent"))?;
            }
        }
        ControlFlow::Continue(())
    }

    fn max_degree(&self) -> usize {
        3
    }

    fn name(&self) -> String {
        format!("double_tree(n={})", self.depth)
    }

    fn canonical_pair(&self) -> (VertexId, VertexId) {
        self.roots()
    }

    /// `2·child + side`, side 0 for a first-tree edge and 1 for a
    /// second-tree edge, where `child` is the endpoint whose parent *in that
    /// tree* is the other endpoint. A leaf's two parents live in different
    /// sides and internal nodes have a parent in their own tree only, so
    /// exactly one `(child, side)` pair matches per edge; the pair
    /// reconstructs the edge, making the map injective. The two roots'
    /// child-slots stay unused.
    fn edge_index(&self, edge: EdgeId) -> Option<u64> {
        if !self.contains(edge.hi()) {
            return None;
        }
        let (lo, hi) = edge.endpoints();
        if self.parent_in_first(lo) == Some(hi) {
            return Some(2 * lo.0);
        }
        if self.parent_in_first(hi) == Some(lo) {
            return Some(2 * hi.0);
        }
        if self.parent_in_second(lo) == Some(hi) {
            return Some(2 * lo.0 + 1);
        }
        if self.parent_in_second(hi) == Some(lo) {
            return Some(2 * hi.0 + 1);
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
        for n in 1..=6 {
            let tt = DoubleBinaryTree::new(n);
            assert_eq!(tt.num_vertices(), 3 * (1 << n) - 2);
            assert_eq!(tt.num_edges(), 2 * (2 * (1 << n) - 2));
        }
    }

    #[test]
    fn invariants_hold() {
        for n in 1..=6 {
            check_topology_invariants(&DoubleBinaryTree::new(n));
        }
    }

    #[test]
    fn smallest_double_tree_is_a_four_cycle() {
        let tt = DoubleBinaryTree::new(1);
        assert_eq!(tt.num_vertices(), 4);
        assert_eq!(tt.num_edges(), 4);
        for v in tt.vertices() {
            assert_eq!(tt.degree(v), 2);
        }
    }

    #[test]
    fn roots_have_degree_two_and_leaves_degree_two() {
        let tt = DoubleBinaryTree::new(4);
        let (x, y) = tt.roots();
        assert_eq!(tt.degree(x), 2);
        assert_eq!(tt.degree(y), 2);
        assert_eq!(tt.side(x), TreeSide::First);
        assert_eq!(tt.side(y), TreeSide::Second);
        for i in 0..tt.num_leaves() {
            let leaf = tt.leaf(i);
            assert_eq!(tt.side(leaf), TreeSide::Leaf);
            assert_eq!(tt.degree(leaf), 2);
        }
        // Internal non-root nodes have degree 3.
        let internal = tt.children(x).unwrap().0;
        assert_eq!(tt.degree(internal), 3);
    }

    #[test]
    fn depth_of_matches_structure() {
        let tt = DoubleBinaryTree::new(3);
        let (x, y) = tt.roots();
        assert_eq!(tt.depth_of(x), 0);
        assert_eq!(tt.depth_of(y), 0);
        assert_eq!(tt.depth_of(tt.leaf(0)), 3);
        let (c, _) = tt.children(x).unwrap();
        assert_eq!(tt.depth_of(c), 1);
    }

    #[test]
    fn branch_to_root_has_length_depth_plus_one() {
        let tt = DoubleBinaryTree::new(5);
        let leaf = tt.leaf(13);
        let b1 = tt.branch_to_root(leaf, TreeSide::First);
        let b2 = tt.branch_to_root(leaf, TreeSide::Second);
        assert_eq!(b1.len(), 6);
        assert_eq!(b2.len(), 6);
        assert_eq!(*b1.last().unwrap(), tt.roots().0);
        assert_eq!(*b2.last().unwrap(), tt.roots().1);
        // branches are valid paths
        for pair in b1.windows(2) {
            assert!(tt.has_edge(pair[0], pair[1]));
        }
        for pair in b2.windows(2) {
            assert!(tt.has_edge(pair[0], pair[1]));
        }
    }

    #[test]
    fn parents_and_children_are_consistent() {
        let tt = DoubleBinaryTree::new(4);
        for v in tt.vertices() {
            if let Some((a, b)) = tt.children(v) {
                match tt.side(v) {
                    TreeSide::First => {
                        assert_eq!(tt.parent_in_first(a), Some(v));
                        assert_eq!(tt.parent_in_first(b), Some(v));
                    }
                    TreeSide::Second => {
                        assert_eq!(tt.parent_in_second(a), Some(v));
                        assert_eq!(tt.parent_in_second(b), Some(v));
                    }
                    TreeSide::Leaf => unreachable!(),
                }
            }
        }
    }

    #[test]
    fn roots_are_at_distance_two_n() {
        // BFS on the fault-free graph: the roots should be 2n apart.
        let tt = DoubleBinaryTree::new(4);
        let (x, y) = tt.roots();
        let mut dist = std::collections::HashMap::new();
        dist.insert(x, 0u64);
        let mut queue = std::collections::VecDeque::from([x]);
        while let Some(v) = queue.pop_front() {
            let d = dist[&v];
            for w in tt.neighbors(v) {
                dist.entry(w).or_insert_with(|| {
                    queue.push_back(w);
                    d + 1
                });
            }
        }
        assert_eq!(dist[&y], 8);
    }

    #[test]
    fn mirror_is_an_involution_and_swaps_roots() {
        let tt = DoubleBinaryTree::new(4);
        let (x, y) = tt.roots();
        assert_eq!(tt.mirror(x), y);
        assert_eq!(tt.mirror(y), x);
        for v in tt.vertices() {
            assert_eq!(tt.mirror(tt.mirror(v)), v);
            if tt.side(v) == TreeSide::Leaf {
                assert_eq!(tt.mirror(v), v);
            } else {
                assert_ne!(tt.mirror(v), v);
                assert_eq!(tt.depth_of(tt.mirror(v)), tt.depth_of(v));
            }
        }
    }

    #[test]
    fn mirror_maps_edges_to_edges() {
        let tt = DoubleBinaryTree::new(4);
        for v in tt.vertices() {
            for w in tt.neighbors(v) {
                assert!(
                    tt.has_edge(tt.mirror(v), tt.mirror(w)),
                    "mirror of edge ({v}, {w}) is not an edge"
                );
            }
        }
    }

    #[test]
    fn edge_index_assigns_leaf_edges_to_both_trees() {
        let tt = DoubleBinaryTree::new(3);
        let leaf = tt.leaf(2);
        let first = EdgeId::new(leaf, tt.parent_in_first(leaf).unwrap());
        let second = EdgeId::new(leaf, tt.parent_in_second(leaf).unwrap());
        assert_eq!(tt.edge_index(first), Some(2 * leaf.0));
        assert_eq!(tt.edge_index(second), Some(2 * leaf.0 + 1));
        // The two roots are not adjacent.
        let (x, y) = tt.roots();
        assert_eq!(tt.edge_index(EdgeId::new(x, y)), None);
        // Mirror vertices (same heap slot, opposite trees) are not adjacent.
        let internal = tt.children(x).unwrap().0;
        assert_eq!(
            tt.edge_index(EdgeId::new(internal, tt.mirror(internal))),
            None
        );
    }

    #[test]
    #[should_panic(expected = "depth")]
    fn zero_depth_rejected() {
        let _ = DoubleBinaryTree::new(0);
    }
}

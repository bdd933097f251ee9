//! Disjoint-set (union–find) structures used by the component census.
//!
//! Three implementations share this module:
//!
//! * [`UnionFind`] — the sequential structure: weighted union by size with
//!   path halving over dense `u32` parent and size arrays (8 bytes per
//!   element); amortised near-constant operations, which keeps whole-graph
//!   component censuses linear in the number of edges.
//! * [`AtomicUnionFind`] — a lock-free concurrent structure (`AtomicU32`
//!   parents, CAS linking, path halving) backing
//!   [`crate::components::ComponentCensus::compute_parallel`]. Unions always
//!   link the *larger* root under the *smaller* one, so whatever order
//!   concurrent workers interleave their unions in, the final root of every
//!   tree is the minimum element of its set — a canonical, scheduling-
//!   independent representative. This is what lets the parallel census
//!   relabel to output bit-identical to the sequential pass.
//! * [`RewindableUnionFind`] — union by rank plus an undo log, backing the
//!   incremental census of [`crate::dynamic`]. Every `union` pushes exactly
//!   one O(1) undo record, so [`RewindableUnionFind::rewind_to`] restores any
//!   earlier partition exactly. Union by *rank*, deliberately **without**
//!   path compression: compression rewrites arbitrarily many parent pointers
//!   per `find`, which an O(1) undo record cannot capture, whereas a rank
//!   link touches one parent pointer, one rank, one size, and one cached
//!   minimum — a constant-size record. Rank links still bound every find
//!   path by `log₂ n`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};

/// A union–find structure over the dense universe `0 .. len`.
///
/// # Examples
///
/// ```
/// use faultnet_percolation::union_find::UnionFind;
///
/// let mut uf = UnionFind::new(5);
/// uf.union(0, 1);
/// uf.union(3, 4);
/// assert!(uf.connected(0, 1));
/// assert!(!uf.connected(1, 3));
/// assert_eq!(uf.num_sets(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    num_sets: usize,
}

impl UnionFind {
    /// Creates a structure with `len` singleton sets.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds `u32::MAX`: elements and set sizes are
    /// stored as `u32`.
    pub fn new(len: usize) -> Self {
        assert!(
            len <= u32::MAX as usize,
            "UnionFind universe of {len} elements exceeds u32 indices"
        );
        UnionFind {
            parent: (0..len as u32).collect(),
            size: vec![1; len],
            num_sets: len,
        }
    }

    /// Number of elements in the universe.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` if the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets currently present.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// The canonical representative of `x`'s set.
    ///
    /// # Panics
    ///
    /// Panics if `x >= len()`.
    pub fn find(&mut self, x: usize) -> usize {
        assert!(x < self.parent.len(), "element {x} out of range");
        self.root(x as u32) as usize
    }

    /// The root of `x` (in range), halving the path on the way: every
    /// visited node is relinked to its grandparent.
    #[inline]
    fn root(&mut self, mut x: u32) -> u32 {
        loop {
            let p = self.parent[x as usize];
            if p == x {
                return x;
            }
            let gp = self.parent[p as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
    }

    /// Merges the sets containing `a` and `b`. Returns `true` if they were
    /// previously distinct.
    ///
    /// # Panics
    ///
    /// Panics if either element is out of range.
    #[inline]
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let len = self.parent.len();
        assert!(a < len && b < len, "element {} out of range", a.max(b));
        let ra = self.root(a as u32);
        let rb = self.root(b as u32);
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        self.num_sets -= 1;
        true
    }

    /// Returns `true` if `a` and `b` are in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Size of the set containing `x`.
    pub fn set_size(&mut self, x: usize) -> usize {
        let root = self.find(x);
        self.size[root] as usize
    }

    /// Size of the largest set.
    pub fn largest_set_size(&mut self) -> usize {
        (0..self.parent.len())
            .map(|i| self.set_size(i))
            .max()
            .unwrap_or(0)
    }
}

/// A lock-free concurrent union–find over the dense universe `0 .. len`.
///
/// Parents are `AtomicU32`s; [`AtomicUnionFind::union`] links roots with a
/// compare-and-swap and [`AtomicUnionFind::find`] performs CAS-guarded path
/// halving, so any number of threads may call both concurrently with no
/// locks (the structure contains no `unsafe` code — the percolation crate
/// forbids it).
///
/// # Canonical roots
///
/// [`AtomicUnionFind::union`] always links the larger of the two roots under
/// the smaller one, and path halving only ever replaces a parent pointer by
/// a transitive ancestor, so the invariant `parent[x] <= x` holds at all
/// times. Consequently the root of every tree is the *minimum* element of
/// its set: once all unions have completed, [`AtomicUnionFind::find`]
/// returns the same canonical representative no matter how the concurrent
/// unions were scheduled. The parallel component census leans on this —
/// its labels are scheduling-independent by construction, not by an extra
/// relabeling pass.
///
/// # Examples
///
/// ```
/// use faultnet_percolation::union_find::AtomicUnionFind;
///
/// let uf = AtomicUnionFind::new(5);
/// std::thread::scope(|scope| {
///     scope.spawn(|| uf.union(0, 1));
///     scope.spawn(|| uf.union(3, 4));
/// });
/// assert!(uf.same_set(0, 1));
/// assert!(!uf.same_set(1, 3));
/// assert_eq!(uf.find(4), 3); // canonical root = minimum of the set
/// ```
#[derive(Debug)]
pub struct AtomicUnionFind {
    parent: Vec<AtomicU32>,
}

impl AtomicUnionFind {
    /// Creates a structure with `len` singleton sets.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds `u32::MAX` (the parallel census falls back to
    /// the sequential pass before that point).
    pub fn new(len: usize) -> Self {
        assert!(
            len <= u32::MAX as usize,
            "AtomicUnionFind universe of {len} elements exceeds u32 indices"
        );
        AtomicUnionFind {
            parent: (0..len as u32).map(AtomicU32::new).collect(),
        }
    }

    /// Number of elements in the universe.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` if the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// The canonical representative (minimum element) of `x`'s set.
    ///
    /// Performs path halving: each step CASes `parent[x]` from its current
    /// value to its grandparent, shortening the path for later queries. A
    /// failed CAS just means another thread already shortened (or linked)
    /// this node; the walk continues from the freshest value either way.
    ///
    /// # Panics
    ///
    /// Panics if `x >= len()`.
    pub fn find(&self, x: usize) -> usize {
        assert!(x < self.parent.len(), "element {x} out of range");
        let mut x = x as u32;
        loop {
            let p = self.parent[x as usize].load(Ordering::Acquire);
            if p == x {
                return x as usize;
            }
            let gp = self.parent[p as usize].load(Ordering::Acquire);
            if gp == p {
                return p as usize;
            }
            // Path halving; a lost race only costs a retry.
            let _ = self.parent[x as usize].compare_exchange(
                p,
                gp,
                Ordering::AcqRel,
                Ordering::Acquire,
            );
            x = gp;
        }
    }

    /// Merges the sets containing `a` and `b`. Returns `true` if this call
    /// performed the link (under concurrency: the sets were distinct at the
    /// linearization point of this call's successful CAS).
    ///
    /// # Panics
    ///
    /// Panics if either element is out of range.
    pub fn union(&self, a: usize, b: usize) -> bool {
        let mut ra = self.find(a);
        let mut rb = self.find(b);
        loop {
            if ra == rb {
                return false;
            }
            // Link the larger root under the smaller: parent pointers only
            // ever decrease, so the root of a tree is its minimum element.
            let (hi, lo) = if ra > rb { (ra, rb) } else { (rb, ra) };
            match self.parent[hi].compare_exchange(
                hi as u32,
                lo as u32,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                // `hi` stopped being a root (another thread linked it);
                // refresh both roots and retry.
                Err(_) => {
                    ra = self.find(hi);
                    rb = self.find(lo);
                }
            }
        }
    }

    /// Returns `true` if `a` and `b` are currently in the same set.
    pub fn same_set(&self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

/// One entry of the [`RewindableUnionFind`] undo log. Every [`union`] call
/// pushes exactly one entry — a no-op marker when the elements were already
/// joined — so the log length always equals the number of `union` calls
/// since construction (or the last rewind), which is what lets the
/// incremental census address log positions by applied-edge index.
///
/// [`union`]: RewindableUnionFind::union
#[derive(Debug, Clone, Copy)]
enum UndoEntry {
    /// The union was a no-op (both elements already shared a root).
    Noop,
    /// `child` was linked under `parent`. The old parent size needs no slot:
    /// it is `size[parent] - size[child]` at undo time. `min_member[child]`
    /// is never touched by the link, so restoring the parent's cached
    /// minimum is the only label repair undo must make.
    Link {
        child: usize,
        parent: usize,
        rank_bumped: bool,
        prev_parent_min: usize,
    },
}

/// A union–find over the dense universe `0 .. len` whose operations can be
/// *undone*: every [`union`] pushes one O(1) record onto an undo log, and
/// [`rewind_to`] pops records to restore the exact partition that existed at
/// any earlier [`mark`].
///
/// # Design: rank links, no path compression
///
/// Undo soundness hinges on each union having a constant-size footprint.
/// Union by rank links one root under another, mutating exactly four cells
/// (`parent[child]`, possibly `rank[parent]`, `size[parent]`,
/// `min_member[parent]`), all of which one undo entry restores. Path
/// compression would be fatal here: a single `find` may rewrite arbitrarily
/// many parent pointers, so either finds become unrecordable mutations or
/// undo records become unbounded. Dropping compression costs only the
/// amortised-α bound — rank links alone keep every find path at most
/// `log₂ n` long — and buys a non-mutating `find(&self)`, so reads never
/// touch the log at all.
///
/// # Canonical minima
///
/// Each root caches the minimum element of its set ([`min_of_set`]), so the
/// incremental census can hand out the same canonical component labels as
/// [`crate::components::ComponentCensus`] without relabeling. A `BTreeMap`
/// multiset of set sizes keeps [`largest_set_size`] and
/// [`sizes_descending`] O(log n) and O(k) respectively under churn.
///
/// [`union`]: RewindableUnionFind::union
/// [`rewind_to`]: RewindableUnionFind::rewind_to
/// [`mark`]: RewindableUnionFind::mark
/// [`min_of_set`]: RewindableUnionFind::min_of_set
/// [`largest_set_size`]: RewindableUnionFind::largest_set_size
/// [`sizes_descending`]: RewindableUnionFind::sizes_descending
///
/// # Examples
///
/// ```
/// use faultnet_percolation::union_find::RewindableUnionFind;
///
/// let mut uf = RewindableUnionFind::new(4);
/// let before = uf.mark();
/// uf.union(0, 1);
/// uf.union(1, 2);
/// assert!(uf.connected(0, 2));
/// assert_eq!(uf.min_of_set(2), 0);
/// uf.rewind_to(before);
/// assert!(!uf.connected(0, 2));
/// assert_eq!(uf.num_sets(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct RewindableUnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
    /// Set size, valid at roots.
    size: Vec<u64>,
    /// Minimum member of the set, valid at roots.
    min_member: Vec<usize>,
    /// Multiset of current set sizes (size → how many sets have it).
    size_counts: BTreeMap<u64, usize>,
    num_sets: usize,
    log: Vec<UndoEntry>,
}

impl RewindableUnionFind {
    /// Creates a structure with `len` singleton sets and an empty undo log.
    pub fn new(len: usize) -> Self {
        let mut size_counts = BTreeMap::new();
        if len > 0 {
            size_counts.insert(1, len);
        }
        RewindableUnionFind {
            parent: (0..len).collect(),
            rank: vec![0; len],
            size: vec![1; len],
            min_member: (0..len).collect(),
            size_counts,
            num_sets: len,
            log: Vec::new(),
        }
    }

    /// Number of elements in the universe.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` if the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets currently present.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// The current representative of `x`'s set. Non-mutating (no path
    /// compression — see the type docs); the walk is at most `log₂ n` steps.
    ///
    /// The representative is *not* canonical across histories (it depends on
    /// link order); use [`RewindableUnionFind::min_of_set`] for the canonical
    /// minimum.
    ///
    /// # Panics
    ///
    /// Panics if `x >= len()`.
    pub fn find(&self, x: usize) -> usize {
        assert!(x < self.parent.len(), "element {x} out of range");
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        root
    }

    /// Merges the sets containing `a` and `b`, pushing one undo record.
    /// Returns `true` if they were previously distinct.
    ///
    /// # Panics
    ///
    /// Panics if either element is out of range.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            self.log.push(UndoEntry::Noop);
            return false;
        }
        // Rank decides the link direction; ties pick the smaller root as
        // parent (determinism only — any choice would be sound).
        let (parent, child) = match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Greater => (ra, rb),
            std::cmp::Ordering::Less => (rb, ra),
            std::cmp::Ordering::Equal => (ra.min(rb), ra.max(rb)),
        };
        let rank_bumped = self.rank[parent] == self.rank[child];
        if rank_bumped {
            self.rank[parent] += 1;
        }
        self.remove_size(self.size[parent]);
        self.remove_size(self.size[child]);
        let prev_parent_min = self.min_member[parent];
        self.parent[child] = parent;
        self.min_member[parent] = prev_parent_min.min(self.min_member[child]);
        self.size[parent] += self.size[child];
        self.insert_size(self.size[parent]);
        self.num_sets -= 1;
        self.log.push(UndoEntry::Link {
            child,
            parent,
            rank_bumped,
            prev_parent_min,
        });
        true
    }

    /// Returns `true` if `a` and `b` are in the same set.
    pub fn connected(&self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Size of the set containing `x`.
    pub fn set_size(&self, x: usize) -> u64 {
        self.size[self.find(x)]
    }

    /// The minimum element of the set containing `x` — the canonical,
    /// history-independent representative (the component label the census
    /// hands out).
    pub fn min_of_set(&self, x: usize) -> usize {
        self.min_member[self.find(x)]
    }

    /// Size of the largest set (0 for the empty universe).
    pub fn largest_set_size(&self) -> u64 {
        self.size_counts
            .last_key_value()
            .map(|(&s, _)| s)
            .unwrap_or(0)
    }

    /// All current set sizes in descending order (with multiplicity).
    pub fn sizes_descending(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.num_sets);
        for (&size, &count) in self.size_counts.iter().rev() {
            out.extend(std::iter::repeat(size).take(count));
        }
        out
    }

    /// The current undo-log position. `mark()` before a batch of unions,
    /// [`RewindableUnionFind::rewind_to`] the same value to discard them.
    pub fn mark(&self) -> usize {
        self.log.len()
    }

    /// Undoes the most recent not-yet-undone `union` call. Returns `false`
    /// if the log is empty.
    pub fn undo(&mut self) -> bool {
        match self.log.pop() {
            None => false,
            Some(UndoEntry::Noop) => true,
            Some(UndoEntry::Link {
                child,
                parent,
                rank_bumped,
                prev_parent_min,
            }) => {
                self.remove_size(self.size[parent]);
                self.size[parent] -= self.size[child];
                self.insert_size(self.size[parent]);
                self.insert_size(self.size[child]);
                self.min_member[parent] = prev_parent_min;
                if rank_bumped {
                    self.rank[parent] -= 1;
                }
                self.parent[child] = child;
                self.num_sets += 1;
                true
            }
        }
    }

    /// Rewinds the structure to the partition that existed when
    /// [`RewindableUnionFind::mark`] returned `mark`, undoing every later
    /// union (most recent first).
    ///
    /// # Panics
    ///
    /// Panics if `mark` exceeds the current log length (i.e. it was taken
    /// after history that has already been rewound away).
    pub fn rewind_to(&mut self, mark: usize) {
        assert!(
            mark <= self.log.len(),
            "mark {mark} is beyond the undo log ({} entries)",
            self.log.len()
        );
        while self.log.len() > mark {
            self.undo();
        }
    }

    fn insert_size(&mut self, s: u64) {
        *self.size_counts.entry(s).or_insert(0) += 1;
    }

    fn remove_size(&mut self, s: u64) {
        let count = self
            .size_counts
            .get_mut(&s)
            .expect("size multiset out of sync");
        if *count > 1 {
            *count -= 1;
        } else {
            self.size_counts.remove(&s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_initially() {
        let mut uf = UnionFind::new(4);
        assert_eq!(uf.num_sets(), 4);
        assert_eq!(uf.len(), 4);
        assert!(!uf.is_empty());
        for i in 0..4 {
            assert_eq!(uf.find(i), i);
            assert_eq!(uf.set_size(i), 1);
        }
    }

    #[test]
    fn union_merges_and_counts() {
        let mut uf = UnionFind::new(6);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2)); // already together
        assert_eq!(uf.num_sets(), 4);
        assert_eq!(uf.set_size(2), 3);
        assert!(uf.connected(0, 2));
        assert!(!uf.connected(0, 5));
    }

    #[test]
    fn largest_set_size_tracks_unions() {
        let mut uf = UnionFind::new(10);
        assert_eq!(uf.largest_set_size(), 1);
        for i in 0..4 {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.largest_set_size(), 5);
        uf.union(7, 8);
        assert_eq!(uf.largest_set_size(), 5);
    }

    #[test]
    fn transitive_connectivity() {
        let mut uf = UnionFind::new(100);
        for i in 0..99 {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.num_sets(), 1);
        assert!(uf.connected(0, 99));
        assert_eq!(uf.set_size(42), 100);
    }

    #[test]
    fn empty_universe() {
        let mut uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.num_sets(), 0);
        assert_eq!(uf.largest_set_size(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn find_out_of_range_panics() {
        let mut uf = UnionFind::new(3);
        let _ = uf.find(3);
    }

    #[test]
    fn atomic_roots_are_set_minima() {
        let uf = AtomicUnionFind::new(10);
        assert_eq!(uf.len(), 10);
        assert!(!uf.is_empty());
        assert!(uf.union(7, 3));
        assert!(uf.union(3, 9));
        assert!(!uf.union(9, 7));
        assert_eq!(uf.find(7), 3);
        assert_eq!(uf.find(9), 3);
        assert!(uf.same_set(7, 9));
        assert!(!uf.same_set(7, 0));
    }

    #[test]
    fn atomic_empty_universe() {
        let uf = AtomicUnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.len(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn atomic_find_out_of_range_panics() {
        let uf = AtomicUnionFind::new(3);
        let _ = uf.find(3);
    }

    #[test]
    fn rewindable_union_and_undo_round_trip() {
        let mut uf = RewindableUnionFind::new(6);
        assert_eq!(uf.num_sets(), 6);
        assert!(uf.union(0, 1));
        assert!(uf.union(2, 3));
        assert!(!uf.union(1, 0)); // no-op, still logged
        assert_eq!(uf.mark(), 3);
        assert_eq!(uf.num_sets(), 4);
        assert!(uf.undo()); // pops the no-op: partition unchanged
        assert_eq!(uf.num_sets(), 4);
        assert!(uf.connected(0, 1));
        assert!(uf.undo()); // unlinks {2, 3}
        assert!(!uf.connected(2, 3));
        assert_eq!(uf.num_sets(), 5);
        assert!(uf.undo());
        assert!(!uf.connected(0, 1));
        assert_eq!(uf.num_sets(), 6);
        assert!(!uf.undo(), "log exhausted");
    }

    #[test]
    fn rewindable_mark_and_rewind_to() {
        let mut uf = RewindableUnionFind::new(10);
        uf.union(0, 1);
        let mark = uf.mark();
        for i in 1..9 {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.num_sets(), 1);
        assert_eq!(uf.largest_set_size(), 10);
        uf.rewind_to(mark);
        assert_eq!(uf.num_sets(), 9);
        assert!(uf.connected(0, 1));
        assert!(!uf.connected(1, 2));
        assert_eq!(uf.largest_set_size(), 2);
        uf.rewind_to(0);
        assert_eq!(uf.num_sets(), 10);
        assert_eq!(uf.largest_set_size(), 1);
        assert_eq!(uf.sizes_descending(), vec![1; 10]);
    }

    #[test]
    fn rewindable_min_of_set_is_canonical() {
        let mut uf = RewindableUnionFind::new(8);
        uf.union(7, 5);
        uf.union(5, 2);
        uf.union(6, 4);
        assert_eq!(uf.min_of_set(7), 2);
        assert_eq!(uf.min_of_set(2), 2);
        assert_eq!(uf.min_of_set(6), 4);
        assert_eq!(uf.min_of_set(0), 0);
        uf.undo(); // unlink {6, 4}
        assert_eq!(uf.min_of_set(6), 6);
        uf.undo(); // back to {7, 5} only
        assert_eq!(uf.min_of_set(7), 5);
        assert_eq!(uf.min_of_set(2), 2);
    }

    #[test]
    fn rewindable_sizes_descending_tracks_multiset() {
        let mut uf = RewindableUnionFind::new(7);
        uf.union(0, 1);
        uf.union(1, 2);
        uf.union(3, 4);
        assert_eq!(uf.sizes_descending(), vec![3, 2, 1, 1]);
        assert_eq!(uf.set_size(2), 3);
        assert_eq!(uf.set_size(5), 1);
        uf.rewind_to(2);
        assert_eq!(uf.sizes_descending(), vec![3, 1, 1, 1, 1]);
    }

    #[test]
    fn rewindable_empty_universe() {
        let mut uf = RewindableUnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.num_sets(), 0);
        assert_eq!(uf.largest_set_size(), 0);
        assert_eq!(uf.sizes_descending(), Vec::<u64>::new());
        assert!(!uf.undo());
        uf.rewind_to(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rewindable_find_out_of_range_panics() {
        let uf = RewindableUnionFind::new(3);
        let _ = uf.find(3);
    }

    #[test]
    #[should_panic(expected = "beyond the undo log")]
    fn rewindable_rewind_past_log_panics() {
        let mut uf = RewindableUnionFind::new(3);
        uf.union(0, 1);
        uf.rewind_to(2);
    }

    #[test]
    fn atomic_concurrent_unions_agree_with_sequential() {
        // A ladder of unions split across threads must produce the same
        // partition (and the same canonical min-roots) as the sequential
        // structure fed every union.
        let n = 512;
        let pairs: Vec<(usize, usize)> = (0..n - 1)
            .filter(|i| i % 7 != 0)
            .map(|i| (i, i + 1))
            .collect();
        let atomic = AtomicUnionFind::new(n);
        std::thread::scope(|scope| {
            for chunk in pairs.chunks(pairs.len().div_ceil(4)) {
                let atomic = &atomic;
                scope.spawn(move || {
                    for &(a, b) in chunk {
                        atomic.union(a, b);
                    }
                });
            }
        });
        let mut sequential = UnionFind::new(n);
        for &(a, b) in &pairs {
            sequential.union(a, b);
        }
        for v in 0..n {
            // The atomic root is canonical (the set minimum); compare
            // partitions by mapping the sequential roots through their minima.
            let atomic_root = atomic.find(v);
            assert_eq!(atomic_root, atomic.find(atomic_root), "root is stable");
            assert!(atomic_root <= v, "roots are set minima");
            for w in [0, v / 2, n - 1] {
                assert_eq!(
                    atomic.same_set(v, w),
                    sequential.connected(v, w),
                    "partition diverged at ({v}, {w})"
                );
            }
        }
    }
}

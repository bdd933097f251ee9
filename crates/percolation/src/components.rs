//! Connected-component census of a percolation instance.
//!
//! The paper conditions every routing-complexity statement on the existence
//! of a giant component (`Θ(|V|)` vertices) and on the two endpoints lying in
//! it. This module computes exact component structure for a given instance:
//! the giant fraction, the component of a vertex, and the component size
//! distribution.
//!
//! # Canonical labels and the parallel engine
//!
//! Component labels are *canonical*: the label of a component is the
//! smallest vertex id it contains. Canonical labels are a pure function of
//! the instance's partition — independent of edge iteration order, union
//! order, or thread scheduling — which is what makes
//! [`ComponentCensus::compute_parallel`] **bit-identical** to the sequential
//! [`ComponentCensus::compute`] on every public accessor: both describe the
//! same partition with the same labels, so every derived quantity (giant
//! fraction, size distribution, `same_component`, …) agrees exactly, for
//! every thread count. The zoo-wide property suite in
//! `tests/census_equivalence.rs` asserts this accessor for accessor.

use std::collections::HashMap;
use std::ops::ControlFlow;

use faultnet_topology::{EdgeId, Topology, VertexId};

use crate::sample::EdgeStates;
use crate::union_find::{AtomicUnionFind, UnionFind};

/// The result of a full component census over one percolation instance.
#[derive(Debug, Clone)]
pub struct ComponentCensus {
    /// Canonical component label (smallest member vertex id) per vertex,
    /// indexed by vertex id.
    component_of: Vec<u64>,
    /// Sizes keyed by canonical component label.
    sizes: HashMap<u64, u64>,
    num_vertices: u64,
}

impl ComponentCensus {
    /// Computes the components of `graph` under the edge states `states`.
    ///
    /// Runs in `O(|V| + |E| α(|V|))` time and `O(|V|)` memory, so it is meant
    /// for graphs whose vertex set fits comfortably in memory (everything the
    /// experiments use; the largest hypercubes have ~10⁶ vertices).
    pub fn compute<T: Topology + ?Sized, S: EdgeStates>(graph: &T, states: &S) -> Self {
        let _span = faultnet_obs::span("census.compute");
        let n = graph.num_vertices();
        let mut uf = UnionFind::new(n as usize);
        // Instrumentation accumulates in locals — one obs call per census,
        // not one per edge, so the disabled cost is a single relaxed load.
        let mut edges_scanned = 0u64;
        let mut unions = 0u64;
        graph.for_each_edge(&mut |e| {
            edges_scanned += 1;
            if states.is_open(e) {
                unions += 1;
                uf.union(e.lo().0 as usize, e.hi().0 as usize);
            }
        });
        faultnet_obs::count("census.edges_scanned", edges_scanned);
        faultnet_obs::count("census.unions", unions);
        // Canonicalise: the first vertex (in ascending id order) seen with a
        // given union-find root is the smallest member of that component, so
        // it becomes the component's label. Roots are dense indices `< n`,
        // so the root → label table is a Vec (sentinel = unseen), keeping
        // the per-vertex fold hash-free on this hot path.
        let mut canonical: Vec<u64> = vec![u64::MAX; n as usize];
        let mut component_of = Vec::with_capacity(n as usize);
        let mut sizes: HashMap<u64, u64> = HashMap::new();
        for v in 0..n {
            let root = uf.find(v as usize);
            if canonical[root] == u64::MAX {
                canonical[root] = v;
            }
            let label = canonical[root];
            component_of.push(label);
            *sizes.entry(label).or_insert(0) += 1;
        }
        ComponentCensus {
            component_of,
            sizes,
            num_vertices: n,
        }
    }

    /// Computes the same census as [`ComponentCensus::compute`], fanning the
    /// edge scan across up to `threads` worker threads over one shared
    /// lock-free [`AtomicUnionFind`].
    ///
    /// The vertex range is split into contiguous chunks, one scan per
    /// worker; every worker unions the open edges it owns (edges are owned
    /// by their lower endpoint) into the shared structure. Because the
    /// concurrent unions always link the larger root under the smaller one,
    /// the surviving root of every tree is the component's minimum vertex —
    /// exactly the canonical label the sequential pass assigns — so the
    /// result is **bit-identical** to `compute` for every thread count and
    /// every interleaving: same labels, same sizes, same everything.
    ///
    /// `threads <= 1` (or a graph too small / too large for the concurrent
    /// engine — fewer than two vertices, or more than `u32::MAX`) runs the
    /// sequential pass directly.
    ///
    /// # Examples
    ///
    /// ```
    /// use faultnet_percolation::components::ComponentCensus;
    /// use faultnet_percolation::PercolationConfig;
    /// use faultnet_topology::hypercube::Hypercube;
    ///
    /// let cube = Hypercube::new(8);
    /// let sampler = PercolationConfig::new(0.4, 7).sampler();
    /// let sequential = ComponentCensus::compute(&cube, &sampler);
    /// let parallel = ComponentCensus::compute_parallel(&cube, &sampler, 4);
    /// assert_eq!(
    ///     sequential.sizes_descending(),
    ///     parallel.sizes_descending()
    /// );
    /// ```
    pub fn compute_parallel<T, S>(graph: &T, states: &S, threads: usize) -> Self
    where
        T: Topology + Sync + ?Sized,
        S: EdgeStates + Sync,
    {
        let n = graph.num_vertices();
        let threads = threads.min(n as usize);
        if threads <= 1 || n < 2 || n > u32::MAX as u64 {
            return Self::compute(graph, states);
        }
        let _span = faultnet_obs::span("census.compute_parallel");
        let uf = AtomicUnionFind::new(n as usize);
        let chunk = n.div_ceil(threads as u64);
        std::thread::scope(|scope| {
            for t in 0..threads as u64 {
                let lo = t * chunk;
                let hi = ((t + 1) * chunk).min(n);
                let uf = &uf;
                scope.spawn(move || {
                    let mut unions = 0u64;
                    for v in lo..hi {
                        let v = VertexId(v);
                        let _ = graph.for_each_neighbor(v, &mut |w| {
                            if v.0 < w.0 && states.is_open(EdgeId::new(v, w)) {
                                unions += 1;
                                uf.union(v.0 as usize, w.0 as usize);
                            }
                            ControlFlow::Continue(())
                        });
                    }
                    faultnet_obs::count("census.unions", unions);
                    // Scoped-thread TLS destructors may run after the scope
                    // returns; flush explicitly so no counts are stranded.
                    faultnet_obs::flush_thread();
                });
            }
        });
        // Roots of the atomic structure are already the canonical minima, so
        // the fold needs no relabeling map.
        let mut component_of = Vec::with_capacity(n as usize);
        let mut sizes: HashMap<u64, u64> = HashMap::new();
        for v in 0..n {
            let label = uf.find(v as usize) as u64;
            component_of.push(label);
            *sizes.entry(label).or_insert(0) += 1;
        }
        ComponentCensus {
            component_of,
            sizes,
            num_vertices: n,
        }
    }

    /// Number of vertices of the underlying graph.
    pub fn num_vertices(&self) -> u64 {
        self.num_vertices
    }

    /// Number of connected components (isolated vertices count).
    pub fn num_components(&self) -> usize {
        self.sizes.len()
    }

    /// The canonical label of the component containing `v` (the smallest
    /// vertex id in that component).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn component_of(&self, v: VertexId) -> u64 {
        self.component_of[v.0 as usize]
    }

    /// Returns `true` if `u` and `v` lie in the same component.
    pub fn same_component(&self, u: VertexId, v: VertexId) -> bool {
        self.component_of(u) == self.component_of(v)
    }

    /// Size of the component containing `v`.
    pub fn component_size(&self, v: VertexId) -> u64 {
        self.sizes[&self.component_of(v)]
    }

    /// Size of the largest component.
    pub fn largest_component_size(&self) -> u64 {
        self.sizes.values().copied().max().unwrap_or(0)
    }

    /// Fraction of all vertices lying in the largest component (0 for the
    /// empty graph, which has no components at all).
    pub fn giant_fraction(&self) -> f64 {
        if self.num_vertices == 0 {
            return 0.0;
        }
        self.largest_component_size() as f64 / self.num_vertices as f64
    }

    /// Returns `true` if `v` lies in (one of) the largest component(s).
    pub fn in_giant(&self, v: VertexId) -> bool {
        self.component_size(v) == self.largest_component_size()
    }

    /// The component sizes in descending order.
    pub fn sizes_descending(&self) -> Vec<u64> {
        let mut sizes: Vec<u64> = self.sizes.values().copied().collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        sizes
    }

    /// Size of the second largest component (0 if there is only one).
    ///
    /// The ratio between the largest and second largest component is the
    /// standard finite-size diagnostic for "a giant component exists".
    pub fn second_largest_component_size(&self) -> u64 {
        let sizes = self.sizes_descending();
        sizes.get(1).copied().unwrap_or(0)
    }

    /// All vertices of the largest component (ties broken by smallest label).
    pub fn giant_component_vertices(&self) -> Vec<VertexId> {
        let largest = self.largest_component_size();
        let label = self
            .sizes
            .iter()
            .filter(|(_, &s)| s == largest)
            .map(|(&l, _)| l)
            .min()
            .unwrap_or(0);
        (0..self.num_vertices)
            .filter(|&v| self.component_of[v as usize] == label)
            .map(VertexId)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::FrozenSample;
    use crate::PercolationConfig;
    use faultnet_topology::{hypercube::Hypercube, mesh::Mesh, EdgeId};

    #[test]
    fn fully_open_graph_is_one_component() {
        let cube = Hypercube::new(6);
        let sampler = PercolationConfig::new(1.0, 0).sampler();
        let census = ComponentCensus::compute(&cube, &sampler);
        assert_eq!(census.num_components(), 1);
        assert_eq!(census.largest_component_size(), 64);
        assert_eq!(census.giant_fraction(), 1.0);
        assert_eq!(census.second_largest_component_size(), 0);
        assert!(census.in_giant(VertexId(17)));
    }

    #[test]
    fn fully_closed_graph_is_all_singletons() {
        let mesh = Mesh::new(2, 5);
        let sampler = PercolationConfig::new(0.0, 0).sampler();
        let census = ComponentCensus::compute(&mesh, &sampler);
        assert_eq!(census.num_components(), 25);
        assert_eq!(census.largest_component_size(), 1);
        assert!((census.giant_fraction() - 1.0 / 25.0).abs() < 1e-12);
    }

    #[test]
    fn hand_built_components() {
        // Path graph 0-1-2-3-4 with only edges {0,1} and {3,4} open.
        let mesh = Mesh::new(1, 5);
        let mut sample = FrozenSample::new();
        sample.open_edge(EdgeId::new(VertexId(0), VertexId(1)));
        sample.open_edge(EdgeId::new(VertexId(3), VertexId(4)));
        let census = ComponentCensus::compute(&mesh, &sample);
        assert_eq!(census.num_components(), 3);
        assert!(census.same_component(VertexId(0), VertexId(1)));
        assert!(census.same_component(VertexId(3), VertexId(4)));
        assert!(!census.same_component(VertexId(1), VertexId(3)));
        assert_eq!(census.component_size(VertexId(2)), 1);
        assert_eq!(census.sizes_descending(), vec![2, 2, 1]);
        assert_eq!(census.second_largest_component_size(), 2);
    }

    #[test]
    fn giant_component_vertices_are_consistent() {
        let cube = Hypercube::new(8);
        let sampler = PercolationConfig::new(0.7, 21).sampler();
        let census = ComponentCensus::compute(&cube, &sampler);
        let giant = census.giant_component_vertices();
        assert_eq!(giant.len() as u64, census.largest_component_size());
        for v in giant.iter().take(50) {
            assert!(census.in_giant(*v));
        }
    }

    #[test]
    fn supercritical_hypercube_has_a_giant_component() {
        // p = 0.5 is far above the 1/n connectivity-of-giant threshold for n = 10.
        let cube = Hypercube::new(10);
        let sampler = PercolationConfig::new(0.5, 3).sampler();
        let census = ComponentCensus::compute(&cube, &sampler);
        assert!(
            census.giant_fraction() > 0.5,
            "giant fraction {}",
            census.giant_fraction()
        );
    }

    #[test]
    fn empty_graph_census_is_well_defined() {
        // Zero vertices: no components, no sizes, a 0.0 (not NaN) giant
        // fraction, and no giant vertices.
        use faultnet_topology::explicit::ExplicitGraph;
        let empty = ExplicitGraph::new(0);
        let census = ComponentCensus::compute(&empty, &FrozenSample::new());
        assert_eq!(census.num_vertices(), 0);
        assert_eq!(census.num_components(), 0);
        assert_eq!(census.largest_component_size(), 0);
        assert_eq!(census.giant_fraction(), 0.0, "0/0 must not be NaN");
        assert_eq!(census.sizes_descending(), Vec::<u64>::new());
        assert_eq!(census.second_largest_component_size(), 0);
        assert!(census.giant_component_vertices().is_empty());
        let parallel = ComponentCensus::compute_parallel(&empty, &FrozenSample::new(), 4);
        assert_eq!(parallel.num_components(), 0);
        assert_eq!(parallel.giant_fraction(), 0.0);
    }

    #[test]
    fn single_vertex_graph_census() {
        use faultnet_topology::explicit::ExplicitGraph;
        let one = ExplicitGraph::new(1);
        let census = ComponentCensus::compute(&one, &FrozenSample::new());
        assert_eq!(census.num_components(), 1);
        assert_eq!(census.largest_component_size(), 1);
        assert_eq!(census.giant_fraction(), 1.0);
        assert_eq!(census.sizes_descending(), vec![1]);
        assert_eq!(census.second_largest_component_size(), 0);
        assert_eq!(census.giant_component_vertices(), vec![VertexId(0)]);
        assert!(census.in_giant(VertexId(0)));
    }

    #[test]
    fn all_closed_instance_sizes_are_all_ones() {
        let cube = Hypercube::new(4);
        let sampler = PercolationConfig::new(0.0, 0).sampler();
        let census = ComponentCensus::compute(&cube, &sampler);
        assert_eq!(census.num_components(), 16);
        assert_eq!(census.sizes_descending(), vec![1; 16]);
        assert_eq!(census.second_largest_component_size(), 1);
        // Every vertex is its own canonical label.
        for v in 0..16 {
            assert_eq!(census.component_of(VertexId(v)), v);
        }
    }

    #[test]
    fn labels_are_canonical_component_minima() {
        let cube = Hypercube::new(7);
        let sampler = PercolationConfig::new(0.3, 5).sampler();
        let census = ComponentCensus::compute(&cube, &sampler);
        for v in 0..cube.num_vertices() {
            let label = census.component_of(VertexId(v));
            assert!(label <= v, "label {label} exceeds member {v}");
            assert_eq!(
                census.component_of(VertexId(label)),
                label,
                "a component's label must be one of its own members"
            );
        }
    }

    #[test]
    fn parallel_census_matches_sequential_on_labels_and_sizes() {
        let cube = Hypercube::new(9);
        for seed in [0u64, 3, 11] {
            let sampler = PercolationConfig::new(0.35, seed).sampler();
            let sequential = ComponentCensus::compute(&cube, &sampler);
            for threads in [2usize, 4, 8] {
                let parallel = ComponentCensus::compute_parallel(&cube, &sampler, threads);
                assert_eq!(
                    sequential.sizes_descending(),
                    parallel.sizes_descending(),
                    "seed {seed}, threads {threads}"
                );
                for v in 0..cube.num_vertices() {
                    assert_eq!(
                        sequential.component_of(VertexId(v)),
                        parallel.component_of(VertexId(v)),
                        "seed {seed}, threads {threads}, vertex {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn subcritical_hypercube_fragments() {
        // p well below 1/n: only tiny components.
        let cube = Hypercube::new(10);
        let sampler = PercolationConfig::new(0.02, 3).sampler();
        let census = ComponentCensus::compute(&cube, &sampler);
        assert!(
            census.giant_fraction() < 0.05,
            "giant fraction {}",
            census.giant_fraction()
        );
    }
}

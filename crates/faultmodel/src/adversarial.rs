//! Adversarial (non-benign) fault placement under a budget.

use std::collections::{HashMap, HashSet, VecDeque};

use faultnet_percolation::PercolationConfig;
use faultnet_topology::{EdgeId, Topology, VertexId};

use crate::{FaultInstance, FaultModel, PairPlacement};

/// An adversary that severs a budget of `k` edges, placed greedily on
/// cut-heavy positions near the routed source–target pair.
///
/// The non-benign counterpart of the paper's benign random faults (cf.
/// Lenzen et al., arXiv:2307.05547: faults placed by an adversary rather
/// than by nature). The placement is worst-case, so it is *seed-independent*
/// — a pure function of `(graph, pair, budget)`: the adversary repeatedly
/// finds a shortest fault-free `u`–`v` path avoiding its previous cuts and
/// severs the path edge at the endpoint whose surviving incident-edge count
/// is smaller (the cheaper side of the eventual cut; ties go to the source,
/// matching the Lemma 5 intuition that the minimum cut around an endpoint is
/// its degree). With `budget ≥ min(deg u, deg v)` the pair is fully
/// disconnected and Definition 2's conditioning discards every trial.
///
/// Randomness enters only through the *background* Bernoulli edge faults at
/// retention `config.p()` (the same lazy sampler as
/// [`crate::BernoulliEdges`]), layered under the severed set — at `p = 1`
/// the instance is purely the adversary's cuts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdversarialBudget {
    /// Number of edges the adversary may sever.
    pub budget: u32,
}

impl AdversarialBudget {
    /// Creates an adversary with the given edge budget.
    pub fn new(budget: u32) -> Self {
        AdversarialBudget { budget }
    }

    /// Computes the severed-edge set for `pair` on `graph` — exposed so
    /// tests and experiments can inspect the placement directly.
    pub fn severed_edges(
        &self,
        graph: &dyn Topology,
        pair: (VertexId, VertexId),
    ) -> HashSet<EdgeId> {
        let (u, v) = pair;
        let mut severed: HashSet<EdgeId> = HashSet::new();
        for _ in 0..self.budget {
            let Some(path) = shortest_path_avoiding(graph, &severed, u, v) else {
                break; // already disconnected; remaining budget is wasted
            };
            if path.len() < 2 {
                break; // u == v: nothing to sever
            }
            let u_cut = surviving_degree(graph, &severed, u);
            let v_cut = surviving_degree(graph, &severed, v);
            let edge = if u_cut <= v_cut {
                EdgeId::new(path[0], path[1])
            } else {
                EdgeId::new(path[path.len() - 2], path[path.len() - 1])
            };
            severed.insert(edge);
        }
        severed
    }
}

impl Default for AdversarialBudget {
    /// Budget 3: on every family in the zoo this bites (the mesh interior
    /// has degree 4, the canonical mesh pairs degree ≥ 2) without
    /// disconnecting supercritical instances outright.
    fn default() -> Self {
        AdversarialBudget::new(3)
    }
}

/// Open incident-edge count of `v` given the adversary's cuts so far.
fn surviving_degree(graph: &dyn Topology, severed: &HashSet<EdgeId>, v: VertexId) -> usize {
    graph
        .incident_edges(v)
        .into_iter()
        .filter(|e| !severed.contains(e))
        .count()
}

/// Deterministic BFS shortest path from `u` to `v` on the fault-free graph
/// minus `severed`, inclusive of both endpoints. Neighbor order (and thus
/// tie-breaking) is the topology's deterministic `neighbors` order.
fn shortest_path_avoiding(
    graph: &dyn Topology,
    severed: &HashSet<EdgeId>,
    u: VertexId,
    v: VertexId,
) -> Option<Vec<VertexId>> {
    if u == v {
        return Some(vec![u]);
    }
    let mut parent: HashMap<VertexId, VertexId> = HashMap::new();
    let mut queue = VecDeque::new();
    parent.insert(u, u);
    queue.push_back(u);
    while let Some(x) = queue.pop_front() {
        for w in graph.neighbors(x) {
            if parent.contains_key(&w) || severed.contains(&EdgeId::new(x, w)) {
                continue;
            }
            parent.insert(w, x);
            if w == v {
                let mut path = vec![v];
                let mut cur = v;
                while cur != u {
                    cur = parent[&cur];
                    path.push(cur);
                }
                path.reverse();
                return Some(path);
            }
            queue.push_back(w);
        }
    }
    None
}

impl FaultModel for AdversarialBudget {
    fn name(&self) -> String {
        format!("adversarial-budget(k={})", self.budget)
    }

    fn instance(
        &self,
        graph: &dyn Topology,
        config: PercolationConfig,
        pair: Option<(VertexId, VertexId)>,
    ) -> FaultInstance {
        let pair = pair.unwrap_or_else(|| graph.canonical_pair());
        FaultInstance::from_sampler(config.sampler())
            .with_severed_edges(self.severed_edges(graph, pair))
    }

    /// The greedy cut placement is seed-independent — a pure function of
    /// `(graph, pair, budget)` — so it is exactly the work a measurement
    /// loop should hoist: the harness computes it once per measurement and
    /// rebuilds only the Bernoulli background per trial.
    fn pair_placement(&self, graph: &dyn Topology, pair: (VertexId, VertexId)) -> PairPlacement {
        PairPlacement::SeveredEdges(self.severed_edges(graph, pair))
    }

    /// The adversarial column stays on the scalar engine. Its placement is
    /// seed-independent, so packing it into lanes would be *possible* — but
    /// the worst-case column is precisely the reference the trial-batched
    /// engine is validated against, so it deliberately opts out: the trial
    /// loop runs it scalar and the property suite asserts the results are
    /// untouched.
    fn lane_batchable(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultnet_percolation::bfs::connected;
    use faultnet_percolation::sample::EdgeStates;
    use faultnet_topology::hypercube::Hypercube;
    use faultnet_topology::mesh::Mesh;

    #[test]
    fn adversary_spends_its_budget_on_real_edges() {
        let cube = Hypercube::new(6);
        let (u, v) = cube.canonical_pair();
        let severed = AdversarialBudget::new(4).severed_edges(&cube, (u, v));
        assert_eq!(severed.len(), 4);
        for e in &severed {
            assert!(cube.has_edge(e.lo(), e.hi()), "{e} is not a real edge");
        }
    }

    #[test]
    fn budget_at_least_degree_disconnects_the_pair() {
        let cube = Hypercube::new(5);
        let (u, v) = cube.canonical_pair();
        let model = AdversarialBudget::new(5); // deg(u) = 5
        let instance = model.instance(&cube, PercolationConfig::new(1.0, 1), Some((u, v)));
        assert!(!connected(&cube, &instance, u, v));
        // The greedy cut concentrates on one endpoint's star: severing
        // deg(u) edges must not waste cuts elsewhere.
        let severed = model.severed_edges(&cube, (u, v));
        assert!(severed.iter().all(|e| e.touches(u)) || severed.iter().all(|e| e.touches(v)));
    }

    #[test]
    fn placement_is_seed_independent_but_background_is_not() {
        let mesh = Mesh::new(2, 10);
        let (u, v) = mesh.canonical_pair();
        let model = AdversarialBudget::new(2);
        let a = model.instance(&mesh, PercolationConfig::new(0.8, 1), Some((u, v)));
        let b = model.instance(&mesh, PercolationConfig::new(0.8, 2), Some((u, v)));
        assert_eq!(a.severed_edges(), b.severed_edges());
        let background_differs = mesh.edges().iter().any(|e| a.is_open(*e) != b.is_open(*e));
        assert!(background_differs, "background faults ignored the seed");
    }

    #[test]
    fn missing_pair_falls_back_to_the_canonical_pair() {
        let cube = Hypercube::new(4);
        let model = AdversarialBudget::new(2);
        let implicit = model.instance(&cube, PercolationConfig::new(1.0, 0), None);
        let explicit = model.instance(
            &cube,
            PercolationConfig::new(1.0, 0),
            Some(cube.canonical_pair()),
        );
        assert_eq!(implicit.severed_edges(), explicit.severed_edges());
    }

    #[test]
    fn zero_budget_is_pure_bernoulli() {
        let cube = Hypercube::new(5);
        let cfg = PercolationConfig::new(0.5, 13);
        let instance = AdversarialBudget::new(0).instance(&cube, cfg, None);
        let sampler = cfg.sampler();
        for e in cube.edges() {
            assert_eq!(instance.is_open(e), sampler.is_open(e));
        }
    }

    #[test]
    fn name_carries_the_budget() {
        assert_eq!(AdversarialBudget::new(7).name(), "adversarial-budget(k=7)");
    }

    #[test]
    fn cached_placement_reproduces_the_per_trial_instance() {
        // The placement-cache contract: an instance rebuilt from the hoisted
        // placement is edge-for-edge the instance computed from scratch, for
        // every seed the measurement loop will use.
        let mesh = Mesh::new(2, 8);
        let pair = mesh.canonical_pair();
        let model = AdversarialBudget::new(3);
        let placement = model.pair_placement(&mesh, pair);
        assert_eq!(
            placement,
            PairPlacement::SeveredEdges(model.severed_edges(&mesh, pair))
        );
        for seed in 0..8u64 {
            let cfg = PercolationConfig::new(0.7, seed);
            let cached = model.instance_from_placement(&placement, &mesh, cfg, pair);
            let fresh = model.instance(&mesh, cfg, Some(pair));
            for e in mesh.edges() {
                assert_eq!(cached.is_open(e), fresh.is_open(e), "seed {seed}, edge {e}");
            }
        }
    }
}

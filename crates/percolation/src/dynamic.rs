//! Dynamic fault churn: fail/repair event streams over a percolation
//! instance, and an *incremental* component census that tracks them.
//!
//! The paper's model is static — sample faults once, then route — but its
//! motivating scenario (large networks where faults simply happen) is
//! temporal: links fail and are repaired while the network keeps operating.
//! This module adds that dimension without disturbing the static substrate:
//!
//! * [`ChurnEvent`] / [`ChurnSchedule`] — a replayable event stream: per
//!   timestep, an ordered list of edge failures and repairs. Schedules can
//!   be built explicitly (tests, traces) or generated.
//! * [`ChurnProcess`] — the deterministic, seed-derived generator:
//!   fail-stop-with-repair dynamics where every *open* edge fails with
//!   per-step probability `fail_rate` and every *closed* edge is repaired
//!   with probability `repair_rate`, plus an optional heterogeneity knob
//!   giving each edge its own survival rate. Like the static
//!   [`crate::sample::EdgeSampler`], every draw is a pure function of
//!   `(seed, edge, timestep)`, so a schedule is exactly reproducible.
//! * [`IncrementalCensus`] — the consumer: a component census over the
//!   *current* open-edge set that ingests a timestep of events in
//!   ~O(k·α) unions for `k` repairs and O(undo + replay) for failures via
//!   [`RewindableUnionFind`], instead of an O(E) from-scratch rescan. Its
//!   public accessors mirror [`ComponentCensus`] and are **bit-identical**
//!   to a from-scratch census of the same open-edge set at every timestep —
//!   same canonical min-vertex labels, same sizes, same giant fraction —
//!   which the zoo-wide differential suite in `tests/churn_equivalence.rs`
//!   asserts accessor for accessor.
//!
//! # Cost model, honestly
//!
//! Union–find does not support true deletions; the incremental census
//! simulates them by rewinding its undo log to just before the *earliest*
//! failed edge was applied and replaying the surviving suffix. Repairs and
//! failures of recently applied edges are therefore near-free, while
//! failing a very old edge would cost a deep rewind *plus* a near-full
//! replay. [`IncrementalCensus::step`] finds the rewind depth by walking
//! the log down from the top, and past the crossover pinned by
//! [`IncrementalCensus::should_rebuild`] (`2 · suffix > survivors`) it
//! rebuilds instead: it drops the failed edges from the application-ordered
//! edge list in place and unions the survivors into a fresh structure. A
//! rebuild is about one rescan's worth of unions, so it is not free, but
//! it walks an already-materialised edge list where a rescan enumerates
//! every neighbourhood and queries every edge state. On `H_14` at `p = 0.6`, a
//! step of E12's uniform 4% churn (which always rebuilds) took 11.5–11.8 ms
//! against 13.7–15.1 ms for a from-scratch rescan of the same state, and a
//! sparse step on a few flaky links took 6.0–6.3 µs (perfbench
//! `churn_walk`: `step_tail_ms`, `percolation.dynamic.rescan_ms` and
//! `step_p50_ms`; 2-core VM). The `census/incremental_vs_rescan` bench
//! group records both regimes against mirrored rescans.

use std::collections::{HashMap, HashSet};

use faultnet_topology::{EdgeId, Topology, VertexId};

use crate::components::ComponentCensus;
use crate::sample::{mix64, EdgeStates};
use crate::union_find::RewindableUnionFind;

/// What happened to an edge: it failed (closed) or was repaired (opened).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// The edge fails: it is closed from this timestep on.
    Fail,
    /// The edge is repaired: it is open from this timestep on.
    Repair,
}

/// One churn event: an edge changing state at some timestep.
///
/// Events are idempotent in effect — failing an already-closed edge or
/// repairing an already-open one changes nothing — so schedules with
/// repeated or contradictory events are well-defined: within a timestep the
/// *last* event for an edge wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChurnEvent {
    /// The edge changing state. Must be an edge of the graph the schedule
    /// is applied to.
    pub edge: EdgeId,
    /// Whether the edge fails or is repaired.
    pub kind: EventKind,
}

impl ChurnEvent {
    /// A failure event for `edge`.
    pub fn fail(edge: EdgeId) -> Self {
        ChurnEvent {
            edge,
            kind: EventKind::Fail,
        }
    }

    /// A repair event for `edge`.
    pub fn repair(edge: EdgeId) -> Self {
        ChurnEvent {
            edge,
            kind: EventKind::Repair,
        }
    }
}

/// A replayable fail/repair event stream: one ordered event list per
/// timestep (timesteps may be empty — the network can sit still).
///
/// # Examples
///
/// ```
/// use faultnet_percolation::dynamic::{ChurnEvent, ChurnSchedule};
/// use faultnet_topology::{EdgeId, VertexId};
///
/// let e = EdgeId::new(VertexId(0), VertexId(1));
/// let schedule = ChurnSchedule::from_events(vec![
///     vec![ChurnEvent::fail(e)],
///     vec![],
///     vec![ChurnEvent::repair(e)],
/// ]);
/// assert_eq!(schedule.num_timesteps(), 3);
/// assert_eq!(schedule.total_events(), 2);
/// assert!(schedule.timestep(1).is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChurnSchedule {
    timesteps: Vec<Vec<ChurnEvent>>,
}

impl ChurnSchedule {
    /// Builds a schedule from explicit per-timestep event lists.
    pub fn from_events(timesteps: Vec<Vec<ChurnEvent>>) -> Self {
        ChurnSchedule { timesteps }
    }

    /// Number of timesteps (including empty ones).
    pub fn num_timesteps(&self) -> usize {
        self.timesteps.len()
    }

    /// The events of timestep `t`, in order.
    ///
    /// # Panics
    ///
    /// Panics if `t >= num_timesteps()`.
    pub fn timestep(&self, t: usize) -> &[ChurnEvent] {
        &self.timesteps[t]
    }

    /// Iterator over the timesteps, each an ordered event slice.
    pub fn iter(&self) -> impl Iterator<Item = &[ChurnEvent]> {
        self.timesteps.iter().map(Vec::as_slice)
    }

    /// Total number of events across all timesteps.
    pub fn total_events(&self) -> usize {
        self.timesteps.iter().map(Vec::len).sum()
    }
}

/// The deterministic fail-stop-with-repair churn generator.
///
/// At every timestep each currently-*open* edge fails with probability
/// `fail_rate` and each currently-*closed* edge is repaired with probability
/// `repair_rate`, independently across edges and timesteps. Every draw is a
/// pure function of `(seed, edge, timestep)` through the same SplitMix64
/// mixer as the static sampler, so two calls to
/// [`ChurnProcess::schedule`] with the same inputs yield identical
/// schedules.
///
/// With both rates positive the open fraction converges to the stationary
/// value `repair_rate / (fail_rate + repair_rate)` regardless of the
/// initial instance.
///
/// # Heterogeneous survival
///
/// `heterogeneity` in `[0, 1]` gives every edge its own failure rate: edge
/// `e` fails at `fail_rate · (1 + heterogeneity · (2u_e − 1))`, where
/// `u_e ∈ [0, 1)` is a fixed per-edge uniform drawn from the seed. At 0 the
/// process is homogeneous fail-stop-with-repair; at 1 per-edge rates spread
/// over `[0, 2 · fail_rate]` (clamped to `[0, 1]`), modelling links of
/// heterogeneous quality. Repairs stay homogeneous — a repair crew does not
/// care how flaky the link is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnProcess {
    fail_rate: f64,
    repair_rate: f64,
    heterogeneity: f64,
    seed: u64,
}

impl ChurnProcess {
    /// Creates a homogeneous process with the given per-step rates.
    ///
    /// # Panics
    ///
    /// Panics if either rate is not a finite number in `[0, 1]`.
    pub fn new(fail_rate: f64, repair_rate: f64, seed: u64) -> Self {
        assert!(
            fail_rate.is_finite() && (0.0..=1.0).contains(&fail_rate),
            "fail rate must lie in [0, 1], got {fail_rate}"
        );
        assert!(
            repair_rate.is_finite() && (0.0..=1.0).contains(&repair_rate),
            "repair rate must lie in [0, 1], got {repair_rate}"
        );
        ChurnProcess {
            fail_rate,
            repair_rate,
            heterogeneity: 0.0,
            seed,
        }
    }

    /// Sets the per-edge failure-rate spread (see the type docs).
    ///
    /// # Panics
    ///
    /// Panics if `heterogeneity` is not a finite number in `[0, 1]`.
    #[must_use]
    pub fn with_heterogeneity(mut self, heterogeneity: f64) -> Self {
        assert!(
            heterogeneity.is_finite() && (0.0..=1.0).contains(&heterogeneity),
            "heterogeneity must lie in [0, 1], got {heterogeneity}"
        );
        self.heterogeneity = heterogeneity;
        self
    }

    /// The per-step failure rate of open edges.
    pub fn fail_rate(&self) -> f64 {
        self.fail_rate
    }

    /// The per-step repair rate of closed edges.
    pub fn repair_rate(&self) -> f64 {
        self.repair_rate
    }

    /// The per-edge failure-rate spread in `[0, 1]` (0 = homogeneous).
    pub fn heterogeneity(&self) -> f64 {
        self.heterogeneity
    }

    /// The seed identifying this realisation of the process.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Generates `timesteps` steps of churn over `graph`, starting from the
    /// aliveness given by `initial`. Events within a timestep are emitted in
    /// the graph's canonical [`Topology::edges`] order.
    pub fn schedule<T, S>(&self, graph: &T, initial: &S, timesteps: usize) -> ChurnSchedule
    where
        T: Topology + ?Sized,
        S: EdgeStates + ?Sized,
    {
        let edges = graph.edges();
        let mut alive: Vec<bool> = edges.iter().map(|e| initial.is_open(*e)).collect();
        let fail_rates: Vec<f64> = edges.iter().map(|e| self.edge_fail_rate(*e)).collect();
        let mut out = Vec::with_capacity(timesteps);
        for t in 0..timesteps {
            let mut events = Vec::new();
            for (i, e) in edges.iter().enumerate() {
                let u = self.uniform(*e, t);
                if alive[i] {
                    if u < fail_rates[i] {
                        alive[i] = false;
                        events.push(ChurnEvent::fail(*e));
                    }
                } else if u < self.repair_rate {
                    alive[i] = true;
                    events.push(ChurnEvent::repair(*e));
                }
            }
            out.push(events);
        }
        ChurnSchedule::from_events(out)
    }

    /// The uniform variate in `[0, 1)` deciding `edge`'s transition at
    /// timestep `t` — a pure function of `(seed, edge, t)`.
    fn uniform(&self, edge: EdgeId, t: usize) -> f64 {
        let key = edge.key();
        let lo = key as u64;
        let hi = (key >> 64) as u64;
        let mixed = mix64(
            mix64(
                lo ^ self
                    .seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add((t as u64).wrapping_mul(0xA076_1D64_78BD_642F)),
            ) ^ hi.wrapping_mul(0xD6E8_FEB8_6659_FD93),
        );
        (mixed >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// The per-edge effective failure rate (timestep-independent).
    fn edge_fail_rate(&self, edge: EdgeId) -> f64 {
        if self.heterogeneity == 0.0 {
            return self.fail_rate;
        }
        let key = edge.key();
        let lo = key as u64;
        let hi = (key >> 64) as u64;
        let mixed = mix64(
            mix64(lo ^ self.seed.wrapping_mul(0xE703_7ED1_A0B4_28DB) ^ 0x2545_F491_4F6C_DD1D)
                ^ hi.wrapping_mul(0x8EBC_6AF0_9C88_C6E3),
        );
        let u = (mixed >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        (self.fail_rate * (1.0 + self.heterogeneity * (2.0 * u - 1.0))).clamp(0.0, 1.0)
    }
}

/// Per-step work counters returned by [`IncrementalCensus::step`], for
/// benchmarks and diagnostics (the partition itself carries no trace of
/// them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepStats {
    /// Edges that went open → closed this step (net of the event list).
    pub failed: usize,
    /// Edges that went closed → open this step (net of the event list).
    pub repaired: usize,
    /// Undo-log entries rewound to evict the failed edges.
    pub rewound: usize,
    /// Surviving edges re-applied after the rewind (or, on a rebuild, the
    /// surviving edges unioned into the fresh structure).
    pub replayed: usize,
    /// Whether the step fell back to a from-scratch rebuild because the
    /// rewind would have unwound more of the undo log than rebuilding costs
    /// (see [`IncrementalCensus::should_rebuild`]).
    pub rebuilt: bool,
}

/// A component census over an *evolving* open-edge set.
///
/// Construction performs one full pass (exactly the edge scan of
/// [`ComponentCensus::compute`]); every subsequent
/// [`IncrementalCensus::step`] ingests one timestep of [`ChurnEvent`]s by
/// unioning net-new edges and *rewinding* the [`RewindableUnionFind`] undo
/// log past the earliest net-failed edge, then replaying the surviving
/// suffix — never a from-scratch rescan.
///
/// # Equivalence contract
///
/// After any sequence of steps, every public accessor returns exactly what
/// [`ComponentCensus::compute`] would return for the same graph and the
/// current open-edge set — bit-identically, including canonical min-vertex
/// component labels and the `f64` giant fraction (both engines divide the
/// same two integers). The zoo-wide differential suite in
/// `tests/churn_equivalence.rs` asserts this at every timestep of random
/// schedules; [`IncrementalCensus::rescan`] is the from-scratch reference.
///
/// Events must reference edges of `graph` (the generators only ever emit
/// graph edges; explicit schedules are trusted).
///
/// # Examples
///
/// ```
/// use faultnet_percolation::dynamic::{ChurnEvent, IncrementalCensus};
/// use faultnet_percolation::PercolationConfig;
/// use faultnet_topology::{hypercube::Hypercube, EdgeId, Topology, VertexId};
///
/// let cube = Hypercube::new(4);
/// let sampler = PercolationConfig::new(1.0, 0).sampler();
/// let mut census = IncrementalCensus::new(&cube, &sampler);
/// assert_eq!(census.giant_fraction(), 1.0);
/// let e = EdgeId::new(VertexId(0), VertexId(1));
/// census.step(&[ChurnEvent::fail(e)]);
/// assert_eq!(census.num_components(), 1); // still connected around it
/// assert_eq!(census.rescan(&cube).num_components(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalCensus {
    num_vertices: u64,
    uf: RewindableUnionFind,
    /// The open edges, in application order. Invariant: undo-log position
    /// `i` of `uf` is the state just before `applied[i]` was unioned.
    applied: Vec<EdgeId>,
    /// The members of `applied`; only net fail/repair events touch it.
    open: HashSet<EdgeId>,
}

impl IncrementalCensus {
    /// Builds the census of `graph` under the initial edge states — the
    /// same edge scan (and therefore the same partition) as
    /// [`ComponentCensus::compute`].
    pub fn new<T, S>(graph: &T, states: &S) -> Self
    where
        T: Topology + ?Sized,
        S: EdgeStates + ?Sized,
    {
        let n = graph.num_vertices();
        let mut census = IncrementalCensus {
            num_vertices: n,
            uf: RewindableUnionFind::new(n as usize),
            applied: Vec::new(),
            open: HashSet::new(),
        };
        graph.for_each_edge(&mut |e| {
            if states.is_open(e) {
                census.apply(e);
            }
        });
        census.open = census.applied.iter().copied().collect();
        census
    }

    /// Ingests one timestep of events (in order; for an edge touched
    /// multiple times the last event wins) and updates the partition.
    pub fn step(&mut self, events: &[ChurnEvent]) -> StepStats {
        // Net effect of the timestep per touched edge, first-touch ordered.
        let mut desired: HashMap<EdgeId, bool> = HashMap::new();
        let mut touched: Vec<EdgeId> = Vec::new();
        for event in events {
            if !desired.contains_key(&event.edge) {
                touched.push(event.edge);
            }
            desired.insert(event.edge, event.kind == EventKind::Repair);
        }
        let mut to_remove: HashSet<EdgeId> = HashSet::new();
        let mut to_add: Vec<EdgeId> = Vec::new();
        for edge in touched {
            if desired[&edge] {
                if self.open.insert(edge) {
                    to_add.push(edge);
                }
            } else if self.open.remove(&edge) {
                to_remove.insert(edge);
            }
        }
        let mut stats = StepStats {
            failed: to_remove.len(),
            repaired: to_add.len(),
            ..StepStats::default()
        };
        if !to_remove.is_empty() {
            // The rewind mark is the position of the earliest failed edge:
            // walk the log down from the top until every failed edge has
            // been seen, or until the suffix is already past the rebuild
            // crossover (it can only grow from there).
            let survivors = self.applied.len() - to_remove.len();
            let mut mark = self.applied.len();
            let mut unseen = to_remove.len();
            while unseen > 0 && !Self::should_rebuild(self.applied.len() - mark, survivors) {
                mark -= 1;
                unseen -= usize::from(to_remove.contains(&self.applied[mark]));
            }
            let suffix_len = self.applied.len() - mark;
            if Self::should_rebuild(suffix_len, survivors) {
                // The earliest failed edge sits so deep in the undo log that
                // unwinding to it (and replaying nearly everything) costs
                // more than starting over: rebuild a fresh structure from
                // the surviving edges, in their original application order
                // (so later shallow failures stay shallow).
                stats.rebuilt = true;
                stats.replayed = survivors;
                self.applied.retain(|e| !to_remove.contains(e));
                self.uf = RewindableUnionFind::new(self.num_vertices as usize);
                for edge in &self.applied {
                    self.uf.union(edge.lo().0 as usize, edge.hi().0 as usize);
                }
            } else {
                // Rewind to just before the earliest removed edge was
                // applied, then replay the surviving suffix in its original
                // order.
                stats.rewound = suffix_len;
                self.uf.rewind_to(mark);
                for edge in self.applied.split_off(mark) {
                    if !to_remove.contains(&edge) {
                        self.apply(edge);
                        stats.replayed += 1;
                    }
                }
            }
        }
        for edge in to_add {
            self.apply(edge);
        }
        faultnet_obs::count("churn.steps", 1);
        faultnet_obs::count("churn.failed_edges", stats.failed as u64);
        faultnet_obs::count("churn.repaired_edges", stats.repaired as u64);
        faultnet_obs::count("churn.replayed_unions", stats.replayed as u64);
        faultnet_obs::record("churn.rewind_depth", stats.rewound as u64);
        if stats.rebuilt {
            faultnet_obs::count("churn.rebuild_fallbacks", 1);
        }
        stats
    }

    /// A from-scratch [`ComponentCensus`] of the *current* open-edge set —
    /// the reference this census is differentially tested against.
    pub fn rescan<T: Topology + ?Sized>(&self, graph: &T) -> ComponentCensus {
        let open = crate::sample::FrozenSample::from_open_edges(self.applied.iter().copied());
        ComponentCensus::compute(graph, &open)
    }

    /// Number of vertices of the underlying graph.
    pub fn num_vertices(&self) -> u64 {
        self.num_vertices
    }

    /// Number of currently open edges.
    pub fn num_open_edges(&self) -> usize {
        self.applied.len()
    }

    /// Returns `true` if `edge` is currently open.
    pub fn is_open(&self, edge: EdgeId) -> bool {
        self.open.contains(&edge)
    }

    /// Number of connected components (isolated vertices count).
    pub fn num_components(&self) -> usize {
        self.uf.num_sets()
    }

    /// The canonical label of the component containing `v` (the smallest
    /// vertex id in that component).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn component_of(&self, v: VertexId) -> u64 {
        self.uf.min_of_set(v.0 as usize) as u64
    }

    /// Returns `true` if `u` and `v` lie in the same component.
    pub fn same_component(&self, u: VertexId, v: VertexId) -> bool {
        self.uf.connected(u.0 as usize, v.0 as usize)
    }

    /// Size of the component containing `v`.
    pub fn component_size(&self, v: VertexId) -> u64 {
        self.uf.set_size(v.0 as usize)
    }

    /// Size of the largest component.
    pub fn largest_component_size(&self) -> u64 {
        self.uf.largest_set_size()
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
        self.uf.sizes_descending()
    }

    /// Size of the second largest component (0 if there is only one).
    pub fn second_largest_component_size(&self) -> u64 {
        let sizes = self.sizes_descending();
        sizes.get(1).copied().unwrap_or(0)
    }

    /// All vertices of the largest component (ties broken by smallest
    /// label).
    pub fn giant_component_vertices(&self) -> Vec<VertexId> {
        if self.num_vertices == 0 {
            return Vec::new();
        }
        let largest = self.largest_component_size();
        let label = (0..self.num_vertices)
            .filter(|&v| self.component_size(VertexId(v)) == largest)
            .map(|v| self.component_of(VertexId(v)))
            .min()
            .unwrap_or(0);
        (0..self.num_vertices)
            .filter(|&v| self.component_of(VertexId(v)) == label)
            .map(VertexId)
            .collect()
    }

    /// Decides whether a failure step should rebuild from the surviving
    /// edges instead of rewinding the undo log.
    ///
    /// A rewind step unwinds `suffix_len` undo records and then re-unions
    /// the surviving part of the suffix (≈ `suffix_len` more operations of
    /// the same magnitude), so its cost is ≈ `2 · suffix_len`. A rebuild
    /// applies every surviving edge once (`survivors` unions) plus an O(V)
    /// array reset. The crossover is therefore at `suffix_len ≈
    /// survivors / 2`. E12's uniform churn lands far past it: failures
    /// spread over the whole open set, so the earliest one sits near the
    /// bottom of the log. Such a step rebuilds, and on `H_14` it took
    /// 11.5–11.8 ms against 13.7–15.1 ms for a from-scratch rescan
    /// (perfbench `churn_walk`, 2-core VM). Both paths produce identical
    /// partitions on every public accessor (canonical min-vertex labels),
    /// so this is a pure wall-clock decision; the crossover itself is
    /// pinned by test.
    pub fn should_rebuild(suffix_len: usize, survivors: usize) -> bool {
        2 * suffix_len > survivors
    }

    fn apply(&mut self, edge: EdgeId) {
        self.applied.push(edge);
        self.uf.union(edge.lo().0 as usize, edge.hi().0 as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::FrozenSample;
    use crate::PercolationConfig;
    use faultnet_topology::{hypercube::Hypercube, mesh::Mesh};

    fn edge(a: u64, b: u64) -> EdgeId {
        EdgeId::new(VertexId(a), VertexId(b))
    }

    #[test]
    fn churn_process_is_deterministic() {
        let cube = Hypercube::new(5);
        let initial = PercolationConfig::new(0.5, 3).sampler();
        let process = ChurnProcess::new(0.1, 0.2, 42).with_heterogeneity(0.7);
        let a = process.schedule(&cube, &initial, 8);
        let b = process.schedule(&cube, &initial, 8);
        assert_eq!(a, b);
        assert!(a.total_events() > 0, "rates this high must produce events");
    }

    #[test]
    fn churn_process_zero_rates_is_silent() {
        let cube = Hypercube::new(5);
        let initial = PercolationConfig::new(0.5, 3).sampler();
        let schedule = ChurnProcess::new(0.0, 0.0, 42).schedule(&cube, &initial, 5);
        assert_eq!(schedule.num_timesteps(), 5);
        assert_eq!(schedule.total_events(), 0);
    }

    #[test]
    fn churn_process_respects_aliveness() {
        // Fail events only hit open edges, repair events only closed ones,
        // tracked through the schedule itself.
        let mesh = Mesh::new(2, 6);
        let initial = PercolationConfig::new(0.5, 9).sampler();
        let schedule = ChurnProcess::new(0.3, 0.3, 1).schedule(&mesh, &initial, 10);
        let mut open: HashSet<EdgeId> = mesh
            .edges()
            .into_iter()
            .filter(|e| initial.is_open(*e))
            .collect();
        for t in 0..schedule.num_timesteps() {
            for event in schedule.timestep(t) {
                match event.kind {
                    EventKind::Fail => assert!(
                        open.remove(&event.edge),
                        "failed an edge that was not open at t={t}"
                    ),
                    EventKind::Repair => assert!(
                        open.insert(event.edge),
                        "repaired an edge that was not closed at t={t}"
                    ),
                }
            }
        }
    }

    #[test]
    fn heterogeneity_spreads_failure_rates() {
        let process = ChurnProcess::new(0.5, 0.1, 7).with_heterogeneity(1.0);
        let rates: Vec<f64> = (0..50)
            .map(|i| process.edge_fail_rate(edge(i, i + 1)))
            .collect();
        let min = rates.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = rates.iter().cloned().fold(0.0, f64::max);
        assert!(max - min > 0.3, "rates did not spread: [{min}, {max}]");
        for r in rates {
            assert!((0.0..=1.0).contains(&r));
        }
        let flat = ChurnProcess::new(0.5, 0.1, 7);
        assert_eq!(flat.edge_fail_rate(edge(0, 1)), 0.5);
    }

    #[test]
    fn incremental_new_matches_full_census() {
        let cube = Hypercube::new(6);
        let sampler = PercolationConfig::new(0.45, 11).sampler();
        let incremental = IncrementalCensus::new(&cube, &sampler);
        let full = ComponentCensus::compute(&cube, &sampler);
        assert_eq!(incremental.num_components(), full.num_components());
        assert_eq!(incremental.sizes_descending(), full.sizes_descending());
        assert_eq!(incremental.giant_fraction(), full.giant_fraction());
        for v in 0..cube.num_vertices() {
            assert_eq!(
                incremental.component_of(VertexId(v)),
                full.component_of(VertexId(v))
            );
        }
    }

    #[test]
    fn step_nets_out_contradictory_events() {
        // fail-then-repair of an open edge within one timestep is a no-op;
        // repair-then-fail of a closed edge likewise.
        let mesh = Mesh::new(1, 4); // path 0-1-2-3
        let mut sample = FrozenSample::new();
        sample.open_edge(edge(0, 1));
        let mut census = IncrementalCensus::new(&mesh, &sample);
        let stats = census.step(&[
            ChurnEvent::fail(edge(0, 1)),
            ChurnEvent::repair(edge(0, 1)),
            ChurnEvent::repair(edge(2, 3)),
            ChurnEvent::fail(edge(2, 3)),
        ]);
        assert_eq!(stats, StepStats::default());
        assert!(census.same_component(VertexId(0), VertexId(1)));
        assert!(!census.same_component(VertexId(2), VertexId(3)));
        assert_eq!(census.num_open_edges(), 1);
    }

    #[test]
    fn step_stats_count_rewind_and_replay() {
        let mesh = Mesh::new(1, 5); // path 0-1-2-3-4, all open
        let sampler = PercolationConfig::new(1.0, 0).sampler();
        let mut census = IncrementalCensus::new(&mesh, &sampler);
        // Fail the *last*-applied edge: a one-entry rewind, nothing replays,
        // and the rewind path (not the rebuild fallback) handles it.
        let stats = census.step(&[ChurnEvent::fail(edge(3, 4))]);
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.rewound, 1);
        assert_eq!(stats.replayed, 0);
        assert!(!stats.rebuilt);
        assert_eq!(census.num_components(), 2);
        // Repair it back: pure union, no rewind.
        let stats = census.step(&[ChurnEvent::repair(edge(3, 4))]);
        assert_eq!(stats.repaired, 1);
        assert_eq!(stats.rewound, 0);
        assert_eq!(census.num_components(), 1);
    }

    #[test]
    fn deep_failures_fall_back_to_a_rebuild() {
        let mesh = Mesh::new(1, 5); // path 0-1-2-3-4, all open
        let sampler = PercolationConfig::new(1.0, 0).sampler();
        let mut census = IncrementalCensus::new(&mesh, &sampler);
        // Fail the first-applied edge: the rewind would unwind all 4 undo
        // entries to salvage 3 survivors (2·4 > 3), so the census rebuilds.
        let stats = census.step(&[ChurnEvent::fail(edge(0, 1))]);
        assert_eq!(stats.failed, 1);
        assert!(stats.rebuilt);
        assert_eq!(stats.rewound, 0, "a rebuild never walks the undo log");
        assert_eq!(stats.replayed, 3, "every survivor is re-applied");
        assert_eq!(census.num_components(), 2);
        assert_eq!(census.num_open_edges(), 3);
        // The rebuilt partition is indistinguishable from a fresh census.
        let reference = census.rescan(&mesh);
        assert_eq!(census.sizes_descending(), reference.sizes_descending());
        for v in 0..mesh.num_vertices() {
            assert_eq!(
                census.component_of(VertexId(v)),
                reference.component_of(VertexId(v))
            );
        }
        // And the structure keeps working incrementally afterwards.
        let stats = census.step(&[ChurnEvent::repair(edge(0, 1))]);
        assert_eq!(stats.repaired, 1);
        assert!(!stats.rebuilt);
        assert_eq!(census.num_components(), 1);
    }

    #[test]
    fn rebuild_crossover_is_two_suffix_entries_per_survivor() {
        // The fallback threshold itself, pinned: rebuild exactly when the
        // rewind would unwind more than half a survivor's worth of undo
        // entries (2 · suffix > survivors).
        assert!(!IncrementalCensus::should_rebuild(0, 0));
        assert!(!IncrementalCensus::should_rebuild(5, 10));
        assert!(IncrementalCensus::should_rebuild(6, 10));
        assert!(!IncrementalCensus::should_rebuild(50, 100));
        assert!(IncrementalCensus::should_rebuild(51, 100));
        assert!(IncrementalCensus::should_rebuild(1, 1));
        assert!(!IncrementalCensus::should_rebuild(1, 2));
    }

    #[test]
    fn rebuild_and_rewind_paths_agree_at_the_crossover() {
        // Drive the same uniform churn through the census and cross-check
        // against from-scratch rescans at every step; the schedule's uniform
        // failures land both sides of the crossover, so both paths (and the
        // handoff between them) are exercised on one walk.
        let cube = Hypercube::new(6);
        let sampler = PercolationConfig::new(0.7, 5).sampler();
        let mut census = IncrementalCensus::new(&cube, &sampler);
        let schedule = ChurnProcess::new(0.25, 0.3, 9).schedule(&cube, &sampler, 8);
        let mut saw_rebuild = false;
        for t in 0..schedule.num_timesteps() {
            let stats = census.step(schedule.timestep(t));
            saw_rebuild |= stats.rebuilt;
            let reference = census.rescan(&cube);
            assert_eq!(census.sizes_descending(), reference.sizes_descending());
            assert_eq!(census.giant_fraction(), reference.giant_fraction());
        }
        assert!(
            saw_rebuild,
            "rates this high must trigger at least one deep-failure rebuild"
        );
        // Uniform churn at these rates always fails some deep edge, so force
        // the handoff back to the rewind path explicitly: failing the
        // most-recently-applied edge is a suffix of length 1, far under the
        // crossover on a log this size.
        let shallow = *census.applied.last().expect("churn left open edges");
        let stats = census.step(&[ChurnEvent::fail(shallow)]);
        assert!(
            !stats.rebuilt,
            "a length-1 suffix must stay on the rewind path"
        );
        assert_eq!(stats.rewound, 1);
        let reference = census.rescan(&cube);
        assert_eq!(census.sizes_descending(), reference.sizes_descending());
        assert_eq!(census.giant_fraction(), reference.giant_fraction());
    }

    #[test]
    fn rescan_reference_agrees_after_steps() {
        let cube = Hypercube::new(5);
        let sampler = PercolationConfig::new(0.5, 2).sampler();
        let mut census = IncrementalCensus::new(&cube, &sampler);
        let schedule = ChurnProcess::new(0.2, 0.2, 13).schedule(&cube, &sampler, 4);
        for t in 0..schedule.num_timesteps() {
            census.step(schedule.timestep(t));
            let reference = census.rescan(&cube);
            assert_eq!(census.sizes_descending(), reference.sizes_descending());
            assert_eq!(census.giant_fraction(), reference.giant_fraction());
        }
    }

    #[test]
    #[should_panic(expected = "fail rate")]
    fn churn_process_rejects_bad_fail_rate() {
        let _ = ChurnProcess::new(1.5, 0.1, 0);
    }

    #[test]
    #[should_panic(expected = "heterogeneity")]
    fn churn_process_rejects_bad_heterogeneity() {
        let _ = ChurnProcess::new(0.1, 0.1, 0).with_heterogeneity(2.0);
    }
}

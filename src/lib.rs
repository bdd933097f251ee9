//! # faultnet
//!
//! A reproduction of *"Routing Complexity of Faulty Networks"* (Angel,
//! Benjamini, Ofek, Wieder — PODC 2005).
//!
//! The crate is a facade over the workspace members:
//!
//! * [`topology`] — the graph families studied by the paper (hypercube,
//!   d-dimensional mesh, double binary tree, complete graph, …).
//! * [`percolation`] — independent edge-failure substrate and percolation
//!   analytics (components, thresholds, chemical distance, branching
//!   processes, and incremental connectivity under fail/repair churn).
//! * [`faultmodel`] — pluggable fault models beyond the paper's Bernoulli
//!   edge faults: node (router) failures, correlated fault regions, and
//!   budgeted adversarial cuts, all flowing through the same probe model
//!   and measurement harness — plus dynamic lowerings that evolve any
//!   static model over time.
//! * [`routing`] — the paper's core contribution: the probe model, local and
//!   oracle routing algorithms, the Lemma 5 lower-bound machinery, and the
//!   routing-complexity measurement harness.
//! * [`analysis`] — statistics, parameter sweeps, and table/figure output.
//! * [`experiments`] — one reproducible experiment per paper result.
//! * [`server`] — a long-lived HTTP query service over the measurement
//!   engines, with cached censuses, request coalescing, and `/metrics`.
//! * [`obs`] — the runtime-gated instrumentation layer (spans, counters,
//!   log₂ histograms) threaded through the engines' hot paths, with a
//!   zero-perturbation guarantee: enabled or not, it never changes a
//!   measurement byte.
//!
//! ## Quickstart
//!
//! ```
//! use faultnet::prelude::*;
//!
//! // A 10-dimensional hypercube where each edge fails with probability 0.5.
//! let cube = Hypercube::new(10);
//! let cfg = PercolationConfig::new(0.5, 42);
//!
//! // Route between antipodal vertices with the flooding (BFS) router under
//! // the paper's i.i.d. edge faults, conditioning on the two endpoints
//! // being connected. The execution knob (2 threads) changes the wall
//! // clock, never the statistics.
//! let harness = ComplexityHarness::new(cube, cfg);
//! let u = VertexId(0);
//! let v = VertexId((1 << 10) - 1);
//! let exec = TrialExec::sequential().with_threads(2);
//! let stats = harness.measure(&BernoulliEdges::new(), &FloodRouter::default(), u, v, 20, exec);
//! assert!(stats.success_rate() > 0.0);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use faultnet_analysis as analysis;
pub use faultnet_experiments as experiments;
pub use faultnet_faultmodel as faultmodel;
pub use faultnet_obs as obs;
pub use faultnet_percolation as percolation;
pub use faultnet_routing as routing;
pub use faultnet_server as server;
pub use faultnet_topology as topology;

/// Convenient glob-import of the most commonly used types.
pub mod prelude {
    pub use faultnet_analysis::{
        regression::{fit_line, fit_power_law},
        stats::Summary,
        sweep::Sweep,
        table::Table,
    };
    pub use faultnet_faultmodel::{
        AdversarialBudget, BernoulliEdges, BernoulliNodes, Churned, CorrelatedRegions,
        DynamicFaultModel, FaultInstance, FaultModel, FaultModelSpec, PairPlacement, Resampled,
        TrialExec,
    };
    pub use faultnet_percolation::{
        components::ComponentCensus,
        dynamic::{ChurnEvent, ChurnProcess, ChurnSchedule, EventKind, IncrementalCensus},
        sample::{BitsetSample, EdgeSampler},
        subgraph::PercolatedGraph,
        trial_batch::{LaneView, TrialBatch},
        union_find::{AtomicUnionFind, RewindableUnionFind, UnionFind},
        PercolationConfig,
    };
    pub use faultnet_routing::{
        bfs::{BidirectionalOracleBfs, FloodRouter},
        complexity::{ComplexityHarness, ComplexityStats},
        dfs::DepthFirstRouter,
        gnp::{BidirectionalGrowthRouter, IncrementalLocalRouter},
        hypercube::{GreedyHypercubeRouter, SegmentRouter},
        mesh::MeshLandmarkRouter,
        probe::ProbeEngine,
        router::{Locality, RouteOutcome, Router},
        tree::{LeafPenetrationRouter, PairedDfsOracleRouter},
    };
    pub use faultnet_topology::{
        complete::CompleteGraph, double_tree::DoubleBinaryTree, hypercube::Hypercube, mesh::Mesh,
        EdgeId, Topology, VertexId,
    };
}

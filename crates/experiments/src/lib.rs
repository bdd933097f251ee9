//! Reproducible experiments for every result of *Routing Complexity of
//! Faulty Networks*.
//!
//! The paper is a theory paper: its "evaluation" is a set of theorems rather
//! than benchmark tables. Each experiment in this crate therefore regenerates
//! the finite-size table/figure that exhibits one theorem's predicted shape
//! (see docs/EXPERIMENTS.md for the experiment guide — per-binary theorem
//! mapping, grids, runtimes, and how to read the emitted tables):
//!
//! | Experiment | Paper result | Module |
//! |---|---|---|
//! | E1/E3 | Theorem 3 — hypercube routing phase transition at `α = 1/2` | [`hypercube_transition`] |
//! | E2 | Theorem 3(i)/Lemma 5 — cut lower bound vs. measured cost | [`hypercube_lower_bound`] |
//! | E4 | Theorem 4 — `O(n)` mesh routing above `p_c` | [`mesh_routing`] |
//! | E5 | Lemma 8 — chemical distance is linear above `p_c` | [`chemical_distance`] |
//! | E6 | Lemma 6 + Theorems 7, 9 — double tree local vs. oracle | [`double_tree`] |
//! | E7 | Theorems 10, 11 — `G(n,p)` local `n²` vs. oracle `n^{3/2}` | [`gnp`] |
//! | E8 | background thresholds (hypercube giant/connectivity, mesh `p_c`) | [`hypercube_giant`], [`mesh_threshold`], [`threshold`] |
//! | E9 | §6 open questions — constant-degree families | [`open_questions`] |
//! | E10 | design-choice ablations | [`ablation`] |
//! | E11 | fault-model scenarios — E4/E8a grids under node, correlated, and adversarial faults | [`fault_models`] |
//! | E12 | dynamic fault churn — giant fraction and routability over time, incremental census | [`churn`] |
//! | E13 | fault-model matrix on real-world/scale-free substrates (loaded + generated) | [`real_world`] |
//!
//! Each module exposes an experiment struct with `quick()` (seconds; used by
//! tests and Criterion benches) and `full()` (minutes; used by the `exp-*`
//! binaries) constructors, a `with_exec` builder taking the binaries'
//! execution knob as one [`TrialExec`] (`--threads`; the reported numbers
//! are bit-identical for every value), and a `run()` method producing an
//! [`report::ExperimentReport`]. Every Monte-Carlo measurement runs on the
//! workspace's one trial loop, [`faultnet_faultmodel::trials::run_trials`]:
//! routing through [`faultnet_routing::ComplexityHarness::measure`], giant
//! fractions through [`hypercube_giant::measure_giant_point_with_model`].
//! Every `exp_*` binary's `main` is [`cli::run_binary`], which looks its
//! experiment up in [`suite::registry`].
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod chemical_distance;
pub mod churn;
pub mod cli;
pub mod double_tree;
pub mod fault_models;
pub mod gnp;
pub mod hypercube_giant;
pub mod hypercube_lower_bound;
pub mod hypercube_transition;
pub mod mesh_routing;
pub mod mesh_threshold;
pub mod open_questions;
pub mod real_world;
pub mod report;
pub mod suite;
pub mod threshold;

pub use faultnet_faultmodel::trials::TrialExec;
pub use report::{Effort, ExperimentReport};

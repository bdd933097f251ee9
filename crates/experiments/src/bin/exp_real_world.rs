//! Binary entry point for the E13 real-world-substrate fault-model matrix.
//!
//! Runs the full four-model fault matrix (Bernoulli edges/nodes, correlated
//! regions, budgeted adversary) on substrates the paper's structured
//! families exclude: the bundled Zachary karate-club network, a
//! Barabási–Albert scale-free graph, a `k`-ary fat-tree, and a random
//! `d`-regular graph, all loaded or generated through `topology::load` into
//! explicit graphs. Reports per-substrate degree statistics and Molloy–Reed
//! threshold predictions, giant-fraction scans per model, and flood-router
//! probe counts on the canonical pair.
//!
//! Flags: `--quick` for the reduced configuration used by tests and CI
//! (the default is the full configuration recorded in docs/EXPERIMENTS.md),
//! `--threads N` to set the worker-thread count (0 or absent = one worker
//! per core; the emitted tables are identical for every value),
//! `--census-threads N` to run each intra-instance component census on `N`
//! workers (absent = sequential census; 0 = one worker per core; the
//! emitted tables are identical for every value),
//! `--fault-model NAME` to restrict the matrix to a single model, and
//! `--markdown` for Markdown output.

use faultnet_experiments::cli::ExpArgs;
use faultnet_experiments::real_world::RealWorldExperiment;

fn main() {
    let args = ExpArgs::parse_env();
    args.init_obs();
    let exec = args.exec_for("exp_real_world");
    let experiment = RealWorldExperiment::with_effort(args.effort)
        .with_exec(exec)
        .with_fault_model(args.fault_model);
    args.print(&experiment.run());
    args.finish_obs();
}

//! Binary entry point for the E11 fault-model scenario matrix.
//!
//! Reruns the Theorem 4 mesh-routing grid and the §1.2 hypercube
//! giant/connectivity scan under every pluggable fault model — Bernoulli
//! edge faults (the paper), Bernoulli node faults, correlated fault
//! regions, and budgeted adversarial cuts — side by side, one column per
//! model.
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
use faultnet_experiments::fault_models::FaultModelsExperiment;

fn main() {
    let args = ExpArgs::parse_env();
    args.init_obs();
    let exec = args.exec_for("exp_fault_models");
    let experiment = FaultModelsExperiment::with_effort(args.effort)
        .with_exec(exec)
        .with_fault_model(args.fault_model);
    args.print(&experiment.run());
    args.finish_obs();
}

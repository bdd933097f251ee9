//! Binary entry point for the E12 dynamic fault-churn experiment.
//!
//! Lowers a static fault model to a fail-stop-with-repair churn schedule
//! and tracks, per timestep, the giant-component fraction and the
//! canonical pair's routability on hypercubes and the mesh through the
//! incremental (rewindable union-find) census. CI `cmp`s the `--quick
//! --markdown` output against `crates/experiments/tests/golden/exp_churn_quick.md`.
//!
//! Flags: `--quick` for the reduced configuration used by tests and CI
//! (the default is the full configuration recorded in docs/EXPERIMENTS.md),
//! `--threads N` to fan trials across `N` workers (0 or absent = one
//! worker per core; the emitted tables are identical for every value),
//! `--fault-model NAME` to churn a different static base model, and
//! `--markdown` for Markdown output. E12 does not read `--census-threads`:
//! the incremental census runs no from-scratch census to parallelise.

use faultnet_experiments::churn::ChurnExperiment;
use faultnet_experiments::cli::ExpArgs;

fn main() {
    let args = ExpArgs::parse_env();
    args.init_obs();
    let exec = args.exec_for("exp_churn");
    let experiment = ChurnExperiment::with_effort(args.effort)
        .with_exec(exec)
        .with_fault_model(args.fault_model);
    args.print(&experiment.run());
    args.finish_obs();
}

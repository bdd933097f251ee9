//! Binary entry point for the E8a hypercube giant component experiment.
//!
//! Flags: `--quick` for the reduced configuration used by tests and benches
//! (the default is the full configuration recorded in docs/EXPERIMENTS.md),
//! `--threads N` to set the worker-thread count (0 or absent = one worker
//! per core; the emitted tables are identical for every value),
//! `--census-threads N` to run each intra-instance component census on `N`
//! workers (absent = sequential census; 0 = one worker per core; the
//! emitted tables are identical for every value), and `--markdown` for
//! Markdown output. The trial loop packs the censuses onto the multispin
//! engine itself.

use faultnet_experiments::cli::ExpArgs;
use faultnet_experiments::hypercube_giant::HypercubeGiantExperiment;

fn main() {
    let args = ExpArgs::parse_env();
    args.init_obs();
    args.warn_fault_model_ignored("exp_hypercube_giant");
    let exec = args.exec_for("exp_hypercube_giant");
    let experiment = HypercubeGiantExperiment::with_effort(args.effort).with_exec(exec);
    args.print(&experiment.run());
    args.finish_obs();
}

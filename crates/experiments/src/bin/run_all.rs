//! Runs every experiment in sequence and prints the combined report.
//!
//! `cargo run --release -p faultnet-experiments --bin run_all -- [--quick] [--markdown] [--threads N]`
//!
//! * `--quick` uses the reduced configurations (seconds per experiment);
//!   the default is the full configurations recorded in docs/EXPERIMENTS.md.
//! * `--markdown` emits Markdown instead of plain text (used to refresh
//!   docs/EXPERIMENTS.md).
//! * `--threads N` fans conditioned trials and sweep points across `N`
//!   worker threads (0 or absent = one worker per core). The parallel
//!   harness merges results in deterministic order, so the emitted tables
//!   are identical for every thread count.
//!
//! The trial loop packs census trials onto the multispin engine and runs
//! routing trials scalar; there is no store or census-thread flag (the
//! retired `--trial-batch` and `--census-threads` are unknown arguments).

use faultnet_experiments::cli::ExpArgs;
use faultnet_experiments::suite::run_all_reports;

fn main() {
    let args = ExpArgs::parse_env();
    args.init_obs();
    args.warn_fault_model_ignored("run_all");
    let reports = run_all_reports(args.effort, args.exec());

    for report in &reports {
        args.print(report);
    }
    // Deliberately thread-count-free: all output (stdout and stderr) must
    // be byte-identical across --threads values.
    eprintln!("ran {} experiments ({} mode)", reports.len(), args.effort);
    args.finish_obs();
}

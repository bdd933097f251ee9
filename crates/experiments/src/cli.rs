//! Shared command-line handling for the experiment binaries.
//!
//! Every `exp_*` binary's `main` is [`run_binary`], and every `exp_*`
//! binary (and `run_all`) accepts the same flags:
//!
//! * `--quick` — run the reduced configuration (seconds) instead of the
//!   `full()` grids recorded in `docs/EXPERIMENTS.md`.
//! * `--threads N` (or `--threads=N`) — fan conditioned trials / sweep
//!   points across `N` worker threads. `N = 0` (the default) means "one
//!   worker per available core". Because the parallel harness merges trial
//!   results in deterministic order, the emitted tables are identical for
//!   every thread count — the knob only changes wall-clock time.
//! * `--markdown` — render the report as Markdown instead of plain text.
//! * `--fault-model NAME` (or `--fault-model=NAME`) — select one named
//!   fault model (`bernoulli-edges`, `bernoulli-nodes`,
//!   `correlated-regions`, `adversarial-budget`). Consumed by
//!   `exp_fault_models` and `exp_real_world` (absent = all models side by
//!   side) and by `exp_churn` (absent = Bernoulli edges); the E1–E10
//!   reproduction binaries always measure the paper's Bernoulli edge
//!   faults and warn on stderr if the flag is passed
//!   ([`ExpArgs::warn_fault_model_ignored`]).
//! * `--trace FILE` (or `--trace=FILE`) — turn on the `faultnet_obs`
//!   instrumentation layer and write a Chrome-trace JSON file (load it at
//!   `chrome://tracing` or <https://ui.perfetto.dev>) when the run
//!   finishes. The instrumentation never touches a measurement: every
//!   stdout byte is identical with and without the flag (the differential
//!   suite in `tests/obs_differential.rs` enforces this).
//! * `--obs-summary` — turn on the counting layer and print the
//!   counter/histogram/span summary table to stderr after the report.
//!   Composable with `--trace`; like it, guaranteed not to change a single
//!   stdout byte.
//!
//! Anything else — the retired `--census-threads`, `--trial-batch` and
//! `--rescan` included — is an unknown argument: it warns on stderr and
//! changes nothing, and a value after it is one more unknown argument.

use faultnet_faultmodel::FaultModelSpec;

use crate::report::Effort;
use crate::suite::registered;
use crate::TrialExec;

/// Parsed experiment-binary arguments.
///
/// # Examples
///
/// ```
/// use faultnet_experiments::cli::ExpArgs;
/// use faultnet_experiments::report::Effort;
///
/// let args = ExpArgs::parse(["--quick", "--threads", "4"].map(String::from));
/// assert_eq!(args.effort, Effort::Quick);
/// assert_eq!(args.threads, 4);
/// assert!(!args.markdown);
///
/// let args = ExpArgs::parse(["--threads=2", "--markdown"].map(String::from));
/// assert_eq!(args.effort, Effort::Full);
/// assert_eq!(args.threads, 2);
/// assert!(args.markdown);
///
/// let args = ExpArgs::parse(["--fault-model", "bernoulli-nodes"].map(String::from));
/// assert_eq!(
///     args.fault_model,
///     Some(faultnet_faultmodel::FaultModelSpec::BernoulliNodes)
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpArgs {
    /// Effort level: `Quick` when `--quick` was passed, `Full` otherwise.
    pub effort: Effort,
    /// Worker-thread count, already resolved: `--threads 0` and an absent
    /// flag both resolve to the number of available cores (at least 1).
    pub threads: usize,
    /// Whether `--markdown` was passed.
    pub markdown: bool,
    /// The fault model selected with `--fault-model`, if any. `None` means
    /// the binary's default (Bernoulli edge faults for the paper
    /// reproductions; every model side by side for `exp_fault_models` and
    /// `exp_real_world`).
    pub fault_model: Option<FaultModelSpec>,
    /// Chrome-trace output path from `--trace FILE`, if any. `Some` turns
    /// on span capture for the whole run; the file is written by
    /// [`ExpArgs::finish_obs`].
    pub trace: Option<String>,
    /// Whether `--obs-summary` was passed: print the observability
    /// counter/span table to stderr after the report.
    pub obs_summary: bool,
}

impl ExpArgs {
    /// Parses the given argument list (flags may appear in any order;
    /// unknown flags produce a warning on stderr and are skipped).
    ///
    /// The value flags (`--threads`, `--fault-model`, `--trace`) share one
    /// lookahead rule in their space-form: the next token is consumed as
    /// the value unless it is itself a flag. A malformed value therefore
    /// warns **exactly once** (it is not re-reported as an unknown
    /// argument), and a dangling flag — final token, or immediately
    /// followed by another flag — warns once on stderr and swallows
    /// nothing, like the `=`-form with a malformed value.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let args: Vec<String> = args.into_iter().collect();
        let mut effort = Effort::Full;
        let mut markdown = false;
        let mut threads: usize = 0;
        let mut fault_model = None;
        let mut trace: Option<String> = None;
        let mut obs_summary = false;
        let mut parse_model = |value: &str| match FaultModelSpec::parse(value) {
            Ok(spec) => fault_model = Some(spec),
            Err(message) => eprintln!("{message}; using the default"),
        };
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--quick" => effort = Effort::Quick,
                "--markdown" => markdown = true,
                "--threads" => match args.get(i + 1).map(String::as_str) {
                    Some(value) if !value.starts_with("--") => {
                        match value.parse() {
                            Ok(n) => threads = n,
                            Err(_) => eprintln!("--threads expects a number; using auto"),
                        }
                        i += 1;
                    }
                    _ => eprintln!("--threads expects a number; using auto"),
                },
                "--obs-summary" => obs_summary = true,
                "--trace" => {
                    // Same lookahead rule as --fault-model: consume the next
                    // token as the path unless it is itself a flag, so a
                    // valueless `--trace --markdown` warns once and does not
                    // swallow the next flag.
                    match args.get(i + 1).map(String::as_str) {
                        Some(value) if !value.starts_with("--") => {
                            trace = Some(value.to_string());
                            i += 1;
                        }
                        _ => eprintln!("--trace expects a file path; tracing stays off"),
                    }
                }
                "--fault-model" => {
                    // Same lookahead rule as --threads: consume the next
                    // token as the value unless it is itself a flag, so a
                    // misspelled model name warns exactly once and a
                    // valueless `--fault-model --markdown` does not swallow
                    // the next flag.
                    match args.get(i + 1).map(String::as_str) {
                        Some(value) if !value.starts_with("--") => {
                            parse_model(value);
                            i += 1;
                        }
                        other => parse_model(other.unwrap_or("<missing>")),
                    }
                }
                other => {
                    if let Some(value) = other.strip_prefix("--threads=") {
                        threads = value.parse().unwrap_or_else(|_| {
                            eprintln!("--threads expects a number; using auto");
                            0
                        });
                    } else if let Some(value) = other.strip_prefix("--fault-model=") {
                        parse_model(value);
                    } else if let Some(value) = other.strip_prefix("--trace=") {
                        if value.is_empty() {
                            eprintln!("--trace expects a file path; tracing stays off");
                        } else {
                            trace = Some(value.to_string());
                        }
                    } else {
                        eprintln!("ignoring unknown argument {other:?}");
                    }
                }
            }
            i += 1;
        }
        ExpArgs {
            effort,
            threads: resolve_threads(threads),
            markdown,
            fault_model,
            trace,
            obs_summary,
        }
    }

    /// Parses the process arguments (`std::env::args`, program name
    /// skipped).
    pub fn parse_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// The execution knobs the flags select: `--threads` as a
    /// [`TrialExec`].
    pub fn exec(&self) -> TrialExec {
        TrialExec::sequential().with_threads(self.threads)
    }

    /// Renders `report` to stdout in the requested format.
    pub fn print(&self, report: &crate::report::ExperimentReport) {
        if self.markdown {
            println!("{}", report.render_markdown());
        } else {
            println!("{}", report.render());
        }
    }

    /// Warns on stderr when `--fault-model` was passed to a binary that does
    /// not consume it. The E1–E10 reproduction binaries (and `run_all`)
    /// always measure the configuration their experiment defines —
    /// silently accepting the flag would let a user believe they measured
    /// node faults when they measured the paper's model.
    pub fn warn_fault_model_ignored(&self, binary: &str) {
        if let Some(spec) = self.fault_model {
            eprintln!(
                "--fault-model {spec} is ignored by {binary}; \
                 use exp_fault_models to measure under other fault models"
            );
        }
    }

    /// Turns the observability layer on if `--trace` or `--obs-summary`
    /// asked for it. Call once, right after parsing and before the
    /// experiment runs; without either flag this is a no-op and the
    /// instrumentation stays at its one-relaxed-load disabled cost.
    pub fn init_obs(&self) {
        if self.trace.is_some() {
            faultnet_obs::enable_tracing();
        } else if self.obs_summary {
            faultnet_obs::enable();
        }
    }

    /// Emits whatever observability output was requested: writes the
    /// Chrome-trace file for `--trace FILE` and prints the summary table to
    /// stderr for `--obs-summary`. Call once, after the report has been
    /// printed; without either flag this is a no-op.
    pub fn finish_obs(&self) {
        if self.trace.is_none() && !self.obs_summary {
            return;
        }
        faultnet_obs::flush_thread();
        if let Some(path) = &self.trace {
            if let Err(error) = faultnet_obs::write_trace_file(path) {
                eprintln!("failed to write trace file {path}: {error}");
            }
        }
        if self.obs_summary {
            eprint!("{}", faultnet_obs::summary());
        }
    }
}

/// The whole `main` of every `exp_*` binary: parses the process
/// arguments, runs `binary`'s entry in [`crate::suite::registry`] and
/// prints its report. `--fault-model` reaches the experiments that read it
/// (E11, E12 and E13); the others warn on stderr and ignore it.
///
/// # Panics
///
/// Panics if `binary` is not a registered experiment.
pub fn run_binary(binary: &str) {
    let args = ExpArgs::parse_env();
    let experiment = registered(binary);
    args.init_obs();
    if !experiment.reads_fault_model() {
        args.warn_fault_model_ignored(binary);
    }
    args.print(&experiment.run(args.effort, args.exec(), args.fault_model));
    args.finish_obs();
}

/// Resolves a requested thread count: `0` means "all available cores"
/// (falling back to 1 when the platform cannot report parallelism).
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_full_effort_auto_threads() {
        let args = ExpArgs::parse(Vec::new());
        assert_eq!(args.effort, Effort::Full);
        assert!(args.threads >= 1);
        assert!(!args.markdown);
    }

    #[test]
    fn explicit_thread_counts_are_kept() {
        assert_eq!(
            ExpArgs::parse(vec!["--threads".into(), "7".into()]).threads,
            7
        );
        assert_eq!(ExpArgs::parse(vec!["--threads=3".into()]).threads, 3);
    }

    #[test]
    fn zero_threads_resolves_to_at_least_one() {
        let args = ExpArgs::parse(vec!["--threads".into(), "0".into()]);
        assert!(args.threads >= 1);
        assert_eq!(resolve_threads(5), 5);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn unknown_and_malformed_arguments_do_not_abort() {
        let args = ExpArgs::parse(vec![
            "--bogus".into(),
            "--rescan".into(),
            "--quick".into(),
            "--threads".into(),
            "lots".into(),
        ]);
        assert_eq!(args.effort, Effort::Quick);
        assert!(args.threads >= 1);
        // A retired flag is just another unknown argument: every field
        // keeps its default.
        assert_eq!(
            ExpArgs::parse(vec!["--rescan".into()]),
            ExpArgs::parse(Vec::new())
        );
    }

    /// Asserts that every form the retired `flag` used to take parses like
    /// the same command line without it, a value included.
    fn assert_retired_value_flag_is_inert(flag: &str) {
        let parse = |args: &[&str]| ExpArgs::parse(args.iter().map(|a| a.to_string()));
        let plain = parse(&["--quick", "--markdown"]);
        assert_eq!(parse(&["--quick", flag, "64", "--markdown"]), plain);
        assert_eq!(
            parse(&["--quick", &format!("{flag}=7"), "--markdown"]),
            plain
        );
        assert_eq!(parse(&["--quick", flag, "--markdown"]), plain);
        // A non-numeric value is dropped too, and a dangling flag is inert.
        assert_eq!(parse(&["--quick", flag, "wide", "--markdown"]), plain);
        assert_eq!(parse(&["--quick", "--markdown", flag]), plain);
        // The thread count around it keeps its value.
        let args = parse(&["--threads=2", flag, "3"]);
        assert_eq!(args, parse(&["--threads=2"]));
        assert_eq!(args.threads, 2);
    }

    #[test]
    fn trial_batch_flag_forms() {
        assert_retired_value_flag_is_inert("--trial-batch");
        let parse = |args: &[&str]| ExpArgs::parse(args.iter().map(|a| a.to_string()));
        assert_eq!(
            parse(&["--threads=2", "--trial-batch=64"]),
            parse(&["--threads=2"])
        );
    }

    #[test]
    fn census_threads_flag_forms() {
        assert_retired_value_flag_is_inert("--census-threads");
        let parse = |args: &[&str]| ExpArgs::parse(args.iter().map(|a| a.to_string()));
        assert_eq!(
            parse(&["--threads=2", "--census-threads=0"]),
            parse(&["--threads=2"])
        );
    }

    #[test]
    fn fault_model_flag_forms_and_errors() {
        let args = ExpArgs::parse(vec!["--fault-model".into(), "adversarial-budget".into()]);
        assert_eq!(args.fault_model, Some(FaultModelSpec::AdversarialBudget));
        let args = ExpArgs::parse(vec!["--fault-model=correlated-regions".into()]);
        assert_eq!(args.fault_model, Some(FaultModelSpec::CorrelatedRegions));
        // Unknown names warn and fall back to the default.
        let args = ExpArgs::parse(vec!["--fault-model".into(), "martian-rays".into()]);
        assert_eq!(args.fault_model, None);
        // A valueless flag must not swallow the next flag.
        let args = ExpArgs::parse(vec!["--fault-model".into(), "--markdown".into()]);
        assert_eq!(args.fault_model, None);
        assert!(args.markdown);
        let args = ExpArgs::parse(Vec::new());
        assert_eq!(args.fault_model, None);
    }

    #[test]
    fn rescan_flag_forms() {
        // `--rescan` is retired: in every form it used to take it is an
        // unknown argument that changes no field.
        let defaults = ExpArgs::parse(Vec::new());
        assert_eq!(ExpArgs::parse(vec!["--rescan".into()]), defaults);
        // It still must not swallow its neighbours.
        let args = ExpArgs::parse(vec!["--rescan".into(), "--markdown".into()]);
        assert_eq!(args, ExpArgs::parse(vec!["--markdown".into()]));
        assert!(args.markdown);
        let args = ExpArgs::parse(vec![
            "--quick".into(),
            "--rescan".into(),
            "--threads=2".into(),
        ]);
        assert_eq!(args.effort, Effort::Quick);
        assert_eq!(args.threads, 2);
        assert_eq!(
            args,
            ExpArgs::parse(vec!["--quick".into(), "--threads=2".into()])
        );
    }

    #[test]
    fn trace_flag_forms() {
        // Absent: no trace file, no summary — obs stays off.
        let args = ExpArgs::parse(Vec::new());
        assert_eq!(args.trace, None);
        assert!(!args.obs_summary);
        // Both spellings carry the path through.
        assert_eq!(
            ExpArgs::parse(vec!["--trace".into(), "out.json".into()]).trace,
            Some("out.json".into())
        );
        assert_eq!(
            ExpArgs::parse(vec!["--trace=/tmp/t.json".into()]).trace,
            Some("/tmp/t.json".into())
        );
        // A valueless flag keeps tracing off and must not swallow the next
        // flag (same lookahead rule as --fault-model).
        let args = ExpArgs::parse(vec!["--trace".into(), "--markdown".into()]);
        assert_eq!(args.trace, None);
        assert!(args.markdown);
        // An empty `=`-form path keeps tracing off.
        assert_eq!(ExpArgs::parse(vec!["--trace=".into()]).trace, None);
        // Dangling final token keeps the default.
        assert_eq!(ExpArgs::parse(vec!["--trace".into()]).trace, None);
    }

    #[test]
    fn obs_summary_flag_forms() {
        assert!(ExpArgs::parse(vec!["--obs-summary".into()]).obs_summary);
        // A boolean flag: it must not swallow its neighbours, and composes
        // with --trace.
        let args = ExpArgs::parse(vec![
            "--obs-summary".into(),
            "--trace".into(),
            "t.json".into(),
            "--quick".into(),
        ]);
        assert!(args.obs_summary);
        assert_eq!(args.trace, Some("t.json".into()));
        assert_eq!(args.effort, Effort::Quick);
    }

    #[test]
    fn threads_with_missing_value_does_not_swallow_the_next_flag() {
        let args = ExpArgs::parse(vec!["--threads".into(), "--markdown".into()]);
        assert!(
            args.markdown,
            "--markdown must survive a valueless --threads"
        );
        assert!(args.threads >= 1);
        let args = ExpArgs::parse(vec!["--threads".into(), "--quick".into()]);
        assert_eq!(args.effort, Effort::Quick);
    }

    #[test]
    fn numeric_flags_as_the_final_token_keep_their_defaults() {
        // A dangling flag — nothing after it to look at — warns on stderr
        // and keeps the default, exactly like the `=`-form with a malformed
        // value. It must not panic and must not disturb earlier flags.
        let args = ExpArgs::parse(vec!["--quick".into(), "--threads".into()]);
        assert_eq!(args.effort, Effort::Quick);
        assert!(args.threads >= 1, "dangling --threads resolves to auto");
    }

    #[test]
    fn malformed_numeric_values_are_consumed_not_reparsed() {
        // `--threads lots` consumes the bad token: it warns once as a bad
        // number and is NOT re-reported as an unknown argument, so the
        // space-form and `=`-form agree token for token. The surrounding
        // flags still parse.
        let args = ExpArgs::parse(vec!["--threads".into(), "lots".into(), "--markdown".into()]);
        assert!(args.threads >= 1);
        assert!(args.markdown);
    }
}

//! Shared command-line handling for the experiment binaries.
//!
//! Every `exp_*` binary (and `run_all`) accepts the same flags:
//!
//! * `--quick` — run the reduced configuration (seconds) instead of the
//!   `full()` grids recorded in `docs/EXPERIMENTS.md`.
//! * `--threads N` (or `--threads=N`) — fan conditioned trials / sweep
//!   points across `N` worker threads. `N = 0` (the default) means "one
//!   worker per available core". Because the parallel harness merges trial
//!   results in deterministic order, the emitted tables are identical for
//!   every thread count — the knob only changes wall-clock time.
//! * `--census-threads N` (or `--census-threads=N`) — run each
//!   *intra-instance* component census (giant scans, threshold bisections,
//!   census-based conditioning) on `N` workers through
//!   `ComponentCensus::compute_parallel`. `N = 0` means "one worker per
//!   available core"; the default of 1 keeps the sequential census, which
//!   wins below roughly the n = 10 hypercube, where per-census thread
//!   spawning costs more than it saves (`conditioning/bfs_vs_census` in
//!   the `census` bench target, p = 0.5, 2-core VM: H₈ 22 µs sequential
//!   vs 85 µs on two workers, a tie at H₁₀, H₁₄ 4.2 ms vs 3.0 ms). On a
//!   single routing instance the flag also swaps the early-exiting BFS
//!   conditioning check for a census, which is slower at every measured
//!   point (see `ComplexityHarness::measure`). The parallel census is
//!   bit-identical to the sequential one (canonical min-vertex component
//!   labels), so this knob, like `--threads`, never changes a single
//!   emitted byte. `exp_churn` ignores it: its incremental census runs no
//!   from-scratch census.
//! * `--trial-batch N` (or `--trial-batch=N`) — run trial fan-outs through
//!   the trial-batched (multispin) percolation engine, packing up to
//!   `min(N, 64)` consecutive trials into one transposed bitset word per
//!   edge. Consumed by the trial-fan-out binaries (`exp_hypercube_giant`,
//!   `exp_mesh_threshold`, `exp_fault_models`, `exp_real_world`) and by
//!   `run_all`; the others
//!   warn on stderr ([`ExpArgs::exec_for`]). `N = 0` (the
//!   default) keeps the scalar engine. The batched engine is bit-identical
//!   to the scalar one — every emitted byte is the same for every `N` —
//!   and the adversarial fault-model column always stays on the scalar
//!   reference path.
//! * `--markdown` — render the report as Markdown instead of plain text.
//! * `--fault-model NAME` (or `--fault-model=NAME`) — select one named
//!   fault model (`bernoulli-edges`, `bernoulli-nodes`,
//!   `correlated-regions`, `adversarial-budget`). Consumed by
//!   `exp_fault_models` and `exp_real_world` (absent = all models side by
//!   side); the E1–E10
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

use faultnet_faultmodel::FaultModelSpec;

use crate::exec::TrialExec;
use crate::report::Effort;
use crate::suite::{registered, registry};

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
/// assert_eq!(args.census_threads, 1);
/// assert!(!args.markdown);
///
/// let args = ExpArgs::parse(["--census-threads", "4"].map(String::from));
/// assert_eq!(args.census_threads, 4);
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
    /// Intra-instance census thread count, already resolved: absent = 1
    /// (sequential census), `--census-threads 0` = one worker per core.
    pub census_threads: usize,
    /// Trial-batch lane request: `0` (absent flag) = scalar engine,
    /// `N >= 1` = the multispin engine with `min(N, 64)` lanes per word.
    pub trial_batch: usize,
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
    /// The numeric value flags (`--threads`, `--census-threads`,
    /// `--trial-batch`) obey one shared lookahead rule in their space-form,
    /// the same rule `--fault-model` uses: the next token is consumed as the
    /// value unless it is itself a flag. A malformed value therefore warns
    /// **exactly once** (it is not re-reported as an unknown argument), and
    /// a dangling flag — final token, or immediately followed by another
    /// flag — warns once on stderr and swallows nothing, exactly like the
    /// `=`-form's `value.parse().unwrap_or_else(warn)`.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let args: Vec<String> = args.into_iter().collect();
        let mut effort = Effort::Full;
        let mut markdown = false;
        let mut threads: usize = 0;
        // 1 = sequential census (the default); 0 = auto, resolved below.
        let mut census_threads: usize = 1;
        // 0 = scalar engine (the default); N >= 1 = batched with min(N, 64)
        // lanes. Deliberately *not* auto-resolved: batching is opt-in.
        let mut trial_batch: usize = 0;
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
                "--threads" => {
                    let (value, consumed) = take_numeric_value(&args, i, "--threads", "using auto");
                    if let Some(n) = value {
                        threads = n;
                    }
                    i += consumed;
                }
                "--census-threads" => {
                    let (value, consumed) =
                        take_numeric_value(&args, i, "--census-threads", "using the default of 1");
                    if let Some(n) = value {
                        census_threads = n;
                    }
                    i += consumed;
                }
                "--trial-batch" => {
                    let (value, consumed) =
                        take_numeric_value(&args, i, "--trial-batch", "keeping the scalar engine");
                    if let Some(n) = value {
                        trial_batch = n;
                    }
                    i += consumed;
                }
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
                    } else if let Some(value) = other.strip_prefix("--census-threads=") {
                        census_threads = value.parse().unwrap_or_else(|_| {
                            eprintln!("--census-threads expects a number; using the default of 1");
                            1
                        });
                    } else if let Some(value) = other.strip_prefix("--trial-batch=") {
                        trial_batch = value.parse().unwrap_or_else(|_| {
                            eprintln!("--trial-batch expects a number; keeping the scalar engine");
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
            census_threads: resolve_census_threads(census_threads),
            trial_batch,
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

    /// The execution knobs the flags select: `--threads`,
    /// `--census-threads` and `--trial-batch` as one [`TrialExec`].
    pub fn exec(&self) -> TrialExec {
        TrialExec::sequential()
            .with_threads(self.threads)
            .with_census_threads(self.census_threads)
            .with_trial_batch(self.trial_batch)
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

    /// The execution knobs `binary`'s experiment consumes:
    /// [`ExpArgs::exec`] passed through
    /// [`RegisteredExperiment::exec`](crate::suite::RegisteredExperiment::exec), so
    /// the registry alone decides who honours `--trial-batch`. A binary
    /// whose experiment has no trial fan-out to batch (single-instance
    /// analyses, distance scans) warns on stderr when the flag was passed:
    /// silently accepting it would let a user believe the batched engine
    /// ran when nothing batched.
    ///
    /// # Panics
    ///
    /// Panics if `binary` is not a registered experiment.
    pub fn exec_for(&self, binary: &str) -> TrialExec {
        let experiment = registered(binary);
        if self.trial_batch > 0 && !experiment.supports_trial_batch {
            let consumers: Vec<&str> = registry()
                .iter()
                .filter(|e| e.supports_trial_batch)
                .map(|e| e.binary)
                .collect();
            eprintln!(
                "--trial-batch {} is ignored by {binary}; the trial-batched \
                 engine applies to the trial-fan-out experiments ({})",
                self.trial_batch,
                consumers.join(", ")
            );
        }
        experiment.exec(self.exec())
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

/// Resolves the `--census-threads` value: explicit counts are kept, `0`
/// means "all available cores" (identical to [`resolve_threads`]; the
/// default of 1 is applied by the parser, not here, so callers resolving a
/// stored 0 still get auto).
pub fn resolve_census_threads(requested: usize) -> usize {
    resolve_threads(requested)
}

/// The shared lookahead rule for the space-form numeric flags
/// (`--threads N`, `--census-threads N`, `--trial-batch N`).
///
/// The token after the flag is consumed as the value unless it is itself a
/// flag (starts with `--`). Three cases:
///
/// * next token parses as a number — `(Some(n), 1)`: value kept, token
///   consumed;
/// * next token is a non-flag that does not parse (`--threads lots`) —
///   `(None, 1)`: warns once on stderr, token consumed so the main loop
///   does not re-report it as an unknown argument;
/// * flag is the final token or followed by another flag — `(None, 0)`:
///   warns once on stderr, nothing swallowed.
///
/// `fallback` names the behaviour kept on failure in the warning, so the
/// space-form message is byte-identical to the `=`-form's
/// `value.parse().unwrap_or_else(warn)` message.
fn take_numeric_value(
    args: &[String],
    i: usize,
    flag: &str,
    fallback: &str,
) -> (Option<usize>, usize) {
    match args.get(i + 1).map(String::as_str) {
        Some(value) if !value.starts_with("--") => match value.parse() {
            Ok(n) => (Some(n), 1),
            Err(_) => {
                eprintln!("{flag} expects a number; {fallback}");
                (None, 1)
            }
        },
        _ => {
            eprintln!("{flag} expects a number; {fallback}");
            (None, 0)
        }
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

    #[test]
    fn census_threads_flag_forms() {
        // Absent: sequential census.
        assert_eq!(ExpArgs::parse(Vec::new()).census_threads, 1);
        // Explicit counts in both spellings.
        assert_eq!(
            ExpArgs::parse(vec!["--census-threads".into(), "4".into()]).census_threads,
            4
        );
        assert_eq!(
            ExpArgs::parse(vec!["--census-threads=2".into()]).census_threads,
            2
        );
        // 0 = one worker per core.
        assert!(ExpArgs::parse(vec!["--census-threads".into(), "0".into()]).census_threads >= 1);
        // A valueless flag keeps the default and must not swallow the next
        // flag.
        let args = ExpArgs::parse(vec!["--census-threads".into(), "--markdown".into()]);
        assert_eq!(args.census_threads, 1);
        assert!(args.markdown);
        // Malformed value falls back to the default.
        assert_eq!(
            ExpArgs::parse(vec!["--census-threads=lots".into()]).census_threads,
            1
        );
        // Orthogonal to --threads.
        let args = ExpArgs::parse(vec![
            "--threads".into(),
            "8".into(),
            "--census-threads".into(),
            "2".into(),
        ]);
        assert_eq!(args.threads, 8);
        assert_eq!(args.census_threads, 2);
    }

    #[test]
    fn trial_batch_flag_forms() {
        // Absent: scalar engine.
        assert_eq!(ExpArgs::parse(Vec::new()).trial_batch, 0);
        // Explicit counts in both spellings (clamping to 64 lanes happens
        // in the engine, not the parser — 200 must survive to exercise it).
        assert_eq!(
            ExpArgs::parse(vec!["--trial-batch".into(), "64".into()]).trial_batch,
            64
        );
        assert_eq!(
            ExpArgs::parse(vec!["--trial-batch=7".into()]).trial_batch,
            7
        );
        assert_eq!(
            ExpArgs::parse(vec!["--trial-batch".into(), "200".into()]).trial_batch,
            200
        );
        // A valueless flag keeps the scalar engine and must not swallow the
        // next flag.
        let args = ExpArgs::parse(vec!["--trial-batch".into(), "--markdown".into()]);
        assert_eq!(args.trial_batch, 0);
        assert!(args.markdown);
        // Malformed value falls back to the scalar engine.
        assert_eq!(
            ExpArgs::parse(vec!["--trial-batch=lots".into()]).trial_batch,
            0
        );
        // Orthogonal to the thread knobs.
        let args = ExpArgs::parse(vec![
            "--threads=2".into(),
            "--census-threads=3".into(),
            "--trial-batch=64".into(),
        ]);
        assert_eq!(
            (args.threads, args.census_threads, args.trial_batch),
            (2, 3, 64)
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

        let args = ExpArgs::parse(vec!["--census-threads".into()]);
        assert_eq!(args.census_threads, 1);

        let args = ExpArgs::parse(vec!["--trial-batch".into()]);
        assert_eq!(args.trial_batch, 0);
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

        let args = ExpArgs::parse(vec![
            "--census-threads".into(),
            "many".into(),
            "--quick".into(),
        ]);
        assert_eq!(args.census_threads, 1);
        assert_eq!(args.effort, Effort::Quick);

        let args = ExpArgs::parse(vec!["--trial-batch".into(), "wide".into()]);
        assert_eq!(args.trial_batch, 0);
    }
}

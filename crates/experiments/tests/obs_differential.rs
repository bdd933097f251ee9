//! The zero-perturbation contract, enforced zoo-wide.
//!
//! The `faultnet_obs` instrumentation layer threads through every engine
//! this workspace owns (BFS conditioning, the scalar and multispin
//! percolation substrates, the census, the routing harness, the
//! churn walk). Its contract is that observing a run never changes the
//! run: with instrumentation off, counting on, or full span tracing on,
//! every report renders to the **same bytes**.
//!
//! These tests run the entire registered experiment zoo at `Quick` effort
//! under all three instrumentation states — and across the wall-clock
//! knobs (`threads`, a forced `trial_batch`), whose worker
//! closures carry the per-thread flush calls — and `assert_eq!` the
//! rendered text and Markdown. The CI workflow repeats the same check at
//! the process level (`cmp` of `--trace` vs untraced stdout).
//!
//! The obs globals are process-wide, so every test here serialises on one
//! lock and restores the disabled state before releasing it.

use std::sync::Mutex;

use faultnet_experiments::report::Effort;
use faultnet_experiments::suite::{registry, run_all_reports};
use faultnet_experiments::TrialExec;

static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Runs the whole zoo and renders each report both ways.
fn rendered_zoo(threads: usize, trial_batch: usize) -> Vec<(String, String)> {
    let exec = TrialExec::sequential()
        .with_threads(threads)
        .with_trial_batch(trial_batch);
    run_all_reports(Effort::Quick, exec)
        .iter()
        .map(|report| (report.render(), report.render_markdown()))
        .collect()
}

#[test]
fn instrumentation_states_never_change_a_report_byte() {
    let _guard = OBS_LOCK.lock().unwrap();
    faultnet_obs::reset();

    let baseline = rendered_zoo(2, 0);
    assert!(!baseline.is_empty(), "the registry is not empty");

    faultnet_obs::enable();
    let counted = rendered_zoo(2, 0);

    faultnet_obs::enable_tracing();
    let traced = rendered_zoo(2, 0);

    // The enabled runs actually recorded something — the comparison is not
    // vacuously passing against dead instrumentation.
    assert!(
        faultnet_obs::counter_value("routing.trials.conditioned") > 0,
        "no conditioned-trial counts recorded; is the routing harness instrumented?"
    );
    assert!(
        faultnet_obs::counter_value("percolation.bfs.calls") > 0
            || faultnet_obs::counter_value("census.unions") > 0,
        "no percolation counts recorded; is the engine instrumented?"
    );
    faultnet_obs::reset();

    for (i, experiment) in registry().iter().enumerate() {
        assert_eq!(
            baseline[i], counted[i],
            "{}: counting changed the report bytes",
            experiment.binary
        );
        assert_eq!(
            baseline[i], traced[i],
            "{}: span tracing changed the report bytes",
            experiment.binary
        );
    }
}

#[test]
fn tracing_is_transparent_across_the_wall_clock_knobs() {
    let _guard = OBS_LOCK.lock().unwrap();
    faultnet_obs::reset();
    // The knob-equivalence contract (threads / forced lane widths never
    // change a byte) must survive instrumentation: the worker
    // closures carry per-thread flush calls, and those must be as invisible
    // as the counters themselves.
    let scalar_quiet = rendered_zoo(1, 0);
    faultnet_obs::enable_tracing();
    let fanned_traced = rendered_zoo(4, 64);
    faultnet_obs::reset();
    assert_eq!(
        scalar_quiet, fanned_traced,
        "tracing + parallel knobs changed a report byte"
    );
}

#[test]
fn chrome_trace_captures_the_experiment_spans() {
    let _guard = OBS_LOCK.lock().unwrap();
    faultnet_obs::reset();
    faultnet_obs::enable_tracing();
    let report =
        faultnet_experiments::hypercube_giant::HypercubeGiantExperiment::with_effort(Effort::Quick)
            .run();
    assert!(!report.render().is_empty());
    let trace = faultnet_obs::chrome_trace();
    faultnet_obs::reset();
    assert!(trace.starts_with("{\"traceEvents\":["), "{trace}");
    assert!(trace.ends_with("]}\n"), "{trace}");
    for span in ["experiment.hypercube_giant", "hypercube_giant.point"] {
        assert!(
            trace.contains(&format!("\"name\":\"{span}\"")),
            "span {span} missing from trace:\n{trace}"
        );
    }
}

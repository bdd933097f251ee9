//! End-to-end runs of every experiment at quick effort, checking that the
//! reports carry the qualitative conclusions recorded in EXPERIMENTS.md.

use faultnet::experiments::{
    chemical_distance::ChemicalDistanceExperiment,
    churn::ChurnExperiment,
    double_tree::DoubleTreeExperiment,
    fault_models::FaultModelsExperiment,
    gnp::GnpExperiment,
    hypercube_giant::HypercubeGiantExperiment,
    hypercube_lower_bound::HypercubeLowerBoundExperiment,
    hypercube_transition::HypercubeTransitionExperiment,
    mesh_routing::MeshRoutingExperiment,
    mesh_threshold::MeshThresholdExperiment,
    open_questions::OpenQuestionsExperiment,
    suite::{registry, run_all_reports},
    Effort, TrialExec,
};

/// The determinism contract of `run_all --quick`: the full rendered output
/// (plain text and Markdown) is byte-identical across `--threads 1/2/4`.
/// Previously only documented in docs/EXPERIMENTS.md; now enforced here.
/// Because `run_all_reports` enumerates the experiment registry, this
/// covers every registered experiment — including `exp_fault_models`, i.e.
/// every fault model's parallel merge.
#[test]
fn run_all_quick_output_is_byte_identical_across_thread_counts() {
    let render_suite =
        |threads: usize, census_threads: usize, trial_batch: usize| -> (String, String) {
            let exec = TrialExec::sequential()
                .with_threads(threads)
                .with_census_threads(census_threads)
                .with_trial_batch(trial_batch);
            let reports = run_all_reports(Effort::Quick, exec);
            let text: String = reports
                .iter()
                .map(|r| r.render())
                .collect::<Vec<_>>()
                .join("\n");
            let markdown: String = reports
                .iter()
                .map(|r| r.render_markdown())
                .collect::<Vec<_>>()
                .join("\n");
            (text, markdown)
        };
    let baseline = render_suite(1, 1, 0);
    assert_eq!(
        baseline,
        render_suite(2, 1, 0),
        "threads=2 diverged from threads=1"
    );
    assert_eq!(
        baseline,
        render_suite(4, 1, 0),
        "threads=4 diverged from threads=1"
    );
    // The intra-census knob is held to the same contract as the trial
    // fan-out: `--census-threads 2` must not move a byte of any experiment's
    // rendered output (this is the end-to-end half of the parallel-census
    // equivalence suite in crates/percolation/tests/census_equivalence.rs).
    assert_eq!(
        baseline,
        render_suite(1, 2, 0),
        "census-threads=2 diverged from census-threads=1"
    );
    assert_eq!(
        baseline,
        render_suite(2, 4, 0),
        "threads=2 + census-threads=4 diverged from the sequential baseline"
    );
    // And the trial-batched engine: `--trial-batch 64` switches E8a/E8b/E11
    // onto the multispin substrate, which must also not move a byte (the
    // end-to-end half of crates/percolation/tests/trial_equivalence.rs).
    assert_eq!(
        baseline,
        render_suite(1, 1, 64),
        "trial-batch=64 diverged from the scalar engine"
    );
    assert_eq!(
        baseline,
        render_suite(2, 2, 7),
        "threads=2 + census-threads=2 + trial-batch=7 diverged from the sequential baseline"
    );
}

#[test]
fn hypercube_transition_report() {
    let report = HypercubeTransitionExperiment::quick().run();
    assert!(!report.tables().is_empty());
    assert!(!report.figures().is_empty());
    assert!(report.render().contains("α"));
    assert!(report.render_markdown().contains("### "));
}

#[test]
fn hypercube_lower_bound_report_is_sound() {
    let report = HypercubeLowerBoundExperiment::quick().run();
    assert!(report
        .notes()
        .iter()
        .any(|n| n.contains("Soundness check passed")));
}

#[test]
fn mesh_routing_report_has_near_linear_exponent() {
    let report = MeshRoutingExperiment::quick().run();
    // At least one fitted exponent should be close to 1 (between 0.5 and 1.6
    // at quick sizes).
    let has_linearish = report.notes().iter().any(|note| {
        note.split("n^")
            .nth(1)
            .and_then(|rest| rest.split(' ').next())
            .and_then(|num| num.parse::<f64>().ok())
            .is_some_and(|exp| (0.5..=1.6).contains(&exp))
    });
    assert!(has_linearish, "notes: {:?}", report.notes());
}

#[test]
fn chemical_distance_report() {
    let report = ChemicalDistanceExperiment::quick().run();
    assert!(report.notes().iter().any(|n| n.contains("bounded")));
}

#[test]
fn double_tree_report_shows_both_growth_laws() {
    let report = DoubleTreeExperiment::quick().run();
    assert!(report.notes().iter().any(|n| n.contains("Theorem 7")));
    assert!(report.notes().iter().any(|n| n.contains("Theorem 9")));
}

#[test]
fn gnp_report_exponents_are_ordered() {
    let report = GnpExperiment::quick().run();
    let extract = |needle: &str| -> Option<f64> {
        report
            .notes()
            .iter()
            .find(|n| n.contains(needle))?
            .split("n^")
            .nth(1)?
            .split(' ')
            .next()?
            .parse()
            .ok()
    };
    let local_exp = extract("Theorem 10").expect("local exponent note");
    let oracle_exp = extract("Theorem 11").expect("oracle exponent note");
    assert!(
        local_exp > oracle_exp,
        "local exponent {local_exp} should exceed oracle exponent {oracle_exp}"
    );
    assert!(local_exp > 1.2, "local exponent too small: {local_exp}");
    assert!(oracle_exp < 2.0, "oracle exponent too large: {oracle_exp}");
}

#[test]
fn hypercube_giant_report() {
    let report = HypercubeGiantExperiment::quick().run();
    assert!(report.tables().len() >= 2);
    assert!(!report.notes().is_empty());
}

#[test]
fn mesh_threshold_report() {
    let report = MeshThresholdExperiment::quick().run();
    assert!(report.render().contains("estimated p_c"));
}

#[test]
fn open_questions_report() {
    let report = OpenQuestionsExperiment::quick().run();
    assert_eq!(report.tables().len(), 4);
}

#[test]
fn fault_models_report_compares_all_models() {
    let report = FaultModelsExperiment::quick().run();
    for model in [
        "bernoulli-edges",
        "bernoulli-nodes",
        "correlated-regions",
        "adversarial-budget",
    ] {
        assert!(
            report.render().contains(model),
            "report is missing the {model} column"
        );
    }
}

#[test]
fn churn_report_stays_routable_and_is_engine_invariant() {
    let report = ChurnExperiment::quick().run();
    // One table per family, each a full time series.
    assert!(report.tables().len() >= 2);
    assert!(report.render().contains("under churn"));
    // Stationary-matched rates keep the quick hypercube supercritical: the
    // giant fraction in the final timestep stays macroscopic.
    let last_row = report.tables()[0].rows().last().unwrap().clone();
    let giant: f64 = last_row[2].parse().unwrap();
    assert!(giant > 0.5, "giant fraction collapsed under churn: {giant}");
    // Engine invariance: the golden is `exp_churn --quick --markdown` from
    // the last engine that was cross-checked byte for byte against
    // per-timestep from-scratch censuses; the report must not move a byte
    // from it (the binary's `println!` adds the final newline).
    assert_eq!(
        format!("{}\n", report.render_markdown()),
        include_str!("../crates/experiments/tests/golden/exp_churn_quick.md")
    );
}

/// The probe-count golden: `run_all --quick --markdown`, pinned byte for
/// byte. It covers every routing experiment's probe counts (E1–E4 among
/// them), so a change to the probe engine, a router or a topology's
/// neighbor order that moves a single count fails here. The golden was
/// generated by the binary before the routing hot path went
/// allocation-free; each report is followed by the newline `println!` adds.
#[test]
fn run_all_quick_markdown_matches_the_golden() {
    let reports = run_all_reports(Effort::Quick, TrialExec::sequential().with_threads(2));
    let markdown: String = reports
        .iter()
        .map(|r| format!("{}\n", r.render_markdown()))
        .collect();
    let golden = include_str!("../crates/experiments/tests/golden/run_all_quick.md");
    if let Some((i, (got, want))) = markdown
        .lines()
        .zip(golden.lines())
        .enumerate()
        .find(|(_, (got, want))| got != want)
    {
        panic!(
            "line {} differs from the golden:\n got: {got}\nwant: {want}",
            i + 1
        );
    }
    assert_eq!(markdown, golden);
}

/// `run_all` derives from the registry, so the report sequence and the
/// registry must agree one to one — no second hand-maintained list.
#[test]
fn run_all_enumerates_the_registry() {
    let experiments = registry();
    let reports = run_all_reports(Effort::Quick, TrialExec::sequential().with_threads(2));
    assert_eq!(reports.len(), experiments.len());
    assert!(experiments.iter().any(|e| e.binary == "exp_fault_models"));
    assert!(experiments.iter().any(|e| e.binary == "exp_churn"));
    assert!(experiments.iter().any(|e| e.binary == "exp_real_world"));
    // E13 runs last in registry order and is the real-world matrix.
    assert!(reports.last().unwrap().name().contains("real-world"));
}

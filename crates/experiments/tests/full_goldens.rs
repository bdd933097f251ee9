//! Full-effort output, pinned: every experiment binary except
//! `exp_mesh_routing` (E4, several minutes) runs without `--quick` and its
//! `--markdown` stdout must equal `golden/<binary>_full.md` byte for byte,
//! at one thread and at two.
//!
//! The 12 binaries take about a minute at two threads, so both tests are
//! `#[ignore]`d in a plain `cargo test`; CI runs them with
//!
//! ```text
//! cargo test --release -p faultnet-experiments --test full_goldens -- --ignored
//! ```
//!
//! A golden may be regenerated only by a change that states which output
//! moves and why; never regenerate one to make a change pass.

use std::path::Path;
use std::process::Command;

/// `(binary name, path of its executable)` for each listed binary.
macro_rules! binaries {
    ($($name:literal),* $(,)?) => {
        [$(($name, env!(concat!("CARGO_BIN_EXE_", $name)))),*]
    };
}

const BINARIES: [(&str, &str); 12] = binaries![
    "exp_hypercube_transition",
    "exp_hypercube_lower_bound",
    "exp_chemical_distance",
    "exp_double_tree",
    "exp_gnp",
    "exp_hypercube_giant",
    "exp_mesh_threshold",
    "exp_open_questions",
    "exp_ablation",
    "exp_fault_models",
    "exp_churn",
    "exp_real_world",
];

/// Runs every binary at `--threads threads --markdown` and names each one
/// whose stdout differs from its golden, with the first differing line.
fn assert_full_goldens(threads: &str) {
    let golden_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut mismatches = Vec::new();
    for (name, exe) in BINARIES {
        let output = Command::new(exe)
            .args(["--threads", threads, "--markdown"])
            .output()
            .unwrap_or_else(|e| panic!("{name} did not start: {e}"));
        assert!(
            output.status.success(),
            "{name} exited with {}",
            output.status
        );
        let golden_path = golden_dir.join(format!("{name}_full.md"));
        let golden = std::fs::read_to_string(&golden_path)
            .unwrap_or_else(|e| panic!("{}: {e}", golden_path.display()));
        let got = String::from_utf8(output.stdout).expect("Markdown is UTF-8");
        if got != golden {
            let line = got
                .lines()
                .zip(golden.lines())
                .position(|(g, w)| g != w)
                .unwrap_or(got.lines().count().min(golden.lines().count()));
            mismatches.push(format!("{name} (first difference at line {})", line + 1));
        }
    }
    assert!(
        mismatches.is_empty(),
        "full output differs from the golden at --threads {threads}: {mismatches:?}"
    );
}

#[test]
#[ignore = "full effort: about a minute; CI runs it with --ignored"]
fn full_output_matches_the_goldens_at_one_thread() {
    assert_full_goldens("1");
}

#[test]
#[ignore = "full effort: about a minute; CI runs it with --ignored"]
fn full_output_matches_the_goldens_at_two_threads() {
    assert_full_goldens("2");
}

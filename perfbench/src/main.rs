//! Command line of the benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --digest --seed <n>
//! perfbench --repeat <k> [--workload <name>] --seed <n> --seconds <s>
//! ```
//!
//! The first form runs one workload and prints one line per metric, then
//! the result line (JSON) last. `--trace 0` reports the end-to-end metrics,
//! `--trace 1` the per-layer metrics of a separate traced run. The exit
//! code is 0 only if every output check passed. `--digest` prints the
//! digest of each workload's generated inputs. `--repeat` is the
//! steadiness report: it runs each workload `k` times in child processes
//! with seeds `n, n+1, …` and prints each end-to-end metric's median,
//! quartiles and spread against its bound.

use std::process::{Command, ExitCode};

use faultnet_perfbench::report::{self, END_TO_END};
use faultnet_perfbench::summary::{median, quartiles, relative_iqr};
use faultnet_perfbench::workloads::{self, NAMES};
use faultnet_server::json::Json;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    digest: bool,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        digest: false,
        repeat: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--repeat" => {
                args.repeat = Some(value()?.parse().map_err(|e| format!("--repeat: {e}"))?)
            }
            "--digest" => args.digest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &args.workload {
        if !NAMES.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w}; workloads: {}",
                NAMES.join(", ")
            ));
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    if args.digest {
        for name in NAMES {
            let enc = workloads::encoded_inputs(name, args.seed).expect("known workload");
            println!(
                "{name:<13} seed {} inputs {:>8} bytes digest {:016x}",
                args.seed,
                enc.bytes().len(),
                enc.digest()
            );
        }
        return ExitCode::SUCCESS;
    }
    if let Some(k) = args.repeat {
        return steadiness(&args, k);
    }
    let Some(workload) = args.workload.as_deref() else {
        eprintln!("perfbench: --workload is required");
        return ExitCode::from(2);
    };
    let (outcome, values) = if args.trace {
        let traced = workloads::traced(workload, args.seed).expect("known workload");
        let values = report::per_layer(&traced);
        (traced.outcome, values)
    } else {
        let outcome = workloads::run(workload, args.seed, args.seconds).expect("known workload");
        let rss = faultnet_perfbench::peak_rss_mb().unwrap_or(0.0);
        match report::end_to_end(&outcome, rss) {
            Ok(values) => (outcome, values),
            Err(message) => {
                eprintln!("perfbench: {message}");
                return ExitCode::FAILURE;
            }
        }
    };
    for error in &outcome.errors {
        eprintln!("check failed: {error}");
    }
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    print!("{}", report::render_lines(workload, &values));
    println!(
        "{workload:<13} {:<34} {:>14.6} {:<6} {} failed of {} attempted",
        "error_rate", error_rate, "ratio", outcome.failed, outcome.attempted
    );
    let correct = outcome.failed == 0;
    println!(
        "{}",
        report::result_line(correct, outcome.attempted, outcome.failed, &values)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Noise sources of an earlier benchmark design and how this one avoids
/// them; printed under every steadiness report.
const PITFALLS: &str = "\
avoided by design:
  whole-run wall time and throughput drifted 5-6% on identical code -> no wall_s; ops_per_s is a median of per-pass rates; runs end on whole input sets
  set-up was a ~1 ms quantity -> set-up builds the substrates and runs a warm-up op, median of three
  cpu_s was end-to-end, so a parallel speed-up read as a regression -> cpu time is the per-layer proc.cpu_s
  probe engine and census went unmeasured -> route_probe and giant_census load them; the traced run times them";

/// Runs every selected workload `k` times in child processes and prints
/// each end-to-end metric's median, quartiles and IQR ÷ median, flagging
/// spreads wider than the metric's bound (and, as `~`, wider than a third
/// of it, the margin the bounds were set with).
fn steadiness(args: &Args, k: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let selected: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => NAMES.to_vec(),
    };
    let mut all_ok = true;
    for workload in selected {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for i in 0..k {
            let seed = args.seed + i as u64;
            let output = Command::new(&exe)
                .args(["--workload", workload, "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
                .output();
            let parsed = output.ok().filter(|o| o.status.success()).and_then(|o| {
                let text = String::from_utf8(o.stdout).ok()?;
                Json::parse(text.lines().last()?).ok()
            });
            let Some(json) = parsed else {
                eprintln!("{workload} seed {seed}: run failed");
                all_ok = false;
                continue;
            };
            for (slot, def) in values.iter_mut().zip(END_TO_END) {
                if let Some(v) = json
                    .get("metrics")
                    .and_then(|m| m.get(def.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                {
                    slot.push(v);
                }
            }
        }
        println!(
            "{workload}: {k} runs, seeds {}..{}",
            args.seed,
            args.seed + k as u64 - 1
        );
        for (def, vals) in END_TO_END.iter().zip(&values) {
            let (Some(mid), Some([q1, _, q3]), Some(spread)) =
                (median(vals), quartiles(vals), relative_iqr(vals))
            else {
                println!("  {:<16} too few runs", def.name);
                continue;
            };
            let bound = def.bound.expect("end-to-end metrics have bounds");
            // Set-up spread is reported but not bounded: only its median
            // is compared between commits.
            let flag = if spread > bound && def.name != "setup_s" {
                all_ok = false;
                "WIDE"
            } else if spread > bound / 3.0 {
                "~"
            } else {
                ""
            };
            println!(
                "  {:<16} median {:>12.4} {:<4} q1 {:>12.4} q3 {:>12.4} iqr/median {:>7.4} bound {:.2} {flag}",
                def.name, mid, def.unit, q1, q3, spread, bound
            );
        }
    }
    println!("{PITFALLS}");
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

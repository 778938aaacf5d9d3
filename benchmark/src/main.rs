//! End-to-end benchmark of the simulator and the socket runtime,
//! driving only the program's public API. See `README.md`.
//!
//! ```text
//! eps-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! eps-benchmark --smoke
//! eps-benchmark --compare <first-output> <second-output>
//! ```
//!
//! One invocation runs one workload once, checks its output, prints
//! every metric as `name value unit`, then one JSON line; the exit
//! code is non-zero when a check failed.

mod driver;
mod layers;
mod metrics;
mod net;
mod sim;
mod span;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::Report;
use workloads::Kind;

const USAGE: &str = "usage: eps-benchmark --workload <name> [--seed <n>] [--seconds <s>] \
[--trace <0|1>] | --smoke | --compare <a> <b>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut words: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = words.next() {
        let mut value = || words.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_owned());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

/// Where the kept spans go, relative to the repository root that
/// `run.sh` runs from.
fn trace_path(workload: &str) -> PathBuf {
    PathBuf::from(format!("benchmark/out/{workload}.trace.json"))
}

/// Runs one workload into a fresh report. `smoke` shortens it to a
/// check of its outputs.
fn run(name: &str, seed: u64, seconds: f64, trace: bool, smoke: bool) -> Option<Report> {
    let workload = workloads::build(name, seed, seconds)?;
    println!("workload {}: {}", workload.name, workload.why);
    let mut report = Report::default();
    let path = trace_path(workload.name);
    match &workload.kind {
        Kind::Sim { runner, cells } if trace => {
            sim::traced(&mut report, name, *runner, cells, &path)
        }
        Kind::Sim { runner, cells } => sim::end_to_end(&mut report, *runner, cells, seconds, smoke),
        Kind::Net {
            config,
            min_delivered_share,
        } if trace => net::traced(&mut report, name, config, *min_delivered_share, &path),
        Kind::Net {
            config,
            min_delivered_share,
        } => net::end_to_end(&mut report, config, *min_delivered_share, smoke),
    }
    Some(report)
}

fn smoke() -> ExitCode {
    let mut ok = true;
    for name in workloads::NAMES.iter().chain(&workloads::DIAGNOSTIC) {
        let report = run(name, 1, 1.0, false, true).expect("listed workload");
        println!(
            "smoke {name}: {}",
            if report.correct() { "ok" } else { "FAILED" }
        );
        report.print_failures();
        ok &= report.correct();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare(first: &str, second: &str) -> ExitCode {
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
    };
    let problems = metrics::compare_outputs(&read(first), &read(second));
    for problem in &problems {
        println!("REPEAT FAILED: {problem}");
    }
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let words: Vec<String> = std::env::args().skip(1).collect();
    match words.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["--smoke"] => return smoke(),
        ["--compare", first, second] => return compare(first, second),
        _ => {}
    }
    let args = match parse(words.into_iter()) {
        Ok(args) => args,
        Err(problem) => {
            eprintln!("{problem}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(report) = run(&args.workload, args.seed, args.seconds, args.trace, false) else {
        eprintln!(
            "unknown workload '{}' (one of: {}, {})\n{USAGE}",
            args.workload,
            workloads::NAMES.join(", "),
            workloads::DIAGNOSTIC.join(", ")
        );
        return ExitCode::from(2);
    };
    report.print(args.trace);
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

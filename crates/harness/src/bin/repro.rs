//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro all [--quick|--full] [--seed S] [--out DIR] [--jobs N]
//! repro fig3a fig9b ...      # specific figures
//! repro list                 # available experiment ids
//! ```
//!
//! Independent scenario cells run on `--jobs` worker threads (default:
//! all cores); the output is byte-identical for every job count.

use std::process::ExitCode;

use eps_harness::experiments::{run_experiment, ExperimentOptions, ALL_EXPERIMENTS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = ExperimentOptions::default();
    let mut ids: Vec<String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--full" => opts.quick = false,
            "--seed" => match iter.next().and_then(|s| s.parse().ok()) {
                Some(seed) => opts.seed = seed,
                None => return usage("--seed needs an integer"),
            },
            "--out" => match iter.next() {
                Some(dir) => opts.out_dir = dir.into(),
                None => return usage("--out needs a directory"),
            },
            "--jobs" | "-j" => match iter.next().and_then(|s| s.parse().ok()) {
                Some(jobs) => opts.jobs = Some(jobs),
                None => return usage("--jobs needs an integer"),
            },
            "list" => {
                for id in ALL_EXPERIMENTS {
                    println!("{id}");
                }
                return ExitCode::SUCCESS;
            }
            "all" => ids.extend(ALL_EXPERIMENTS.iter().map(|s| s.to_string())),
            "--help" | "-h" => return usage(""),
            other if other.starts_with('-') => return usage(&format!("unknown flag '{other}'")),
            other => ids.push(other.to_owned()),
        }
    }
    if ids.is_empty() {
        return usage("no experiment selected");
    }
    ids.dedup();

    let mode = if opts.quick {
        "quick"
    } else {
        "full (paper-scale)"
    };
    eprintln!(
        "running {} experiment(s) in {mode} mode, seed {}, {} worker(s), output under {}",
        ids.len(),
        opts.seed,
        opts.effective_jobs(),
        opts.out_dir.display()
    );
    for id in &ids {
        let started = std::time::Instant::now();
        eprintln!("=== {id} ===");
        match run_experiment(id, &opts) {
            Ok(output) => {
                println!("# {}\n", output.title);
                println!("{}", output.text);
                eprintln!(
                    "{id} done in {:.1}s; {} CSV file(s) under {}",
                    started.elapsed().as_secs_f64(),
                    output.tables.len(),
                    opts.out_dir.join(id).display()
                );
            }
            Err(err) => {
                eprintln!("{id} failed: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn usage(problem: &str) -> ExitCode {
    if !problem.is_empty() {
        eprintln!("error: {problem}");
    }
    eprintln!(
        "usage: repro <all | fig-id ...> [--quick|--full] [--seed S] [--out DIR] [--jobs N]\n\
         experiments: {}",
        ALL_EXPERIMENTS.join(", ")
    );
    if problem.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

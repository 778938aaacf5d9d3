//! `scenario_bench` — end-to-end wall-clock benchmarks: one full
//! miniature Figure 2 run per paper algorithm, plus one Figure
//! 3(b)-style reconfiguration run per algorithm, with no external
//! dependencies.
//!
//! ```text
//! scenario_bench [--out FILE] [--large]
//!     # written only where --out names a file, so no run rewrites a
//!     # committed baseline
//! ```
//!
//! Where `microbench` isolates kernels, this binary times whole
//! scenario runs — queue, transport, dispatching, recovery, metrics
//! assembly — so a regression anywhere in the stack shows up even if
//! every kernel looks fine in isolation. Results (median ns per run)
//! print to stderr and are written as JSON to `--out`; a bare run
//! writes nothing. `scripts/tier1.sh` diffs them against the committed
//! baseline via `bench_compare`.
//!
//! `--large` additionally runs the runner at 100 000
//! dispatchers (a dense Figure 2-style content model), reporting
//! event-loop throughput (`events_per_sec`), peak memory
//! (`peak_rss_bytes`) and wall-clock splits. The large cell executes
//! in a re-exec'd subprocess so its `VmHWM` reading is that run's own
//! high-water mark, not the small cells'. These entries use
//! the shared `{name, median_ns}` JSON shape with unit-bearing names;
//! they are recorded once per machine and compared advisorily.

use std::process::{Command, ExitCode};

use eps_bench::timing::{bench, to_json, BenchResult};
use eps_bench::{mini, mini_reconfig};
use eps_gossip::Algorithm;
use eps_harness::{run_scenario, run_scenario_with_stats, ScenarioConfig};
use eps_sim::SimTime;

/// The large-mode population size: the ISSUE's "one machine, 10⁵
/// dispatchers" floor.
const LARGE_NODES: usize = 100_000;

fn main() -> ExitCode {
    let mut out_path = None;
    let mut large = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--out" => match iter.next() {
                Some(path) => out_path = Some(path.clone()),
                None => {
                    eprintln!("error: --out needs a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--large" => large = true,
            // Internal: run one large cell in this process and print
            // its raw measurements to stdout (used via re-exec so the
            // peak-RSS reading belongs to this cell alone).
            "--one-large" => {
                let Some(nodes) = iter.next().and_then(|s| s.parse().ok()) else {
                    eprintln!("error: --one-large needs NODES");
                    return ExitCode::FAILURE;
                };
                return run_one_large(nodes);
            }
            other => {
                eprintln!("usage: scenario_bench [--out FILE] [--large]   (unknown arg '{other}')");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut results = Vec::new();
    for algo in Algorithm::paper() {
        results.push(timed_run(
            &format!("scenario_fig2/{}", algo.name()),
            mini(algo),
        ));
    }
    for algo in Algorithm::paper() {
        results.push(timed_run(
            &format!("scenario_fig3_reconfig/{}", algo.name()),
            mini_reconfig(algo, SimTime::from_millis(250)),
        ));
    }
    if large {
        match large_cell(LARGE_NODES) {
            Ok(mut cell) => results.append(&mut cell),
            Err(e) => {
                eprintln!("error: large cell n{LARGE_NODES}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    for r in &results {
        eprintln!(
            "{:<40} median {:>12.1} ns/run  (min {:.1}, {} samples)",
            r.name, r.median_ns, r.min_ns, r.samples
        );
    }
    if let Some(out_path) = out_path {
        if let Err(e) = std::fs::write(&out_path, to_json(&results)) {
            eprintln!("error: writing {out_path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {out_path}");
    }
    ExitCode::SUCCESS
}

/// Times complete runs of one scenario configuration: two warmup runs
/// (page in code and allocator arenas), then the median of nine.
fn timed_run(name: &str, config: ScenarioConfig) -> BenchResult {
    let mut delivered = 0.0;
    let result = bench(name, 2, 9, 1, || {
        delivered = run_scenario(&config).delivery_rate;
    });
    assert!(delivered > 0.0, "{name}: nothing was delivered");
    result
}

/// The large-mode scenario: Figure 2's link and gossip parameters on
/// 10⁵ dispatchers with a dense content model (Π = 8192, π_max = 2,
/// so each pattern keeps ≈ 25 subscribers — the paper's density) and
/// a per-dispatcher publish rate scaled down to keep the aggregate
/// event load at 1 000 events/s.
fn large_config(nodes: usize) -> ScenarioConfig {
    ScenarioConfig {
        nodes,
        pattern_universe: 8192,
        pi_max: 2,
        publish_rate: 0.01,
        duration: SimTime::from_secs(1),
        warmup: SimTime::from_millis(125),
        cooldown: SimTime::from_millis(250),
        algorithm: Algorithm::push(),
        ..ScenarioConfig::default()
    }
}

/// Reads this process's peak resident set from `/proc/self/status`
/// (`VmHWM`, kB). `None` on platforms without procfs.
fn peak_rss_bytes() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0)
}

/// Child mode: one large run, raw measurements on stdout as
/// `events_processed loop_seconds setup_seconds peak_rss_bytes
/// delivery_rate`.
fn run_one_large(nodes: usize) -> ExitCode {
    let config = large_config(nodes);
    let (result, stats) = run_scenario_with_stats(&config);
    let peak = peak_rss_bytes().unwrap_or(0.0);
    println!(
        "{} {} {} {} {}",
        stats.events_processed,
        stats.loop_wall.as_secs_f64(),
        stats.setup_wall.as_secs_f64(),
        peak,
        result.delivery_rate,
    );
    ExitCode::SUCCESS
}

/// A direct measurement reported through the bench JSON: the "median"
/// is the measured value itself, in the unit the entry's name carries.
fn measured(name: String, value: f64) -> BenchResult {
    BenchResult {
        name,
        samples: 1,
        iters_per_sample: 1,
        median_ns: value,
        min_ns: value,
        mean_ns: value,
    }
}

/// Runs the large cell in a fresh subprocess and turns its raw line
/// into bench entries.
fn large_cell(nodes: usize) -> Result<Vec<BenchResult>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    eprintln!("large cell: n{nodes} (subprocess)...");
    let output = Command::new(exe)
        .args(["--one-large", &nodes.to_string()])
        .output()
        .map_err(|e| format!("spawning subprocess: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "subprocess failed: {}",
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let line = String::from_utf8_lossy(&output.stdout);
    let fields: Vec<f64> = line
        .split_whitespace()
        .map(|f| f.parse().map_err(|e| format!("bad field '{f}': {e}")))
        .collect::<Result<_, _>>()?;
    let [events, loop_s, setup_s, peak_rss, delivery] = fields[..] else {
        return Err(format!("expected 5 fields, got: {line:?}"));
    };
    assert!(delivery > 0.0, "large run delivered nothing");
    let prefix = format!("large_fig2/n{nodes}");
    Ok(vec![
        measured(format!("{prefix}/events_per_sec"), events / loop_s),
        measured(format!("{prefix}/loop_wall_ns"), loop_s * 1e9),
        measured(format!("{prefix}/setup_wall_ns"), setup_s * 1e9),
        measured(format!("{prefix}/peak_rss_bytes"), peak_rss),
    ])
}

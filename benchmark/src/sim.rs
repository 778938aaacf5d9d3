//! The simulated workloads: the program's own runners, timed from
//! outside (`--trace 0`), and the benchmark's driver over the same
//! cells with spans on (`--trace 1`).

use std::time::Instant;

use eps_harness::{
    build_population, run_scenario, run_scenario_sharded_with_stats, ScenarioConfig,
    ScenarioResult, ShardedRunStats,
};
use eps_overlay::Topology;
use eps_sim::RngFactory;

use crate::driver::drive;
use crate::layers::{deliveries, messages, trace_driver, DriverTotals};
use crate::metrics::Report;
use crate::span::Off;
use crate::stats::{cpu_time, median, peak_rss_mb, rss_mb};
use crate::workloads::{Cell, Runner};

/// Fewest units a run times, however short its window.
const MIN_UNITS: usize = 3;
/// `build_population` repetitions behind `setup_s` when the runner
/// does not report its own set-up time.
const SETUP_REPEATS: usize = 100;

struct CellRun {
    result: ScenarioResult,
    wall_s: f64,
    stats: Option<ShardedRunStats>,
}

fn run_cell(runner: Runner, config: &ScenarioConfig) -> CellRun {
    let started = Instant::now();
    let (result, stats) = match runner {
        Runner::Serial => (run_scenario(config), None),
        Runner::Sharded => {
            let (result, stats) = run_scenario_sharded_with_stats(config, 1);
            (result, Some(stats))
        }
    };
    CellRun {
        result,
        wall_s: started.elapsed().as_secs_f64(),
        stats,
    }
}

/// The output checks of one simulated cell, and its statistics as
/// exact text (every `ScenarioResult::csv_row` field).
fn check_cell(report: &mut Report, cell: &Cell, r: &ScenarioResult, first: bool) {
    let label = cell.label;
    let (low, high) = cell.delivery_band;
    let rate_ok = report.check(
        r.overall_delivery_rate > 0.0 && r.overall_delivery_rate <= 1.0,
        || {
            format!(
                "{label}: delivery {} outside (0, 1]",
                r.overall_delivery_rate
            )
        },
    );
    let recovery_ok = report.check(r.events_recovered <= r.events_retransmitted, || {
        format!(
            "{label}: recovered {} > retransmitted {}",
            r.events_recovered, r.events_retransmitted
        )
    });
    let band_ok = report.check(r.delivery_rate >= low && r.delivery_rate <= high, || {
        format!(
            "{label}: window delivery {} outside [{low}, {high}]",
            r.delivery_rate
        )
    });
    report.attempted += 1;
    report.failed += u64::from(!(rate_ok && recovery_ok && band_ok));
    if first {
        for (field, value) in ScenarioResult::csv_header().iter().zip(r.csv_row()) {
            report.count(format!("{label}.{field}"), value);
        }
    }
}

/// `--trace 0`: repeats the cells through the program's runner for
/// `seconds` (at least [`MIN_UNITS`] passes) and reports medians.
pub fn end_to_end(report: &mut Report, runner: Runner, cells: &[Cell], seconds: f64, smoke: bool) {
    let mut setup_s: Vec<f64> = Vec::new();
    let mut run_s = Vec::new();
    let mut deliv_per_s = Vec::new();
    let (mut msgs, mut intended, mut delivered) = (0u64, 0u64, 0u64);
    let mut first_unit: Vec<ScenarioResult> = Vec::new();
    let cpu_before = cpu_time();
    let window = Instant::now();
    let min_units = if smoke { 1 } else { MIN_UNITS };
    while run_s.len() < min_units || window.elapsed().as_secs_f64() < seconds {
        let (mut unit_s, mut unit_setup_s, mut unit_delivered) = (0.0, 0.0, 0u64);
        for cell in cells {
            let run = run_cell(runner, &cell.config);
            unit_s += run.wall_s;
            if let Some(stats) = run.stats {
                unit_setup_s += stats.setup_wall.as_secs_f64();
            }
            let (want, got) = deliveries(&run.result);
            intended += want;
            delivered += got;
            unit_delivered += got;
            msgs += messages(&run.result);
            check_cell(report, cell, &run.result, run_s.is_empty());
            if run_s.is_empty() {
                first_unit.push(run.result);
            }
        }
        run_s.push(unit_s);
        deliv_per_s.push(unit_delivered as f64 / unit_s);
        if runner == Runner::Sharded {
            setup_s.push(unit_setup_s);
        }
    }
    let cpu = cpu_time().since(cpu_before);
    if runner == Runner::Serial {
        // The serial runner does not say how long its set-up took;
        // time the call it makes, in the process the passes warmed up
        // (a cold heap makes a 0.5 ms build cost up to 1.6 ms).
        for _ in 0..SETUP_REPEATS {
            let started = Instant::now();
            for cell in cells {
                std::hint::black_box(build_population(&cell.config));
            }
            setup_s.push(started.elapsed().as_secs_f64());
        }
    }
    report.set("setup_s", median(&setup_s));
    report.set("run_s", median(&run_s));
    report.set("peak_rss_mb", peak_rss_mb());
    report.set("cpu_us_per_msg", cpu.total_s() * 1e6 / msgs as f64);
    report.set("deliv_per_s", median(&deliv_per_s));
    report.set("delivered_share", delivered as f64 / intended as f64);
    println!("units {}", run_s.len());

    if smoke {
        return;
    }
    // The runners do not expose delivery delays; the driver's sink
    // sees every delivery, so one untimed pass supplies the median.
    let mut pass = DriverTotals::default();
    for cell in cells {
        pass.add(drive(&cell.config, &mut Off));
    }
    check_driver(report, &pass, cells, &first_unit);
    match pass.delivery_p50_ms() {
        Some(p50) => report.set("deliv_p50_ms", p50),
        None => {
            report.check(false, || "the driver pass delivered nothing".to_owned());
        }
    }
    println!("deliv_samples {}", pass.tally.delivery_delay_ns.len());
}

/// The driver must stay close to the runner it stands in for: within
/// 0.02 of its delivery rate and 2 % of its message total, per cell.
/// Returns the two largest gaps seen.
fn check_driver(
    report: &mut Report,
    pass: &DriverTotals,
    cells: &[Cell],
    runner_results: &[ScenarioResult],
) -> (f64, f64) {
    let (mut rate_gap, mut msgs_gap) = (0.0f64, 0.0f64);
    for ((cell, ours), theirs) in cells.iter().zip(&pass.results).zip(runner_results) {
        let label = cell.label;
        let rate = (ours.overall_delivery_rate - theirs.overall_delivery_rate).abs();
        let msgs = (messages(ours) as f64 / messages(theirs) as f64 - 1.0).abs();
        report.check(rate <= 0.02, || {
            format!("{label}: driver delivery rate is {rate} off the runner's")
        });
        report.check(msgs <= 0.02, || {
            format!("{label}: driver message total is {msgs} off the runner's")
        });
        rate_gap = rate_gap.max(rate);
        msgs_gap = msgs_gap.max(msgs);
    }
    (rate_gap, msgs_gap)
}

/// `--trace 1`: one pass of the driver with spans off, one with spans
/// on, one unit of the program's runner for comparison, and set-up
/// taken apart into overlay build and subscription flood.
pub fn traced(
    report: &mut Report,
    workload: &str,
    runner: Runner,
    cells: &[Cell],
    trace_path: &std::path::Path,
) {
    // First, while the process is still small: resident memory only
    // grows for a population when no earlier run left free pages.
    setup_breakdown(report, &cells[0].config);

    let (mut runner_s, mut windows) = (0.0, 0u64);
    let mut runner_results = Vec::new();
    for cell in cells {
        let run = run_cell(runner, &cell.config);
        check_cell(report, cell, &run.result, true);
        runner_s += run.wall_s;
        windows += run.stats.map_or(0, |s| s.windows);
        runner_results.push(run.result);
    }

    let configs: Vec<&ScenarioConfig> = cells.iter().map(|c| &c.config).collect();
    let untraced = trace_driver(report, workload, &configs, trace_path);
    report.set("harness.runner_vs_driver", runner_s / untraced.wall_s);
    report.set("harness.windows", windows as f64);
    let (rate_gap, msgs_gap) = check_driver(report, &untraced, cells, &runner_results);
    report.set("harness.driver_delivery_gap", rate_gap);
    report.set("harness.driver_msgs_gap", msgs_gap);
}

/// Set-up taken apart: the overlay build alone, then the whole
/// population (the difference is subscription install and flood), and
/// the resident memory the population adds per node.
fn setup_breakdown(report: &mut Report, config: &ScenarioConfig) {
    let started = Instant::now();
    let topology = Topology::build(
        config.overlay,
        config.nodes,
        config.max_degree,
        &mut RngFactory::new(config.seed).stream("topology"),
    );
    let overlay_s = started.elapsed().as_secs_f64();
    drop(topology);
    let rss_before = rss_mb();
    let started = Instant::now();
    let population = build_population(config);
    let population_s = started.elapsed().as_secs_f64();
    let grown_mb = (rss_mb() - rss_before).max(0.0);
    drop(population);
    report.set("overlay.build_s", overlay_s);
    report.set("pubsub.flood_s", (population_s - overlay_s).max(0.0));
    report.set(
        "pubsub.bytes_per_node",
        grown_mb * 1024.0 * 1024.0 / config.nodes as f64,
    );
}

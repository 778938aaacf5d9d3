//! The socket workloads: one `ReactorCluster` with one worker on
//! loopback, measured through `launch`/`finish` and the counters the
//! report carries; the simulator on the same configuration without
//! loss or recovery is the oracle for what the schedule intends.

use std::time::{Duration, Instant};

use eps_gossip::Algorithm;
use eps_harness::{run_scenario, ScenarioResult};
use eps_net::{NetConfig, NetRunReport, ReactorCluster};
use eps_sim::SimTime;

use crate::layers::{deliveries, trace_driver};
use crate::metrics::Report;
use crate::stats::{cpu_time, median, peak_rss_mb, CpuTime, CtxSwitchSampler};

/// One reactor worker plus the coordinator: with two workers on two
/// cores the run measures the scheduler, not the program.
const WORKERS: usize = 1;
/// Clusters launched (and torn down at once) before the measured one,
/// so `setup_s` is a median.
const EXTRA_LAUNCHES: usize = 24;

struct Measured {
    launch_s: Vec<f64>,
    finish_s: f64,
    cpu: CpuTime,
    ctx_switches: u64,
    peak_rss_mb: f64,
    run: NetRunReport,
}

fn launch(config: &NetConfig) -> (ReactorCluster, f64) {
    let started = Instant::now();
    let cluster = ReactorCluster::launch(config.clone(), WORKERS)
        .unwrap_or_else(|e| panic!("cannot boot a loopback cluster: {e}"));
    (cluster, started.elapsed().as_secs_f64())
}

fn measure(config: &NetConfig) -> Measured {
    // Same population and sockets, but a 10 ms schedule and no drain:
    // the launch is what is timed, the cluster stops at once.
    let idle = NetConfig {
        scenario: eps_harness::ScenarioConfig {
            duration: SimTime::from_millis(10),
            warmup: SimTime::from_millis(1),
            cooldown: SimTime::from_millis(1),
            ..config.scenario.clone()
        },
        drain: Duration::ZERO,
        ..config.clone()
    };
    let mut launch_s = Vec::new();
    for _ in 0..EXTRA_LAUNCHES {
        let (cluster, took) = launch(&idle);
        launch_s.push(took);
        cluster.finish();
    }

    let (cluster, took) = launch(config);
    launch_s.push(took);
    let cpu_before = cpu_time();
    let sampler = CtxSwitchSampler::start(Duration::from_millis(250));
    let started = Instant::now();
    let run = cluster.finish();
    let finish_s = started.elapsed().as_secs_f64();
    Measured {
        launch_s,
        finish_s,
        cpu: cpu_time().since(cpu_before),
        ctx_switches: sampler.stop(),
        peak_rss_mb: peak_rss_mb(),
        run,
    }
}

/// What the schedule publishes and intends, from the simulator: the
/// publish sequence is a function of the population alone, so a run
/// without loss or recovery delivers exactly the intended set.
fn oracle(report: &mut Report, config: &NetConfig) -> ScenarioResult {
    let lossless = eps_harness::ScenarioConfig {
        link_error_rate: 0.0,
        algorithm: Algorithm::no_recovery(),
        ..config.scenario.clone()
    };
    let result = run_scenario(&lossless);
    for (field, value) in ScenarioResult::csv_header().iter().zip(result.csv_row()) {
        report.count(format!("oracle.{field}"), value);
    }
    result
}

/// Output checks of a socket run against its oracle (a smoke run has
/// none and is held to what it published itself). Returns the share of
/// intended deliveries made.
fn check(
    report: &mut Report,
    config: &NetConfig,
    m: &Measured,
    oracle: Option<&ScenarioResult>,
    min_delivered_share: f64,
) -> f64 {
    let (result, net) = (&m.run.result, &m.run.net);
    let oracle = oracle.unwrap_or(result);
    let lossless = config.scenario.link_error_rate == 0.0;
    let (intended, _) = deliveries(oracle);
    let (_, delivered) = deliveries(result);
    let share = delivered as f64 / intended as f64;

    report.check(result.events_published == oracle.events_published, || {
        format!(
            "published {} of {} scheduled events",
            result.events_published, oracle.events_published
        )
    });
    report.check(net.decode_errors == 0 && m.run.trace_dropped == 0, || {
        format!(
            "{} decode errors, {} trace records dropped",
            net.decode_errors, m.run.trace_dropped
        )
    });
    report.check(share >= min_delivered_share && share <= 1.0, || {
        format!("delivered {delivered} of {intended} intended (need {min_delivered_share})")
    });
    if lossless {
        report.check(net.frames_sent == oracle.event_msgs, || {
            format!(
                "sent {} frames, the schedule needs {}",
                net.frames_sent, oracle.event_msgs
            )
        });
        report.check(net.queue_drops == 0, || {
            format!("{} frames shed by full link queues", net.queue_drops)
        });
    }
    // An operation is a scheduled publish, and on a lossless network
    // also each delivery it intends; injected loss is the protocol's
    // problem, not a failed operation.
    let unpublished = oracle
        .events_published
        .saturating_sub(result.events_published);
    report.attempted += oracle.events_published;
    report.failed += unpublished;
    if lossless {
        report.attempted += intended;
        report.failed += intended.saturating_sub(delivered);
    }
    share
}

fn latency_ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `--trace 0`. A smoke run is too short for the oracle to bind: the
/// simulator drops a first publish tick drawn past the end of the
/// schedule, the socket runtime fires it.
pub fn end_to_end(report: &mut Report, config: &NetConfig, min_delivered_share: f64, smoke: bool) {
    let m = measure(config);
    let oracle = (!smoke).then(|| oracle(report, config));
    let share = check(report, config, &m, oracle.as_ref(), min_delivered_share);
    let net = &m.run.net;
    let sent = net.frames_sent + net.datagrams_sent;
    report.set("setup_s", median(&m.launch_s));
    report.set("run_s", m.finish_s);
    report.set("peak_rss_mb", m.peak_rss_mb);
    report.set("cpu_us_per_msg", m.cpu.total_s() * 1e6 / sent.max(1) as f64);
    report.set("deliv_per_s", m.run.latency.samples as f64 / m.finish_s);
    report.set("deliv_p50_ms", latency_ms(m.run.latency.p50));
    report.set("delivered_share", share);
    println!("deliv_samples {}", m.run.latency.samples);
}

/// `--trace 1`: the same measured run for the runtime's outside
/// counters, and the driver on the same configuration (virtual time)
/// for what the protocol layers and the codec cost per envelope.
pub fn traced(
    report: &mut Report,
    workload: &str,
    config: &NetConfig,
    min_delivered_share: f64,
    trace_path: &std::path::Path,
) {
    let m = measure(config);
    let oracle = oracle(report, config);
    check(report, config, &m, Some(&oracle), min_delivered_share);

    trace_driver(report, workload, &[&config.scenario], trace_path);

    let (result, net) = (&m.run.result, &m.run.net);
    let scheduled_s = config.scenario.duration.as_secs_f64();
    report.set("net.boot_s", median(&m.launch_s));
    report.set("net.run_s", m.finish_s);
    report.set("net.tail_s", (m.finish_s - scheduled_s).max(0.0));
    report.set("net.cpu_user_s", m.cpu.user_s);
    report.set("net.cpu_sys_s", m.cpu.sys_s);
    report.set("net.cpu_busy_share", m.cpu.total_s() / m.finish_s);
    report.set("net.ctx_switches", m.ctx_switches as f64);
    report.set("net.frames_sent", net.frames_sent as f64);
    report.set("net.datagrams_sent", net.datagrams_sent as f64);
    report.set(
        "net.bytes_per_frame",
        net.bytes_sent as f64 / (net.frames_sent + net.datagrams_sent).max(1) as f64,
    );
    report.set(
        "net.publish_shortfall",
        1.0 - result.events_published as f64 / oracle.events_published.max(1) as f64,
    );
    report.set("net.queue_drops", net.queue_drops as f64);
    report.set("net.injected_drops", net.injected_drops as f64);
    report.set("net.digest_truncations", net.digest_truncations as f64);
    report.set("net.connect_retries", net.connect_retries as f64);
    report.set("net.decode_errors", net.decode_errors as f64);
    report.set("net.deliv_p99_ms", latency_ms(m.run.latency.p99));
    report.set("net.deliv_max_ms", latency_ms(m.run.latency.max));
    report.set("net.deliv_samples", m.run.latency.samples as f64);
}

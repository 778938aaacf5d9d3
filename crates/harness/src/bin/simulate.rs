//! `simulate` — run a single scenario from command-line flags and
//! print a full report. Useful for exploring the parameter space
//! beyond the paper's figures.
//!
//! ```text
//! simulate --algorithm combined-pull --nodes 100 --eps 0.1 \
//!          --beta 1500 --gossip-interval 0.03 --duration 25 [--adaptive]
//! ```
//!
//! With several `--algorithm` flags the runs execute in parallel on
//! `--jobs` worker threads (default: all cores); reports print in the
//! requested order and are identical for every job count. A single
//! run uses one thread.

use std::process::ExitCode;

use eps_gossip::Algorithm;
use eps_harness::parallel::{default_jobs, par_map};
use eps_harness::{run_scenario_with_stats, AdaptiveGossip, ScenarioConfig};
use eps_sim::SimTime;

fn main() -> ExitCode {
    let mut config = ScenarioConfig::default();
    let mut algorithms: Vec<Algorithm> = Vec::new();
    let mut jobs: Option<usize> = None;
    let mut adaptive = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = || iter.next().cloned().ok_or(format!("{arg} needs a value"));
        let result: Result<(), String> = (|| {
            match arg.as_str() {
                "--algorithm" | "-a" => {
                    algorithms.push(value()?.parse().map_err(|e| format!("{e}"))?)
                }
                "--nodes" | "-n" => config.nodes = parse(&value()?)?,
                "--overlay" => config.overlay = value()?.parse()?,
                "--max-degree" => config.max_degree = parse(&value()?)?,
                "--seed" => config.seed = parse(&value()?)?,
                "--eps" => config.link_error_rate = parse(&value()?)?,
                "--beta" => config.buffer_size = parse(&value()?)?,
                "--pi-max" | "--patterns-per-node" => config.pi_max = parse(&value()?)?,
                "--patterns" => config.pattern_universe = parse(&value()?)?,
                "--clients" | "--clients-per-node" => config.clients_per_node = parse(&value()?)?,
                "--zipf" => config.zipf_s = parse(&value()?)?,
                "--publish-rate" => config.publish_rate = parse(&value()?)?,
                "--gossip-interval" => {
                    config.gossip_interval = SimTime::from_secs_f64(parse(&value()?)?)
                }
                "--duration" => config.duration = SimTime::from_secs_f64(parse(&value()?)?),
                "--rho" => {
                    config.reconfig_interval = Some(SimTime::from_secs_f64(parse(&value()?)?))
                }
                "--payload-bits" => config.event_payload_bits = parse(&value()?)?,
                "--p-forward" => config.gossip.p_forward = parse(&value()?)?,
                "--p-source" => config.gossip.p_source = parse(&value()?)?,
                "--adaptive" => adaptive = true,
                "--churn" => {
                    config.churn_interval = Some(SimTime::from_secs_f64(parse(&value()?)?))
                }
                "--jobs" | "-j" => jobs = Some(parse(&value()?)?),
                "--help" | "-h" => {
                    print_usage();
                    std::process::exit(0);
                }
                other => return Err(format!("unknown flag '{other}'")),
            }
            Ok(())
        })();
        if let Err(err) = result {
            eprintln!("error: {err}");
            print_usage();
            return ExitCode::FAILURE;
        }
    }
    if algorithms.is_empty() {
        algorithms.push(Algorithm::combined_pull());
    }
    if adaptive {
        // Built after the loop so the back-off brackets the interval
        // the run uses, wherever `--gossip-interval` stood.
        config.adaptive_gossip = Some(AdaptiveGossip::around(config.gossip_interval));
    }
    // Short runs: shrink the default measurement margins so the
    // window stays non-empty.
    if config.warmup + config.cooldown >= config.duration {
        config.warmup = config.duration.mul_f64(0.125);
        config.cooldown = config.duration.mul_f64(0.25);
    }

    let configs: Vec<ScenarioConfig> = algorithms
        .iter()
        .map(|kind| {
            let config = config.with_algorithm(*kind);
            config.validate();
            config
        })
        .collect();
    let started = std::time::Instant::now();
    let worker_count = jobs.unwrap_or_else(default_jobs).max(1);
    let results = par_map(worker_count, &configs, run_scenario_with_stats);
    let elapsed = started.elapsed().as_secs_f64();
    let (setup, events, elided) =
        results
            .iter()
            .fold((0.0, 0, 0), |(setup, events, elided), (_, stats)| {
                (
                    setup + stats.setup_wall.as_secs_f64(),
                    events + stats.events_processed,
                    elided + stats.rounds_elided,
                )
            });
    for (kind, (r, _)) in algorithms.iter().zip(results) {
        println!("== {} ==", kind.name());
        println!("  delivery rate (window) {:>10.3}", r.delivery_rate);
        println!("  delivery rate (whole)  {:>10.3}", r.overall_delivery_rate);
        println!("  worst bin rate         {:>10.3}", r.min_bin_rate);
        println!("  events published       {:>10}", r.events_published);
        println!("  receivers per event    {:>10.2}", r.receivers_per_event);
        println!("  event messages         {:>10}", r.event_msgs);
        println!("  gossip messages        {:>10}", r.gossip_msgs);
        println!("  gossip per dispatcher  {:>10.1}", r.gossip_per_dispatcher);
        println!("  gossip / event ratio   {:>10.3}", r.gossip_event_ratio);
        println!("  oob requests / replies {:>6} / {}", r.requests, r.replies);
        println!("  events recovered       {:>10}", r.events_recovered);
        println!(
            "  recovery latency       {:>7.3}s mean / {:.3}s p95",
            r.recovery_latency_mean, r.recovery_latency_p95
        );
        println!("  outstanding losses     {:>10}", r.outstanding_losses);
        // The anti-entropy wire-cost axis: digests, out-of-band
        // requests, and the control total the summary-reconciliation
        // evaluation compares on (replies carry event copies and are
        // excluded from the control figure).
        println!("  gossip wire bits       {:>10}", r.gossip_wire_bits);
        println!("  request wire bits      {:>10}", r.request_wire_bits);
        println!("  reply wire bits        {:>10}", r.reply_wire_bits);
        println!("  recovery control bits  {:>10}", r.recovery_control_bits());
        if config.overlay != eps_overlay::OverlayKind::Tree || r.duplicate_suppressed > 0 {
            println!("  duplicates suppressed  {:>10}", r.duplicate_suppressed);
        }
        if r.lost_evictions > 0 {
            println!("  lost-buffer evictions  {:>10}", r.lost_evictions);
        }
        println!("  reconfigurations       {:>10}", r.reconfigurations);
        if r.churn_events > 0 {
            println!("  subscription swaps     {:>10}", r.churn_events);
            println!("  subscription messages  {:>10}", r.subscription_msgs);
        }
        // Always printed: at --clients 1 these collapse to the
        // single-subscriber numbers, and tier1.sh's aggregation smoke
        // reads both cells to assert sublinear wire growth.
        println!("  client subscriptions   {:>10}", r.client_subscriptions);
        println!("  aggregate patterns     {:>10}", r.aggregate_patterns);
        println!("  routing entries        {:>10}", r.routing_entries);
        println!("  setup subscription msgs{:>10}", r.setup_subscription_msgs);
    }
    // The process's own peak, where procfs reports it: a parent that
    // measures the child's peak through `getrusage` also counts the
    // image it forked from.
    let peak = peak_rss_mb().map_or_else(String::new, |mb| format!(", peak rss {mb:.1} MB"));
    eprintln!(
        "total wall time {elapsed:.3}s (set-up {setup:.3}s), events processed {events}, \
         gossip rounds elided {elided}{peak}"
    );
    ExitCode::SUCCESS
}

/// This process's peak resident set (`VmHWM`) in MiB; `None` on
/// platforms without procfs.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("cannot parse '{s}'"))
}

fn print_usage() {
    eprintln!(
        "usage: simulate [--algorithm NAME]... [--nodes N] [--eps E] [--beta B]\n\
         \t[--overlay tree|ba|ws] [--max-degree D]\n\
         \t[--pi-max P] [--publish-rate R] [--gossip-interval T] [--duration D]\n\
         \t[--rho RHO] [--churn C] [--p-forward P] [--p-source P] [--seed S] [--adaptive]\n\
         \t[--payload-bits P]\n\
         \t[--patterns PI] [--patterns-per-node P] [--clients C] [--zipf S]\n\
         \t[--jobs N]\n\
         --overlay picks the physical graph builder: tree (acyclic, the paper's\n\
         topology), ba (Barabasi-Albert scale-free), ws (Watts-Strogatz\n\
         small-world); events route on the BFS view, cross links carry\n\
         redundant copies that are counted as 'duplicates suppressed'\n\
         --max-degree bounds every node's degree, 2 to 63 (a routing-table row\n\
         holds 63 neighbors)\n\
         --patterns sets the pattern universe size Pi (content-model density);\n\
         --patterns-per-node is an alias for --pi-max\n\
         --clients attaches C end-user clients to each dispatcher (default 1);\n\
         each client draws its own pi-max subscriptions and the dispatcher\n\
         routes on the aggregated (covering/merged) filter\n\
         --zipf skews pattern popularity with exponent S (0 = uniform)\n\
         algorithms (case-insensitive, aliases accepted): {}",
        Algorithm::all()
            .iter()
            .map(|a| a.name().to_owned())
            .collect::<Vec<_>>()
            .join(", ")
    );
}

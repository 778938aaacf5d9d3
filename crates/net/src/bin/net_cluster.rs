//! `net_cluster` — run a scenario over real sockets and print one CSV
//! row in the simulator's result schema (plus the socket-layer
//! counters), so a spreadsheet can line a wire run up against a
//! simulated one column-for-column.
//!
//! Single-process (default): boots the whole tree on loopback, every
//! dispatcher multiplexed onto `--workers` epoll threads (default 2).
//!
//! ```text
//! net_cluster --nodes 8 --algorithm push --eps 0.05 --duration 1.2
//! ```
//!
//! Multi-process: every process is given the *same* full peer list
//! and derives the identical population from the shared seed; each
//! one runs the node whose address it was told to listen on, on one
//! epoll thread. Peers may start in any order — dialers retry with
//! backoff.
//!
//! ```text
//! net_cluster --nodes 3 --peers 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 \
//!             --listen 127.0.0.1:7002 ...
//! ```
//!
//! Each peer address doubles as both the TCP (tree) and UDP
//! (out-of-band) endpoint — same port number, different protocol.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Duration;

use eps_gossip::Algorithm;
use eps_harness::ScenarioResult;
use eps_metrics::NetCounters;
use eps_net::{run_process_node, run_reactor_cluster, NetConfig, NodeAddrs, ReactorCluster};
use eps_sim::SimTime;

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {err}");
            print_usage();
            ExitCode::FAILURE
        }
    }
}

fn run(args: Vec<String>) -> Result<(), String> {
    let mut config = NetConfig::default();
    let mut restarts: Vec<usize> = Vec::new();
    let mut peers: Vec<SocketAddr> = Vec::new();
    let mut listen: Option<SocketAddr> = None;
    let mut workers: Option<usize> = None;
    let mut adaptive = false;

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = || iter.next().cloned().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--nodes" | "-n" => config.scenario.nodes = parse(&value()?)?,
            "--seed" => config.scenario.seed = parse(&value()?)?,
            "--algorithm" | "-a" => {
                config.scenario.algorithm = value()?.parse().map_err(|e| format!("{e}"))?
            }
            "--eps" => config.scenario.link_error_rate = parse(&value()?)?,
            "--beta" => config.scenario.buffer_size = parse(&value()?)?,
            "--pi-max" => config.scenario.pi_max = parse(&value()?)?,
            "--pattern-universe" => config.scenario.pattern_universe = parse(&value()?)?,
            "--publish-rate" => config.scenario.publish_rate = parse(&value()?)?,
            "--gossip-interval" => {
                config.scenario.gossip_interval = SimTime::from_secs_f64(parse(&value()?)?)
            }
            "--duration" => config.scenario.duration = SimTime::from_secs_f64(parse(&value()?)?),
            "--adaptive" => adaptive = true,
            "--drain" => config.drain = Duration::from_secs_f64(parse(&value()?)?),
            "--queue-capacity" => config.queue_capacity = parse(&value()?)?,
            "--restart" => restarts.push(parse(&value()?)?),
            "--peers" => {
                for addr in value()?.split(',') {
                    peers.push(parse(addr.trim())?);
                }
            }
            "--listen" => listen = Some(parse(&value()?)?),
            "--workers" => workers = Some(parse(&value()?)?),
            "--help" | "-h" => {
                print_usage();
                return Ok(());
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    config.scenario.finish_flags(adaptive)?;
    config.check()?;

    let report = match (listen, peers.is_empty()) {
        (None, true) => {
            let workers = workers.unwrap_or(2);
            if restarts.is_empty() {
                run_reactor_cluster(config, workers).map_err(|e| format!("cluster failed: {e}"))?
            } else {
                run_with_restarts(config, &restarts, workers)?
            }
        }
        (Some(listen), false) => {
            if !restarts.is_empty() {
                return Err("--restart only applies to single-process runs".into());
            }
            if workers.is_some() {
                return Err("--workers only applies to single-process runs".into());
            }
            run_one_process(config, listen, peers)?
        }
        (Some(_), true) => return Err("--listen needs --peers".into()),
        (None, false) => return Err("--peers needs --listen".into()),
    };
    print_csv(&report.result, &report.net);
    Ok(())
}

/// Single-process run with forced mid-workload restarts: each listed
/// node is stopped, held down briefly, and relaunched — exercising
/// the peers' dial retry/backoff path.
fn run_with_restarts(
    config: NetConfig,
    restarts: &[usize],
    workers: usize,
) -> Result<eps_net::NetRunReport, String> {
    let nodes = config.scenario.nodes;
    for &index in restarts {
        if index >= nodes {
            return Err(format!("--restart {index} out of range (nodes = {nodes})"));
        }
    }
    let wall = Duration::from_nanos(config.scenario.duration.as_nanos());
    // Let the workload establish itself, then knock the nodes over one
    // at a time in the first half of the run, leaving the rest of the
    // duration plus the drain budget for recovery.
    let mut cluster =
        ReactorCluster::launch(config, workers).map_err(|e| format!("cluster failed: {e}"))?;
    std::thread::sleep(wall.mul_f64(0.25));
    for &index in restarts {
        cluster
            .restart_node(index, Duration::from_millis(150))
            .map_err(|e| format!("restart of node {index} failed: {e}"))?;
    }
    Ok(cluster.finish())
}

fn run_one_process(
    config: NetConfig,
    listen: SocketAddr,
    peers: Vec<SocketAddr>,
) -> Result<eps_net::NetRunReport, String> {
    if peers.len() != config.scenario.nodes {
        return Err(format!(
            "--peers lists {} addresses but --nodes is {}",
            peers.len(),
            config.scenario.nodes
        ));
    }
    let index = peers
        .iter()
        .position(|&p| p == listen)
        .ok_or("--listen address must appear in --peers")?;
    let registry: Vec<NodeAddrs> = peers
        .into_iter()
        .map(|addr| NodeAddrs {
            tcp: addr,
            udp: addr,
        })
        .collect();
    eprintln!("node {index} of {}: listening on {listen}", registry.len());
    run_process_node(&config, index, registry).map_err(|e| format!("node failed: {e}"))
}

fn print_csv(result: &ScenarioResult, net: &NetCounters) {
    let header: Vec<&str> = ScenarioResult::csv_header()
        .iter()
        .copied()
        .chain(NetCounters::csv_header().iter().copied())
        .collect();
    println!("{}", header.join(","));
    let mut row = result.csv_row();
    row.extend(net.csv_row());
    println!("{}", row.join(","));
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("cannot parse '{s}'"))
}

fn print_usage() {
    eprintln!(
        "usage: net_cluster [--nodes N] [--seed S] [--algorithm NAME] [--eps E]\n\
         \t[--beta B] [--pi-max P] [--pattern-universe U] [--publish-rate R]\n\
         \t[--gossip-interval T] [--duration D] [--adaptive] [--drain D]\n\
         \t[--queue-capacity Q] [--restart IDX]...\n\
         \t[--workers W]   (epoll threads of a single-process run, default 2)\n\
         \t[--peers A1,A2,... --listen ADDR]   (multi-process mode, one node)\n\
         algorithms (case-insensitive, aliases accepted): {}",
        Algorithm::all()
            .iter()
            .map(|a| a.name().to_owned())
            .collect::<Vec<_>>()
            .join(", ")
    );
}

//! Cluster assembly and orchestration: boots an N-node tree over
//! loopback sockets, runs the scenario's workload in wall-clock time,
//! and assembles the run's delivery ledger and counters into the
//! simulator's [`ScenarioResult`] schema plus the socket-layer
//! [`NetCounters`].
//!
//! The population (topology, subscriptions, node actors) comes from
//! the harness's shared `build_population`, so a [`NetConfig`] with
//! the same seed as a simulator run boots the *identical* population —
//! the basis of the sim-vs-wire cross-validation tests.
//!
//! The epoll [`crate::ReactorCluster`] executes that population: it
//! boots through [`boot_population`] and reports through
//! [`aggregate_cores`], so scheduling and socket mechanics stay out of
//! protocol state and accounting.

use std::net::{SocketAddr, TcpListener, UdpSocket};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use eps_harness::{
    assemble, build_population, routing_stats, Population, ScenarioConfig, ScenarioResult,
};
use eps_metrics::{MessageCounters, NetCounters};
use eps_sim::{Rng, RngFactory};

use crate::core::{NodeCore, Shared};

/// Where one node listens: its TCP (tree links) and UDP (out-of-band)
/// socket addresses.
#[derive(Clone, Copy, Debug)]
pub struct NodeAddrs {
    /// The tree-link listener.
    pub tcp: SocketAddr,
    /// The out-of-band datagram socket.
    pub udp: SocketAddr,
}

/// One real-socket run: the simulator's scenario parameters plus the
/// two knobs only a socket runtime has. Delivery accounting needs no
/// knob: every node call writes into one unbounded tracker per
/// process, as the simulator's runner does.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// The scenario: topology, workload, algorithm — identical
    /// meaning to the simulator's. `duration` is interpreted as wall
    /// time (1 virtual second = 1 wall second).
    pub scenario: ScenarioConfig,
    /// Maximum wall time to wait after the workload for outstanding
    /// recoveries to converge (the run stops earlier the moment every
    /// intended delivery has happened).
    pub drain: Duration,
    /// Bounded outbound queue, in frames per link.
    pub queue_capacity: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            scenario: ScenarioConfig::default(),
            drain: Duration::from_secs(2),
            queue_capacity: 1024,
        }
    }
}

impl NetConfig {
    /// Checks internal consistency: the scenario's own rules
    /// ([`ScenarioConfig::check`]), then the socket runtime's. It
    /// supports neither topological reconfiguration nor subscription
    /// churn (the overlay tree is fixed at boot), and its queues need
    /// room. Returns the first violated rule.
    pub fn check(&self) -> Result<(), String> {
        self.scenario.check()?;
        if self.scenario.reconfig_interval.is_some() {
            Err("the socket runtime does not reconfigure the overlay".into())
        } else if self.scenario.churn_interval.is_some() {
            Err("the socket runtime does not churn subscriptions".into())
        } else if self.queue_capacity == 0 {
            Err("queues need capacity".into())
        } else {
            Ok(())
        }
    }

    /// Checks internal consistency, as [`NetConfig::check`] does.
    ///
    /// # Panics
    ///
    /// Panics with the first violated rule's message.
    pub fn validate(&self) {
        self.check().unwrap_or_else(|message| panic!("{message}"));
    }
}

/// End-to-end delivery latency over one run: publish-to-deliver wall
/// time, sampled at every client delivery record (first copies and
/// recoveries alike). The simulator has no wall clock, so this lives
/// beside [`ScenarioResult`] rather than inside it.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeliveryLatency {
    /// Delivery records sampled.
    pub samples: u64,
    /// Median latency.
    pub p50: Duration,
    /// 99th-percentile latency (nearest-rank).
    pub p99: Duration,
    /// Worst observed latency.
    pub max: Duration,
}

/// What a finished cluster run reports: the simulator's result schema
/// assembled from the same code path, from one delivery tracker per
/// process that every node call wrote into, plus the socket-layer
/// counters.
#[derive(Clone, Debug)]
pub struct NetRunReport {
    /// The shared summary schema (delivery rates, message counts,
    /// recovery latencies) — directly comparable to a simulator run.
    pub result: ScenarioResult,
    /// Socket-layer runtime counters, summed over nodes.
    pub net: NetCounters,
    /// Always 0: deliveries are counted in an unbounded ledger, not a
    /// bounded trace. Kept because `benchmark/src/net.rs` reads it.
    #[doc(hidden)]
    pub trace_dropped: u64,
    /// Publish-to-deliver latency percentiles (wall clock).
    pub latency: DeliveryLatency,
}

/// One booted-but-not-running node: the protocol core plus its bound
/// sockets and dial-jitter stream.
pub(crate) struct BootNode {
    pub core: NodeCore,
    pub listener: TcpListener,
    pub udp: UdpSocket,
    pub dial_rng: Rng,
}

/// A booted population slice: every socket of the slice bound (so the
/// address registry is complete before the first dial), every core
/// built, and the run-wide state they share.
pub(crate) struct Boot {
    pub registry: Vec<NodeAddrs>,
    /// Global index of `nodes[0]`.
    pub base: usize,
    pub nodes: Vec<BootNode>,
    pub setup_subscription_msgs: u64,
    /// The run-wide state every core of the slice reads and writes.
    pub shared: Shared,
}

/// Builds the population and binds sockets for the slice this process
/// runs: with `process = None` every node, on ephemeral loopback
/// ports; with `Some((index, registry))` node `index` alone, on
/// `registry[index]` — one process of a multi-process cluster, whose
/// peers derive the identical population from the shared seed.
pub(crate) fn boot_population(
    config: &NetConfig,
    process: Option<(usize, Vec<NodeAddrs>)>,
) -> std::io::Result<Boot> {
    config.validate();
    let scenario = &config.scenario;
    let Population {
        topology,
        view,
        space,
        nodes,
        subscribers_of,
        setup_subscription_msgs,
    } = build_population(scenario);

    let mut sockets = Vec::new();
    let (base, registry) = match process {
        Some((index, registry)) => {
            sockets.push((
                TcpListener::bind(registry[index].tcp)?,
                UdpSocket::bind(registry[index].udp)?,
            ));
            (index, registry)
        }
        None => {
            let mut registry = Vec::with_capacity(scenario.nodes);
            for _ in 0..scenario.nodes {
                let listener = TcpListener::bind("127.0.0.1:0")?;
                let udp = UdpSocket::bind("127.0.0.1:0")?;
                registry.push(NodeAddrs {
                    tcp: listener.local_addr()?,
                    udp: udp.local_addr()?,
                });
                sockets.push((listener, udp));
            }
            (0, registry)
        }
    };

    let factory = RngFactory::new(scenario.seed);
    let mut boot_nodes = Vec::with_capacity(sockets.len());
    for (node, (listener, udp)) in nodes.into_iter().skip(base).zip(sockets) {
        let id = node.id();
        // TCP tree links follow the routing view; the physical
        // neighborhood (gossip partners, cross links over UDP) is
        // passed alongside.
        let neighbors = view.neighbors(id).to_vec();
        let graph_neighbors = topology.neighbors(id).to_vec();
        boot_nodes.push(BootNode {
            core: NodeCore::new(node, neighbors, graph_neighbors, config, &factory),
            listener,
            udp,
            // A non-protocol stream: jittering dial retries must not
            // perturb the protocol draws the simulator makes.
            dial_rng: factory.indexed_stream("net-dial", id.index() as u64),
        });
    }
    Ok(Boot {
        registry,
        base,
        nodes: boot_nodes,
        setup_subscription_msgs,
        shared: Shared::new(scenario.clone(), space, subscribers_of),
    })
}

/// Polls the ledger until the workload has finished and every
/// intended delivery has happened, or the drain budget runs out.
pub(crate) fn wait_for_convergence(shared: &Shared, drain: Duration, start: Instant) {
    let n = shared.scenario.nodes as u64;
    let wall = Duration::from_nanos(shared.scenario.duration.as_nanos());
    let deadline = start + wall + drain;
    loop {
        let converged = shared.publishers_done.load(Ordering::Relaxed) >= n && {
            let ledger = shared.ledger();
            ledger.tracker.delivered_total() >= ledger.tracker.expected_total()
        };
        if converged || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Rebinding a just-freed address can race the kernel's cleanup;
/// retry briefly instead of failing the restart.
pub(crate) fn bind_with_retry<S>(
    mut bind: impl FnMut() -> std::io::Result<S>,
) -> std::io::Result<S> {
    for _ in 1..40 {
        if let Ok(sock) = bind() {
            return Ok(sock);
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    // The fortieth attempt's error is the one reported.
    bind()
}

/// Assembles the report through the same `assemble` path the
/// simulator uses: the ledger every node call wrote into, the workers'
/// merged `counters`, and what the nodes hold at the end.
pub(crate) fn aggregate_cores(
    shared: &Shared,
    cores: &[NodeCore],
    mut counters: MessageCounters,
    setup_subscription_msgs: u64,
) -> NetRunReport {
    let mut net = NetCounters::default();
    for core in cores {
        net.absorb(&core.net);
    }
    let outstanding = cores.iter().map(NodeCore::outstanding_losses).sum();
    counters.count_lost_evictions(cores.iter().map(NodeCore::lost_evictions).sum());
    let routing = routing_stats(
        cores.iter().map(NodeCore::sim_node),
        setup_subscription_msgs,
    );
    let mut ledger = shared.ledger();
    let result = assemble(
        &shared.scenario,
        &ledger.tracker,
        &counters,
        outstanding,
        0,
        0,
        routing,
    );
    NetRunReport {
        result,
        net,
        trace_dropped: 0,
        latency: latency_percentiles(&mut ledger.latencies_ns),
    }
}

/// Nearest-rank percentiles over the publish-to-deliver samples.
fn latency_percentiles(latencies_ns: &mut [u64]) -> DeliveryLatency {
    latencies_ns.sort_unstable();
    let Some(&max) = latencies_ns.last() else {
        return DeliveryLatency::default();
    };
    let at = |pct: u64| {
        let idx = ((latencies_ns.len() as u64 - 1) * pct / 100) as usize;
        Duration::from_nanos(latencies_ns[idx])
    };
    DeliveryLatency {
        samples: latencies_ns.len() as u64,
        p50: at(50),
        p99: at(99),
        max: Duration::from_nanos(max),
    }
}

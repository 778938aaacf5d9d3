//! The scenario runner: one scenario's node population partitioned
//! into shards that advance under a conservative time-window barrier.
//! It is the only simulation runner — [`run_scenario`] is the
//! one-shard case, executed inline — so the paper's N = 100 figures
//! and a 10⁵-dispatcher scale run are the same experiment at different
//! sizes and thread counts.
//!
//! # Architecture
//!
//! The population is split into contiguous node ranges, one
//! [`Shard`] per range. Each shard owns its nodes, a local
//! [`KeyedEngine`] event queue, a local transport (every directed link
//! `(from, to)` is touched only by the shard owning `from`), and
//! per-node RNG streams. A coordinator advances the run in half-open
//! windows `[m, min(m + W, g))` where `m` is the earliest pending node
//! event anywhere, `g` the next coordinator-level event (link break,
//! repair, churn), and `W` the *lookahead*: the smallest delay any
//! channel can add to a message ([`ShardTransport::min_delay`] — the
//! link propagation delay in the paper's setup). No send made inside a
//! window can arrive before the window ends, so shards execute a
//! window concurrently without ever seeing each other's in-window
//! traffic; envelopes crossing shard boundaries are exchanged at the
//! barrier. With one shard the windows run inline on the calling
//! thread; with more, one worker thread per shard.
//!
//! # Determinism
//!
//! The same configuration (including seed) produces the same result,
//! bit for bit, for every shard count, by construction:
//!
//! - Same-instant events are ordered by an event-derived key
//!   (`(class, to, from, per-sender sequence)`), never by insertion
//!   order, so each node processes its events in a shard-invariant
//!   order ([`KeyedEngine`]).
//! - Every random draw comes from a per-node stream (gossip decisions,
//!   link loss, workload) or a coordinator-only stream (reconfig,
//!   churn), so no draw order depends on the partition.
//! - Metrics are journaled per shard ([`DeliveryLog`]) and replayed
//!   into one tracker in canonical sorted order after the run; message
//!   counters are absorbed in shard-id order.
//!
//! The golden suite pins the bytes and their shard-count invariance.

use std::sync::mpsc;
use std::sync::Arc;

use eps_gossip::{Channel, Envelope};
use eps_metrics::{DeliveryLog, DeliveryTracker, MessageCounters};
use eps_overlay::{plan_reconnection, LinkSpec, NodeId, RoutingView, ShardTransport, Topology};
use eps_pubsub::{rebuild_subscription_routes, ClientId, PatternId, PatternSpace, PubSubMessage};
use eps_sim::{KeyedEngine, Rng, RngFactory, SimTime};

use crate::config::ScenarioConfig;
use crate::node::{routing_stats, NodeCtx, Outgoing, SimNode};
use crate::population::{build_population, cross_targets_for, Population};
use crate::result::{assemble, ScenarioResult};
use crate::trace::{ScenarioTrace, TraceRecord};

/// Runs one scenario to completion.
///
/// Deterministic: the same configuration (including seed) produces the
/// same result, bit for bit. This is [`run_scenario_sharded`] at one
/// shard: the windows run inline on the calling thread.
///
/// # Examples
///
/// ```
/// use eps_harness::{run_scenario, ScenarioConfig};
/// use eps_gossip::Algorithm;
/// use eps_sim::SimTime;
///
/// let config = ScenarioConfig {
///     nodes: 20,
///     duration: SimTime::from_secs(3),
///     warmup: SimTime::from_millis(500),
///     cooldown: SimTime::from_millis(500),
///     algorithm: Algorithm::push(),
///     ..ScenarioConfig::default()
/// };
/// let result = run_scenario(&config);
/// assert!(result.delivery_rate > 0.0 && result.delivery_rate <= 1.0);
/// ```
pub fn run_scenario(config: &ScenarioConfig) -> ScenarioResult {
    run_scenario_sharded(config, 1)
}

/// Like [`run_scenario`], but also collects a bounded
/// [`ScenarioTrace`] of publishes, deliveries, detections, and
/// reconfigurations — for debugging and white-box tests. Runs at one
/// shard, so node records and the coordinator's link records land in
/// one log in occurrence order. Tracing does not perturb the
/// simulation: the traced result equals the untraced one.
pub fn run_scenario_traced(
    config: &ScenarioConfig,
    trace_capacity: usize,
) -> (ScenarioResult, ScenarioTrace) {
    let (result, _, trace) = run(config, 1, Some(ScenarioTrace::new(trace_capacity)));
    (result, trace.expect("trace was installed"))
}

/// Runs one scenario split across `shards` worker shards.
///
/// Deterministic: the same configuration produces the same result, bit
/// for bit, **for every `shards` value** — `shards` only chooses how
/// the work is executed. A value of 1 runs the windows inline without
/// threads; larger values use one worker thread per shard. `shards` is
/// clamped to the node count.
///
/// # Examples
///
/// ```
/// use eps_harness::{run_scenario_sharded, ScenarioConfig};
/// use eps_sim::SimTime;
///
/// let config = ScenarioConfig {
///     nodes: 20,
///     duration: SimTime::from_secs(3),
///     warmup: SimTime::from_millis(500),
///     cooldown: SimTime::from_millis(500),
///     ..ScenarioConfig::default()
/// };
/// let inline = run_scenario_sharded(&config, 1);
/// let split = run_scenario_sharded(&config, 2);
/// assert_eq!(inline, split);
/// ```
pub fn run_scenario_sharded(config: &ScenarioConfig, shards: usize) -> ScenarioResult {
    run_scenario_sharded_with_stats(config, shards).0
}

/// Execution statistics of one run, for throughput reporting.
#[derive(Clone, Copy, Debug)]
pub struct ShardedRunStats {
    /// Node-level events processed, summed over shards.
    pub events_processed: u64,
    /// Barrier windows executed.
    pub windows: u64,
    /// Shards actually used (after clamping to the node count).
    pub shards: usize,
    /// Wall-clock time spent building the population and partitioning
    /// it into shards (independent of the shard count).
    pub setup_wall: std::time::Duration,
    /// Wall-clock time spent in the windowed event loop — the part a
    /// higher shard count can speed up.
    pub loop_wall: std::time::Duration,
}

/// Like [`run_scenario_sharded`], also returning execution statistics.
pub fn run_scenario_sharded_with_stats(
    config: &ScenarioConfig,
    shards: usize,
) -> (ScenarioResult, ShardedRunStats) {
    let (result, stats, _) = run(config, shards, None);
    (result, stats)
}

/// The one world loop behind every entry point. A `trace`, when given,
/// is lent to shard 0 for the run (callers pass one only with a single
/// shard) and handed back at the end.
fn run(
    config: &ScenarioConfig,
    shards: usize,
    trace: Option<ScenarioTrace>,
) -> (ScenarioResult, ShardedRunStats, Option<ScenarioTrace>) {
    config.validate();
    assert!(shards >= 1, "need at least one shard");
    let setup_started = std::time::Instant::now();
    let shard_count = shards.min(config.nodes);

    let factory = RngFactory::new(config.seed);
    let Population {
        topology,
        view,
        space,
        nodes,
        subscriptions: _,
        client_subscriptions: _,
        subscribers_of,
        setup_subscription_msgs,
    } = build_population(config);

    let link = config.link_spec();

    // Partition into contiguous ranges of ⌈N/K⌉ nodes; trailing shards
    // may be smaller (or elided entirely when K does not divide N).
    let n = config.nodes;
    let per = n.div_ceil(shard_count);
    let mut shard_list: Vec<Option<Box<Shard>>> = Vec::new();
    let mut node_iter = nodes.into_iter();
    let mut base = 0usize;
    while base < n {
        let count = per.min(n - base);
        let shard_nodes: Vec<SimNode> = node_iter.by_ref().take(count).collect();
        let mut shard = Box::new(Shard::new(base as u32, shard_nodes, link, config, &factory));
        shard.seed_ticks(config, &factory);
        shard_list.push(Some(shard));
        base += count;
    }
    let first = shard_list[0].as_mut().expect("shard present");
    first.trace = trace;
    // Positive by `ScenarioConfig::validate`.
    let lookahead = first.transport.min_delay();

    let mut coord = Coordinator {
        config,
        shared: Arc::new(RunShared {
            topology,
            view,
            tree_overlay: config.overlay.is_tree(),
            space,
            subscribers_of,
        }),
        shards: shard_list,
        per,
        lookahead,
        global: KeyedEngine::new(),
        global_seq: 0,
        reconfig_rng: factory.stream("reconfig"),
        churn_rng: factory.stream("churn"),
        reconfigurations: 0,
        churn_events: 0,
        windows: 0,
    };
    if let Some(rho) = config.reconfig_interval {
        if rho < config.duration {
            coord.schedule_global(rho, GlobalEvent::Break);
        }
    }
    if let Some(churn) = config.churn_interval {
        if churn < config.duration {
            coord.schedule_global(churn, GlobalEvent::ChurnTick);
        }
    }

    let setup_wall = setup_started.elapsed();
    let loop_started = std::time::Instant::now();

    if coord.shards.len() == 1 {
        // Inline fast path: identical windowed semantics, no threads.
        coord.run(|shards, shared, config, end| {
            shards[0]
                .as_mut()
                .expect("shard home at the barrier")
                .run_window(shared, config, end);
        });
    } else {
        let worker_count = coord.shards.len();
        std::thread::scope(|scope| {
            let (res_tx, res_rx) = mpsc::sync_channel::<(usize, Box<Shard>)>(worker_count);
            let mut job_txs: Vec<mpsc::SyncSender<Job>> = Vec::with_capacity(worker_count);
            for i in 0..worker_count {
                let (tx, rx) = mpsc::sync_channel::<Job>(1);
                let res_tx = res_tx.clone();
                scope.spawn(move || {
                    while let Ok(job) = rx.recv() {
                        let Job {
                            mut shard,
                            shared,
                            window_end,
                        } = job;
                        shard.run_window(&shared, config, window_end);
                        // Release the shared-state handle *before*
                        // reporting back: the coordinator mutates the
                        // topology and subscriber index between
                        // windows via `Arc::get_mut`, which requires
                        // that no worker still holds a clone.
                        drop(shared);
                        res_tx.send((i, shard)).expect("coordinator receives");
                    }
                });
                job_txs.push(tx);
            }
            coord.run(|shards, shared, _config, end| {
                let mut dispatched = 0usize;
                for (i, slot) in shards.iter_mut().enumerate() {
                    let busy = slot
                        .as_ref()
                        .expect("shard home at the barrier")
                        .engine
                        .peek_time()
                        .is_some_and(|t| t < end);
                    if busy {
                        let shard = slot.take().expect("shard present");
                        job_txs[i]
                            .send(Job {
                                shard,
                                shared: Arc::clone(shared),
                                window_end: end,
                            })
                            .expect("worker alive");
                        dispatched += 1;
                    }
                }
                for _ in 0..dispatched {
                    let (i, shard) = res_rx.recv().expect("worker replies");
                    shards[i] = Some(shard);
                }
            });
            // Dropping the job senders ends the worker loops.
            drop(job_txs);
        });
    }

    let loop_wall = loop_started.elapsed();

    let mut shards_done: Vec<Box<Shard>> = coord
        .shards
        .into_iter()
        .map(|s| s.expect("all shards home after the run"))
        .collect();
    let trace = shards_done[0].trace.take();
    let routing = routing_stats(
        shards_done.iter().flat_map(|s| s.nodes.iter()),
        setup_subscription_msgs,
    );
    let outstanding: u64 = shards_done
        .iter()
        .flat_map(|s| s.nodes.iter())
        .map(|n| n.outstanding_losses() as u64)
        .sum();
    let evictions: u64 = shards_done
        .iter()
        .flat_map(|s| s.nodes.iter())
        .map(|n| n.lost_evictions())
        .sum();
    let mut counters = MessageCounters::new(config.nodes);
    let mut events_processed = 0u64;
    let mut logs = Vec::with_capacity(shards_done.len());
    for shard in shards_done {
        counters.absorb(&shard.counters);
        events_processed += shard.engine.processed_total();
        logs.push(shard.log);
    }
    counters.count_lost_evictions(evictions);
    let mut tracker = if config.churn_interval.is_some() {
        DeliveryTracker::new_tolerant()
    } else {
        DeliveryTracker::new()
    };
    DeliveryLog::replay_into(logs, &mut tracker);
    let result = assemble(
        config,
        &tracker,
        &counters,
        outstanding,
        coord.reconfigurations,
        coord.churn_events,
        routing,
    );
    let stats = ShardedRunStats {
        events_processed,
        windows: coord.windows,
        shards: shard_count,
        setup_wall,
        loop_wall,
    };
    (result, stats, trace)
}

/// Total order for same-instant events, a pure function of the event:
/// `(class, destination, sender, per-sender sequence)`. Classes order
/// publish ticks before gossip ticks before deliveries; the per-sender
/// sequence makes keys unique (one monotone counter per node covers
/// its ticks and its sends).
type EvtKey = (u8, u32, u32, u64);

const CLASS_PUBLISH: u8 = 0;
const CLASS_GOSSIP: u8 = 1;
const CLASS_DELIVER: u8 = 2;

enum ShardEvent {
    Deliver {
        from: NodeId,
        to: NodeId,
        env: Envelope,
    },
    PublishTick(NodeId),
    GossipTick(NodeId),
}

/// Coordinator-level events: everything that mutates state shared
/// between shards, executed single-threaded between windows.
enum GlobalEvent {
    ChurnTick,
    Break,
    Repair,
}

/// Immutable-during-windows run state shared by every shard. Mutated
/// only at barriers (break/repair/churn), when the coordinator holds
/// the sole `Arc` handle.
struct RunShared {
    /// The physical overlay graph (link model, breakage, gossip
    /// neighborhoods).
    topology: Topology,
    /// The routing view derived from it. On tree overlays the
    /// physical topology is used directly instead (`tree_overlay`),
    /// so view and graph stay one object through break/repair.
    view: RoutingView,
    /// `true` when the configured overlay is acyclic.
    tree_overlay: bool,
    space: PatternSpace,
    subscribers_of: Vec<Vec<(NodeId, ClientId)>>,
}

/// One worker's slice of the run: a contiguous node range plus
/// everything those nodes touch on the hot path.
struct Shard {
    base: u32,
    nodes: Vec<SimNode>,
    engine: KeyedEngine<EvtKey, ShardEvent>,
    transport: ShardTransport,
    /// Per-node gossip-decision streams (`gossip-node`, one per node,
    /// local index = id − base), so decision draws are a function of
    /// the node's own event sequence only.
    gossip_rngs: Vec<Rng>,
    /// Per-node link-loss / out-of-band streams (`net-node`), drawn in
    /// the node's deterministic send order.
    net_rngs: Vec<Rng>,
    /// Per-node monotone sequence for event keys.
    send_seq: Vec<u64>,
    log: DeliveryLog,
    counters: MessageCounters,
    /// Deliveries destined for other shards, exchanged at the barrier.
    outbox: Vec<(SimTime, EvtKey, ShardEvent)>,
    /// The run's trace, on shard 0 of a traced (one-shard) run;
    /// `None` everywhere else.
    trace: Option<ScenarioTrace>,
}

impl Shard {
    fn new(
        base: u32,
        nodes: Vec<SimNode>,
        link: LinkSpec,
        config: &ScenarioConfig,
        factory: &RngFactory,
    ) -> Self {
        let count = nodes.len();
        let gossip_rngs = (0..count)
            .map(|i| factory.indexed_stream("gossip-node", base as u64 + i as u64))
            .collect();
        let net_rngs = (0..count)
            .map(|i| factory.indexed_stream("net-node", base as u64 + i as u64))
            .collect();
        Shard {
            base,
            nodes,
            engine: KeyedEngine::new(),
            transport: ShardTransport::new(link, config.out_of_band),
            gossip_rngs,
            net_rngs,
            send_seq: vec![0; count],
            log: DeliveryLog::new(),
            counters: MessageCounters::new(config.nodes),
            outbox: Vec::new(),
            trace: None,
        }
    }

    fn local(&self, node: NodeId) -> usize {
        node.index() - self.base as usize
    }

    fn owns(&self, node: NodeId) -> bool {
        let i = node.index();
        i >= self.base as usize && i < self.base as usize + self.nodes.len()
    }

    fn next_key(&mut self, class: u8, to: NodeId, from: NodeId) -> EvtKey {
        let seq = &mut self.send_seq[(from.index()) - self.base as usize];
        let k = *seq;
        *seq += 1;
        (class, to.index() as u32, from.index() as u32, k)
    }

    /// Schedules each node's first publish and gossip ticks. Draws
    /// come from per-node streams (the workload stream seeded by the
    /// population builder, and one `gossip-phase` stream per node), so
    /// seeding is independent of the partition.
    fn seed_ticks(&mut self, config: &ScenarioConfig, factory: &RngFactory) {
        for i in 0..self.nodes.len() {
            let id = NodeId::new(self.base + i as u32);
            if config.publish_rate > 0.0 {
                let delay = self.nodes[i].next_publish_delay(config.publish_rate);
                let key = self.next_key(CLASS_PUBLISH, id, id);
                self.engine
                    .schedule_at(delay, key, ShardEvent::PublishTick(id));
            }
            let phase = config.gossip_interval.mul_f64(
                factory
                    .indexed_stream("gossip-phase", id.index() as u64)
                    .random_range(0.0..1.0),
            );
            let key = self.next_key(CLASS_GOSSIP, id, id);
            self.engine
                .schedule_at(phase, key, ShardEvent::GossipTick(id));
        }
    }

    /// Drains this shard's queue strictly up to `window_end`. Sends
    /// made here arrive no earlier than `window_end` (conservative
    /// lookahead), so they can never need processing inside this
    /// window; cross-shard ones accumulate in the outbox.
    fn run_window(&mut self, shared: &RunShared, config: &ScenarioConfig, window_end: SimTime) {
        while let Some((t, _key, ev)) = self.engine.pop_before(window_end) {
            match ev {
                ShardEvent::Deliver { from, to, env } => {
                    let out = self.with_ctx(to, t, shared, |node, ctx| node.handle(from, env, ctx));
                    self.send(to, t, out, shared, config);
                }
                ShardEvent::PublishTick(node) => {
                    // The workload ends at `duration`. Renewals are
                    // gated below, but at very low publish rates a
                    // node's *first* tick can be scheduled past the
                    // end — it must not fire either, or the run would
                    // stretch far beyond its nominal length.
                    if t >= config.duration {
                        continue;
                    }
                    let (out, delay) = self.with_ctx(node, t, shared, |n, ctx| {
                        n.tick_publish(config.publish_rate, ctx)
                    });
                    self.send(node, t, out, shared, config);
                    if t + delay < config.duration {
                        let key = self.next_key(CLASS_PUBLISH, node, node);
                        self.engine
                            .schedule_at(t + delay, key, ShardEvent::PublishTick(node));
                    }
                }
                ShardEvent::GossipTick(node) => {
                    let (out, next) = self.with_ctx(node, t, shared, |n, ctx| {
                        n.tick_gossip(config.gossip_interval, config.adaptive_gossip, ctx)
                    });
                    self.send(node, t, out, shared, config);
                    if t + next < config.duration {
                        let key = self.next_key(CLASS_GOSSIP, node, node);
                        self.engine
                            .schedule_at(t + next, key, ShardEvent::GossipTick(node));
                    }
                }
            }
        }
    }

    fn with_ctx<R>(
        &mut self,
        node: NodeId,
        now: SimTime,
        shared: &RunShared,
        f: impl FnOnce(&mut SimNode, &mut NodeCtx) -> R,
    ) -> R {
        let li = self.local(node);
        let mut ctx = NodeCtx {
            now,
            neighbors: if shared.tree_overlay {
                shared.topology.neighbors(node)
            } else {
                shared.view.neighbors(node)
            },
            graph_neighbors: shared.topology.neighbors(node),
            space: &shared.space,
            subscribers_of: &shared.subscribers_of,
            gossip_rng: &mut self.gossip_rngs[li],
            tracker: &mut self.log,
            counters: &mut self.counters,
            trace: &mut self.trace,
        };
        f(&mut self.nodes[li], &mut ctx)
    }

    /// Puts a node's outgoing messages on the wire: counts them,
    /// routes tree traffic over existing overlay links only, asks the
    /// transport when (and whether) each arrives — loss drawn from the
    /// *sender's* stream — and schedules the arrival locally or into
    /// the outbox.
    fn send(
        &mut self,
        from: NodeId,
        now: SimTime,
        out: Vec<Outgoing>,
        shared: &RunShared,
        config: &ScenarioConfig,
    ) {
        let li = self.local(from);
        for Outgoing { to, env } in out {
            let arrival = match env.channel() {
                Channel::Tree => {
                    let bits = env.wire_bits(config.event_payload_bits);
                    match &env {
                        Envelope::PubSub(PubSubMessage::Event(_)) => {
                            self.counters.count_event(from)
                        }
                        Envelope::PubSub(_) => self.counters.count_subscription(from),
                        // Gossip *messages* are counted at the action
                        // level; their wire *bits* are charged here,
                        // where the size is known — like the message
                        // counts, before link state is consulted (a
                        // digest lost to a broken link was still sent).
                        Envelope::Gossip(_) => self.counters.count_gossip_bits(bits),
                        _ => {}
                    }
                    if !shared.topology.has_link(from, to) {
                        // Broken link or stale route: the message is lost.
                        continue;
                    }
                    self.transport
                        .send_link(from, to, bits, now, &mut self.net_rngs[li])
                }
                Channel::Cross => {
                    // A cross-link event copy: same link model as the
                    // tree (the chord is a physical link like any
                    // other), counted as an event message.
                    self.counters.count_event(from);
                    if !shared.topology.has_link(from, to) {
                        // Broken chord or stale cross target: lost.
                        continue;
                    }
                    let bits = env.wire_bits(config.event_payload_bits);
                    self.transport
                        .send_link(from, to, bits, now, &mut self.net_rngs[li])
                }
                Channel::OutOfBand => {
                    let bits = env.wire_bits(config.event_payload_bits);
                    match &env {
                        Envelope::Request(_) | Envelope::RangeRequest { .. } => {
                            self.counters.count_request_bits(bits)
                        }
                        Envelope::Reply(_) => self.counters.count_reply_bits(bits),
                        _ => {}
                    }
                    self.transport
                        .send_oob(from, to, bits, now, &mut self.net_rngs[li])
                }
            };
            if let Some(at) = arrival {
                let key = self.next_key(CLASS_DELIVER, to, from);
                let ev = ShardEvent::Deliver { from, to, env };
                if self.owns(to) {
                    self.engine.schedule_at(at, key, ev);
                } else {
                    self.outbox.push((at, key, ev));
                }
            }
        }
    }
}

struct Job {
    shard: Box<Shard>,
    shared: Arc<RunShared>,
    window_end: SimTime,
}

struct Coordinator<'a> {
    config: &'a ScenarioConfig,
    shared: Arc<RunShared>,
    shards: Vec<Option<Box<Shard>>>,
    per: usize,
    lookahead: SimTime,
    /// Coordinator events, keyed by an insertion counter: same-instant
    /// ones fire in scheduling order (all scheduling happens here, on
    /// one thread, so that order is partition-independent).
    global: KeyedEngine<u64, GlobalEvent>,
    global_seq: u64,
    reconfig_rng: Rng,
    churn_rng: Rng,
    reconfigurations: u64,
    churn_events: u64,
    windows: u64,
}

impl Coordinator<'_> {
    fn shard_of(&self, node: NodeId) -> usize {
        node.index() / self.per
    }

    fn shard_mut(&mut self, i: usize) -> &mut Shard {
        self.shards[i].as_mut().expect("shard home at the barrier")
    }

    fn schedule_global(&mut self, at: SimTime, event: GlobalEvent) {
        self.global.schedule_at(at, self.global_seq, event);
        self.global_seq += 1;
    }

    /// Appends a coordinator-level record to the run's trace, if any.
    fn record(&mut self, record: TraceRecord) {
        if let Some(trace) = &mut self.shard_mut(0).trace {
            trace.push(record);
        }
    }

    /// The main loop. Node windows run through `exec` (inline or
    /// fanned across workers); coordinator events run here whenever
    /// the next one is not strictly after the earliest node event —
    /// so a global event at time `g` sees every node's state up to
    /// `g`, and node events at the same instant run after it.
    fn run<F>(&mut self, mut exec: F)
    where
        F: FnMut(&mut Vec<Option<Box<Shard>>>, &Arc<RunShared>, &ScenarioConfig, SimTime),
    {
        loop {
            let m = self
                .shards
                .iter()
                .filter_map(|s| s.as_ref().expect("shard home").engine.peek_time())
                .min();
            let g = self.global.peek_time();
            match (m, g) {
                (None, None) => break,
                (Some(m), g) if g.is_none_or(|g| g > m) => {
                    let cap = m + self.lookahead;
                    let end = g.map_or(cap, |g| cap.min(g));
                    self.windows += 1;
                    exec(&mut self.shards, &self.shared, self.config, end);
                    self.route_outboxes();
                }
                _ => {
                    self.run_global_event();
                    self.route_outboxes();
                }
            }
        }
    }

    /// Moves cross-shard deliveries into their destination queues, in
    /// shard-id order. Arrival times are at or past the barrier, so
    /// insertion order cannot affect execution order (the keyed queue
    /// orders by `(time, key)` alone).
    fn route_outboxes(&mut self) {
        for i in 0..self.shards.len() {
            let outbox = std::mem::take(&mut self.shard_mut(i).outbox);
            for (at, key, ev) in outbox {
                let to = match &ev {
                    ShardEvent::Deliver { to, .. } => *to,
                    _ => unreachable!("only deliveries cross shard boundaries"),
                };
                let target = self.shard_of(to);
                self.shard_mut(target).engine.schedule_at(at, key, ev);
            }
        }
    }

    fn run_global_event(&mut self) {
        let (now, _, event) = self.global.pop().expect("a global event is pending");
        match event {
            GlobalEvent::Break => self.handle_break(now),
            GlobalEvent::Repair => self.handle_repair(now),
            GlobalEvent::ChurnTick => self.handle_churn(now),
        }
    }

    /// Exclusive access to the shared run state. Sound because global
    /// events only run between windows, when every worker has dropped
    /// its handle (workers drop before reporting their shard back).
    fn shared_mut(&mut self) -> &mut RunShared {
        Arc::get_mut(&mut self.shared).expect("no worker holds the shared state at a barrier")
    }

    fn handle_break(&mut self, now: SimTime) {
        if now >= self.config.duration {
            // The workload is over; the queues are only draining
            // in-flight recoveries. Do not disturb them.
            return;
        }
        let shared = Arc::get_mut(&mut self.shared).expect("sole handle at a barrier");
        let link = {
            let topology = &shared.topology;
            self.reconfig_rng.choose_iter(topology.links())
        };
        if let Some(link) = link {
            shared
                .topology
                .remove_link(link)
                .expect("chosen link exists");
            let (a, b) = (link.a(), link.b());
            let sa = self.shard_of(a);
            let sb = self.shard_of(b);
            self.shard_mut(sa).transport.reset_link(a, b);
            self.shard_mut(sb).transport.reset_link(a, b);
            self.reconfigurations += 1;
            self.record(TraceRecord::LinkBroken { at: now, link });
            self.schedule_global(now + self.config.repair_delay, GlobalEvent::Repair);
        }
        if let Some(rho) = self.config.reconfig_interval {
            if now + rho < self.config.duration {
                self.schedule_global(now + rho, GlobalEvent::Break);
            }
        }
    }

    fn handle_repair(&mut self, now: SimTime) {
        let shared = Arc::get_mut(&mut self.shared).expect("sole handle at a barrier");
        let reconnected = plan_reconnection(&shared.topology, &mut self.reconfig_rng);
        if let Some((x, y)) = reconnected {
            shared
                .topology
                .add_link(x, y)
                .expect("reconnection endpoints have spare degree");
        }
        if shared.tree_overlay {
            if reconnected.is_some() {
                // The reconfiguration protocol of [7] has completed:
                // rebuild the routes over all nodes, gathered in id
                // order across the shards (ranges are contiguous and
                // ordered).
                let mut hosts: Vec<&mut SimNode> = self
                    .shards
                    .iter_mut()
                    .flat_map(|s| s.as_mut().expect("shard home").nodes.iter_mut())
                    .collect();
                rebuild_subscription_routes(&mut hosts, &shared.topology);
            }
        } else {
            // Cyclic overlay: even when the graph stayed connected
            // (no replacement link — the overlay thins gradually),
            // the view may have been using the vanished link.
            // Re-derive it, rebuild routes, and recompute every
            // node's cross targets against the fresh tree/graph
            // split.
            shared.view = RoutingView::derive(&shared.topology);
            let mut hosts: Vec<&mut SimNode> = self
                .shards
                .iter_mut()
                .flat_map(|s| s.as_mut().expect("shard home").nodes.iter_mut())
                .collect();
            rebuild_subscription_routes(&mut hosts, shared.view.tree());
            let interests: Vec<Vec<PatternId>> =
                hosts.iter().map(|h| h.subscriptions().to_vec()).collect();
            for (i, host) in hosts.iter_mut().enumerate() {
                let id = NodeId::new(i as u32);
                let targets = cross_targets_for(id, &shared.topology, &shared.view, &interests);
                host.set_cross_targets(targets);
            }
        }
        if let Some((a, b)) = reconnected {
            self.record(TraceRecord::LinkAdded { at: now, a, b });
        }
    }

    /// Subscription churn: a random dispatcher swaps one subscription
    /// for a pattern it does not hold, and the (un)subscriptions
    /// travel as protocol messages via the owning shard's transport.
    fn handle_churn(&mut self, now: SimTime) {
        if now < self.config.duration {
            let node = NodeId::new(self.churn_rng.random_range(0..self.config.nodes as u32));
            // With one client per node the client pick is determined,
            // so no draw is consumed — the churn stream stays
            // byte-compatible with the pre-client-layer runner.
            let client = if self.config.clients_per_node > 1 {
                ClientId::new(
                    self.churn_rng
                        .random_range(0..self.config.clients_per_node as u32),
                )
            } else {
                ClientId::new(0)
            };
            let si = self.shard_of(node);
            let li = node.index() - self.shards[si].as_ref().expect("home").base as usize;
            let subs: Vec<PatternId> =
                self.shards[si].as_ref().expect("home").nodes[li].client_patterns(client);
            if !subs.is_empty() {
                let old = subs[self.churn_rng.random_range(0..subs.len())];
                let candidates: Vec<PatternId> = self
                    .shared
                    .space
                    .patterns()
                    .filter(|p| !subs.contains(p))
                    .collect();
                if let Some(&new) = self.churn_rng.choose(&candidates) {
                    self.churn_events += 1;
                    let config = self.config;
                    // (Un)subscriptions propagate on the routing view,
                    // like every other piece of protocol traffic.
                    let neighbors = if self.shared.tree_overlay {
                        self.shared.topology.neighbors(node).to_vec()
                    } else {
                        self.shared.view.neighbors(node).to_vec()
                    };
                    let handle = Arc::clone(&self.shared);
                    let shard = self.shard_mut(si);
                    let (out, aggregate_changed) =
                        shard.nodes[li].apply_churn(client, old, new, &neighbors);
                    shard.send(node, now, out, &handle, config);
                    drop(handle);
                    if aggregate_changed && !self.shared.tree_overlay {
                        // Cross-link partners keep a copy of this
                        // node's interest to filter their replication;
                        // refresh it (partners may live on any shard —
                        // sound at a barrier), charging one
                        // subscription message per cross link.
                        let interest = self.shards[si].as_ref().expect("home").nodes[li]
                            .subscriptions()
                            .to_vec();
                        let chords = self
                            .shared
                            .view
                            .cross_neighbors(&self.shared.topology, node);
                        for chord in chords {
                            self.shard_mut(si).counters.count_subscription(node);
                            let ci = self.shard_of(chord);
                            let cshard = self.shard_mut(ci);
                            let cli = chord.index() - cshard.base as usize;
                            cshard.nodes[cli].update_cross_partner(node, interest.clone());
                        }
                    }
                    let shared = self.shared_mut();
                    shared.subscribers_of[old.index()].retain(|&s| s != (node, client));
                    shared.subscribers_of[new.index()].push((node, client));
                    shared.subscribers_of[new.index()].sort_unstable();
                }
            }
            if let Some(churn) = self.config.churn_interval {
                if now + churn < self.config.duration {
                    self.schedule_global(now + churn, GlobalEvent::ChurnTick);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eps_gossip::Algorithm;

    fn small(algorithm: Algorithm) -> ScenarioConfig {
        ScenarioConfig {
            nodes: 22,
            duration: SimTime::from_secs(3),
            warmup: SimTime::from_millis(500),
            cooldown: SimTime::from_millis(500),
            publish_rate: 20.0,
            algorithm,
            ..ScenarioConfig::default()
        }
    }

    #[test]
    fn shard_count_does_not_change_the_result() {
        let config = small(Algorithm::push());
        let one = run_scenario_sharded(&config, 1);
        let two = run_scenario_sharded(&config, 2);
        let five = run_scenario_sharded(&config, 5);
        assert_eq!(one, two);
        assert_eq!(one, five);
        assert!(one.delivery_rate > 0.0 && one.delivery_rate <= 1.0);
    }

    #[test]
    fn shard_invariance_holds_under_reconfiguration_and_churn() {
        let config = ScenarioConfig {
            reconfig_interval: Some(SimTime::from_millis(400)),
            churn_interval: Some(SimTime::from_millis(300)),
            link_error_rate: 0.0,
            ..small(Algorithm::push())
        };
        let one = run_scenario_sharded(&config, 1);
        let three = run_scenario_sharded(&config, 3);
        assert_eq!(one, three);
        assert!(one.reconfigurations > 0);
        assert!(one.churn_events > 0);
    }

    #[test]
    fn oversized_shard_counts_are_clamped() {
        let config = ScenarioConfig {
            nodes: 3,
            duration: SimTime::from_secs(2),
            warmup: SimTime::from_millis(200),
            cooldown: SimTime::from_millis(200),
            publish_rate: 10.0,
            ..ScenarioConfig::default()
        };
        let (result, stats) = run_scenario_sharded_with_stats(&config, 64);
        assert_eq!(stats.shards, 3);
        assert!(stats.events_processed > 0);
        assert!(stats.windows > 0);
        let (baseline, _) = run_scenario_sharded_with_stats(&config, 1);
        assert_eq!(baseline, result);
    }
}

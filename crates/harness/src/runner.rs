//! The scenario runner: one [`World`] that owns every node, one event
//! queue, one thread. It is the only simulation runner, so the paper's
//! N = 100 figures and a 10⁵-dispatcher scale run are the same
//! experiment at different sizes. More cores are used *across* runs
//! ([`crate::parallel::par_map`] over sweep cells), never inside one.
//!
//! # The loop
//!
//! Node events (deliveries, and a tick for the next timer of each
//! node's clock) live in one [`KeyedEngine`] and pop in `(time, key)`
//! order. Everything that mutates state all nodes read — link break,
//! repair, subscription churn — is a coordinator event in a second,
//! small queue. The loop runs the coordinator event if its time is at
//! or before the earliest node event's, else it pops one node event: a
//! coordinator event at instant `g` sees every node's state up to `g`,
//! and node events at `g` run after it. To that end each node whose
//! rounds read what the event changes — the churned dispatcher, the
//! two ends of a broken link, every node when the routes are rebuilt —
//! first catches up (replays its parked rounds before `g`) and plans
//! its clock again after the change.
//!
//! A node's next timer can move after any call: earlier when an input
//! makes a parked round send, later when it makes the planned one
//! silent. The world files a new tick whenever it moves earlier than
//! the node's live tick, and drops a popped tick that is no longer the
//! live one; a live tick whose timer moved later fires nothing and
//! files the next.
//!
//! # Determinism
//!
//! The same configuration (including seed) produces the same result,
//! bit for bit:
//!
//! - Same-instant events are ordered by an event-derived key
//!   (`(class, to, from, per-sender sequence)`), never by insertion
//!   order ([`KeyedEngine`]).
//! - Every random draw comes from a per-node stream (gossip decisions,
//!   link loss, workload) or a coordinator-only stream (reconfig,
//!   churn), so no draw depends on how nodes interleave.
//!
//! The golden suite pins the bytes.

use eps_gossip::{Channel, Envelope};
use eps_metrics::{DeliveryTracker, MessageCounters};
use eps_overlay::{plan_reconnection, NodeId, RoutingView, ShardTransport, Topology};
use eps_pubsub::{rebuild_subscription_routes, ClientId, PatternId, PatternSpace};
use eps_sim::{KeyedEngine, Rng, RngFactory, SimTime};

use crate::config::{ScenarioConfig, REPAIR_DELAY};
use crate::node::{charge_send, node_streams, routing_stats, NodeCtx, Outgoing, SimNode, Timer};
use crate::population::{build_population, cross_targets_for, local_patterns, Population};
use crate::result::{assemble, ScenarioResult};
use crate::trace::{ScenarioTrace, TraceRecord};

/// Runs one scenario to completion.
///
/// Deterministic: the same configuration (including seed) produces the
/// same result, bit for bit.
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
    run(config, None).0
}

/// Like [`run_scenario`], but also collects a bounded
/// [`ScenarioTrace`] of publishes, deliveries, detections, and
/// reconfigurations — for debugging and white-box tests. Node records
/// and the coordinator's link records land in one log in occurrence
/// order. Tracing does not perturb the simulation: the traced result
/// equals the untraced one.
pub fn run_scenario_traced(
    config: &ScenarioConfig,
    trace_capacity: usize,
) -> (ScenarioResult, ScenarioTrace) {
    let (result, _, trace) = run(config, Some(ScenarioTrace::new(trace_capacity)));
    (result, trace.expect("trace was installed"))
}

/// Execution statistics of one run, for throughput reporting.
#[derive(Clone, Copy, Debug)]
pub struct RunStats {
    /// Node-level events processed.
    pub events_processed: u64,
    /// Gossip rounds the nodes ran, fired or replayed, up to the end
    /// of the run.
    pub gossip_rounds: u64,
    /// Of those, the rounds replayed instead of fired: queue events
    /// the run did not process.
    pub rounds_elided: u64,
    /// Always 0: the runner has no barrier windows. Read by
    /// `benchmark/src/sim.rs` (see the compatibility block in
    /// `lib.rs`).
    #[doc(hidden)]
    pub windows: u64,
    /// Wall-clock time spent building the population and seeding the
    /// event queue.
    pub setup_wall: std::time::Duration,
    /// Wall-clock time spent in the event loop.
    pub loop_wall: std::time::Duration,
}

/// Like [`run_scenario`], also returning execution statistics.
pub fn run_scenario_with_stats(config: &ScenarioConfig) -> (ScenarioResult, RunStats) {
    let (result, stats, _) = run(config, None);
    (result, stats)
}

/// The one world loop behind every entry point. A `trace`, when given,
/// is lent to the world for the run and handed back at the end.
fn run(
    config: &ScenarioConfig,
    trace: Option<ScenarioTrace>,
) -> (ScenarioResult, RunStats, Option<ScenarioTrace>) {
    config.validate();
    let setup_started = std::time::Instant::now();

    let factory = RngFactory::new(config.seed);
    let Population {
        topology,
        view,
        space,
        nodes,
        subscribers_of,
        setup_subscription_msgs,
    } = build_population(config);

    let (gossip_rngs, net_rngs) = (0..config.nodes as u32)
        .map(|i| node_streams(&factory, NodeId::new(i)))
        .unzip();
    let mut world = World {
        config,
        topology,
        view,
        tree_overlay: config.overlay.is_tree(),
        space,
        subscribers_of,
        nodes,
        engine: KeyedEngine::new(),
        armed: vec![SimTime::MAX; config.nodes],
        outbox: Vec::new(),
        transport: ShardTransport::new(config.link_spec(), config.out_of_band),
        gossip_rngs,
        net_rngs,
        send_seq: vec![0; config.nodes],
        tracker: if config.churn_interval.is_some() {
            DeliveryTracker::new_tolerant()
        } else {
            DeliveryTracker::new()
        },
        counters: MessageCounters::new(config.nodes),
        trace,
        coordinator: KeyedEngine::new(),
        coordinator_seq: 0,
        reconfig_rng: factory.stream("reconfig"),
        churn_rng: factory.stream("churn"),
        reconfigurations: 0,
        churn_events: 0,
    };
    for i in 0..config.nodes {
        world.nodes[i].start_clock(config, &factory, config.duration);
        world.catch_up(NodeId::new(i as u32), SimTime::ZERO);
    }
    if let Some(rho) = config.reconfig_interval {
        if rho < config.duration {
            world.schedule_coordinator(rho, CoordinatorEvent::Break);
        }
    }
    if let Some(churn) = config.churn_interval {
        if churn < config.duration {
            world.schedule_coordinator(churn, CoordinatorEvent::ChurnTick);
        }
    }

    let setup_wall = setup_started.elapsed();
    let loop_started = std::time::Instant::now();
    world.run();
    // The parked rounds left: they send nothing, but they are rounds.
    for i in 0..config.nodes {
        world.catch_up(NodeId::new(i as u32), config.duration);
    }
    let loop_wall = loop_started.elapsed();

    let routing = routing_stats(&world.nodes, setup_subscription_msgs);
    let outstanding: u64 = world
        .nodes
        .iter()
        .map(|n| n.outstanding_losses() as u64)
        .sum();
    let evictions: u64 = world.nodes.iter().map(|n| n.lost_evictions()).sum();
    world.counters.count_lost_evictions(evictions);
    let result = assemble(
        config,
        &world.tracker,
        &world.counters,
        outstanding,
        world.reconfigurations,
        world.churn_events,
        routing,
    );
    let stats = RunStats {
        events_processed: world.engine.processed_total(),
        gossip_rounds: world.nodes.iter().map(SimNode::gossip_rounds).sum(),
        rounds_elided: world.nodes.iter().map(SimNode::rounds_replayed).sum(),
        windows: 0,
        setup_wall,
        loop_wall,
    };
    (result, stats, world.trace)
}

/// Total order for same-instant events, a pure function of the event:
/// `(class, destination, sender, per-sender sequence)`. Classes order
/// publish ticks before gossip ticks (by the node's next timer) before
/// deliveries; the per-sender sequence makes keys unique (one monotone
/// counter per node covers its ticks and its sends).
type EvtKey = (u8, u32, u32, u64);

const CLASS_PUBLISH: u8 = 0;
const CLASS_GOSSIP: u8 = 1;
const CLASS_DELIVER: u8 = 2;

enum NodeEvent {
    Deliver {
        from: NodeId,
        to: NodeId,
        env: Envelope,
    },
    /// The node's next timer; only the node's live tick fires.
    Tick(NodeId),
}

/// Coordinator-level events: everything that mutates state every node
/// reads (the topology, the routing view, the subscriber index).
enum CoordinatorEvent {
    ChurnTick,
    Break,
    Repair,
}

/// One run's whole state.
struct World<'a> {
    config: &'a ScenarioConfig,
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
    nodes: Vec<SimNode>,
    engine: KeyedEngine<EvtKey, NodeEvent>,
    /// The instant of each node's live tick (`SimTime::MAX`: none).
    armed: Vec<SimTime>,
    /// What a node call appends, until [`World::send`] drains it.
    outbox: Vec<Outgoing>,
    transport: ShardTransport,
    /// Per-node gossip-decision streams ([`node_streams`]), so decision
    /// draws are a function of the node's own event sequence only.
    gossip_rngs: Vec<Rng>,
    /// Per-node link-loss / out-of-band streams ([`node_streams`]),
    /// drawn in the node's deterministic send order.
    net_rngs: Vec<Rng>,
    /// Per-node monotone sequence for event keys.
    send_seq: Vec<u64>,
    /// The run's delivery accounting, lent to every node call. With
    /// churn it tolerates deliveries to late subscribers.
    tracker: DeliveryTracker,
    counters: MessageCounters,
    /// The run's trace, on a traced run.
    trace: Option<ScenarioTrace>,
    /// Coordinator events, keyed by an insertion counter: same-instant
    /// ones fire in scheduling order.
    coordinator: KeyedEngine<u64, CoordinatorEvent>,
    coordinator_seq: u64,
    reconfig_rng: Rng,
    churn_rng: Rng,
    reconfigurations: u64,
    churn_events: u64,
}

impl World<'_> {
    fn next_key(&mut self, class: u8, to: NodeId, from: NodeId) -> EvtKey {
        let seq = &mut self.send_seq[from.index()];
        let k = *seq;
        *seq += 1;
        (class, to.index() as u32, from.index() as u32, k)
    }

    fn schedule_coordinator(&mut self, at: SimTime, event: CoordinatorEvent) {
        self.coordinator
            .schedule_at(at, self.coordinator_seq, event);
        self.coordinator_seq += 1;
    }

    /// Appends a coordinator-level record to the run's trace, if any.
    fn record(&mut self, record: TraceRecord) {
        if let Some(trace) = &mut self.trace {
            trace.push(record);
        }
    }

    /// Files `node`'s next timer, in the class of that timer, if its
    /// clock has one left before the node's live tick.
    fn file_tick(&mut self, node: NodeId) {
        let i = node.index();
        let Some((at, timer)) = self.nodes[i].next_timer() else {
            return;
        };
        if self.armed[i] <= at {
            return;
        }
        let class = match timer {
            Timer::Publish => CLASS_PUBLISH,
            Timer::Gossip => CLASS_GOSSIP,
        };
        let key = self.next_key(class, node, node);
        self.engine.schedule_at(at, key, NodeEvent::Tick(node));
        self.armed[i] = at;
    }

    /// Has `node` replay its parked rounds before `now`, plans its
    /// clock, and files its next timer.
    fn catch_up(&mut self, node: NodeId, now: SimTime) {
        self.with_ctx(node, now, |n, ctx, _| n.catch_up(ctx));
        self.file_tick(node);
    }

    /// Runs a coordinator `change` at `now` that mutates what the
    /// rounds of `nodes` read — their dispatcher or their overlay
    /// neighborhood: each first catches up on the state the change
    /// finds, then plans its clock on the state it leaves. A node the
    /// change does not touch replays its parked rounds at its next
    /// entry point, on the same state.
    fn change_nodes<R>(
        &mut self,
        nodes: &[NodeId],
        now: SimTime,
        change: impl FnOnce(&mut Self) -> R,
    ) -> R {
        for &node in nodes {
            self.catch_up(node, now);
        }
        let changed = change(self);
        for &node in nodes {
            self.catch_up(node, now);
        }
        changed
    }

    /// The main loop: node events strictly before the next coordinator
    /// event, then that coordinator event, until both queues are
    /// empty. Only coordinator events schedule coordinator events, so
    /// the horizon cannot move while node events drain.
    fn run(&mut self) {
        loop {
            let horizon = self.coordinator.peek_time().unwrap_or(SimTime::MAX);
            while let Some((t, _key, event)) = self.engine.pop_before(horizon) {
                self.run_node_event(t, event);
            }
            let Some((now, _, event)) = self.coordinator.pop() else {
                break;
            };
            match event {
                CoordinatorEvent::Break => self.handle_break(now),
                CoordinatorEvent::Repair => self.handle_repair(now),
                CoordinatorEvent::ChurnTick => self.handle_churn(now),
            }
        }
    }

    fn run_node_event(&mut self, t: SimTime, event: NodeEvent) {
        match event {
            NodeEvent::Deliver { from, to, env } => {
                self.with_ctx(to, t, |n, ctx, out| n.handle_into(from, env, ctx, out));
                self.send(to, t);
                self.file_tick(to);
            }
            NodeEvent::Tick(node) => {
                if self.armed[node.index()] != t {
                    // Superseded by an earlier tick, which has fired.
                    return;
                }
                self.armed[node.index()] = SimTime::MAX;
                let config = self.config;
                self.with_ctx(node, t, |n, ctx, out| n.fire_timer(config, ctx, out));
                self.send(node, t);
                self.file_tick(node);
            }
        }
    }

    /// One call into `node` at `now`, lent its context and the outbox.
    fn with_ctx<R>(
        &mut self,
        node: NodeId,
        now: SimTime,
        f: impl FnOnce(&mut SimNode, &mut NodeCtx, &mut Vec<Outgoing>) -> R,
    ) -> R {
        let i = node.index();
        let mut ctx = NodeCtx {
            now,
            neighbors: if self.tree_overlay {
                self.topology.neighbors(node)
            } else {
                self.view.neighbors(node)
            },
            graph_neighbors: self.topology.neighbors(node),
            space: &self.space,
            subscribers_of: &self.subscribers_of,
            gossip_rng: &mut self.gossip_rngs[i],
            tracker: &mut self.tracker,
            counters: &mut self.counters,
            trace: &mut self.trace,
        };
        f(&mut self.nodes[i], &mut ctx, &mut self.outbox)
    }

    /// Puts the outbox on the wire, as sent by `from`: counts it,
    /// routes tree traffic over existing overlay links only, asks the
    /// transport when (and whether) each arrives — loss drawn from the
    /// *sender's* stream — and schedules the arrival.
    fn send(&mut self, from: NodeId, now: SimTime) {
        let payload_bits = self.config.event_payload_bits;
        let sender = from.index();
        let mut out = std::mem::take(&mut self.outbox);
        for Outgoing { to, env } in out.drain(..) {
            let bits = env.wire_bits(payload_bits);
            // Charged before link state is consulted: a message lost to
            // a broken link was still sent.
            charge_send(&mut self.counters, from, &env, bits);
            let arrival = match env.channel() {
                // A cross-link event copy takes the tree's link model:
                // the chord is a physical link like any other.
                Channel::Tree | Channel::Cross => {
                    if !self.topology.has_link(from, to) {
                        // Broken link, broken chord or stale route: the
                        // message is lost.
                        continue;
                    }
                    self.transport
                        .send_link(from, to, bits, now, &mut self.net_rngs[sender])
                }
                Channel::OutOfBand => {
                    self.transport
                        .send_oob(from, to, bits, now, &mut self.net_rngs[sender])
                }
            };
            if let Some(at) = arrival {
                let key = self.next_key(CLASS_DELIVER, to, from);
                self.engine
                    .schedule_at(at, key, NodeEvent::Deliver { from, to, env });
            }
        }
        self.outbox = out;
    }

    fn handle_break(&mut self, now: SimTime) {
        if now >= self.config.duration {
            // The workload is over; the queue is only draining
            // in-flight recoveries. Do not disturb them.
            return;
        }
        if let Some(link) = self.reconfig_rng.choose_iter(self.topology.links()) {
            // Its two ends lose a gossip partner.
            self.change_nodes(&[link.a(), link.b()], now, |w| {
                w.topology.remove_link(link).expect("chosen link exists");
            });
            self.transport.reset_link(link.a(), link.b());
            self.reconfigurations += 1;
            self.record(TraceRecord::LinkBroken { at: now, link });
            self.schedule_coordinator(now + REPAIR_DELAY, CoordinatorEvent::Repair);
        }
        if let Some(rho) = self.config.reconfig_interval {
            if now + rho < self.config.duration {
                self.schedule_coordinator(now + rho, CoordinatorEvent::Break);
            }
        }
    }

    fn handle_repair(&mut self, now: SimTime) {
        let reconnected = plan_reconnection(&self.topology, &mut self.reconfig_rng);
        if self.tree_overlay && reconnected.is_none() {
            return;
        }
        // Every table is rebuilt.
        let all: Vec<NodeId> = self.topology.nodes().collect();
        self.change_nodes(&all, now, |w| {
            if let Some((x, y)) = reconnected {
                w.topology
                    .add_link(x, y)
                    .expect("reconnection endpoints have spare degree");
            }
            if w.tree_overlay {
                // The reconfiguration protocol of [7] has completed:
                // rebuild the routes over all nodes.
                rebuild_subscription_routes(&mut w.nodes, &w.topology);
            } else {
                // Cyclic overlay: even when the graph stayed connected
                // (no replacement link — the overlay thins gradually),
                // the view may have been using the vanished link.
                // Re-derive it, rebuild routes, and recompute every
                // node's cross targets against the fresh tree/graph
                // split.
                w.view = RoutingView::derive(&w.topology);
                rebuild_subscription_routes(&mut w.nodes, w.view.tree());
                for id in w.topology.nodes() {
                    let targets = cross_targets_for(id, &w.topology, &w.view, &w.nodes);
                    w.nodes[id.index()].set_cross_targets(targets);
                }
            }
        });
        if let Some((a, b)) = reconnected {
            self.record(TraceRecord::LinkAdded { at: now, a, b });
        }
    }

    /// Subscription churn: a random dispatcher swaps one subscription
    /// for a pattern it does not hold, and the (un)subscriptions
    /// travel as protocol messages.
    fn handle_churn(&mut self, now: SimTime) {
        let config = self.config;
        if now >= config.duration {
            return;
        }
        let node = NodeId::new(self.churn_rng.random_range(0..config.nodes as u32));
        // With one client per node the client pick is determined, so
        // no draw is consumed — the churn stream stays byte-compatible
        // with the pre-client-layer runner.
        let client = if config.clients_per_node > 1 {
            ClientId::new(
                self.churn_rng
                    .random_range(0..config.clients_per_node as u32),
            )
        } else {
            ClientId::new(0)
        };
        let subs: Vec<PatternId> = self.nodes[node.index()].client_patterns(client);
        if !subs.is_empty() {
            let old = subs[self.churn_rng.random_range(0..subs.len())];
            let candidates: Vec<PatternId> = self
                .space
                .patterns()
                .filter(|p| !subs.contains(p))
                .collect();
            if let Some(&new) = self.churn_rng.choose(&candidates) {
                self.churn_events += 1;
                // (Un)subscriptions propagate on the routing view,
                // like every other piece of protocol traffic.
                let neighbors = if self.tree_overlay {
                    self.topology.neighbors(node).to_vec()
                } else {
                    self.view.neighbors(node).to_vec()
                };
                // Only the churned node's own rounds read what changes:
                // its partners' copies of its interest filter events.
                let aggregate_changed = self.change_nodes(&[node], now, |w| {
                    w.nodes[node.index()].apply_churn(client, old, new, &neighbors, &mut w.outbox)
                });
                self.send(node, now);
                if aggregate_changed && !self.tree_overlay {
                    // Cross-link partners keep a copy of this node's
                    // interest to filter their replication; refresh
                    // it, charging one subscription message per cross
                    // link.
                    let interest = local_patterns(&self.nodes[node.index()]);
                    for chord in self.view.cross_neighbors(&self.topology, node) {
                        self.counters.count_subscription(node);
                        self.nodes[chord.index()].update_cross_partner(node, interest.clone());
                    }
                }
                self.subscribers_of[old.index()].retain(|&s| s != (node, client));
                self.subscribers_of[new.index()].push((node, client));
                self.subscribers_of[new.index()].sort_unstable();
            }
        }
        if let Some(churn) = config.churn_interval {
            if now + churn < config.duration {
                self.schedule_coordinator(now + churn, CoordinatorEvent::ChurnTick);
            }
        }
    }
}

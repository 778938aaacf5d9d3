//! The benchmark's own single-threaded world loop, assembled from the
//! public parts of the program (`build_population` → `KeyedEngine` →
//! `SimNode` → `ShardTransport` → `DeliverySink`) so that every call
//! into a layer can be bracketed with a span from outside.
//!
//! It follows the sharded runner's semantics at one shard (event keys,
//! per-node random streams), without windows, reconfiguration or
//! churn. It does not have to stay bit-equal to any runner of the
//! program; callers check that it lands close to the runner they
//! measured.

use std::time::{Duration, Instant};

use eps_gossip::{codec, Channel, Envelope};
use eps_harness::{
    assemble, build_population, routing_stats, NodeCtx, Outgoing, Population, ScenarioConfig,
    ScenarioResult, SimNode,
};
use eps_metrics::{DeliverySink, DeliveryTracker, MessageCounters};
use eps_net::frame::{frame, FrameReader};
use eps_overlay::{LinkSpec, NodeId, RoutingView, ShardTransport, Topology};
use eps_pubsub::{ClientId, EventId, PatternSpace, PubSubMessage};
use eps_sim::{KeyedEngine, Rng, RngFactory, SimTime};

use crate::span::{Name, Probe};

/// `(class, destination, sender, per-sender sequence)`: the sharded
/// runner's total order for same-instant events.
type Key = (u8, u32, u32, u64);
const PUBLISH: u8 = 0;
const GOSSIP: u8 = 1;
const DELIVER: u8 = 2;

enum Ev {
    Deliver {
        from: NodeId,
        to: NodeId,
        env: Envelope,
    },
    Publish(NodeId),
    Gossip(NodeId),
}

/// Every this-many-th envelope handed to the transport is also run
/// through the byte codec and the TCP framing (traced runs only).
const WIRE_PROBE_EVERY: u64 = 64;

/// Codec and framing cost on the workload's own envelopes.
#[derive(Clone, Copy, Debug, Default)]
pub struct WireProbe {
    pub samples: u64,
    pub bytes: u64,
    pub encode_ns: u64,
    pub decode_ns: u64,
    pub frame_ns: u64,
}

/// Counts the loop takes at the layer boundaries, for all events.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub events: u64,
    pub queue_peak: usize,
    pub sends: u64,
    pub link_drops: u64,
    pub rounds: u64,
    pub idle_rounds: u64,
    pub sink_calls: u64,
    /// Virtual publish→delivery delay of every client delivery, ns.
    pub delivery_delay_ns: Vec<u64>,
    pub wire: WireProbe,
}

pub struct DriverRun {
    pub result: ScenarioResult,
    pub tally: Tally,
    pub setup: Duration,
    pub loop_wall: Duration,
    pub assemble: Duration,
}

impl DriverRun {
    pub fn wall(&self) -> Duration {
        self.setup + self.loop_wall + self.assemble
    }
}

/// A [`DeliverySink`] that times each call into the real tracker and
/// notes the virtual delay of each delivery.
struct TimedSink<'a, P: Probe> {
    inner: &'a mut DeliveryTracker,
    probe: &'a mut P,
    tally: &'a mut Tally,
    /// Publish instants, `[source][sequence number]`.
    published_at: &'a mut Vec<Vec<SimTime>>,
}

impl<P: Probe> TimedSink<'_, P> {
    fn note_delay(&mut self, id: EventId, now: SimTime) {
        let at = self.published_at[id.source().index()][id.seq() as usize];
        self.tally
            .delivery_delay_ns
            .push(now.saturating_sub(at).as_nanos());
    }
}

impl<P: Probe> DeliverySink for TimedSink<'_, P> {
    fn published(&mut self, id: EventId, at: SimTime, expected: u32) {
        let of_source = &mut self.published_at[id.source().index()];
        of_source.resize(id.seq() as usize + 1, SimTime::ZERO);
        of_source[id.seq() as usize] = at;
        self.tally.sink_calls += 1;
        self.probe.begin(Name::Sink);
        self.inner.published(id, at, expected);
        self.probe.end();
    }

    fn delivered(&mut self, id: EventId, node: NodeId, _client: ClientId, now: SimTime) {
        self.note_delay(id, now);
        self.tally.sink_calls += 1;
        self.probe.begin(Name::Sink);
        self.inner.delivered(id, node);
        self.probe.end();
    }

    fn recovered(&mut self, id: EventId, node: NodeId, _client: ClientId, now: SimTime) {
        self.note_delay(id, now);
        self.tally.sink_calls += 1;
        self.probe.begin(Name::Sink);
        self.inner.recovered(id, node, now);
        self.probe.end();
    }
}

struct World<'a, P: Probe> {
    cfg: &'a ScenarioConfig,
    probe: &'a mut P,
    topology: Topology,
    view: RoutingView,
    space: PatternSpace,
    subscribers_of: Vec<Vec<(NodeId, ClientId)>>,
    nodes: Vec<SimNode>,
    engine: KeyedEngine<Key, Ev>,
    transport: ShardTransport,
    gossip_rngs: Vec<Rng>,
    net_rngs: Vec<Rng>,
    next_seq: Vec<u64>,
    tracker: DeliveryTracker,
    counters: MessageCounters,
    published_at: Vec<Vec<SimTime>>,
    tally: Tally,
}

/// Runs `cfg` through the benchmark's loop, reporting spans to `probe`.
pub fn drive<P: Probe>(cfg: &ScenarioConfig, probe: &mut P) -> DriverRun {
    cfg.validate();
    assert!(
        cfg.reconfig_interval.is_none() && cfg.churn_interval.is_none(),
        "the benchmark driver has no reconfiguration or churn"
    );
    let setup_started = Instant::now();
    let Population {
        topology,
        view,
        space,
        nodes,
        subscribers_of,
        setup_subscription_msgs,
        ..
    } = build_population(cfg);
    let factory = RngFactory::new(cfg.seed);
    let n = cfg.nodes;
    let link = LinkSpec {
        bandwidth_bps: 10_000_000,
        propagation: SimTime::from_micros(50),
        loss_rate: cfg.link_error_rate,
    };
    let mut world = World {
        cfg,
        probe,
        topology,
        view,
        space,
        subscribers_of,
        nodes,
        engine: KeyedEngine::new(),
        transport: ShardTransport::new(link, cfg.out_of_band),
        gossip_rngs: (0..n as u64)
            .map(|i| factory.indexed_stream("gossip-node", i))
            .collect(),
        net_rngs: (0..n as u64)
            .map(|i| factory.indexed_stream("net-node", i))
            .collect(),
        next_seq: vec![0; n],
        tracker: DeliveryTracker::new(),
        counters: MessageCounters::new(n),
        published_at: vec![Vec::new(); n],
        tally: Tally::default(),
    };
    world.seed_ticks(&factory);
    let setup = setup_started.elapsed();

    let loop_started = Instant::now();
    world.run();
    let loop_wall = loop_started.elapsed();

    let assemble_started = Instant::now();
    let outstanding = world
        .nodes
        .iter()
        .map(|n| n.outstanding_losses() as u64)
        .sum();
    let evictions = world.nodes.iter().map(SimNode::lost_evictions).sum();
    world.counters.count_lost_evictions(evictions);
    let routing = routing_stats(world.nodes.iter(), setup_subscription_msgs);
    let result = assemble(
        cfg,
        &world.tracker,
        &world.counters,
        outstanding,
        0,
        0,
        routing,
    );
    DriverRun {
        result,
        tally: world.tally,
        setup,
        loop_wall,
        assemble: assemble_started.elapsed(),
    }
}

impl<P: Probe> World<'_, P> {
    fn key(&mut self, class: u8, to: NodeId, from: NodeId) -> Key {
        let seq = &mut self.next_seq[from.index()];
        *seq += 1;
        (class, to.index() as u32, from.index() as u32, *seq - 1)
    }

    fn schedule(&mut self, at: SimTime, key: Key, ev: Ev) {
        self.probe.begin(Name::Schedule);
        self.engine.schedule_at(at, key, ev);
        self.probe.end();
    }

    /// Each node's first publish tick (one workload-stream draw) and
    /// its gossip phase (uniform over one interval, own stream).
    fn seed_ticks(&mut self, factory: &RngFactory) {
        for i in 0..self.nodes.len() {
            let id = NodeId::new(i as u32);
            if self.cfg.publish_rate > 0.0 {
                let delay = self.nodes[i].next_publish_delay(self.cfg.publish_rate);
                let key = self.key(PUBLISH, id, id);
                self.engine.schedule_at(delay, key, Ev::Publish(id));
            }
            let phase = self.cfg.gossip_interval.mul_f64(
                factory
                    .indexed_stream("gossip-phase", i as u64)
                    .random_range(0.0..1.0),
            );
            let key = self.key(GOSSIP, id, id);
            self.engine.schedule_at(phase, key, Ev::Gossip(id));
        }
    }

    fn run(&mut self) {
        let duration = self.cfg.duration;
        loop {
            self.tally.queue_peak = self.tally.queue_peak.max(self.engine.len());
            self.probe.root(self.tally.events);
            self.probe.begin(Name::Pop);
            let popped = self.engine.pop();
            self.probe.end();
            let Some((t, _, ev)) = popped else {
                self.probe.end();
                return;
            };
            self.tally.events += 1;
            match ev {
                Ev::Deliver { from, to, env } => {
                    let out =
                        self.call(to, t, handle_span(&env), |n, ctx| n.handle(from, env, ctx));
                    self.send(to, t, out);
                }
                // The workload ends at `duration`: a first tick drawn
                // past the end (very low rates) does not fire.
                Ev::Publish(node) if t < duration => {
                    let rate = self.cfg.publish_rate;
                    let (out, delay) =
                        self.call(node, t, Name::Publish, |n, ctx| n.tick_publish(rate, ctx));
                    self.send(node, t, out);
                    if t + delay < duration {
                        let key = self.key(PUBLISH, node, node);
                        self.schedule(t + delay, key, Ev::Publish(node));
                    }
                }
                Ev::Publish(_) => {}
                Ev::Gossip(node) => {
                    let (interval, adaptive) = (self.cfg.gossip_interval, self.cfg.adaptive_gossip);
                    let (out, next) = self.call(node, t, Name::GossipRound, |n, ctx| {
                        n.tick_gossip(interval, adaptive, ctx)
                    });
                    self.tally.rounds += 1;
                    self.tally.idle_rounds += u64::from(out.is_empty());
                    self.send(node, t, out);
                    if t + next < duration {
                        let key = self.key(GOSSIP, node, node);
                        self.schedule(t + next, key, Ev::Gossip(node));
                    }
                }
            }
            self.probe.end();
        }
    }

    /// One call into a node, inside a span named after what it does.
    fn call<R>(
        &mut self,
        node: NodeId,
        now: SimTime,
        span: Name,
        f: impl FnOnce(&mut SimNode, &mut NodeCtx) -> R,
    ) -> R {
        let i = node.index();
        self.probe.begin(span);
        let mut sink = TimedSink {
            inner: &mut self.tracker,
            probe: &mut *self.probe,
            tally: &mut self.tally,
            published_at: &mut self.published_at,
        };
        let mut ctx = NodeCtx {
            now,
            neighbors: self.view.neighbors(node),
            graph_neighbors: self.topology.neighbors(node),
            space: &self.space,
            subscribers_of: &self.subscribers_of,
            gossip_rng: &mut self.gossip_rngs[i],
            tracker: &mut sink,
            counters: &mut self.counters,
            trace: &mut None,
        };
        let out = f(&mut self.nodes[i], &mut ctx);
        self.probe.end();
        out
    }

    /// Counts and transmits a node's output, as the runners' send
    /// layers do: loss and delay come from the transport, drawn from
    /// the sender's own stream.
    fn send(&mut self, from: NodeId, now: SimTime, out: Vec<Outgoing>) {
        let payload = self.cfg.event_payload_bits;
        for Outgoing { to, env } in out {
            self.tally.sends += 1;
            if P::ON && self.tally.sends.is_multiple_of(WIRE_PROBE_EVERY) {
                self.probe.begin(Name::WireProbe);
                probe_wire(&env, payload, &mut self.tally.wire);
                self.probe.end();
            }
            self.probe.begin(Name::Send);
            let bits = env.wire_bits(payload);
            let rng = &mut self.net_rngs[from.index()];
            let arrival = match env.channel() {
                Channel::Tree | Channel::Cross => {
                    match &env {
                        Envelope::PubSub(PubSubMessage::Event(_)) | Envelope::CrossEvent(_) => {
                            self.counters.count_event(from)
                        }
                        Envelope::PubSub(_) => self.counters.count_subscription(from),
                        Envelope::Gossip(_) => self.counters.count_gossip_bits(bits),
                        _ => {}
                    }
                    if self.topology.has_link(from, to) {
                        self.transport.send_link(from, to, bits, now, rng)
                    } else {
                        None
                    }
                }
                Channel::OutOfBand => {
                    match &env {
                        Envelope::Request(_) | Envelope::RangeRequest { .. } => {
                            self.counters.count_request_bits(bits)
                        }
                        Envelope::Reply(_) => self.counters.count_reply_bits(bits),
                        _ => {}
                    }
                    self.transport.send_oob(from, to, bits, now, rng)
                }
            };
            self.probe.end();
            match arrival {
                Some(at) => {
                    let key = self.key(DELIVER, to, from);
                    self.schedule(at, key, Ev::Deliver { from, to, env });
                }
                None => self.tally.link_drops += 1,
            }
        }
    }
}

fn handle_span(env: &Envelope) -> Name {
    match env {
        Envelope::PubSub(PubSubMessage::Event(_)) | Envelope::CrossEvent(_) => Name::OnEvent,
        Envelope::PubSub(_) => Name::OnSubscription,
        Envelope::Gossip(_) => Name::OnDigest,
        Envelope::Request(_) | Envelope::RangeRequest { .. } => Name::OnRequest,
        Envelope::Reply(_) => Name::OnReply,
    }
}

/// Encodes, decodes, frames and reassembles one envelope, as the
/// socket runtime would on its way out and in.
fn probe_wire(env: &Envelope, payload_bits: u64, wire: &mut WireProbe) {
    let t0 = Instant::now();
    let Ok(body) = codec::encode(env, payload_bits) else {
        return;
    };
    let t1 = Instant::now();
    let decoded = codec::decode(&body, payload_bits);
    let t2 = Instant::now();
    let framed = frame(&body);
    let mut reader = FrameReader::new();
    reader.extend(&framed);
    let reassembled = reader.next_frame();
    let t3 = Instant::now();
    assert!(
        matches!(&decoded, Ok(d) if d == env) && reassembled.as_ref() == Ok(&Some(body.clone())),
        "codec or framing round trip changed an envelope"
    );
    wire.samples += 1;
    wire.bytes += body.len() as u64;
    wire.encode_ns += (t1 - t0).as_nanos() as u64;
    wire.decode_ns += (t2 - t1).as_nanos() as u64;
    wire.frame_ns += (t3 - t2).as_nanos() as u64;
}

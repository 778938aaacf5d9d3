//! The transport-independent half of a socket-mode node: one
//! [`SimNode`] plus its neighbor lists and RNG streams, driven by
//! whoever owns the sockets, against the run-wide state in [`Shared`].
//!
//! Everything that touches protocol state, RNG draws, or byte
//! accounting lives here; the epoll reactor in `reactor.rs` only
//! decides how bytes and wakeups reach it. The node's timers are the
//! simulator's own clock on [`SimNode`], its streams the simulator's
//! [`node_streams`], and its link loss is drawn on send exactly where
//! the simulator's `World::send` draws it. So every draw follows from
//! the node's own event order, and only wall-clock arrival order
//! separates a socket run from a simulated one.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use eps_gossip::codec;
use eps_gossip::Channel;
use eps_harness::{charge_send, node_streams, NodeCtx, Outgoing, ScenarioConfig, SimNode};
use eps_metrics::{DeliverySink, DeliveryTracker, MessageCounters, NetCounters};
use eps_overlay::NodeId;
use eps_pubsub::{ClientId, EventId, PatternSpace};
use eps_sim::{Rng, RngFactory, SimTime};

use crate::cluster::NetConfig;

/// Run-wide state, held once per process and read by every node: the
/// scenario and the population's pattern space and subscriber index,
/// the delivery ledger every node call writes into, and the flags the
/// coordinator polls.
pub(crate) struct Shared {
    pub scenario: ScenarioConfig,
    pub space: PatternSpace,
    /// Client subscriptions of each pattern, as `NodeCtx` takes them.
    pub subscribers_of: Vec<Vec<(NodeId, ClientId)>>,
    /// Set once by the coordinator; every worker exits its loop.
    pub stop_all: AtomicBool,
    /// Nodes whose publish schedule is exhausted.
    pub publishers_done: AtomicU64,
    ledger: Mutex<Ledger>,
}

/// The run's delivery accounting: one tracker for every node of the
/// process, plus the wall-clock publish-to-deliver latency of every
/// client delivery.
pub(crate) struct Ledger {
    pub tracker: DeliveryTracker,
    /// One sample per delivery of a known event, in nanoseconds.
    pub latencies_ns: Vec<u64>,
}

impl Ledger {
    fn sample(&mut self, id: EventId, now: SimTime) {
        if let Some(at) = self.tracker.published_at(id) {
            self.latencies_ns.push(now.saturating_sub(at).as_nanos());
        }
    }
}

impl Shared {
    pub(crate) fn new(
        scenario: ScenarioConfig,
        space: PatternSpace,
        subscribers_of: Vec<Vec<(NodeId, ClientId)>>,
    ) -> Shared {
        Shared {
            scenario,
            space,
            subscribers_of,
            stop_all: AtomicBool::new(false),
            publishers_done: AtomicU64::new(0),
            ledger: Mutex::new(Ledger {
                tracker: DeliveryTracker::new_tolerant(),
                latencies_ns: Vec::new(),
            }),
        }
    }

    /// Locks the ledger.
    pub(crate) fn ledger(&self) -> MutexGuard<'_, Ledger> {
        self.ledger
            .lock()
            .expect("a reactor worker panicked while holding the ledger")
    }
}

/// The sink a node call is lent: each publish and delivery goes
/// straight into the run's ledger, one lock per call.
struct LedgerSink<'a>(&'a Shared);

impl DeliverySink for LedgerSink<'_> {
    fn published(&mut self, id: EventId, at: SimTime, expected_recipients: u32) {
        self.0
            .ledger()
            .tracker
            .published(id, at, expected_recipients);
    }
    fn delivered(&mut self, id: EventId, node: NodeId, _client: ClientId, now: SimTime) {
        let mut ledger = self.0.ledger();
        ledger.tracker.delivered(id, node);
        ledger.sample(id, now);
    }
    fn recovered(&mut self, id: EventId, node: NodeId, _client: ClientId, now: SimTime) {
        let mut ledger = self.0.ledger();
        ledger.tracker.recovered(id, node, now);
        ledger.sample(id, now);
    }
}

/// How a frame body reached a node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Arrival {
    /// On a tree link, whose peer the hello check verified.
    Link,
    /// As a UDP datagram, whose 4-byte sender prefix nothing verifies.
    Datagram,
}

/// One message the core wants on the wire: the target, which channel
/// class it travels on, and the already-encoded (post-`fit`) body of
/// an envelope that survived the send-side loss draw. The transport
/// layer frames/prefixes it and does the socket work.
pub(crate) struct Outbound {
    pub to: NodeId,
    pub channel: Channel,
    pub body: Vec<u8>,
}

/// The protocol state of one socket-mode node. Owns no sockets;
/// appends [`Outbound`]s to a batch the runtime owns and puts on the
/// wire.
/// Its message counts go to the counters of the worker that drives
/// it, its deliveries to the ledger in [`Shared`].
pub(crate) struct NodeCore {
    pub id: NodeId,
    node: SimNode,
    /// Routing-view neighbors: the peers this node keeps TCP tree
    /// links to, and the targets of protocol forwards.
    neighbors: Vec<NodeId>,
    /// Physical-graph neighbors: the neighborhood gossip draws
    /// partners from. Equal to `neighbors` on tree overlays; the
    /// extra members (cross links) are reached over UDP.
    graph_neighbors: Vec<NodeId>,

    gossip_rng: Rng,
    loss_rng: Rng,
    /// What a node call appends, until [`NodeCore::route`] drains it.
    outbox: Vec<Outgoing>,

    pub net: NetCounters,

    publish_done_reported: bool,
}

impl NodeCore {
    /// Boots `node` with its neighbor lists: starts its clock, whose
    /// rounds run through the drain, and takes its two streams.
    pub(crate) fn new(
        mut node: SimNode,
        neighbors: Vec<NodeId>,
        graph_neighbors: Vec<NodeId>,
        config: &NetConfig,
        factory: &RngFactory,
    ) -> NodeCore {
        let scenario = &config.scenario;
        let drain = SimTime::from_nanos(config.drain.as_nanos() as u64);
        node.start_clock(scenario, factory, scenario.duration + drain);
        let id = node.id();
        let (gossip_rng, loss_rng) = node_streams(factory, id);
        NodeCore {
            id,
            node,
            neighbors,
            graph_neighbors,
            gossip_rng,
            loss_rng,
            outbox: Vec::new(),
            net: NetCounters::default(),
            publish_done_reported: false,
        }
    }

    /// The wrapped node actor: its clock, and its routing state at the
    /// end of the run.
    pub(crate) fn sim_node(&self) -> &SimNode {
        &self.node
    }

    /// Routing-view neighbors — the peers the runtime keeps TCP tree
    /// links to.
    pub(crate) fn neighbors(&self) -> &[NodeId] {
        &self.neighbors
    }

    /// `Lost` entries this node's recovery algorithm still chases.
    pub(crate) fn outstanding_losses(&self) -> u64 {
        self.node.outstanding_losses() as u64
    }

    /// `Lost` entries evicted under the capacity bound.
    pub(crate) fn lost_evictions(&self) -> u64 {
        self.node.lost_evictions()
    }

    /// Counts this node in `publishers_done` once its publish schedule
    /// is over: call before the first loop pass (a node may draw no
    /// publish at all) and after every timer.
    pub(crate) fn report_publish_done(&mut self, shared: &Shared) {
        if !self.publish_done_reported && !self.node.is_publishing() {
            self.publish_done_reported = true;
            shared.publishers_done.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Handles one decoded-frame body arriving from `from` by way of
    /// `arrival`, and appends what the node wants sent in response to
    /// `sends`.
    ///
    /// Tree messages (subscriptions, events, gossip) travel only on tree
    /// links. One that arrives as a datagram names a sender nothing
    /// verified, and would write that sender's routes: it is counted as
    /// a decode error and dropped.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn handle_body(
        &mut self,
        from: NodeId,
        arrival: Arrival,
        body: &[u8],
        now: SimTime,
        shared: &Shared,
        counters: &mut MessageCounters,
        sends: &mut Vec<Outbound>,
    ) {
        let env = match codec::decode(body, shared.scenario.event_payload_bits) {
            Ok(env) if arrival == Arrival::Link || env.channel() != Channel::Tree => env,
            _ => {
                self.net.decode_errors += 1;
                return;
            }
        };
        self.with_ctx(now, shared, counters, |node, ctx, out| {
            node.handle_into(from, env, ctx, out)
        });
        self.route(shared, counters, sends);
    }

    /// Lends the node its context for one call (the run-wide state and
    /// ledger from `shared`, the worker's `counters`) and the outbox.
    fn with_ctx<R>(
        &mut self,
        now: SimTime,
        shared: &Shared,
        counters: &mut MessageCounters,
        f: impl FnOnce(&mut SimNode, &mut NodeCtx, &mut Vec<Outgoing>) -> R,
    ) -> R {
        let mut ctx = NodeCtx {
            now,
            neighbors: &self.neighbors,
            graph_neighbors: &self.graph_neighbors,
            space: &shared.space,
            subscribers_of: &shared.subscribers_of,
            gossip_rng: &mut self.gossip_rng,
            tracker: &mut LedgerSink(shared),
            counters,
            trace: &mut None,
        };
        f(&mut self.node, &mut ctx, &mut self.outbox)
    }

    /// Fires the node's next timer, if it is due at wall-clock virtual
    /// time `now`, into `sends`. One timer per call, so a node behind
    /// its schedule yields to its sockets between ticks; the clock
    /// renews from the *scheduled* time, so wall-clock jitter never
    /// changes how many events a seed publishes.
    pub(crate) fn tick_timers(
        &mut self,
        now: SimTime,
        shared: &Shared,
        counters: &mut MessageCounters,
        sends: &mut Vec<Outbound>,
    ) {
        self.with_ctx(now, shared, counters, |node, ctx, out| {
            node.fire_timer(&shared.scenario, ctx, out)
        });
        self.report_publish_done(shared);
        self.route(shared, counters, sends);
    }

    /// Replays the node's parked rounds due before `now` and plans its
    /// clock: at boot, so that a round that would send nothing never
    /// wakes the worker.
    pub(crate) fn catch_up(
        &mut self,
        now: SimTime,
        shared: &Shared,
        counters: &mut MessageCounters,
    ) {
        self.with_ctx(now, shared, counters, |node, ctx, _| node.catch_up(ctx));
    }

    /// Encodes the outbox into `sends`, charging the send-layer
    /// counters through the simulator's own `charge_send` and drawing
    /// link loss as the simulator's `World::send` does: one draw per
    /// tree or cross-link envelope at ε, one per out-of-band envelope
    /// at the out-of-band loss rate, each only when that rate is
    /// positive. A lost envelope is counted and never encoded.
    fn route(
        &mut self,
        shared: &Shared,
        counters: &mut MessageCounters,
        sends: &mut Vec<Outbound>,
    ) {
        let scenario = &shared.scenario;
        let payload_bits = scenario.event_payload_bits;
        for Outgoing { to, env: msg } in self.outbox.drain(..) {
            // Enforce the paper's digest budget before encoding; a
            // trimmed digest is re-announced by later rounds.
            let (msg, dropped) = codec::fit(msg, payload_bits);
            if dropped > 0 {
                self.net.digest_truncations += 1;
                self.net.route_drops += dropped;
            }
            // Charged on the post-fit envelope: the bits that actually
            // hit the wire.
            let bits = msg.wire_bits(payload_bits);
            charge_send(counters, self.id, &msg, bits);
            let loss_rate = match msg.channel() {
                Channel::Tree | Channel::Cross => scenario.link_error_rate,
                Channel::OutOfBand => scenario.out_of_band.loss_rate,
            };
            if loss_rate > 0.0 && self.loss_rng.random_bool(loss_rate) {
                self.net.injected_drops += 1;
                continue;
            }
            let body = match codec::encode(&msg, payload_bits) {
                Ok(b) => b,
                Err(_) => {
                    // Unencodable after fitting — accounting bug, not
                    // a transient; surface it in the counters.
                    self.net.decode_errors += 1;
                    continue;
                }
            };
            // The cross-validation invariant: on-the-wire bytes are
            // the simulator's wire_bits, always.
            assert_eq!(
                body.len() as u64 * 8,
                bits,
                "codec framed size diverged from wire_bits"
            );
            sends.push(Outbound {
                to,
                channel: msg.channel(),
                body,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use eps_gossip::Algorithm;
    use eps_harness::{gossip_phase, run_scenario_traced, TraceRecord};

    use super::*;
    use crate::cluster::boot_population;

    /// Each socket core, booted as a cluster boots it and driven alone
    /// through its own deadlines in virtual time, fires the simulator's
    /// schedule: the same event ids at the same instants, and, once it
    /// has caught up to the end, has run one round at every
    /// `phase + kT` before it. (Its `no-recovery` rounds send nothing,
    /// so they are replayed, not fired.)
    #[test]
    fn every_core_fires_the_simulators_schedule() {
        let scenario = ScenarioConfig {
            seed: 5,
            nodes: 8,
            max_degree: 3,
            publish_rate: 20.0,
            link_error_rate: 0.0,
            pattern_universe: 8,
            pi_max: 2,
            duration: SimTime::from_millis(700),
            warmup: SimTime::from_millis(100),
            cooldown: SimTime::from_millis(100),
            gossip_interval: SimTime::from_millis(30),
            algorithm: Algorithm::no_recovery(),
            ..ScenarioConfig::default()
        };
        let (_, trace) = run_scenario_traced(&scenario, 1 << 16);
        assert_eq!(trace.dropped(), 0);
        let config = NetConfig {
            scenario: scenario.clone(),
            ..NetConfig::default()
        };
        let mut boot = boot_population(&config, None).expect("sockets bind");
        let factory = RngFactory::new(scenario.seed);
        let (duration, interval) = (scenario.duration, scenario.gossip_interval);
        let (mut counters, mut sends) = (MessageCounters::new(scenario.nodes), Vec::new());
        for node in &mut boot.nodes {
            let core = &mut node.core;
            while let Some((at, _)) = core.sim_node().next_timer() {
                if at >= duration {
                    break;
                }
                core.tick_timers(at, &boot.shared, &mut counters, &mut sends);
            }
            core.catch_up(duration, &boot.shared, &mut counters);

            let published: Vec<(EventId, SimTime)> = trace
                .records()
                .iter()
                .filter_map(|r| match *r {
                    TraceRecord::Publish {
                        at, node, event, ..
                    } if node == core.id => Some((event, at)),
                    _ => None,
                })
                .collect();
            assert!(!published.is_empty(), "{} published nothing", core.id);
            let ledger = boot.shared.ledger();
            for &(event, at) in &published {
                assert_eq!(ledger.tracker.published_at(event), Some(at), "{event}");
            }
            let phase = gossip_phase(&factory, core.id, interval);
            let grid = (0..)
                .map(|k| phase + interval.saturating_mul(k))
                .take_while(|&at| at < duration)
                .count();
            assert_eq!(
                core.sim_node().gossip_rounds(),
                grid as u64,
                "rounds of {}",
                core.id
            );
        }
        let publishes = trace
            .records()
            .iter()
            .filter(|r| matches!(r, TraceRecord::Publish { .. }))
            .count();
        assert_eq!(boot.shared.ledger().tracker.event_count(), publishes);
    }

    /// A frame naming an event id past [`EventId::MAX_SEQ`] — which a
    /// seen set cannot mark — is a counted decode error at the node it
    /// reaches, and nothing else: the node sends nothing, and the run
    /// learns of no event.
    #[test]
    fn an_id_past_the_largest_seq_is_a_counted_decode_error() {
        use eps_gossip::{Envelope, GossipMessage};
        use eps_pubsub::{Event, PatternId, PubSubMessage};
        use std::sync::Arc;

        let config = NetConfig {
            scenario: ScenarioConfig {
                nodes: 2,
                pattern_universe: 4,
                ..ScenarioConfig::default()
            },
            ..NetConfig::default()
        };
        let mut boot = boot_population(&config, None).expect("sockets bind");
        let (mut counters, mut sends) = (MessageCounters::new(2), Vec::new());
        let (from, pattern) = (NodeId::new(1), PatternId::new(0));
        let far = EventId::new(from, EventId::MAX_SEQ + 1);
        let event = Event::new(far, vec![(pattern, 0)]);
        let frames = [
            Envelope::PubSub(PubSubMessage::Event(event.clone())),
            Envelope::Gossip(GossipMessage::PushDigest {
                gossiper: from,
                pattern,
                ids: Arc::new(vec![far]),
            }),
            Envelope::Request(vec![far]),
            Envelope::Reply(vec![event]),
        ];
        let payload_bits = config.scenario.event_payload_bits;
        let core = &mut boot.nodes[0].core;
        for (k, env) in frames.iter().enumerate() {
            let body = codec::encode(env, payload_bits).expect("the frame encodes");
            core.handle_body(
                from,
                Arrival::Link,
                &body,
                SimTime::ZERO,
                &boot.shared,
                &mut counters,
                &mut sends,
            );
            assert!(sends.is_empty(), "{env:?}");
            assert_eq!(core.net.decode_errors, k as u64 + 1, "{env:?}");
        }
        assert_eq!(boot.shared.ledger().tracker.event_count(), 0);
    }

    /// A tree message that arrives as a datagram is a counted decode
    /// error and nothing else, whoever its sender prefix names: forged
    /// (un)subscriptions, events and gossip from 70 made-up senders and
    /// from the node's real neighbors leave its table as it was, send
    /// nothing and deliver nothing. An out-of-band datagram still
    /// reaches the node.
    #[test]
    fn a_tree_message_in_a_datagram_is_a_counted_decode_error() {
        use eps_gossip::{Envelope, GossipMessage};
        use eps_pubsub::{DispatcherHost, Event, PatternId, PubSubMessage};
        use std::sync::Arc;

        let config = NetConfig {
            scenario: ScenarioConfig {
                nodes: 6,
                pattern_universe: 4,
                ..ScenarioConfig::default()
            },
            ..NetConfig::default()
        };
        let payload_bits = config.scenario.event_payload_bits;
        let mut boot = boot_population(&config, None).expect("sockets bind");
        let (mut counters, mut sends) = (MessageCounters::new(6), Vec::new());
        let core = &mut boot.nodes[0].core;
        let before = core.sim_node().dispatcher().table().clone();
        assert!(!before.is_empty(), "the node has routes to lose");
        let made_up = (1000..1070).map(NodeId::new);
        let senders: Vec<NodeId> = core.neighbors().iter().copied().chain(made_up).collect();
        let mut forged = 0;
        for &from in &senders {
            for p in (0..4).map(PatternId::new) {
                let event = Event::new(EventId::new(from, 1), vec![(p, 1)]);
                let frames = [
                    Envelope::PubSub(PubSubMessage::Subscribe(p)),
                    Envelope::PubSub(PubSubMessage::Unsubscribe(p)),
                    Envelope::PubSub(PubSubMessage::Event(event.clone())),
                    Envelope::Gossip(GossipMessage::PushDigest {
                        gossiper: from,
                        pattern: p,
                        ids: Arc::new(vec![event.id()]),
                    }),
                ];
                for env in &frames {
                    let body = codec::encode(env, payload_bits).expect("the frame encodes");
                    core.handle_body(
                        from,
                        Arrival::Datagram,
                        &body,
                        SimTime::ZERO,
                        &boot.shared,
                        &mut counters,
                        &mut sends,
                    );
                    forged += 1;
                    assert!(sends.is_empty(), "{env:?}");
                    assert_eq!(core.net.decode_errors, forged, "{env:?}");
                }
            }
        }
        assert_eq!(core.sim_node().dispatcher().table(), &before);
        assert_eq!(boot.shared.ledger().tracker.event_count(), 0);

        let request = codec::encode(&Envelope::Request(Vec::new()), payload_bits).unwrap();
        core.handle_body(
            senders[0],
            Arrival::Datagram,
            &request,
            SimTime::ZERO,
            &boot.shared,
            &mut counters,
            &mut sends,
        );
        assert_eq!(
            core.net.decode_errors, forged,
            "an out-of-band datagram is no error"
        );
    }
}

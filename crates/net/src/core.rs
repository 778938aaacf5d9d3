//! The transport-independent half of a socket-mode node: one
//! [`SimNode`] plus its timers and RNG streams, driven by whoever owns
//! the sockets, against the run-wide state in [`Shared`].
//!
//! Everything that touches protocol state, RNG draws, or byte
//! accounting lives here; the epoll reactor in `reactor.rs` only
//! decides how bytes and wakeups reach it, which is why a same-seed
//! run publishes what the simulator publishes however the sockets
//! behave.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use eps_gossip::codec;
use eps_gossip::{Channel, Envelope};
use eps_harness::{charge_send, NodeCtx, Outgoing, ScenarioConfig, SimNode};
use eps_metrics::{DeliverySink, DeliveryTracker, MessageCounters, NetCounters};
use eps_overlay::NodeId;
use eps_pubsub::{ClientId, EventId, PatternSpace, PubSubMessage};
use eps_sim::{Rng, SimTime};

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

/// One message the core wants on the wire: the target, which channel
/// class it travels on, and the already-encoded (post-`fit`) body.
/// The transport layer frames/prefixes it and does the socket work.
pub(crate) struct Outbound {
    pub to: NodeId,
    pub channel: Channel,
    pub body: Vec<u8>,
}

/// What one node is booted with; everything run-wide is in [`Shared`].
pub(crate) struct CoreSetup {
    pub node: SimNode,
    /// Routing-view neighbors (TCP tree links).
    pub neighbors: Vec<NodeId>,
    /// Physical-graph neighbors (gossip neighborhood).
    pub graph_neighbors: Vec<NodeId>,
    pub gossip_rng: Rng,
    pub loss_rng: Rng,
}

/// The protocol state of one socket-mode node. Owns no sockets;
/// returns [`Outbound`] batches for the runtime to put on the wire.
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

    pub net: NetCounters,

    /// Virtual time of the next publish tick (`None` = schedule
    /// exhausted). Mirrors the simulator: the first tick is one
    /// workload-RNG draw after zero, each tick renews after its own
    /// delay draw, and a tick — first or renewed — exists only if it
    /// lands before `duration`.
    publish_vnext: Option<SimTime>,
    publish_done_reported: bool,
    gossip_vnext: SimTime,
}

impl NodeCore {
    pub(crate) fn new(setup: CoreSetup, scenario: &ScenarioConfig) -> NodeCore {
        let mut node = setup.node;
        let id = node.id();
        // The simulator seeds each publish process with one delay draw
        // before anything else touches the workload stream; replay
        // that exactly so the publication sequences coincide. At very
        // low rates the draw can land at or past `duration`: the
        // workload is over by then, so that tick never fires.
        let publish_vnext = (scenario.publish_rate > 0.0)
            .then(|| node.next_publish_delay(scenario.publish_rate))
            .filter(|&first| first < scenario.duration);
        let mut gossip_rng = setup.gossip_rng;
        // Stagger gossip phases uniformly over one interval, as the
        // simulator does (from this node's own stream — a documented
        // sim/net divergence; see DESIGN.md).
        let gossip_vnext = scenario
            .gossip_interval
            .mul_f64(gossip_rng.random_range(0.0..1.0));
        NodeCore {
            id,
            node,
            neighbors: setup.neighbors,
            graph_neighbors: setup.graph_neighbors,
            gossip_rng,
            loss_rng: setup.loss_rng,
            net: NetCounters::default(),
            publish_vnext,
            publish_done_reported: false,
            gossip_vnext,
        }
    }

    /// The wrapped node actor, for end-of-run routing-state sampling.
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

    /// Reports an empty publish schedule to the convergence counters;
    /// call once before the first poll/loop iteration.
    pub(crate) fn bootstrap(&mut self, shared: &Shared) {
        if self.publish_vnext.is_none() {
            self.report_publish_done(shared);
        }
    }

    fn report_publish_done(&mut self, shared: &Shared) {
        if !self.publish_done_reported {
            self.publish_done_reported = true;
            shared.publishers_done.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The earliest virtual time at which a timer is due: the next
    /// publish tick (if the schedule is live) or the next gossip round.
    pub(crate) fn next_deadline(&self) -> SimTime {
        match self.publish_vnext {
            Some(p) => p.min(self.gossip_vnext),
            None => self.gossip_vnext,
        }
    }

    /// Handles one decoded-frame body arriving from `from`, applying
    /// receive-side loss injection on the tree/cross channels. Returns
    /// what the node wants sent in response.
    pub(crate) fn handle_body(
        &mut self,
        from: NodeId,
        body: &[u8],
        tree: bool,
        now: SimTime,
        shared: &Shared,
        counters: &mut MessageCounters,
    ) -> Vec<Outbound> {
        let scenario = &shared.scenario;
        let env_msg = match codec::decode(body, scenario.event_payload_bits) {
            Ok(m) => m,
            Err(_) => {
                self.net.decode_errors += 1;
                return Vec::new();
            }
        };
        // Receive-side loss injection, the net analogue of the
        // simulator's per-link error rate ε. Applied to tree traffic
        // and to cross-link event copies, which the simulator runs
        // through the same lossy link model even though this runtime
        // carries them over UDP. The out-of-band recovery channel
        // stays lossless (the paper's default configuration, and real
        // loopback UDP nearly is).
        if (tree
            && matches!(
                env_msg,
                Envelope::PubSub(PubSubMessage::Event(_)) | Envelope::Gossip(_)
            )
            || matches!(env_msg, Envelope::CrossEvent(_)))
            && scenario.link_error_rate > 0.0
            && self.loss_rng.random_bool(scenario.link_error_rate)
        {
            self.net.injected_drops += 1;
            return Vec::new();
        }
        let out = self.with_ctx(now, shared, counters, |node, ctx| {
            node.handle(from, env_msg, ctx)
        });
        self.route(out, shared, counters)
    }

    /// Lends the node its context for one call: the run-wide state and
    /// ledger from `shared`, the driving worker's `counters`.
    fn with_ctx<R>(
        &mut self,
        now: SimTime,
        shared: &Shared,
        counters: &mut MessageCounters,
        f: impl FnOnce(&mut SimNode, &mut NodeCtx) -> R,
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
        f(&mut self.node, &mut ctx)
    }

    /// Fires every timer due at virtual time `now`: at most one
    /// publish tick (renewal uses the *scheduled* time, exactly like
    /// the simulator's queue — wall-clock jitter must not change how
    /// many events a seed publishes) and as many gossip rounds as have
    /// come due. Returns the traffic they produced.
    pub(crate) fn tick_timers(
        &mut self,
        now: SimTime,
        shared: &Shared,
        counters: &mut MessageCounters,
    ) -> Vec<Outbound> {
        let scenario = &shared.scenario;
        let mut sends = Vec::new();
        if let Some(vnext) = self.publish_vnext {
            if now >= vnext {
                let (out, delay) = self.with_ctx(now, shared, counters, |node, ctx| {
                    node.tick_publish(scenario.publish_rate, ctx)
                });
                sends.extend(self.route(out, shared, counters));
                if vnext + delay < scenario.duration {
                    self.publish_vnext = Some(vnext + delay);
                } else {
                    self.publish_vnext = None;
                    self.report_publish_done(shared);
                }
            }
        }
        // Gossip keeps running through the drain window (unlike the
        // simulator, whose ticks stop renewing at `duration`): real
        // recovery needs rounds to finish the job. Documented as a
        // sim/net equivalence rule.
        while now >= self.gossip_vnext {
            let (out, next) = self.with_ctx(now, shared, counters, |node, ctx| {
                node.tick_gossip(scenario.gossip_interval, scenario.adaptive_gossip, ctx)
            });
            sends.extend(self.route(out, shared, counters));
            self.gossip_vnext += next;
        }
        sends
    }

    /// Encodes one batch of node output, charging the send-layer
    /// counters through the simulator's own `charge_send`.
    fn route(
        &mut self,
        out: Vec<Outgoing>,
        shared: &Shared,
        counters: &mut MessageCounters,
    ) -> Vec<Outbound> {
        let payload_bits = shared.scenario.event_payload_bits;
        let mut sends = Vec::with_capacity(out.len());
        for Outgoing { to, env: msg } in out {
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
        sends
    }
}

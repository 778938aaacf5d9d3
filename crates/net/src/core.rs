//! The transport-independent half of a socket-mode node: one
//! [`SimNode`] plus its timers, RNG streams, and metrics sinks, driven
//! by whoever owns the sockets.
//!
//! Everything that touches protocol state, RNG draws, or byte
//! accounting lives here; the epoll reactor in `reactor.rs` only
//! decides how bytes and wakeups reach it, which is why a same-seed
//! run publishes what the simulator publishes however the sockets
//! behave.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use eps_gossip::codec;
use eps_gossip::{Channel, Envelope};
use eps_harness::{AdaptiveGossip, NodeCtx, Outgoing, ScenarioTrace, SimNode};
use eps_metrics::{DeliverySink, MessageCounters, NetCounters};
use eps_overlay::NodeId;
use eps_pubsub::{ClientId, EventId, PatternSpace, PubSubMessage};
use eps_sim::{Rng, SimTime};

/// Run-wide shared state: the stop flag and the adaptive-stop
/// progress counters the coordinator polls.
#[derive(Debug, Default)]
pub(crate) struct Shared {
    /// Set once by the coordinator; every worker exits its loop.
    pub stop_all: AtomicBool,
    /// Intended deliveries, summed over all publishes so far.
    pub expected: AtomicU64,
    /// Actual deliveries (first copies only, recovered or not).
    pub delivered: AtomicU64,
    /// Nodes whose publish schedule is exhausted.
    pub publishers_done: AtomicU64,
}

/// What one call into a node adds to the [`Shared`] progress
/// counters: the intended deliveries of its publishes and the
/// deliveries it made, recovered or not.
#[derive(Default)]
struct Progress {
    expected: u64,
    delivered: u64,
}

impl DeliverySink for Progress {
    fn published(&mut self, _id: EventId, _at: SimTime, expected_recipients: u32) {
        self.expected += u64::from(expected_recipients);
    }
    fn delivered(&mut self, _id: EventId, _node: NodeId, _client: ClientId, _now: SimTime) {
        self.delivered += 1;
    }
    fn recovered(&mut self, _id: EventId, _node: NodeId, _client: ClientId, _now: SimTime) {
        self.delivered += 1;
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

/// Constructor parameters that are per-node (everything scenario-wide
/// comes from [`NodeParams`] passed alongside).
pub(crate) struct CoreSetup {
    pub node: SimNode,
    /// Routing-view neighbors (TCP tree links).
    pub neighbors: Vec<NodeId>,
    /// Physical-graph neighbors (gossip neighborhood).
    pub graph_neighbors: Vec<NodeId>,
    pub space: PatternSpace,
    pub subscribers_of: Vec<Vec<(NodeId, ClientId)>>,
    pub gossip_rng: Rng,
    pub loss_rng: Rng,
    pub counters_width: usize,
    pub trace_capacity: usize,
}

pub(crate) struct NodeParams {
    pub payload_bits: u64,
    pub loss_rate: f64,
    pub publish_rate: f64,
    pub gossip_interval: SimTime,
    pub adaptive: Option<AdaptiveGossip>,
    pub duration: SimTime,
}

/// The protocol state of one socket-mode node. Owns no sockets;
/// returns [`Outbound`] batches for the runtime to put on the wire.
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
    space: PatternSpace,
    subscribers_of: Vec<Vec<(NodeId, ClientId)>>,

    payload_bits: u64,
    loss_rate: f64,
    publish_rate: f64,
    gossip_interval: SimTime,
    adaptive: Option<AdaptiveGossip>,
    duration: SimTime,

    gossip_rng: Rng,
    loss_rng: Rng,

    pub counters: MessageCounters,
    pub net: NetCounters,
    pub trace: Option<ScenarioTrace>,

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
    pub(crate) fn new(setup: CoreSetup, params: NodeParams) -> NodeCore {
        let mut node = setup.node;
        let id = node.id();
        // The simulator seeds each publish process with one delay draw
        // before anything else touches the workload stream; replay
        // that exactly so the publication sequences coincide. At very
        // low rates the draw can land at or past `duration`: the
        // workload is over by then, so that tick never fires.
        let publish_vnext = (params.publish_rate > 0.0)
            .then(|| node.next_publish_delay(params.publish_rate))
            .filter(|&first| first < params.duration);
        let mut gossip_rng = setup.gossip_rng;
        // Stagger gossip phases uniformly over one interval, as the
        // simulator does (from this node's own stream — a documented
        // sim/net divergence; see DESIGN.md).
        let gossip_vnext = params
            .gossip_interval
            .mul_f64(gossip_rng.random_range(0.0..1.0));
        NodeCore {
            id,
            node,
            neighbors: setup.neighbors,
            graph_neighbors: setup.graph_neighbors,
            space: setup.space,
            subscribers_of: setup.subscribers_of,
            payload_bits: params.payload_bits,
            loss_rate: params.loss_rate,
            publish_rate: params.publish_rate,
            gossip_interval: params.gossip_interval,
            adaptive: params.adaptive,
            duration: params.duration,
            gossip_rng,
            loss_rng: setup.loss_rng,
            counters: MessageCounters::new(setup.counters_width),
            net: NetCounters::default(),
            trace: Some(ScenarioTrace::new(setup.trace_capacity)),
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
    ) -> Vec<Outbound> {
        let env_msg = match codec::decode(body, self.payload_bits) {
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
            && self.loss_rate > 0.0
            && self.loss_rng.random_bool(self.loss_rate)
        {
            self.net.injected_drops += 1;
            return Vec::new();
        }
        let out = self.with_ctx(now, shared, |node, ctx| node.handle(from, env_msg, ctx));
        self.route(out)
    }

    /// Lends the node its context for one call and adds the call's
    /// progress to the coordinator's convergence counters. Counting
    /// through the sink, not the bounded trace, keeps the counters
    /// moving after the trace is full.
    fn with_ctx<R>(
        &mut self,
        now: SimTime,
        shared: &Shared,
        f: impl FnOnce(&mut SimNode, &mut NodeCtx) -> R,
    ) -> R {
        let mut progress = Progress::default();
        let mut ctx = NodeCtx {
            now,
            neighbors: &self.neighbors,
            graph_neighbors: &self.graph_neighbors,
            space: &self.space,
            subscribers_of: &self.subscribers_of,
            gossip_rng: &mut self.gossip_rng,
            tracker: &mut progress,
            counters: &mut self.counters,
            trace: &mut self.trace,
        };
        let out = f(&mut self.node, &mut ctx);
        if progress.expected > 0 {
            shared
                .expected
                .fetch_add(progress.expected, Ordering::Relaxed);
        }
        if progress.delivered > 0 {
            shared
                .delivered
                .fetch_add(progress.delivered, Ordering::Relaxed);
        }
        out
    }

    /// Fires every timer due at virtual time `now`: at most one
    /// publish tick (renewal uses the *scheduled* time, exactly like
    /// the simulator's queue — wall-clock jitter must not change how
    /// many events a seed publishes) and as many gossip rounds as have
    /// come due. Returns the traffic they produced.
    pub(crate) fn tick_timers(&mut self, now: SimTime, shared: &Shared) -> Vec<Outbound> {
        let mut sends = Vec::new();
        if let Some(vnext) = self.publish_vnext {
            if now >= vnext {
                let rate = self.publish_rate;
                let (out, delay) =
                    self.with_ctx(now, shared, |node, ctx| node.tick_publish(rate, ctx));
                sends.extend(self.route(out));
                if vnext + delay < self.duration {
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
            let (interval, adaptive) = (self.gossip_interval, self.adaptive);
            let (out, next) = self.with_ctx(now, shared, |node, ctx| {
                node.tick_gossip(interval, adaptive, ctx)
            });
            sends.extend(self.route(out));
            self.gossip_vnext += next;
        }
        sends
    }

    /// Encodes one batch of node output, charging the send-layer
    /// counters exactly as the simulator's `World::send` does.
    fn route(&mut self, out: Vec<Outgoing>) -> Vec<Outbound> {
        let mut sends = Vec::with_capacity(out.len());
        for Outgoing { to, env: msg } in out {
            // Event and subscription traffic is counted at the send
            // layer, mirroring the simulator's `World::send` (gossip
            // classes are counted inside the node when the action is
            // decided).
            match &msg {
                Envelope::PubSub(PubSubMessage::Event(_)) | Envelope::CrossEvent(_) => {
                    self.counters.count_event(self.id)
                }
                Envelope::PubSub(_) => self.counters.count_subscription(self.id),
                _ => {}
            }
            // Enforce the paper's digest budget before encoding; a
            // trimmed digest is re-announced by later rounds.
            let (msg, dropped) = codec::fit(msg, self.payload_bits);
            if dropped > 0 {
                self.net.digest_truncations += 1;
                self.net.route_drops += dropped;
            }
            let body = match codec::encode(&msg, self.payload_bits) {
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
            let bits = msg.wire_bits(self.payload_bits);
            assert_eq!(
                body.len() as u64 * 8,
                bits,
                "codec framed size diverged from wire_bits"
            );
            // Wire-bit accounting mirrors the simulator's send layer,
            // charged on the post-fit envelope — the bits that actually
            // hit the wire.
            match &msg {
                Envelope::Gossip(_) => self.counters.count_gossip_bits(bits),
                Envelope::Request(_) | Envelope::RangeRequest { .. } => {
                    self.counters.count_request_bits(bits)
                }
                Envelope::Reply(_) => self.counters.count_reply_bits(bits),
                _ => {}
            }
            sends.push(Outbound {
                to,
                channel: msg.channel(),
                body,
            });
        }
        sends
    }
}

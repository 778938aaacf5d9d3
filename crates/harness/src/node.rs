//! The node actor: everything one simulated dispatcher owns —
//! protocol logic, recovery algorithm, workload RNG, gossip-timer
//! state, and its subscription list — behind a narrow
//! message-in/messages-out API.
//!
//! A [`SimNode`] never touches the network or the event queue: it
//! consumes an [`Envelope`] (or a timer tick) and returns the
//! [`Outgoing`] messages it wants sent. Routing, delay, loss, and
//! scheduling stay with the runner and its transport. Runner-held
//! state a node needs while handling a message — the metrics sinks,
//! its gossip-decision RNG stream, the trace — is lent to it for the
//! duration of one call as a [`NodeCtx`].

pub use eps_gossip::Outgoing;
use eps_gossip::{Envelope, Strategy};
use eps_metrics::{DeliverySink, MessageCounters};
use eps_overlay::NodeId;
use eps_pubsub::{
    ClientId, Dispatcher, DispatcherConfig, DispatcherHost, Event, PatternId, PatternSpace,
    PubSubMessage,
};
use eps_sim::{Rng, SimTime};

use crate::config::AdaptiveGossip;
use crate::result::RoutingStats;
use crate::trace::{ScenarioTrace, TraceRecord};

/// Runner-held state lent to a node for the duration of one call: the
/// current virtual time and overlay neighborhood, the pattern space,
/// the metrics sinks, the node's own gossip-decision RNG stream — one
/// per node, so its draws follow from the node's own event sequence
/// and not from how nodes interleave — and the optional trace.
pub struct NodeCtx<'a> {
    /// Current virtual time.
    pub now: SimTime,
    /// The node's neighbors in the routing view (the dispatching
    /// tree): where subscriptions and events are forwarded.
    pub neighbors: &'a [NodeId],
    /// The node's neighbors in the physical overlay graph: the
    /// neighborhood gossip rounds draw partners from. On tree
    /// overlays this is the same slice as `neighbors`; on cyclic
    /// overlays it additionally holds the cross links.
    pub graph_neighbors: &'a [NodeId],
    /// The content model (for drawing event content).
    pub space: &'a PatternSpace,
    /// Current client-subscriptions of each pattern, indexed by
    /// [`PatternId`]: sorted `(node, client)` pairs.
    pub subscribers_of: &'a [Vec<(NodeId, ClientId)>],
    /// This node's gossip-decision RNG stream.
    pub gossip_rng: &'a mut Rng,
    /// Delivery bookkeeping: the run's [`eps_metrics::DeliveryTracker`]
    /// in the scenario runner; in the socket runtime, a sink that
    /// locks the process's one tracker for each call.
    pub tracker: &'a mut dyn DeliverySink,
    /// Message counting.
    pub counters: &'a mut MessageCounters,
    /// Optional bounded trace of interesting moments.
    pub trace: &'a mut Option<ScenarioTrace>,
}

impl NodeCtx<'_> {
    fn record(&mut self, record: TraceRecord) {
        if let Some(trace) = self.trace.as_mut() {
            trace.push(record);
        }
    }
}

/// One simulated dispatcher as an actor: the pub-sub [`Dispatcher`],
/// its recovery [`Strategy`] (inline), its workload RNG, its (possibly
/// adaptive) gossip-timer state, and its current subscription list.
pub struct SimNode {
    id: NodeId,
    dispatcher: Dispatcher,
    algorithm: Strategy,
    workload_rng: Rng,
    gossip_delay: SimTime,
    subscriptions: Vec<PatternId>,
    /// The node's physical neighbors outside the routing view, each
    /// with its current local subscriptions: the targets of
    /// cross-link event replication. Empty on tree overlays.
    cross_targets: Vec<(NodeId, Vec<PatternId>)>,
    /// Reusable buffer for drawn event content, so the publish tick
    /// does not allocate in steady state.
    content_scratch: Vec<PatternId>,
    /// Reusable buffer for local-client fan-out on delivery.
    client_scratch: Vec<ClientId>,
}

impl SimNode {
    /// Creates a node actor. `subscriptions` is the node's initial
    /// local subscription list; installing it into the dispatcher (and
    /// flooding it) is the caller's job, via the [`DispatcherHost`]
    /// assembly helpers.
    pub fn new(
        id: NodeId,
        dispatcher_config: DispatcherConfig,
        algorithm: Strategy,
        workload_rng: Rng,
        gossip_interval: SimTime,
        subscriptions: Vec<PatternId>,
    ) -> Self {
        SimNode {
            id,
            dispatcher: Dispatcher::new(id, dispatcher_config),
            algorithm,
            workload_rng,
            gossip_delay: gossip_interval,
            subscriptions,
            cross_targets: Vec::new(),
            content_scratch: Vec::new(),
            client_scratch: Vec::new(),
        }
    }

    /// Installs the node's cross-replication targets (its physical
    /// cross-link neighbors with their local interests). Called at
    /// assembly and again whenever the routing view is re-derived.
    pub fn set_cross_targets(&mut self, targets: Vec<(NodeId, Vec<PatternId>)>) {
        self.cross_targets = targets;
    }

    /// Updates the stored interest of one cross-link partner (after
    /// that partner churned a subscription). A no-op if `partner` is
    /// not a cross neighbor of this node.
    pub fn update_cross_partner(&mut self, partner: NodeId, interest: Vec<PatternId>) {
        for (chord, stored) in &mut self.cross_targets {
            if *chord == partner {
                *stored = interest;
                return;
            }
        }
    }

    /// The node's overlay identity.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The dispatcher's current aggregate filter — the distinct union
    /// of its clients' subscriptions (kept current under churn).
    pub fn subscriptions(&self) -> &[PatternId] {
        &self.subscriptions
    }

    /// The current subscriptions of one local client, ascending.
    pub fn client_patterns(&self, client: ClientId) -> Vec<PatternId> {
        self.dispatcher.clients().patterns_of(client).collect()
    }

    /// `Lost` entries the recovery algorithm is still chasing.
    pub fn outstanding_losses(&self) -> usize {
        self.algorithm.outstanding_losses()
    }

    /// `Lost` entries the recovery algorithm evicted under its
    /// capacity bound.
    pub fn lost_evictions(&self) -> u64 {
        self.algorithm.lost_evictions()
    }

    /// Handles one arriving message and returns the messages to send
    /// in response.
    pub fn handle(&mut self, from: NodeId, env: Envelope, ctx: &mut NodeCtx) -> Vec<Outgoing> {
        match env {
            Envelope::PubSub(PubSubMessage::Event(event)) | Envelope::CrossEvent(event) => {
                let receipt = self.dispatcher.on_event(event.clone(), Some(from));
                if receipt.duplicate {
                    // A redundant arrival: on cyclic overlays the same
                    // event reaches a node both through the view and
                    // over a cross link; suppress and count it.
                    ctx.counters.count_duplicate_suppressed();
                    return Vec::new();
                }
                if receipt.delivered {
                    self.deliver_local(&event, false, ctx);
                }
                self.algorithm.on_event_received(&event);
                if !receipt.losses.is_empty() {
                    self.algorithm.on_losses(&receipt.losses);
                    ctx.record(TraceRecord::LossDetected {
                        at: ctx.now,
                        node: self.id,
                        count: receipt.losses.len() as u32,
                    });
                }
                let mut out = pubsub_out(receipt.forwards);
                // First sight of this event here: besides the view
                // forwards, replicate it over interested cross links
                // (excluding the link it just arrived on).
                self.replicate_cross(&event, from, &mut out);
                out
            }
            Envelope::PubSub(PubSubMessage::Subscribe(p)) => {
                pubsub_out(self.dispatcher.on_subscribe(p, from, ctx.neighbors))
            }
            Envelope::PubSub(PubSubMessage::Unsubscribe(p)) => {
                pubsub_out(self.dispatcher.on_unsubscribe(p, from, ctx.neighbors))
            }
            Envelope::Gossip(msg) => {
                // Gossip spreads over the whole physical
                // neighborhood, cross links included.
                let out = self.algorithm.on_gossip(
                    &self.dispatcher,
                    from,
                    msg,
                    ctx.graph_neighbors,
                    ctx.gossip_rng,
                );
                self.count_recovery(&out, ctx.counters);
                out
            }
            Envelope::Request(ids) => {
                let out = self.algorithm.on_request(&self.dispatcher, from, &ids);
                self.count_recovery(&out, ctx.counters);
                out
            }
            Envelope::RangeRequest { pattern, ranges } => {
                // A summary-refinement request: queued by the
                // algorithm, answered inside its next gossip round.
                self.algorithm.on_range_request(pattern, &ranges);
                Vec::new()
            }
            Envelope::Reply(events) => {
                for event in events {
                    let receipt = self.dispatcher.on_recovered_event(event.clone());
                    if receipt.duplicate {
                        continue;
                    }
                    if receipt.delivered {
                        ctx.counters.count_recovered();
                        self.deliver_local(&event, true, ctx);
                    }
                    self.algorithm.on_event_received(&event);
                    if !receipt.losses.is_empty() {
                        self.algorithm.on_losses(&receipt.losses);
                    }
                }
                Vec::new()
            }
        }
    }

    /// Publishes one event of random content and returns the resulting
    /// messages plus the exponential delay until this node's next
    /// publication (Poisson process). Renewing the tick is the
    /// runner's job.
    pub fn tick_publish(
        &mut self,
        publish_rate: f64,
        ctx: &mut NodeCtx,
    ) -> (Vec<Outgoing>, SimTime) {
        ctx.space
            .random_content_into(&mut self.workload_rng, &mut self.content_scratch);
        let expected = count_subscribers(ctx.subscribers_of, &self.content_scratch);
        let (event, receipt) = self.dispatcher.publish(&self.content_scratch);
        ctx.tracker.published(event.id(), ctx.now, expected);
        ctx.record(TraceRecord::Publish {
            at: ctx.now,
            node: self.id,
            event: event.id(),
            expected,
        });
        if receipt.delivered {
            self.deliver_local(&event, false, ctx);
        }
        let mut out = pubsub_out(receipt.forwards);
        // A fresh event starts on every interested cross link too.
        self.replicate_cross(&event, self.id, &mut out);
        let delay = self.next_publish_delay(publish_rate);
        (out, delay)
    }

    /// Accounts one delivery per matching local client: the event is
    /// "delivered" to each interested client exactly once, so delivery
    /// ratios are measured at client-subscription granularity. With
    /// one client per dispatcher this is a single `c0` record — the
    /// paper's per-dispatcher accounting.
    fn deliver_local(&mut self, event: &Event, recovered: bool, ctx: &mut NodeCtx) {
        self.dispatcher
            .matching_clients_into(event, &mut self.client_scratch);
        for i in 0..self.client_scratch.len() {
            let client = self.client_scratch[i];
            if recovered {
                ctx.tracker.recovered(event.id(), self.id, client, ctx.now);
            } else {
                ctx.tracker.delivered(event.id(), self.id, client, ctx.now);
            }
            ctx.record(TraceRecord::Deliver {
                at: ctx.now,
                node: self.id,
                client,
                event: event.id(),
                recovered,
            });
        }
    }

    /// Appends a [`Envelope::CrossEvent`] copy of `event` for every
    /// cross-link partner whose stored interest matches it, except
    /// `arrived_from` (no point echoing an event straight back).
    /// Counting happens at the send layer, like tree event forwards.
    fn replicate_cross(&self, event: &Event, arrived_from: NodeId, out: &mut Vec<Outgoing>) {
        for (chord, interest) in &self.cross_targets {
            if *chord != arrived_from && event.matches_any(interest.iter().copied()) {
                out.push(Outgoing {
                    to: *chord,
                    env: Envelope::CrossEvent(event.clone()),
                });
            }
        }
    }

    /// Exponential inter-arrival delay for this node's Poisson publish
    /// process. Also used to seed the very first tick.
    pub fn next_publish_delay(&mut self, publish_rate: f64) -> SimTime {
        let u: f64 = self.workload_rng.random_range(0.0..1.0);
        SimTime::from_secs_f64(-(1.0 - u).ln() / publish_rate)
    }

    /// Runs one gossip round and returns the resulting messages plus
    /// the delay until this node's next round.
    ///
    /// With adaptive control (extension, paper Sec. IV-E): while the
    /// strategy sees no evidence of recovery work (empty `Lost` buffer
    /// for pull, no incoming requests for push), the timer backs off
    /// exponentially; any sign of work snaps it back.
    pub fn tick_gossip(
        &mut self,
        interval: SimTime,
        adaptive: Option<AdaptiveGossip>,
        ctx: &mut NodeCtx,
    ) -> (Vec<Outgoing>, SimTime) {
        let out = self
            .algorithm
            .on_round(&self.dispatcher, ctx.graph_neighbors, ctx.gossip_rng);
        let next = match adaptive {
            None => interval,
            Some(adaptive) => {
                let next = if self.algorithm.is_idle() {
                    self.gossip_delay
                        .mul_f64(adaptive.backoff)
                        .min(adaptive.max_interval)
                } else {
                    adaptive.min_interval
                };
                self.gossip_delay = next;
                next
            }
        };
        self.count_recovery(&out, ctx.counters);
        (out, next)
    }

    /// Swaps one local client's subscription `old` for `new` and
    /// returns the (un)subscription messages to propagate, plus
    /// whether the dispatcher's aggregate filter actually changed.
    /// Routing state is only touched on refcount transitions: the
    /// unsubscribe retracts `old` from the tree only when this client
    /// was its last local holder, and the subscribe announces `new`
    /// only when no other local client already covers it — so the
    /// caller skips index and cross-partner updates when nothing
    /// changed at broker level. The caller keeps the pattern →
    /// subscribers index current.
    pub fn apply_churn(
        &mut self,
        client: ClientId,
        old: PatternId,
        new: PatternId,
        neighbors: &[NodeId],
    ) -> (Vec<Outgoing>, bool) {
        let retracts = self.dispatcher.clients().refcount(old) == 1;
        let announces = !self.dispatcher.clients().covers(new);
        let unsubs = self.dispatcher.client_unsubscribe(client, old, neighbors);
        let subs = self
            .dispatcher
            .client_subscribe_late(client, new, neighbors);
        let out = pubsub_out(unsubs.into_iter().chain(subs).collect());
        if retracts {
            self.subscriptions.retain(|&p| p != old);
        }
        if announces {
            self.subscriptions.push(new);
            self.subscriptions.sort();
        }
        (out, retracts || announces)
    }

    /// Counts the recovery messages the strategy decided to send, at
    /// the moment it decides (so broken links don't change the
    /// overhead figures).
    fn count_recovery(&self, out: &[Outgoing], counters: &mut MessageCounters) {
        for Outgoing { env, .. } in out {
            match env {
                Envelope::Gossip(_) => counters.count_gossip(self.id),
                Envelope::Request(_) | Envelope::RangeRequest { .. } => {
                    counters.count_request(self.id)
                }
                Envelope::Reply(events) => counters.count_reply(self.id, events.len() as u64),
                // Strategies emit recovery traffic only.
                Envelope::PubSub(_) | Envelope::CrossEvent(_) => {}
            }
        }
    }
}

impl DispatcherHost for SimNode {
    fn dispatcher(&self) -> &Dispatcher {
        &self.dispatcher
    }
    fn dispatcher_mut(&mut self) -> &mut Dispatcher {
        &mut self.dispatcher
    }
}

/// Samples end-of-run routing-state totals over a population: raw
/// client subscriptions, the aggregate filters they compress into, and
/// the subscription-table entries those filters induce overlay-wide.
pub fn routing_stats<'a>(
    nodes: impl IntoIterator<Item = &'a SimNode>,
    setup_subscription_msgs: u64,
) -> RoutingStats {
    let mut stats = RoutingStats {
        setup_subscription_msgs,
        ..RoutingStats::default()
    };
    for node in nodes {
        stats.client_subscriptions += node.dispatcher.clients().len() as u64;
        stats.aggregate_patterns += node.dispatcher.clients().aggregate_len() as u64;
        stats.routing_entries += node.dispatcher.table().len() as u64;
    }
    stats
}

/// Charges one envelope `from` puts on a wire to the send-layer
/// counters: event and subscription traffic by message, digest,
/// request and reply traffic by its `bits` on the wire. Gossip,
/// request and reply *messages* are counted by the node when it
/// decides to send them. The simulator's send layer and the socket
/// runtime both charge through here; the socket side passes the bits
/// of the envelope as `codec::fit` trimmed it.
pub fn charge_send(counters: &mut MessageCounters, from: NodeId, env: &Envelope, bits: u64) {
    match env {
        Envelope::PubSub(PubSubMessage::Event(_)) | Envelope::CrossEvent(_) => {
            counters.count_event(from)
        }
        Envelope::PubSub(_) => counters.count_subscription(from),
        Envelope::Gossip(_) => counters.count_gossip_bits(bits),
        Envelope::Request(_) | Envelope::RangeRequest { .. } => counters.count_request_bits(bits),
        Envelope::Reply(_) => counters.count_reply_bits(bits),
    }
}

fn pubsub_out(forwards: Vec<eps_pubsub::Forward>) -> Vec<Outgoing> {
    forwards
        .into_iter()
        .map(|f| Outgoing {
            to: f.to,
            env: Envelope::PubSub(f.msg),
        })
        .collect()
}

fn count_subscribers(subscribers_of: &[Vec<(NodeId, ClientId)>], content: &[PatternId]) -> u32 {
    let mut subscribers: Vec<(NodeId, ClientId)> = content
        .iter()
        .flat_map(|p| subscribers_of[p.index()].iter().copied())
        .collect();
    subscribers.sort_unstable();
    subscribers.dedup();
    subscribers.len() as u32
}

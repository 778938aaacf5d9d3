//! The node actor: everything one simulated dispatcher owns —
//! protocol logic (its subscriptions included), recovery algorithm,
//! workload RNG and its clock (the publish and gossip timers) — behind
//! a narrow message-in/messages-out API.
//!
//! A [`SimNode`] never touches the network or the event queue: it
//! consumes an [`Envelope`] (or a timer) and returns the [`Outgoing`]
//! messages it wants sent, each built once, where it is decided.
//! Routing, delay, loss, and the queue stay with the runner and its
//! transport. Runner-held state a node needs while handling a message
//! — the metrics sinks, its gossip-decision RNG stream, the trace — is
//! lent to it for the duration of one call as a [`NodeCtx`].
//!
//! Both worlds drive the same clock ([`SimNode::fire_timer`]) and
//! take every protocol stream from here ([`node_streams`],
//! [`gossip_phase`]), so they cannot drift apart on either.
//!
//! # Parked rounds
//!
//! Most rounds at scale send nothing, and what such a round does
//! follows from state that only an input can change: the strategy's
//! one advance through a round (push-pull's phase, the idle streak,
//! the pattern draw on the gossip stream) and the adaptive delay after
//! it. So the clock does not fire them: after each fired round and each
//! input, a [`eps_gossip::Lookahead`] runs that advance on copies
//! through the coming rounds to the first one that may send, stepping
//! the delay by the same rule a round run steps it by, and
//! [`SimNode::next_timer`] names that one. The silent rounds before it
//! are *parked*: every entry point ([`SimNode::handle`],
//! [`SimNode::fire_timer`], [`SimNode::catch_up`]) first replays, for
//! real, the parked rounds due before it, so each input meets the
//! state it would have met had every round fired. At one instant the
//! order is publish, round, delivery: a publish or a catch-up at `t`
//! replays the rounds before `t`, a delivery those at `t` as well.
//!
//! The replay is [`Strategy::silent_round`]: the same advance, without
//! the digest lookups. Replaying through `Strategy::on_round` instead,
//! with `silent_round` deleted, keeps `simulate` output byte-equal on
//! four cells but was measured slower: the N = 10⁵ push cell went from
//! 1.03 s to 1.33 s median (6 alternating pairs, 0/6 faster), and the
//! N = 4000, Π = 8192, 1 s push cell from 0.132 s to 0.140 s (10 pairs,
//! 2/10 faster, inside the 0.117–0.167 s quartiles of the runs with
//! `silent_round`).

pub use eps_gossip::Outgoing;
use eps_gossip::{Envelope, Round, Strategy};
use eps_metrics::{DeliverySink, MessageCounters};
use eps_overlay::NodeId;
use eps_pubsub::{
    ClientId, Dispatcher, DispatcherConfig, DispatcherHost, Event, EventReceipt, PatternId,
    PatternSpace, PubSubMessage,
};
use eps_sim::{Rng, RngFactory, SimTime};

use crate::config::{AdaptiveGossip, ScenarioConfig};
use crate::result::RoutingStats;
use crate::trace::{ScenarioTrace, TraceRecord};

/// A node's two protocol streams: its gossip decisions
/// (`gossip-node/i`, lent as [`NodeCtx::gossip_rng`]) and its link
/// loss (`net-node/i`, drawn per send in the node's send order).
pub fn node_streams(factory: &RngFactory, node: NodeId) -> (Rng, Rng) {
    let i = node.index() as u64;
    (
        factory.indexed_stream("gossip-node", i),
        factory.indexed_stream("net-node", i),
    )
}

/// The instant of a node's first gossip round: uniform over one
/// `interval`, drawn from the node's own `gossip-phase/i` stream.
pub fn gossip_phase(factory: &RngFactory, node: NodeId, interval: SimTime) -> SimTime {
    let mut rng = factory.indexed_stream("gossip-phase", node.index() as u64);
    interval.mul_f64(rng.random_range(0.0..1.0))
}

/// Which of a node's two timers comes due.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Timer {
    /// The next publication of the node's Poisson workload.
    Publish,
    /// The next gossip round.
    Gossip,
}

/// A timer instant that never comes: a schedule that is over.
const NEVER: SimTime = SimTime::MAX;

/// `at` if it comes before `end`, else [`NEVER`].
fn before(at: SimTime, end: SimTime) -> SimTime {
    if at < end {
        at
    } else {
        NEVER
    }
}

/// A node's pending timers ([`NEVER`] once that schedule is over), how
/// its rounds renew, and the end of the run, past which they stop.
struct Clock {
    publish: SimTime,
    /// The next round on the node's schedule, whether it will be fired
    /// or replayed.
    gossip: SimTime,
    /// The round the clock fires: the first from `gossip` on that may
    /// send. The rounds before it are parked.
    fire: SimTime,
    /// Adaptive control of the delay between rounds; without it the
    /// delay stays the node's `gossip_delay`, the interval `T`. Boxed:
    /// only `--adaptive` runs set it.
    adaptive: Option<Box<AdaptiveGossip>>,
    run_end: SimTime,
    /// What the parked rounds read, as the plan that parked them found
    /// it: the sizes of the table and of the neighborhood. Every input
    /// replays them before it changes either, so a replayed round
    /// finds the same; debug builds check it.
    #[cfg(debug_assertions)]
    planned_on: Option<(usize, usize)>,
}

impl Default for Clock {
    /// A clock not yet started: no timer pending.
    fn default() -> Self {
        Clock::started(NEVER, NEVER, None, SimTime::ZERO)
    }
}

impl Clock {
    /// A clock whose first publish and first round are due at `publish`
    /// and `gossip`, with nothing parked yet.
    fn started(
        publish: SimTime,
        gossip: SimTime,
        adaptive: Option<Box<AdaptiveGossip>>,
        run_end: SimTime,
    ) -> Clock {
        Clock {
            publish,
            gossip,
            fire: gossip,
            adaptive,
            run_end,
            #[cfg(debug_assertions)]
            planned_on: None,
        }
    }

    /// The run's adaptive control, if it has one.
    fn adaptive(&self) -> Option<AdaptiveGossip> {
        self.adaptive.as_deref().copied()
    }
}

/// The delay after a round, from `delay`, the one before it: the same
/// without `adaptive` control (the interval `T`), else backed off while
/// the strategy is `idle` and the floor once it is not. Rounds run and
/// rounds planned ahead adapt through this one rule.
fn next_delay(delay: SimTime, adaptive: Option<AdaptiveGossip>, idle: bool) -> SimTime {
    match adaptive {
        None => delay,
        Some(adaptive) if idle => delay.mul_f64(adaptive.backoff).min(adaptive.max_interval),
        Some(adaptive) => adaptive.min_interval,
    }
}

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

/// One simulated dispatcher as an actor: the pub-sub [`Dispatcher`]
/// (which holds its clients' subscriptions and their aggregate), its
/// recovery [`Strategy`] (inline), its workload RNG, and its clock and
/// (possibly adaptive) gossip delay.
pub struct SimNode {
    id: NodeId,
    dispatcher: Dispatcher,
    algorithm: Strategy,
    workload_rng: Rng,
    clock: Clock,
    gossip_delay: SimTime,
    /// The node's physical neighbors outside the routing view, each
    /// with its current local subscriptions: the targets of
    /// cross-link event replication. Empty on tree overlays.
    cross_targets: Vec<(NodeId, Vec<PatternId>)>,
    /// Reusable buffer for drawn event content, so the publish tick
    /// does not allocate in steady state.
    content_scratch: Vec<PatternId>,
    /// Reusable buffer for local-client fan-out on delivery.
    client_scratch: Vec<ClientId>,
    /// Reusable buffer for an event's next hops on the tree.
    next_hops: Vec<NodeId>,
    /// Gossip rounds run, fired or replayed.
    rounds: u32,
    /// Of those, the ones replayed.
    replayed: u32,
}

impl SimNode {
    /// Creates a node actor with no subscriptions; installing them
    /// into the dispatcher (and flooding them) is the caller's job, via
    /// the [`DispatcherHost`] assembly helpers.
    pub fn new(
        id: NodeId,
        dispatcher_config: DispatcherConfig,
        algorithm: Strategy,
        workload_rng: Rng,
        gossip_interval: SimTime,
    ) -> Self {
        SimNode {
            id,
            dispatcher: Dispatcher::new(id, dispatcher_config),
            algorithm,
            workload_rng,
            clock: Clock::default(),
            gossip_delay: gossip_interval,
            cross_targets: Vec::new(),
            content_scratch: Vec::new(),
            client_scratch: Vec::new(),
            next_hops: Vec::new(),
            rounds: 0,
            replayed: 0,
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

    /// Gossip rounds this node has run, fired or replayed.
    pub fn gossip_rounds(&self) -> u64 {
        self.rounds.into()
    }

    /// Gossip rounds this node replayed instead of firing.
    pub fn rounds_replayed(&self) -> u64 {
        self.replayed.into()
    }

    /// Handles one arriving message and returns the messages to send
    /// in response, after replaying the parked rounds due at or before
    /// `ctx.now`.
    pub fn handle(&mut self, from: NodeId, env: Envelope, ctx: &mut NodeCtx) -> Vec<Outgoing> {
        self.replay(ctx.now, true, ctx);
        let (out, changed) = self.receive(from, env, ctx);
        if changed {
            self.settle(ctx);
        } else if self.clock.fire != self.clock.gossip {
            debug_assert_eq!(self.clock.fire, self.planned(ctx), "{} plan", self.id);
        }
        out
    }

    /// [`SimNode::handle`]'s message proper, and whether it may have
    /// changed what the coming rounds do. Only an event passing
    /// through provably changes nothing a round reads: neither cached
    /// nor revealing a loss, at a node chasing none (a strategy reads
    /// the routes and sequence numbers events carry only while it
    /// chases losses).
    fn receive(&mut self, from: NodeId, env: Envelope, ctx: &mut NodeCtx) -> (Vec<Outgoing>, bool) {
        let chasing = self.algorithm.outstanding_losses() > 0;
        let out = match env {
            Envelope::PubSub(PubSubMessage::Event(event)) | Envelope::CrossEvent(event) => {
                let (copy, receipt) =
                    self.dispatcher
                        .on_event(event, Some(from), &mut self.next_hops);
                if receipt.duplicate {
                    // A redundant arrival: on cyclic overlays the same
                    // event reaches a node both through the view and
                    // over a cross link; suppress and count it.
                    ctx.counters.count_duplicate_suppressed();
                    return (Vec::new(), chasing);
                }
                let changed = chasing || receipt.delivered || !receipt.losses.is_empty();
                self.arrive(&copy, &receipt, false, ctx);
                // First sight of this event here: forward the copy
                // with this hop recorded, on the tree and over
                // interested cross links.
                return (self.forward(copy, from), changed);
            }
            Envelope::PubSub(PubSubMessage::Subscribe(p)) => {
                let to = self.dispatcher.on_subscribe(p, from, ctx.neighbors);
                pubsub_to(to, PubSubMessage::Subscribe(p)).collect()
            }
            Envelope::PubSub(PubSubMessage::Unsubscribe(p)) => {
                let to = self.dispatcher.on_unsubscribe(p, from, ctx.neighbors);
                pubsub_to(to, PubSubMessage::Unsubscribe(p)).collect()
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
                    if !receipt.duplicate {
                        self.arrive(&event, &receipt, true, ctx);
                    }
                }
                Vec::new()
            }
        };
        (out, true)
    }

    /// The first arrival of `event` here, down the tree or `recovered`
    /// in a reply: delivery to the matching local clients, the
    /// strategy's bookkeeping, and the losses the detector found in
    /// its sequence numbers.
    fn arrive(
        &mut self,
        event: &Event,
        receipt: &EventReceipt,
        recovered: bool,
        ctx: &mut NodeCtx,
    ) {
        if receipt.delivered {
            if recovered {
                ctx.counters.count_recovered();
            }
            self.deliver_local(event, recovered, ctx);
        }
        self.algorithm.on_event_received(event);
        if !receipt.losses.is_empty() {
            self.algorithm.on_losses(&receipt.losses);
            ctx.record(TraceRecord::LossDetected {
                at: ctx.now,
                node: self.id,
                count: receipt.losses.len() as u32,
            });
        }
    }

    /// Starts the node's clock: the first publish one workload draw
    /// after zero, the first round at its [`gossip_phase`]. Publishes
    /// exist only before `config.duration`, rounds only before
    /// `run_end` (`duration` in the simulator, plus the drain on
    /// sockets). The first round fires unless a [`SimNode::catch_up`]
    /// plans the clock first.
    pub fn start_clock(&mut self, config: &ScenarioConfig, factory: &RngFactory, run_end: SimTime) {
        let publish = if config.publish_rate > 0.0 {
            before(
                self.next_publish_delay(config.publish_rate),
                config.duration,
            )
        } else {
            NEVER
        };
        let gossip = before(
            gossip_phase(factory, self.id, config.gossip_interval),
            run_end,
        );
        let adaptive = config.adaptive_gossip.map(Box::new);
        self.clock = Clock::started(publish, gossip, adaptive, run_end);
    }

    /// The instant and kind of the node's next timer, a publish first
    /// on a tie; `None` once both schedules are over. Its next round is
    /// the one the clock fires: parked rounds are no timer.
    pub fn next_timer(&self) -> Option<(SimTime, Timer)> {
        let (publish, gossip) = (self.clock.publish, self.clock.fire);
        if gossip < publish {
            Some((gossip, Timer::Gossip))
        } else {
            (publish != NEVER).then_some((publish, Timer::Publish))
        }
    }

    /// Whether a publish is still scheduled.
    pub fn is_publishing(&self) -> bool {
        self.clock.publish != NEVER
    }

    /// Fires the node's next timer, if it is due at `ctx.now`, after
    /// replaying the parked rounds before it, and renews it from its
    /// *scheduled* instant, so when a caller gets round to firing it
    /// never changes the schedule. Returns the messages it produced;
    /// a timer not yet due neither fires nor draws.
    pub fn fire_timer(&mut self, config: &ScenarioConfig, ctx: &mut NodeCtx) -> Vec<Outgoing> {
        let Some((at, timer)) = self.next_timer().filter(|&(at, _)| at <= ctx.now) else {
            return Vec::new();
        };
        self.replay(at, false, ctx);
        let out = match timer {
            Timer::Publish => {
                let (out, delay) = self.tick_publish(config.publish_rate, ctx);
                self.clock.publish = before(at + delay, config.duration);
                out
            }
            Timer::Gossip => {
                let adaptive = self.clock.adaptive();
                let (out, delay) = self.tick_gossip(self.gossip_delay, adaptive, ctx);
                self.renew_round(at, delay);
                out
            }
        };
        // A publisher caches its event; a fired round moves the
        // schedule on.
        self.settle(ctx);
        out
    }

    /// Replays the parked rounds due before `ctx.now` and plans the
    /// clock on the state that leaves. The coordinator calls it on
    /// each node whose rounds read what it changes, before and after
    /// the change; a runner calls it at the end of the run to count
    /// every round.
    pub fn catch_up(&mut self, ctx: &mut NodeCtx) {
        self.replay(ctx.now, false, ctx);
        self.plan(ctx);
    }

    /// Runs the parked rounds due before `until` — or at it too, if
    /// `inclusive` — in order, up to the round the clock fires.
    fn replay(&mut self, until: SimTime, inclusive: bool, ctx: &mut NodeCtx) {
        loop {
            let at = self.clock.gossip;
            if at == NEVER || at > until || (at == until && !inclusive) || at == self.clock.fire {
                break;
            }
            #[cfg(debug_assertions)]
            assert_eq!(
                self.clock.planned_on,
                Some((self.dispatcher.table().len(), ctx.graph_neighbors.len())),
                "{}: a parked round meets a table or neighborhood its plan did not see",
                self.id
            );
            self.algorithm
                .silent_round(&self.dispatcher, ctx.graph_neighbors, ctx.gossip_rng);
            let delay = self.end_round(self.clock.adaptive());
            self.renew_round(at, delay);
            self.replayed += 1;
        }
    }

    /// Renews the round schedule after the round at `at`.
    fn renew_round(&mut self, at: SimTime, delay: SimTime) {
        self.clock.gossip = before(at + delay, self.clock.run_end);
    }

    /// Plans the clock again after a change to what the coming rounds
    /// do, unless its next round fires anyway.
    fn settle(&mut self, ctx: &NodeCtx) {
        if self.clock.fire != self.clock.gossip {
            self.plan(ctx);
        }
    }

    /// Plans the clock: the round it fires is the first that may send.
    fn plan(&mut self, ctx: &NodeCtx) {
        self.clock.fire = self.planned(ctx);
        #[cfg(debug_assertions)]
        {
            self.clock.planned_on =
                Some((self.dispatcher.table().len(), ctx.graph_neighbors.len()));
        }
    }

    /// Steps a look-ahead from the next round on the schedule to the
    /// first that may send — the delays adapting as the rounds before
    /// it would adapt them — and returns its instant, or [`NEVER`].
    fn planned(&self, ctx: &NodeCtx) -> SimTime {
        let clock = &self.clock;
        let mut at = clock.gossip;
        if at == NEVER {
            return NEVER;
        }
        let mut ahead =
            self.algorithm
                .lookahead(&self.dispatcher, ctx.graph_neighbors, ctx.gossip_rng);
        let mut delay = self.gossip_delay;
        loop {
            match ahead.step() {
                Round::Sends => return at,
                Round::Never => return NEVER,
                Round::Silent => {
                    delay = next_delay(delay, clock.adaptive(), ahead.is_idle());
                    at += delay;
                    if at >= clock.run_end {
                        return NEVER;
                    }
                }
            }
        }
    }

    /// Publishes one event of random content and returns the resulting
    /// messages plus the exponential delay until this node's next
    /// publication (Poisson process). [`SimNode::fire_timer`] renews
    /// the tick.
    pub fn tick_publish(
        &mut self,
        publish_rate: f64,
        ctx: &mut NodeCtx,
    ) -> (Vec<Outgoing>, SimTime) {
        ctx.space
            .random_content_into(&mut self.workload_rng, &mut self.content_scratch);
        let expected = count_subscribers(ctx.subscribers_of, &self.content_scratch);
        let (event, receipt) = self
            .dispatcher
            .publish(&self.content_scratch, &mut self.next_hops);
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
        // A fresh event starts on every interested cross link too.
        let out = self.forward(event, self.id);
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

    /// The messages an event leaves this node in: `event` — the copy
    /// with this hop recorded — to each next hop the dispatcher named,
    /// then as an [`Envelope::CrossEvent`] to every cross-link partner
    /// whose stored interest matches it, except `arrived_from` (no
    /// point echoing an event straight back). Counting happens at the
    /// send layer.
    fn forward(&self, event: Event, arrived_from: NodeId) -> Vec<Outgoing> {
        let mut out = Vec::with_capacity(self.next_hops.len());
        out.extend(self.next_hops.iter().map(|&to| Outgoing {
            to,
            env: Envelope::PubSub(PubSubMessage::Event(event.clone())),
        }));
        for (chord, interest) in &self.cross_targets {
            if *chord != arrived_from && event.matches_any(interest.iter().copied()) {
                out.push(Outgoing {
                    to: *chord,
                    env: Envelope::CrossEvent(event.clone()),
                });
            }
        }
        out
    }

    /// Exponential inter-arrival delay for this node's Poisson publish
    /// process. Also used to seed the very first tick.
    pub fn next_publish_delay(&mut self, publish_rate: f64) -> SimTime {
        let u: f64 = self.workload_rng.random_range(0.0..1.0);
        SimTime::from_secs_f64(-(1.0 - u).ln() / publish_rate)
    }

    /// Runs one gossip round and returns the resulting messages plus
    /// the delay until this node's next round: `interval`, the one the
    /// node was built with, unless `adaptive` control adapts it.
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
        debug_assert!(adaptive.is_some() || interval == self.gossip_delay);
        let out = self
            .algorithm
            .on_round(&self.dispatcher, ctx.graph_neighbors, ctx.gossip_rng);
        self.count_recovery(&out, ctx.counters);
        (out, self.end_round(adaptive))
    }

    /// Counts a round run and returns the delay until the next one,
    /// adapting it.
    fn end_round(&mut self, adaptive: Option<AdaptiveGossip>) -> SimTime {
        self.rounds += 1;
        self.gossip_delay = next_delay(self.gossip_delay, adaptive, self.algorithm.is_idle());
        self.gossip_delay
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
        let out = pubsub_to(unsubs, PubSubMessage::Unsubscribe(old))
            .chain(pubsub_to(subs, PubSubMessage::Subscribe(new)))
            .collect();
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

/// `msg` to each of `to`.
fn pubsub_to(to: Vec<NodeId>, msg: PubSubMessage) -> impl Iterator<Item = Outgoing> {
    to.into_iter().map(move |to| Outgoing {
        to,
        env: Envelope::PubSub(msg.clone()),
    })
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

#[cfg(test)]
mod tests {
    use eps_gossip::{Algorithm, GossipConfig};
    use eps_metrics::DeliveryTracker;
    use eps_pubsub::EventId;

    use super::*;

    /// Runs `f` with a context at 7 ms on an empty neighborhood.
    fn with_ctx<R>(trace: &mut Option<ScenarioTrace>, f: impl FnOnce(&mut NodeCtx) -> R) -> R {
        let mut ctx = NodeCtx {
            now: SimTime::from_millis(7),
            neighbors: &[],
            graph_neighbors: &[],
            space: &PatternSpace::paper_default(),
            subscribers_of: &[],
            gossip_rng: &mut Rng::from_seed(2),
            tracker: &mut DeliveryTracker::new(),
            counters: &mut MessageCounters::new(3),
            trace,
        };
        f(&mut ctx)
    }

    /// Every dispatcher of a population carries a `SimNode` inline, so
    /// at N = 10⁵ each byte of it is 0.1 MB. What only some strategies,
    /// eviction policies or options use is boxed (the `Lost` buffer,
    /// the eviction state, the loss detector, the route book, adaptive
    /// control).
    #[test]
    fn a_node_is_at_most_800_bytes_inline() {
        use std::mem::size_of;
        // Debug builds add the plan check's `Clock::planned_on`.
        let check = if cfg!(debug_assertions) {
            size_of::<Option<(usize, usize)>>()
        } else {
            0
        };
        let size = size_of::<SimNode>() - check;
        assert!(size <= 800, "SimNode is {size} B in a release build");
    }

    /// A push node under adaptive control whose silent rounds are
    /// parked and replayed ends where a twin that fires every round at
    /// its scheduled instant ends: the same delay, round count and
    /// gossip-stream position. The plan steps through the delays the
    /// replay then sets, by one rule; requests along the way snap both
    /// back to the floor.
    #[test]
    fn parked_rounds_adapt_like_fired_ones() {
        let t = SimTime::from_millis(30);
        let config = ScenarioConfig {
            publish_rate: 0.0,
            gossip_interval: t,
            adaptive_gossip: Some(AdaptiveGossip::around(t)),
            ..ScenarioConfig::default()
        };
        let (factory, end) = (RngFactory::new(config.seed), SimTime::from_secs(30));
        let (neighbor, cached) = (NodeId::new(2), PatternId::new(7));
        // 40 known patterns, one with a cached event: most rounds are
        // silent, and one in about 40 sends.
        let build = || {
            let kind = Algorithm::push();
            let config = DispatcherConfig {
                cache_indexes: kind.cache_indexes(),
                ..DispatcherConfig::default()
            };
            let mut node = SimNode::new(
                NodeId::new(1),
                config,
                kind.build(GossipConfig::default()),
                Rng::from_seed(1),
                t,
            );
            let dispatcher = node.dispatcher_mut();
            for i in 0..40 {
                dispatcher.on_subscribe(PatternId::new(i), neighbor, &[]);
            }
            dispatcher.subscribe_local(cached, &[]);
            let event = Event::new(EventId::new(NodeId::new(0), 0), vec![(cached, 0)]);
            dispatcher.on_event(event, Some(neighbor), &mut Vec::new());
            node
        };
        let at = |now, rng: &mut Rng, f: &mut dyn FnMut(&mut NodeCtx)| {
            f(&mut NodeCtx {
                now,
                neighbors: &[],
                graph_neighbors: &[],
                space: &PatternSpace::paper_default(),
                subscribers_of: &[],
                gossip_rng: rng,
                tracker: &mut DeliveryTracker::new(),
                counters: &mut MessageCounters::new(3),
                trace: &mut None,
            })
        };
        let requests = [4, 9, 13, 21].map(SimTime::from_secs);
        let request = || Envelope::Request(vec![EventId::new(NodeId::new(0), 9)]);

        let (mut parked, mut parked_rng) = (build(), Rng::from_seed(2));
        parked.start_clock(&config, &factory, end);
        at(SimTime::ZERO, &mut parked_rng, &mut |ctx| {
            parked.catch_up(ctx)
        });
        let mut pending = requests.iter().copied().peekable();
        loop {
            let next = parked.next_timer().map(|(round, _)| round);
            // At one instant, the round before the delivery.
            if let Some(r) = pending.next_if(|&r| next.is_none_or(|round| r < round)) {
                at(r, &mut parked_rng, &mut |ctx| {
                    parked.handle(neighbor, request(), ctx);
                });
            } else if let Some(round) = next {
                at(round, &mut parked_rng, &mut |ctx| {
                    parked.fire_timer(&config, ctx);
                });
            } else {
                break;
            }
        }
        at(end, &mut parked_rng, &mut |ctx| parked.catch_up(ctx));

        let (mut twin, mut twin_rng) = (build(), Rng::from_seed(2));
        let mut round = gossip_phase(&factory, twin.id(), t);
        let mut pending = requests.iter().copied().peekable();
        while round < end {
            while let Some(r) = pending.next_if(|&r| r < round) {
                at(r, &mut twin_rng, &mut |ctx| {
                    twin.handle(neighbor, request(), ctx);
                });
            }
            at(round, &mut twin_rng, &mut |ctx| {
                round += twin.tick_gossip(t, config.adaptive_gossip, ctx).1;
            });
        }

        assert!(parked.rounds_replayed() > parked.gossip_rounds() / 2);
        assert!(parked.rounds_replayed() < parked.gossip_rounds());
        assert_eq!(
            (parked.gossip_delay, parked.gossip_rounds(), parked_rng),
            (twin.gossip_delay, twin.gossip_rounds(), twin_rng)
        );
    }

    #[test]
    fn losses_found_by_a_recovered_event_are_traced() {
        let (id, p) = (NodeId::new(1), PatternId::new(3));
        let mut node = SimNode::new(
            id,
            DispatcherConfig::default(),
            Algorithm::subscriber_pull().build(GossipConfig::default()),
            Rng::from_seed(1),
            SimTime::from_millis(30),
        );
        node.dispatcher_mut().subscribe_local(p, &[]);
        let mut trace = Some(ScenarioTrace::new(16));
        // The first event of `p` from d0 this node sees is its third:
        // sequence numbers 0 and 1 are missing.
        let event = Event::new(EventId::new(NodeId::new(0), 2), vec![(p, 2)]);
        let out = with_ctx(&mut trace, |ctx| {
            node.handle(NodeId::new(0), Envelope::Reply(vec![event]), ctx)
        });
        assert!(out.is_empty());
        let losses: Vec<TraceRecord> = trace
            .expect("traced")
            .records()
            .iter()
            .copied()
            .filter(|r| matches!(r, TraceRecord::LossDetected { .. }))
            .collect();
        assert_eq!(
            losses,
            [TraceRecord::LossDetected {
                at: SimTime::from_millis(7),
                node: id,
                count: 2,
            }]
        );
        assert_eq!(node.outstanding_losses(), 2);
    }

    #[test]
    fn only_rows_with_an_id_index_answer_requests() {
        // Each row's node caches three events of `p`, then is asked for
        // two of them and one it never saw. Rows whose cache keeps the
        // id index reply with exactly the cached two; the pull rows
        // keep none and drop the request. No row draws from its gossip
        // stream.
        let (source, requester, p) = (NodeId::new(0), NodeId::new(2), PatternId::new(3));
        for kind in Algorithm::all() {
            let config = DispatcherConfig {
                record_routes: kind.needs_route_recording(),
                cache_indexes: kind.cache_indexes(),
                ..DispatcherConfig::default()
            };
            let mut node = SimNode::new(
                NodeId::new(1),
                config,
                kind.build(GossipConfig::default()),
                Rng::from_seed(1),
                SimTime::from_millis(30),
            );
            node.dispatcher_mut().subscribe_local(p, &[]);
            let events: Vec<Event> = (0..3)
                .map(|seq| Event::new(EventId::new(source, seq), vec![(p, seq)]))
                .collect();
            let mut rng = Rng::from_seed(2);
            let before = rng.clone();
            let mut ctx = NodeCtx {
                now: SimTime::from_millis(7),
                neighbors: &[],
                graph_neighbors: &[],
                space: &PatternSpace::paper_default(),
                subscribers_of: &[],
                gossip_rng: &mut rng,
                tracker: &mut DeliveryTracker::new(),
                counters: &mut MessageCounters::new(3),
                trace: &mut None,
            };
            for event in &events {
                let env = Envelope::PubSub(PubSubMessage::Event(event.clone()));
                assert!(node.handle(source, env, &mut ctx).is_empty(), "{kind}");
            }
            let asked = vec![events[0].id(), EventId::new(source, 9), events[2].id()];
            let out = node.handle(requester, Envelope::Request(asked), &mut ctx);
            if kind.cache_indexes().ids {
                let reply = Envelope::Reply(vec![events[0].clone(), events[2].clone()]);
                assert_eq!(
                    out,
                    [Outgoing {
                        to: requester,
                        env: reply
                    }],
                    "{kind}"
                );
            } else {
                assert!(out.is_empty(), "{kind} answered a request: {out:?}");
            }
            assert_eq!(rng, before, "{kind} drew for a request");
        }
    }

    #[test]
    fn cross_link_copies_carry_the_recorded_hop() {
        // d1 records routes and has one interested cross partner, d2.
        let (source, id, chord) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        let p = PatternId::new(3);
        let mut node = SimNode::new(
            id,
            DispatcherConfig {
                record_routes: true,
                ..DispatcherConfig::default()
            },
            Algorithm::publisher_pull().build(GossipConfig::default()),
            Rng::from_seed(1),
            SimTime::from_millis(30),
        );
        node.set_cross_targets(vec![(chord, vec![p])]);
        let event = Event::new(EventId::new(source, 0), vec![(p, 0)]);
        let env = Envelope::PubSub(PubSubMessage::Event(event));
        let out = with_ctx(&mut None, |ctx| node.handle(source, env, ctx));
        let [Outgoing {
            to,
            env: Envelope::CrossEvent(copy),
        }] = &out[..]
        else {
            panic!("expected one cross-link copy, got {out:?}");
        };
        // d2's reverse route to the source starts at its neighbor d1.
        assert_eq!(*to, chord);
        assert_eq!(copy.route(), [source, id]);
    }
}

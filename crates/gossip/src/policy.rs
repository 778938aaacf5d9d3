//! The round and forwarding bodies of the recovery strategies, one per
//! wire form, and the helpers they share.
//!
//! A round picks the digest it asserts — cached ids for push, `Lost`
//! entries for the pull routes, hash-range aggregates for summary
//! reconciliation — and `send` puts it on the wire towards the next
//! hops its form steers it to. A received digest gets its form's local
//! reaction, and whatever is left travels on through the same `send`.
//! [`crate::Strategy`] is the one `match` that calls these. The bodies
//! keep the RNG draw order the harness golden tests pin bit for bit.

use std::sync::Arc;

use eps_overlay::NodeId;
use eps_pubsub::{Dispatcher, Event, EventId, LossRecord, PatternId, SubscriptionTable};
use eps_sim::hash::IdSet;
use eps_sim::Rng;

use crate::config::{GossipConfig, DIGEST_MAX, RANDOM_TTL};
use crate::envelope::{Envelope, Outgoing};
use crate::lost::LostBuffer;
use crate::message::GossipMessage;

/// Where a pull strategy steers its negative digests (paper, Section
/// III-B and IV).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) enum PullRoute {
    /// Subscriber-based pull: along the routes of a lost pattern, like
    /// an event matching it.
    Subscriber,
    /// Publisher-based pull: back towards the publisher along the
    /// reverse of its recorded route.
    Publisher,
    /// Random pull: to random neighbors under a TTL, no routing
    /// intelligence — the paper's "is directed routing worth the
    /// effort?" comparator.
    Random,
    /// Combined pull: publisher-based with probability `P_source`,
    /// subscriber-based otherwise. With few subscribers per pattern the
    /// subscriber-based variant has nobody to gossip with, while with
    /// many the publisher-based one involves too small a fraction of
    /// dispatchers; the two "perform best when combined".
    Combined,
}

/// What every gossip round changes, whatever it sends: push-pull's
/// phase and the idle streak adaptive gossip backs off on. One `Copy`
/// value per strategy, moved through a round by [`Pace::advance`] alone,
/// so a look-ahead runs the same rounds on a copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Pace {
    schedule: Schedule,
    /// Activity since the last proactive round.
    active: bool,
    /// The activity-free proactive rounds before it.
    idle_rounds: u32,
}

/// Which of a strategy's rounds are proactive: they draw a pattern and
/// count towards the idle streak.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Schedule {
    /// None: the pull routes and `no-recovery`. Their streak is never
    /// stepped and reads idle; whether they are idle is their `Lost`
    /// buffer's business.
    Pull,
    /// Every round: push and summary reconciliation.
    Push,
    /// `push-pull`: push and pull rounds alternate, push first.
    Alternate { pull_next: bool },
}

/// What a round is, as [`Pace::advance`] moved it on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Turn {
    /// A pull round, or `no-recovery`'s: nothing drawn.
    Pull,
    /// A proactive round, and the index among the patterns the table
    /// knows of the one it drew; `None` when the table knows none.
    Push(Option<usize>),
}

impl Pace {
    /// A fresh pace on `schedule`, its streak not yet idle.
    pub(crate) fn new(schedule: Schedule) -> Self {
        Pace {
            schedule,
            active: false,
            idle_rounds: 0,
        }
    }

    /// Moves the pace through one round: push-pull's phase step, then,
    /// in a proactive round, the streak's step and the pattern draw
    /// (paper: "p is selected by considering the whole subscription
    /// table"), one [`Rng::random_below`] draw over the patterns `table`
    /// knows, none when it knows none. Every round of every strategy,
    /// run, replayed or looked ahead, goes through here.
    pub(crate) fn advance(&mut self, table: &SubscriptionTable, rng: &mut Rng) -> Turn {
        match &mut self.schedule {
            Schedule::Pull => return Turn::Pull,
            Schedule::Push => {}
            Schedule::Alternate { pull_next } => {
                let pull = *pull_next;
                *pull_next = !pull;
                if pull {
                    // The streak counts the push half's rounds only.
                    return Turn::Pull;
                }
            }
        }
        self.idle_rounds = if self.active {
            0
        } else {
            self.idle_rounds.saturating_add(1)
        };
        self.active = false;
        let known = table.len() as u64;
        Turn::Push((known > 0).then(|| rng.random_below(known) as usize))
    }

    /// Someone is missing events (an out-of-band request, or
    /// reconciliation in progress): evidence that proactive rounds are
    /// earning their keep.
    pub(crate) fn note_activity(&mut self) {
        self.active = true;
    }

    /// `true` for the strategies without proactive rounds, and for the
    /// others after a streak of activity-free rounds. A single quiet
    /// interval is common noise (requests only come back when *this*
    /// node's digest found a gap at a subscriber), so one is not enough
    /// to slow down.
    pub(crate) fn is_idle(self) -> bool {
        self.schedule == Schedule::Pull || (self.idle_rounds >= 3 && !self.active)
    }
}

impl Turn {
    /// The pattern a proactive round drew, through the table's
    /// known-pattern index instead of a per-round copy of all of them.
    pub(crate) fn pattern(self, table: &SubscriptionTable) -> Option<PatternId> {
        let Turn::Push(Some(k)) = self else {
            return None;
        };
        let pattern = table.nth_known(k);
        debug_assert_eq!(pattern, table.all_patterns().nth(k), "index vs scan");
        pattern
    }
}

/// The proactive side's in-flight requests, kept by push, the push half
/// of `push-pull` and summary reconciliation.
#[derive(Clone, Debug, Default)]
pub(crate) struct PushState {
    /// Membership checks only — never iterated, so the set's arbitrary
    /// ordering can't leak into any output.
    requested: IdSet<EventId>,
}

impl PushState {
    /// The event arrived (via the tree or a reply): stop tracking its
    /// id so the set stays bounded by the in-flight requests.
    pub(crate) fn on_event_received(&mut self, event: &Event) {
        self.requested.remove(&event.id());
    }

    /// Sends `gossiper` an out-of-band request for those of `ids` this
    /// node has never seen, skipping ids already requested (a previous
    /// reply may still be in flight); nothing when none are left.
    pub(crate) fn request_unseen(
        &mut self,
        node: &Dispatcher,
        gossiper: NodeId,
        ids: impl IntoIterator<Item = EventId>,
        out: &mut Vec<Outgoing>,
    ) {
        let missing: Vec<EventId> = ids
            .into_iter()
            .filter(|&id| !node.has_seen(id) && !self.requested.contains(&id))
            .collect();
        if !missing.is_empty() {
            self.requested.extend(missing.iter().copied());
            out.push(Outgoing {
                to: gossiper,
                env: Envelope::Request(missing),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Round digests.
// ---------------------------------------------------------------------------

/// Push's round digest (paper, Section III-B, "Push"): all the cached
/// events matching `pattern`, drawn from the *whole* subscription table
/// — being on the route towards a subscriber is enough, which speeds up
/// convergence. `None` skips the round: nothing is cached for the
/// pattern, and an empty digest would be pure overhead.
pub(crate) fn push_digest(node: &Dispatcher, pattern: PatternId) -> Option<GossipMessage> {
    let ids = node.cache().ids_matching(pattern);
    if ids.is_empty() {
        return None;
    }
    Some(GossipMessage::PushDigest {
        gossiper: node.id(),
        pattern,
        ids: Arc::new(ids),
    })
}

/// A pull strategy's round digest: outstanding `Lost` entries steered
/// by `route`, or `None` to skip the round.
///
/// **Truncation contract.** When more than [`DIGEST_MAX`] entries are
/// outstanding, the digest carries the *first* `DIGEST_MAX` in (source,
/// seq) order — the oldest losses per source — deterministically, never
/// a random or insertion-ordered subset. Oldest-first matters because
/// caches evict FIFO: the oldest losses are the ones closest to
/// becoming unrecoverable, so they go on the wire first. The newer
/// entries are *deferred*, never hidden: selection charges one attempt
/// to each selected entry, and entries that exhaust `MAX_ATTEMPTS` are
/// dropped from the buffer, so every over-limit entry surfaces in a
/// later round once the entries ahead of it are recovered or abandoned
/// (pinned by a regression test in this module).
pub(crate) fn pull_digest(
    route: PullRoute,
    lost: &mut LostBuffer,
    node: &Dispatcher,
    neighbors: &[NodeId],
    config: &GossipConfig,
    rng: &mut Rng,
) -> Option<GossipMessage> {
    match route {
        PullRoute::Subscriber => pattern_pull_digest(lost, node, rng),
        PullRoute::Publisher => source_pull_digest(lost, node, rng),
        PullRoute::Random => {
            if lost.is_empty() || neighbors.is_empty() {
                return None;
            }
            Some(GossipMessage::RandomPull {
                gossiper: node.id(),
                lost: lost.any(DIGEST_MAX),
                ttl: RANDOM_TTL,
            })
        }
        // No work: skip without consuming the coin draw.
        PullRoute::Combined if lost.is_empty() => None,
        // The publisher route falls back to the subscriber route when
        // no route back to any missing source is known, rather than
        // wasting the round.
        PullRoute::Combined => {
            let towards_source = if rng.random_bool(config.p_source) {
                source_pull_digest(lost, node, rng)
            } else {
                None
            };
            towards_source.or_else(|| pattern_pull_digest(lost, node, rng))
        }
    }
}

/// Subscriber-based pull's digest, labelled with a pattern drawn
/// uniformly from the `Lost` buffer's patterns in ascending order: one
/// [`Rng::random_below`] draw over their count, none when nothing is
/// lost.
pub(crate) fn pattern_pull_digest(
    lost: &mut LostBuffer,
    node: &Dispatcher,
    rng: &mut Rng,
) -> Option<GossipMessage> {
    let n = lost.patterns().len();
    if n == 0 {
        return None;
    }
    let pattern = lost.patterns().nth(rng.random_below(n as u64) as usize)?;
    Some(GossipMessage::PullDigest {
        gossiper: node.id(),
        pattern,
        lost: lost.for_pattern(pattern, DIGEST_MAX),
    })
}

/// Publisher-based pull's digest (paper, Section III-B): a source drawn
/// with the same discipline from those with a known route back, carried
/// towards it along the reverse of the most recently recorded route.
/// The route may be stale after a reconfiguration — the two paths
/// "share at least the first portion or, in the worst case, the
/// publisher" — so intermediate caches often short-circuit the
/// recovery.
fn source_pull_digest(
    lost: &mut LostBuffer,
    node: &Dispatcher,
    rng: &mut Rng,
) -> Option<GossipMessage> {
    // Only sources we know a route back to are actionable.
    let routable = || {
        lost.sources()
            .filter(|&s| node.routes().route_from(s).is_some())
    };
    let n = routable().count();
    if n == 0 {
        return None;
    }
    let source = routable().nth(rng.random_below(n as u64) as usize)?;
    Some(GossipMessage::SourcePull {
        gossiper: node.id(),
        source,
        lost: lost.for_source(source, DIGEST_MAX),
        route: node
            .routes()
            .route_to(source)
            .expect("a source is only drawn with a known route"),
    })
}

// ---------------------------------------------------------------------------
// Forwarding.
// ---------------------------------------------------------------------------

/// Puts a digest on the wire towards the next hops its form steers it
/// to, never back out of `from`, the interface it arrived on (`None`
/// for a round's own digest):
///
/// - a pattern-labelled digest travels along the pattern's routes as if
///   it were an event matching the pattern, to a random subset of the
///   matching neighbors (`P_forward`);
/// - a publisher-steered digest goes to the first hop of its route. The
///   route may be stale: if that hop is no longer a neighbor the
///   harness drops the message, exactly as a real unicast would fail;
/// - a random-walk digest goes to random neighbors.
pub(crate) fn send(
    mut msg: GossipMessage,
    node: &Dispatcher,
    from: Option<NodeId>,
    neighbors: &[NodeId],
    p_forward: f64,
    rng: &mut Rng,
    out: &mut Vec<Outgoing>,
) {
    let targets = match &mut msg {
        GossipMessage::PushDigest { pattern, .. }
        | GossipMessage::PullDigest { pattern, .. }
        | GossipMessage::SummaryDigest { pattern, .. } => {
            pattern_forward_targets(node, *pattern, from, p_forward, rng)
        }
        GossipMessage::SourcePull { route, .. } if route.is_empty() => Vec::new(),
        GossipMessage::SourcePull { route, .. } => vec![route.remove(0)],
        GossipMessage::RandomPull { .. } => random_forward_targets(neighbors, from, p_forward, rng),
    };
    if let Some((&last, rest)) = targets.split_last() {
        out.reserve(targets.len());
        out.extend(rest.iter().map(|&to| Outgoing {
            to,
            env: Envelope::Gossip(msg.clone()),
        }));
        out.push(Outgoing {
            to: last,
            env: Envelope::Gossip(msg),
        });
    }
}

/// The neighbors a pattern-labelled gossip message is forwarded to:
/// a [`forward_subset`] of the neighbors subscribed to `pattern`
/// (excluding the arrival interface) — the paper's "random subset of
/// the neighbors subscribed to p".
pub(crate) fn pattern_forward_targets(
    node: &Dispatcher,
    pattern: PatternId,
    from: Option<NodeId>,
    p_forward: f64,
    rng: &mut Rng,
) -> Vec<NodeId> {
    forward_subset(node.table().neighbors_for(pattern, from), p_forward, rng)
}

/// Random forwarding ignores subscription tables entirely: a
/// [`forward_subset`] of every neighbor but the arrival interface.
fn random_forward_targets(
    neighbors: &[NodeId],
    from: Option<NodeId>,
    p_forward: f64,
    rng: &mut Rng,
) -> Vec<NodeId> {
    let candidates = neighbors.iter().copied().filter(|&n| Some(n) != from);
    forward_subset(candidates, p_forward, rng)
}

/// A random subset of `candidates`: one coin per candidate, in order,
/// each kept with probability `p_forward`. If every coin comes up empty
/// while candidates exist, one drawn uniformly is used instead:
/// `P_forward` prunes *fan-out* to limit overhead, but a digest on a
/// single-path route would otherwise die off as `P_forward^hops` and
/// never reach a subscriber more than a couple of hops away. (The paper
/// does not report its `P_forward` value or the exact subset rule; this
/// interpretation reproduces its delivery curves.)
fn forward_subset(
    candidates: impl Iterator<Item = NodeId> + Clone,
    p_forward: f64,
    rng: &mut Rng,
) -> Vec<NodeId> {
    let picked: Vec<NodeId> = (candidates.clone())
        .filter(|_| p_forward >= 1.0 || rng.random_bool(p_forward))
        .collect();
    let n = candidates.clone().count();
    if picked.is_empty() && n > 0 {
        candidates.skip(rng.random_range(0..n)).take(1).collect()
    } else {
        picked
    }
}

// ---------------------------------------------------------------------------
// Serving.
// ---------------------------------------------------------------------------

/// Sends `to` an out-of-band reply carrying `events`, or nothing when
/// there are none.
pub(crate) fn reply(to: NodeId, events: Vec<Event>, out: &mut Vec<Outgoing>) {
    if !events.is_empty() {
        out.push(Outgoing {
            to,
            env: Envelope::Reply(events),
        });
    }
}

/// Serves a negative digest from this dispatcher's cache: returns the
/// events it holds and leaves in `lost` the records it cannot serve,
/// in their order, so the onward digest reuses the vector.
pub(crate) fn serve_from_cache(node: &Dispatcher, lost: &mut Vec<LossRecord>) -> Vec<Event> {
    let mut found = Vec::new();
    lost.retain(|record| {
        let event = node
            .cache()
            .get_by_pattern_seq(record.source, record.pattern, record.seq);
        found.extend(event.cloned());
        event.is_none()
    });
    // One event can cover several records (it matches several
    // patterns); do not send duplicates.
    found.sort_by_key(|e| e.id());
    found.dedup_by_key(|e| e.id());
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MAX_ATTEMPTS;
    use crate::Algorithm;
    use eps_pubsub::DispatcherConfig;
    use eps_sim::RngFactory;

    /// One round of `strategy`, into a vector of its own.
    fn round(
        strategy: &mut crate::Strategy,
        node: &Dispatcher,
        neighbors: &[NodeId],
        rng: &mut Rng,
    ) -> Vec<Outgoing> {
        let mut out = Vec::new();
        strategy.on_round(node, neighbors, rng, &mut out);
        out
    }

    /// `strategy`'s reaction to `msg` from `from`, into a vector of its
    /// own.
    fn receive(
        strategy: &mut crate::Strategy,
        node: &Dispatcher,
        from: NodeId,
        msg: GossipMessage,
        neighbors: &[NodeId],
        rng: &mut Rng,
    ) -> Vec<Outgoing> {
        let mut out = Vec::new();
        strategy.on_gossip(node, from, msg, neighbors, rng, &mut out);
        out
    }

    fn cfg() -> GossipConfig {
        GossipConfig {
            p_forward: 1.0,
            ..GossipConfig::default()
        }
    }

    fn record(source: u32, pattern: u16, seq: u64) -> LossRecord {
        LossRecord {
            source: NodeId::new(source),
            pattern: PatternId::new(pattern),
            seq,
        }
    }

    fn node_with_cached_event() -> (Dispatcher, Event) {
        let mut d = Dispatcher::new(NodeId::new(1), DispatcherConfig::default());
        d.subscribe_local(PatternId::new(1), &[]);
        let e = Event::new(
            EventId::new(NodeId::new(0), 0),
            vec![(PatternId::new(1), 4)],
        );
        d.on_event(e.clone(), Some(NodeId::new(0)), &mut Vec::new());
        (d, e)
    }

    /// A dispatcher that knows a subscriber neighbor (3) for pattern 1
    /// and a recorded route back to source 0 through that neighbor —
    /// every pull route has something to do.
    fn routed_node() -> Dispatcher {
        let mut node = Dispatcher::new(
            NodeId::new(5),
            DispatcherConfig {
                record_routes: true,
                ..DispatcherConfig::default()
            },
        );
        node.subscribe_local(PatternId::new(1), &[]);
        node.on_subscribe(PatternId::new(1), NodeId::new(3), &[]);
        let e = Event::from_wire(
            EventId::new(NodeId::new(0), 0),
            vec![(PatternId::new(1), 0)],
            vec![NodeId::new(0), NodeId::new(3)],
        );
        node.on_event(e, Some(NodeId::new(3)), &mut Vec::new());
        node
    }

    /// The gossip messages in `out`, with their destinations.
    fn gossip(out: &[Outgoing]) -> Vec<(NodeId, &GossipMessage)> {
        out.iter()
            .filter_map(|o| match &o.env {
                Envelope::Gossip(msg) => Some((o.to, msg)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn serve_from_cache_splits_found_and_missing() {
        let (d, e) = node_with_cached_event();
        let hit = record(0, 1, 4);
        let miss = record(0, 1, 7);
        let mut lost = vec![hit, miss];
        let found = serve_from_cache(&d, &mut lost);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].id(), e.id());
        assert_eq!(lost, vec![miss]);
    }

    #[test]
    fn serve_from_cache_dedups_multi_pattern_events() {
        let mut d = Dispatcher::new(NodeId::new(1), DispatcherConfig::default());
        d.subscribe_local(PatternId::new(1), &[]);
        let e = Event::new(
            EventId::new(NodeId::new(0), 0),
            vec![(PatternId::new(1), 0), (PatternId::new(2), 0)],
        );
        d.on_event(e, Some(NodeId::new(0)), &mut Vec::new());
        let mut records = vec![record(0, 1, 0), record(0, 2, 0)];
        let found = serve_from_cache(&d, &mut records);
        assert_eq!(found.len(), 1, "same event must be sent once");
        assert!(records.is_empty());
    }

    #[test]
    fn pattern_targets_respect_probability_extremes() {
        let mut d = Dispatcher::new(NodeId::new(0), DispatcherConfig::default());
        let p = PatternId::new(1);
        d.on_subscribe(p, NodeId::new(1), &[]);
        d.on_subscribe(p, NodeId::new(2), &[]);
        let mut rng = RngFactory::new(1).stream("gossip");
        let all = pattern_forward_targets(&d, p, None, 1.0, &mut rng);
        assert_eq!(all.len(), 2);
        // Even at p_forward = 0 a digest keeps moving along one route.
        let min_one = pattern_forward_targets(&d, p, None, 0.0, &mut rng);
        assert_eq!(min_one.len(), 1);
        let excl = pattern_forward_targets(&d, p, Some(NodeId::new(1)), 1.0, &mut rng);
        assert_eq!(excl, vec![NodeId::new(2)]);
        // No candidates -> no targets, guarantee-one does not invent.
        let q = PatternId::new(9);
        assert!(pattern_forward_targets(&d, q, None, 1.0, &mut rng).is_empty());
    }

    #[test]
    fn random_targets_never_include_sender_and_never_empty() {
        let mut rng = RngFactory::new(2).stream("gossip");
        let nbrs = [NodeId::new(1), NodeId::new(2), NodeId::new(3)];
        for _ in 0..100 {
            let t = random_forward_targets(&nbrs, Some(NodeId::new(2)), 0.3, &mut rng);
            assert!(!t.is_empty());
            assert!(!t.contains(&NodeId::new(2)));
        }
    }

    #[test]
    fn push_announces_cache_and_requests_missing() {
        let mut node = Dispatcher::new(NodeId::new(0), DispatcherConfig::default());
        let p = PatternId::new(1);
        node.subscribe_local(p, &[]);
        node.on_subscribe(p, NodeId::new(2), &[]);
        let (event, _) = node.publish(&[p], &mut Vec::new());
        let mut push = Algorithm::push().build(cfg());
        let mut rng = RngFactory::new(1).stream("gossip");
        let announced = round(&mut push, &node, &[], &mut rng);
        match gossip(&announced)[..] {
            [(to, GossipMessage::PushDigest { ids, .. })] => {
                assert_eq!(to, NodeId::new(2));
                assert_eq!(**ids, vec![event.id()]);
            }
            ref other => panic!("unexpected {other:?}"),
        }
        // A digest with an unseen id produces a request, and the digest
        // keeps propagating unchanged.
        let unseen = EventId::new(NodeId::new(7), 3);
        let digest = GossipMessage::PushDigest {
            gossiper: NodeId::new(5),
            pattern: p,
            ids: Arc::new(vec![unseen]),
        };
        let out = receive(
            &mut push,
            &node,
            NodeId::new(5),
            digest.clone(),
            &[],
            &mut rng,
        );
        assert_eq!(
            out[0],
            Outgoing {
                to: NodeId::new(5),
                env: Envelope::Request(vec![unseen]),
            }
        );
        assert_eq!(gossip(&out), [(NodeId::new(2), &digest)]);
        // The same id is not requested twice while in flight.
        let again = receive(&mut push, &node, NodeId::new(5), digest, &[], &mut rng);
        assert!(!again.iter().any(|o| matches!(o.env, Envelope::Request(_))));
    }

    #[test]
    fn push_idle_streak_requires_three_quiet_rounds() {
        let node = Dispatcher::new(NodeId::new(0), DispatcherConfig::default());
        let mut push = Algorithm::push().build(cfg());
        let mut rng = RngFactory::new(1).stream("gossip");
        assert!(!push.is_idle());
        for _ in 0..3 {
            round(&mut push, &node, &[], &mut rng);
        }
        assert!(push.is_idle());
        push.on_request(&node, NodeId::new(3), &[], &mut Vec::new());
        assert!(!push.is_idle());
        round(&mut push, &node, &[], &mut rng);
        assert!(!push.is_idle(), "a request resets the streak");
    }

    #[test]
    fn pull_serves_what_it_holds_and_passes_the_rest_on() {
        let (mut node, _) = node_with_cached_event();
        node.on_subscribe(PatternId::new(1), NodeId::new(3), &[]);
        let mut pull = Algorithm::subscriber_pull().build(cfg());
        pull.on_losses(&[record(0, 1, 7), record(2, 3, 1)]);
        assert_eq!(pull.outstanding_losses(), 2);
        let digest = |lost| GossipMessage::PullDigest {
            gossiper: NodeId::new(9),
            pattern: PatternId::new(1),
            lost,
        };
        let mut rng = RngFactory::new(1).stream("gossip");
        let out = receive(
            &mut pull,
            &node,
            NodeId::new(9),
            digest(vec![record(0, 1, 4), record(0, 1, 9)]),
            &[],
            &mut rng,
        );
        assert!(matches!(
            &out[0],
            Outgoing { to, env: Envelope::Reply(events) } if *to == NodeId::new(9) && events.len() == 1
        ));
        assert_eq!(
            gossip(&out),
            [(NodeId::new(3), &digest(vec![record(0, 1, 9)]))]
        );
        // A dispatcher holding everything short-circuits the
        // propagation.
        let out = receive(
            &mut pull,
            &node,
            NodeId::new(9),
            digest(vec![record(0, 1, 4)]),
            &[],
            &mut rng,
        );
        assert_eq!(out.len(), 1);
        assert!(gossip(&out).is_empty());
    }

    #[test]
    fn pull_truncates_oldest_first_and_never_starves_newest() {
        // The truncation contract documented on `pull_digest`: over-
        // limit digests carry the oldest (lowest (source, seq)) entries,
        // and every deferred newer entry still reaches the wire in a
        // later round.
        let losses = DIGEST_MAX as u64 + 10;
        let mut node = Dispatcher::new(NodeId::new(1), DispatcherConfig::default());
        node.on_subscribe(PatternId::new(1), NodeId::new(2), &[]);
        let mut pull = Algorithm::subscriber_pull().build(cfg());
        for seq in 0..losses {
            pull.on_losses(&[record(0, 1, seq)]);
        }
        let mut rng = RngFactory::new(1).stream("gossip");
        let mut carried = |pull: &mut crate::Strategy| -> Vec<u64> {
            match gossip(&round(pull, &node, &[], &mut rng))[..] {
                [(_, GossipMessage::PullDigest { lost, .. })] => {
                    lost.iter().map(|r| r.seq).collect()
                }
                ref other => panic!("unexpected {other:?}"),
            }
        };
        assert_eq!(
            carried(&mut pull),
            (0..DIGEST_MAX as u64).collect::<Vec<_>>(),
            "truncation must keep the oldest first"
        );
        // Keep gossiping without any recovery: attempts expire the
        // entries at the front of the order, and every newer entry —
        // including the newest — surfaces before the buffer drains.
        let mut seen_on_wire: Vec<u64> = vec![];
        while pull.outstanding_losses() > 0 {
            seen_on_wire.extend(carried(&mut pull));
        }
        for seq in 0..losses {
            assert!(
                seen_on_wire.contains(&seq),
                "deferred entry seq {seq} never reached the wire: {seen_on_wire:?}"
            );
        }
    }

    #[test]
    fn push_pull_alternates_push_and_pull_rounds() {
        let mut node = Dispatcher::new(NodeId::new(0), DispatcherConfig::default());
        let patterns = [PatternId::new(1), PatternId::new(2)];
        for p in patterns {
            node.subscribe_local(p, &[]);
            node.on_subscribe(p, NodeId::new(3), &[]);
        }
        node.publish(&patterns, &mut Vec::new());
        let mut hybrid = Algorithm::push_pull().build(cfg());
        hybrid.on_losses(&[record(7, 2, 0)]);
        let mut rng = RngFactory::new(1).stream("gossip");
        for k in 0..4 {
            let out = round(&mut hybrid, &node, &[], &mut rng);
            match gossip(&out)[..] {
                [(_, GossipMessage::PushDigest { .. })] => assert_eq!(k % 2, 0),
                [(_, GossipMessage::PullDigest { pattern, .. })] => {
                    assert_eq!(k % 2, 1);
                    assert_eq!(*pattern, PatternId::new(2));
                }
                ref other => panic!("round {k}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn subscriber_pull_routes_its_digest_to_subscribers() {
        let mut node = Dispatcher::new(NodeId::new(0), DispatcherConfig::default());
        let mut pull = Algorithm::subscriber_pull().build(cfg());
        let mut rng = RngFactory::new(1).stream("gossip");
        assert!(
            round(&mut pull, &node, &[], &mut rng).is_empty(),
            "nothing lost, no round"
        );
        let p = PatternId::new(1);
        node.subscribe_local(p, &[]);
        node.on_subscribe(p, NodeId::new(2), &[]);
        pull.on_losses(&[record(7, 1, 0)]);
        let out = round(&mut pull, &node, &[], &mut rng);
        assert!(
            matches!(
                gossip(&out)[..],
                [(to, GossipMessage::PullDigest { .. })] if to == NodeId::new(2)
            ),
            "{out:?}"
        );
    }

    #[test]
    fn publisher_pull_follows_the_reverse_route() {
        let node = routed_node();
        let mut pull = Algorithm::publisher_pull().build(cfg());
        pull.on_losses(&[record(0, 1, 5)]);
        let mut rng = RngFactory::new(1).stream("gossip");
        let out = round(&mut pull, &node, &[], &mut rng);
        match gossip(&out)[..] {
            [(to, GossipMessage::SourcePull { source, route, .. })] => {
                assert_eq!(to, NodeId::new(3), "first hop back towards the source");
                assert_eq!(*source, NodeId::new(0));
                assert_eq!(route, &vec![NodeId::new(0)]);
            }
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn publisher_pull_skips_unroutable_sources() {
        let node = Dispatcher::new(NodeId::new(5), DispatcherConfig::default());
        let mut pull = Algorithm::publisher_pull().build(cfg());
        pull.on_losses(&[record(7, 1, 0)]);
        let mut rng = RngFactory::new(1).stream("gossip");
        assert!(round(&mut pull, &node, &[], &mut rng).is_empty());
        // The entry stays outstanding for later (e.g. combined pull).
        assert_eq!(pull.outstanding_losses(), 1);
    }

    #[test]
    fn draws_are_choose_over_the_ascending_candidates() {
        // Each round's pattern or source draw must be the single
        // `Rng::choose` draw over the candidate list in ascending order
        // (what the golden files were recorded with), and leave the
        // generator in that state. At `P_forward = 1` forwarding draws
        // nothing, so the round's label is its only draw. Every round
        // charges each selected loss one attempt, so over `MAX_ATTEMPTS`
        // rounds none is abandoned and the candidate lists stay fixed.
        let config = cfg();
        let mut node = Dispatcher::new(
            NodeId::new(5),
            DispatcherConfig {
                record_routes: true,
                ..DispatcherConfig::default()
            },
        );
        let patterns = [3u16, 7, 9, 64, 70, 200, 300].map(PatternId::new);
        for p in patterns {
            node.subscribe_local(p, &[]);
            node.on_subscribe(p, NodeId::new(1), &[]);
        }
        // Cached events matching every pattern, and routes back to
        // sources 2 and 6 — none to 4.
        for source in [6u32, 2] {
            let e = Event::from_wire(
                EventId::new(NodeId::new(source), 0),
                patterns.iter().map(|&p| (p, 0)).collect(),
                vec![NodeId::new(source), NodeId::new(1)],
            );
            node.on_event(e, Some(NodeId::new(1)), &mut Vec::new());
        }
        let losses = [
            record(6, 9, 1),
            record(2, 300, 1),
            record(4, 9, 2),
            record(2, 7, 1),
        ];
        let mut push = Algorithm::push().build(config);
        let mut subscriber = Algorithm::subscriber_pull().build(config);
        let mut publisher = Algorithm::publisher_pull().build(config);
        subscriber.on_losses(&losses);
        publisher.on_losses(&losses);
        let known: Vec<PatternId> = node.table().all_patterns().collect();
        let lost = [7u16, 9, 300].map(PatternId::new);
        let routable = [2u32, 6].map(NodeId::new);
        let label = |out: Vec<Outgoing>| match gossip(&out)[..] {
            [(_, GossipMessage::PushDigest { pattern, .. })]
            | [(_, GossipMessage::PullDigest { pattern, .. })] => Some(pattern.value() as u32),
            [(_, GossipMessage::SourcePull { source, .. })] => Some(source.index() as u32),
            [] => None,
            ref other => panic!("unexpected {other:?}"),
        };
        let mut rng = RngFactory::new(4).stream("gossip");
        let mut reference = rng.clone();
        for _ in 0..MAX_ATTEMPTS {
            assert_eq!(
                label(round(&mut push, &node, &[], &mut rng)),
                reference.choose(&known).map(|p| p.value() as u32)
            );
            assert_eq!(
                label(round(&mut subscriber, &node, &[], &mut rng)),
                reference.choose(&lost).map(|p| p.value() as u32)
            );
            assert_eq!(
                label(round(&mut publisher, &node, &[], &mut rng)),
                reference.choose(&routable).map(|s| s.index() as u32)
            );
        }
        // No candidates, no draw.
        let empty = Dispatcher::new(NodeId::new(0), DispatcherConfig::default());
        assert_eq!(label(round(&mut push, &empty, &[], &mut rng)), None);
        assert_eq!(label(round(&mut publisher, &empty, &[], &mut rng)), None);
        assert_eq!(rng, reference);
    }

    #[test]
    fn random_pull_walks_with_ttl_and_skips_without_work() {
        let node = Dispatcher::new(NodeId::new(0), DispatcherConfig::default());
        let mut random = Algorithm::random_pull().build(cfg());
        let mut rng = RngFactory::new(1).stream("gossip");
        let nbrs = [NodeId::new(1), NodeId::new(2)];
        assert!(round(&mut random, &node, &nbrs, &mut rng).is_empty());
        random.on_losses(&[record(1, 1, 0)]);
        assert!(
            round(&mut random, &node, &[], &mut rng).is_empty(),
            "no neighbors, no round"
        );
        let out = round(&mut random, &node, &nbrs, &mut rng);
        assert_eq!(out.len(), 2);
        for o in &out {
            assert!(matches!(
                &o.env,
                Envelope::Gossip(GossipMessage::RandomPull { ttl, .. }) if *ttl == RANDOM_TTL
            ));
        }
        // An unserved digest walks on with one hop less of budget, and
        // at ttl=1 is served but never forwarded.
        let walk = |ttl| GossipMessage::RandomPull {
            gossiper: NodeId::new(9),
            lost: vec![record(3, 1, 0)],
            ttl,
        };
        let out = receive(&mut random, &node, NodeId::new(2), walk(4), &nbrs, &mut rng);
        assert_eq!(
            out,
            [Outgoing {
                to: NodeId::new(1),
                env: Envelope::Gossip(walk(3)),
            }]
        );
        let out = receive(&mut random, &node, NodeId::new(2), walk(1), &nbrs, &mut rng);
        assert!(out.is_empty(), "ttl=1 must not forward further");
    }

    #[test]
    fn combined_pull_uses_both_routes() {
        let node = routed_node();
        let config = GossipConfig {
            p_source: 0.5,
            ..cfg()
        };
        let mut combined = Algorithm::combined_pull().build(config);
        let mut rng = RngFactory::new(9).stream("gossip");
        let (mut saw_pull, mut saw_source) = (false, false);
        for seq in 0..200u64 {
            combined.on_losses(&[record(0, 1, seq + 1)]);
            for (_, msg) in gossip(&round(&mut combined, &node, &[], &mut rng)) {
                match msg {
                    GossipMessage::PullDigest { .. } => saw_pull = true,
                    GossipMessage::SourcePull { .. } => saw_source = true,
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        assert!(saw_pull, "subscriber route never used");
        assert!(saw_source, "publisher route never used");
    }

    #[test]
    fn combined_pull_falls_back_when_no_route_is_known() {
        // A subscription but no route knowledge.
        let mut node = Dispatcher::new(NodeId::new(5), DispatcherConfig::default());
        node.subscribe_local(PatternId::new(1), &[]);
        node.on_subscribe(PatternId::new(1), NodeId::new(3), &[]);
        let config = GossipConfig {
            p_source: 1.0, // always tries the publisher route first
            ..cfg()
        };
        let mut combined = Algorithm::combined_pull().build(config);
        combined.on_losses(&[record(0, 1, 5)]);
        let mut rng = RngFactory::new(9).stream("gossip");
        let out = round(&mut combined, &node, &[], &mut rng);
        assert!(
            matches!(gossip(&out)[..], [(_, GossipMessage::PullDigest { .. })]),
            "expected subscriber fallback, got {out:?}"
        );
    }

    #[test]
    fn combined_pull_skips_round_without_work() {
        let node = routed_node();
        let mut combined = Algorithm::combined_pull().build(cfg());
        let mut rng = RngFactory::new(9).stream("gossip");
        let before = rng.clone();
        assert!(round(&mut combined, &node, &[], &mut rng).is_empty());
        assert_eq!(rng, before, "no work, no coin draw");
    }
}

//! The per-dispatcher recovery strategy the harness talks to.
//!
//! A [`Strategy`] holds its gossip configuration, its [`Pace`] and one
//! of five kinds of state, one per kind the [`crate::Algorithm`] table
//! builds. Every hook is one `match` over them, calling the round and
//! forwarding bodies of the wire forms that state speaks. Every round —
//! run, replayed or looked ahead — first moves the pace with
//! [`Pace::advance`].

use eps_overlay::NodeId;
use eps_pubsub::{Dispatcher, Event, EventId, LossRecord, PatternId, RangeRef};
use eps_sim::Rng;

use crate::config::GossipConfig;
use crate::envelope::Outgoing;
use crate::lost::LostBuffer;
use crate::message::GossipMessage;
use crate::policy::{
    pattern_pull_digest, pull_digest, push_digest, reply, send, serve_from_cache, Pace, PullRoute,
    PushState, Turn,
};
use crate::summary::{SummaryMode, SummaryState};

/// One dispatcher's recovery strategy, built by
/// [`crate::Algorithm::build`]: reacts to gossip rounds, loss
/// detections, and incoming gossip traffic by appending the
/// [`Outgoing`] messages it wants sent to the caller's `out`.
///
/// A strategy never mutates the dispatcher: recovered events are
/// applied by the harness through [`Dispatcher::on_recovered_event`],
/// keeping strategies pure and independently testable.
#[derive(Clone, Debug)]
pub struct Strategy {
    pub(crate) config: GossipConfig,
    /// What every round changes, whatever the kind.
    pub(crate) pace: Pace,
    pub(crate) state: State,
}

/// What a strategy keeps between calls.
#[derive(Clone, Debug)]
pub(crate) enum State {
    /// `no-recovery`: no gossip at all. It still answers out-of-band
    /// requests from its cache, like every strategy whose cache keeps
    /// the id index.
    NoRecovery,
    /// `push`: positive digests of cached events.
    Push(PushState),
    /// The four negative-digest rows: detected losses accumulate in the
    /// `Lost` buffer, a round chases them along `route`, and
    /// dispatchers on the way serve what their caches hold. Both kinds
    /// that keep a `Lost` buffer box it: inline, it made them the
    /// largest kinds, and every strategy of every kind that size.
    Pull {
        lost: Box<LostBuffer>,
        route: PullRoute,
    },
    /// `push-pull`: push rounds and subscriber-pull rounds alternate
    /// (its [`Pace`] keeps the phase); received digests of either kind
    /// are handled whatever the phase.
    PushPull {
        push: PushState,
        lost: Box<LostBuffer>,
    },
    /// `summary-push` / `summary-pull`: hash-range tree digests,
    /// steered like push digests.
    Summary(SummaryState),
}

impl Strategy {
    /// Called every gossip interval `T`: start a new gossip round.
    pub fn on_round(
        &mut self,
        node: &Dispatcher,
        neighbors: &[NodeId],
        rng: &mut Rng,
        out: &mut Vec<Outgoing>,
    ) {
        let turn = self.pace.advance(node.table(), rng);
        let config = &self.config;
        let digest = match &mut self.state {
            State::NoRecovery => None,
            State::Pull { lost, route } => pull_digest(*route, lost, node, neighbors, config, rng),
            State::PushPull { lost, .. } if turn == Turn::Pull => {
                pattern_pull_digest(lost, node, rng)
            }
            State::Push(_) | State::PushPull { .. } => turn
                .pattern(node.table())
                .and_then(|p| push_digest(node, p)),
            // Proactive, like push: any pattern this dispatcher routes
            // is worth a round.
            State::Summary(summary) => turn
                .pattern(node.table())
                .and_then(|pattern| summary.digest(node, pattern)),
        };
        if let Some(msg) = digest {
            send(msg, node, None, neighbors, config.p_forward, rng, out);
        }
    }

    /// Runs a round that sends nothing — one a [`Lookahead`] stepped
    /// through as silent — for its effects alone: the advance of the
    /// idle streak, push-pull's phase and the gossip stream every round
    /// makes, without the digest lookups that would find nothing to
    /// send. Debug builds run `on_round` on a copy beside it and check
    /// that it sends nothing and ends in the same state.
    pub fn silent_round(&mut self, node: &Dispatcher, neighbors: &[NodeId], rng: &mut Rng) {
        #[cfg(debug_assertions)]
        let (mut twin, mut twin_rng) = (self.clone(), rng.clone());
        self.pace.advance(node.table(), rng);
        #[cfg(debug_assertions)]
        {
            let mut sent = Vec::new();
            twin.on_round(node, neighbors, &mut twin_rng, &mut sent);
            assert!(sent.is_empty(), "a silent round sent {sent:?}");
            assert_eq!(
                (twin_rng, twin.pace),
                (rng.clone(), self.pace),
                "a silent round's effects"
            );
        }
        #[cfg(not(debug_assertions))]
        let _ = neighbors;
    }

    /// A gossip message arrived from tree neighbor `from`. A wire form
    /// foreign to this strategy (mixed deployments) is dropped: no
    /// messages, no RNG draw.
    pub fn on_gossip(
        &mut self,
        node: &Dispatcher,
        from: NodeId,
        msg: GossipMessage,
        neighbors: &[NodeId],
        rng: &mut Rng,
        out: &mut Vec<Outgoing>,
    ) {
        let onward = match (&mut self.state, msg) {
            (
                State::Push(push) | State::PushPull { push, .. },
                GossipMessage::PushDigest {
                    gossiper,
                    pattern,
                    ids,
                },
            ) => {
                // Subscribed? Compare the digest with what we have seen.
                if gossiper != node.id() && node.table().has_local(pattern) {
                    push.request_unseen(node, gossiper, ids.iter().copied(), out);
                }
                // A positive digest keeps propagating unchanged.
                Some(GossipMessage::PushDigest {
                    gossiper,
                    pattern,
                    ids,
                })
            }
            (
                State::Pull {
                    route: PullRoute::Subscriber | PullRoute::Combined,
                    ..
                }
                | State::PushPull { .. },
                GossipMessage::PullDigest {
                    gossiper,
                    pattern,
                    mut lost,
                },
            ) => {
                let found = serve_from_cache(node, &mut lost);
                reply(gossiper, found, out);
                // A dispatcher holding everything short-circuits the
                // propagation.
                (!lost.is_empty()).then_some(GossipMessage::PullDigest {
                    gossiper,
                    pattern,
                    lost,
                })
            }
            (
                State::Pull {
                    route: PullRoute::Publisher | PullRoute::Combined,
                    ..
                },
                GossipMessage::SourcePull {
                    gossiper,
                    source,
                    mut lost,
                    route,
                },
            ) => {
                let found = serve_from_cache(node, &mut lost);
                reply(gossiper, found, out);
                (!lost.is_empty()).then_some(GossipMessage::SourcePull {
                    gossiper,
                    source,
                    lost,
                    route,
                })
            }
            (
                State::Pull {
                    route: PullRoute::Random,
                    ..
                },
                GossipMessage::RandomPull {
                    gossiper,
                    mut lost,
                    ttl,
                },
            ) => {
                let found = serve_from_cache(node, &mut lost);
                reply(gossiper, found, out);
                // The unserved remainder walks on while the hop budget
                // lasts.
                (!lost.is_empty() && ttl > 1).then(|| GossipMessage::RandomPull {
                    gossiper,
                    lost,
                    ttl: ttl - 1,
                })
            }
            (
                State::Summary(summary),
                GossipMessage::SummaryDigest {
                    gossiper,
                    pattern,
                    ranges,
                    details,
                },
            ) => {
                let sent = out.len();
                summary.absorb(node, gossiper, pattern, &ranges, &details, out);
                if out.len() > sent {
                    // Reconciliation in progress counts as activity for
                    // the adaptive-gossip idle signal.
                    self.pace.note_activity();
                }
                // Like a push digest, the summary keeps propagating
                // unchanged.
                Some(GossipMessage::SummaryDigest {
                    gossiper,
                    pattern,
                    ranges,
                    details,
                })
            }
            _ => None,
        };
        if let Some(msg) = onward {
            let p_forward = self.config.p_forward;
            send(msg, node, Some(from), neighbors, p_forward, rng, out);
        }
    }

    /// The dispatcher's loss detector found gaps (pull strategies
    /// record them in their `Lost` buffer).
    pub fn on_losses(&mut self, losses: &[LossRecord]) {
        let lost = match &mut self.state {
            State::Pull { lost, .. } | State::PushPull { lost, .. } => &mut **lost,
            State::NoRecovery | State::Push(_) | State::Summary(_) => return,
        };
        for &record in losses {
            lost.add(record);
        }
    }

    /// An event was received (on the tree or via recovery); pull
    /// strategies clear the covered `Lost` entries.
    pub fn on_event_received(&mut self, event: &Event) {
        match &mut self.state {
            State::NoRecovery => {}
            State::Push(push) | State::Summary(SummaryState { push, .. }) => {
                push.on_event_received(event);
            }
            State::Pull { lost, .. } => lost.clear_for_event(event),
            State::PushPull { push, lost, .. } => {
                push.on_event_received(event);
                lost.clear_for_event(event);
            }
        }
    }

    /// An out-of-band request for specific cached events arrived (the
    /// reaction to a push digest): answered from the cache. The
    /// proactive strategies also take it as their activity signal for
    /// adaptive gossip. A dispatcher whose cache keeps no id index (the
    /// pull rows) drops it, as [`Strategy::on_gossip`] drops a foreign
    /// wire form: no messages, no RNG draw.
    pub fn on_request(
        &mut self,
        node: &Dispatcher,
        from: NodeId,
        ids: &[EventId],
        out: &mut Vec<Outgoing>,
    ) {
        if !node.cache().indexes().ids {
            return;
        }
        self.pace.note_activity();
        let events = ids
            .iter()
            .filter_map(|&id| node.cache().get(id).cloned())
            .collect();
        reply(from, events, out);
    }

    /// An out-of-band [`crate::Envelope::RangeRequest`] arrived: a
    /// peer asks this dispatcher to refine hash-tree ranges of
    /// `pattern`'s cache summary in its next gossip round. Only the
    /// summary-reconciliation strategies react.
    pub fn on_range_request(&mut self, pattern: PatternId, ranges: &[RangeRef]) {
        if let State::Summary(summary) = &mut self.state {
            summary.on_range_request(pattern, ranges);
            // A peer asking for refinement is direct evidence the
            // digests are finding divergence.
            self.pace.note_activity();
        }
    }

    /// The `Lost` buffer, for strategies that keep one.
    fn lost(&self) -> Option<&LostBuffer> {
        match &self.state {
            State::Pull { lost, .. } | State::PushPull { lost, .. } => Some(lost),
            State::NoRecovery | State::Push(_) | State::Summary(_) => None,
        }
    }

    /// Number of outstanding `Lost` entries (0 for strategies without
    /// a `Lost` buffer). Exposed for metrics and tests.
    pub fn outstanding_losses(&self) -> usize {
        self.lost().map_or(0, LostBuffer::len)
    }

    /// `Lost` entries this strategy has evicted under its capacity
    /// bound (0 for strategies without a `Lost` buffer). Exposed so
    /// overflow under churn is visible in the metrics rather than
    /// silent.
    pub fn lost_evictions(&self) -> u64 {
        self.lost().map_or(0, LostBuffer::evicted_total)
    }

    /// `true` when the strategy currently sees no evidence of recovery
    /// work — the signal adaptive gossip scheduling (paper Sec. IV-E,
    /// ref \[14\]) uses to back the interval off. Pull strategies are
    /// idle when their `Lost` buffer is empty; push when nobody
    /// requested anything since its last rounds; summary
    /// reconciliation when, besides, no refinement is queued.
    pub fn is_idle(&self) -> bool {
        self.is_idle_with(self.pace)
    }

    /// [`Strategy::is_idle`] at `pace` in place of the strategy's own.
    fn is_idle_with(&self, pace: Pace) -> bool {
        pace.is_idle()
            && match &self.state {
                State::NoRecovery | State::Push(_) => true,
                State::Pull { lost, .. } | State::PushPull { lost, .. } => lost.is_empty(),
                State::Summary(summary) => summary.queued_ranges() == 0,
            }
    }

    /// A look-ahead over this strategy's next rounds from its current
    /// state, drawing from a copy of `rng`, its gossip stream.
    pub fn lookahead<'a>(
        &'a self,
        node: &'a Dispatcher,
        neighbors: &'a [NodeId],
        rng: &Rng,
    ) -> Lookahead<'a> {
        Lookahead {
            strategy: self,
            node,
            neighbors,
            rng: rng.clone(),
            pace: self.pace,
        }
    }
}

/// What the next round would do, as [`Lookahead::step`] finds it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Round {
    /// It may send something: run it for real.
    Sends,
    /// It sends nothing. The look-ahead has made its draws and updates.
    Silent,
    /// Neither it nor any later round sends anything until an input
    /// changes the strategy, its dispatcher or the neighborhood.
    Never,
}

/// A strategy's next rounds, run ahead on copies of what a round that
/// sends nothing changes: the gossip stream, the idle streak and
/// push-pull's phase. Silent rounds are those whose digest
/// [`Strategy::on_round`] skips — push, summary push and push-pull's
/// push phase when the drawn pattern has no cached event, the pull
/// routes when `Lost` is empty or has no routable target, and
/// `no-recovery` always — and a look-ahead steps through them to the
/// first round that may send. The strategy, its dispatcher and the
/// neighborhood are only read.
#[derive(Debug)]
pub struct Lookahead<'a> {
    strategy: &'a Strategy,
    node: &'a Dispatcher,
    neighbors: &'a [NodeId],
    rng: Rng,
    pace: Pace,
}

impl Lookahead<'_> {
    /// Finds what the next round does and, if it sends nothing, has run
    /// it on the copies: [`Strategy::on_round`]'s own advance, then the
    /// lookups its digest would make.
    pub fn step(&mut self) -> Round {
        let node = self.node;
        let turn = self.pace.advance(node.table(), &mut self.rng);
        match &self.strategy.state {
            State::NoRecovery => Round::Never,
            State::Push(_) => self.cached(turn),
            State::Pull { lost, route } => {
                let routable = !lost.is_empty()
                    && match route {
                        PullRoute::Subscriber | PullRoute::Combined => true,
                        PullRoute::Random => !self.neighbors.is_empty(),
                        PullRoute::Publisher => lost
                            .sources()
                            .any(|s| node.routes().route_from(s).is_some()),
                    };
                if routable {
                    Round::Sends
                } else {
                    Round::Never
                }
            }
            State::PushPull { lost, .. } => match (turn, self.cached(turn)) {
                (Turn::Pull, _) if lost.is_empty() => Round::Silent,
                (Turn::Pull, _) => Round::Sends,
                // The pull phase still has work.
                (_, Round::Never) if !lost.is_empty() => Round::Silent,
                (_, round) => round,
            },
            State::Summary(summary) => match turn {
                Turn::Push(None) | Turn::Pull => Round::Never,
                // Pull rounds go out empty; queued refinements go out
                // whatever the pattern.
                _ if summary.mode == SummaryMode::Pull || summary.queued_ranges() > 0 => {
                    Round::Sends
                }
                _ => self.cached(turn),
            },
        }
    }

    /// [`Strategy::is_idle`] on the copies: what adaptive gossip reads
    /// after the round.
    pub fn is_idle(&self) -> bool {
        self.strategy.is_idle_with(self.pace)
    }

    /// What a proactive round that drew `turn` does: it sends iff the
    /// drawn pattern has a cached event.
    fn cached(&self, turn: Turn) -> Round {
        let (table, cache) = (self.node.table(), self.node.cache());
        match turn {
            Turn::Push(Some(k)) if !cache.is_empty() => {
                if table.nth_known(k).is_some_and(|p| cache.has_pattern(p)) {
                    Round::Sends
                } else {
                    Round::Silent
                }
            }
            _ => Round::Never,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algorithm, Envelope};
    use eps_pubsub::DispatcherConfig;
    use eps_sim::RngFactory;

    #[test]
    fn no_recovery_does_nothing() {
        let mut algo = Algorithm::no_recovery().build(GossipConfig::default());
        let node = Dispatcher::new(NodeId::new(0), DispatcherConfig::default());
        let (mut rng, mut out) = (RngFactory::new(1).stream("gossip"), Vec::new());
        algo.on_round(&node, &[], &mut rng, &mut out);
        assert!(out.is_empty());
        assert!(algo.is_idle());
        assert_eq!(algo.lost_evictions(), 0);
    }

    #[test]
    fn every_strategy_replies_to_requests_from_cache() {
        let mut node = Dispatcher::new(NodeId::new(0), DispatcherConfig::default());
        node.subscribe_local(PatternId::new(1), &[]);
        let (event, _) = node.publish(&[PatternId::new(1)], &mut Vec::new());
        let missing = EventId::new(NodeId::new(5), 99);
        for kind in Algorithm::all() {
            let mut algo = kind.build(GossipConfig::default());
            let mut out = Vec::new();
            algo.on_request(&node, NodeId::new(9), &[event.id(), missing], &mut out);
            assert_eq!(
                out,
                [Outgoing {
                    to: NodeId::new(9),
                    env: Envelope::Reply(vec![event.clone()]),
                }],
                "{kind}"
            );
            // A request for nothing we hold produces no reply at all.
            out.clear();
            algo.on_request(&node, NodeId::new(9), &[missing], &mut out);
            assert!(out.is_empty());
        }
    }

    #[test]
    fn pull_idle_signal_tracks_the_lost_buffer() {
        let mut algo = Algorithm::subscriber_pull().build(GossipConfig::default());
        assert!(algo.is_idle());
        let record = LossRecord {
            source: NodeId::new(0),
            pattern: PatternId::new(1),
            seq: 3,
        };
        algo.on_losses(&[record]);
        assert!(!algo.is_idle());
        assert_eq!(algo.outstanding_losses(), 1);
        let e = Event::new(
            EventId::new(NodeId::new(0), 7),
            vec![(PatternId::new(1), 3)],
        );
        algo.on_event_received(&e);
        assert!(algo.is_idle(), "recovered event clears the buffer");
    }

    /// For every strategy, on a dispatcher that knows 400 patterns and
    /// caches an event of one: the rounds a look-ahead steps through
    /// as silent send nothing and leave its copies — the gossip stream
    /// and the pace — where `on_round` leaves the strategy's own, a
    /// round it finds sending does send, and after `Never` no round
    /// sends. Checked against `on_round` on a copy, with no `Lost`
    /// entry, with one whose source has no known route, and with one
    /// whose source has.
    #[test]
    fn lookahead_agrees_with_the_rounds_it_runs_ahead() {
        let (gossiper, neighbor, source) = (NodeId::new(5), NodeId::new(3), NodeId::new(0));
        let cached = PatternId::new(7);
        let loss = |source: u32, seq| LossRecord {
            source: NodeId::new(source),
            pattern: cached,
            seq,
        };
        let mut silent = 0;
        for kind in Algorithm::all() {
            let config = DispatcherConfig {
                record_routes: true,
                cache_indexes: kind.cache_indexes(),
                ..DispatcherConfig::default()
            };
            let mut node = Dispatcher::new(gossiper, config);
            for i in 0..400 {
                node.on_subscribe(PatternId::new(i), neighbor, &[]);
            }
            node.subscribe_local(cached, &[]);
            let id = EventId::new(source, 0);
            let event = Event::from_wire(id, vec![(cached, 0)], vec![source, neighbor]);
            node.on_event(event, Some(neighbor), &mut Vec::new());
            let mut strategy = kind.build(GossipConfig::default());
            let neighbors = [neighbor];
            let mut rng = RngFactory::new(7).stream("gossip");
            for losses in [vec![], vec![loss(9, 3)], vec![loss(0, 5)]] {
                strategy.on_losses(&losses);
                let mut ahead = strategy.lookahead(&node, &neighbors, &rng);
                let (mut twin, mut twin_rng) = (strategy.clone(), rng.clone());
                let mut sent = Vec::new();
                for _ in 0..5_000 {
                    let step = ahead.step();
                    twin.on_round(&node, &neighbors, &mut twin_rng, &mut sent);
                    match step {
                        Round::Silent => {
                            assert!(sent.is_empty(), "{kind}");
                            assert_eq!((&ahead.rng, ahead.pace), (&twin_rng, twin.pace), "{kind}");
                            assert_eq!(ahead.is_idle(), twin.is_idle(), "{kind}");
                            silent += 1;
                        }
                        Round::Sends => {
                            assert!(!sent.is_empty(), "{kind}");
                            break;
                        }
                        Round::Never => {
                            assert!(sent.is_empty(), "{kind}");
                            for _ in 0..100 {
                                twin.on_round(&node, &neighbors, &mut twin_rng, &mut sent);
                                assert!(sent.is_empty(), "{kind}");
                            }
                            break;
                        }
                    }
                }
                strategy.on_round(&node, &neighbors, &mut rng, &mut Vec::new());
            }
        }
        assert!(silent > 1_000, "only {silent} silent rounds");
    }

    #[test]
    fn summary_idle_signal_requires_a_quiet_streak_and_no_queue() {
        let node = Dispatcher::new(NodeId::new(0), DispatcherConfig::default());
        let mut algo = Algorithm::summary_pull().build(GossipConfig::default());
        let mut rng = RngFactory::new(1).stream("gossip");
        assert!(!algo.is_idle());
        for _ in 0..3 {
            algo.on_round(&node, &[], &mut rng, &mut Vec::new());
        }
        assert!(algo.is_idle());
        // The request itself is activity; the refinement it queues
        // outlasts the streak, since an empty table draws no round.
        algo.on_range_request(PatternId::new(1), &[RangeRef::ROOT]);
        for _ in 0..4 {
            assert!(!algo.is_idle());
            algo.on_round(&node, &[], &mut rng, &mut Vec::new());
        }
        assert!(!algo.is_idle(), "queued work keeps the strategy busy");
    }
}

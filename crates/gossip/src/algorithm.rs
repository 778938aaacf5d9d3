//! The per-dispatcher recovery strategy the harness talks to.
//!
//! A [`Strategy`] holds its gossip configuration and one of five kinds
//! of state, one per kind the [`crate::Algorithm`] table builds. Every
//! hook is one `match` over them, calling the round and forwarding
//! bodies of the wire forms that state speaks.

use eps_overlay::NodeId;
use eps_pubsub::{Dispatcher, Event, EventId, LossRecord, PatternId, RangeRef};
use eps_sim::Rng;

use crate::config::GossipConfig;
use crate::envelope::Outgoing;
use crate::lost::LostBuffer;
use crate::message::GossipMessage;
use crate::policy::{
    draw_known_pattern, pattern_pull_digest, pull_digest, push_digest, reply, send,
    serve_from_cache, PullRoute, PushState,
};
use crate::summary::SummaryState;

/// One dispatcher's recovery strategy, built by
/// [`crate::Algorithm::build`]: reacts to gossip rounds, loss
/// detections, and incoming gossip traffic with the [`Outgoing`]
/// messages it wants sent.
///
/// A strategy never mutates the dispatcher: recovered events are
/// applied by the harness through [`Dispatcher::on_recovered_event`],
/// keeping strategies pure and independently testable.
#[derive(Debug)]
pub struct Strategy {
    pub(crate) config: GossipConfig,
    pub(crate) state: State,
}

/// What a strategy keeps between calls.
#[derive(Debug)]
pub(crate) enum State {
    /// `no-recovery`: no gossip at all. It still answers out-of-band
    /// requests from its cache, like every strategy.
    NoRecovery,
    /// `push`: positive digests of cached events.
    Push(PushState),
    /// The four negative-digest rows: detected losses accumulate in the
    /// `Lost` buffer, a round chases them along `route`, and
    /// dispatchers on the way serve what their caches hold.
    Pull { lost: LostBuffer, route: PullRoute },
    /// `push-pull`: push rounds and subscriber-pull rounds alternate,
    /// push first; received digests of either kind are handled
    /// whatever the phase.
    PushPull {
        push: PushState,
        lost: LostBuffer,
        round: u64,
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
    ) -> Vec<Outgoing> {
        let config = &self.config;
        let digest = match &mut self.state {
            State::NoRecovery => None,
            State::Push(push) => {
                push.begin_round();
                push_digest(node, rng)
            }
            State::Pull { lost, route } => pull_digest(*route, lost, node, neighbors, config, rng),
            State::PushPull { push, lost, round } => {
                let push_phase = round.is_multiple_of(2);
                *round += 1;
                if push_phase {
                    // The idle streak of the push half counts *its*
                    // rounds.
                    push.begin_round();
                    push_digest(node, rng)
                } else {
                    pattern_pull_digest(lost, node, config.digest_max, rng)
                }
            }
            State::Summary(summary) => {
                summary.push.begin_round();
                // Proactive, like push: any pattern this dispatcher
                // routes is worth a round.
                draw_known_pattern(node, rng)
                    .and_then(|pattern| summary.digest(node, pattern, config.digest_max))
            }
        };
        digest.map_or_else(Vec::new, |msg| {
            send(msg, node, None, neighbors, config.p_forward, rng)
        })
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
    ) -> Vec<Outgoing> {
        let mut out = Vec::new();
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
                    out.extend(push.request_unseen(node, gossiper, ids.iter().copied()));
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
                    lost,
                },
            ) => {
                let (found, lost) = serve_from_cache(node, &lost);
                out.extend(reply(gossiper, found));
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
                    lost,
                    route,
                },
            ) => {
                let (found, lost) = serve_from_cache(node, &lost);
                out.extend(reply(gossiper, found));
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
                    lost,
                    ttl,
                },
            ) => {
                let (found, lost) = serve_from_cache(node, &lost);
                out.extend(reply(gossiper, found));
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
                out.extend(summary.absorb(node, gossiper, pattern, &ranges, &details));
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
            out.extend(send(
                msg,
                node,
                Some(from),
                neighbors,
                self.config.p_forward,
                rng,
            ));
        }
        out
    }

    /// The dispatcher's loss detector found gaps (pull strategies
    /// record them in their `Lost` buffer).
    pub fn on_losses(&mut self, losses: &[LossRecord]) {
        if let State::Pull { lost, .. } | State::PushPull { lost, .. } = &mut self.state {
            for &record in losses {
                lost.add(record);
            }
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
    /// adaptive gossip.
    pub fn on_request(
        &mut self,
        node: &Dispatcher,
        from: NodeId,
        ids: &[EventId],
    ) -> Vec<Outgoing> {
        if let State::Push(push)
        | State::PushPull { push, .. }
        | State::Summary(SummaryState { push, .. }) = &mut self.state
        {
            push.note_activity();
        }
        let events = ids
            .iter()
            .filter_map(|&id| node.cache().get(id).cloned())
            .collect();
        reply(from, events).into_iter().collect()
    }

    /// An out-of-band [`crate::Envelope::RangeRequest`] arrived: a
    /// peer asks this dispatcher to refine hash-tree ranges of
    /// `pattern`'s cache summary in its next gossip round. Only the
    /// summary-reconciliation strategies react.
    pub fn on_range_request(&mut self, pattern: PatternId, ranges: &[RangeRef]) {
        if let State::Summary(summary) = &mut self.state {
            summary.on_range_request(pattern, ranges);
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
        match &self.state {
            State::NoRecovery => true,
            State::Push(push) => push.is_idle(),
            State::Pull { lost, .. } => lost.is_empty(),
            State::PushPull { push, lost, .. } => push.is_idle() && lost.is_empty(),
            State::Summary(summary) => summary.push.is_idle() && summary.queued_ranges() == 0,
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
        let mut rng = RngFactory::new(1).stream("gossip");
        assert!(algo.on_round(&node, &[], &mut rng).is_empty());
        assert!(algo.is_idle());
        assert_eq!(algo.lost_evictions(), 0);
    }

    #[test]
    fn every_strategy_replies_to_requests_from_cache() {
        let mut node = Dispatcher::new(NodeId::new(0), DispatcherConfig::default());
        node.subscribe_local(PatternId::new(1), &[]);
        let (event, _) = node.publish(&[PatternId::new(1)]);
        let missing = EventId::new(NodeId::new(5), 99);
        for kind in Algorithm::all() {
            let mut algo = kind.build(GossipConfig::default());
            let out = algo.on_request(&node, NodeId::new(9), &[event.id(), missing]);
            assert_eq!(
                out,
                [Outgoing {
                    to: NodeId::new(9),
                    env: Envelope::Reply(vec![event.clone()]),
                }],
                "{kind}"
            );
            // A request for nothing we hold produces no reply at all.
            assert!(algo
                .on_request(&node, NodeId::new(9), &[missing])
                .is_empty());
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

    #[test]
    fn summary_idle_signal_requires_a_quiet_streak_and_no_queue() {
        let node = Dispatcher::new(NodeId::new(0), DispatcherConfig::default());
        let mut algo = Algorithm::summary_pull().build(GossipConfig::default());
        let mut rng = RngFactory::new(1).stream("gossip");
        assert!(!algo.is_idle());
        for _ in 0..3 {
            algo.on_round(&node, &[], &mut rng);
        }
        assert!(algo.is_idle());
        // The request itself is activity; the refinement it queues
        // outlasts the streak, since an empty table draws no round.
        algo.on_range_request(PatternId::new(1), &[RangeRef::ROOT]);
        for _ in 0..4 {
            assert!(!algo.is_idle());
            algo.on_round(&node, &[], &mut rng);
        }
        assert!(!algo.is_idle(), "queued work keeps the strategy busy");
    }
}

//! The per-dispatcher recovery strategy the harness talks to.
//!
//! A [`Strategy`] has one arm per row of the [`crate::Algorithm`]
//! table: the no-recovery baseline, or a [`GossipEngine`] composing a
//! digest policy with a steering policy. Nodes store it inline and
//! every hook is one `match`.

use eps_overlay::NodeId;
use eps_pubsub::{Dispatcher, Event, EventId, LossRecord, PatternId, RangeRef};
use eps_sim::Rng;

use crate::engine::{reply_from_cache, GossipEngine};
use crate::message::{GossipAction, GossipMessage};
use crate::policy::{
    AlternatingDigest, MuxSteering, NegativeDigest, PatternSteering, PositiveDigest,
    RandomSteering, SourceSteering,
};
use crate::summary::SummaryDigestPolicy;

/// One dispatcher's recovery strategy, built by
/// [`crate::Algorithm::build`]: reacts to gossip rounds, loss
/// detections, and incoming gossip traffic by emitting
/// [`GossipAction`]s for the simulation harness to carry out.
///
/// A strategy never mutates the dispatcher: recovered events are
/// applied by the harness through [`Dispatcher::on_recovered_event`],
/// keeping strategies pure and independently testable.
#[derive(Debug)]
pub enum Strategy {
    /// `no-recovery`: no gossip at all. It still answers out-of-band
    /// requests from its cache, like every strategy.
    NoRecovery,
    /// `random-pull`: negative digest, random walk under a TTL.
    RandomPull(GossipEngine<NegativeDigest, RandomSteering>),
    /// `push`: positive digest, pattern steering.
    Push(GossipEngine<PositiveDigest, PatternSteering>),
    /// `subscriber-pull`: negative digest, pattern steering.
    SubscriberPull(GossipEngine<NegativeDigest, PatternSteering>),
    /// `combined-pull`: negative digest, `P_source` mux of source and
    /// pattern steering.
    CombinedPull(GossipEngine<NegativeDigest, MuxSteering<SourceSteering, PatternSteering>>),
    /// `publisher-pull`: negative digest, source steering.
    PublisherPull(GossipEngine<NegativeDigest, SourceSteering>),
    /// `push-pull`: alternating positive/negative digest, pattern
    /// steering.
    PushPull(GossipEngine<AlternatingDigest, PatternSteering>),
    /// `summary-push`: summary digest in push mode, pattern steering.
    SummaryPush(GossipEngine<SummaryDigestPolicy, PatternSteering>),
    /// `summary-pull`: summary digest in pull mode, pattern steering.
    SummaryPull(GossipEngine<SummaryDigestPolicy, PatternSteering>),
}

/// `match`es a [`Strategy`]: `$engine` binds the arm's engine in
/// `$on_engine`; the no-recovery arm evaluates `$baseline`.
macro_rules! dispatch {
    ($strategy:expr, $engine:ident => $on_engine:expr, baseline => $baseline:expr) => {
        match $strategy {
            Strategy::NoRecovery => $baseline,
            Strategy::RandomPull($engine) => $on_engine,
            Strategy::Push($engine) => $on_engine,
            Strategy::SubscriberPull($engine) => $on_engine,
            Strategy::CombinedPull($engine) => $on_engine,
            Strategy::PublisherPull($engine) => $on_engine,
            Strategy::PushPull($engine) => $on_engine,
            Strategy::SummaryPush($engine) => $on_engine,
            Strategy::SummaryPull($engine) => $on_engine,
        }
    };
}

impl Strategy {
    /// Called every gossip interval `T`: start a new gossip round.
    pub fn on_round(
        &mut self,
        node: &Dispatcher,
        neighbors: &[NodeId],
        rng: &mut Rng,
    ) -> Vec<GossipAction> {
        dispatch!(self, e => e.on_round(node, neighbors, rng), baseline => Vec::new())
    }

    /// A gossip message arrived from tree neighbor `from`.
    pub fn on_gossip(
        &mut self,
        node: &Dispatcher,
        from: NodeId,
        msg: GossipMessage,
        neighbors: &[NodeId],
        rng: &mut Rng,
    ) -> Vec<GossipAction> {
        dispatch!(self, e => e.on_gossip(node, from, msg, neighbors, rng), baseline => Vec::new())
    }

    /// The dispatcher's loss detector found gaps (pull strategies
    /// record them in their `Lost` buffer).
    pub fn on_losses(&mut self, losses: &[LossRecord]) {
        dispatch!(self, e => e.on_losses(losses), baseline => ())
    }

    /// An event was received (on the tree or via recovery); pull
    /// strategies clear the covered `Lost` entries.
    pub fn on_event_received(&mut self, event: &Event) {
        dispatch!(self, e => e.on_event_received(event), baseline => ())
    }

    /// An out-of-band request for specific cached events arrived (the
    /// reaction to a push digest): answered from the cache. Push also
    /// uses it as its activity signal for adaptive gossip.
    pub fn on_request(
        &mut self,
        node: &Dispatcher,
        from: NodeId,
        ids: &[EventId],
    ) -> Vec<GossipAction> {
        dispatch!(
            self,
            e => e.on_request(node, from, ids),
            baseline => reply_from_cache(node, from, ids)
        )
    }

    /// An out-of-band [`crate::Envelope::RangeRequest`] arrived: a
    /// peer asks this dispatcher to refine hash-tree ranges of
    /// `pattern`'s cache summary in its next gossip round. Only the
    /// summary-reconciliation strategies react.
    pub fn on_range_request(&mut self, from: NodeId, pattern: PatternId, ranges: &[RangeRef]) {
        dispatch!(self, e => e.on_range_request(from, pattern, ranges), baseline => ())
    }

    /// Number of outstanding `Lost` entries (0 for strategies without
    /// a `Lost` buffer). Exposed for metrics and tests.
    pub fn outstanding_losses(&self) -> usize {
        dispatch!(self, e => e.outstanding_losses(), baseline => 0)
    }

    /// `Lost` entries this strategy has evicted under its capacity
    /// bound (0 for strategies without a `Lost` buffer). Exposed so
    /// overflow under churn is visible in the metrics rather than
    /// silent.
    pub fn lost_evictions(&self) -> u64 {
        dispatch!(self, e => e.lost_evictions(), baseline => 0)
    }

    /// `true` when the strategy currently sees no evidence of recovery
    /// work — the signal adaptive gossip scheduling (paper Sec. IV-E,
    /// ref \[14\]) uses to back the interval off. Pull strategies are
    /// idle when their `Lost` buffer is empty; push when nobody
    /// requested anything since its last rounds.
    pub fn is_idle(&self) -> bool {
        dispatch!(self, e => e.is_idle(), baseline => true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algorithm, GossipConfig};
    use eps_pubsub::DispatcherConfig;
    use eps_sim::RngFactory;

    #[test]
    fn no_recovery_does_nothing() {
        let mut algo = Algorithm::no_recovery().build(GossipConfig::default());
        let node = Dispatcher::new(NodeId::new(0), DispatcherConfig::default());
        let mut rng = RngFactory::new(1).stream("gossip");
        assert!(algo.on_round(&node, &[], &mut rng).is_empty());
        assert!(algo
            .on_gossip(
                &node,
                NodeId::new(1),
                GossipMessage::RandomPull {
                    gossiper: NodeId::new(1),
                    lost: vec![],
                    ttl: 1
                },
                &[],
                &mut rng
            )
            .is_empty());
        assert!(algo.is_idle());
        assert_eq!(algo.lost_evictions(), 0);
    }

    #[test]
    fn no_recovery_replies_to_requests_from_cache() {
        let mut node = Dispatcher::new(NodeId::new(0), DispatcherConfig::default());
        node.subscribe_local(PatternId::new(1), &[]);
        let (event, _) = node.publish(&[PatternId::new(1)]);
        let mut algo = Algorithm::no_recovery().build(GossipConfig::default());
        let actions = algo.on_request(&node, NodeId::new(9), &[event.id()]);
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            GossipAction::Reply { to, events } => {
                assert_eq!(*to, NodeId::new(9));
                assert_eq!(events[0].id(), event.id());
            }
            other => panic!("unexpected {other:?}"),
        }
        // Unknown ids produce no reply.
        let none = algo.on_request(&node, NodeId::new(9), &[EventId::new(NodeId::new(5), 99)]);
        assert!(none.is_empty());
    }
}

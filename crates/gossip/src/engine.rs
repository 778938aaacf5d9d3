//! The generic gossip engine: one [`DigestPolicy`] × one
//! [`SteeringPolicy`] = one recovery strategy.
//!
//! The engine owns everything the policies share — round sequencing,
//! dispatch of incoming gossip, the out-of-band request/reply path,
//! and the idle signal for adaptive gossip — so that a new strategy is
//! a composition, not a new module. Every strategy but the
//! no-recovery baseline is an engine (see [`crate::Algorithm`] for the
//! table that names them).

use eps_overlay::NodeId;
use eps_pubsub::{Dispatcher, Event, EventId, LossRecord, PatternId, RangeRef};
use eps_sim::Rng;

use crate::config::GossipConfig;
use crate::message::{GossipAction, GossipMessage};
use crate::policy::{DigestPolicy, SteeringPolicy};

/// A recovery strategy assembled from a digest policy and a steering
/// policy. The type parameters keep the composition monomorphized (no
/// dynamic dispatch inside the per-round hot path); a
/// [`crate::Strategy`] holds one engine per arm, inline.
#[derive(Debug)]
pub struct GossipEngine<D, S> {
    config: GossipConfig,
    digest: D,
    steering: S,
}

impl<D: DigestPolicy, S: SteeringPolicy> GossipEngine<D, S> {
    /// Composes a strategy.
    pub fn new(config: GossipConfig, digest: D, steering: S) -> Self {
        GossipEngine {
            config,
            digest,
            steering,
        }
    }

    /// Called every gossip interval `T`: start a new gossip round.
    pub fn on_round(
        &mut self,
        node: &Dispatcher,
        neighbors: &[NodeId],
        rng: &mut Rng,
    ) -> Vec<GossipAction> {
        self.digest.begin_round();
        self.steering
            .round(&mut self.digest, node, neighbors, &self.config, rng)
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
        self.steering
            .on_gossip(
                &mut self.digest,
                node,
                from,
                msg,
                neighbors,
                &self.config,
                rng,
            )
            // A wire form no steering stage recognizes (mixed
            // deployments) is dropped.
            .unwrap_or_default()
    }

    /// The dispatcher's loss detector found gaps.
    pub fn on_losses(&mut self, losses: &[LossRecord]) {
        self.digest.on_losses(losses);
    }

    /// An event arrived (on the tree or via recovery).
    pub fn on_event_received(&mut self, event: &Event) {
        self.digest.on_event_received(event);
    }

    /// An out-of-band request for cached events arrived: answered from
    /// the cache.
    pub fn on_request(
        &mut self,
        node: &Dispatcher,
        from: NodeId,
        ids: &[EventId],
    ) -> Vec<GossipAction> {
        // The request is the push half's evidence that its digests are
        // finding gaps (no-op for purely reactive digests).
        self.digest.note_request();
        reply_from_cache(node, from, ids)
    }

    /// A peer asks this gossiper to refine `ranges` of `pattern`'s
    /// summary in its next round.
    pub fn on_range_request(&mut self, from: NodeId, pattern: PatternId, ranges: &[RangeRef]) {
        self.digest.on_range_request(from, pattern, ranges);
    }

    /// Outstanding `Lost` entries (0 without a `Lost` buffer).
    pub fn outstanding_losses(&self) -> usize {
        self.digest.outstanding_losses()
    }

    /// `Lost` entries evicted by the FIFO capacity bound.
    pub fn lost_evictions(&self) -> u64 {
        self.digest.lost_evictions()
    }

    /// `true` when the digest sees no evidence of recovery work.
    pub fn is_idle(&self) -> bool {
        self.digest.is_idle()
    }
}

/// The reply to an out-of-band request: every requested event still
/// cached, or no action at all when none is.
pub(crate) fn reply_from_cache(
    node: &Dispatcher,
    from: NodeId,
    ids: &[EventId],
) -> Vec<GossipAction> {
    let events: Vec<Event> = ids
        .iter()
        .filter_map(|&id| node.cache().get(id).cloned())
        .collect();
    if events.is_empty() {
        Vec::new()
    } else {
        vec![GossipAction::Reply { to: from, events }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{MuxSteering, NegativeDigest, PatternSteering, SourceSteering};
    use crate::Algorithm;
    use eps_pubsub::{DispatcherConfig, PatternId};
    use eps_sim::RngFactory;

    fn record(source: u32, pattern: u16, seq: u64) -> LossRecord {
        LossRecord {
            source: NodeId::new(source),
            pattern: PatternId::new(pattern),
            seq,
        }
    }

    /// A dispatcher that knows a subscriber neighbor for pattern 1 and
    /// a recorded route back to source 0 — both pull steerings have
    /// something to do.
    fn pull_node() -> Dispatcher {
        let mut node = Dispatcher::new(
            NodeId::new(5),
            DispatcherConfig {
                cache_own_published: true,
                record_routes: true,
                ..DispatcherConfig::default()
            },
        );
        node.subscribe_local(PatternId::new(1), &[]);
        node.on_subscribe(PatternId::new(1), NodeId::new(3), &[]);
        let mut e = Event::new(
            EventId::new(NodeId::new(0), 0),
            vec![(PatternId::new(1), 0)],
        );
        e.record_hop(NodeId::new(3));
        node.on_event(e, Some(NodeId::new(3)));
        node
    }

    /// The table's `combined-pull` is *literally* the `P_source`-mux
    /// of source steering over pattern steering on a negative digest —
    /// identical action sequences under a shared seed, round for round.
    #[test]
    fn combined_pull_equals_mux_of_the_two_pull_steerings() {
        let config = GossipConfig {
            p_source: 0.5,
            max_attempts: u32::MAX,
            ..GossipConfig::default()
        };
        let mut table_built = Algorithm::combined_pull().build(config);
        let mut composed = GossipEngine::new(
            config,
            NegativeDigest::new(&config),
            MuxSteering::new(SourceSteering, PatternSteering),
        );

        let node = pull_node();
        let neighbors = [NodeId::new(3), NodeId::new(7)];
        let factory = RngFactory::new(42);
        let mut rng_a = factory.stream("gossip-a");
        let mut rng_b = factory.stream("gossip-a");
        for seq in 0..100u64 {
            let losses = [record(0, 1, seq + 1)];
            table_built.on_losses(&losses);
            composed.on_losses(&losses);
            let a = table_built.on_round(&node, &neighbors, &mut rng_a);
            let b = composed.on_round(&node, &neighbors, &mut rng_b);
            assert_eq!(a, b, "round {seq} diverged");
            // Incoming digests are handled identically too.
            let msg = GossipMessage::PullDigest {
                gossiper: NodeId::new(9),
                pattern: PatternId::new(1),
                lost: vec![record(0, 1, seq + 1)],
            };
            let a =
                table_built.on_gossip(&node, NodeId::new(3), msg.clone(), &neighbors, &mut rng_a);
            let b = composed.on_gossip(&node, NodeId::new(3), msg, &neighbors, &mut rng_b);
            assert_eq!(a, b, "gossip handling diverged at round {seq}");
        }
    }

    #[test]
    fn engine_serves_requests_from_cache() {
        let node = pull_node();
        let cached = node
            .cache()
            .get_by_pattern_seq(NodeId::new(0), PatternId::new(1), 0)
            .expect("event cached")
            .id();
        let mut engine = GossipEngine::new(
            GossipConfig::default(),
            NegativeDigest::new(&GossipConfig::default()),
            PatternSteering,
        );
        let missing = EventId::new(NodeId::new(9), 99);
        let actions = engine.on_request(&node, NodeId::new(2), &[cached, missing]);
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            GossipAction::Reply { to, events } => {
                assert_eq!(*to, NodeId::new(2));
                assert_eq!(events.len(), 1);
                assert_eq!(events[0].id(), cached);
            }
            other => panic!("unexpected {other:?}"),
        }
        // A request for nothing we hold produces no reply at all.
        assert!(engine
            .on_request(&node, NodeId::new(2), &[missing])
            .is_empty());
    }

    #[test]
    fn engine_idle_signal_tracks_digest_policy() {
        let config = GossipConfig::default();
        let mut engine = GossipEngine::new(config, NegativeDigest::new(&config), PatternSteering);
        assert!(engine.is_idle());
        engine.on_losses(&[record(0, 1, 3)]);
        assert!(!engine.is_idle());
        assert_eq!(engine.outstanding_losses(), 1);
        let e = Event::new(
            EventId::new(NodeId::new(0), 7),
            vec![(PatternId::new(1), 3)],
        );
        engine.on_event_received(&e);
        assert!(engine.is_idle(), "recovered event clears the buffer");
    }

    #[test]
    fn unknown_wire_forms_are_dropped() {
        let node = pull_node();
        let config = GossipConfig::default();
        let mut engine = GossipEngine::new(config, NegativeDigest::new(&config), SourceSteering);
        let mut rng = RngFactory::new(1).stream("gossip");
        // Source steering does not speak RandomPull.
        let msg = GossipMessage::RandomPull {
            gossiper: NodeId::new(9),
            lost: vec![record(0, 1, 5)],
            ttl: 4,
        };
        let actions = engine.on_gossip(&node, NodeId::new(3), msg, &[], &mut rng);
        assert!(actions.is_empty());
    }
}

//! The unified wire envelope: every message class the system puts on
//! a network — pub-sub protocol traffic, gossip digests, and
//! out-of-band recovery requests/replies — under one type with one
//! byte-accounting rule.
//!
//! This is the single source of truth for wire sizes. The paper's
//! accounting assumptions, in one place:
//!
//! - subscription control messages are small and fixed-size (256 bits);
//! - an event message costs its payload plus 32 bits per recorded
//!   route hop;
//! - a gossip digest costs (at most) one event payload, plus the
//!   explicit route carried by publisher-steered digests;
//! - an out-of-band request costs a fixed header plus 96 bits per
//!   requested event id; a reply carries full event copies, with the
//!   same fixed floor.

use eps_overlay::NodeId;
use eps_pubsub::{Event, EventId, PatternId, PubSubMessage, RangeRef, ROUTE_HOP_BITS};

use crate::codec::{
    CONTROL_BITS, EVENT_ID_BITS, RANGE_REF_BITS, SUMMARY_DETAIL_BITS, SUMMARY_RANGE_BITS,
};
use crate::message::GossipMessage;

/// Which network a message travels on: the routing-view overlay links
/// (subject to per-link loss, queueing, and breakage), a physical
/// cross link the routing view does not use, or the out-of-band
/// channel recovery uses to bypass a faulty tree.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Channel {
    /// An overlay link of the routing view (the dispatching tree).
    Tree,
    /// A physical overlay link outside the routing view — the chords a
    /// cyclic overlay has on top of its spanning tree. Simulated with
    /// the same link model as `Tree`; carried over UDP (not a tree TCP
    /// connection) by the socket runtime.
    Cross,
    /// The direct dispatcher-to-dispatcher recovery channel.
    OutOfBand,
}

/// One message on a wire, of any protocol layer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Envelope {
    /// Best-effort pub-sub traffic: subscriptions and events.
    PubSub(PubSubMessage),
    /// An epidemic-recovery digest.
    Gossip(GossipMessage),
    /// An event copy replicated over a physical cross link — the
    /// redundant dissemination a cyclic overlay performs alongside the
    /// routing tree, and the reason redundant-delivery suppression is
    /// counted once cycles exist.
    CrossEvent(Event),
    /// An out-of-band retransmission request for the identified events.
    Request(Vec<EventId>),
    /// An out-of-band retransmission carrying full event copies.
    Reply(Vec<Event>),
    /// An out-of-band summary-refinement request: asks a gossiper to
    /// expand the given hash-tree ranges of `pattern` in its next
    /// round (summary reconciliation's recursion step).
    RangeRequest {
        /// The pattern whose summary disagreed.
        pattern: PatternId,
        /// The ranges to expand.
        ranges: Vec<RangeRef>,
    },
}

/// One message a node wants put on a wire. The channel it travels on
/// follows from the envelope ([`Envelope::channel`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Outgoing {
    /// The destination dispatcher.
    pub to: NodeId,
    /// The message.
    pub env: Envelope,
}

impl Envelope {
    /// The channel this message class travels on.
    pub fn channel(&self) -> Channel {
        match self {
            Envelope::PubSub(_) | Envelope::Gossip(_) => Channel::Tree,
            Envelope::CrossEvent(_) => Channel::Cross,
            Envelope::Request(_) | Envelope::Reply(_) | Envelope::RangeRequest { .. } => {
                Channel::OutOfBand
            }
        }
    }

    /// Wire size in bits, given the configured event payload size —
    /// the one accounting rule for every message class. This is not an
    /// estimate: [`crate::codec::encode`] produces exactly this many
    /// bits for every envelope (the constants here are the codec's own
    /// [`CONTROL_BITS`], [`EVENT_ID_BITS`], and
    /// [`eps_pubsub::ROUTE_HOP_BITS`]).
    pub fn wire_bits(&self, event_payload_bits: u64) -> u64 {
        match self {
            Envelope::PubSub(PubSubMessage::Subscribe(_))
            | Envelope::PubSub(PubSubMessage::Unsubscribe(_)) => CONTROL_BITS,
            Envelope::PubSub(PubSubMessage::Event(e)) | Envelope::CrossEvent(e) => {
                e.wire_bits(event_payload_bits)
            }
            // Per the paper, a gossip digest costs (at most) one event
            // message; publisher-steered digests also carry their route.
            Envelope::Gossip(GossipMessage::SourcePull { route, .. }) => {
                event_payload_bits + ROUTE_HOP_BITS * route.len() as u64
            }
            // Summary digests are the exception to the flat-payload
            // rule: their whole point is a wire cost proportional to
            // what is actually carried — a fixed header plus each
            // range aggregate and each expanded id — so they are
            // accounted exactly, not at the event-payload flat rate.
            Envelope::Gossip(GossipMessage::SummaryDigest {
                ranges, details, ..
            }) => {
                CONTROL_BITS
                    + SUMMARY_RANGE_BITS * ranges.len() as u64
                    + details
                        .iter()
                        .map(|d| SUMMARY_DETAIL_BITS + EVENT_ID_BITS * d.ids.len() as u64)
                        .sum::<u64>()
            }
            Envelope::Gossip(_) => event_payload_bits,
            Envelope::Request(ids) => CONTROL_BITS + EVENT_ID_BITS * ids.len() as u64,
            Envelope::RangeRequest { ranges, .. } => {
                CONTROL_BITS + RANGE_REF_BITS * ranges.len() as u64
            }
            Envelope::Reply(events) => events
                .iter()
                .map(|e| e.wire_bits(event_payload_bits))
                .sum::<u64>()
                .max(CONTROL_BITS),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use eps_overlay::NodeId;
    use eps_pubsub::PatternId;

    use super::*;

    fn event_with_route(hops: u32) -> Event {
        let mut e = Event::new(
            EventId::new(NodeId::new(0), 0),
            vec![(PatternId::new(1), 0)],
        );
        for h in 0..hops {
            e.record_hop(NodeId::new(h + 1));
        }
        e
    }

    #[test]
    fn subscription_messages_are_fixed_size() {
        let p = PatternId::new(1);
        assert_eq!(
            Envelope::PubSub(PubSubMessage::Subscribe(p)).wire_bits(1000),
            256
        );
        assert_eq!(
            Envelope::PubSub(PubSubMessage::Unsubscribe(p)).wire_bits(1000),
            256
        );
    }

    #[test]
    fn event_messages_cost_payload_plus_route() {
        // A fresh event's route already holds its source: one hop.
        let plain = Envelope::PubSub(PubSubMessage::Event(event_with_route(0)));
        let routed = Envelope::PubSub(PubSubMessage::Event(event_with_route(3)));
        assert_eq!(plain.wire_bits(1000), 1032);
        assert_eq!(routed.wire_bits(1000), 1128);
        assert!(
            plain.wire_bits(1000)
                > Envelope::PubSub(PubSubMessage::Subscribe(PatternId::new(1))).wire_bits(1000)
        );
    }

    #[test]
    fn gossip_digests_cost_one_event_payload() {
        let push = Envelope::Gossip(GossipMessage::PushDigest {
            gossiper: NodeId::new(0),
            pattern: PatternId::new(0),
            ids: Arc::new(vec![]),
        });
        assert_eq!(push.wire_bits(1000), 1000);
        let steered = Envelope::Gossip(GossipMessage::SourcePull {
            gossiper: NodeId::new(0),
            source: NodeId::new(1),
            lost: vec![],
            route: vec![NodeId::new(2); 3],
        });
        assert_eq!(steered.wire_bits(1000), 1096);
    }

    #[test]
    fn oob_requests_cost_header_plus_ids() {
        assert_eq!(Envelope::Request(vec![]).wire_bits(1000), 256);
        let ids = vec![EventId::new(NodeId::new(0), 7); 4];
        assert_eq!(Envelope::Request(ids).wire_bits(1000), 256 + 96 * 4);
    }

    #[test]
    fn oob_replies_cost_their_events_with_a_floor() {
        assert_eq!(Envelope::Reply(vec![]).wire_bits(1000), 256);
        let reply = Envelope::Reply(vec![event_with_route(0), event_with_route(2)]);
        assert_eq!(reply.wire_bits(1000), 1032 + 1096);
    }

    #[test]
    fn channels_split_tree_from_out_of_band() {
        let tree = Envelope::PubSub(PubSubMessage::Subscribe(PatternId::new(0)));
        let gossip = Envelope::Gossip(GossipMessage::RandomPull {
            gossiper: NodeId::new(0),
            lost: vec![],
            ttl: 1,
        });
        assert_eq!(tree.channel(), Channel::Tree);
        assert_eq!(gossip.channel(), Channel::Tree);
        assert_eq!(Envelope::Request(vec![]).channel(), Channel::OutOfBand);
        assert_eq!(Envelope::Reply(vec![]).channel(), Channel::OutOfBand);
        assert_eq!(
            Envelope::CrossEvent(event_with_route(0)).channel(),
            Channel::Cross
        );
    }

    #[test]
    fn summary_digests_cost_exactly_what_they_carry() {
        use eps_pubsub::{RangeDetail, RangeSummary};

        let root = RangeRef::ROOT;
        let empty = Envelope::Gossip(GossipMessage::SummaryDigest {
            gossiper: NodeId::new(0),
            pattern: PatternId::new(0),
            ranges: Arc::new(vec![]),
            details: Arc::new(vec![]),
        });
        assert_eq!(empty.wire_bits(1000), 256);
        let digest = Envelope::Gossip(GossipMessage::SummaryDigest {
            gossiper: NodeId::new(0),
            pattern: PatternId::new(0),
            ranges: Arc::new(vec![
                RangeSummary::empty(root),
                RangeSummary::empty(root.child(3)),
            ]),
            details: Arc::new(vec![
                RangeDetail {
                    range: root.child(1),
                    ids: vec![EventId::new(NodeId::new(0), 7); 5],
                },
                RangeDetail {
                    range: root.child(2),
                    ids: vec![],
                },
            ]),
        });
        // Header + 2 aggregates + 2 detail headers + 5 ids — and, per
        // the family's design goal, independent of the payload size.
        assert_eq!(digest.wire_bits(1000), 256 + 2 * 168 + 2 * 72 + 5 * 96);
        assert_eq!(digest.wire_bits(8000), digest.wire_bits(1000));
    }

    #[test]
    fn range_requests_cost_header_plus_ranges() {
        let empty = Envelope::RangeRequest {
            pattern: PatternId::new(3),
            ranges: vec![],
        };
        assert_eq!(empty.wire_bits(1000), 256);
        assert_eq!(empty.channel(), Channel::OutOfBand);
        let req = Envelope::RangeRequest {
            pattern: PatternId::new(3),
            ranges: vec![RangeRef::ROOT.child(0), RangeRef::ROOT.child(9)],
        };
        assert_eq!(req.wire_bits(1000), 256 + 2 * 40);
    }

    #[test]
    fn cross_events_cost_exactly_what_the_tree_copy_costs() {
        let event = event_with_route(3);
        assert_eq!(
            Envelope::CrossEvent(event.clone()).wire_bits(1000),
            Envelope::PubSub(PubSubMessage::Event(event)).wire_bits(1000)
        );
    }
}

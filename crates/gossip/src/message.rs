//! Gossip wire messages.

use std::sync::Arc;

use eps_overlay::NodeId;
use eps_pubsub::{EventId, LossRecord, PatternId, RangeDetail, RangeSummary};

/// A gossip message travelling the dispatching tree.
///
/// The paper assumes gossip messages have (at most) the same size as
/// event messages; [`crate::Envelope::wire_bits`] reflects that.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum GossipMessage {
    /// Push: a positive digest of cached events matching `pattern`,
    /// routed like an event matching `pattern` and forwarded to a
    /// random subset of matching neighbors.
    PushDigest {
        /// The dispatcher that started the round; requests go straight
        /// back to it out-of-band.
        gossiper: NodeId,
        /// The pattern the digest (and its routing) is labelled with.
        pattern: PatternId,
        /// Identifiers of *all* the gossiper's cached events matching
        /// `pattern` (shared, since the digest is forwarded unchanged
        /// along the tree).
        ids: Arc<Vec<EventId>>,
    },
    /// Subscriber-based pull: a negative digest labelled with a
    /// locally subscribed pattern, routed like a push digest.
    PullDigest {
        /// The dispatcher missing the events.
        gossiper: NodeId,
        /// The locally subscribed pattern the round is about.
        pattern: PatternId,
        /// The missing events, identified by (source, pattern, seq).
        lost: Vec<LossRecord>,
    },
    /// Publisher-based pull: a negative digest steered back towards
    /// the publisher along a recorded route.
    SourcePull {
        /// The dispatcher missing the events.
        gossiper: NodeId,
        /// The publisher the digest is steered towards.
        source: NodeId,
        /// The missing events from that publisher.
        lost: Vec<LossRecord>,
        /// Remaining hops to traverse (next hop first).
        route: Vec<NodeId>,
    },
    /// Random pull: a negative digest forwarded to random neighbors
    /// with a hop budget, the paper's "is routing worth it?" baseline.
    RandomPull {
        /// The dispatcher missing the events.
        gossiper: NodeId,
        /// The missing events.
        lost: Vec<LossRecord>,
        /// Remaining hop budget.
        ttl: u32,
    },
    /// Summary reconciliation: hash-range tree aggregates of the
    /// gossiper's cache for `pattern`, instead of a linear id list.
    /// Routed and forwarded exactly like a push digest; receivers
    /// compare each range against their own tree and ask the gossiper
    /// (out-of-band, via [`crate::Envelope::RangeRequest`]) to refine
    /// the ones that differ — the refinement arrives in the gossiper's
    /// *next* round, so a mismatch narrows across successive rounds
    /// rather than assuming a synchronous RPC.
    SummaryDigest {
        /// The dispatcher that started the round.
        gossiper: NodeId,
        /// The pattern the digest (and its routing) is labelled with.
        pattern: PatternId,
        /// Compact range aggregates (always at least the root; plus
        /// the children of any ranges peers asked to refine). Shared,
        /// since the digest is forwarded unchanged along the tree.
        ranges: Arc<Vec<RangeSummary>>,
        /// Fully expanded ranges: complete id lists for ranges small
        /// enough that listing beats recursion — including empty
        /// lists, which tell pull-mode receivers the gossiper holds
        /// nothing there.
        details: Arc<Vec<RangeDetail>>,
    },
}

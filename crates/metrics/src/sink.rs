//! The delivery-sink abstraction: where a node's delivery bookkeeping
//! goes while a run executes.
//!
//! The scenario runner lends its run's [`DeliveryTracker`] to every
//! node call, so deliveries are counted where they happen. One thread
//! pops one queue, so the calls arrive in one deterministic order; the
//! tracker's only float sum that could depend on that order, the
//! recovery-latency mean, is an exact integer sum.

use eps_overlay::NodeId;
use eps_pubsub::{ClientId, EventId};
use eps_sim::SimTime;

use crate::delivery::DeliveryTracker;

/// Consumer of per-event delivery bookkeeping. The [`DeliveryTracker`]
/// is the one that computes the paper's metrics; the socket runtime
/// lends a sink that forwards each call to its process-wide tracker.
///
/// Deliveries are accounted at *client-subscription* granularity: one
/// call per `(node, client)` an event reaches. With one client per
/// dispatcher the client is always `c0` and the accounting coincides
/// with the paper's per-dispatcher model.
pub trait DeliverySink {
    /// A publication with its intended recipient count (matching
    /// `(node, client)` pairs at publish time).
    fn published(&mut self, id: EventId, at: SimTime, expected_recipients: u32);
    /// A delivery to one local client through normal event forwarding.
    fn delivered(&mut self, id: EventId, node: NodeId, client: ClientId, now: SimTime);
    /// A delivery to one local client through recovery.
    fn recovered(&mut self, id: EventId, node: NodeId, client: ClientId, now: SimTime);
}

impl DeliverySink for DeliveryTracker {
    fn published(&mut self, id: EventId, at: SimTime, expected_recipients: u32) {
        DeliveryTracker::published(self, id, at, expected_recipients);
    }
    fn delivered(&mut self, id: EventId, node: NodeId, _client: ClientId, _now: SimTime) {
        DeliveryTracker::delivered(self, id, node);
    }
    fn recovered(&mut self, id: EventId, node: NodeId, _client: ClientId, now: SimTime) {
        DeliveryTracker::recovered(self, id, node, now);
    }
}

//! The delivery-sink abstraction: where delivery bookkeeping goes
//! while a run executes.
//!
//! The socket runtime's per-node core feeds a [`DeliveryTracker`]
//! directly. The scenario runner records into a [`DeliveryLog`] — the
//! run's journal, a plain append-only record — and replays it sorted
//! into the tracker after the run ([`DeliveryLog::replay_into`]), so
//! float sums (the rate series, the recovery latencies) have one
//! order: that of the records' `(time, event, node)`, not that of the
//! calls that happened to produce them.

use eps_overlay::NodeId;
use eps_pubsub::{ClientId, EventId};
use eps_sim::SimTime;

use crate::delivery::DeliveryTracker;

/// Consumer of per-event delivery bookkeeping, implemented by the live
/// [`DeliveryTracker`] and by the scenario runner's [`DeliveryLog`].
///
/// Deliveries are accounted at *client-subscription* granularity: one
/// record per `(node, client)` an event reaches. With one client per
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

/// An append-only journal of delivery bookkeeping, one per run.
///
/// Recording is cheap (three `Vec::push` paths, no hashing) and
/// order-free: [`DeliveryLog::replay_into`] sorts every record class
/// by `(time, event, node)` before applying it, so the replayed
/// tracker is a pure function of the record *multiset*.
///
/// An event reaching a dispatcher is delivered to all its matching
/// local clients in one burst, and the tracker cannot tell those
/// deliveries apart (same instant, event and node), so a burst is one
/// journal record with a client count: the journal grows with
/// dispatcher-level deliveries, not with the client population.
#[derive(Clone, Debug, Default)]
pub struct DeliveryLog {
    publishes: Vec<(SimTime, EventId, u32)>,
    deliveries: Vec<Burst>,
    recoveries: Vec<Burst>,
}

/// `(time, event, node, local clients reached)`.
type Burst = (SimTime, EventId, NodeId, u32);

/// Counts one more client into the burst being recorded, or starts a
/// new one.
fn record_burst(bursts: &mut Vec<Burst>, now: SimTime, id: EventId, node: NodeId) {
    match bursts.last_mut() {
        Some((at, event, at_node, clients)) if (*at, *event, *at_node) == (now, id, node) => {
            *clients += 1
        }
        _ => bursts.push((now, id, node, 1)),
    }
}

impl DeliveryLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of records of all classes.
    pub fn len(&self) -> usize {
        self.publishes.len() + self.deliveries.len() + self.recoveries.len()
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Replays the log into a tracker in canonical order: all
    /// publications sorted by `(time, event)`, then all forwarding
    /// deliveries sorted by `(time, event, node)`, then all recovered
    /// deliveries likewise. Registering every publication first is
    /// safe because virtual time already orders any delivery after its
    /// publication; sorting fixes the float summation order of the
    /// rate series and recovery latencies.
    pub fn replay_into(self, tracker: &mut DeliveryTracker) {
        let DeliveryLog {
            mut publishes,
            mut deliveries,
            mut recoveries,
        } = self;
        publishes.sort_unstable();
        deliveries.sort_unstable();
        recoveries.sort_unstable();
        for (at, id, expected) in publishes {
            DeliveryTracker::published(tracker, id, at, expected);
        }
        for (_, id, node, clients) in deliveries {
            for _ in 0..clients {
                DeliveryTracker::delivered(tracker, id, node);
            }
        }
        for (at, id, node, clients) in recoveries {
            for _ in 0..clients {
                DeliveryTracker::recovered(tracker, id, node, at);
            }
        }
    }
}

impl DeliverySink for DeliveryLog {
    fn published(&mut self, id: EventId, at: SimTime, expected_recipients: u32) {
        self.publishes.push((at, id, expected_recipients));
    }
    fn delivered(&mut self, id: EventId, node: NodeId, _client: ClientId, now: SimTime) {
        record_burst(&mut self.deliveries, now, id, node);
    }
    fn recovered(&mut self, id: EventId, node: NodeId, _client: ClientId, now: SimTime) {
        record_burst(&mut self.recoveries, now, id, node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(seq: u64) -> EventId {
        EventId::new(NodeId::new(0), seq)
    }

    #[test]
    fn replay_matches_a_live_tracker() {
        let mut live = DeliveryTracker::new();
        let mut log = DeliveryLog::new();
        let sinks: [&mut dyn DeliverySink; 2] = [&mut live, &mut log];
        for sink in sinks {
            sink.published(id(0), SimTime::from_millis(10), 3);
            sink.published(id(1), SimTime::from_millis(20), 1);
            sink.delivered(
                id(0),
                NodeId::new(1),
                ClientId::new(0),
                SimTime::from_millis(11),
            );
            // One burst reaching two local clients of node 2.
            for client in 0..2 {
                sink.recovered(
                    id(0),
                    NodeId::new(2),
                    ClientId::new(client),
                    SimTime::from_millis(30),
                );
            }
        }
        assert_eq!(log.len(), 4, "two publishes, a delivery, one burst");
        let mut merged = DeliveryTracker::new();
        log.replay_into(&mut merged);
        assert_eq!(merged.event_count(), live.event_count());
        assert_eq!(merged.delivered_total(), live.delivered_total());
        assert_eq!(merged.expected_total(), live.expected_total());
        assert_eq!(
            merged.recovery_latency().mean().to_bits(),
            live.recovery_latency().mean().to_bits()
        );
    }

    #[test]
    fn replay_is_order_invariant() {
        // Recording the same bursts in two different orders replays to
        // bit-equal trackers.
        let records: Vec<(SimTime, EventId, u32)> = (0..10)
            .map(|i| (SimTime::from_millis(100 + i), id(i), 2))
            .collect();
        let build = |order: &[(SimTime, EventId, u32)]| {
            let mut log = DeliveryLog::new();
            for &(at, eid, exp) in order {
                log.published(eid, at, exp);
                log.delivered(
                    eid,
                    NodeId::new(1),
                    ClientId::new(0),
                    at + SimTime::from_millis(1),
                );
                log.recovered(
                    eid,
                    NodeId::new(2),
                    ClientId::new(0),
                    at + SimTime::from_millis(5),
                );
            }
            let mut tracker = DeliveryTracker::new();
            log.replay_into(&mut tracker);
            tracker
        };
        let reversed: Vec<_> = records.iter().rev().copied().collect();
        let x = build(&records);
        let y = build(&reversed);
        assert_eq!(x.delivered_total(), y.delivered_total());
        assert_eq!(
            x.recovery_latency().mean().to_bits(),
            y.recovery_latency().mean().to_bits()
        );
        let sx = x.rate_series(SimTime::from_millis(5));
        let sy = y.rate_series(SimTime::from_millis(5));
        assert_eq!(sx.bins().len(), sy.bins().len());
        for (a, b) in sx.bins().iter().zip(sy.bins()) {
            assert_eq!(a.ratio().to_bits(), b.ratio().to_bits());
        }
    }
}

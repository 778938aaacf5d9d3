//! Scenario tracing: a bounded log of the interesting moments of a
//! run, for debugging, visualisation, and white-box tests.

use eps_overlay::{LinkId, NodeId};
use eps_pubsub::{ClientId, EventId};
use eps_sim::SimTime;

/// One traced occurrence inside a scenario.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceRecord {
    /// A dispatcher published an event with the given number of
    /// intended recipients.
    Publish {
        /// Virtual time.
        at: SimTime,
        /// The publisher.
        node: NodeId,
        /// The event.
        event: EventId,
        /// Intended recipients at publish time.
        expected: u32,
    },
    /// An event was delivered to one of a dispatcher's local clients.
    /// An event reaching a dispatcher with several matching clients
    /// produces one record per client.
    Deliver {
        /// Virtual time.
        at: SimTime,
        /// The subscribing dispatcher.
        node: NodeId,
        /// The local client the delivery counts for.
        client: ClientId,
        /// The event.
        event: EventId,
        /// `true` if it arrived through the recovery machinery rather
        /// than normal dispatching.
        recovered: bool,
    },
    /// A dispatcher's detector reported sequence gaps. Only strategies
    /// that keep a `Lost` buffer — the pull rows and `push-pull` —
    /// detect losses: under `no-recovery`, `push` and `summary-*` a
    /// trace carries no such record.
    LossDetected {
        /// Virtual time.
        at: SimTime,
        /// The detecting dispatcher.
        node: NodeId,
        /// How many distinct (source, pattern, seq) gaps.
        count: u32,
    },
    /// An overlay link broke (reconfiguration).
    LinkBroken {
        /// Virtual time.
        at: SimTime,
        /// The broken link.
        link: LinkId,
    },
    /// A replacement link was added and routes rebuilt.
    LinkAdded {
        /// Virtual time.
        at: SimTime,
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
}

impl TraceRecord {
    /// The virtual time of the record.
    pub fn at(&self) -> SimTime {
        match *self {
            TraceRecord::Publish { at, .. }
            | TraceRecord::Deliver { at, .. }
            | TraceRecord::LossDetected { at, .. }
            | TraceRecord::LinkBroken { at, .. }
            | TraceRecord::LinkAdded { at, .. } => at,
        }
    }
}

/// A bounded, in-memory trace. Once `capacity` records have been
/// collected, further ones are counted but dropped, so tracing a long
/// run cannot exhaust memory.
#[derive(Clone, Debug)]
pub struct ScenarioTrace {
    records: Vec<TraceRecord>,
    capacity: usize,
    dropped: u64,
}

impl ScenarioTrace {
    /// Creates a trace buffer for up to `capacity` records.
    pub fn new(capacity: usize) -> Self {
        ScenarioTrace {
            records: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Appends a record (or counts it as dropped when full).
    pub fn push(&mut self, record: TraceRecord) {
        if self.records.len() < self.capacity {
            self.records.push(record);
        } else {
            self.dropped += 1;
        }
    }

    /// The collected records, in occurrence order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// How many records did not fit.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of collected records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn publish(at_ms: u64) -> TraceRecord {
        TraceRecord::Publish {
            at: SimTime::from_millis(at_ms),
            node: NodeId::new(0),
            event: EventId::new(NodeId::new(0), at_ms),
            expected: 1,
        }
    }

    #[test]
    fn capacity_is_respected() {
        let mut trace = ScenarioTrace::new(2);
        for i in 0..5 {
            trace.push(publish(i));
        }
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.dropped(), 3);
    }

    #[test]
    fn records_keep_occurrence_order() {
        let mut trace = ScenarioTrace::new(10);
        trace.push(publish(5));
        trace.push(publish(1));
        assert_eq!(trace.records()[0].at(), SimTime::from_millis(5));
        assert_eq!(trace.records()[1].at(), SimTime::from_millis(1));
        assert!(!trace.is_empty());
    }
}

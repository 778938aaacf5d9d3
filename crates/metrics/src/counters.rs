//! Message counters: the overhead side of the evaluation
//! (paper, Figures 9 and 10).

use eps_overlay::NodeId;

/// Per-class, per-dispatcher message counts.
///
/// The paper presents overhead two ways: the number of gossip messages
/// sent *by each dispatcher* (load on a node), and the ratio between
/// gossip and event messages dispatched in the *overall system*
/// (impact on bandwidth). This type records both, plus the out-of-band
/// request/reply traffic so it can be reported separately.
///
/// # Examples
///
/// ```
/// use eps_metrics::MessageCounters;
/// use eps_overlay::NodeId;
///
/// let mut c = MessageCounters::new(4);
/// c.count_event(NodeId::new(0));
/// c.count_gossip(NodeId::new(1));
/// c.count_gossip(NodeId::new(1));
/// assert_eq!(c.event_total(), 1);
/// assert_eq!(c.gossip_total(), 2);
/// assert_eq!(c.gossip_per_dispatcher(), 0.5);
/// ```
#[derive(Clone, Debug)]
pub struct MessageCounters {
    event_sent: Vec<u64>,
    gossip_sent: Vec<u64>,
    request_sent: Vec<u64>,
    reply_sent: Vec<u64>,
    subscription_sent: Vec<u64>,
    events_retransmitted: u64,
    events_recovered: u64,
    lost_evictions: u64,
    duplicate_suppressed: u64,
    gossip_wire_bits: u64,
    request_wire_bits: u64,
    reply_wire_bits: u64,
}

impl MessageCounters {
    /// Creates counters for `n` dispatchers.
    pub fn new(n: usize) -> Self {
        MessageCounters {
            event_sent: vec![0; n],
            gossip_sent: vec![0; n],
            request_sent: vec![0; n],
            reply_sent: vec![0; n],
            subscription_sent: vec![0; n],
            events_retransmitted: 0,
            events_recovered: 0,
            lost_evictions: 0,
            duplicate_suppressed: 0,
            gossip_wire_bits: 0,
            request_wire_bits: 0,
            reply_wire_bits: 0,
        }
    }

    /// Number of dispatchers tracked.
    pub fn len(&self) -> usize {
        self.event_sent.len()
    }

    /// `true` if tracking no dispatchers.
    pub fn is_empty(&self) -> bool {
        self.event_sent.is_empty()
    }

    /// An event message was sent on an overlay link by `from`.
    pub fn count_event(&mut self, from: NodeId) {
        self.event_sent[from.index()] += 1;
    }

    /// A gossip message was sent on an overlay link by `from`.
    pub fn count_gossip(&mut self, from: NodeId) {
        self.gossip_sent[from.index()] += 1;
    }

    /// An out-of-band retransmission request was sent by `from`.
    pub fn count_request(&mut self, from: NodeId) {
        self.request_sent[from.index()] += 1;
    }

    /// An out-of-band reply carrying `events` event copies was sent by
    /// `from`.
    pub fn count_reply(&mut self, from: NodeId, events: u64) {
        self.reply_sent[from.index()] += 1;
        self.events_retransmitted += events;
    }

    /// A subscription/unsubscription message was sent by `from`.
    pub fn count_subscription(&mut self, from: NodeId) {
        self.subscription_sent[from.index()] += 1;
    }

    /// `bits` of gossip-digest traffic were put on an overlay link.
    /// Unlike the per-message counts, the bit counters separate a
    /// summary digest (size proportional to what it carries) from a
    /// linear one (a flat event payload regardless of content) — the
    /// axis the summary-reconciliation evaluation compares on.
    pub fn count_gossip_bits(&mut self, bits: u64) {
        self.gossip_wire_bits += bits;
    }

    /// `bits` of out-of-band request traffic (id requests and
    /// summary range-refinement requests) were put on the wire.
    pub fn count_request_bits(&mut self, bits: u64) {
        self.request_wire_bits += bits;
    }

    /// `bits` of out-of-band reply traffic were put on the wire.
    pub fn count_reply_bits(&mut self, bits: u64) {
        self.reply_wire_bits += bits;
    }

    /// An event copy delivered through recovery (was missing, arrived
    /// via the out-of-band channel, and was new to the receiver).
    pub fn count_recovered(&mut self) {
        self.events_recovered += 1;
    }

    /// `Lost` entries evicted under the buffers' capacity bound
    /// (summed over dispatchers at the end of a run).
    pub fn count_lost_evictions(&mut self, n: u64) {
        self.lost_evictions += n;
    }

    /// An event copy arrived at a node that had already seen the event
    /// and was suppressed. Structurally zero on tree overlays (one
    /// path per node pair); the redundancy cost of cyclic overlays,
    /// where tree forwards and cross-link copies overlap.
    pub fn count_duplicate_suppressed(&mut self) {
        self.duplicate_suppressed += 1;
    }

    /// Total event messages on overlay links.
    pub fn event_total(&self) -> u64 {
        self.event_sent.iter().sum()
    }

    /// Total gossip messages on overlay links.
    pub fn gossip_total(&self) -> u64 {
        self.gossip_sent.iter().sum()
    }

    /// Total out-of-band requests.
    pub fn request_total(&self) -> u64 {
        self.request_sent.iter().sum()
    }

    /// Total out-of-band replies.
    pub fn reply_total(&self) -> u64 {
        self.reply_sent.iter().sum()
    }

    /// Total subscription messages.
    pub fn subscription_total(&self) -> u64 {
        self.subscription_sent.iter().sum()
    }

    /// Total event copies retransmitted out-of-band.
    pub fn events_retransmitted(&self) -> u64 {
        self.events_retransmitted
    }

    /// Total events whose delivery happened through recovery.
    pub fn events_recovered(&self) -> u64 {
        self.events_recovered
    }

    /// Total `Lost` entries evicted by capacity bounds — non-zero means
    /// loss detection outpaced recovery badly enough to overflow the
    /// buffers (visible under heavy churn rather than silent).
    pub fn lost_evictions(&self) -> u64 {
        self.lost_evictions
    }

    /// Total redundant event arrivals suppressed by receivers.
    pub fn duplicate_suppressed(&self) -> u64 {
        self.duplicate_suppressed
    }

    /// Total bits of gossip digests put on overlay links.
    pub fn gossip_wire_bits(&self) -> u64 {
        self.gossip_wire_bits
    }

    /// Total bits of out-of-band requests (ids and range refinements).
    pub fn request_wire_bits(&self) -> u64 {
        self.request_wire_bits
    }

    /// Total bits of out-of-band replies.
    pub fn reply_wire_bits(&self) -> u64 {
        self.reply_wire_bits
    }

    /// Total bits of recovery-control traffic: gossip digests plus
    /// out-of-band requests, excluding the event copies replies carry.
    /// The headline axis of the summary-reconciliation evaluation —
    /// O(C) per linear digest versus O(log C + Δ) per summary digest.
    pub fn recovery_control_bits(&self) -> u64 {
        self.gossip_wire_bits + self.request_wire_bits
    }

    /// Mean gossip messages sent per dispatcher (Fig. 9 / 10, left).
    pub fn gossip_per_dispatcher(&self) -> f64 {
        if self.gossip_sent.is_empty() {
            0.0
        } else {
            self.gossip_total() as f64 / self.gossip_sent.len() as f64
        }
    }

    /// Ratio of gossip to event messages in the whole system
    /// (Fig. 9, right). Zero when no events flowed.
    pub fn gossip_event_ratio(&self) -> f64 {
        let events = self.event_total();
        if events == 0 {
            0.0
        } else {
            self.gossip_total() as f64 / events as f64
        }
    }

    /// Per-dispatcher gossip counts (for distribution checks: gossip
    /// load should be evenly spread).
    pub fn gossip_by_dispatcher(&self) -> &[u64] {
        &self.gossip_sent
    }

    /// Folds `other` into `self`, dispatcher by dispatcher. The
    /// real-socket runtime keeps one `MessageCounters` per reactor
    /// worker (no shared mutable state on the hot path) and merges
    /// them after the run; both sides must track the same dispatcher
    /// count.
    pub fn absorb(&mut self, other: &MessageCounters) {
        assert_eq!(
            self.len(),
            other.len(),
            "absorb requires counters over the same dispatcher set"
        );
        for (a, b) in self.event_sent.iter_mut().zip(&other.event_sent) {
            *a += b;
        }
        for (a, b) in self.gossip_sent.iter_mut().zip(&other.gossip_sent) {
            *a += b;
        }
        for (a, b) in self.request_sent.iter_mut().zip(&other.request_sent) {
            *a += b;
        }
        for (a, b) in self.reply_sent.iter_mut().zip(&other.reply_sent) {
            *a += b;
        }
        for (a, b) in self
            .subscription_sent
            .iter_mut()
            .zip(&other.subscription_sent)
        {
            *a += b;
        }
        self.events_retransmitted += other.events_retransmitted;
        self.events_recovered += other.events_recovered;
        self.lost_evictions += other.lost_evictions;
        self.duplicate_suppressed += other.duplicate_suppressed;
        self.gossip_wire_bits += other.gossip_wire_bits;
        self.request_wire_bits += other.request_wire_bits;
        self.reply_wire_bits += other.reply_wire_bits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_accumulate_per_class() {
        let mut c = MessageCounters::new(3);
        c.count_event(NodeId::new(0));
        c.count_event(NodeId::new(1));
        c.count_gossip(NodeId::new(2));
        c.count_request(NodeId::new(0));
        c.count_reply(NodeId::new(1), 5);
        c.count_subscription(NodeId::new(2));
        assert_eq!(c.event_total(), 2);
        assert_eq!(c.gossip_total(), 1);
        assert_eq!(c.request_total(), 1);
        assert_eq!(c.reply_total(), 1);
        assert_eq!(c.subscription_total(), 1);
        assert_eq!(c.events_retransmitted(), 5);
    }

    #[test]
    fn ratios_handle_zero_denominators() {
        let c = MessageCounters::new(2);
        assert_eq!(c.gossip_event_ratio(), 0.0);
        assert_eq!(c.gossip_per_dispatcher(), 0.0);
    }

    #[test]
    fn per_dispatcher_views() {
        let mut c = MessageCounters::new(2);
        for _ in 0..4 {
            c.count_gossip(NodeId::new(0));
        }
        c.count_event(NodeId::new(1));
        assert_eq!(c.gossip_by_dispatcher(), &[4, 0]);
        assert_eq!(c.gossip_per_dispatcher(), 2.0);
        assert_eq!(c.gossip_event_ratio(), 4.0);
    }

    #[test]
    fn recovered_counter() {
        let mut c = MessageCounters::new(1);
        c.count_recovered();
        c.count_recovered();
        assert_eq!(c.events_recovered(), 2);
    }

    #[test]
    fn absorb_merges_every_class() {
        let mut a = MessageCounters::new(2);
        a.count_event(NodeId::new(0));
        a.count_gossip(NodeId::new(1));
        let mut b = MessageCounters::new(2);
        b.count_event(NodeId::new(0));
        b.count_request(NodeId::new(1));
        b.count_reply(NodeId::new(0), 3);
        b.count_subscription(NodeId::new(1));
        b.count_recovered();
        b.count_lost_evictions(2);
        b.count_duplicate_suppressed();
        b.count_gossip_bits(1000);
        b.count_request_bits(300);
        b.count_reply_bits(2000);
        a.count_gossip_bits(24);
        a.absorb(&b);
        assert_eq!(a.event_total(), 2);
        assert_eq!(a.gossip_total(), 1);
        assert_eq!(a.request_total(), 1);
        assert_eq!(a.reply_total(), 1);
        assert_eq!(a.subscription_total(), 1);
        assert_eq!(a.events_retransmitted(), 3);
        assert_eq!(a.events_recovered(), 1);
        assert_eq!(a.lost_evictions(), 2);
        assert_eq!(a.duplicate_suppressed(), 1);
        assert_eq!(a.gossip_by_dispatcher(), &[0, 1]);
        assert_eq!(a.gossip_wire_bits(), 1024);
        assert_eq!(a.request_wire_bits(), 300);
        assert_eq!(a.reply_wire_bits(), 2000);
        assert_eq!(a.recovery_control_bits(), 1324);
    }

    #[test]
    #[should_panic(expected = "same dispatcher set")]
    fn absorb_rejects_mismatched_sizes() {
        let mut a = MessageCounters::new(2);
        a.absorb(&MessageCounters::new(3));
    }

    #[test]
    fn lost_evictions_accumulate() {
        let mut c = MessageCounters::new(1);
        assert_eq!(c.lost_evictions(), 0);
        c.count_lost_evictions(3);
        c.count_lost_evictions(2);
        assert_eq!(c.lost_evictions(), 5);
    }
}

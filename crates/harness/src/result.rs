//! What one simulation run measured, and its assembly from the
//! metrics sinks.

use eps_metrics::{DeliveryTracker, MessageCounters};

use crate::config::{ScenarioConfig, SERIES_BIN};

/// What one simulation run measured. All delivery rates are in
/// `[0, 1]`; the headline [`ScenarioResult::delivery_rate`] is
/// restricted to events published inside the measurement window.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioResult {
    /// Delivery rate over the measurement window.
    pub delivery_rate: f64,
    /// Delivery rate over the full run.
    pub overall_delivery_rate: f64,
    /// Worst per-bin delivery rate inside the measurement window (the
    /// paper's "negative spikes").
    pub min_bin_rate: f64,
    /// Delivery-rate time series: (bin start in seconds, rate).
    pub series: Vec<(f64, f64)>,
    /// Mean intended receivers per published event (Figure 7).
    pub receivers_per_event: f64,
    /// Events published during the run.
    pub events_published: u64,
    /// Event messages sent on overlay links.
    pub event_msgs: u64,
    /// Gossip messages sent on overlay links.
    pub gossip_msgs: u64,
    /// Mean gossip messages sent per dispatcher.
    pub gossip_per_dispatcher: f64,
    /// Gossip messages divided by event messages, system-wide.
    pub gossip_event_ratio: f64,
    /// Out-of-band retransmission requests sent.
    pub requests: u64,
    /// Out-of-band replies sent.
    pub replies: u64,
    /// Event copies carried by replies.
    pub events_retransmitted: u64,
    /// Deliveries that happened through recovery (the event was new to
    /// the receiver when the reply arrived).
    pub events_recovered: u64,
    /// Mean recovery latency in seconds (publish → recovered
    /// delivery), or 0.0 when nothing was recovered.
    pub recovery_latency_mean: f64,
    /// 95th-percentile recovery latency in seconds, or 0.0.
    pub recovery_latency_p95: f64,
    /// `Lost` entries still outstanding at the end, summed over nodes.
    pub outstanding_losses: u64,
    /// `Lost` entries evicted under the buffers' capacity bound,
    /// summed over nodes. Non-zero means loss detection outpaced
    /// recovery badly enough to overflow the buffers.
    pub lost_evictions: u64,
    /// Topological reconfigurations performed.
    pub reconfigurations: u64,
    /// Subscription swaps performed (churn).
    pub churn_events: u64,
    /// Subscription/unsubscription messages sent on overlay links.
    pub subscription_msgs: u64,
    /// Redundant event arrivals suppressed by receivers. Structurally
    /// zero on tree overlays; the redundancy cost of cyclic overlays,
    /// where tree forwards and cross-link copies overlap.
    pub duplicate_suppressed: u64,
    /// Deliveries to dispatchers that subscribed after the event was
    /// published (possible only under churn; not counted in rates).
    pub unexpected_deliveries: u64,
    /// End-of-run client subscriptions, summed over dispatchers — the
    /// raw subscriber-side state the aggregation layer compresses.
    pub client_subscriptions: u64,
    /// End-of-run aggregate-filter patterns, summed over dispatchers —
    /// the state that actually enters the routing layer. Equal to
    /// `client_subscriptions` with one client per node; sublinear in
    /// it as clients share patterns.
    pub aggregate_patterns: u64,
    /// End-of-run subscription-table entries (patterns known, local or
    /// forwarded), summed over dispatchers.
    pub routing_entries: u64,
    /// Subscription messages the setup flood cost to install the
    /// aggregated filters (tracked separately from runtime
    /// [`ScenarioResult::subscription_msgs`]).
    pub setup_subscription_msgs: u64,
    /// Bits of gossip digests put on overlay links. Separates a
    /// summary digest (costed by what it carries) from a linear one
    /// (a flat event payload) — the wire-cost axis the
    /// summary-reconciliation evaluation compares on.
    pub gossip_wire_bits: u64,
    /// Bits of out-of-band requests (event-id requests and summary
    /// range-refinement requests).
    pub request_wire_bits: u64,
    /// Bits of out-of-band replies (the retransmitted event copies).
    pub reply_wire_bits: u64,
}

/// End-of-run routing-state totals, sampled by the runner after its
/// queues drain and handed to [`assemble`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoutingStats {
    /// Client subscriptions summed over dispatchers.
    pub client_subscriptions: u64,
    /// Aggregate-filter patterns summed over dispatchers.
    pub aggregate_patterns: u64,
    /// Subscription-table entries summed over dispatchers.
    pub routing_entries: u64,
    /// Setup-flood subscription messages (aggregated filters only).
    pub setup_subscription_msgs: u64,
}

impl ScenarioResult {
    /// The column names of [`ScenarioResult::csv_row`], in order — the
    /// one result schema shared by the simulator's drivers and the
    /// real-socket `net_cluster` runner (which appends its runtime
    /// counter columns after these).
    pub fn csv_header() -> &'static [&'static str] {
        &[
            "delivery_rate",
            "overall_delivery_rate",
            "min_bin_rate",
            "receivers_per_event",
            "events_published",
            "event_msgs",
            "gossip_msgs",
            "gossip_per_dispatcher",
            "gossip_event_ratio",
            "requests",
            "replies",
            "events_retransmitted",
            "events_recovered",
            "recovery_latency_mean",
            "recovery_latency_p95",
            "outstanding_losses",
            "lost_evictions",
            "reconfigurations",
            "churn_events",
            "subscription_msgs",
            "duplicate_suppressed",
            "unexpected_deliveries",
            "client_subscriptions",
            "aggregate_patterns",
            "routing_entries",
            "setup_subscription_msgs",
            "gossip_wire_bits",
            "request_wire_bits",
            "reply_wire_bits",
        ]
    }

    /// One CSV row of this result's summary scalars (the time series
    /// is exported separately by the figure drivers).
    pub fn csv_row(&self) -> Vec<String> {
        vec![
            format!("{:.6}", self.delivery_rate),
            format!("{:.6}", self.overall_delivery_rate),
            format!("{:.6}", self.min_bin_rate),
            format!("{:.4}", self.receivers_per_event),
            self.events_published.to_string(),
            self.event_msgs.to_string(),
            self.gossip_msgs.to_string(),
            format!("{:.4}", self.gossip_per_dispatcher),
            format!("{:.6}", self.gossip_event_ratio),
            self.requests.to_string(),
            self.replies.to_string(),
            self.events_retransmitted.to_string(),
            self.events_recovered.to_string(),
            format!("{:.6}", self.recovery_latency_mean),
            format!("{:.6}", self.recovery_latency_p95),
            self.outstanding_losses.to_string(),
            self.lost_evictions.to_string(),
            self.reconfigurations.to_string(),
            self.churn_events.to_string(),
            self.subscription_msgs.to_string(),
            self.duplicate_suppressed.to_string(),
            self.unexpected_deliveries.to_string(),
            self.client_subscriptions.to_string(),
            self.aggregate_patterns.to_string(),
            self.routing_entries.to_string(),
            self.setup_subscription_msgs.to_string(),
            self.gossip_wire_bits.to_string(),
            self.request_wire_bits.to_string(),
            self.reply_wire_bits.to_string(),
        ]
    }

    /// Bits of recovery-control traffic: gossip digests plus
    /// out-of-band requests, excluding the event copies replies carry.
    pub fn recovery_control_bits(&self) -> u64 {
        self.gossip_wire_bits + self.request_wire_bits
    }
}

/// Assembles the result of a finished run from the metrics sinks.
/// Public because the real-socket runtime (`eps-net`) assembles its
/// report through the same code path, so the two emit one schema.
pub fn assemble(
    config: &ScenarioConfig,
    tracker: &DeliveryTracker,
    counters: &MessageCounters,
    outstanding_losses: u64,
    reconfigurations: u64,
    churn_events: u64,
    routing: RoutingStats,
) -> ScenarioResult {
    let window = config.measure_window();
    let series_raw = tracker.rate_series(SERIES_BIN);
    let series: Vec<(f64, f64)> = series_raw
        .bins()
        .iter()
        .map(|b| (b.start.as_secs_f64(), b.ratio()))
        .collect();
    let min_bin_rate = series_raw
        .bins()
        .iter()
        .filter(|b| b.start >= window.0 && b.start < window.1 && b.denominator > 0.0)
        .map(|b| b.ratio())
        .fold(f64::INFINITY, f64::min);
    ScenarioResult {
        delivery_rate: tracker.delivery_rate(Some(window)),
        overall_delivery_rate: tracker.delivery_rate(None),
        min_bin_rate: if min_bin_rate.is_finite() {
            min_bin_rate
        } else {
            1.0
        },
        series,
        receivers_per_event: tracker.receivers_per_event().mean(),
        events_published: tracker.event_count() as u64,
        event_msgs: counters.event_total(),
        gossip_msgs: counters.gossip_total(),
        gossip_per_dispatcher: counters.gossip_per_dispatcher(),
        gossip_event_ratio: counters.gossip_event_ratio(),
        requests: counters.request_total(),
        replies: counters.reply_total(),
        events_retransmitted: counters.events_retransmitted(),
        events_recovered: counters.events_recovered(),
        recovery_latency_mean: tracker.recovery_latency_mean(),
        recovery_latency_p95: tracker.recovery_latency_quantile(0.95).unwrap_or(0.0),
        outstanding_losses,
        lost_evictions: counters.lost_evictions(),
        reconfigurations,
        churn_events,
        subscription_msgs: counters.subscription_total(),
        duplicate_suppressed: counters.duplicate_suppressed(),
        unexpected_deliveries: tracker.unexpected_total(),
        client_subscriptions: routing.client_subscriptions,
        aggregate_patterns: routing.aggregate_patterns,
        routing_entries: routing.routing_entries,
        setup_subscription_msgs: routing.setup_subscription_msgs,
        gossip_wire_bits: counters.gossip_wire_bits(),
        request_wire_bits: counters.request_wire_bits(),
        reply_wire_bits: counters.reply_wire_bits(),
    }
}

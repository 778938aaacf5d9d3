//! Delivery accounting: who should have received each event, who did,
//! and when — the source of every delivery-rate figure in the paper.

use eps_overlay::NodeId;
use eps_pubsub::EventId;
use eps_sim::hash::IdMap;
use eps_sim::{quantile_in_place, RatioSeries, SimTime, Summary};

/// A sequence number no record is registered under.
const UNREGISTERED: u32 = u32::MAX;

#[derive(Clone, Debug)]
struct EventRecord {
    published: SimTime,
    expected: u32,
    delivered: u32,
}

/// Tracks, for every published event, its intended recipients (the
/// dispatchers locally subscribed to one of its patterns at publish
/// time) and the deliveries that actually happened.
///
/// The delivery rate is "the ratio between the number of events
/// correctly received by a process and those that would be received in
/// a fully reliable scenario" (paper, Section IV-B). Recovered events
/// count: the time series is binned by *publish* time, so a dip at
/// time `t` means events published around `t` were never delivered to
/// some subscribers, even after recovery.
///
/// # Examples
///
/// ```
/// use eps_metrics::DeliveryTracker;
/// use eps_pubsub::EventId;
/// use eps_overlay::NodeId;
/// use eps_sim::SimTime;
///
/// let mut tracker = DeliveryTracker::new();
/// let id = EventId::new(NodeId::new(0), 0);
/// tracker.published(id, SimTime::from_millis(100), 2);
/// tracker.delivered(id, NodeId::new(1));
/// assert!((tracker.delivery_rate(None) - 0.5).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, Default)]
pub struct DeliveryTracker {
    // Records in publication order; the map is only an index. Stable
    // iteration keeps every derived statistic bit-for-bit
    // reproducible (hash-map order varies across processes).
    records: Vec<EventRecord>,
    // Each source's record indexes by sequence number, `UNREGISTERED`
    // where none is: a source numbers its events densely from zero, so
    // this is one 4-byte word per event behind one entry per source.
    // Probed, never iterated.
    by_source: IdMap<NodeId, Vec<u32>>,
    expected_total: u64,
    delivered_total: u64,
    unexpected_total: u64,
    tolerant: bool,
    /// Integer nanoseconds, so their sum — and the mean — does not
    /// depend on the order recoveries are registered in.
    recovery_latencies_ns: Vec<u64>,
}

impl DeliveryTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a tracker that tolerates deliveries beyond an event's
    /// expected recipient count instead of panicking. Needed when
    /// subscriptions churn: a dispatcher that subscribes between an
    /// event's publication and its arrival legitimately delivers it
    /// without having been counted. Such deliveries are tallied in
    /// [`DeliveryTracker::unexpected_total`] and excluded from rates.
    pub fn new_tolerant() -> Self {
        DeliveryTracker {
            tolerant: true,
            ..Self::default()
        }
    }

    /// Deliveries to dispatchers that were not subscribed at publish
    /// time (only nonzero in tolerant mode).
    pub fn unexpected_total(&self) -> u64 {
        self.unexpected_total
    }

    /// Registers a publication with its intended recipient count.
    ///
    /// # Panics
    ///
    /// Panics if the event id was already registered.
    pub fn published(&mut self, id: EventId, at: SimTime, expected_recipients: u32) {
        let record = u32::try_from(self.records.len())
            .ok()
            .filter(|&i| i != UNREGISTERED)
            .expect("a tracker registers fewer than 2³² − 1 events");
        let seqs = self.by_source.entry(id.source()).or_default();
        let seq = usize::try_from(id.seq()).expect("a sequence number fits a usize");
        if seqs.len() <= seq {
            seqs.resize(seq + 1, UNREGISTERED);
        }
        assert!(seqs[seq] == UNREGISTERED, "event {id} published twice");
        seqs[seq] = record;
        self.records.push(EventRecord {
            published: at,
            expected: expected_recipients,
            delivered: 0,
        });
        self.expected_total += expected_recipients as u64;
    }

    /// Registers a delivery. Deliveries of unknown events (published
    /// before tracking started) are ignored; over-deliveries of a
    /// known event panic, because the dispatcher layer deduplicates.
    pub fn delivered(&mut self, id: EventId, _node: NodeId) {
        if let Some(i) = self.index_of(id) {
            self.deliver(i, id);
        }
    }

    /// The index of event `id`'s record, if it is registered.
    fn index_of(&self, id: EventId) -> Option<usize> {
        let seqs = self.by_source.get(&id.source())?;
        let record = *seqs.get(usize::try_from(id.seq()).ok()?)?;
        (record != UNREGISTERED).then_some(record as usize)
    }

    /// Counts one delivery of the event recorded at `i`.
    fn deliver(&mut self, i: usize, id: EventId) {
        let rec = &mut self.records[i];
        if rec.delivered == rec.expected {
            assert!(
                self.tolerant,
                "event {id} delivered more times than it has subscribers"
            );
            self.unexpected_total += 1;
            return;
        }
        rec.delivered += 1;
        self.delivered_total += 1;
    }

    /// Registers a delivery that happened through recovery, recording
    /// its latency (now − publish time). The paper's Section IV-C
    /// observation — push has a larger recovery latency than pull —
    /// is measured through these samples.
    pub fn recovered(&mut self, id: EventId, _node: NodeId, now: SimTime) {
        if let Some(i) = self.index_of(id) {
            let latency = now.saturating_sub(self.records[i].published);
            self.recovery_latencies_ns.push(latency.as_nanos());
            self.deliver(i, id);
        }
    }

    /// Mean recovery latency in seconds, 0 if no recovery happened:
    /// an exact integer sum divided once by the count, the same for
    /// every order the recoveries arrived in.
    pub fn recovery_latency_mean(&self) -> f64 {
        let count = self.recovery_latencies_ns.len();
        if count == 0 {
            return 0.0;
        }
        let sum: u128 = self
            .recovery_latencies_ns
            .iter()
            .map(|&ns| u128::from(ns))
            .sum();
        sum as f64 / count as f64 / 1e9
    }

    /// The `q`-quantile of recovery latency in seconds, if any
    /// recovery happened.
    pub fn recovery_latency_quantile(&self, q: f64) -> Option<f64> {
        // One copy of the nanosecond samples, selected in place;
        // nanoseconds to seconds is monotone.
        quantile_in_place(&mut self.recovery_latencies_ns.clone(), q, |ns| {
            SimTime::from_nanos(ns).as_secs_f64()
        })
    }

    /// When event `id` was published, if it is registered.
    pub fn published_at(&self, id: EventId) -> Option<SimTime> {
        self.index_of(id).map(|i| self.records[i].published)
    }

    /// Number of events registered.
    pub fn event_count(&self) -> usize {
        self.records.len()
    }

    /// Total expected deliveries (over all events, or within a publish
    /// window).
    pub fn expected_total(&self) -> u64 {
        self.expected_total
    }

    /// Total deliveries observed.
    pub fn delivered_total(&self) -> u64 {
        self.delivered_total
    }

    /// The overall delivery rate, optionally restricted to events
    /// published inside `window` = (start, end]. Events with no
    /// subscribers are excluded (nothing to deliver). Returns 1.0 when
    /// no event qualifies.
    pub fn delivery_rate(&self, window: Option<(SimTime, SimTime)>) -> f64 {
        let mut expected = 0u64;
        let mut delivered = 0u64;
        for rec in &self.records {
            if let Some((start, end)) = window {
                if rec.published < start || rec.published >= end {
                    continue;
                }
            }
            expected += rec.expected as u64;
            delivered += rec.delivered as u64;
        }
        if expected == 0 {
            1.0
        } else {
            delivered as f64 / expected as f64
        }
    }

    /// The delivery-rate time series, binned by publish time.
    pub fn rate_series(&self, bin_width: SimTime) -> RatioSeries {
        let mut series = RatioSeries::new(bin_width);
        for rec in &self.records {
            series.add(rec.published, rec.delivered as f64, rec.expected as f64);
        }
        series
    }

    /// Summary of the number of *intended* receivers per event
    /// (paper, Figure 7).
    pub fn receivers_per_event(&self) -> Summary {
        let mut s = Summary::new();
        for rec in &self.records {
            s.record(rec.expected as f64);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use eps_sim::Rng;

    use super::*;

    fn id(seq: u64) -> EventId {
        EventId::new(NodeId::new(0), seq)
    }

    /// `(event index, node, recovered, arrival time)`.
    type Arrival = (usize, NodeId, bool, SimTime);

    /// A tracker fed `publishes` (indexed by event) and `arrivals` in
    /// an order drawn from `rng`: a random interleaving in which each
    /// event's publish still comes before its deliveries.
    fn fed_in_random_order(
        publishes: &[(SimTime, u32)],
        arrivals: &[Arrival],
        rng: &mut Rng,
    ) -> DeliveryTracker {
        // Op `i < publishes.len()` publishes event `i`; the rest are
        // arrivals.
        let mut ops: Vec<usize> = (0..publishes.len() + arrivals.len()).collect();
        for i in (1..ops.len()).rev() {
            ops.swap(i, rng.random_below(i as u64 + 1) as usize);
        }
        let mut tracker = DeliveryTracker::new();
        let mut published = vec![false; publishes.len()];
        for op in ops {
            let arrival = op.checked_sub(publishes.len()).map(|a| arrivals[a]);
            let event = arrival.map_or(op, |(event, ..)| event);
            if !published[event] {
                published[event] = true;
                let (at, expected) = publishes[event];
                tracker.published(id(event as u64), at, expected);
            }
            if let Some((_, node, recovered, now)) = arrival {
                if recovered {
                    tracker.recovered(id(event as u64), node, now);
                } else {
                    tracker.delivered(id(event as u64), node);
                }
            }
        }
        tracker
    }

    #[test]
    fn statistics_do_not_depend_on_registration_order() {
        eps_sim::check::forall("tracker_registration_order", 200, |rng| {
            let mut publishes = Vec::new();
            let mut arrivals = Vec::new();
            for event in 0..rng.random_range(1..40usize) {
                let at = SimTime::from_nanos(rng.random_range(0..4_000_000_000u64));
                let expected = rng.random_range(0..5u32);
                publishes.push((at, expected));
                for node in 0..expected {
                    if rng.random_bool(0.8) {
                        let delay = SimTime::from_nanos(rng.random_range(0..3_000_000_000u64));
                        arrivals.push((event, NodeId::new(node), rng.random_bool(0.5), at + delay));
                    }
                }
            }
            let x = fed_in_random_order(&publishes, &arrivals, rng);
            let y = fed_in_random_order(&publishes, &arrivals, rng);
            assert_eq!(
                x.recovery_latency_mean().to_bits(),
                y.recovery_latency_mean().to_bits()
            );
            assert_eq!(
                x.recovery_latency_quantile(0.95).map(f64::to_bits),
                y.recovery_latency_quantile(0.95).map(f64::to_bits)
            );
            let bin = SimTime::from_millis(250);
            assert_eq!(x.rate_series(bin).bins(), y.rate_series(bin).bins());
            let totals =
                |t: &DeliveryTracker| (t.event_count(), t.expected_total(), t.delivered_total());
            assert_eq!(totals(&x), totals(&y));
        });
    }

    #[test]
    fn recovery_mean_is_the_exact_mean() {
        let mut t = DeliveryTracker::new();
        assert_eq!(t.recovery_latency_mean(), 0.0);
        t.published(id(0), SimTime::from_millis(100), 3);
        for (node, ms) in [(1, 101), (2, 102), (3, 106)] {
            t.recovered(id(0), NodeId::new(node), SimTime::from_millis(ms));
        }
        assert_eq!(t.recovery_latency_mean(), 0.003);
    }

    #[test]
    fn rate_counts_delivered_over_expected() {
        let mut t = DeliveryTracker::new();
        t.published(id(0), SimTime::from_millis(10), 4);
        t.published(id(1), SimTime::from_millis(20), 2);
        for _ in 0..3 {
            t.delivered(id(0), NodeId::new(1));
        }
        assert!((t.delivery_rate(None) - 0.5).abs() < 1e-12);
        assert_eq!(t.expected_total(), 6);
        assert_eq!(t.delivered_total(), 3);
    }

    #[test]
    fn window_filters_by_publish_time() {
        let mut t = DeliveryTracker::new();
        t.published(id(0), SimTime::from_secs(1), 1);
        t.published(id(1), SimTime::from_secs(5), 1);
        t.delivered(id(0), NodeId::new(1));
        assert_eq!(t.published_at(id(1)), Some(SimTime::from_secs(5)));
        assert_eq!(t.published_at(id(2)), None);
        let early = t.delivery_rate(Some((SimTime::ZERO, SimTime::from_secs(2))));
        let late = t.delivery_rate(Some((SimTime::from_secs(2), SimTime::from_secs(10))));
        assert_eq!(early, 1.0);
        assert_eq!(late, 0.0);
    }

    #[test]
    fn unknown_deliveries_are_ignored() {
        let mut t = DeliveryTracker::new();
        t.delivered(id(42), NodeId::new(1));
        // A known source, an unregistered seq below and above its last.
        t.published(id(3), SimTime::ZERO, 1);
        for seq in [0, 2, 4, u64::MAX] {
            t.delivered(id(seq), NodeId::new(1));
            t.recovered(id(seq), NodeId::new(1), SimTime::from_secs(1));
            assert_eq!(t.published_at(id(seq)), None);
        }
        t.delivered(EventId::new(NodeId::new(5), 3), NodeId::new(1));
        assert_eq!(t.delivered_total(), 0);
        assert_eq!(t.recovery_latency_quantile(0.5), None);
        t.recovered(id(3), NodeId::new(1), SimTime::from_secs(1));
        assert_eq!(t.delivered_total(), 1);
        assert_eq!(t.recovery_latency_quantile(0.5), Some(1.0));
    }

    #[test]
    #[should_panic]
    fn double_publish_panics() {
        let mut t = DeliveryTracker::new();
        t.published(id(0), SimTime::ZERO, 1);
        t.published(id(0), SimTime::ZERO, 1);
    }

    #[test]
    #[should_panic]
    fn over_delivery_panics() {
        let mut t = DeliveryTracker::new();
        t.published(id(0), SimTime::ZERO, 1);
        t.delivered(id(0), NodeId::new(1));
        t.delivered(id(0), NodeId::new(2));
    }

    #[test]
    fn series_bins_by_publish_time() {
        let mut t = DeliveryTracker::new();
        t.published(id(0), SimTime::from_millis(500), 2);
        t.published(id(1), SimTime::from_millis(1500), 2);
        t.delivered(id(0), NodeId::new(1));
        t.delivered(id(0), NodeId::new(2));
        let series = t.rate_series(SimTime::from_secs(1));
        assert_eq!(series.bins().len(), 2);
        assert_eq!(series.bins()[0].ratio(), 1.0);
        assert_eq!(series.bins()[1].ratio(), 0.0);
    }

    #[test]
    fn receivers_summary_matches_registrations() {
        let mut t = DeliveryTracker::new();
        t.published(id(0), SimTime::ZERO, 3);
        t.published(id(1), SimTime::ZERO, 5);
        let s = t.receivers_per_event();
        assert_eq!(s.count(), 2);
        assert!((s.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn events_with_no_subscribers_do_not_skew_rate() {
        let mut t = DeliveryTracker::new();
        t.published(id(0), SimTime::ZERO, 0);
        assert_eq!(t.delivery_rate(None), 1.0);
    }
}

//! Sequence-gap loss detection for the pull algorithms.
//!
//! Each event identifier carries, for every pattern it matches, a
//! sequence number incremented at the source per (source, pattern)
//! stream. A dispatcher subscribed to pattern `p` therefore receives —
//! in a loss-free world — the seq numbers `0, 1, 2, …` for every
//! (source, p) stream; a jump reveals exactly which events were lost
//! (paper, Section III-B).
//!
//! # Layout
//!
//! Expectations live in one map keyed by exactly that stream:
//! (source, pattern) → the next expected sequence number, `seq + 1` of
//! the latest in-order arrival. A stream with no entry was never
//! received, so [`LossDetector::expected`] answers zero for it. A
//! dispatcher tracks only the patterns it subscribes to locally, so the
//! map holds a few streams per source. The map is probed, and filtered
//! in place by [`LossDetector::restart`]; it is never iterated into an
//! output, so its per-process hash order cannot change one.

use std::collections::hash_map::Entry;

use eps_overlay::NodeId;
use eps_sim::hash::{IdMap, IdSet};

use crate::event::Event;
use crate::pattern::PatternId;

/// Coordinates of one detected missing event: enough information to
/// request it from any dispatcher that may have cached it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LossRecord {
    /// Publisher of the missing event.
    pub source: NodeId,
    /// The pattern stream in which the gap was observed.
    pub pattern: PatternId,
    /// The missing per-(source, pattern) sequence number.
    pub seq: u64,
}

impl std::fmt::Display for LossRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}@{}", self.source, self.pattern, self.seq)
    }
}

/// Tracks the next expected per-(source, pattern) sequence number and
/// reports gaps.
///
/// # Examples
///
/// ```
/// use eps_pubsub::{Event, EventId, LossDetector, PatternId};
/// use eps_overlay::NodeId;
///
/// let mut det = LossDetector::new();
/// let src = NodeId::new(0);
/// let p = PatternId::new(1);
/// // First event for (src, p) arrives with seq 2: seqs 0 and 1 were lost.
/// let e = Event::new(EventId::new(src, 10), vec![(p, 2)]);
/// let losses = det.observe(&e, |q| q == p);
/// assert_eq!(losses.len(), 2);
/// assert_eq!(losses[0].seq, 0);
/// assert_eq!(losses[1].seq, 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct LossDetector {
    /// (source, pattern) → the stream's next expected sequence number
    /// (see the module docs).
    expected: IdMap<(NodeId, PatternId), u64>,
    /// The patterns [restarted](LossDetector::restart) mid-run, whose
    /// streams start at their first observation. Membership checks
    /// only — never iterated.
    late: IdSet<PatternId>,
    detected_total: u64,
}

impl LossDetector {
    /// Creates a detector with no history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes a received event. `is_relevant` says which patterns
    /// this dispatcher tracks — only patterns it is locally subscribed
    /// to, since those are the only streams it is guaranteed to see in
    /// full. Returns the newly detected losses, oldest first.
    ///
    /// Events arriving late (sequence below the expected value, e.g.
    /// recovered duplicates) produce no detections and do not regress
    /// the expectation.
    pub fn observe<F: Fn(PatternId) -> bool>(
        &mut self,
        event: &Event,
        is_relevant: F,
    ) -> Vec<LossRecord> {
        let mut losses = Vec::new();
        let source = event.source();
        for &(pattern, seq) in event.pattern_seqs() {
            if !is_relevant(pattern) {
                continue;
            }
            let from = match self.expected.entry((source, pattern)) {
                Entry::Occupied(mut expected) => {
                    let from = *expected.get();
                    if seq < from {
                        continue;
                    }
                    expected.insert(seq + 1);
                    from
                }
                // Stream never received before.
                Entry::Vacant(stream) => {
                    stream.insert(seq + 1);
                    if self.late.contains(&pattern) {
                        seq
                    } else {
                        0
                    }
                }
            };
            losses.extend((from..seq).map(|missing| LossRecord {
                source,
                pattern,
                seq: missing,
            }));
        }
        self.detected_total += losses.len() as u64;
        losses
    }

    /// Restarts detection on `pattern` for a subscription issued
    /// mid-run: drops its expectations (all sources), so no stale one
    /// from an earlier subscription reports the unsubscribed gap as
    /// losses, and from now on *baselines* each of its streams on
    /// first observation — the expectation starts at the observed
    /// sequence number instead of zero, reporting no losses. The new
    /// subscriber never received, and was never owed, the streams'
    /// history.
    pub fn restart(&mut self, pattern: PatternId) {
        self.expected.retain(|&(_, p), _| p != pattern);
        self.late.insert(pattern);
    }

    /// The next expected sequence number for a (source, pattern)
    /// stream; zero if nothing was ever received.
    pub fn expected(&self, source: NodeId, pattern: PatternId) -> u64 {
        self.expected.get(&(source, pattern)).copied().unwrap_or(0)
    }

    /// Total number of losses ever detected.
    pub fn detected_total(&self) -> u64 {
        self.detected_total
    }

    /// Number of (source, pattern) streams being tracked.
    pub fn stream_count(&self) -> usize {
        self.expected.len()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use super::*;
    use crate::event::EventId;
    use eps_sim::check::forall;

    fn ev(source: u32, id_seq: u64, patterns: &[(u16, u64)]) -> Event {
        Event::new(
            EventId::new(NodeId::new(source), id_seq),
            patterns
                .iter()
                .map(|&(p, s)| (PatternId::new(p), s))
                .collect(),
        )
    }

    #[test]
    fn in_order_stream_detects_nothing() {
        let mut det = LossDetector::new();
        for seq in 0..10 {
            let losses = det.observe(&ev(0, seq, &[(1, seq)]), |_| true);
            assert!(losses.is_empty());
        }
        assert_eq!(det.expected(NodeId::new(0), PatternId::new(1)), 10);
        assert_eq!(det.detected_total(), 0);
    }

    #[test]
    fn gap_detects_each_missing_seq() {
        // A stream with arbitrary gaps reports exactly the missing
        // sequence numbers below the highest delivered one.
        forall("gap_detects_each_missing_seq", 256, |rng| {
            let delivered: Vec<bool> = (0..rng.random_range(1..100usize))
                .map(|_| rng.random_bool(0.5))
                .collect();
            let mut det = LossDetector::new();
            let mut reported = Vec::new();
            for seq in (0..delivered.len() as u64).filter(|&s| delivered[s as usize]) {
                let losses = det.observe(&ev(3, seq, &[(5, seq)]), |_| true);
                reported.extend(losses.iter().map(|l| l.seq));
            }
            let last = delivered.iter().rposition(|&kept| kept).unwrap_or(0);
            let missing: Vec<u64> = (0..last as u64)
                .filter(|&s| !delivered[s as usize])
                .collect();
            // Each gap is reported once, when the next delivery closes
            // it, so the reports arrive already ascending.
            assert_eq!(reported, missing);
            assert_eq!(det.detected_total(), missing.len() as u64);
        });
    }

    #[test]
    fn irrelevant_patterns_are_ignored() {
        let mut det = LossDetector::new();
        let relevant = PatternId::new(1);
        let losses = det.observe(&ev(0, 0, &[(1, 3), (2, 5)]), |p| p == relevant);
        assert_eq!(losses.len(), 3);
        assert!(losses.iter().all(|l| l.pattern == relevant));
        assert_eq!(det.expected(NodeId::new(0), PatternId::new(2)), 0);
    }

    #[test]
    fn an_event_with_no_relevant_pattern_registers_no_stream() {
        let mut det = LossDetector::new();
        let losses = det.observe(&ev(4, 0, &[(1, 3), (2, 5)]), |_| false);
        assert!(losses.is_empty());
        assert_eq!(det.stream_count(), 0);
        assert_eq!(det.expected.capacity(), 0, "the map allocated");
    }

    #[test]
    fn late_arrivals_do_not_regress() {
        let mut det = LossDetector::new();
        det.observe(&ev(0, 5, &[(1, 5)]), |_| true);
        let exp = det.expected(NodeId::new(0), PatternId::new(1));
        let losses = det.observe(&ev(0, 2, &[(1, 2)]), |_| true);
        assert!(losses.is_empty());
        assert_eq!(det.expected(NodeId::new(0), PatternId::new(1)), exp);
    }

    #[test]
    fn streams_are_per_source_and_pattern() {
        let mut det = LossDetector::new();
        det.observe(&ev(0, 0, &[(1, 0)]), |_| true);
        det.observe(&ev(7, 0, &[(1, 2)]), |_| true);
        assert_eq!(det.expected(NodeId::new(0), PatternId::new(1)), 1);
        assert_eq!(det.expected(NodeId::new(7), PatternId::new(1)), 3);
        assert_eq!(det.stream_count(), 2);
    }

    #[test]
    fn multi_pattern_event_advances_all_relevant_streams() {
        let mut det = LossDetector::new();
        let losses = det.observe(&ev(0, 0, &[(1, 1), (2, 0)]), |_| true);
        assert_eq!(losses.len(), 1);
        assert_eq!(losses[0].pattern, PatternId::new(1));
        assert_eq!(det.expected(NodeId::new(0), PatternId::new(1)), 2);
        assert_eq!(det.expected(NodeId::new(0), PatternId::new(2)), 1);
    }

    #[test]
    fn restart_resets_streams_and_baselines_them() {
        let mut det = LossDetector::new();
        det.observe(&ev(0, 0, &[(1, 0), (2, 0)]), |_| true);
        det.observe(&ev(7, 0, &[(1, 4)]), |_| true);
        assert_eq!(det.stream_count(), 3);
        det.restart(PatternId::new(1));
        assert_eq!(det.stream_count(), 1);
        assert_eq!(det.expected(NodeId::new(0), PatternId::new(1)), 0);
        assert_eq!(det.expected(NodeId::new(7), PatternId::new(1)), 0);
        assert_eq!(det.expected(NodeId::new(0), PatternId::new(2)), 1);
        // A restarted stream starts where it is first seen, and counts
        // gaps from there on; other patterns' new streams start at 0.
        assert!(det.observe(&ev(0, 1, &[(1, 3)]), |_| true).is_empty());
        assert_eq!(det.observe(&ev(0, 2, &[(1, 6)]), |_| true).len(), 2);
        assert_eq!(det.observe(&ev(9, 0, &[(2, 2)]), |_| true).len(), 2);
    }

    /// A reference detector: the next expected seq of every stream in
    /// an explicit map, with the observation rules spelled out.
    #[derive(Default)]
    struct Model {
        expected: BTreeMap<(NodeId, PatternId), u64>,
        late: BTreeSet<PatternId>,
        detected: u64,
    }

    impl Model {
        fn observe(&mut self, event: &Event, relevant: &[PatternId]) -> Vec<LossRecord> {
            let mut losses = Vec::new();
            let source = event.source();
            for &(pattern, seq) in event.pattern_seqs() {
                if !relevant.contains(&pattern) {
                    continue;
                }
                let from = match self.expected.get(&(source, pattern)) {
                    None if self.late.contains(&pattern) => seq,
                    None => 0,
                    Some(&next) if seq >= next => next,
                    Some(_) => continue,
                };
                losses.extend((from..seq).map(|seq| LossRecord {
                    source,
                    pattern,
                    seq,
                }));
                self.expected.insert((source, pattern), seq + 1);
            }
            self.detected += losses.len() as u64;
            losses
        }

        fn restart(&mut self, pattern: PatternId) {
            self.expected.retain(|&(_, p), _| p != pattern);
            self.late.insert(pattern);
        }
    }

    #[test]
    fn detector_answers_like_a_map_of_streams() {
        // Random observations and restarted patterns, over a narrow
        // pattern range and a narrow range mixed with a wide one,
        // against an explicit ordered map and set.
        forall("detector_answers_like_a_map_of_streams", 256, |rng| {
            let wide = rng.random_bool(0.5);
            let draw_pattern = |rng: &mut eps_sim::Rng| {
                let value = if wide && rng.random_bool(0.2) {
                    rng.random_range(0..8192u16)
                } else {
                    rng.random_range(0..8u16)
                };
                PatternId::new(value)
            };
            let mut det = LossDetector::new();
            let mut model = Model::default();
            let mut touched: Vec<(NodeId, PatternId)> = Vec::new();
            for step in 0..rng.random_range(1..120u32) {
                if rng.random_bool(0.1) {
                    let pattern = draw_pattern(rng);
                    det.restart(pattern);
                    model.restart(pattern);
                } else {
                    let source = NodeId::new(rng.random_below(3) as u32);
                    let mut patterns: Vec<PatternId> = (0..rng.random_range(1..4usize))
                        .map(|_| draw_pattern(rng))
                        .collect();
                    patterns.sort_unstable();
                    patterns.dedup();
                    let pattern_seqs = patterns
                        .iter()
                        .map(|&p| (p, rng.random_below(12)))
                        .collect();
                    let event = Event::new(EventId::new(source, u64::from(step)), pattern_seqs);
                    let relevant: Vec<PatternId> = patterns
                        .iter()
                        .copied()
                        .filter(|_| rng.random_bool(0.8))
                        .collect();
                    let got = det.observe(&event, |p| relevant.contains(&p));
                    assert_eq!(got, model.observe(&event, &relevant), "step {step}");
                    touched.extend(patterns.iter().map(|&p| (source, p)));
                }
                assert_eq!(det.stream_count(), model.expected.len(), "step {step}");
                assert_eq!(det.detected_total(), model.detected, "step {step}");
                for &(source, pattern) in &touched {
                    let want = model.expected.get(&(source, pattern)).copied().unwrap_or(0);
                    assert_eq!(det.expected(source, pattern), want, "{source}/{pattern}");
                }
            }
        });
    }

    #[test]
    fn streams_of_any_pattern_index_are_tracked() {
        let mut det = LossDetector::new();
        let losses = det.observe(&ev(0, 0, &[(500, 1)]), |_| true);
        assert_eq!(losses.len(), 1);
        assert_eq!(det.expected(NodeId::new(0), PatternId::new(500)), 2);
    }
}

//! Sequence-gap loss detection for the pull algorithms.
//!
//! Each event identifier carries, for every pattern it matches, a
//! sequence number incremented at the source per (source, pattern)
//! stream. A dispatcher subscribed to pattern `p` therefore receives —
//! in a loss-free world — the seq numbers `0, 1, 2, …` for every
//! (source, p) stream; a jump reveals exactly which events were lost
//! (paper, Section III-B).
//!
//! # Dense layout
//!
//! Expectations live in per-source dense rows indexed by
//! [`PatternId::index`], not a `HashMap<(NodeId, PatternId), u64>`:
//! observing an event costs one source-slot lookup plus an array index
//! per pattern. A cell value of `0` means "never received"; occupied
//! cells store the next expected sequence number, which is always
//! `seq + 1 ≥ 1`, so the sentinel never collides with real state and
//! [`LossDetector::expected`] keeps its "zero if nothing received"
//! contract for free.

use eps_overlay::NodeId;
use eps_sim::hash::IdMap;

use crate::event::Event;
use crate::pattern::{PatternId, DENSE_UNIVERSE_MAX};

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
    /// Initial row width in patterns (the universe size hint); rows
    /// still grow past it if a larger pattern index is observed.
    width: usize,
    /// Source slot → per-pattern expectation row. A cell holding `0`
    /// (dense) or absent (sparse) = stream never received; otherwise
    /// the next expected sequence number (always ≥ 1, see the module
    /// docs).
    rows: Vec<Row>,
    /// Source → row slot. Lookup-only (never iterated), so the
    /// map's arbitrary ordering can't leak into any output.
    source_slots: IdMap<NodeId, usize>,
    /// Number of occupied cells across all rows (`stream_count`).
    streams: usize,
    detected_total: u64,
}

/// One source's expectation row.
///
/// Dense rows (Π cells up front) are optimal at the paper's Π = 70,
/// but at large universes a dispatcher only tracks the streams of its
/// locally subscribed patterns — a handful out of Π — so rows past
/// [`DENSE_UNIVERSE_MAX`] store only occupied cells, sorted by pattern
/// index. Keyed lookups only — never iterated — so the layout cannot
/// change any observable output.
#[derive(Clone, Debug)]
enum Row {
    Dense(Vec<u64>),
    Sparse(Vec<(u16, u64)>),
}

impl Row {
    /// The cell value; `0` means "stream never received".
    fn get(&self, pattern: PatternId) -> u64 {
        match self {
            Row::Dense(cells) => cells.get(pattern.index()).copied().unwrap_or(0),
            Row::Sparse(cells) => cells
                .binary_search_by_key(&pattern.value(), |&(p, _)| p)
                .map(|i| cells[i].1)
                .unwrap_or(0),
        }
    }

    /// Stores a non-zero expectation.
    fn set(&mut self, pattern: PatternId, value: u64) {
        match self {
            Row::Dense(cells) => {
                let idx = pattern.index();
                if idx >= cells.len() {
                    cells.resize(idx + 1, 0);
                }
                cells[idx] = value;
            }
            Row::Sparse(cells) => match cells.binary_search_by_key(&pattern.value(), |&(p, _)| p) {
                Ok(i) => cells[i].1 = value,
                Err(i) => cells.insert(i, (pattern.value(), value)),
            },
        }
    }

    /// Clears the cell; returns `true` if it held an expectation.
    fn forget(&mut self, pattern: PatternId) -> bool {
        match self {
            Row::Dense(cells) => match cells.get_mut(pattern.index()) {
                Some(cell) if *cell != 0 => {
                    *cell = 0;
                    true
                }
                _ => false,
            },
            Row::Sparse(cells) => match cells.binary_search_by_key(&pattern.value(), |&(p, _)| p) {
                Ok(i) => {
                    cells.remove(i);
                    true
                }
                Err(_) => false,
            },
        }
    }
}

impl LossDetector {
    /// Creates a detector with no history whose rows grow on demand.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a detector pre-sizing each source's expectation row for
    /// `universe` patterns (from [`crate::PatternSpace::universe`]).
    /// Purely an allocation hint — behavior is identical to
    /// [`LossDetector::new`].
    pub fn with_universe(universe: usize) -> Self {
        LossDetector {
            width: universe,
            ..Self::default()
        }
    }

    /// The row slot for `source`, registering it on first use.
    fn slot_for(&mut self, source: NodeId) -> usize {
        let rows = &mut self.rows;
        let width = self.width;
        *self.source_slots.entry(source).or_insert_with(|| {
            rows.push(if width > DENSE_UNIVERSE_MAX {
                Row::Sparse(Vec::new())
            } else {
                Row::Dense(vec![0; width])
            });
            rows.len() - 1
        })
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
        self.observe_with(event, is_relevant, |_| false)
    }

    /// Like [`LossDetector::observe`], but streams of a pattern for
    /// which `is_late` returns `true` are *baselined* on their first
    /// observation: the expectation starts at the observed sequence
    /// number instead of zero, reporting no losses. This is the
    /// correct semantics for subscriptions issued mid-run — the new
    /// subscriber never received (and was never owed) the stream's
    /// history.
    pub fn observe_with<F: Fn(PatternId) -> bool, L: Fn(PatternId) -> bool>(
        &mut self,
        event: &Event,
        is_relevant: F,
        is_late: L,
    ) -> Vec<LossRecord> {
        let mut losses = Vec::new();
        let source = event.source();
        // The source's row slot, resolved lazily so an event with no
        // relevant patterns registers nothing (as before).
        let mut slot: Option<usize> = None;
        for &(pattern, seq) in event.pattern_seqs() {
            if !is_relevant(pattern) {
                continue;
            }
            let s = match slot {
                Some(s) => s,
                None => {
                    let s = self.slot_for(source);
                    slot = Some(s);
                    s
                }
            };
            let row = &mut self.rows[s];
            let expected = row.get(pattern);
            if expected == 0 {
                // Stream never received before.
                self.streams += 1;
                if is_late(pattern) {
                    row.set(pattern, seq + 1);
                    continue;
                }
                for missing in 0..seq {
                    losses.push(LossRecord {
                        source,
                        pattern,
                        seq: missing,
                    });
                }
                row.set(pattern, seq + 1);
            } else if seq >= expected {
                for missing in expected..seq {
                    losses.push(LossRecord {
                        source,
                        pattern,
                        seq: missing,
                    });
                }
                row.set(pattern, seq + 1);
            }
        }
        self.detected_total += losses.len() as u64;
        losses
    }

    /// Drops all expectations for `pattern` (all sources). Called when
    /// a local subscription is cancelled so that a later
    /// re-subscription does not inherit stale expectations and report
    /// the unsubscribed gap as losses.
    pub fn forget_pattern(&mut self, pattern: PatternId) {
        for row in &mut self.rows {
            if row.forget(pattern) {
                self.streams -= 1;
            }
        }
    }

    /// The next expected sequence number for a (source, pattern)
    /// stream; zero if nothing was ever received.
    pub fn expected(&self, source: NodeId, pattern: PatternId) -> u64 {
        self.source_slots
            .get(&source)
            .map(|&s| self.rows[s].get(pattern))
            .unwrap_or(0)
    }

    /// Total number of losses ever detected.
    pub fn detected_total(&self) -> u64 {
        self.detected_total
    }

    /// Number of (source, pattern) streams being tracked.
    pub fn stream_count(&self) -> usize {
        self.streams
    }
}

#[cfg(test)]
mod tests {
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
    fn forget_pattern_resets_streams_and_count() {
        let mut det = LossDetector::with_universe(8);
        det.observe(&ev(0, 0, &[(1, 0), (2, 0)]), |_| true);
        det.observe(&ev(7, 0, &[(1, 4)]), |_| true);
        assert_eq!(det.stream_count(), 3);
        det.forget_pattern(PatternId::new(1));
        assert_eq!(det.stream_count(), 1);
        assert_eq!(det.expected(NodeId::new(0), PatternId::new(1)), 0);
        assert_eq!(det.expected(NodeId::new(7), PatternId::new(1)), 0);
        assert_eq!(det.expected(NodeId::new(0), PatternId::new(2)), 1);
        // A fresh observation re-baselines from scratch.
        let losses = det.observe(&ev(0, 1, &[(1, 3)]), |_| true);
        assert_eq!(losses.len(), 3);
    }

    #[test]
    fn sparse_rows_match_dense_behavior() {
        // The same observation sequence against a dense-width and a
        // sparse-width detector must agree on every observable,
        // including late baselining and pattern forgetting.
        let mut dense = LossDetector::with_universe(70);
        let mut sparse = LossDetector::with_universe(DENSE_UNIVERSE_MAX + 1);
        let steps: Vec<Event> = vec![
            ev(0, 0, &[(1, 2), (3, 0)]),
            ev(7, 1, &[(1, 4)]),
            ev(0, 2, &[(1, 1)]), // late arrival
            ev(0, 3, &[(3, 5), (9, 0)]),
        ];
        for (i, e) in steps.iter().enumerate() {
            let late = |p: PatternId| p == PatternId::new(9);
            let a = dense.observe_with(e, |_| true, late);
            let b = sparse.observe_with(e, |_| true, late);
            assert_eq!(a, b, "step {i}");
        }
        dense.forget_pattern(PatternId::new(1));
        sparse.forget_pattern(PatternId::new(1));
        assert_eq!(dense.stream_count(), sparse.stream_count());
        assert_eq!(dense.detected_total(), sparse.detected_total());
        for (src, p) in [(0u32, 1u16), (0, 3), (0, 9), (7, 1)] {
            assert_eq!(
                dense.expected(NodeId::new(src), PatternId::new(p)),
                sparse.expected(NodeId::new(src), PatternId::new(p)),
                "expected({src}, {p})"
            );
        }
    }

    #[test]
    fn rows_grow_past_the_universe_hint() {
        let mut det = LossDetector::with_universe(2);
        let losses = det.observe(&ev(0, 0, &[(500, 1)]), |_| true);
        assert_eq!(losses.len(), 1);
        assert_eq!(det.expected(NodeId::new(0), PatternId::new(500)), 2);
    }
}

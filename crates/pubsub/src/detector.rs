//! Sequence-gap loss detection for the pull algorithms.
//!
//! Each event identifier carries, for every pattern it matches, a
//! sequence number incremented at the source per (source, pattern)
//! stream. A dispatcher subscribed to pattern `p` therefore receives —
//! in a loss-free world — the seq numbers `0, 1, 2, …` for every
//! (source, p) stream; a jump reveals exactly which events were lost
//! (paper, Section III-B).
//!
//! # Row layout
//!
//! Expectations live in one row per source, not a
//! `HashMap<(NodeId, PatternId), u64>`: observing an event costs one
//! source-slot lookup plus a cell lookup per pattern. A cell value of
//! `0` means "never received"; occupied cells store the next expected
//! sequence number, which is always `seq + 1 ≥ 1`, so the sentinel
//! never collides with real state and [`LossDetector::expected`] keeps
//! its "zero if nothing received" contract for free.
//!
//! A row's layout follows its occupancy, not the pattern universe. It
//! starts sparse — its occupied cells only, sorted by pattern — and
//! turns dense, one cell per pattern index up to the highest it
//! tracks, once at least half of those cells would be occupied; a write
//! that would leave a dense row less than half full turns it back. A
//! dispatcher tracks only the patterns it subscribes to locally, so at
//! the paper's Π = 70 a row holds its two or so streams instead of 70
//! cells, while a row tracking most patterns keeps its direct index.
//! Keyed lookups only — never iterated — so the layout cannot change
//! any observable output.

use eps_overlay::NodeId;
use eps_sim::hash::IdMap;

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
    /// Source slot → per-pattern expectation row (see the module
    /// docs).
    rows: Vec<Row>,
    /// Source → row slot. Lookup-only (never iterated), so the
    /// map's arbitrary ordering can't leak into any output.
    source_slots: IdMap<NodeId, usize>,
    /// Number of occupied cells across all rows (`stream_count`).
    streams: usize,
    detected_total: u64,
}

/// One source's expectation row, laid out by its occupancy (see the
/// module docs).
#[derive(Clone, Debug)]
enum Row {
    /// One cell per pattern index below `cells.len()`, `occupied` of
    /// them non-zero: at least half.
    Dense { cells: Vec<u64>, occupied: usize },
    /// The occupied cells only, sorted by pattern value.
    Sparse(Vec<(u16, u64)>),
}

impl Row {
    /// The cell value; `0` means "stream never received".
    fn get(&self, pattern: PatternId) -> u64 {
        match self {
            Row::Dense { cells, .. } => cells.get(pattern.index()).copied().unwrap_or(0),
            Row::Sparse(cells) => cells
                .binary_search_by_key(&pattern.value(), |&(p, _)| p)
                .map(|i| cells[i].1)
                .unwrap_or(0),
        }
    }

    /// The occupied cell of `pattern`, if the row has one.
    #[inline]
    fn occupied_mut(&mut self, pattern: PatternId) -> Option<&mut u64> {
        match self {
            Row::Dense { cells, .. } => cells.get_mut(pattern.index()).filter(|cell| **cell != 0),
            Row::Sparse(cells) => cells
                .binary_search_by_key(&pattern.value(), |&(p, _)| p)
                .ok()
                .map(|i| &mut cells[i].1),
        }
    }

    /// Stores a non-zero expectation in `pattern`'s vacant cell,
    /// changing the layout where the new occupancy calls for it.
    fn occupy(&mut self, pattern: PatternId, value: u64) {
        match self {
            Row::Dense { cells, occupied } => {
                let (idx, grown) = (pattern.index(), *occupied + 1);
                if let Some(cell) = cells.get_mut(idx) {
                    *cell = value;
                    *occupied = grown;
                    return;
                }
                let width = idx + 1;
                if 2 * grown < width {
                    // Widening would leave the row less than half full.
                    let mut sparse = occupied_cells(cells, grown);
                    sparse.push((pattern.value(), value));
                    *self = Row::Sparse(sparse);
                    return;
                }
                if width > cells.capacity() {
                    // Doubling, but never past two cells per occupied
                    // one.
                    let target = width.max((2 * cells.len()).min(2 * grown));
                    cells.reserve_exact(target - cells.len());
                }
                cells.resize(width, 0);
                cells[idx] = value;
                *occupied = grown;
            }
            Row::Sparse(cells) => {
                let i = cells.partition_point(|&(p, _)| p < pattern.value());
                if cells.len() == cells.capacity() {
                    cells.reserve_exact(1);
                }
                cells.insert(i, (pattern.value(), value));
                let width = cells.last().map_or(0, |&(p, _)| usize::from(p) + 1);
                if 2 * cells.len() >= width {
                    let mut dense = vec![0; width];
                    for &(p, v) in cells.iter() {
                        dense[usize::from(p)] = v;
                    }
                    *self = Row::Dense {
                        cells: dense,
                        occupied: cells.len(),
                    };
                }
            }
        }
    }

    /// Clears the cell; returns `true` if it held an expectation.
    fn forget(&mut self, pattern: PatternId) -> bool {
        match self {
            Row::Dense { cells, occupied } => match cells.get_mut(pattern.index()) {
                Some(cell) if *cell != 0 => {
                    *cell = 0;
                    *occupied -= 1;
                    if 2 * *occupied < cells.len() {
                        *self = Row::Sparse(occupied_cells(cells, *occupied));
                    }
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

/// A dense row's occupied cells in the sparse layout, in a vector of
/// `capacity`.
fn occupied_cells(cells: &[u64], capacity: usize) -> Vec<(u16, u64)> {
    let mut sparse = Vec::with_capacity(capacity);
    for (p, &v) in cells.iter().enumerate() {
        if v != 0 {
            let p = u16::try_from(p).expect("a dense row is indexed by u16 patterns");
            sparse.push((p, v));
        }
    }
    sparse
}

impl LossDetector {
    /// Creates a detector with no history.
    pub fn new() -> Self {
        Self::default()
    }

    /// The row slot for `source`, registering it on first use.
    fn slot_for(&mut self, source: NodeId) -> usize {
        let rows = &mut self.rows;
        *self.source_slots.entry(source).or_insert_with(|| {
            rows.push(Row::Sparse(Vec::new()));
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
            match row.occupied_mut(pattern) {
                Some(expected) => {
                    if seq >= *expected {
                        losses.extend((*expected..seq).map(|missing| LossRecord {
                            source,
                            pattern,
                            seq: missing,
                        }));
                        *expected = seq + 1;
                    }
                }
                None => {
                    // Stream never received before.
                    self.streams += 1;
                    if !is_late(pattern) {
                        losses.extend((0..seq).map(|missing| LossRecord {
                            source,
                            pattern,
                            seq: missing,
                        }));
                    }
                    row.occupy(pattern, seq + 1);
                }
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
    use std::collections::BTreeMap;

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
        let mut det = LossDetector::new();
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

    /// A reference detector: the next expected seq of every stream in
    /// an explicit map, with the observation rules spelled out.
    #[derive(Default)]
    struct Model {
        expected: BTreeMap<(NodeId, PatternId), u64>,
        detected: u64,
    }

    impl Model {
        fn observe(
            &mut self,
            event: &Event,
            relevant: &[PatternId],
            late: &[PatternId],
        ) -> Vec<LossRecord> {
            let mut losses = Vec::new();
            let source = event.source();
            for &(pattern, seq) in event.pattern_seqs() {
                if !relevant.contains(&pattern) {
                    continue;
                }
                let from = match self.expected.get(&(source, pattern)) {
                    None if late.contains(&pattern) => seq,
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

        fn forget_pattern(&mut self, pattern: PatternId) {
            self.expected.retain(|&(_, p), _| p != pattern);
        }
    }

    /// Cells a row holds, and how many of them are occupied.
    fn held_and_occupied(row: &Row) -> (usize, usize) {
        match row {
            Row::Dense { cells, occupied } => {
                assert_eq!(*occupied, cells.iter().filter(|&&v| v != 0).count());
                (cells.len(), *occupied)
            }
            Row::Sparse(cells) => (cells.len(), cells.len()),
        }
    }

    #[test]
    fn rows_answer_like_a_map_of_streams() {
        // Random observations, late baselines and forgotten patterns,
        // over a narrow pattern range (rows fill up and turn dense) and
        // a narrow range mixed with a wide one (a far pattern turns a
        // dense row sparse again), against an explicit map.
        forall("rows_answer_like_a_map_of_streams", 256, |rng| {
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
                    det.forget_pattern(pattern);
                    model.forget_pattern(pattern);
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
                    let late: Vec<PatternId> = patterns
                        .iter()
                        .copied()
                        .filter(|_| rng.random_bool(0.2))
                        .collect();
                    let got =
                        det.observe_with(&event, |p| relevant.contains(&p), |p| late.contains(&p));
                    assert_eq!(got, model.observe(&event, &relevant, &late), "step {step}");
                    touched.extend(patterns.iter().map(|&p| (source, p)));
                }
                assert_eq!(det.stream_count(), model.expected.len(), "step {step}");
                assert_eq!(det.detected_total(), model.detected, "step {step}");
                for &(source, pattern) in &touched {
                    let want = model.expected.get(&(source, pattern)).copied().unwrap_or(0);
                    assert_eq!(det.expected(source, pattern), want, "{source}/{pattern}");
                }
                for row in &det.rows {
                    let (held, occupied) = held_and_occupied(row);
                    assert!(
                        held <= 2 * occupied,
                        "{held} cells for {occupied} streams: {row:?}"
                    );
                }
            }
        });
    }

    #[test]
    fn rows_grow_to_any_pattern_index() {
        let mut det = LossDetector::new();
        let losses = det.observe(&ev(0, 0, &[(500, 1)]), |_| true);
        assert_eq!(losses.len(), 1);
        assert_eq!(det.expected(NodeId::new(0), PatternId::new(500)), 2);
    }
}

//! The `Lost` buffer of the pull algorithms: the set of events a
//! dispatcher knows it missed, identified by (source, pattern, seq).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use eps_overlay::NodeId;
use eps_pubsub::{Event, LossRecord, PatternId};
use eps_sim::hash::IdMap;

/// The buffer of detected-but-not-yet-recovered events.
///
/// Entries are keyed by [`LossRecord`] and carry an attempt counter so
/// that hopeless entries (events evicted from every cache) are
/// eventually given up, bounding gossip overhead. The buffer is also
/// bounded in *size*: beyond `capacity` the oldest entries are evicted
/// FIFO (counted by [`LostBuffer::evicted_total`]) — remembering more
/// losses than any cache could still serve is pure overhead, and under
/// heavy churn an unbounded buffer would grow without limit.
///
/// # Examples
///
/// ```
/// use eps_gossip::LostBuffer;
/// use eps_pubsub::{LossRecord, PatternId};
/// use eps_overlay::NodeId;
///
/// let mut lost = LostBuffer::new(20);
/// let rec = LossRecord { source: NodeId::new(0), pattern: PatternId::new(1), seq: 3 };
/// lost.add(rec);
/// assert_eq!(lost.len(), 1);
/// assert_eq!(lost.for_pattern(PatternId::new(1), 10), vec![rec]);
/// ```
#[derive(Clone, Debug)]
pub struct LostBuffer {
    /// The outstanding entries. Keyed lookups only — never iterated:
    /// every arriving event probes it once per pattern it carries,
    /// almost always for a record that is not there, and the ordered
    /// views below serve every walk.
    entries: IdMap<LossRecord, Entry>,
    /// The outstanding records by pattern; a pattern is a key only
    /// while it has entries, so the index costs O(distinct lost
    /// patterns), not O(Π), to keep and to walk. Each set iterates in
    /// (source, seq) order, so `for_pattern` and `patterns` need no
    /// full-buffer scan.
    by_pattern: BTreeMap<PatternId, BTreeSet<(NodeId, u64)>>,
    /// The same records by source, each set in (pattern, seq) order:
    /// walked in full it is (source, pattern, seq) order — what
    /// `sources`, `for_source` and `any` expose.
    by_source: BTreeMap<NodeId, BTreeSet<(PatternId, u64)>>,
    /// Insertion order for FIFO eviction. May hold stale pairs (entry
    /// recovered or abandoned since); the stamp tells them apart from
    /// a re-added live entry. Compacted once it holds more than twice
    /// `capacity` pairs, so it stays bounded even when recoveries keep
    /// the buffer from ever evicting.
    order: VecDeque<(LossRecord, u64)>,
    next_stamp: u64,
    capacity: usize,
    max_attempts: u32,
    added_total: u64,
    recovered_total: u64,
    abandoned_total: u64,
    evicted_total: u64,
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    attempts: u32,
    stamp: u64,
}

impl LostBuffer {
    /// Creates an empty buffer; entries are dropped after
    /// `max_attempts` unsuccessful gossip rounds, and capped at
    /// [`crate::DEFAULT_LOST_CAPACITY`] entries.
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts` is zero.
    pub fn new(max_attempts: u32) -> Self {
        LostBuffer::with_capacity(max_attempts, crate::config::DEFAULT_LOST_CAPACITY)
    }

    /// Creates an empty buffer holding at most `capacity` entries; the
    /// oldest are evicted FIFO beyond that.
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts` or `capacity` is zero.
    pub fn with_capacity(max_attempts: u32, capacity: usize) -> Self {
        assert!(max_attempts > 0, "max_attempts must be positive");
        assert!(capacity > 0, "capacity must be positive");
        LostBuffer {
            entries: IdMap::default(),
            by_pattern: BTreeMap::new(),
            by_source: BTreeMap::new(),
            order: VecDeque::new(),
            next_stamp: 0,
            capacity,
            max_attempts,
            added_total: 0,
            recovered_total: 0,
            abandoned_total: 0,
            evicted_total: 0,
        }
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of outstanding entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing is outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total entries ever added.
    pub fn added_total(&self) -> u64 {
        self.added_total
    }

    /// Total entries cleared because the event arrived.
    pub fn recovered_total(&self) -> u64 {
        self.recovered_total
    }

    /// Total entries dropped after exhausting their attempts.
    pub fn abandoned_total(&self) -> u64 {
        self.abandoned_total
    }

    /// Total entries evicted by the FIFO capacity bound.
    pub fn evicted_total(&self) -> u64 {
        self.evicted_total
    }

    /// Adds `record` to the ordered views.
    fn index_add(&mut self, record: &LossRecord) {
        self.by_pattern
            .entry(record.pattern)
            .or_default()
            .insert((record.source, record.seq));
        self.by_source
            .entry(record.source)
            .or_default()
            .insert((record.pattern, record.seq));
    }

    /// Removes `record` from the ordered views (it must have been
    /// indexed).
    fn index_remove(&mut self, record: &LossRecord) {
        let of_pattern = self
            .by_pattern
            .get_mut(&record.pattern)
            .expect("indexed record has a pattern set");
        of_pattern.remove(&(record.source, record.seq));
        if of_pattern.is_empty() {
            self.by_pattern.remove(&record.pattern);
        }
        let of_source = self
            .by_source
            .get_mut(&record.source)
            .expect("indexed record has a source set");
        of_source.remove(&(record.pattern, record.seq));
        if of_source.is_empty() {
            self.by_source.remove(&record.source);
        }
    }

    /// Records a detected loss. Duplicate records are ignored. Over
    /// capacity, the oldest outstanding entry is evicted to make room.
    pub fn add(&mut self, record: LossRecord) {
        if self.entries.contains_key(&record) {
            return;
        }
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.entries.insert(record, Entry { attempts: 0, stamp });
        self.index_add(&record);
        self.order.push_back((record, stamp));
        self.added_total += 1;
        while self.entries.len() > self.capacity {
            self.evict_oldest();
        }
        // Drop the stale pairs once they outnumber the capacity: at
        // most `capacity` live pairs remain, so the next compaction is
        // `capacity` adds away (amortised O(1)), and keeping the live
        // pairs in place leaves every later eviction unchanged.
        if self.order.len() > 2 * self.capacity {
            let entries = &self.entries;
            self.order
                .retain(|(record, stamp)| entries.get(record).is_some_and(|e| e.stamp == *stamp));
        }
    }

    fn evict_oldest(&mut self) {
        while let Some((record, stamp)) = self.order.pop_front() {
            // Skip stale pairs: the entry was recovered or abandoned
            // (or re-added later with a fresh stamp) since it was
            // queued.
            if self.entries.get(&record).is_some_and(|e| e.stamp == stamp) {
                self.entries.remove(&record);
                self.index_remove(&record);
                self.evicted_total += 1;
                return;
            }
        }
    }

    /// Clears every entry covered by a received event: for each
    /// (pattern, seq) the event carries, the entry
    /// (event.source, pattern, seq) is recovered.
    pub fn clear_for_event(&mut self, event: &Event) {
        for &(pattern, seq) in event.pattern_seqs() {
            let record = LossRecord {
                source: event.source(),
                pattern,
                seq,
            };
            if self.entries.remove(&record).is_some() {
                self.index_remove(&record);
                self.recovered_total += 1;
            }
        }
    }

    /// `true` if the record is still outstanding.
    pub fn contains(&self, record: &LossRecord) -> bool {
        self.entries.contains_key(record)
    }

    /// The distinct patterns with outstanding entries, ascending.
    pub fn patterns(&self) -> impl ExactSizeIterator<Item = PatternId> + '_ {
        self.by_pattern.keys().copied()
    }

    /// The distinct sources with outstanding entries, ascending.
    pub fn sources(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        self.by_source.keys().copied()
    }

    /// Selects up to `limit` outstanding entries for `pattern`,
    /// charging one attempt to each selected entry and dropping the
    /// ones that exhausted their budget (they are *not* returned).
    /// Entries come back in (source, seq) order.
    pub fn for_pattern(&mut self, pattern: PatternId, limit: usize) -> Vec<LossRecord> {
        let keys: Vec<LossRecord> = self
            .by_pattern
            .get(&pattern)
            .into_iter()
            .flatten()
            .take(limit)
            .map(|&(source, seq)| LossRecord {
                source,
                pattern,
                seq,
            })
            .collect();
        self.charge(keys)
    }

    /// Selects up to `limit` outstanding entries from `source`,
    /// charging attempts as in [`LostBuffer::for_pattern`]. Entries
    /// come back in (pattern, seq) order.
    pub fn for_source(&mut self, source: NodeId, limit: usize) -> Vec<LossRecord> {
        let keys: Vec<LossRecord> = self
            .by_source
            .get(&source)
            .into_iter()
            .flatten()
            .take(limit)
            .map(|&(pattern, seq)| LossRecord {
                source,
                pattern,
                seq,
            })
            .collect();
        self.charge(keys)
    }

    /// Selects up to `limit` outstanding entries regardless of pattern
    /// or source (used by random pull), charging attempts. Entries come
    /// back in (source, pattern, seq) order.
    pub fn any(&mut self, limit: usize) -> Vec<LossRecord> {
        let keys: Vec<LossRecord> = self
            .by_source
            .iter()
            .flat_map(|(&source, of_source)| {
                of_source.iter().map(move |&(pattern, seq)| LossRecord {
                    source,
                    pattern,
                    seq,
                })
            })
            .take(limit)
            .collect();
        self.charge(keys)
    }

    fn charge(&mut self, keys: Vec<LossRecord>) -> Vec<LossRecord> {
        let mut out = Vec::with_capacity(keys.len());
        for key in keys {
            let entry = self
                .entries
                .get_mut(&key)
                .expect("selected keys are present");
            entry.attempts += 1;
            if entry.attempts >= self.max_attempts {
                self.entries.remove(&key);
                self.index_remove(&key);
                self.abandoned_total += 1;
            }
            out.push(key);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eps_pubsub::EventId;
    use eps_sim::check::forall;

    fn rec(source: u32, pattern: u16, seq: u64) -> LossRecord {
        LossRecord {
            source: NodeId::new(source),
            pattern: PatternId::new(pattern),
            seq,
        }
    }

    /// A record over `ids` sources and patterns, seqs below `seqs`.
    fn random_rec(rng: &mut eps_sim::Rng, ids: u32, seqs: u64) -> LossRecord {
        let (source, pattern) = (rng.random_range(0..ids), rng.random_range(0..ids));
        rec(source, pattern as u16, rng.random_below(seqs))
    }

    /// The single-pattern event whose arrival recovers `r`.
    fn event_for(r: LossRecord) -> Event {
        Event::new(EventId::new(r.source, r.seq), vec![(r.pattern, r.seq)])
    }

    fn patterns(lost: &LostBuffer) -> Vec<u16> {
        lost.patterns().map(PatternId::value).collect()
    }

    fn sources(lost: &LostBuffer) -> Vec<usize> {
        lost.sources().map(NodeId::index).collect()
    }

    #[test]
    fn add_is_idempotent() {
        let mut lost = LostBuffer::new(10);
        lost.add(rec(0, 1, 2));
        lost.add(rec(0, 1, 2));
        assert_eq!(lost.len(), 1);
        assert_eq!(lost.added_total(), 1);
    }

    #[test]
    fn clear_for_event_removes_covered_entries() {
        let mut lost = LostBuffer::new(10);
        lost.add(rec(0, 1, 2));
        lost.add(rec(0, 2, 5));
        lost.add(rec(0, 1, 3));
        let event = Event::new(
            EventId::new(NodeId::new(0), 9),
            vec![(PatternId::new(1), 2), (PatternId::new(2), 5)],
        );
        lost.clear_for_event(&event);
        assert_eq!(lost.len(), 1);
        assert!(lost.contains(&rec(0, 1, 3)));
        assert_eq!(lost.recovered_total(), 2);
    }

    #[test]
    fn selection_by_pattern_and_source() {
        let mut lost = LostBuffer::new(10);
        lost.add(rec(0, 1, 0));
        lost.add(rec(0, 2, 0));
        lost.add(rec(3, 1, 4));
        assert_eq!(
            lost.for_pattern(PatternId::new(1), 10),
            vec![rec(0, 1, 0), rec(3, 1, 4)]
        );
        assert_eq!(lost.for_source(NodeId::new(3), 10), vec![rec(3, 1, 4)]);
        assert_eq!(patterns(&lost), [1, 2]);
        assert_eq!(sources(&lost), [0, 3]);
    }

    #[test]
    fn limit_caps_selection() {
        let mut lost = LostBuffer::new(100);
        for seq in 0..10 {
            lost.add(rec(0, 1, seq));
        }
        assert_eq!(lost.for_pattern(PatternId::new(1), 3).len(), 3);
        assert_eq!(lost.any(4).len(), 4);
    }

    #[test]
    fn entries_are_abandoned_after_max_attempts() {
        // Every entry is selectable exactly `max_attempts` times: the
        // last attempt still returns it, then drops it.
        forall("entries_are_abandoned_after_max_attempts", 256, |rng| {
            let max_attempts = rng.random_range(1..6u32);
            let mut lost = LostBuffer::new(max_attempts);
            for _ in 0..rng.random_range(1..40usize) {
                lost.add(random_rec(rng, 4, 20));
            }
            let entries = lost.len();
            for attempt in 1..=max_attempts {
                assert_eq!(lost.len(), entries, "dropped before attempt {attempt}");
                assert_eq!(lost.any(entries).len(), entries);
            }
            assert!(lost.is_empty());
            assert_eq!(lost.abandoned_total(), entries as u64);
        });
    }

    #[test]
    fn recovered_entries_stop_being_selected() {
        let mut lost = LostBuffer::new(10);
        lost.add(rec(0, 1, 0));
        let event = Event::new(
            EventId::new(NodeId::new(0), 0),
            vec![(PatternId::new(1), 0)],
        );
        lost.clear_for_event(&event);
        assert!(lost.for_pattern(PatternId::new(1), 10).is_empty());
    }

    #[test]
    fn capacity_evicts_oldest_first() {
        let mut lost = LostBuffer::with_capacity(10, 3);
        for seq in 0..5 {
            lost.add(rec(0, 1, seq));
        }
        assert_eq!(lost.len(), 3);
        assert_eq!(lost.evicted_total(), 2);
        // The two oldest are gone, the three newest remain.
        assert!(!lost.contains(&rec(0, 1, 0)));
        assert!(!lost.contains(&rec(0, 1, 1)));
        assert!(lost.contains(&rec(0, 1, 2)));
        assert!(lost.contains(&rec(0, 1, 4)));
    }

    #[test]
    fn recovered_entries_do_not_count_against_capacity() {
        let mut lost = LostBuffer::with_capacity(10, 2);
        lost.add(rec(0, 1, 0));
        lost.add(rec(0, 1, 1));
        let event = Event::new(
            EventId::new(NodeId::new(0), 0),
            vec![(PatternId::new(1), 0)],
        );
        lost.clear_for_event(&event);
        // Room was freed: adding two more evicts only when full again.
        lost.add(rec(0, 1, 2));
        assert_eq!(lost.len(), 2);
        assert_eq!(lost.evicted_total(), 0);
        lost.add(rec(0, 1, 3));
        assert_eq!(lost.len(), 2);
        assert_eq!(lost.evicted_total(), 1);
        // The stale queue pair for the recovered seq 0 must not have
        // shielded seq 1 from eviction.
        assert!(!lost.contains(&rec(0, 1, 1)));
    }

    #[test]
    fn readded_entry_counts_as_fresh_for_eviction() {
        let mut lost = LostBuffer::with_capacity(10, 2);
        lost.add(rec(0, 1, 0));
        let event = Event::new(
            EventId::new(NodeId::new(0), 0),
            vec![(PatternId::new(1), 0)],
        );
        lost.clear_for_event(&event);
        // Lost again (e.g. after churn): re-added with a fresh stamp.
        lost.add(rec(0, 1, 0));
        lost.add(rec(0, 1, 1));
        lost.add(rec(0, 1, 2));
        // FIFO over *current* insertions: seq 0 (re-added first) goes.
        assert_eq!(lost.len(), 2);
        assert!(!lost.contains(&rec(0, 1, 0)));
        assert!(lost.contains(&rec(0, 1, 1)));
        assert!(lost.contains(&rec(0, 1, 2)));
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        LostBuffer::with_capacity(10, 0);
    }

    #[test]
    fn indexes_stay_exact_across_recover_abandon_evict() {
        let mut lost = LostBuffer::with_capacity(2, 4);
        for (s, p, q) in [(0, 1, 0), (0, 2, 1), (3, 1, 4), (3, 3, 0), (5, 2, 9)] {
            lost.add(rec(s, p, q)); // 5th add evicts the oldest
        }
        assert_eq!(lost.evicted_total(), 1);
        assert_eq!(patterns(&lost), [1, 2, 3]);
        assert_eq!(sources(&lost), [0, 3, 5]);
        // Recover one entry: its pattern had only that entry left.
        let event = Event::new(
            EventId::new(NodeId::new(3), 0),
            vec![(PatternId::new(3), 0)],
        );
        lost.clear_for_event(&event);
        assert_eq!(patterns(&lost), [1, 2]);
        // Abandon p2 entries via attempts (max_attempts = 2).
        lost.for_pattern(PatternId::new(2), 10);
        lost.for_pattern(PatternId::new(2), 10);
        assert_eq!(patterns(&lost), [1]);
        assert_eq!(sources(&lost), [3]);
        assert_eq!(lost.for_source(NodeId::new(3), 10), vec![rec(3, 1, 4)]);
    }

    #[test]
    fn outstanding_is_added_minus_cleared() {
        forall("outstanding_is_added_minus_cleared", 256, |rng| {
            let mut lost = LostBuffer::new(u32::MAX);
            let mut model = std::collections::BTreeSet::new();
            for _ in 0..rng.random_range(0..100usize) {
                let r = random_rec(rng, 5, 10);
                lost.add(r);
                model.insert(r);
            }
            for _ in 0..rng.random_range(0..100usize) {
                let r = random_rec(rng, 5, 10);
                lost.clear_for_event(&event_for(r));
                model.remove(&r);
            }
            assert_eq!(lost.len(), model.len());
            assert!(model.iter().all(|r| lost.contains(r)));
        });
    }

    #[test]
    fn the_eviction_queue_stays_bounded_when_recoveries_keep_up() {
        // Every loss is recovered before the next: the buffer never
        // fills, so it never evicts, and only compaction retires the
        // stale queue pairs.
        let mut lost = LostBuffer::with_capacity(10, 8);
        for seq in 0..10_000 {
            let r = rec(0, 1, seq);
            lost.add(r);
            lost.clear_for_event(&event_for(r));
        }
        assert_eq!(lost.evicted_total(), 0);
        assert!(
            lost.order.len() <= 16,
            "{} queued pairs for {} live entries",
            lost.order.len(),
            lost.len()
        );
    }

    /// The buffer as one ordered map of its outstanding entries, each
    /// walk a filter or a prefix of it: what the ordered views must
    /// reproduce record for record, since digest contents and eviction
    /// order are output.
    struct Reference {
        /// Record → (attempts, insertion stamp).
        entries: BTreeMap<LossRecord, (u32, u64)>,
        next_stamp: u64,
        capacity: usize,
        max_attempts: u32,
        /// Added, recovered, abandoned, evicted.
        totals: [u64; 4],
    }

    impl Reference {
        fn add(&mut self, record: LossRecord) {
            if self.entries.contains_key(&record) {
                return;
            }
            self.entries.insert(record, (0, self.next_stamp));
            self.next_stamp += 1;
            self.totals[0] += 1;
            if self.entries.len() > self.capacity {
                let oldest = self.entries.iter().min_by_key(|(_, &(_, stamp))| stamp);
                let oldest = *oldest.expect("over capacity means non-empty").0;
                self.entries.remove(&oldest);
                self.totals[3] += 1;
            }
        }

        fn clear_for_event(&mut self, event: &Event) {
            for &(pattern, seq) in event.pattern_seqs() {
                let record = LossRecord {
                    source: event.source(),
                    pattern,
                    seq,
                };
                if self.entries.remove(&record).is_some() {
                    self.totals[1] += 1;
                }
            }
        }

        fn select(&mut self, keep: impl Fn(&LossRecord) -> bool, limit: usize) -> Vec<LossRecord> {
            let keys: Vec<LossRecord> = self
                .entries
                .keys()
                .copied()
                .filter(keep)
                .take(limit)
                .collect();
            for key in &keys {
                let attempts = &mut self.entries.get_mut(key).expect("selected").0;
                *attempts += 1;
                if *attempts >= self.max_attempts {
                    self.entries.remove(key);
                    self.totals[2] += 1;
                }
            }
            keys
        }

        fn patterns(&self) -> Vec<u16> {
            let set: BTreeSet<u16> = self.entries.keys().map(|r| r.pattern.value()).collect();
            set.into_iter().collect()
        }

        fn sources(&self) -> Vec<usize> {
            let set: BTreeSet<usize> = self.entries.keys().map(|r| r.source.index()).collect();
            set.into_iter().collect()
        }
    }

    #[test]
    fn ordered_views_match_one_ordered_map() {
        forall("lost_ordered_views_match_one_ordered_map", 256, |rng| {
            let capacity = rng.random_range(1..16usize);
            let max_attempts = rng.random_range(1..5u32);
            let mut lost = LostBuffer::with_capacity(max_attempts, capacity);
            let mut reference = Reference {
                entries: BTreeMap::new(),
                next_stamp: 0,
                capacity,
                max_attempts,
                totals: [0; 4],
            };
            for _ in 0..rng.random_range(1..300usize) {
                let limit = rng.random_range(1..8usize);
                let (source, pattern) = (rng.random_range(0..4u32), rng.random_range(0..4u16));
                match rng.random_below(5) {
                    0 | 1 => {
                        let r = random_rec(rng, 4, 12);
                        lost.add(r);
                        reference.add(r);
                    }
                    2 => {
                        // A multi-pattern event clears one record per
                        // pattern it carries.
                        let seqs: Vec<(PatternId, u64)> = (0..4u16)
                            .filter_map(|p| {
                                let seq = rng.random_below(12);
                                rng.random_bool(0.5).then_some((PatternId::new(p), seq))
                            })
                            .collect();
                        if seqs.is_empty() {
                            continue;
                        }
                        let event = Event::new(EventId::new(NodeId::new(source), 0), seqs);
                        lost.clear_for_event(&event);
                        reference.clear_for_event(&event);
                    }
                    3 => {
                        let p = PatternId::new(pattern);
                        assert_eq!(
                            lost.for_pattern(p, limit),
                            reference.select(|r| r.pattern == p, limit)
                        );
                    }
                    _ if rng.random_bool(0.5) => {
                        let s = NodeId::new(source);
                        assert_eq!(
                            lost.for_source(s, limit),
                            reference.select(|r| r.source == s, limit)
                        );
                    }
                    _ => assert_eq!(lost.any(limit), reference.select(|_| true, limit)),
                }
                assert_eq!(lost.len(), reference.entries.len());
                assert_eq!(patterns(&lost), reference.patterns());
                assert_eq!(sources(&lost), reference.sources());
                let totals = [
                    lost.added_total(),
                    lost.recovered_total(),
                    lost.abandoned_total(),
                    lost.evicted_total(),
                ];
                assert_eq!(totals, reference.totals);
            }
        });
    }

    #[test]
    fn capacity_holds_and_every_add_is_accounted_for() {
        // The bound is an invariant, not a hint: under any interleaving
        // of adds, event-driven clears and selections the buffer never
        // holds more than `cap`, and each added record is outstanding,
        // recovered, abandoned, or evicted.
        forall(
            "capacity_holds_and_every_add_is_accounted_for",
            256,
            |rng| {
                let cap = rng.random_range(1..12usize);
                let mut lost = LostBuffer::with_capacity(rng.random_range(1..4u32), cap);
                for _ in 0..rng.random_range(0..200usize) {
                    let r = random_rec(rng, 3, 30);
                    match rng.random_below(3) {
                        0 => lost.add(r),
                        1 => lost.clear_for_event(&event_for(r)),
                        _ => drop(lost.any(3)),
                    }
                    assert!(lost.len() <= cap, "len {} exceeds {cap}", lost.len());
                }
                assert_eq!(lost.capacity(), cap);
                assert_eq!(
                    lost.added_total(),
                    lost.len() as u64
                        + lost.recovered_total()
                        + lost.abandoned_total()
                        + lost.evicted_total()
                );
            },
        );
    }
}

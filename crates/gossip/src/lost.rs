//! The `Lost` buffer of the pull algorithms: the set of events a
//! dispatcher knows it missed, identified by (source, pattern, seq).

use std::collections::btree_map::{self, BTreeMap};
use std::collections::VecDeque;
use std::ops::RangeInclusive;

use eps_overlay::NodeId;
use eps_pubsub::{Event, LossRecord, PatternId};

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
/// The entries are one map ordered by (pattern, source, seq), so each
/// add or removal is one probe however full the buffer runs and every
/// selector walks runs of it; beside it sit the entry counts per
/// pattern and per source.
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
    /// The outstanding entries by packed record (see `pack`).
    entries: BTreeMap<u128, Entry>,
    /// The patterns with outstanding entries, ascending, with their
    /// entry counts: only a locally subscribed pattern can have a loss,
    /// so an arriving event's other patterns skip the entries' probe.
    patterns: Vec<(PatternId, u32)>,
    /// The sources with outstanding entries, ascending, with their
    /// entry counts: `sources()` without a walk of the entries.
    sources: Vec<(NodeId, u32)>,
    /// Insertion order for FIFO eviction, with stale pairs (entry gone
    /// or re-added since) told apart by stamp, and compacted once they
    /// outnumber `max(len, 16)`.
    order: VecDeque<(u128, u64)>,
    next_stamp: u64,
    capacity: usize,
    max_attempts: u32,
    evicted_total: u64,
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    stamp: u64,
    attempts: u32,
}

/// A record as one integer ordered by (pattern, source, seq):
/// comparing two `u128`s is cheaper than a field-by-field `Ord`.
fn pack(pattern: PatternId, source: NodeId, seq: u64) -> u128 {
    (u128::from(pattern.value()) << 96) | (u128::from(source.value()) << 64) | u128::from(seq)
}

fn unpack(key: u128) -> LossRecord {
    LossRecord {
        source: NodeId::new((key >> 64) as u32),
        pattern: PatternId::new((key >> 96) as u16),
        seq: key as u64,
    }
}

/// The keys of `source`'s entries under `pattern`, ascending by seq.
fn run(pattern: PatternId, source: NodeId) -> RangeInclusive<u128> {
    pack(pattern, source, 0)..=pack(pattern, source, u64::MAX)
}

/// Charges one attempt to each of the first `limit` entries of `runs`,
/// walked in order, and returns their records and the keys of those
/// that exhausted `max_attempts`.
fn charge(
    entries: &mut BTreeMap<u128, Entry>,
    max_attempts: u32,
    runs: impl Iterator<Item = RangeInclusive<u128>>,
    limit: usize,
) -> (Vec<LossRecord>, Vec<u128>) {
    let (mut out, mut exhausted) = (Vec::new(), Vec::new());
    for run in runs {
        for (&key, entry) in entries.range_mut(run).take(limit - out.len()) {
            out.push(unpack(key));
            entry.attempts += 1;
            if entry.attempts >= max_attempts {
                exhausted.push(key);
            }
        }
        if out.len() == limit {
            break;
        }
    }
    (out, exhausted)
}

/// Counts one entry more (`up`) or less under `key` in the ascending
/// `counts`, which hold a pair only for a key with entries.
fn count<K: Ord>(counts: &mut Vec<(K, u32)>, key: K, up: bool) {
    match (counts.binary_search_by(|(k, _)| k.cmp(&key)), up) {
        (Ok(i), true) => counts[i].1 += 1,
        (Err(i), true) => counts.insert(i, (key, 1)),
        (Ok(i), false) if counts[i].1 > 1 => counts[i].1 -= 1,
        (Ok(i), false) => drop(counts.remove(i)),
        (Err(_), false) => unreachable!("an outstanding entry is counted"),
    }
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
            entries: BTreeMap::new(),
            patterns: Vec::new(),
            sources: Vec::new(),
            order: VecDeque::new(),
            next_stamp: 0,
            capacity,
            max_attempts,
            evicted_total: 0,
        }
    }

    /// Number of outstanding entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing is outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total entries evicted by the FIFO capacity bound.
    pub fn evicted_total(&self) -> u64 {
        self.evicted_total
    }

    /// Removes `key`'s entry if it is outstanding (and still the one
    /// queued with `stamp`, if given), and uncounts it.
    fn remove(&mut self, key: u128, stamp: Option<u64>) -> bool {
        let btree_map::Entry::Occupied(entry) = self.entries.entry(key) else {
            return false;
        };
        if stamp.is_some_and(|stamp| entry.get().stamp != stamp) {
            return false;
        }
        entry.remove();
        let record = unpack(key);
        count(&mut self.patterns, record.pattern, false);
        count(&mut self.sources, record.source, false);
        true
    }

    /// Records a detected loss. Duplicate records are ignored. Over
    /// capacity, the oldest outstanding entry is evicted to make room.
    pub fn add(&mut self, record: LossRecord) {
        let key = pack(record.pattern, record.source, record.seq);
        let btree_map::Entry::Vacant(slot) = self.entries.entry(key) else {
            return;
        };
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        slot.insert(Entry { stamp, attempts: 0 });
        count(&mut self.patterns, record.pattern, true);
        count(&mut self.sources, record.source, true);
        self.order.push_back((key, stamp));
        if self.entries.len() > self.capacity {
            self.evict_oldest();
        }
        // Each compaction removes over half the queue (amortised over
        // the adds that queued it) and keeps the live pairs in order.
        if self.order.len() > 2 * self.entries.len().max(16) {
            let mut order = std::mem::take(&mut self.order);
            order.retain(|(key, stamp)| self.entries.get(key).is_some_and(|e| e.stamp == *stamp));
            self.order = order;
        }
    }

    fn evict_oldest(&mut self) {
        while let Some((key, stamp)) = self.order.pop_front() {
            // A stale pair removes nothing: the next one is tried.
            if self.remove(key, Some(stamp)) {
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
            let outstanding = self.patterns.binary_search_by_key(&pattern, |&(p, _)| p);
            if outstanding.is_ok() {
                self.remove(pack(pattern, event.source(), seq), None);
            }
        }
    }

    /// `true` if the record is still outstanding.
    pub fn contains(&self, record: &LossRecord) -> bool {
        (self.entries).contains_key(&pack(record.pattern, record.source, record.seq))
    }

    /// The distinct patterns with outstanding entries, ascending.
    pub fn patterns(&self) -> impl ExactSizeIterator<Item = PatternId> + '_ {
        self.patterns.iter().map(|&(pattern, _)| pattern)
    }

    /// The distinct sources with outstanding entries, ascending.
    pub fn sources(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        self.sources.iter().map(|&(source, _)| source)
    }

    /// Selects up to `limit` outstanding entries for `pattern`,
    /// charging one attempt to each selected entry and dropping the
    /// ones that exhausted their budget (they are *not* returned).
    /// Entries come back in (source, seq) order: one run of the map.
    pub fn for_pattern(&mut self, pattern: PatternId, limit: usize) -> Vec<LossRecord> {
        let first = u128::from(pattern.value()) << 96;
        let runs = std::iter::once(first..=first | ((1 << 96) - 1));
        let (out, exhausted) = charge(&mut self.entries, self.max_attempts, runs, limit);
        self.abandon(exhausted);
        out
    }

    /// Selects up to `limit` outstanding entries from `source`,
    /// charging attempts as in [`LostBuffer::for_pattern`]. Entries
    /// come back in (pattern, seq) order: one run per outstanding
    /// pattern.
    pub fn for_source(&mut self, source: NodeId, limit: usize) -> Vec<LossRecord> {
        let runs = (self.patterns.iter()).map(|&(pattern, _)| run(pattern, source));
        let (out, exhausted) = charge(&mut self.entries, self.max_attempts, runs, limit);
        self.abandon(exhausted);
        out
    }

    /// Selects up to `limit` outstanding entries regardless of pattern
    /// or source (used by random pull), charging attempts. Entries come
    /// back in (source, pattern, seq) order: the runs of each
    /// outstanding source in turn.
    pub fn any(&mut self, limit: usize) -> Vec<LossRecord> {
        let patterns = &self.patterns;
        let runs = (self.sources.iter())
            .flat_map(|&(source, _)| patterns.iter().map(move |&(p, _)| run(p, source)));
        let (out, exhausted) = charge(&mut self.entries, self.max_attempts, runs, limit);
        self.abandon(exhausted);
        out
    }

    /// Drops the entries a selection exhausted.
    fn abandon(&mut self, exhausted: Vec<u128>) {
        for key in exhausted {
            self.remove(key, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eps_pubsub::EventId;
    use eps_sim::check::forall;
    use std::collections::{BTreeMap, BTreeSet};

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
            // Abandoned, every one: none was evicted.
            assert!(lost.is_empty());
            assert_eq!(lost.evicted_total(), 0);
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
        // stale queue pairs. The queue follows the live count (at most
        // one here), not the capacity of 1500.
        let mut lost = LostBuffer::new(10);
        for seq in 0..10_000 {
            let r = rec(0, 1, seq);
            lost.add(r);
            assert!(
                lost.order.len() <= 2 * 16,
                "{} queued pairs for {} live entries",
                lost.order.len(),
                lost.len()
            );
            lost.clear_for_event(&event_for(r));
        }
        assert_eq!(lost.evicted_total(), 0);
    }

    #[test]
    fn the_eviction_queue_follows_the_live_count_down() {
        // A full buffer recovers all but a handful: the next add
        // compacts the queue to the live pairs, and eviction still
        // takes the oldest of them.
        let mut lost = LostBuffer::with_capacity(10, 64);
        for seq in 0..64 {
            lost.add(rec(0, 1, seq));
        }
        for seq in 3..64 {
            lost.clear_for_event(&event_for(rec(0, 1, seq)));
        }
        assert_eq!((lost.len(), lost.order.len()), (3, 64));
        lost.add(rec(1, 1, 0));
        assert_eq!((lost.len(), lost.order.len()), (4, 4));
        for seq in 1..=60 {
            lost.add(rec(1, 1, seq));
        }
        assert_eq!(lost.len(), 64);
        lost.add(rec(2, 1, 0));
        assert_eq!(lost.evicted_total(), 1);
        assert!(!lost.contains(&rec(0, 1, 0)), "the oldest entry goes");
        assert!(lost.contains(&rec(0, 1, 1)));
    }

    /// The buffer as one ordered map of its outstanding entries, each
    /// walk a filter or a prefix of it: what the packed entry map, the
    /// pattern counts and the eviction queue must reproduce record for
    /// record, since digest contents and eviction order are output.
    struct Reference {
        /// Record → (attempts, insertion stamp).
        entries: BTreeMap<LossRecord, (u32, u64)>,
        next_stamp: u64,
        capacity: usize,
        max_attempts: u32,
        evicted: u64,
    }

    impl Reference {
        fn add(&mut self, record: LossRecord) {
            if self.entries.contains_key(&record) {
                return;
            }
            self.entries.insert(record, (0, self.next_stamp));
            self.next_stamp += 1;
            if self.entries.len() > self.capacity {
                let oldest = self.entries.iter().min_by_key(|(_, &(_, stamp))| stamp);
                let oldest = *oldest.expect("over capacity means non-empty").0;
                self.entries.remove(&oldest);
                self.evicted += 1;
            }
        }

        fn clear_for_event(&mut self, event: &Event) {
            for &(pattern, seq) in event.pattern_seqs() {
                let record = LossRecord {
                    source: event.source(),
                    pattern,
                    seq,
                };
                self.entries.remove(&record);
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
                evicted: 0,
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
                assert!(reference.entries.keys().all(|r| lost.contains(r)));
                let probe = random_rec(rng, 4, 12);
                assert_eq!(
                    lost.contains(&probe),
                    reference.entries.contains_key(&probe)
                );
                assert_eq!(patterns(&lost), reference.patterns());
                assert_eq!(sources(&lost), reference.sources());
                assert_eq!(lost.evicted_total(), reference.evicted);
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
                // Fresh records added; entries gone by a clear or a
                // selection (recovered or abandoned).
                let (mut added, mut cleared) = (0, 0);
                for _ in 0..rng.random_range(0..200usize) {
                    let r = random_rec(rng, 3, 30);
                    let before = lost.len() as u64;
                    match rng.random_below(3) {
                        0 => {
                            added += u64::from(!lost.contains(&r));
                            lost.add(r);
                        }
                        1 => lost.clear_for_event(&event_for(r)),
                        _ => drop(lost.any(3)),
                    }
                    cleared += before.saturating_sub(lost.len() as u64);
                    assert!(lost.len() <= cap, "len {} exceeds {cap}", lost.len());
                }
                assert_eq!(added, lost.len() as u64 + cleared + lost.evicted_total());
            },
        );
    }
}

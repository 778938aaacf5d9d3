//! Hash-range summary trees over cached event ids (ROADMAP item 2).
//!
//! The paper's push/pull digests re-announce the cache linearly, so
//! anti-entropy wire bytes grow O(C) with cache size. This module
//! provides the substrate for *summary reconciliation*: every cached
//! [`EventId`] is hashed by a fixed 64-bit mixer into a key space that
//! is carved into a radix tree of ranges (fanout 16, six levels). Each
//! range has an order-independent aggregate — the count of resident
//! ids and the XOR of their mixed hashes — so two caches can compare a
//! single root [`RangeSummary`] in O(1) bytes and recurse only into the
//! ranges that differ, reaching O(log C + Δ) for Δ differing events.
//!
//! XOR makes removal the same operation as insertion, and makes the
//! aggregate independent of insertion order — the property that lets
//! two independently grown caches agree byte-for-byte on identical
//! content. So only the root aggregate is stored: [`SummaryIndex`]
//! keeps it per pattern, updated in O(1) on every add and remove, and
//! every round's root digest is a read. Below the root nothing is
//! stored. The recorded ids sit in one ordered map keyed by (pattern,
//! leaf range, admission number), so any deeper range of a pattern is
//! a contiguous run of that map, in (leaf, admission) order, and its
//! aggregate is a count and an XOR over the run. Deeper ranges are
//! asked for only after a root mismatch. A cache keeps one index over
//! its live ids and, for pull-mode reconciliation, one over every id it
//! ever admitted, which eviction never removes from
//! ([`crate::CacheIndexes`]).
//!
//! Every exposed iteration (children of a range, ids inside a range)
//! follows the map's order, never a hash map's — a requirement for the
//! byte-identical golden runs.

use std::collections::BTreeMap;

use eps_sim::hash::IdMap;

use crate::event::EventId;
use crate::pattern::PatternId;

/// log₂ of the tree fanout: each level refines a range into 16
/// children, consuming 4 more bits of the mixed hash.
pub const FANOUT_BITS: u32 = 4;

/// The tree fanout (children per non-leaf range).
pub const FANOUT: u32 = 1 << FANOUT_BITS;

/// The deepest level. Levels run 0 (root) ..= [`LEAF_LEVEL`]; a leaf
/// range is addressed by the top `FANOUT_BITS * LEAF_LEVEL` = 20 bits
/// of the mixed hash, giving 2²⁰ leaf ranges — enough that even a 10⁶
/// event cache averages ≲ 1 id per leaf.
pub const LEAF_LEVEL: u8 = 5;

/// Number of levels in the tree (root plus [`LEAF_LEVEL`] refinements).
pub const LEVEL_COUNT: usize = LEAF_LEVEL as usize + 1;

/// Mixes an event id into the 64-bit summary key space.
///
/// A splitmix64-style finalizer over the (source, seq) pair: cheap,
/// dependency-free, and avalanching — sequential seq values from one
/// source land in unrelated ranges, so hot publishers do not skew the
/// tree. Both sides of a reconciliation must use this exact function;
/// it is part of the wire contract of the summary digests.
pub(crate) fn mix_event_id(id: EventId) -> u64 {
    let mut z = ((id.source().value() as u64) << 32) ^ id.seq();
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Address of one range of the tree: a level and the index of the
/// range within that level (the top `FANOUT_BITS * level` bits of the
/// mixed hash).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RangeRef {
    level: u8,
    index: u32,
}

impl RangeRef {
    /// The root range covering the whole key space.
    pub const ROOT: RangeRef = RangeRef { level: 0, index: 0 };

    /// Creates a range reference.
    ///
    /// # Panics
    ///
    /// Panics if `level` exceeds [`LEAF_LEVEL`] or `index` is out of
    /// range for the level.
    pub fn new(level: u8, index: u32) -> Self {
        assert!(level <= LEAF_LEVEL, "range level {level} too deep");
        assert!(
            (index as u64) < 1u64 << (FANOUT_BITS * level as u32),
            "range index {index} out of range for level {level}"
        );
        RangeRef { level, index }
    }

    /// The level of this range (0 = root).
    pub const fn level(self) -> u8 {
        self.level
    }

    /// The index of this range within its level.
    pub const fn index(self) -> u32 {
        self.index
    }

    /// `true` if this range cannot be refined further.
    pub const fn is_leaf(self) -> bool {
        self.level == LEAF_LEVEL
    }

    /// The range containing `hash` at the given level.
    pub fn of(hash: u64, level: u8) -> Self {
        assert!(level <= LEAF_LEVEL, "range level {level} too deep");
        RangeRef {
            level,
            index: index_at(hash, level),
        }
    }

    /// The `i`-th child of this range (`i < `[`FANOUT`]).
    pub fn child(self, i: u32) -> Self {
        assert!(!self.is_leaf(), "leaf ranges have no children");
        assert!(i < FANOUT, "child index {i} out of range");
        RangeRef {
            level: self.level + 1,
            index: (self.index << FANOUT_BITS) | i,
        }
    }

    /// `true` if `hash` falls inside this range.
    pub fn contains(self, hash: u64) -> bool {
        index_at(hash, self.level) == self.index
    }

    /// The span of leaf-range indices covered by this range:
    /// `start..end`.
    fn leaf_span(self) -> (u32, u32) {
        let shift = FANOUT_BITS * (LEAF_LEVEL - self.level) as u32;
        (self.index << shift, (self.index + 1) << shift)
    }
}

impl std::fmt::Display for RangeRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "L{}/{:#x}", self.level, self.index)
    }
}

/// The order-independent aggregate of one range: how many ids it holds
/// and the XOR of their mixed hashes. Two ranges with equal summaries
/// hold the same id set (up to a 2⁻⁶⁴ collision, which the count
/// further guards).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RangeSummary {
    /// The range being summarized.
    pub range: RangeRef,
    /// Number of ids resident in the range.
    pub count: u64,
    /// XOR of the mixed hashes of the resident ids (0 when empty).
    pub hash: u64,
}

impl RangeSummary {
    /// The summary of an empty range.
    pub fn empty(range: RangeRef) -> Self {
        RangeSummary {
            range,
            count: 0,
            hash: 0,
        }
    }
}

/// A fully expanded range: the complete list of event ids a gossiper
/// holds inside it, in (leaf, admission) order of the index it was read
/// from (the live index in push mode, the seen index in pull mode);
/// receivers read the list as a set. Sent when a range is
/// small enough that listing beats further recursion — including the
/// empty list, which tells the receiver the gossiper has *nothing*
/// there (pull mode needs that to reply with its surplus).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RangeDetail {
    /// The range being expanded.
    pub range: RangeRef,
    /// Every id the sender holds in the range.
    pub ids: Vec<EventId>,
}

/// A range's count and XOR of mixed hashes.
#[derive(Clone, Copy, Default, Debug)]
struct RangeAgg {
    count: u64,
    hash: u64,
}

impl RangeAgg {
    fn add(&mut self, hash: u64) {
        self.count += 1;
        self.hash ^= hash;
    }

    fn summary(self, range: RangeRef) -> RangeSummary {
        RangeSummary {
            range,
            count: self.count,
            hash: self.hash,
        }
    }
}

/// The hash-range trees maintained by [`crate::EventCache`], one per
/// pattern with at least one cached event. An event carrying k
/// patterns is resident in k trees, exactly mirroring
/// [`crate::EventCache::ids_matching`].
///
/// Insert and remove are one ordered-map update plus one root update
/// each — the index rides along with the cache instead of being
/// rebuilt per gossip round.
#[derive(Clone, Default, Debug)]
pub struct SummaryIndex {
    /// Allocated on the first add: an index that has never recorded an
    /// id is one pointer wide, so every cache can carry the field and
    /// building one allocates nothing.
    maps: Option<Box<Maps>>,
}

#[derive(Clone, Default, Debug)]
struct Maps {
    /// Every resident (pattern, id) pair, keyed by (pattern, leaf range
    /// index, admission number): a range is a run of this map, in leaf
    /// then insertion order.
    ids: BTreeMap<(PatternId, u32, u64), EventId>,
    /// Each pattern's root aggregate. Only patterns with a resident id
    /// have one; the map is probed, never iterated.
    roots: IdMap<PatternId, RangeAgg>,
    /// Admissions so far, numbering the next one.
    admitted: u64,
}

impl Maps {
    /// The map key of a recorded pair: a scan of its leaf's run, which
    /// averages well under one id below 10⁶ resident ids.
    fn key_of(&self, pattern: PatternId, id: EventId) -> Option<(PatternId, u32, u64)> {
        let leaf = index_at(mix_event_id(id), LEAF_LEVEL);
        self.ids
            .range((pattern, leaf, 0)..=(pattern, leaf, u64::MAX))
            .find(|&(_, &x)| x == id)
            .map(|(&key, _)| key)
    }
}

impl SummaryIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        SummaryIndex::default()
    }

    /// Records `id` under `pattern`. The caller must not add the same
    /// pair twice without removing it in between.
    pub fn add(&mut self, pattern: PatternId, id: EventId) {
        let maps = self.maps.get_or_insert_with(Box::default);
        let h = mix_event_id(id);
        maps.ids
            .insert((pattern, index_at(h, LEAF_LEVEL), maps.admitted), id);
        maps.admitted += 1;
        maps.roots.entry(pattern).or_default().add(h);
    }

    /// Removes `id` from `pattern`'s tree. Removing a pair that is not
    /// recorded is a no-op that panics in debug builds.
    pub fn remove(&mut self, pattern: PatternId, id: EventId) {
        let key = self
            .maps
            .as_deref()
            .and_then(|maps| maps.key_of(pattern, id));
        debug_assert!(key.is_some(), "removing {id} from a summary that lacks it");
        let (Some(key), Some(maps)) = (key, self.maps.as_deref_mut()) else {
            return;
        };
        maps.ids.remove(&key);
        let root = maps
            .roots
            .get_mut(&pattern)
            .expect("root aggregate present for resident id");
        // XOR is its own inverse.
        root.count -= 1;
        root.hash ^= mix_event_id(id);
        if root.count == 0 {
            maps.roots.remove(&pattern);
        }
    }

    /// The resident ids of `pattern` inside `range`, in (leaf index,
    /// insertion) order.
    fn run(&self, pattern: PatternId, range: RangeRef) -> impl Iterator<Item = EventId> + '_ {
        let (start, end) = range.leaf_span();
        self.maps
            .iter()
            .flat_map(move |maps| maps.ids.range((pattern, start, 0)..(pattern, end, 0)))
            .map(|(_, &id)| id)
    }

    /// The root summary for `pattern` (empty if nothing is cached).
    pub fn root(&self, pattern: PatternId) -> RangeSummary {
        let maps = self.maps.as_ref();
        let agg = maps.and_then(|maps| maps.roots.get(&pattern));
        agg.copied().unwrap_or_default().summary(RangeRef::ROOT)
    }

    /// The aggregate of one range of `pattern`'s tree (the empty
    /// summary for a range holding no ids).
    pub fn summarize(&self, pattern: PatternId, range: RangeRef) -> RangeSummary {
        if range == RangeRef::ROOT {
            return self.root(pattern);
        }
        let mut agg = RangeAgg::default();
        for id in self.run(pattern, range) {
            agg.add(mix_event_id(id));
        }
        agg.summary(range)
    }

    /// The aggregates of all [`FANOUT`] children of a range of
    /// `pattern`'s tree, empty ones included, in index order: one pass
    /// over the range's run.
    ///
    /// # Panics
    ///
    /// Panics if `range` is a leaf.
    pub fn children(&self, pattern: PatternId, range: RangeRef) -> [RangeSummary; FANOUT as usize] {
        assert!(!range.is_leaf(), "leaf ranges have no children");
        let mut aggs = [RangeAgg::default(); FANOUT as usize];
        for id in self.run(pattern, range) {
            let h = mix_event_id(id);
            aggs[(index_at(h, range.level() + 1) % FANOUT) as usize].add(h);
        }
        std::array::from_fn(|i| aggs[i].summary(range.child(i as u32)))
    }

    /// Every resident id of `pattern` inside `range`, ordered by (leaf
    /// index, insertion order).
    pub fn ids_in(&self, pattern: PatternId, range: RangeRef) -> Vec<EventId> {
        self.run(pattern, range).collect()
    }
}

fn index_at(hash: u64, level: u8) -> u32 {
    let bits = FANOUT_BITS * level as u32;
    if bits == 0 {
        0
    } else {
        (hash >> (64 - bits)) as u32
    }
}

#[cfg(test)]
mod tests {
    use eps_overlay::NodeId;
    use eps_sim::check::forall;

    use super::*;

    fn id(source: u32, seq: u64) -> EventId {
        EventId::new(NodeId::new(source), seq)
    }

    /// The pattern the single-pattern tests file everything under.
    const P: PatternId = PatternId::new(1);

    #[test]
    fn mixer_is_deterministic_and_spreads() {
        let a = mix_event_id(id(1, 0));
        let b = mix_event_id(id(1, 1));
        let c = mix_event_id(id(2, 0));
        assert_eq!(a, mix_event_id(id(1, 0)));
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Sequential ids from one source should land in different
        // top-level ranges often enough to keep the tree balanced.
        let top: std::collections::BTreeSet<u32> = (0..64)
            .map(|s| index_at(mix_event_id(id(7, s)), 1))
            .collect();
        assert!(top.len() > 8, "mixer clusters sequential seqs: {top:?}");
    }

    #[test]
    fn range_refinement_is_consistent() {
        let h = mix_event_id(id(3, 12));
        let mut range = RangeRef::ROOT;
        for level in 1..=LEAF_LEVEL {
            assert!(range.contains(h));
            let next = RangeRef::of(h, level);
            // The refinement is the child whose low bits match.
            assert_eq!(next, range.child(next.index() % FANOUT));
            range = next;
        }
        assert!(range.is_leaf());
        assert!(range.contains(h));
    }

    #[test]
    fn add_then_remove_restores_empty() {
        let mut index = SummaryIndex::new();
        for s in 0..20 {
            index.add(P, id(4, s));
        }
        assert_eq!(index.root(P).count, 20);
        for s in 0..20 {
            index.remove(P, id(4, s));
        }
        assert_eq!(index.root(P), RangeSummary::empty(RangeRef::ROOT));
        let maps = index.maps.unwrap();
        assert!(maps.ids.is_empty());
        assert!(maps.roots.is_empty());
    }

    #[test]
    fn children_aggregate_to_parent() {
        let mut index = SummaryIndex::new();
        for s in 0..100 {
            index.add(P, id(9, s));
        }
        let mut ranges = vec![RangeRef::ROOT];
        while let Some(range) = ranges.pop() {
            if range.is_leaf() {
                continue;
            }
            let parent = index.summarize(P, range);
            let children = index.children(P, range);
            let count: u64 = children.iter().map(|c| c.count).sum();
            let hash = children.iter().fold(0u64, |acc, c| acc ^ c.hash);
            assert_eq!(count, parent.count);
            assert_eq!(hash, parent.hash);
            let occupied = children.iter().filter(|c| c.count > 0);
            ranges.extend(occupied.map(|c| c.range));
        }
    }

    #[test]
    fn summaries_are_order_independent() {
        let mut fwd = SummaryIndex::new();
        let mut rev = SummaryIndex::new();
        for s in 0..50 {
            fwd.add(P, id(2, s));
        }
        for s in (0..50).rev() {
            rev.add(P, id(2, s));
        }
        assert_eq!(fwd.root(P), rev.root(P));
        assert_eq!(
            fwd.children(P, RangeRef::ROOT),
            rev.children(P, RangeRef::ROOT)
        );
        // ids_in keeps insertion order within a leaf, so only the sets
        // agree; after full reconciliation both caches hold equal sets,
        // which is what the aggregates certify.
        let mut a = fwd.ids_in(P, RangeRef::ROOT);
        let mut b = rev.ids_in(P, RangeRef::ROOT);
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn single_differing_id_shows_in_exactly_one_child_per_level() {
        let mut a = SummaryIndex::new();
        let mut b = SummaryIndex::new();
        for s in 0..200 {
            a.add(P, id(5, s));
            b.add(P, id(5, s));
        }
        let extra = id(6, 999);
        a.add(P, extra);
        let mut range = RangeRef::ROOT;
        // Recursing on the single mismatching child reaches the leaf
        // holding the extra id — the O(log C) search path.
        while !range.is_leaf() {
            let diff: Vec<RangeRef> = (0..FANOUT)
                .map(|i| range.child(i))
                .filter(|&r| a.summarize(P, r) != b.summarize(P, r))
                .collect();
            assert_eq!(diff.len(), 1, "one differing child per level");
            range = diff[0];
        }
        assert!(a.ids_in(P, range).contains(&extra));
        assert!(!b.ids_in(P, range).contains(&extra));
    }

    #[test]
    fn empty_ranges_list_no_ids() {
        let index = SummaryIndex::new();
        assert!(index.ids_in(P, RangeRef::ROOT).is_empty());
        assert_eq!(
            index.summarize(P, RangeRef::new(2, 7)),
            RangeSummary::empty(RangeRef::new(2, 7))
        );
        let children = index.children(P, RangeRef::ROOT);
        assert!(children.iter().all(|c| c.count == 0 && c.hash == 0));
    }

    #[test]
    fn index_tracks_patterns_independently() {
        let mut index = SummaryIndex::new();
        let p = PatternId::new(3);
        let q = PatternId::new(8);
        index.add(p, id(1, 0));
        index.add(p, id(1, 1));
        index.add(q, id(1, 0));
        assert_eq!(index.root(p).count, 2);
        assert_eq!(index.root(q).count, 1);
        index.remove(q, id(1, 0));
        assert_eq!(index.root(q).count, 0);
        let roots = &index.maps.as_ref().unwrap().roots;
        assert!(!roots.contains_key(&q));
        assert!(roots.contains_key(&p));
        assert_eq!(index.ids_in(p, RangeRef::ROOT).len(), 2);
        assert!(index.ids_in(q, RangeRef::ROOT).is_empty());
    }

    #[test]
    fn ids_in_orders_by_leaf_then_insertion() {
        let mut index = SummaryIndex::new();
        let ids: Vec<EventId> = (0..30).map(|s| id(11, s)).collect();
        for &e in &ids {
            index.add(P, e);
        }
        let listed = index.ids_in(P, RangeRef::ROOT);
        assert_eq!(listed.len(), 30);
        // Within one leaf, insertion order is preserved.
        let mut per_leaf: BTreeMap<u32, Vec<EventId>> = BTreeMap::new();
        for &e in &ids {
            per_leaf
                .entry(index_at(mix_event_id(e), LEAF_LEVEL))
                .or_default()
                .push(e);
        }
        let expected: Vec<EventId> = per_leaf.into_values().flatten().collect();
        assert_eq!(listed, expected);
    }

    /// Ids of source 0 that share a leaf range with at least one other,
    /// grouped by leaf: among the first 8 000 seqs, where the 2²⁰
    /// leaves make a shared leaf a birthday coincidence.
    fn leaf_mates() -> Vec<EventId> {
        let mut by_leaf: BTreeMap<u32, Vec<EventId>> = BTreeMap::new();
        for seq in 0..8_000 {
            let e = id(0, seq);
            by_leaf
                .entry(index_at(mix_event_id(e), LEAF_LEVEL))
                .or_default()
                .push(e);
        }
        let mates: Vec<EventId> = by_leaf
            .into_values()
            .filter(|ids| ids.len() > 1)
            .take(6)
            .flatten()
            .collect();
        assert!(mates.len() >= 12, "too few shared leaves: {mates:?}");
        mates
    }

    /// Checks every query of `index` on `pattern` against `reference`,
    /// every recorded (pattern, id) pair in the order it was added: the
    /// root, two ranges at every level (one around an id of `pool`, one
    /// anywhere), and membership of every id of `pool`. A range's ids
    /// are its pairs stably sorted by leaf, so ids sharing a leaf keep
    /// insertion order.
    fn assert_answers_like(
        index: &SummaryIndex,
        reference: &[(PatternId, EventId)],
        pattern: PatternId,
        pool: &[EventId],
        rng: &mut eps_sim::Rng,
    ) {
        let listed = |range: RangeRef| {
            let mut ids: Vec<EventId> = reference
                .iter()
                .filter(|&&(q, e)| q == pattern && range.contains(mix_event_id(e)))
                .map(|&(_, e)| e)
                .collect();
            ids.sort_by_key(|&e| index_at(mix_event_id(e), LEAF_LEVEL));
            ids
        };
        let summary = |range: RangeRef| {
            let ids = listed(range);
            RangeSummary {
                range,
                count: ids.len() as u64,
                hash: ids.iter().fold(0, |acc, &e| acc ^ mix_event_id(e)),
            }
        };
        assert_eq!(index.root(pattern), summary(RangeRef::ROOT));
        for level in 0..=LEAF_LEVEL {
            let near = mix_event_id(*rng.choose(pool).unwrap());
            let anywhere = RangeRef::of(rng.next_u64(), level);
            for range in [RangeRef::of(near, level), anywhere] {
                assert_eq!(index.summarize(pattern, range), summary(range), "{range}");
                assert_eq!(index.ids_in(pattern, range), listed(range), "{range}");
                if !range.is_leaf() {
                    let children = index.children(pattern, range);
                    for (i, child) in (0..FANOUT).zip(children) {
                        let range = range.child(i);
                        assert_eq!(child, summary(range), "{range}");
                        assert_eq!(child, index.summarize(pattern, range), "{range}");
                    }
                }
            }
        }
        for &e in pool {
            let leaf = RangeRef::of(mix_event_id(e), LEAF_LEVEL);
            assert_eq!(
                index.ids_in(pattern, leaf).contains(&e),
                reference.contains(&(pattern, e))
            );
        }
    }

    #[test]
    fn the_index_answers_like_a_list_in_insertion_order() {
        // Random adds and removes over a small pool, so ids are removed
        // and re-added, and pairs of the pool share a leaf; after every
        // step each pattern answers like the list.
        let mates = leaf_mates();
        forall(
            "the_index_answers_like_a_list_in_insertion_order",
            64,
            |rng| {
                let mut pool = mates.clone();
                let strangers =
                    (0..10).map(|_| id(rng.random_below(3) as u32, rng.next_u64() >> 24));
                pool.extend(strangers);
                let patterns: Vec<PatternId> = (1..4).map(PatternId::new).collect();
                let mut index = SummaryIndex::new();
                let mut reference: Vec<(PatternId, EventId)> = Vec::new();
                for _ in 0..rng.random_range(1..120u32) {
                    let p = *rng.choose(&patterns).unwrap();
                    let e = *rng.choose(&pool).unwrap();
                    let at = reference.iter().position(|&pair| pair == (p, e));
                    match at {
                        None => {
                            index.add(p, e);
                            reference.push((p, e));
                        }
                        Some(at) => {
                            index.remove(p, e);
                            reference.remove(at);
                        }
                    }
                    for &p in &patterns {
                        assert_answers_like(&index, &reference, p, &pool, rng);
                    }
                }
            },
        );
    }
}

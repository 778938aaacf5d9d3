//! Hash-range summary trees over cached event ids (ROADMAP item 2).
//!
//! The paper's push/pull digests re-announce the cache linearly, so
//! anti-entropy wire bytes grow O(C) with cache size. This module
//! provides the substrate for *summary reconciliation*: every cached
//! [`EventId`] is hashed by a fixed 64-bit mixer into a key space that
//! is carved into a radix tree of ranges (fanout 16, six levels). Each
//! range keeps an order-independent aggregate — the count of resident
//! ids and the XOR of their mixed hashes — so two caches can compare a
//! single root [`RangeSummary`] in O(1) bytes and recurse only into the
//! ranges that differ, reaching O(log C + Δ) for Δ differing events.
//!
//! The aggregates are *incremental*: inserting or evicting one event
//! touches exactly one range per level ([`LEVEL_COUNT`] = 6 map
//! updates), so the index is maintained by [`crate::EventCache`] on
//! insert/evict with no per-round rebuild. XOR makes removal the same
//! operation as insertion, and makes the aggregate independent of
//! insertion order — the property that lets two independently grown
//! caches agree byte-for-byte on identical content.
//!
//! All range storage is in `BTreeMap`s, so every exposed iteration
//! (children of a range, ids inside a range) is deterministically
//! ordered — a requirement for the byte-identical golden runs.

use std::collections::BTreeMap;

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
pub fn mix_event_id(id: EventId) -> u64 {
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
/// holds inside it, in cache insertion order. Sent when a range is
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

/// Per-range aggregate storage.
#[derive(Clone, Copy, Default, Debug)]
struct RangeAgg {
    count: u64,
    hash: u64,
}

/// The incremental hash-range tree over one pattern's cached ids.
///
/// Insert and remove cost [`LEVEL_COUNT`] map updates each — O(log C)
/// — which is the whole point: the index rides along with the cache
/// instead of being rebuilt per gossip round.
#[derive(Clone, Default, Debug)]
pub struct CacheSummary {
    /// Aggregates per level, keyed by range index. Only non-empty
    /// ranges are stored.
    levels: [BTreeMap<u32, RangeAgg>; LEVEL_COUNT],
    /// Resident ids per leaf range, in insertion order.
    leaves: BTreeMap<u32, Vec<EventId>>,
}

impl CacheSummary {
    /// Adds an id to the tree. The caller must not add the same id
    /// twice without removing it in between.
    pub fn add(&mut self, id: EventId) {
        let h = mix_event_id(id);
        for level in 0..LEVEL_COUNT {
            let agg = self.levels[level]
                .entry(index_at(h, level as u8))
                .or_default();
            agg.count += 1;
            agg.hash ^= h;
        }
        self.leaves
            .entry(index_at(h, LEAF_LEVEL))
            .or_default()
            .push(id);
    }

    /// Removes an id previously added. Removing an id that is not
    /// resident is a no-op on the leaf list but would corrupt the
    /// aggregates, so it panics in debug builds.
    pub fn remove(&mut self, id: EventId) {
        let h = mix_event_id(id);
        let leaf = index_at(h, LEAF_LEVEL);
        let Some(ids) = self.leaves.get_mut(&leaf) else {
            debug_assert!(false, "removing {id} from a summary that lacks it");
            return;
        };
        let Some(pos) = ids.iter().position(|&x| x == id) else {
            debug_assert!(false, "removing {id} from a summary that lacks it");
            return;
        };
        ids.remove(pos);
        if ids.is_empty() {
            self.leaves.remove(&leaf);
        }
        for level in 0..LEVEL_COUNT {
            let idx = index_at(h, level as u8);
            let slot = self.levels[level]
                .get_mut(&idx)
                .expect("aggregate present for resident id");
            slot.count -= 1;
            slot.hash ^= h;
            if slot.count == 0 {
                self.levels[level].remove(&idx);
            }
        }
    }

    /// `true` if `id` is resident in the tree.
    pub fn contains(&self, id: EventId) -> bool {
        self.leaves
            .get(&index_at(mix_event_id(id), LEAF_LEVEL))
            .is_some_and(|ids| ids.contains(&id))
    }

    /// Total ids in the tree.
    pub fn len(&self) -> u64 {
        self.levels[0].get(&0).map_or(0, |agg| agg.count)
    }

    /// `true` if the tree holds no ids.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The aggregate summary of one range (the empty summary for a
    /// range holding no ids).
    pub fn summarize(&self, range: RangeRef) -> RangeSummary {
        match self.levels[range.level() as usize].get(&range.index()) {
            Some(agg) => RangeSummary {
                range,
                count: agg.count,
                hash: agg.hash,
            },
            None => RangeSummary::empty(range),
        }
    }

    /// The root summary.
    pub fn root(&self) -> RangeSummary {
        self.summarize(RangeRef::ROOT)
    }

    /// The non-empty children of a range, in ascending index order.
    ///
    /// # Panics
    ///
    /// Panics if `range` is a leaf.
    pub fn children(&self, range: RangeRef) -> Vec<RangeSummary> {
        assert!(!range.is_leaf(), "leaf ranges have no children");
        let level = range.level() + 1;
        let start = range.index() << FANOUT_BITS;
        self.levels[level as usize]
            .range(start..start + FANOUT)
            .map(|(&index, agg)| RangeSummary {
                range: RangeRef { level, index },
                count: agg.count,
                hash: agg.hash,
            })
            .collect()
    }

    /// Every resident id inside `range`, ordered by (leaf index,
    /// insertion order) — deterministic for equal content regardless of
    /// how the tree was grown.
    pub fn ids_in(&self, range: RangeRef) -> Vec<EventId> {
        let (start, end) = range.leaf_span();
        self.leaves
            .range(start..end)
            .flat_map(|(_, ids)| ids.iter().copied())
            .collect()
    }

    /// Expands a range into its complete id list.
    pub fn detail(&self, range: RangeRef) -> RangeDetail {
        RangeDetail {
            range,
            ids: self.ids_in(range),
        }
    }
}

/// The per-pattern forest maintained by [`crate::EventCache`]: one
/// [`CacheSummary`] tree per pattern that has at least one cached
/// event. An event carrying k patterns is resident in k trees, exactly
/// mirroring [`crate::EventCache::ids_matching`].
#[derive(Clone, Default, Debug)]
pub struct SummaryIndex {
    trees: BTreeMap<PatternId, CacheSummary>,
}

impl SummaryIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        SummaryIndex::default()
    }

    /// Records `id` under `pattern`.
    pub fn add(&mut self, pattern: PatternId, id: EventId) {
        self.trees.entry(pattern).or_default().add(id);
    }

    /// Removes `id` from `pattern`'s tree.
    pub fn remove(&mut self, pattern: PatternId, id: EventId) {
        if let Some(tree) = self.trees.get_mut(&pattern) {
            tree.remove(id);
            if tree.is_empty() {
                self.trees.remove(&pattern);
            }
        } else {
            debug_assert!(false, "removing {id} from absent pattern tree");
        }
    }

    /// Removes `id` from `pattern`'s tree if it is recorded there;
    /// returns whether anything was removed. Unlike
    /// [`SummaryIndex::remove`], an absent id is a clean no-op.
    pub fn discard(&mut self, pattern: PatternId, id: EventId) -> bool {
        if self.contains(pattern, id) {
            self.remove(pattern, id);
            true
        } else {
            false
        }
    }

    /// `true` if `id` is recorded under `pattern`.
    pub fn contains(&self, pattern: PatternId, id: EventId) -> bool {
        self.trees.get(&pattern).is_some_and(|t| t.contains(id))
    }

    /// The tree for `pattern`, if any event for it is cached.
    pub fn tree(&self, pattern: PatternId) -> Option<&CacheSummary> {
        self.trees.get(&pattern)
    }

    /// The root summary for `pattern` (empty if nothing is cached).
    pub fn root(&self, pattern: PatternId) -> RangeSummary {
        self.trees
            .get(&pattern)
            .map_or(RangeSummary::empty(RangeRef::ROOT), |t| t.root())
    }

    /// The aggregate of one range of `pattern`'s tree.
    pub fn summarize(&self, pattern: PatternId, range: RangeRef) -> RangeSummary {
        self.trees
            .get(&pattern)
            .map_or(RangeSummary::empty(range), |t| t.summarize(range))
    }

    /// Non-empty children of a range of `pattern`'s tree.
    pub fn children(&self, pattern: PatternId, range: RangeRef) -> Vec<RangeSummary> {
        self.trees
            .get(&pattern)
            .map_or_else(Vec::new, |t| t.children(range))
    }

    /// Resident ids of `pattern` inside `range`.
    pub fn ids_in(&self, pattern: PatternId, range: RangeRef) -> Vec<EventId> {
        self.trees
            .get(&pattern)
            .map_or_else(Vec::new, |t| t.ids_in(range))
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

    use super::*;

    fn id(source: u32, seq: u64) -> EventId {
        EventId::new(NodeId::new(source), seq)
    }

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
        let mut tree = CacheSummary::default();
        for s in 0..20 {
            tree.add(id(4, s));
        }
        assert_eq!(tree.len(), 20);
        for s in 0..20 {
            tree.remove(id(4, s));
        }
        assert!(tree.is_empty());
        assert_eq!(tree.root(), RangeSummary::empty(RangeRef::ROOT));
        assert!(tree.leaves.is_empty());
        assert!(tree.levels.iter().all(BTreeMap::is_empty));
    }

    #[test]
    fn children_aggregate_to_parent() {
        let mut tree = CacheSummary::default();
        for s in 0..100 {
            tree.add(id(9, s));
        }
        let mut ranges = vec![RangeRef::ROOT];
        while let Some(range) = ranges.pop() {
            if range.is_leaf() {
                continue;
            }
            let parent = tree.summarize(range);
            let children = tree.children(range);
            let count: u64 = children.iter().map(|c| c.count).sum();
            let hash = children.iter().fold(0u64, |acc, c| acc ^ c.hash);
            assert_eq!(count, parent.count);
            assert_eq!(hash, parent.hash);
            ranges.extend(children.iter().map(|c| c.range));
        }
    }

    #[test]
    fn summaries_are_order_independent() {
        let mut fwd = CacheSummary::default();
        let mut rev = CacheSummary::default();
        for s in 0..50 {
            fwd.add(id(2, s));
        }
        for s in (0..50).rev() {
            rev.add(id(2, s));
        }
        assert_eq!(fwd.root(), rev.root());
        assert_eq!(fwd.children(RangeRef::ROOT), rev.children(RangeRef::ROOT));
        // …and ids_in is deterministic for equal content regardless of
        // growth order only per-leaf up to insertion order; after full
        // reconciliation both caches hold equal sets, which is what the
        // aggregates certify.
        let mut a = fwd.ids_in(RangeRef::ROOT);
        let mut b = rev.ids_in(RangeRef::ROOT);
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn single_differing_id_shows_in_exactly_one_child_per_level() {
        let mut a = CacheSummary::default();
        let mut b = CacheSummary::default();
        for s in 0..200 {
            a.add(id(5, s));
            b.add(id(5, s));
        }
        let extra = id(6, 999);
        a.add(extra);
        let mut range = RangeRef::ROOT;
        // Recursing on the single mismatching child reaches the leaf
        // holding the extra id — the O(log C) search path.
        while !range.is_leaf() {
            let diff: Vec<RangeRef> = (0..FANOUT)
                .map(|i| range.child(i))
                .filter(|&r| a.summarize(r) != b.summarize(r))
                .collect();
            assert_eq!(diff.len(), 1, "one differing child per level");
            range = diff[0];
        }
        assert!(a.ids_in(range).contains(&extra));
        assert!(!b.ids_in(range).contains(&extra));
    }

    #[test]
    fn detail_reports_empty_ranges() {
        let tree = CacheSummary::default();
        let d = tree.detail(RangeRef::ROOT);
        assert_eq!(d.range, RangeRef::ROOT);
        assert!(d.ids.is_empty());
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
        assert!(index.tree(q).is_none());
        assert!(index.tree(p).is_some());
        assert_eq!(index.ids_in(p, RangeRef::ROOT).len(), 2);
    }

    #[test]
    fn ids_in_orders_by_leaf_then_insertion() {
        let mut tree = CacheSummary::default();
        let ids: Vec<EventId> = (0..30).map(|s| id(11, s)).collect();
        for &e in &ids {
            tree.add(e);
        }
        let listed = tree.ids_in(RangeRef::ROOT);
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
}

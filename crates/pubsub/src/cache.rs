//! The bounded event cache each dispatcher keeps to satisfy
//! retransmission requests.
//!
//! The paper's evaluation uses "a simple FIFO buffering strategy where
//! each dispatcher caches only events for which it is either the
//! publisher or a subscriber" (Section IV-A), and flags buffer
//! optimization (their reference \[13\], Ozkasap et al.) as ongoing
//! work. This module implements the paper's FIFO policy plus two
//! alternatives for that investigation, selectable via
//! [`EvictionPolicy`]:
//!
//! - [`EvictionPolicy::Fifo`] — the paper's policy: evict oldest.
//! - [`EvictionPolicy::Random`] — evict a uniformly random entry; the
//!   classic low-state approximation used in epidemic-buffering work.
//! - [`EvictionPolicy::SourceBiased`] — reserve a share of the buffer
//!   for self-published events, which only the publisher can serve to
//!   publisher-bound gossip; received events compete for the rest.

use std::collections::VecDeque;

use eps_overlay::NodeId;
use eps_sim::hash::{IdMap, SlotIndex};
use eps_sim::Rng;

use crate::event::{Event, EventId};
use crate::pattern::PatternId;
use crate::summary::SummaryIndex;

/// Which cached event to sacrifice when the buffer is full.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum EvictionPolicy {
    /// Evict the oldest entry (the paper's policy).
    #[default]
    Fifo,
    /// Evict a uniformly random entry; deterministic per seed.
    Random {
        /// Seed for the eviction choices.
        seed: u64,
    },
    /// Keep self-published events in a protected sub-queue sized
    /// `own_permille`/1000 of the capacity; within each class,
    /// eviction is FIFO. Only the publisher can answer
    /// publisher-bound gossip, so its own events are worth more
    /// buffer-seconds than a copy some other subscriber also holds.
    SourceBiased {
        /// Share of the capacity reserved for own events, in ‰.
        own_permille: u16,
    },
}

impl std::fmt::Display for EvictionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvictionPolicy::Fifo => write!(f, "fifo"),
            EvictionPolicy::Random { .. } => write!(f, "random"),
            EvictionPolicy::SourceBiased { own_permille } => {
                write!(f, "source-biased({own_permille}permille)")
            }
        }
    }
}

/// Each policy's victim choice, over ring slots. FIFO needs one index;
/// the other two keep their state in a box made at first use, so the
/// state is 24 B inline under every policy and building a cache
/// allocates nothing.
#[derive(Clone)]
enum PolicyState {
    /// The ring is the order: the oldest event sits in the slot after
    /// the one written last.
    Fifo { next: usize },
    /// From the first eviction on, the slots in the order draws index
    /// them and the stream drawn from `seed`.
    Random {
        seed: u64,
        draws: Option<Box<(Vec<u32>, Rng)>>,
    },
    /// From the first admission on, the slots of own and of other
    /// events, each class oldest first.
    SourceBiased {
        own_cap: usize,
        classes: Option<Box<[VecDeque<u32>; 2]>>,
    },
}

impl PolicyState {
    fn new(policy: EvictionPolicy, capacity: usize) -> Self {
        match policy {
            EvictionPolicy::Fifo => PolicyState::Fifo { next: 0 },
            EvictionPolicy::Random { seed } => PolicyState::Random { seed, draws: None },
            EvictionPolicy::SourceBiased { own_permille } => {
                assert!(
                    own_permille <= 1000,
                    "own_permille is a fraction of 1000, got {own_permille}"
                );
                PolicyState::SourceBiased {
                    own_cap: capacity * own_permille as usize / 1000,
                    classes: None,
                }
            }
        }
    }

    fn note_insert(&mut self, slot: u32, is_own: bool) {
        if let PolicyState::SourceBiased { classes, .. } = self {
            let [own, other] = &mut **classes.get_or_insert_default();
            let class = if is_own { own } else { other };
            class.push_back(slot);
        }
    }

    /// Picks the eviction victim's slot, where the new event goes. Must
    /// only be called on a full cache of `capacity` events.
    fn pick_victim(&mut self, capacity: usize) -> u32 {
        match self {
            PolicyState::Fifo { next } => {
                let victim = *next;
                *next = if victim + 1 == capacity {
                    0
                } else {
                    victim + 1
                };
                victim as u32
            }
            PolicyState::Random { seed, draws } => {
                // A swap-remove of the victim, then a push of its slot.
                let (live, rng) = &mut **draws.get_or_insert_with(|| {
                    Box::new(((0..capacity as u32).collect(), Rng::from_seed(*seed)))
                });
                live.swap(rng.random_range(0..capacity), capacity - 1);
                live[capacity - 1]
            }
            PolicyState::SourceBiased { own_cap, classes } => {
                let [own, other] = &mut **classes.as_mut().expect("a full cache admitted events");
                // Evict from whichever class is over its share; the
                // protected class only pays when it alone is over.
                if own.len() > *own_cap || other.is_empty() {
                    own.pop_front().expect("some class must be non-empty")
                } else {
                    other.pop_front().expect("checked non-empty")
                }
            }
        }
    }
}

/// Which of the cache's indexes to build. Each costs memory and
/// insert/evict time per cached event, and each serves one kind of
/// lookup, so a dispatcher builds only those its strategy reads.
/// Reading an index the cache was built without panics. Every set,
/// [`CacheIndexes::NONE`] included, makes a valid cache: none of them
/// filters duplicates, which the dispatcher's seen set does before an
/// event reaches the cache ([`EventCache::insert`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CacheIndexes {
    /// Event id → cached event ([`EventCache::get`]): serving
    /// out-of-band requests and summary expansions, which name events
    /// by id.
    pub ids: bool,
    /// Pattern → the ring slots of its cached events, in insertion
    /// order ([`EventCache::ids_matching`]): positive (push) digests.
    pub pattern_ids: bool,
    /// (source, pattern, per-pattern seq) → cached event
    /// ([`EventCache::get_by_pattern_seq`]): serving negative (pull)
    /// digests. A strategy that serves by seq is one that keeps a
    /// `Lost` buffer, so a dispatcher whose cache has this index also
    /// detects losses, and one without it detects none.
    pub pattern_seqs: bool,
    /// The hash-range summary index over the live ids
    /// ([`EventCache::summary_index`]): push-mode summary
    /// reconciliation.
    pub summary: bool,
    /// The same index over every id the cache has admitted, live or
    /// evicted ([`EventCache::seen_index`]): pull-mode summary
    /// reconciliation, which announces what the cache has seen.
    pub seen: bool,
}

impl CacheIndexes {
    /// No index at all: the base a set is spelled from
    /// (`CacheIndexes { ids: true, ..CacheIndexes::NONE }`). A cache
    /// built from it alone keeps only its ring.
    pub const NONE: CacheIndexes = CacheIndexes {
        ids: false,
        pattern_ids: false,
        pattern_seqs: false,
        summary: false,
        seen: false,
    };

    /// Every index.
    pub const ALL: CacheIndexes = CacheIndexes {
        ids: true,
        pattern_ids: true,
        pattern_seqs: true,
        summary: true,
        seen: true,
    };
}

impl Default for CacheIndexes {
    /// The id index and both linear-digest indexes, no summary index.
    fn default() -> Self {
        CacheIndexes {
            summary: false,
            seen: false,
            ..CacheIndexes::ALL
        }
    }
}

/// Heap bytes of a cache's ring and of its two slot indexes, counted by
/// capacity, not length ([`EventCache::heap_bytes`]). An index the cache
/// was built without counts zero.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheHeap {
    /// The ring's inline events; the content and routes they share
    /// behind `Arc`s are not counted.
    pub ring: usize,
    /// The event-id index ([`CacheIndexes::ids`]).
    pub ids: usize,
    /// The (source, pattern, seq) index ([`CacheIndexes::pattern_seqs`]).
    pub pattern_seqs: usize,
}

/// A bounded cache of β events with constant-time lookup, where
/// [`CacheIndexes`] asks for it, by event id, by pattern and by
/// (source, pattern, per-pattern sequence number).
///
/// # Examples
///
/// ```
/// use eps_pubsub::{Event, EventCache, EventId, PatternId};
/// use eps_overlay::NodeId;
///
/// let mut cache = EventCache::new(2);
/// for seq in 0..3 {
///     let id = EventId::new(NodeId::new(0), seq);
///     cache.insert(Event::new(id, vec![(PatternId::new(1), seq)]));
/// }
/// // Capacity 2, FIFO: the oldest event was evicted.
/// assert!(cache.get(EventId::new(NodeId::new(0), 0)).is_none());
/// assert!(cache.get(EventId::new(NodeId::new(0), 2)).is_some());
/// ```
#[derive(Clone)]
pub struct EventCache {
    capacity: usize,
    owner: Option<NodeId>,
    policy: PolicyState,
    // The ring: each event stored once, in the slot the indexes name.
    // It grows geometrically to exactly `capacity` slots; once full,
    // each victim's slot takes the new event.
    slots: Vec<Event>,
    // The indexes, each `None` unless `CacheIndexes` asked for it, each
    // kept exact on insert and eviction.
    //
    // Event id → slot.
    ids: Option<SlotIndex>,
    // (source, pattern, seq) → slot.
    by_pattern_seq: Option<SlotIndex>,
    // Pattern → the ring slots of its live events, each list in
    // insertion order: `ids_matching` — the push digest builder — reads
    // one list's ids from the ring instead of scanning the whole cache.
    // A slot is unlisted before the ring reuses it, so a listed slot
    // names exactly one live event, in 4 B where its id takes 16. Only
    // patterns with a live event have a list; the map is probed, never
    // iterated.
    by_pattern: Option<IdMap<PatternId, VecDeque<u32>>>,
    // Hash-range summary index over the live ids, maintained
    // incrementally (O(log C) per insert/evict — never rebuilt per
    // round).
    summary: Option<SummaryIndex>,
    // The same index over every admitted (id, pattern) pair: added to
    // on insert, never removed from. It is the *seen* view pull-mode
    // summary reconciliation announces, so peers stop re-serving
    // surplus this cache has already consumed; one ordered-map entry
    // per pair, kept for the life of the cache.
    seen: Option<SummaryIndex>,
}

/// Drops `slot` from one pattern's list. Under FIFO eviction the
/// victim is the oldest entry of every list it is on, so this is a pop,
/// not a shift of the ≈ β/2 slots behind it; the other policies can
/// pick from the middle of a list and pay for the search.
fn unlist(list: &mut VecDeque<u32>, slot: u32) {
    if list.front() == Some(&slot) {
        list.pop_front();
    } else {
        list.retain(|&s| s != slot);
    }
}

/// The hash the id index files `slot`'s event under.
fn id_keys(slots: &[Event], slot: u32) -> [u64; 1] {
    [SlotIndex::hash(slots[slot as usize].id())]
}

/// The hashes the (source, pattern, seq) index files `slot`'s event
/// under, one per pattern.
fn seq_keys(slots: &[Event], slot: u32) -> impl ExactSizeIterator<Item = u64> + '_ {
    let event = &slots[slot as usize];
    let source = event.source();
    (event.pattern_seqs().iter()).map(move |&(p, seq)| SlotIndex::hash((source, p, seq)))
}

/// The ring's slots other than `slot`: those whose events an index
/// holds while it files or forgets `slot`'s.
fn others(slots: &[Event], slot: u32) -> impl Iterator<Item = u32> {
    (0..slots.len() as u32).filter(move |&s| s != slot)
}

impl std::fmt::Debug for EventCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventCache")
            .field("capacity", &self.capacity)
            .field("len", &self.slots.len())
            .finish()
    }
}

impl EventCache {
    /// Creates a FIFO cache holding at most `capacity` events (β), with
    /// the [default](CacheIndexes::default) indexes. A zero capacity
    /// caches nothing — useful for failure injection.
    pub fn new(capacity: usize) -> Self {
        Self::with_indexes(capacity, Default::default(), None, Default::default())
    }

    /// Creates a cache with an explicit eviction policy, building only
    /// `indexes`. `owner` is the dispatcher holding the cache; it is
    /// required by [`EvictionPolicy::SourceBiased`] to classify events.
    ///
    /// # Panics
    ///
    /// Panics if a source-biased policy is configured without an
    /// owner, or with a share above 1000 ‰.
    pub fn with_indexes(
        capacity: usize,
        policy: EvictionPolicy,
        owner: Option<NodeId>,
        indexes: CacheIndexes,
    ) -> Self {
        if matches!(policy, EvictionPolicy::SourceBiased { .. }) {
            assert!(owner.is_some(), "a source-biased cache must know its owner");
        }
        EventCache {
            capacity,
            owner,
            policy: PolicyState::new(policy, capacity),
            slots: Vec::new(),
            ids: indexes.ids.then(|| SlotIndex::new(capacity)),
            by_pattern_seq: indexes.pattern_seqs.then(|| SlotIndex::new(capacity)),
            by_pattern: indexes.pattern_ids.then(IdMap::default),
            summary: indexes.summary.then(SummaryIndex::new),
            seen: indexes.seen.then(SummaryIndex::new),
        }
    }

    /// The indexes this cache was built with.
    pub fn indexes(&self) -> CacheIndexes {
        CacheIndexes {
            ids: self.ids.is_some(),
            pattern_ids: self.by_pattern.is_some(),
            pattern_seqs: self.by_pattern_seq.is_some(),
            summary: self.summary.is_some(),
            seen: self.seen.is_some(),
        }
    }

    /// Number of events currently cached.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Heap bytes of the ring and of the slot indexes, by capacity.
    pub fn heap_bytes(&self) -> CacheHeap {
        let index = |index: &Option<SlotIndex>| index.as_ref().map_or(0, SlotIndex::heap_bytes);
        CacheHeap {
            ring: self.slots.capacity() * std::mem::size_of::<Event>(),
            ids: index(&self.ids),
            pattern_seqs: index(&self.by_pattern_seq),
        }
    }

    /// Inserts an event, evicting per policy if full.
    ///
    /// An id is admitted at most once in the cache's life: the caller
    /// filters duplicates, as the dispatcher's seen set does, so the
    /// cache never probes for one. A debug build checks that the id is
    /// not live where the cache keeps the id index.
    pub fn insert(&mut self, event: Event) {
        if self.capacity == 0 {
            return;
        }
        let id = event.id();
        debug_assert!(
            self.ids.is_none() || self.get(id).is_none(),
            "{id} admitted to the cache twice"
        );
        let len = self.slots.len();
        let slot = if len == self.capacity {
            let victim = self.policy.pick_victim(self.capacity);
            self.forget(victim);
            self.slots[victim as usize] = event;
            victim
        } else {
            if len == self.slots.capacity() {
                self.slots
                    .reserve_exact(len.max(4).min(self.capacity - len));
            }
            self.slots.push(event);
            u32::try_from(len).expect("a cache holds fewer than 2³² events")
        };
        let slots = &self.slots;
        if let Some(ids) = &mut self.ids {
            ids.insert(slot, |s| id_keys(slots, s), others(slots, slot));
        }
        if let Some(seqs) = &mut self.by_pattern_seq {
            seqs.insert(slot, |s| seq_keys(slots, s), others(slots, slot));
        }
        for &(p, _) in slots[slot as usize].pattern_seqs() {
            if let Some(lists) = &mut self.by_pattern {
                lists.entry(p).or_default().push_back(slot);
            }
            if let Some(summary) = &mut self.summary {
                summary.add(p, id);
            }
            if let Some(seen) = &mut self.seen {
                seen.add(p, id);
            }
        }
        self.policy
            .note_insert(slot, self.owner == Some(id.source()));
    }

    /// Drops the event in `slot` from every index.
    fn forget(&mut self, slot: u32) {
        let slots = &self.slots;
        if let Some(ids) = &mut self.ids {
            ids.remove(slot, |s| id_keys(slots, s), others(slots, slot));
        }
        if let Some(seqs) = &mut self.by_pattern_seq {
            seqs.remove(slot, |s| seq_keys(slots, s), others(slots, slot));
        }
        let event = &slots[slot as usize];
        let id = event.id();
        for &(p, _) in event.pattern_seqs() {
            if let Some(lists) = &mut self.by_pattern {
                if let Some(list) = lists.get_mut(&p) {
                    unlist(list, slot);
                    if list.is_empty() {
                        lists.remove(&p);
                    }
                }
            }
            if let Some(summary) = &mut self.summary {
                summary.remove(p, id);
            }
        }
    }

    /// Looks up an event by id.
    ///
    /// # Panics
    ///
    /// Panics if the cache was built without [`CacheIndexes::ids`].
    // Inlined into callers in other crates: out of line,
    // `cache_get/beta1500/{hit,miss}` read ≈ 1.3× as long on a 2-vCPU
    // Xeon, slower in 12 of 12 alternating `microbench` pairs.
    #[inline]
    pub fn get(&self, id: EventId) -> Option<&Event> {
        let ids = self
            .ids
            .as_ref()
            .expect("event cache built without the ids index");
        let slot = ids.find(SlotIndex::hash(id), |s| self.event(s).id() == id)?;
        Some(self.event(slot))
    }

    fn event(&self, slot: u32) -> &Event {
        &self.slots[slot as usize]
    }

    /// `true` if the event is cached.
    ///
    /// # Panics
    ///
    /// As [`EventCache::get`].
    pub fn contains(&self, id: EventId) -> bool {
        self.get(id).is_some()
    }

    /// Looks up an event by its (source, pattern, per-pattern
    /// sequence) coordinates — the identification used by the pull
    /// algorithms' negative digests.
    ///
    /// # Panics
    ///
    /// Panics if the cache was built without
    /// [`CacheIndexes::pattern_seqs`].
    // Inlined, as `get` is: out of line the serving probe
    // (`cache_get_by_pattern_seq/beta1500/miss`) read ≈ 1.4× as long,
    // slower in 12 of 12 pairs.
    #[inline]
    pub fn get_by_pattern_seq(
        &self,
        source: NodeId,
        pattern: PatternId,
        seq: u64,
    ) -> Option<&Event> {
        let seqs = self
            .by_pattern_seq
            .as_ref()
            .expect("event cache built without the pattern_seqs index");
        let slot = seqs.find(SlotIndex::hash((source, pattern, seq)), |s| {
            let event = self.event(s);
            event.source() == source && event.seq_for(pattern) == Some(seq)
        })?;
        Some(self.event(slot))
    }

    /// Ids of all cached events matching `pattern`, in insertion order
    /// — the positive digest content of the push algorithm. Served
    /// from the exact per-pattern index: the ids of its listed slots,
    /// read from the ring, not a scan of the whole cache.
    ///
    /// # Panics
    ///
    /// Panics if the cache was built without
    /// [`CacheIndexes::pattern_ids`].
    pub fn ids_matching(&self, pattern: PatternId) -> Vec<EventId> {
        let lists = self
            .by_pattern
            .as_ref()
            .expect("event cache built without the pattern_ids index");
        let Some(list) = lists.get(&pattern) else {
            return Vec::new();
        };
        // One extend per contiguous half of the deque: a tight gather
        // loop into a vector sized once, ≈ 0.75× the time of collecting
        // through the deque's own iterator.
        let (front, back) = list.as_slices();
        let mut ids = Vec::with_capacity(list.len());
        ids.extend(front.iter().map(|&slot| self.event(slot).id()));
        ids.extend(back.iter().map(|&slot| self.event(slot).id()));
        ids
    }

    /// `true` if some cached event matches `pattern`: a positive
    /// digest for it would announce events — its id list under
    /// [`CacheIndexes::pattern_ids`], else its live summary, is not
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics if the cache keeps neither index.
    pub fn has_pattern(&self, pattern: PatternId) -> bool {
        match &self.by_pattern {
            Some(lists) => lists.contains_key(&pattern),
            None => self.summary_index().root(pattern).count > 0,
        }
    }

    /// The cached events in slot order, which is admission order only
    /// until the first eviction: tests keep their own admission-ordered
    /// model where order matters.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Event> {
        self.slots.iter()
    }

    /// The hash-range summary index over the cached ids (see
    /// [`crate::summary`]).
    ///
    /// # Panics
    ///
    /// Panics if the cache was built without [`CacheIndexes::summary`]
    /// — the `summary-push` row declares it, so the dispatcher builds it
    /// at construction.
    pub fn summary_index(&self) -> &SummaryIndex {
        self.summary
            .as_ref()
            .expect("event cache built without the summary index")
    }

    /// The hash-range summary index over every id this cache has ever
    /// admitted, resident or since evicted: the **seen** view pull-mode
    /// summary reconciliation announces and compares, so a peer does
    /// not serve surplus the cache has already consumed and evicted.
    ///
    /// # Panics
    ///
    /// Panics if the cache was built without [`CacheIndexes::seen`] —
    /// the `summary-pull` row declares it.
    pub fn seen_index(&self) -> &SummaryIndex {
        self.seen
            .as_ref()
            .expect("event cache built without the seen index")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::RangeRef;
    use eps_sim::check::forall;
    use std::collections::BTreeSet;

    fn with_policy(capacity: usize, policy: EvictionPolicy, owner: Option<NodeId>) -> EventCache {
        EventCache::with_indexes(capacity, policy, owner, CacheIndexes::default())
    }

    fn ev(source: u32, seq: u64, patterns: &[(u16, u64)]) -> Event {
        Event::new(
            EventId::new(NodeId::new(source), seq),
            patterns
                .iter()
                .map(|&(p, s)| (PatternId::new(p), s))
                .collect(),
        )
    }

    #[test]
    fn fifo_eviction_order() {
        // Never over capacity, and always exactly the newest events.
        forall("fifo_eviction_order", 256, |rng| {
            let capacity = rng.random_range(1..50usize);
            let count = rng.random_range(1..200u64);
            let mut c = EventCache::new(capacity);
            for seq in 0..count {
                c.insert(ev(0, seq, &[((seq % 70) as u16, seq)]));
                assert!(c.len() <= capacity);
            }
            let first_kept = count.saturating_sub(capacity as u64);
            assert_eq!(c.len() as u64, count - first_kept);
            for seq in 0..count {
                let id = EventId::new(NodeId::new(0), seq);
                assert_eq!(c.contains(id), seq >= first_kept);
            }
        });
    }

    #[test]
    fn pattern_seq_index_tracks_eviction() {
        // The (source, pattern, seq) index finds exactly the resident
        // events, whatever order their pattern seqs arrive in.
        forall("pattern_seq_index_tracks_eviction", 256, |rng| {
            let capacity = rng.random_range(1..30usize);
            let pattern_seqs: Vec<u64> = (0..rng.random_range(1..100u64))
                .map(|i| rng.random_below(100) * 1000 + i)
                .collect();
            let mut c = EventCache::new(capacity);
            for (i, &ps) in pattern_seqs.iter().enumerate() {
                c.insert(ev(3, i as u64, &[(7, ps)]));
            }
            let first_kept = pattern_seqs.len().saturating_sub(capacity);
            for (i, &ps) in pattern_seqs.iter().enumerate() {
                let found = c.get_by_pattern_seq(NodeId::new(3), PatternId::new(7), ps);
                let resident = (i >= first_kept).then(|| EventId::new(NodeId::new(3), i as u64));
                assert_eq!(found.map(Event::id), resident);
            }
            assert_eq!(c.iter().count(), pattern_seqs.len() - first_kept);
        });
    }

    #[test]
    fn ids_matching_filters_by_pattern() {
        let mut c = EventCache::new(10);
        c.insert(ev(0, 0, &[(1, 0)]));
        c.insert(ev(0, 1, &[(2, 0)]));
        c.insert(ev(0, 2, &[(1, 1), (2, 1)]));
        let ids = c.ids_matching(PatternId::new(1));
        assert_eq!(
            ids,
            vec![
                EventId::new(NodeId::new(0), 0),
                EventId::new(NodeId::new(0), 2)
            ]
        );
    }

    #[test]
    fn ids_matching_tracks_eviction_exactly() {
        let mut c = EventCache::new(2);
        c.insert(ev(0, 0, &[(1, 0)]));
        c.insert(ev(0, 1, &[(1, 1), (2, 0)]));
        c.insert(ev(0, 2, &[(2, 1)])); // evicts seq 0
        assert_eq!(
            c.ids_matching(PatternId::new(1)),
            vec![EventId::new(NodeId::new(0), 1)]
        );
        assert_eq!(
            c.ids_matching(PatternId::new(2)),
            vec![
                EventId::new(NodeId::new(0), 1),
                EventId::new(NodeId::new(0), 2)
            ]
        );
        assert!(c.ids_matching(PatternId::new(3)).is_empty());
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let mut c = EventCache::new(0);
        c.insert(ev(0, 0, &[(1, 0)]));
        assert!(c.is_empty());
    }

    #[test]
    fn never_exceeds_capacity_under_any_policy() {
        for policy in [
            EvictionPolicy::Fifo,
            EvictionPolicy::Random { seed: 7 },
            EvictionPolicy::SourceBiased { own_permille: 300 },
        ] {
            let mut c = with_policy(7, policy, Some(NodeId::new(0)));
            for seq in 0..100 {
                c.insert(ev((seq % 3) as u32, seq, &[(1, seq)]));
                assert!(c.len() <= 7, "{policy} exceeded capacity");
            }
            assert_eq!(c.len(), 7, "{policy}");
        }
    }

    #[test]
    fn random_eviction_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut c = with_policy(5, EvictionPolicy::Random { seed }, None);
            for seq in 0..50 {
                c.insert(ev(0, seq, &[(1, seq)]));
            }
            let mut kept: Vec<u64> = c.iter().map(|e| e.id().seq()).collect();
            kept.sort_unstable();
            kept
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn random_eviction_spreads_over_ages() {
        let mut c = with_policy(50, EvictionPolicy::Random { seed: 3 }, None);
        for seq in 0..500 {
            c.insert(ev(0, seq, &[(1, seq)]));
        }
        // Unlike FIFO, some old events should survive.
        let oldest_kept = c.iter().map(|e| e.id().seq()).min().unwrap();
        assert!(oldest_kept < 450, "oldest kept: {oldest_kept}");
    }

    #[test]
    fn source_biased_protects_own_events() {
        let owner = NodeId::new(9);
        let mut c = with_policy(
            10,
            EvictionPolicy::SourceBiased { own_permille: 500 },
            Some(owner),
        );
        // 5 own events, then a flood of foreign ones.
        for seq in 0..5 {
            c.insert(ev(9, seq, &[(1, seq)]));
        }
        for seq in 0..100 {
            c.insert(ev(0, seq, &[(2, seq)]));
        }
        // The own events (within the 50% share) all survive.
        for seq in 0..5 {
            assert!(
                c.contains(EventId::new(owner, seq)),
                "own event {seq} evicted"
            );
        }
        assert_eq!(c.len(), 10);
    }

    #[test]
    fn source_biased_own_overflow_evicts_own() {
        let owner = NodeId::new(9);
        let mut c = with_policy(
            10,
            EvictionPolicy::SourceBiased { own_permille: 200 },
            Some(owner),
        );
        for seq in 0..10 {
            c.insert(ev(0, seq, &[(1, seq)]));
        }
        // Own events beyond the 20% share displace older own events
        // once the cache is full.
        for seq in 0..5 {
            c.insert(ev(9, seq, &[(2, seq)]));
        }
        assert_eq!(c.len(), 10);
        let own_count = c.iter().filter(|e| e.source() == owner).count();
        assert!(own_count >= 2, "own events: {own_count}");
    }

    #[test]
    #[should_panic]
    fn source_biased_without_owner_panics() {
        let _ = with_policy(10, EvictionPolicy::SourceBiased { own_permille: 500 }, None);
    }

    /// Admits `event` unless `seen` holds its id, as a dispatcher's seen
    /// set does, and keeps `model` — the live ids, oldest admission
    /// first — in step, by asking the cache what it evicted. The cache
    /// holds each of them once, and nothing else. Returns whether the
    /// event was admitted.
    fn insert_modelled(
        c: &mut EventCache,
        model: &mut Vec<EventId>,
        seen: &mut BTreeSet<EventId>,
        event: Event,
    ) -> bool {
        let id = event.id();
        let fresh = seen.insert(id);
        if fresh {
            c.insert(event);
            model.retain(|&m| c.contains(m));
            model.push(id);
        }
        let mut live: Vec<EventId> = c.iter().map(Event::id).collect();
        let mut listed = model.clone();
        live.sort_unstable();
        listed.sort_unstable();
        assert_eq!(live, listed);
        assert_eq!(c.len(), model.len());
        fresh
    }

    fn any_policy(rng: &mut eps_sim::Rng) -> EvictionPolicy {
        match rng.random_below(3) {
            0 => EvictionPolicy::Fifo,
            1 => EvictionPolicy::Random {
                seed: rng.next_u64(),
            },
            _ => EvictionPolicy::SourceBiased { own_permille: 400 },
        }
    }

    /// A random walk's event: its content is a function of its id, as
    /// on the wire, and a walk draws from few ids (sources 0..3, seqs
    /// 0..16), so later draws mostly repeat an id, which the walk's seen
    /// set drops.
    fn walk_event(source: u32, seq: u64) -> Event {
        let own = ((seq % 5) as u16, seq);
        match seq % 2 {
            0 => ev(source, seq, &[own]),
            _ => ev(source, seq, &[own, (5, seq)]),
        }
    }

    /// Every (source, seq) coordinate a walk can name.
    fn walk_coordinates() -> impl Iterator<Item = (NodeId, u64)> {
        (0..3).flat_map(|s| (0..16).map(move |q| (NodeId::new(s), q)))
    }

    #[test]
    fn indexes_agree_with_iteration_on_random_walks() {
        forall("cache_indexes_agree_with_iteration", 128, |rng| {
            let owner = NodeId::new(0);
            let policy = any_policy(rng);
            // Small caches churn; one that holds most of the walk's 48
            // ids grows each index from 8 buckets to 128.
            let capacity = match rng.random_bool(0.5) {
                true => rng.random_range(1..12usize),
                false => rng.random_range(40..49usize),
            };
            let mut c =
                EventCache::with_indexes(capacity, policy, Some(owner), CacheIndexes::default());
            let (mut model, mut seen) = (Vec::new(), BTreeSet::new());
            for _ in 0..rng.random_range(1..200u32) {
                let arrival = walk_event(rng.random_below(3) as u32, rng.random_below(16));
                insert_modelled(&mut c, &mut model, &mut seen, arrival);
                assert!(c.len() <= capacity);
                // The live events, oldest admission first.
                let live: Vec<Event> = model
                    .iter()
                    .map(|id| walk_event(id.source().value(), id.seq()))
                    .collect();
                for p in (0..7).map(PatternId::new) {
                    let listed = live.iter().filter(|e| e.matches(p));
                    let listed: Vec<EventId> = listed.map(|e| e.id()).collect();
                    assert_eq!(c.ids_matching(p), listed, "{policy} {p}");
                    for (source, seq) in walk_coordinates() {
                        let found = c.get_by_pattern_seq(source, p, seq);
                        let scanned = live
                            .iter()
                            .find(|e| e.source() == source && e.seq_for(p) == Some(seq));
                        assert_eq!(found.map(Event::id), scanned.map(|e| e.id()));
                    }
                }
            }
        });
    }

    #[test]
    fn slot_lists_read_like_an_admission_ordered_model() {
        // Long lists over three patterns: random and source-biased
        // eviction take victims from the middle of a list, and the next
        // admission reuses the victim's slot, so it must join the end
        // of its own lists and leave no trace where the victim was.
        let lists = CacheIndexes {
            ids: true,
            pattern_ids: true,
            ..CacheIndexes::NONE
        };
        let mut mid_list = [0usize; 3];
        forall("slot_lists_model", 64, |rng| {
            let policies = [
                EvictionPolicy::Fifo,
                EvictionPolicy::Random {
                    seed: rng.next_u64(),
                },
                EvictionPolicy::SourceBiased { own_permille: 300 },
            ];
            for (k, policy) in policies.into_iter().enumerate() {
                let capacity = rng.random_range(2..16usize);
                let mut c = EventCache::with_indexes(capacity, policy, Some(NodeId::new(0)), lists);
                // The live events, oldest admission first.
                let mut model: Vec<Event> = Vec::new();
                for seq in 0..rng.random_range(1..200u64) {
                    let first = rng.random_below(3) as u16;
                    let mut content = vec![(first, seq)];
                    if first < 2 && rng.random_bool(0.5) {
                        content.push((
                            first + 1 + rng.random_below(2 - u64::from(first)) as u16,
                            seq,
                        ));
                    }
                    let event = ev(rng.random_below(3) as u32, seq, &content);
                    c.insert(event.clone());
                    if let Some(gone) = model.iter().position(|e| !c.contains(e.id())) {
                        let victim = model.remove(gone);
                        let older = &model[..gone];
                        let in_middle =
                            |&(p, _): &(PatternId, u64)| older.iter().any(|e| e.matches(p));
                        if victim.pattern_seqs().iter().any(in_middle) {
                            mid_list[k] += 1;
                        }
                    }
                    model.push(event);
                    assert_eq!(c.len(), model.len(), "{policy}");
                    for p in (0..3).map(PatternId::new) {
                        let listed = model.iter().filter(|e| e.matches(p));
                        let listed: Vec<EventId> = listed.map(Event::id).collect();
                        assert_eq!(c.ids_matching(p), listed, "{policy} {p}");
                        assert_eq!(c.has_pattern(p), !listed.is_empty(), "{policy} {p}");
                    }
                }
            }
        });
        // FIFO's victim heads every list it is on; the others do not.
        assert_eq!(mid_list[0], 0);
        assert!(mid_list[1] > 100 && mid_list[2] > 100, "{mid_list:?}");
    }

    /// The 32 index sets a cache can be built with: every combination
    /// of the five columns.
    fn every_index_set() -> impl Iterator<Item = CacheIndexes> {
        (0..32u8).map(|bits| CacheIndexes {
            ids: bits & 1 != 0,
            pattern_ids: bits & 2 != 0,
            pattern_seqs: bits & 4 != 0,
            summary: bits & 8 != 0,
            seen: bits & 16 != 0,
        })
    }

    #[test]
    fn every_index_set_answers_like_the_all_index_cache() {
        // Leaving an index out changes what the cache can answer, never
        // what it holds: the same walk of fresh ids (a test-side seen
        // set drops the repeats, as a dispatcher's does), under every
        // eviction policy, leaves every index set with the same events
        // and the same answers from each index it keeps.
        forall(
            "every_index_set_answers_like_the_all_index_cache",
            64,
            |rng| {
                let policy = any_policy(rng);
                let capacity = rng.random_range(1..12usize);
                let build = |indexes| {
                    EventCache::with_indexes(capacity, policy, Some(NodeId::new(0)), indexes)
                };
                let mut all = build(CacheIndexes::ALL);
                let (mut model, mut seen) = (Vec::new(), BTreeSet::new());
                let mut caches: Vec<(CacheIndexes, EventCache)> =
                    every_index_set().map(|kept| (kept, build(kept))).collect();
                for _ in 0..rng.random_range(1..100u32) {
                    let arrival = walk_event(rng.random_below(3) as u32, rng.random_below(16));
                    if !insert_modelled(&mut all, &mut model, &mut seen, arrival.clone()) {
                        continue;
                    }
                    // Every index set fills the same slots of its ring.
                    let resident: Vec<EventId> = all.iter().map(Event::id).collect();
                    for (kept, c) in &mut caches {
                        let kept = *kept;
                        c.insert(arrival.clone());
                        assert_eq!(c.len(), all.len(), "{policy} {kept:?}");
                        let iterated: Vec<EventId> = c.iter().map(Event::id).collect();
                        assert_eq!(iterated, resident, "{policy} {kept:?}");
                        if kept.ids {
                            for (source, seq) in walk_coordinates() {
                                let id = EventId::new(source, seq);
                                assert_eq!(c.get(id), all.get(id), "{kept:?} {id}");
                            }
                        }
                        for p in (0..7).map(PatternId::new) {
                            if kept.pattern_ids {
                                assert_eq!(c.ids_matching(p), all.ids_matching(p), "{kept:?} {p}");
                            }
                            if kept.pattern_seqs {
                                for (source, seq) in walk_coordinates() {
                                    assert_eq!(
                                        c.get_by_pattern_seq(source, p, seq),
                                        all.get_by_pattern_seq(source, p, seq),
                                        "{kept:?} {p}"
                                    );
                                }
                            }
                            if kept.summary {
                                let root = |c: &EventCache| c.summary_index().root(p);
                                assert_eq!(root(c), root(&all), "{kept:?} {p}");
                            }
                            if kept.seen {
                                let root = |c: &EventCache| c.seen_index().root(p);
                                assert_eq!(root(c), root(&all), "{kept:?} {p}");
                            }
                        }
                    }
                }
            },
        );
    }

    fn indexed(capacity: usize, indexes: CacheIndexes) -> EventCache {
        EventCache::with_indexes(capacity, EvictionPolicy::Fifo, None, indexes)
    }

    #[test]
    #[should_panic(expected = "ids index")]
    fn get_names_its_missing_index() {
        let without = CacheIndexes {
            ids: false,
            ..CacheIndexes::ALL
        };
        let _ = indexed(8, without).contains(EventId::new(NodeId::new(0), 0));
    }

    #[test]
    #[should_panic(expected = "pattern_ids")]
    fn ids_matching_names_its_missing_index() {
        let without = CacheIndexes {
            pattern_ids: false,
            ..CacheIndexes::ALL
        };
        let _ = indexed(8, without).ids_matching(PatternId::new(1));
    }

    #[test]
    #[should_panic(expected = "pattern_seqs")]
    fn get_by_pattern_seq_names_its_missing_index() {
        let without = CacheIndexes {
            pattern_seqs: false,
            ..CacheIndexes::ALL
        };
        let _ = indexed(8, without).get_by_pattern_seq(NodeId::new(0), PatternId::new(1), 0);
    }

    #[test]
    #[should_panic(expected = "summary index")]
    fn summary_index_names_its_missing_index() {
        let without = CacheIndexes {
            summary: false,
            ..CacheIndexes::ALL
        };
        let _ = indexed(8, without).summary_index();
    }

    #[test]
    fn summary_index_tracks_insert_and_eviction_exactly() {
        let mut c = indexed(3, CacheIndexes::ALL);
        for seq in 0..10 {
            c.insert(ev(0, seq, &[(1, seq), ((seq % 2) as u16 + 2, seq)]));
            // After every operation the tree must agree with the exact
            // per-pattern index, pattern by pattern.
            for p in [1u16, 2, 3] {
                let pattern = PatternId::new(p);
                let ids = c.ids_matching(pattern);
                let root = c.summary_index().root(pattern);
                assert_eq!(root.count, ids.len() as u64, "pattern {p} count");
                let mut from_tree = c.summary_index().ids_in(pattern, RangeRef::ROOT);
                let mut expected = ids;
                from_tree.sort();
                expected.sort();
                assert_eq!(from_tree, expected, "pattern {p} ids");
            }
        }
    }

    #[test]
    fn the_seen_index_holds_every_admitted_pair() {
        // Under every policy, churning or not, the seen index holds
        // exactly the (id, pattern) pairs ever admitted, and the live
        // index the resident ones among them.
        forall("the_seen_index_holds_every_admitted_pair", 128, |rng| {
            let policy = any_policy(rng);
            let capacity = rng.random_range(1..24usize);
            let mut c =
                EventCache::with_indexes(capacity, policy, Some(NodeId::new(0)), CacheIndexes::ALL);
            let (mut model, mut seen) = (Vec::new(), BTreeSet::new());
            for _ in 0..rng.random_range(1..100u32) {
                let arrival = walk_event(rng.random_below(3) as u32, rng.random_below(16));
                insert_modelled(&mut c, &mut model, &mut seen, arrival);
                for p in (0..7).map(PatternId::new) {
                    let of_p = |id: &&EventId| walk_event(id.source().value(), id.seq()).matches(p);
                    let admitted: BTreeSet<EventId> = seen.iter().filter(of_p).copied().collect();
                    let resident: BTreeSet<EventId> = model.iter().filter(of_p).copied().collect();
                    // Each pair once: the count, the list and the set agree.
                    let listed = |index: &SummaryIndex| -> BTreeSet<EventId> {
                        let ids = index.ids_in(p, RangeRef::ROOT);
                        let set: BTreeSet<EventId> = ids.iter().copied().collect();
                        assert_eq!(index.root(p).count, ids.len() as u64, "{policy} {p}");
                        assert_eq!(set.len(), ids.len(), "{policy} {p}");
                        set
                    };
                    assert_eq!(listed(c.seen_index()), admitted, "{policy} {p}");
                    assert_eq!(listed(c.summary_index()), resident, "{policy} {p}");
                    assert!(resident.is_subset(&admitted));
                }
            }
        });
    }

    #[test]
    fn policy_display_names() {
        assert_eq!(EvictionPolicy::Fifo.to_string(), "fifo");
        assert_eq!(EvictionPolicy::Random { seed: 1 }.to_string(), "random");
        assert!(EvictionPolicy::SourceBiased { own_permille: 250 }
            .to_string()
            .starts_with("source-biased"));
    }
}

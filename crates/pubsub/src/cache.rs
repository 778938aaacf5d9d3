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
use eps_sim::hash::IdMap;
use eps_sim::Rng;

use crate::event::{Event, EventId};
use crate::pattern::{PatternId, DENSE_UNIVERSE_MAX};
use crate::summary::{RangeRef, RangeSummary, SummaryIndex};

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

enum PolicyState {
    Fifo {
        order: VecDeque<EventId>,
    },
    Random {
        live: Vec<EventId>,
        /// Keyed lookups only — never iterated, so the map's
        /// arbitrary ordering can't leak into any output (victims are
        /// drawn from `live` by RNG index).
        pos: IdMap<EventId, usize>,
        rng: Rng,
    },
    SourceBiased {
        own: VecDeque<EventId>,
        other: VecDeque<EventId>,
        own_cap: usize,
    },
}

impl PolicyState {
    fn new(policy: EvictionPolicy, capacity: usize) -> Self {
        match policy {
            EvictionPolicy::Fifo => PolicyState::Fifo {
                order: VecDeque::new(),
            },
            EvictionPolicy::Random { seed } => PolicyState::Random {
                live: Vec::new(),
                pos: IdMap::default(),
                rng: Rng::from_seed(seed),
            },
            EvictionPolicy::SourceBiased { own_permille } => {
                assert!(
                    own_permille <= 1000,
                    "own_permille is a fraction of 1000, got {own_permille}"
                );
                PolicyState::SourceBiased {
                    own: VecDeque::new(),
                    other: VecDeque::new(),
                    own_cap: capacity * own_permille as usize / 1000,
                }
            }
        }
    }

    fn note_insert(&mut self, id: EventId, is_own: bool) {
        match self {
            PolicyState::Fifo { order } => order.push_back(id),
            PolicyState::Random { live, pos, .. } => {
                pos.insert(id, live.len());
                live.push(id);
            }
            PolicyState::SourceBiased { own, other, .. } => {
                if is_own {
                    own.push_back(id);
                } else {
                    other.push_back(id);
                }
            }
        }
    }

    /// Picks and removes the eviction victim. Must only be called on a
    /// non-empty cache.
    fn pick_victim(&mut self) -> EventId {
        match self {
            PolicyState::Fifo { order } => order.pop_front().expect("full cache has a FIFO head"),
            PolicyState::Random { live, pos, rng } => {
                let idx = rng.random_range(0..live.len());
                let id = live.swap_remove(idx);
                pos.remove(&id);
                if let Some(&moved) = live.get(idx) {
                    pos.insert(moved, idx);
                }
                id
            }
            PolicyState::SourceBiased {
                own,
                other,
                own_cap,
            } => {
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

/// A bounded cache of β events with constant-time lookup by event id
/// and by (source, pattern, per-pattern sequence number).
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
pub struct EventCache {
    capacity: usize,
    owner: Option<NodeId>,
    policy: PolicyState,
    // Each cached event beside its insertion stamp (`inserted_total`
    // when it was admitted, so unique and increasing). Keyed lookups
    // only: the one walk over this map, `iter`, sorts by stamp, so the
    // map's arbitrary ordering can't leak into any output.
    events: IdMap<EventId, (u64, Event)>,
    // Keyed lookups only — never iterated (see `events`).
    by_pattern_seq: IdMap<(NodeId, PatternId, u64), EventId>,
    // Per-pattern index over the live cache contents, kept exact
    // (updated on insert and eviction), each list in insertion order:
    // `ids_matching` — the digest-construction hot path — is a copy of
    // one list instead of a scan of the whole cache.
    by_pattern: PatternIndex,
    // Hash-range summary forest over the cached ids, maintained
    // incrementally on insert/evict (O(log C) per operation — never
    // rebuilt per round). `None` unless the recovery algorithm needs
    // it: the trees cost memory per cached event, so only the
    // summary-digest family pays for them.
    summary: Option<SummaryIndex>,
    // Eviction tombstones: the summary forest over ids this cache has
    // admitted and since evicted (re-admitting an id clears its
    // tombstone, so live and tombstoned sets stay disjoint). Together
    // with `summary` they form the *seen* view pull-mode summary
    // reconciliation announces, so peers stop re-serving surplus this
    // cache has already consumed. Enabled with the summary index; a
    // tombstone is three words per evicted id — far below the events
    // the cache itself holds.
    tombstones: Option<SummaryIndex>,
    inserted_total: u64,
    evicted_total: u64,
}

/// The per-pattern id index of one cache.
///
/// Dense-indexed by [`PatternId::index`] for small universes; at large
/// universes (past [`DENSE_UNIVERSE_MAX`]) a cache of β events can
/// only ever touch a few hundred patterns, so a `Vec` of Π empty
/// `Vec`s per node would dominate the 10⁵–10⁶-node memory budget and a
/// map over the occupied patterns is used instead. Keyed lookups only
/// — never iterated, so the switch cannot change any observable
/// output; within a pattern, ids keep insertion order in both layouts.
#[derive(Clone)]
enum PatternIndex {
    Dense(Vec<VecDeque<EventId>>),
    Sparse(IdMap<u16, VecDeque<EventId>>),
}

/// Drops `id` from one pattern's list. Under FIFO eviction the victim
/// is the oldest entry of every list it is on, so this is a pop, not a
/// shift of the ≈ β/2 ids behind it; the other policies can pick from
/// the middle of a list and pay for the search.
fn unlist(list: &mut VecDeque<EventId>, id: EventId) {
    if list.front() == Some(&id) {
        list.pop_front();
    } else {
        list.retain(|&x| x != id);
    }
}

impl PatternIndex {
    fn new(universe: usize) -> Self {
        if universe > DENSE_UNIVERSE_MAX {
            PatternIndex::Sparse(IdMap::default())
        } else {
            PatternIndex::Dense(Vec::new())
        }
    }

    fn push(&mut self, pattern: PatternId, id: EventId) {
        match self {
            PatternIndex::Dense(lists) => {
                let idx = pattern.index();
                if idx >= lists.len() {
                    lists.resize_with(idx + 1, VecDeque::new);
                }
                lists[idx].push_back(id);
            }
            PatternIndex::Sparse(lists) => lists.entry(pattern.value()).or_default().push_back(id),
        }
    }

    fn remove(&mut self, pattern: PatternId, id: EventId) {
        match self {
            PatternIndex::Dense(lists) => {
                if let Some(list) = lists.get_mut(pattern.index()) {
                    unlist(list, id);
                }
            }
            PatternIndex::Sparse(lists) => {
                if let Some(list) = lists.get_mut(&pattern.value()) {
                    unlist(list, id);
                    if list.is_empty() {
                        lists.remove(&pattern.value());
                    }
                }
            }
        }
    }

    fn get(&self, pattern: PatternId) -> Option<&VecDeque<EventId>> {
        match self {
            PatternIndex::Dense(lists) => lists.get(pattern.index()),
            PatternIndex::Sparse(lists) => lists.get(&pattern.value()),
        }
    }
}

impl std::fmt::Debug for EventCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventCache")
            .field("capacity", &self.capacity)
            .field("len", &self.events.len())
            .field("inserted_total", &self.inserted_total)
            .field("evicted_total", &self.evicted_total)
            .finish()
    }
}

impl Clone for EventCache {
    fn clone(&self) -> Self {
        // Policies with internal RNG state clone structurally.
        let policy = match &self.policy {
            PolicyState::Fifo { order } => PolicyState::Fifo {
                order: order.clone(),
            },
            PolicyState::Random { live, pos, rng } => PolicyState::Random {
                live: live.clone(),
                pos: pos.clone(),
                rng: rng.clone(),
            },
            PolicyState::SourceBiased {
                own,
                other,
                own_cap,
            } => PolicyState::SourceBiased {
                own: own.clone(),
                other: other.clone(),
                own_cap: *own_cap,
            },
        };
        EventCache {
            capacity: self.capacity,
            owner: self.owner,
            policy,
            events: self.events.clone(),
            by_pattern_seq: self.by_pattern_seq.clone(),
            by_pattern: self.by_pattern.clone(),
            summary: self.summary.clone(),
            tombstones: self.tombstones.clone(),
            inserted_total: self.inserted_total,
            evicted_total: self.evicted_total,
        }
    }
}

impl EventCache {
    /// Creates a FIFO cache holding at most `capacity` events (β). A
    /// zero capacity caches nothing — useful for failure injection.
    pub fn new(capacity: usize) -> Self {
        Self::with_policy(capacity, EvictionPolicy::Fifo, None)
    }

    /// Creates a cache with an explicit eviction policy. `owner` is
    /// the dispatcher holding the cache; it is required by
    /// [`EvictionPolicy::SourceBiased`] to classify events.
    ///
    /// # Panics
    ///
    /// Panics if a source-biased policy is configured without an
    /// owner, or with a share above 1000 ‰.
    pub fn with_policy(capacity: usize, policy: EvictionPolicy, owner: Option<NodeId>) -> Self {
        Self::with_policy_sized(capacity, policy, owner, 0)
    }

    /// Like [`EventCache::with_policy`], with a pattern-universe size
    /// hint (Π) that selects the per-pattern index layout: large
    /// universes index only the occupied patterns instead of
    /// allocating Π dense lists. Purely a layout hint — behavior is
    /// identical for any value; `0` means "unknown" (dense).
    pub fn with_policy_sized(
        capacity: usize,
        policy: EvictionPolicy,
        owner: Option<NodeId>,
        universe: usize,
    ) -> Self {
        if matches!(policy, EvictionPolicy::SourceBiased { .. }) {
            assert!(owner.is_some(), "a source-biased cache must know its owner");
        }
        EventCache {
            capacity,
            owner,
            policy: PolicyState::new(policy, capacity),
            events: IdMap::default(),
            by_pattern_seq: IdMap::default(),
            by_pattern: PatternIndex::new(universe),
            summary: None,
            tombstones: None,
            inserted_total: 0,
            evicted_total: 0,
        }
    }

    /// The configured capacity (β).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of events currently cached.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total insertions ever performed.
    pub fn inserted_total(&self) -> u64 {
        self.inserted_total
    }

    /// Total evictions ever performed.
    pub fn evicted_total(&self) -> u64 {
        self.evicted_total
    }

    /// Inserts an event, evicting per policy if full. Re-inserting an
    /// already-cached event is a no-op (the buffer is not an LRU: a
    /// duplicate arrival does not extend an event's life).
    pub fn insert(&mut self, event: Event) {
        if self.capacity == 0 || self.events.contains_key(&event.id()) {
            return;
        }
        if self.events.len() == self.capacity {
            let victim = self.policy.pick_victim();
            self.forget(victim);
            self.evicted_total += 1;
        }
        let id = event.id();
        for &(p, seq) in event.pattern_seqs() {
            self.by_pattern_seq.insert((id.source(), p, seq), id);
            self.by_pattern.push(p, id);
            if let Some(summary) = &mut self.summary {
                summary.add(p, id);
            }
            // A re-admitted id moves from tombstoned back to live, so
            // the seen view never double-counts it.
            if let Some(tombstones) = &mut self.tombstones {
                tombstones.discard(p, id);
            }
        }
        let is_own = self.owner == Some(id.source());
        self.policy.note_insert(id, is_own);
        self.events.insert(id, (self.inserted_total, event));
        self.inserted_total += 1;
    }

    fn forget(&mut self, id: EventId) {
        if let Some((_, event)) = self.events.remove(&id) {
            for &(p, seq) in event.pattern_seqs() {
                self.by_pattern_seq.remove(&(id.source(), p, seq));
                self.by_pattern.remove(p, id);
                if let Some(summary) = &mut self.summary {
                    summary.remove(p, id);
                }
                if let Some(tombstones) = &mut self.tombstones {
                    tombstones.add(p, id);
                }
            }
        }
    }

    /// Looks up an event by id.
    pub fn get(&self, id: EventId) -> Option<&Event> {
        self.events.get(&id).map(|(_, event)| event)
    }

    /// `true` if the event is cached.
    pub fn contains(&self, id: EventId) -> bool {
        self.events.contains_key(&id)
    }

    /// Looks up an event by its (source, pattern, per-pattern
    /// sequence) coordinates — the identification used by the pull
    /// algorithms' negative digests.
    pub fn get_by_pattern_seq(
        &self,
        source: NodeId,
        pattern: PatternId,
        seq: u64,
    ) -> Option<&Event> {
        self.by_pattern_seq
            .get(&(source, pattern, seq))
            .and_then(|&id| self.get(id))
    }

    /// Ids of all cached events matching `pattern`, in insertion order
    /// — the positive digest content of the push algorithm. Served
    /// from the exact per-pattern index: a copy of the live id list,
    /// not a scan of the whole cache.
    pub fn ids_matching(&self, pattern: PatternId) -> Vec<EventId> {
        self.by_pattern.get(pattern).map_or_else(Vec::new, |list| {
            let (older, newer) = list.as_slices();
            [older, newer].concat()
        })
    }

    /// Iterates over cached events in insertion order (a re-admitted
    /// event takes the place of its latest admission). Sorts the live
    /// entries on every call: for tests and one-off index builds, not
    /// for the event path.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        let mut live: Vec<&(u64, Event)> = self.events.values().collect();
        live.sort_unstable_by_key(|(stamp, _)| *stamp);
        live.into_iter().map(|(_, event)| event)
    }

    /// Turns on the hash-range summary index (see
    /// [`crate::summary`]). From here on, every insert and eviction
    /// updates the per-pattern trees incrementally. Events already
    /// cached are indexed now, once — there is no per-round rebuild.
    pub fn enable_summary_index(&mut self) {
        let mut index = SummaryIndex::new();
        for event in self.iter() {
            for &(p, _) in event.pattern_seqs() {
                index.add(p, event.id());
            }
        }
        self.summary = Some(index);
        // Evictions from here on are tombstoned; anything evicted
        // before enabling predates the recovery algorithm entirely.
        self.tombstones = Some(SummaryIndex::new());
    }

    /// `true` if [`EventCache::enable_summary_index`] has been called.
    pub fn has_summary_index(&self) -> bool {
        self.summary.is_some()
    }

    /// The hash-range summary index over the cached ids.
    ///
    /// # Panics
    ///
    /// Panics if the index was never enabled — the summary digest
    /// family must be registered with `needs_summary_index` so the
    /// dispatcher turns it on at construction.
    pub fn summary_index(&self) -> &SummaryIndex {
        self.summary
            .as_ref()
            .expect("summary index not enabled; the algorithm must declare needs_summary_index")
    }

    /// The aggregate of `pattern`'s **seen** view over `range`: every
    /// id this cache has ever admitted — the live residents plus the
    /// eviction tombstones. The two sets are disjoint (re-admitting an
    /// evicted id clears its tombstone), so counts add and hashes XOR.
    /// Pull-mode summary reconciliation announces and compares this
    /// view: a peer must not serve surplus the cache has already
    /// consumed and evicted.
    ///
    /// # Panics
    ///
    /// Panics if the summary index was never enabled (see
    /// [`EventCache::summary_index`]).
    pub fn seen_summary(&self, pattern: PatternId, range: RangeRef) -> RangeSummary {
        let live = self.summary_index().summarize(pattern, range);
        match &self.tombstones {
            Some(tombstones) => {
                let dead = tombstones.summarize(pattern, range);
                RangeSummary {
                    range,
                    count: live.count + dead.count,
                    hash: live.hash ^ dead.hash,
                }
            }
            None => live,
        }
    }

    /// The complete seen-view id list of `range` under `pattern`: the
    /// live residents (in leaf/insertion order) followed by the
    /// tombstoned ids — the pull-mode expansion of a small range.
    ///
    /// # Panics
    ///
    /// Panics if the summary index was never enabled.
    pub fn seen_ids_in(&self, pattern: PatternId, range: RangeRef) -> Vec<EventId> {
        let mut ids = self.summary_index().ids_in(pattern, range);
        if let Some(tombstones) = &self.tombstones {
            ids.extend(tombstones.ids_in(pattern, range));
        }
        ids
    }

    /// Evicted ids currently tombstoned under `pattern`.
    pub fn tombstoned(&self, pattern: PatternId) -> u64 {
        self.tombstones
            .as_ref()
            .map_or(0, |t| t.root(pattern).count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eps_sim::check::forall;

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
            assert_eq!(c.evicted_total(), first_kept);
            for seq in 0..count {
                let id = EventId::new(NodeId::new(0), seq);
                assert_eq!(c.contains(id), seq >= first_kept);
            }
        });
    }

    #[test]
    fn reinsert_does_not_refresh_position() {
        let mut c = EventCache::new(2);
        c.insert(ev(0, 0, &[(1, 0)]));
        c.insert(ev(0, 1, &[(1, 1)]));
        c.insert(ev(0, 0, &[(1, 0)])); // no-op
        c.insert(ev(0, 2, &[(1, 2)])); // evicts seq 0
        assert!(!c.contains(EventId::new(NodeId::new(0), 0)));
        assert!(c.contains(EventId::new(NodeId::new(0), 1)));
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
        assert_eq!(c.inserted_total(), 0);
    }

    #[test]
    fn never_exceeds_capacity_under_any_policy() {
        for policy in [
            EvictionPolicy::Fifo,
            EvictionPolicy::Random { seed: 7 },
            EvictionPolicy::SourceBiased { own_permille: 300 },
        ] {
            let mut c = EventCache::with_policy(7, policy, Some(NodeId::new(0)));
            for seq in 0..100 {
                c.insert(ev((seq % 3) as u32, seq, &[(1, seq)]));
                assert!(c.len() <= 7, "{policy} exceeded capacity");
            }
            assert_eq!(c.inserted_total(), 100, "{policy}");
            assert_eq!(c.evicted_total(), 93, "{policy}");
        }
    }

    #[test]
    fn iter_is_insertion_order() {
        let mut c = EventCache::new(3);
        for seq in 0..3 {
            c.insert(ev(0, seq, &[(1, seq)]));
        }
        let seqs: Vec<u64> = c.iter().map(|e| e.id().seq()).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn random_eviction_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut c = EventCache::with_policy(5, EvictionPolicy::Random { seed }, None);
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
        let mut c = EventCache::with_policy(50, EvictionPolicy::Random { seed: 3 }, None);
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
        let mut c = EventCache::with_policy(
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
        let mut c = EventCache::with_policy(
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
        let _ =
            EventCache::with_policy(10, EvictionPolicy::SourceBiased { own_permille: 500 }, None);
    }

    /// Inserts `event` and keeps `model` — the live ids, oldest
    /// admission first — in step, by asking the cache what it evicted.
    fn insert_modelled(c: &mut EventCache, model: &mut Vec<EventId>, event: Event) {
        let id = event.id();
        if !c.contains(id) {
            c.insert(event);
            model.retain(|&m| c.contains(m));
            model.push(id);
        }
        let live: Vec<EventId> = c.iter().map(Event::id).collect();
        assert_eq!(&live, model);
        assert_eq!(c.len(), model.len());
    }

    #[test]
    fn a_readmitted_event_iterates_once_at_its_new_place() {
        let id = |seq| EventId::new(NodeId::new(0), seq);
        for policy in [
            EvictionPolicy::Fifo,
            EvictionPolicy::Random { seed: 7 },
            EvictionPolicy::SourceBiased { own_permille: 300 },
        ] {
            let mut c = EventCache::with_policy(2, policy, Some(NodeId::new(9)));
            let mut model = Vec::new();
            // 2 evicts 0, then 0 comes back and evicts 1 (oldest-first
            // policies; random eviction picks its own victims).
            for seq in [0, 1, 2, 0] {
                insert_modelled(&mut c, &mut model, ev(0, seq, &[(1, seq)]));
            }
            if !matches!(policy, EvictionPolicy::Random { .. }) {
                assert_eq!(model, vec![id(2), id(0)], "{policy}");
            }
            // Whatever was evicted so far, one of these re-admits it.
            for seq in [1, 2, 0] {
                insert_modelled(&mut c, &mut model, ev(0, seq, &[(1, seq)]));
            }
            // The summary index is built from the same walk.
            c.enable_summary_index();
            assert_eq!(c.summary_index().root(PatternId::new(1)).count, 2);
        }
    }

    #[test]
    fn indexes_agree_with_iteration_on_random_walks() {
        forall("cache_indexes_agree_with_iteration", 128, |rng| {
            let owner = NodeId::new(0);
            let policy = match rng.random_below(3) {
                0 => EvictionPolicy::Fifo,
                1 => EvictionPolicy::Random {
                    seed: rng.next_u64(),
                },
                _ => EvictionPolicy::SourceBiased { own_permille: 400 },
            };
            let universe = [8, DENSE_UNIVERSE_MAX + 1][rng.random_below(2) as usize];
            let capacity = rng.random_range(1..12usize);
            let mut c = EventCache::with_policy_sized(capacity, policy, Some(owner), universe);
            // An event's content is a function of its id, as on the
            // wire; few ids, so evicted ones keep coming back.
            let event = |source: u32, seq: u64| {
                let own = ((seq % 5) as u16, seq);
                match seq % 2 {
                    0 => ev(source, seq, &[own]),
                    _ => ev(source, seq, &[own, (5, seq)]),
                }
            };
            let mut model = Vec::new();
            for _ in 0..rng.random_range(1..100u32) {
                let arrival = event(rng.random_below(3) as u32, rng.random_below(16));
                insert_modelled(&mut c, &mut model, arrival);
                assert!(c.len() <= capacity);
                let live: Vec<&Event> = c.iter().collect();
                for p in (0..7).map(PatternId::new) {
                    let listed = live.iter().filter(|e| e.matches(p));
                    let listed: Vec<EventId> = listed.map(|e| e.id()).collect();
                    assert_eq!(c.ids_matching(p), listed, "{policy} {p}");
                    for (source, seq) in (0..3).flat_map(|s| (0..16).map(move |q| (s, q))) {
                        let source = NodeId::new(source);
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
    fn sparse_pattern_index_matches_dense_behavior() {
        // Same operation sequence against a dense-hinted and a
        // sparse-hinted cache: every observable must agree.
        let mut dense = EventCache::with_policy_sized(3, EvictionPolicy::Fifo, None, 70);
        let mut sparse =
            EventCache::with_policy_sized(3, EvictionPolicy::Fifo, None, DENSE_UNIVERSE_MAX + 1);
        for seq in 0..10 {
            let e = ev(
                (seq % 2) as u32,
                seq,
                &[(1, seq), ((seq % 3) as u16 + 2, seq)],
            );
            dense.insert(e.clone());
            sparse.insert(e);
        }
        for p in 0..6u16 {
            assert_eq!(
                dense.ids_matching(PatternId::new(p)),
                sparse.ids_matching(PatternId::new(p)),
                "pattern {p}"
            );
        }
        assert_eq!(dense.len(), sparse.len());
        assert_eq!(dense.evicted_total(), sparse.evicted_total());
        let d: Vec<EventId> = dense.iter().map(Event::id).collect();
        let s: Vec<EventId> = sparse.iter().map(Event::id).collect();
        assert_eq!(d, s);
    }

    #[test]
    fn summary_index_tracks_insert_and_eviction_exactly() {
        use crate::summary::RangeRef;

        let mut c = EventCache::new(3);
        c.enable_summary_index();
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
    fn enable_summary_index_indexes_existing_contents() {
        let mut c = EventCache::new(8);
        for seq in 0..5 {
            c.insert(ev(0, seq, &[(1, seq)]));
        }
        assert!(!c.has_summary_index());
        c.enable_summary_index();
        assert_eq!(c.summary_index().root(PatternId::new(1)).count, 5);
    }

    #[test]
    #[should_panic]
    fn summary_index_panics_when_disabled() {
        let c = EventCache::new(8);
        let _ = c.summary_index();
    }

    #[test]
    fn seen_view_unions_live_and_tombstoned_ids() {
        let mut c = EventCache::new(2);
        c.enable_summary_index();
        let p = PatternId::new(1);
        for seq in 0..5 {
            c.insert(ev(0, seq, &[(1, seq)]));
        }
        // 3 evicted, 2 live; the seen view covers all 5.
        assert_eq!(c.tombstoned(p), 3);
        let root = c.seen_summary(p, RangeRef::ROOT);
        assert_eq!(root.count, 5);
        let mut ids = c.seen_ids_in(p, RangeRef::ROOT);
        ids.sort();
        let expected: Vec<EventId> = (0..5).map(|s| EventId::new(NodeId::new(0), s)).collect();
        assert_eq!(ids, expected);
        let hash = expected
            .iter()
            .fold(0u64, |acc, &id| acc ^ crate::summary::mix_event_id(id));
        assert_eq!(root.hash, hash, "disjoint sets XOR into the union hash");
    }

    #[test]
    fn readmitting_an_evicted_id_clears_its_tombstone() {
        let mut c = EventCache::new(1);
        c.enable_summary_index();
        let p = PatternId::new(1);
        c.insert(ev(0, 0, &[(1, 0)]));
        c.insert(ev(0, 1, &[(1, 1)])); // evicts seq 0
        assert_eq!(c.tombstoned(p), 1);
        c.insert(ev(0, 0, &[(1, 0)])); // readmits seq 0, evicts seq 1
        assert_eq!(c.tombstoned(p), 1, "seq 1 tombstoned, seq 0 revived");
        assert_eq!(c.seen_summary(p, RangeRef::ROOT).count, 2);
        assert!(c.contains(EventId::new(NodeId::new(0), 0)));
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

//! An event cache holds only what its strategy reads, and churn does
//! not grow it: on a β = 1500 cache filled with Figure 2 content, a
//! counting global allocator pins the live heap bytes per cached event
//! of each index set a strategy builds — the events themselves plus
//! the indexes kept over them — after one cache-full and after four.
//! It also pins the live heap of a loss detector in the two shapes a
//! dispatcher's detector takes, and that building a cache or a
//! dispatcher allocates nothing: a population of them costs no set-up
//! time before its first event, and that a warmed dispatcher's publish
//! allocates twice: the content and its `Arc`, no route. Last, it pins
//! the row map of a filled subscription table at Π = 8192: sized by the
//! rows the table holds, not by the pattern universe.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{BTreeSet, VecDeque};
use std::iter;

use eps_overlay::{NodeId, OverlayKind, Topology};
use eps_pubsub::{
    flood_subscriptions_direct, CacheIndexes, Dispatcher, DispatcherConfig, Event, EventCache,
    EventId, EvictionPolicy, LossDetector, PatternId, PatternSpace, SubscriptionTable,
};
use eps_sim::Rng;

/// The paper's event cache size β.
const BETA: usize = 1500;

/// The Figure 2 cell's dispatchers, each one a source.
const SOURCES: usize = 100;

thread_local! {
    /// Bytes this thread holds on the heap: allocations add, frees
    /// subtract, reallocations count their change.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// Allocations and reallocations this thread has made.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count_alloc(change: isize) {
    LIVE.with(|bytes| bytes.set(bytes.get() + change));
    ALLOCS.with(|calls| calls.set(calls.get() + 1));
}

/// The system allocator, keeping each thread's live-byte count.
struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the only addition is arithmetic on a thread-local `Cell`
// whose const initializers and lack of destructors mean touching them
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size() as isize);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.with(|bytes| bytes.set(bytes.get() - layout.size() as isize));
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc(new_size as isize - layout.size() as isize);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Live heap bytes per cached event of a β = 1500 FIFO cache building
/// `indexes`, filled with Figure 2 events ([`fig2_events`]). Read after
/// one cache-full and again after four, when three β of evictions have
/// churned every index.
fn bytes_per_cached_event(indexes: CacheIndexes) -> [f64; 2] {
    let mut events = fig2_events();
    let before = LIVE.with(Cell::get);
    let mut cache =
        EventCache::with_indexes(BETA, EvictionPolicy::Fifo, Some(NodeId::new(0)), indexes);
    let per_event = |cache: &EventCache| {
        assert_eq!(cache.len(), BETA);
        (LIVE.with(Cell::get) - before) as f64 / BETA as f64
    };
    events.by_ref().take(BETA).for_each(|e| cache.insert(e));
    let once = per_event(&cache);
    events.by_ref().take(3 * BETA).for_each(|e| cache.insert(e));
    [once, per_event(&cache)]
}

/// Figure 2 events: 100 sources publishing round-robin, each event
/// matching 1–3 of Π = 70 patterns (2.96 on average) with
/// per-(source, pattern) sequence numbers, as a publisher assigns
/// them.
fn fig2_events() -> impl Iterator<Item = Event> {
    let space = PatternSpace::paper_default();
    let universe = usize::from(space.universe());
    let mut rng = Rng::from_seed(1);
    let mut content = Vec::new();
    let mut counters = vec![0u64; SOURCES * universe];
    (0..).map(move |k: usize| {
        let source = k % SOURCES;
        space.random_content_into(&mut rng, &mut content);
        let seqs = content.iter().map(|&p| {
            let counter = &mut counters[source * universe + p.index()];
            *counter += 1;
            (p, *counter - 1)
        });
        let id = EventId::new(NodeId::new(source as u32), (k / SOURCES) as u64);
        Event::new(id, seqs.collect())
    })
}

/// Reports and checks one index set: at most `limit` bytes per cached
/// event after four cache-fulls, and, where `steady`, no more than
/// after one — give or take a byte, as the resident events' contents
/// differ in length.
fn check_bytes(label: &str, indexes: CacheIndexes, limit: f64, steady: bool) {
    let [once, churned] = bytes_per_cached_event(indexes);
    eprintln!("{label}: {once:.1} B after one fill, {churned:.1} B after four per cached event");
    assert!(churned <= limit, "{label}: {churned:.0} B per cached event");
    if steady {
        assert!(
            churned <= once + 1.0,
            "{label}: {once:.1} B grew to {churned:.1} B"
        );
    }
}

/// The pull routes' set: lookup by (source, pattern, seq) only.
#[test]
fn a_pull_cache_holds_at_most_152_bytes_per_event() {
    let seqs = CacheIndexes {
        pattern_seqs: true,
        ..CacheIndexes::NONE
    };
    check_bytes("pattern_seqs only", seqs, 152.0, true);
}

/// Push's set: the id index and the per-pattern id lists. The lists'
/// deques may keep capacity a pattern's list once needed, so they are
/// not held steady.
#[test]
fn a_push_cache_holds_at_most_168_bytes_per_event() {
    let ids = CacheIndexes {
        ids: true,
        pattern_ids: true,
        ..CacheIndexes::NONE
    };
    check_bytes("ids and pattern_ids", ids, 168.0, false);
}

/// No-recovery's set: the events themselves and the id index.
#[test]
fn a_cache_without_optional_indexes_holds_at_most_141_bytes_per_event() {
    let ids = CacheIndexes {
        ids: true,
        ..CacheIndexes::NONE
    };
    check_bytes("ids only", ids, 141.0, true);
}

/// Summary-pull's set: the id index and the seen index. The seen index
/// keeps every admitted (id, pattern) pair for the life of the cache,
/// so it grows with every admission and only the first fill is pinned:
/// one entry of an ordered map per pair and no per-level aggregates.
#[test]
fn a_summary_pull_cache_holds_at_most_306_bytes_per_event_after_one_fill() {
    let seen = CacheIndexes {
        ids: true,
        seen: true,
        ..CacheIndexes::NONE
    };
    let [once, churned] = bytes_per_cached_event(seen);
    eprintln!("ids and seen: {once:.1} B after one fill, {churned:.1} B after four");
    assert!(once <= 306.0, "{once:.0} B per cached event");
}

/// Summary-push's set: the id index and the summary index, which keeps
/// only the live ids, so churn does not grow it. The map's nodes split and
/// merge as ids come and go, so after four fills it sits a few bytes
/// above one fill; it is not held steady.
#[test]
fn a_summary_push_cache_holds_at_most_316_bytes_per_event() {
    let live = CacheIndexes {
        ids: true,
        summary: true,
        ..CacheIndexes::NONE
    };
    check_bytes("ids and summary", live, 316.0, false);
}

/// Live heap bytes per cached event after one cache-full, for a set of
/// the id index, the per-pattern id lists and the seq index.
fn bytes_with(ids: bool, pattern_ids: bool, pattern_seqs: bool) -> f64 {
    bytes_per_cached_event(CacheIndexes {
        ids,
        pattern_ids,
        pattern_seqs,
        ..CacheIndexes::NONE
    })[0]
}

/// The default pair of linear-digest indexes (push-pull's set, beside
/// the id index) costs the events and the id index plus each of its
/// two indexes: neither index pays for the other.
#[test]
fn the_default_pair_costs_its_two_indexes() {
    let (none, ids, seqs, both) = (
        bytes_with(true, false, false),
        bytes_with(true, true, false),
        bytes_with(true, false, true),
        bytes_with(true, true, true),
    );
    eprintln!("id index only: {none:.0} B, default pair: {both:.0} B per cached event");
    assert!(none < ids && none < seqs, "an index costs something");
    let apart = (ids - none) + (seqs - none);
    assert!(
        (both - none - apart).abs() <= 1.0,
        "{both:.0} B vs {none:.0} + {apart:.0} B"
    );
}

/// The (event, pattern) entries a β = 1500 cache of Figure 2 events
/// lists after one fill: the content [`bytes_per_cached_event`] draws.
fn entries_after_one_fill() -> usize {
    let space = PatternSpace::paper_default();
    let mut rng = Rng::from_seed(1);
    let mut content = Vec::new();
    (0..BETA)
        .map(|_| {
            space.random_content_into(&mut rng, &mut content);
            content.len()
        })
        .sum()
}

/// Push's per-pattern lists hold ring slots, 4 B each. On a filled
/// Figure 2 push cache they cost what the slots take in their deques —
/// under twice their 4 B each, as a deque that only grows keeps
/// capacity below twice its length past its first four — plus one map
/// entry per pattern in a table of 128 buckets (Π = 70). Lists of
/// 16-byte event ids cost more than twice the bound.
#[test]
fn a_push_cache_lists_4_byte_slots() {
    let lists = (bytes_with(true, true, false) - bytes_with(true, false, false)) * BETA as f64;
    let entries = entries_after_one_fill();
    let universe = usize::from(PatternSpace::paper_default().universe());
    let map = 128 * (std::mem::size_of::<(PatternId, VecDeque<u32>)>() + 1) + 16;
    let bound = 2 * 4 * entries + 4 * 4 * universe + map;
    eprintln!(
        "push lists: {lists:.0} B for {entries} entries, {:.1} B each (bound {bound} B)",
        lists / entries as f64
    );
    assert!(lists <= bound as f64, "{lists:.0} B > {bound} B");
}

/// The pull routes' set leaves the id index out, and saves what that
/// index costs beside any other: its buckets, 4 096 of 4 B for β = 1500
/// ids at a load of at most 5/8, whether the per-pattern id lists are
/// kept too or not.
#[test]
fn a_pull_cache_builds_no_id_index() {
    let saved = bytes_with(true, false, true) - bytes_with(false, false, true);
    let beside_lists = bytes_with(true, true, true) - bytes_with(false, true, true);
    eprintln!(
        "the id index costs {saved:.1} B per cached event ({beside_lists:.1} B beside the lists)"
    );
    let buckets = 4096.0 * 4.0 / BETA as f64;
    for cost in [saved, beside_lists] {
        assert!(
            (cost - buckets).abs() <= 1.0,
            "{cost:.1} B vs {buckets:.1} B"
        );
    }
}

/// `EventCache::heap_bytes` reads each index's buckets by capacity:
/// on a filled Figure 2 cache, 4 096 of 4 B for the id index and
/// 8 192 of 4 B for the seq index (≈ 4 440 entries at a load of at
/// most 5/8), which is what each costs the heap; and β inline events
/// for the ring.
#[test]
fn heap_bytes_reads_each_index_at_4_bytes_a_bucket() {
    let both = CacheIndexes {
        ids: true,
        pattern_seqs: true,
        ..CacheIndexes::NONE
    };
    let mut cache = EventCache::with_indexes(BETA, EvictionPolicy::Fifo, None, both);
    fig2_events().take(4 * BETA).for_each(|e| cache.insert(e));
    let heap = cache.heap_bytes();
    let ring = BETA * std::mem::size_of::<Event>();
    assert_eq!(
        (heap.ring, heap.ids, heap.pattern_seqs),
        (ring, 4096 * 4, 8192 * 4)
    );
    for (index, reported) in [(true, heap.ids), (false, heap.pattern_seqs)] {
        let without = CacheIndexes {
            ids: !index,
            pattern_seqs: index,
            ..CacheIndexes::NONE
        };
        let saved =
            (bytes_per_cached_event(both)[1] - bytes_per_cached_event(without)[1]) * BETA as f64;
        assert!(
            (saved - reported as f64).abs() < 1.0,
            "{saved} B vs {reported} B"
        );
    }
}

/// Live heap bytes of a dispatcher that has marked `events` seen, and
/// what its `seen_heap_bytes` reports. The
/// dispatcher subscribes to nothing and keeps no seq index, so marking
/// an id is all it does with an event: its seen set is all it holds.
fn seen_bytes(events: &[EventId]) -> (isize, usize) {
    let config = DispatcherConfig {
        cache_indexes: CacheIndexes {
            ids: true,
            ..CacheIndexes::NONE
        },
        ..DispatcherConfig::default()
    };
    let mut next_hops = Vec::new();
    let before = LIVE.with(Cell::get);
    let mut dispatcher = Dispatcher::new(NodeId::new(SOURCES as u32), config);
    for &id in events {
        let event = Event::new(id, vec![(PatternId::new(1), id.seq())]);
        let (_, receipt) = dispatcher.on_event(event, None, &mut next_hops);
        assert!(!receipt.duplicate && !receipt.delivered);
    }
    let bytes = LIVE.with(Cell::get) - before;
    assert_eq!(dispatcher.cache().len(), 0);
    (bytes, dispatcher.seen_heap_bytes())
}

/// A seen set keys each word of 64 seqs by one packed `u64`, 16 B an
/// entry with its word, where a (source, word) tuple took 24. At the
/// Figure 2 shape — 100 sources, 300 dense seqs each, as a dispatcher
/// sees in the 6 s cell — 500 words in 1 024 buckets: 0.58 B per seen
/// event (0.85 B with tuple keys). At the `sim_scale` shape — one event
/// from each of 4 000 sources — 4 000 entries in 8 192 buckets:
/// 34.8 B per seen event (51.2 B with tuple keys). Either way
/// `seen_heap_bytes` reads exactly the bytes the set holds.
#[test]
fn a_seen_set_holds_16_byte_entries() {
    let fig2 = (0..300 * SOURCES as u64)
        .map(|k| EventId::new(NodeId::new((k % SOURCES as u64) as u32), k / SOURCES as u64));
    let scale = (0..4000).map(|source| EventId::new(NodeId::new(source), 0));
    for (shape, events, limit) in [
        ("Fig. 2", fig2.collect::<Vec<_>>(), 0.6),
        ("sim_scale", scale.collect(), 36.0),
    ] {
        let (bytes, reported) = seen_bytes(&events);
        let per_event = bytes as f64 / events.len() as f64;
        eprintln!("{shape} seen set: {bytes} B, {per_event:.2} B per seen event");
        assert!(
            per_event <= limit,
            "{shape}: {per_event:.2} B per seen event"
        );
        assert_eq!(bytes, reported as isize, "{shape}");
    }
}

/// Live heap bytes of a loss detector that has seen the first event of
/// every stream of `sources` sources on the patterns `tracked` returns
/// for each.
fn detector_bytes(sources: u32, tracked: impl Fn(u32) -> Vec<PatternId>) -> isize {
    let before = LIVE.with(Cell::get);
    let mut det = LossDetector::new();
    let mut streams = 0;
    for source in 0..sources {
        let patterns = tracked(source);
        streams += patterns.len();
        let event = Event::new(
            EventId::new(NodeId::new(source), 0),
            patterns.into_iter().map(|p| (p, 0)).collect(),
        );
        assert!(det.observe(&event, |_| true).is_empty());
    }
    assert_eq!(det.stream_count(), streams);
    LIVE.with(Cell::get) - before
}

/// A Figure 2 dispatcher's detector: 100 sources, each seen on the 2
/// of Π = 70 patterns the dispatcher subscribes to — 200 streams in a
/// map of 256 buckets, 4 368 B. The bound adds 5 %.
#[test]
fn a_fig2_detector_holds_at_most_4586_bytes() {
    let bytes = detector_bytes(SOURCES as u32, |_| {
        vec![PatternId::new(3), PatternId::new(41)]
    });
    eprintln!("Fig. 2 detector: {bytes} B");
    assert!(bytes <= 4_586, "{bytes} B");
}

/// The 100-client cell's detector: 40 sources, each seen on all 70
/// patterns, which 100 clients per dispatcher subscribe to between
/// them — 2 800 streams in a map of 4 096 buckets, 69 648 B. The bound
/// adds 5 %.
#[test]
fn a_detector_tracking_every_pattern_holds_at_most_73130_bytes() {
    let bytes = detector_bytes(40, |_| (0..70).map(PatternId::new).collect());
    eprintln!("100-client detector: {bytes} B");
    assert!(bytes <= 73_130, "{bytes} B");
}

/// Allocations `build` makes, keeping what it built alive meanwhile.
fn allocations_of<T>(build: impl FnOnce() -> T) -> usize {
    let before = ALLOCS.with(Cell::get);
    let built = build();
    let calls = ALLOCS.with(Cell::get) - before;
    drop(built);
    calls
}

/// Mean allocations per `Dispatcher::publish` of a warmed Figure 2
/// dispatcher built with `config`: 100 cache-fulls of its own events
/// first, so the ring, the indexes, the per-pattern counters and the
/// seen set hold their size, then 640 timed publishes, which fill ten
/// more words of the seen set and grow none of its buckets.
fn allocations_per_publish(config: DispatcherConfig) -> f64 {
    const WARM: usize = 100 * BETA;
    const TIMED: usize = 640;
    let space = PatternSpace::paper_default();
    let mut rng = Rng::from_seed(1);
    let contents: Vec<Vec<PatternId>> = (0..WARM + TIMED)
        .map(|_| space.random_content(&mut rng))
        .collect();
    let mut dispatcher = Dispatcher::new(NodeId::new(0), config);
    dispatcher.subscribe_local(PatternId::new(3), &[]);
    dispatcher.subscribe_local(PatternId::new(41), &[]);
    let mut next_hops = Vec::new();
    let (warm, timed) = contents.split_at(WARM);
    for content in warm {
        dispatcher.publish(content, &mut next_hops);
    }
    let before = ALLOCS.with(Cell::get);
    for content in timed {
        dispatcher.publish(content, &mut next_hops);
    }
    (ALLOCS.with(Cell::get) - before) as f64 / TIMED as f64
}

/// A publish allocates the event's pattern-seq list and the `Arc` that
/// shares it, and nothing else: the event's route is its source, which
/// its id already names, and a recording dispatcher records nothing of
/// its own events.
#[test]
fn a_publish_allocates_twice() {
    for record_routes in [false, true] {
        let config = DispatcherConfig {
            record_routes,
            ..DispatcherConfig::default()
        };
        let calls = allocations_per_publish(config);
        eprintln!("publish, record_routes {record_routes}: {calls:.3} allocations");
        assert_eq!(calls, 2.0, "record_routes {record_routes}");
    }
}

/// The 24 index sets a cache can be built with: every combination of
/// the five columns that has `ids` or `pattern_seqs`.
fn every_index_set() -> impl Iterator<Item = CacheIndexes> {
    let sets = (0..32u8).map(|bits| CacheIndexes {
        ids: bits & 1 != 0,
        pattern_ids: bits & 2 != 0,
        pattern_seqs: bits & 4 != 0,
        summary: bits & 8 != 0,
        seen: bits & 16 != 0,
    });
    sets.filter(|set| set.ids || set.pattern_seqs)
}

#[test]
fn building_a_cache_or_a_dispatcher_allocates_nothing() {
    let policies = [
        EvictionPolicy::Fifo,
        EvictionPolicy::Random { seed: 7 },
        EvictionPolicy::SourceBiased { own_permille: 300 },
    ];
    for indexes in every_index_set() {
        for eviction in policies {
            let owner = NodeId::new(0);
            let cache =
                allocations_of(|| EventCache::with_indexes(BETA, eviction, Some(owner), indexes));
            assert_eq!(cache, 0, "cache {indexes:?} {eviction}");
            let config = DispatcherConfig {
                eviction,
                cache_indexes: indexes,
                ..DispatcherConfig::default()
            };
            let dispatcher = allocations_of(|| Dispatcher::new(owner, config));
            assert_eq!(dispatcher, 0, "dispatcher {indexes:?} {eviction}");
        }
    }
}

/// Live heap bytes of `table`'s row map: a clone's heap — its slot
/// registry, row map and rows; the default route's bitset is shared,
/// not copied — less the rows and the registry, read off its content.
/// A filled table's rows are its patterns with a local subscriber or a
/// route other than the default one towards `parent` (the root has no
/// default), one word each; its slots are the neighbors it routes to.
fn row_map_bytes(table: &SubscriptionTable, parent: Option<NodeId>) -> isize {
    let (mut rows, mut slots) = (0, BTreeSet::new());
    for p in table.all_patterns() {
        let neighbors: Vec<NodeId> = table.neighbors_for(p, None).collect();
        if table.has_local(p) || neighbors.as_slice() != parent.as_slice() {
            rows += 1;
        }
        slots.extend(neighbors);
    }
    let before = LIVE.with(Cell::get);
    let copy = table.clone();
    let bytes = LIVE.with(Cell::get) - before;
    drop(copy);
    bytes - 8 * rows - (slots.len() * std::mem::size_of::<NodeId>()) as isize
}

/// The tables of an N = 4000, Π = 8192 tree (the `sim_scale` content
/// model: two patterns per dispatcher, degree at most 4) keep only
/// their non-empty pattern words. A dispatcher there holds ≈ 20 rows in
/// ≈ 10 words of the pattern bitset, ≈ 120 B of row map, though the
/// few near the root hold hundreds of rows; a dense map — a bit per
/// pattern up to the highest row and a count per word — costs ≈ 1 KB
/// nearly everywhere. Pinned as the mean over every 100th dispatcher,
/// rooted as the fill roots the tree (at node 0).
#[test]
fn a_filled_pi_8192_table_keeps_a_row_map_of_at_most_256_bytes() {
    const NODES: usize = 4000;
    let mut rng = Rng::from_seed(1);
    let topology = Topology::build(OverlayKind::Tree, NODES, 4, &mut rng);
    let space = PatternSpace::new(8192, 3);
    let subscriptions: Vec<Vec<PatternId>> = (0..NODES)
        .map(|_| space.random_subscriptions(2, &mut rng))
        .collect();
    let mut dispatchers: Vec<Dispatcher> = (topology.nodes())
        .map(|id| Dispatcher::new(id, DispatcherConfig::default()))
        .collect();
    for (d, patterns) in dispatchers.iter_mut().zip(&subscriptions) {
        for &p in patterns {
            d.subscribe_local(p, &[]);
        }
    }
    flood_subscriptions_direct(&mut dispatchers, &topology);
    let mut parent = vec![None; NODES];
    let mut queue = VecDeque::from([NodeId::new(0)]);
    while let Some(v) = queue.pop_front() {
        for &w in topology.neighbors(v) {
            if w.index() != 0 && parent[w.index()].is_none() {
                parent[w.index()] = Some(v);
                queue.push_back(w);
            }
        }
    }
    let sizes: Vec<isize> = (0..NODES)
        .step_by(100)
        .map(|v| row_map_bytes(dispatchers[v].table(), parent[v]))
        .collect();
    let mean = sizes.iter().sum::<isize>() as f64 / sizes.len() as f64;
    eprintln!("row map bytes, every 100th dispatcher: {sizes:?}, mean {mean:.0} B");
    assert!(mean <= 256.0, "{mean:.0} B of row map per dispatcher");
}

/// Live heap bytes of a combined-pull dispatcher — a seq-index cache
/// and a loss detector — that every Figure 2 pattern is subscribed at,
/// after 4β arrivals of [`fig2_events`], and what its
/// `route_heap_bytes` reports. Each event arrives along its source's
/// tree path, which moves once, halfway through; every 31st arrival is
/// a cross-link copy off that path. The test keeps no copy.
fn route_bytes(record_routes: bool) -> (isize, usize) {
    let config = DispatcherConfig {
        record_routes,
        cache_indexes: CacheIndexes {
            pattern_seqs: true,
            ..CacheIndexes::NONE
        },
        ..DispatcherConfig::default()
    };
    let universe = PatternSpace::paper_default().universe();
    let upstream = |source: u32, k: usize| match k {
        k if k % 31 == 30 => vec![190 + source % 5],
        k if k < 2 * BETA => vec![100 + source % 7],
        _ => vec![110 + source % 3, 120 + source % 4],
    };
    let mut events = fig2_events().enumerate();
    let mut next_hops = Vec::new();
    let before = LIVE.with(Cell::get);
    let mut dispatcher = Dispatcher::new(NodeId::new(200), config);
    for p in 0..universe {
        dispatcher.subscribe_local(PatternId::new(p), &[]);
    }
    for (k, event) in events.by_ref().take(4 * BETA) {
        let hops = upstream(event.source().value(), k);
        let route = iter::once(event.source())
            .chain(hops.iter().map(|&hop| NodeId::new(hop)))
            .collect();
        let event = Event::from_wire(event.id(), event.pattern_seqs().to_vec(), route);
        let from = NodeId::new(hops[hops.len() - 1]);
        let (_, receipt) = dispatcher.on_event(event, Some(from), &mut next_hops);
        assert!(receipt.delivered);
    }
    assert_eq!(dispatcher.cache().len(), BETA);
    let bytes = LIVE.with(Cell::get) - before;
    (bytes, dispatcher.route_heap_bytes())
}

/// `Dispatcher::route_heap_bytes` reads what recorded routes cost the
/// heap: recording adds to a dispatcher exactly the book and the route
/// allocations it reports beyond the routes its cached events arrived
/// with. The book shares each source's path with the events that
/// followed it, so the routes cost under half of one allocation per
/// cached event.
#[test]
fn route_heap_bytes_reads_the_book_and_each_shared_route_once() {
    let (recording, reported) = route_bytes(true);
    let (plain, arrived) = route_bytes(false);
    eprintln!(
        "routes: {reported} B recorded, {arrived} B as arrived ({} B live with, {} B without)",
        recording, plain
    );
    assert_eq!(recording - plain, reported as isize - arrived as isize);
    assert!(2 * reported < arrived, "{reported} B vs {arrived} B");
}

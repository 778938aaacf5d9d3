//! An event cache holds only what its strategy reads: on a β = 1500
//! cache filled with Figure 2 content, a counting global allocator
//! pins the live heap bytes per cached event of each index set a
//! strategy builds — the events themselves plus the indexes kept over
//! them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use eps_overlay::NodeId;
use eps_pubsub::{CacheIndexes, Event, EventCache, EventId, EvictionPolicy, PatternSpace};
use eps_sim::Rng;

/// The paper's event cache size β.
const BETA: usize = 1500;

/// The Figure 2 cell's dispatchers, each one a source.
const SOURCES: usize = 100;

thread_local! {
    /// Bytes this thread holds on the heap: allocations add, frees
    /// subtract, reallocations count their change.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

/// The system allocator, keeping each thread's live-byte count.
struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the only addition is arithmetic on a thread-local `Cell`
// whose const initializer and lack of a destructor mean touching it
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.with(|bytes| bytes.set(bytes.get() + layout.size() as isize));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.with(|bytes| bytes.set(bytes.get() - layout.size() as isize));
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.with(|bytes| bytes.set(bytes.get() + new_size as isize - layout.size() as isize));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Live heap bytes per cached event of a β = 1500 FIFO cache building
/// `indexes`, filled with Figure 2 events: 100 sources publishing
/// round-robin, each event matching 1–3 of Π = 70 patterns (2.96 on
/// average) with per-(source, pattern) sequence numbers, as a
/// publisher assigns them.
fn bytes_per_cached_event(indexes: CacheIndexes) -> f64 {
    let space = PatternSpace::paper_default();
    let universe = usize::from(space.universe());
    let mut rng = Rng::from_seed(1);
    let mut content = Vec::with_capacity(space.max_patterns_per_event());
    let mut counters = vec![0u64; SOURCES * universe];
    let before = LIVE.with(Cell::get);
    let mut cache = EventCache::with_indexes(
        BETA,
        EvictionPolicy::Fifo,
        Some(NodeId::new(0)),
        universe,
        indexes,
    );
    for k in 0..BETA {
        let source = k % SOURCES;
        space.random_content_into(&mut rng, &mut content);
        let seqs = content.iter().map(|&p| {
            let counter = &mut counters[source * universe + p.index()];
            *counter += 1;
            (p, *counter - 1)
        });
        let id = EventId::new(NodeId::new(source as u32), (k / SOURCES) as u64);
        cache.insert(Event::new(id, seqs.collect()));
    }
    assert_eq!(cache.len(), BETA);
    let live = LIVE.with(Cell::get) - before;
    live as f64 / BETA as f64
}

/// The pull routes' set: lookup by (source, pattern, seq) only.
#[test]
fn a_pull_cache_holds_at_most_360_bytes_per_event() {
    let seqs = CacheIndexes {
        pattern_seqs: true,
        ..CacheIndexes::NONE
    };
    let bytes = bytes_per_cached_event(seqs);
    eprintln!("pattern_seqs only: {bytes:.0} B per cached event");
    assert!(bytes <= 360.0, "{bytes:.0} B per cached event");
}

/// Push's set: the per-pattern id lists only.
#[test]
fn a_push_cache_holds_at_most_320_bytes_per_event() {
    let ids = CacheIndexes {
        pattern_ids: true,
        ..CacheIndexes::NONE
    };
    let bytes = bytes_per_cached_event(ids);
    eprintln!("pattern_ids only: {bytes:.0} B per cached event");
    assert!(bytes <= 320.0, "{bytes:.0} B per cached event");
}

/// The default pair (push-pull's set) costs the events plus each of
/// its two indexes: neither index pays for the other.
#[test]
fn the_default_pair_costs_its_two_indexes() {
    let only = |pattern_ids, pattern_seqs| {
        bytes_per_cached_event(CacheIndexes {
            pattern_ids,
            pattern_seqs,
            summary: false,
        })
    };
    let (none, ids, seqs, both) = (
        only(false, false),
        only(true, false),
        only(false, true),
        only(true, true),
    );
    eprintln!("no index: {none:.0} B, default pair: {both:.0} B per cached event");
    assert!(none < ids && none < seqs, "an index costs something");
    let apart = (ids - none) + (seqs - none);
    assert!(
        (both - none - apart).abs() <= 1.0,
        "{both:.0} B vs {none:.0} + {apart:.0} B"
    );
}

//! Decoding allocates only what the input justifies: over a corpus of
//! damaged frames — every wire kind, cut at every length, with random
//! bit flips, and with a list count overwritten to claim a million
//! items — a counting global allocator bounds the bytes one `decode`
//! call allocates by a constant times the frame length, whatever the
//! frame claims.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use eps_gossip::codec::{decode, encode};
use eps_gossip::{Envelope, GossipMessage};
use eps_overlay::NodeId;
use eps_pubsub::summary::LEAF_LEVEL;
use eps_pubsub::{
    Event, EventId, LossRecord, PatternId, PubSubMessage, RangeDetail, RangeRef, RangeSummary,
};
use eps_sim::check::forall;

/// Bytes one `decode` may allocate per byte of its input.
const BYTES_PER_INPUT_BYTE: usize = 16;

/// Payload size the corpus is encoded at, in bits.
const PAYLOAD_BITS: u64 = 1024;

thread_local! {
    /// Bytes this thread has allocated (reallocations count their
    /// growth).
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting what each thread asks of it.
struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the only addition is arithmetic on a thread-local `Cell`
// whose const initializer and lack of a destructor mean touching it
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.with(|bytes| bytes.set(bytes.get() + layout.size()));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.with(|bytes| bytes.set(bytes.get() + new_size.saturating_sub(layout.size())));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes `f` allocates, dropping what it returns.
fn allocated_by<T>(f: impl FnOnce() -> T) -> usize {
    let before = ALLOCATED.with(Cell::get);
    drop(f());
    ALLOCATED.with(Cell::get) - before
}

/// Decodes `frame`, asserting the allocation bound; returns the bytes
/// allocated.
fn decode_within_bound(frame: &[u8]) -> usize {
    let used = allocated_by(|| decode(frame, PAYLOAD_BITS));
    assert!(
        used <= BYTES_PER_INPUT_BYTE * frame.len(),
        "decoding {} bytes allocated {used} bytes: {frame:02x?}",
        frame.len()
    );
    used
}

fn event(hops: u32, patterns: u16) -> Event {
    let source = NodeId::new(3);
    Event::from_wire(
        EventId::new(source, 41),
        (0..patterns)
            .map(|p| (PatternId::new(p * 2), u64::from(p) + 7))
            .collect(),
        std::iter::once(source)
            .chain((0..hops).map(|h| NodeId::new(100 + h)))
            .collect(),
    )
}

fn losses(n: u64) -> Vec<LossRecord> {
    (0..n)
        .map(|i| LossRecord {
            source: NodeId::new((i % 5) as u32),
            pattern: PatternId::new((i % 7) as u16),
            seq: 1000 + i,
        })
        .collect()
}

fn ids(n: u32) -> Vec<EventId> {
    (0..n)
        .map(|i| EventId::new(NodeId::new(i), 50 + u64::from(i)))
        .collect()
}

/// One frame of every wire kind, each list non-empty, so every list
/// count in the codec has a byte to damage; then an event, a push
/// digest, a request and a reply that name a seq past
/// `EventId::MAX_SEQ`, which decode to an error.
fn frames() -> Vec<Vec<u8>> {
    let gossiper = NodeId::new(2);
    let pattern = PatternId::new(5);
    let far = EventId::new(NodeId::new(3), EventId::MAX_SEQ + 1);
    let far_event = Event::new(far, vec![(pattern, 0)]);
    let envelopes = [
        Envelope::PubSub(PubSubMessage::Subscribe(pattern)),
        Envelope::PubSub(PubSubMessage::Unsubscribe(pattern)),
        Envelope::PubSub(PubSubMessage::Event(event(6, 3))),
        Envelope::CrossEvent(event(2, 2)),
        Envelope::Gossip(GossipMessage::PushDigest {
            gossiper,
            pattern,
            ids: Arc::new(ids(20)),
        }),
        Envelope::Gossip(GossipMessage::PullDigest {
            gossiper,
            pattern,
            lost: losses(12),
        }),
        Envelope::Gossip(GossipMessage::SourcePull {
            gossiper,
            source: NodeId::new(9),
            lost: losses(6),
            route: (0..4).map(NodeId::new).collect(),
        }),
        Envelope::Gossip(GossipMessage::RandomPull {
            gossiper,
            lost: losses(3),
            ttl: 8,
        }),
        Envelope::Request(ids(5)),
        Envelope::Reply(vec![event(0, 1), event(5, 2)]),
        Envelope::Gossip(GossipMessage::SummaryDigest {
            gossiper,
            pattern,
            ranges: Arc::new(vec![RangeSummary {
                range: RangeRef::new(3, 0xabc),
                count: 7,
                hash: u64::MAX,
            }]),
            details: Arc::new(vec![RangeDetail {
                range: RangeRef::new(LEAF_LEVEL, 0xfffff),
                ids: ids(5),
            }]),
        }),
        Envelope::RangeRequest {
            pattern,
            ranges: vec![RangeRef::ROOT, RangeRef::new(1, 15)],
        },
        Envelope::PubSub(PubSubMessage::Event(far_event.clone())),
        Envelope::Gossip(GossipMessage::PushDigest {
            gossiper,
            pattern,
            ids: Arc::new(vec![far]),
        }),
        Envelope::Request(vec![far]),
        Envelope::Reply(vec![far_event]),
    ];
    envelopes
        .iter()
        .map(|env| encode(env, PAYLOAD_BITS).expect("the corpus envelopes fit"))
        .collect()
}

/// A list count that claims a million items — a varint and a `u32`
/// little-endian — overwritten at every offset of every frame, cut
/// just past it and whole: the damage that asked the parent codec for
/// up to 2²⁰ items before a single one was read.
#[test]
fn overstated_counts_allocate_no_more_than_the_input_justifies() {
    const CLAIMS: [&[u8]; 2] = [&[0xff, 0xff, 0x3f], &[0xff, 0xff, 0x0f, 0x00]];
    for frame in frames() {
        for claim in CLAIMS {
            for at in 0..frame.len().saturating_sub(claim.len()) {
                let mut damaged = frame.clone();
                damaged[at..at + claim.len()].copy_from_slice(claim);
                decode_within_bound(&damaged);
                decode_within_bound(&damaged[..at + claim.len() + 1]);
            }
        }
    }
}

/// Every prefix of every frame, and random bit flips with a random
/// cut, as in the codec's damaged-frame property.
#[test]
fn damaged_frames_allocate_no_more_than_the_input_justifies() {
    let frames = frames();
    for frame in &frames {
        for cut in 0..=frame.len() {
            decode_within_bound(&frame[..cut]);
        }
    }
    forall("damaged_frames_allocate_within_bound", 2000, |rng| {
        let mut damaged = rng.choose(&frames).expect("non-empty corpus").clone();
        for _ in 0..rng.random_range(1..9usize) {
            let bit = rng.random_range(0..damaged.len() * 8);
            damaged[bit / 8] ^= 1 << (bit % 8);
        }
        let cut = rng.random_range(1..damaged.len() + 1);
        decode_within_bound(&damaged[..cut]);
    });
}

/// A one-hop route is the event's source: a decoded event that has not
/// left its source allocates what its source's `Event::new` and the
/// pattern list allocate, and nothing for a route.
#[test]
fn a_decoded_one_hop_event_allocates_no_route() {
    let event = event(0, 3);
    let frame = encode(
        &Envelope::PubSub(PubSubMessage::Event(event.clone())),
        PAYLOAD_BITS,
    )
    .expect("fits");
    let built = allocated_by(|| Event::new(event.id(), event.pattern_seqs().to_vec()));
    let decoded = allocated_by(|| decode(&frame, PAYLOAD_BITS).expect("decodes"));
    assert_eq!(decoded, built);
}

//! A tree event hop allocates next to nothing: on the default Figure 2
//! population, warmed by lossless floods, a counting global allocator
//! bounds the heap allocations one forwarding `SimNode::handle_into`
//! makes. Its messages go into one outbox the caller reuses, as the
//! runners reuse theirs, so the output costs no allocation once the
//! outbox has grown. Where the strategy records routes, the route an
//! event leaves with is the route book's shared entry for its source,
//! so an unchanged tree path allocates nothing more. What is left is
//! the growth of the node's own maps and sets as new events arrive.
//!
//! A publish allocates what its dispatcher does (the event's
//! pattern-seq list and the `Arc` sharing it), the vector
//! `SimNode::tick_publish` returns, and the growth of the publisher's
//! cache: counting the event's subscribers merges their sorted lists in
//! place. The bounds fail a count that collects the subscribers to sort
//! and deduplicate them: ≈ 2.3 more allocations per publish.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;

use eps_gossip::{Algorithm, Envelope};
use eps_harness::{build_population, NodeCtx, Population, ScenarioConfig, SimNode};
use eps_metrics::{DeliverySink, MessageCounters};
use eps_overlay::NodeId;
use eps_pubsub::{ClientId, EventId, PubSubMessage};
use eps_sim::{Rng, SimTime};

/// Lossless publishes that warm caches, seen-sets and route books
/// before anything is counted, and the publishes counted after them.
const WARM: usize = 2000;
const COUNTED: usize = 2000;

thread_local! {
    /// Heap allocations this thread has made (a reallocation counts as
    /// one).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting how often each thread asks it for
/// memory.
struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the only addition is arithmetic on a thread-local `Cell`
// whose const initializer and lack of a destructor mean touching it
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Delivery bookkeeping that keeps nothing, so only the node's own
/// allocations are counted.
struct Discard;

impl DeliverySink for Discard {
    fn published(&mut self, _: EventId, _: SimTime, _: u32) {}
    fn delivered(&mut self, _: EventId, _: NodeId, _: ClientId, _: SimTime) {}
    fn recovered(&mut self, _: EventId, _: NodeId, _: ClientId, _: SimTime) {}
}

/// One call into `node` of `pop`, with the context a runner would lend.
fn call<R>(
    pop: &mut Population,
    counters: &mut MessageCounters,
    gossip_rng: &mut Rng,
    node: NodeId,
    f: impl FnOnce(&mut SimNode, &mut NodeCtx) -> R,
) -> R {
    let mut ctx = NodeCtx {
        now: SimTime::ZERO,
        neighbors: pop.view.neighbors(node),
        graph_neighbors: pop.topology.neighbors(node),
        space: &pop.space,
        subscribers_of: &pop.subscribers_of,
        gossip_rng,
        tracker: &mut Discard,
        counters,
        trace: &mut None,
    };
    f(&mut pop.nodes[node.index()], &mut ctx)
}

/// What a flood counted: forwarding hops (a call that sent something)
/// and the allocations they made, and the allocations of the publishes.
#[derive(Default)]
struct Counted {
    hops: u64,
    hop_allocations: u64,
    publish_allocations: u64,
}

/// Publishes events `publishes` round-robin over the population and
/// floods each to quiescence with no loss, one `SimNode::handle_into`
/// per hop into one reused outbox.
fn flood(pop: &mut Population, rate: f64, publishes: std::ops::Range<usize>) -> Counted {
    let mut counters = MessageCounters::new(pop.nodes.len());
    let mut rng = Rng::from_seed(1);
    let mut counted = Counted::default();
    let (mut queue, mut outbox) = (VecDeque::new(), Vec::new());
    for k in publishes {
        let publisher = NodeId::new((k % pop.nodes.len()) as u32);
        let before = ALLOCATIONS.with(Cell::get);
        let (out, _) = call(pop, &mut counters, &mut rng, publisher, |node, ctx| {
            node.tick_publish(rate, ctx)
        });
        counted.publish_allocations += ALLOCATIONS.with(Cell::get) - before;
        queue.extend(out.into_iter().map(|o| (o.to, publisher, o.env)));
        while let Some((to, from, env)) = queue.pop_front() {
            assert!(
                matches!(env, Envelope::PubSub(PubSubMessage::Event(_))),
                "a lossless tree flood sends events only: {env:?}"
            );
            let before = ALLOCATIONS.with(Cell::get);
            call(pop, &mut counters, &mut rng, to, |node, ctx| {
                node.handle_into(from, env, ctx, &mut outbox)
            });
            let used = ALLOCATIONS.with(Cell::get) - before;
            if !outbox.is_empty() {
                counted.hops += 1;
                counted.hop_allocations += used;
            }
            queue.extend(outbox.drain(..).map(|o| (o.to, to, o.env)));
        }
    }
    counted
}

/// Mean allocations per forwarding hop and per publish on
/// `algorithm`'s default population, after the warm-up floods.
fn allocations_per_hop_and_publish(algorithm: Algorithm) -> (f64, f64) {
    let config = ScenarioConfig {
        algorithm,
        ..ScenarioConfig::default()
    };
    let mut pop = build_population(&config);
    flood(&mut pop, config.publish_rate, 0..WARM);
    let counted = flood(&mut pop, config.publish_rate, WARM..WARM + COUNTED);
    let Counted {
        hops,
        hop_allocations,
        publish_allocations,
    } = counted;
    assert!(hops > COUNTED as u64, "floods forward: {hops} hops");
    let per_hop = hop_allocations as f64 / hops as f64;
    let per_publish = publish_allocations as f64 / COUNTED as f64;
    eprintln!(
        "{algorithm}: {hop_allocations} allocations in {hops} forwarding hops, {per_hop:.4} each; \
         {publish_allocations} in {COUNTED} publishes, {per_publish:.4} each"
    );
    (per_hop, per_publish)
}

#[test]
fn a_push_hop_allocates_nothing_for_its_output() {
    let (per_hop, per_publish) = allocations_per_hop_and_publish(Algorithm::push());
    assert!(
        per_hop <= 0.05,
        "{per_hop:.3} allocations per forwarding hop"
    );
    // ≈ 3.6: the three, and the growth of the publisher's cache,
    // whose indexes are larger under push.
    assert!(
        per_publish <= 3.7,
        "{per_publish:.3} allocations per publish"
    );
}

#[test]
fn a_route_recording_hop_shares_its_route() {
    let (per_hop, per_publish) = allocations_per_hop_and_publish(Algorithm::combined_pull());
    assert!(
        per_hop <= 0.01,
        "{per_hop:.3} allocations per forwarding hop"
    );
    // ≈ 3.05: the three, and the growth of the publisher's cache.
    assert!(
        per_publish <= 3.1,
        "{per_publish:.3} allocations per publish"
    );
}

//! A tree event hop allocates next to nothing: on the default Figure 2
//! population, warmed by lossless floods, a counting global allocator
//! bounds the heap allocations one forwarding `SimNode::handle_into`
//! makes. Its messages go into one outbox the caller reuses, as the
//! runners reuse theirs, so the output costs no allocation once the
//! outbox has grown. Where the strategy records routes, the route an
//! event leaves with is the route book's shared entry for its source,
//! so an unchanged tree path allocates nothing more. What is left is
//! the growth of the node's own maps and sets as new events arrive.

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

/// Publishes events `publishes` round-robin over the population and
/// floods each to quiescence with no loss, one `SimNode::handle_into`
/// per hop into one reused outbox. Returns the forwarding hops (a call
/// that sent something) and the allocations they made.
fn flood(pop: &mut Population, rate: f64, publishes: std::ops::Range<usize>) -> (u64, u64) {
    let mut counters = MessageCounters::new(pop.nodes.len());
    let mut rng = Rng::from_seed(1);
    let (mut hops, mut allocations) = (0, 0);
    let (mut queue, mut outbox) = (VecDeque::new(), Vec::new());
    for k in publishes {
        let publisher = NodeId::new((k % pop.nodes.len()) as u32);
        let (out, _) = call(pop, &mut counters, &mut rng, publisher, |node, ctx| {
            node.tick_publish(rate, ctx)
        });
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
                hops += 1;
                allocations += used;
            }
            queue.extend(outbox.drain(..).map(|o| (o.to, to, o.env)));
        }
    }
    (hops, allocations)
}

/// Mean allocations per forwarding hop on `algorithm`'s default
/// population, after the warm-up floods.
fn allocations_per_forwarding_hop(algorithm: Algorithm) -> f64 {
    let config = ScenarioConfig {
        algorithm,
        ..ScenarioConfig::default()
    };
    let mut pop = build_population(&config);
    flood(&mut pop, config.publish_rate, 0..WARM);
    let (hops, allocations) = flood(&mut pop, config.publish_rate, WARM..WARM + COUNTED);
    assert!(hops > COUNTED as u64, "floods forward: {hops} hops");
    let mean = allocations as f64 / hops as f64;
    eprintln!("{algorithm}: {allocations} allocations in {hops} forwarding hops, {mean:.4} each");
    mean
}

#[test]
fn a_push_hop_allocates_nothing_for_its_output() {
    let mean = allocations_per_forwarding_hop(Algorithm::push());
    assert!(mean <= 0.05, "{mean:.3} allocations per forwarding hop");
}

#[test]
fn a_route_recording_hop_shares_its_route() {
    let mean = allocations_per_forwarding_hop(Algorithm::combined_pull());
    assert!(mean <= 0.01, "{mean:.3} allocations per forwarding hop");
}

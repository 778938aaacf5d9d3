//! The dispatcher: a node of the content-based publish-subscribe
//! network, implementing subscription forwarding and best-effort event
//! routing on the tree overlay (paper, Section II).
//!
//! The dispatcher is *pure* protocol logic: methods take incoming
//! messages and name the next hops — the neighbors to send a
//! subscription to, or to forward an event to, with the copy to
//! forward. The harness builds the messages for those hops and maps
//! them onto links; the epidemic recovery algorithms (crate
//! `eps-gossip`) plug in on top via the state accessors.
//!
//! The subscription table is a dispatcher's only subscription state.
//! Which subscriptions it has sent each neighbor is not stored beside
//! it but read off it: `Subscribe(p)` stands towards neighbor `n`
//! exactly while a local client or some other neighbor subscribes to
//! `p`, so an (un)subscription goes to the neighbors whose answer its
//! table write flipped.

use std::collections::hash_map::Entry;
use std::iter;
use std::sync::Arc;

use eps_overlay::NodeId;
use eps_sim::hash::{map_heap_bytes, IdMap, IdSet, IdState};

use crate::cache::{CacheIndexes, EventCache, EvictionPolicy};
use crate::clients::{ClientId, ClientRegistry};
use crate::detector::{LossDetector, LossRecord};
use crate::event::{Event, EventId};
use crate::pattern::PatternId;
use crate::table::{Interface, SubscriptionTable};

/// Static per-dispatcher configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DispatcherConfig {
    /// Event cache capacity β. A publisher caches its own events
    /// whether or not it subscribes to them (paper, Section IV-A).
    pub cache_capacity: usize,
    /// Whether event messages record the dispatchers they traverse
    /// (required by publisher-based pull; costs 32 bits per hop).
    pub record_routes: bool,
    /// Which cached event to sacrifice when the buffer is full
    /// (the paper uses FIFO; alternatives support its buffer-policy
    /// investigation).
    pub eviction: EvictionPolicy,
    /// Which indexes the event cache builds: each costs memory and
    /// insert/evict time per cached event, so a dispatcher builds only
    /// those its recovery strategy reads. The default keeps the id
    /// index and both linear-digest indexes, and no summary index.
    pub cache_indexes: CacheIndexes,
}

impl Default for DispatcherConfig {
    fn default() -> Self {
        DispatcherConfig {
            cache_capacity: 1500,
            record_routes: false,
            eviction: EvictionPolicy::Fifo,
            cache_indexes: CacheIndexes::default(),
        }
    }
}

/// A protocol message of the best-effort publish-subscribe layer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PubSubMessage {
    /// Propagated subscription for a pattern.
    Subscribe(PatternId),
    /// Propagated unsubscription for a pattern.
    Unsubscribe(PatternId),
    /// A published event travelling the dispatching tree.
    Event(Event),
}

/// What happened when a dispatcher processed an incoming event.
#[derive(Clone, Debug, Default)]
pub struct EventReceipt {
    /// The event matched a local subscription and had not been seen
    /// before: it was delivered to local clients.
    pub delivered: bool,
    /// The event had already been received (through another path or a
    /// recovery); it was neither delivered nor forwarded again.
    pub duplicate: bool,
    /// Losses newly detected from this event's sequence numbers; none
    /// where the dispatcher detects no losses (its cache has no
    /// [`CacheIndexes::pattern_seqs`] index).
    pub losses: Vec<LossRecord>,
}

/// Per-source reverse-route knowledge harvested from route-recording
/// events (the `Routes` buffer of publisher-based pull).
///
/// The book owns each recorded route: one shared allocation per source,
/// the path from that source to this dispatcher, which the event copies
/// that followed it carry too. On an unchanged tree every event of a
/// source follows the same path, so one allocation serves them all.
#[derive(Clone, Debug, Default)]
pub struct RouteBook {
    /// Keyed lookups only — this map is never iterated, so its
    /// arbitrary ordering can't leak into any output.
    routes: IdMap<NodeId, Arc<[NodeId]>>,
}

/// What a dispatcher without a route book reads: no routes.
static NO_ROUTES: RouteBook = RouteBook {
    routes: IdMap::with_hasher(IdState),
};

impl RouteBook {
    /// Records that an event which followed `route` (source first)
    /// reached `hop`, and returns the route it leaves with: `route`
    /// then `hop`. Where the source's entry already spells that path,
    /// the entry is shared; otherwise the longer route is allocated
    /// once and replaces the entry. The comparison reads the path once,
    /// as the copy it saves would.
    fn record_hop(&mut self, route: &[NodeId], hop: NodeId) -> Arc<[NodeId]> {
        let spells = |stored: &[NodeId]| stored.split_last() == Some((&hop, route));
        let appended = || route.iter().copied().chain(iter::once(hop)).collect();
        match self.routes.entry(route[0]) {
            Entry::Occupied(mut entry) => {
                if !spells(entry.get()) {
                    entry.insert(appended());
                }
                Arc::clone(entry.get())
            }
            Entry::Vacant(entry) => Arc::clone(entry.insert(appended())),
        }
    }

    /// The last known route *from* `source` to this dispatcher.
    pub fn route_from(&self, source: NodeId) -> Option<&[NodeId]> {
        self.routes.get(&source).map(|route| &route[..])
    }

    /// The reverse route: from this dispatcher back *towards*
    /// `source`, excluding this dispatcher itself — the hop list a
    /// publisher-bound gossip message must follow.
    pub fn route_to(&self, source: NodeId) -> Option<Vec<NodeId>> {
        self.routes.get(&source).map(|r| {
            let mut rev: Vec<NodeId> = r.iter().rev().skip(1).copied().collect();
            if rev.is_empty() {
                // The source is a direct neighbor (route was [source]).
                rev.push(source);
            }
            rev
        })
    }

    /// Number of sources with known routes.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// `true` if no routes are known.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }
}

/// The ids a dispatcher has received or published, for duplicate
/// suppression: one bit per event, 64 events of one source to a word.
///
/// A source numbers its events densely from zero (`next_event_seq`),
/// so where traffic is dense this holds 64× fewer entries than a set
/// of ids, and where it is sparse, one 16-byte entry per event, as a
/// set of ids would. A word's key is one `u64`: the source in the high
/// 32 bits and `seq >> 6` in the low 32, so a seq must be at most
/// [`EventId::MAX_SEQ`]. One map for all sources, not a bit vector per
/// source: that would be one heap block per (dispatcher, source) pair,
/// which at N = 4000 costs more than the map saves. Membership only —
/// never iterated.
#[derive(Clone, Debug, Default)]
struct SeenSet {
    words: IdMap<u64, u64>,
}

impl SeenSet {
    /// The key of the word holding `id`'s bit, and the bit.
    ///
    /// # Panics
    ///
    /// Panics if `id`'s seq is past [`EventId::MAX_SEQ`]: its word
    /// would alias another's. The codec refuses such ids off the wire.
    fn locate(id: EventId) -> (u64, u64) {
        let seq = id.seq();
        assert!(seq <= EventId::MAX_SEQ, "{id}: seq past EventId::MAX_SEQ");
        (
            u64::from(id.source().value()) << 32 | seq >> 6,
            1 << (seq & 63),
        )
    }

    /// Marks `id`; returns `true` if it was not marked before.
    fn insert(&mut self, id: EventId) -> bool {
        let (key, bit) = Self::locate(id);
        let word = self.words.entry(key).or_insert(0);
        let new = *word & bit == 0;
        *word |= bit;
        new
    }

    fn contains(&self, id: EventId) -> bool {
        let (key, bit) = Self::locate(id);
        self.words.get(&key).is_some_and(|word| word & bit != 0)
    }
}

/// A content-based publish-subscribe dispatcher.
///
/// # Examples
///
/// Two dispatchers, a subscription, and a published event:
///
/// ```
/// use eps_pubsub::{Dispatcher, DispatcherConfig, PatternId, PubSubMessage};
/// use eps_overlay::NodeId;
///
/// let (a, b) = (NodeId::new(0), NodeId::new(1));
/// let mut d0 = Dispatcher::new(a, DispatcherConfig::default());
/// let mut d1 = Dispatcher::new(b, DispatcherConfig::default());
///
/// // d1 subscribes to pattern 5 and propagates towards d0.
/// let p = PatternId::new(5);
/// assert_eq!(d1.subscribe_local(p, &[a]), [a]);
/// d0.on_subscribe(p, b, &[b]);
///
/// // d0 publishes an event matching pattern 5: it is routed to d1.
/// let mut next_hops = Vec::new();
/// let (event, _) = d0.publish(&[p], &mut next_hops);
/// assert_eq!(next_hops, [b]);
/// let (_, receipt) = d1.on_event(event, Some(a), &mut next_hops);
/// assert!(receipt.delivered && next_hops.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct Dispatcher {
    id: NodeId,
    config: DispatcherConfig,
    table: SubscriptionTable,
    /// End-user client subscriptions behind this dispatcher. The
    /// routing `table`'s `Local` bits hold exactly this registry's
    /// aggregate filter; the per-pattern transitions reported by the
    /// registry drive (un)propagation on the tree.
    clients: ClientRegistry,
    cache: EventCache,
    /// Kept only where the cache serves by seq
    /// ([`CacheIndexes::pattern_seqs`]): only then is a loss read.
    /// Boxed at its first use, so a dispatcher that detects no losses
    /// carries one word for it, and building one allocates nothing.
    losses: Option<Box<Losses>>,
    /// Written only where events record their routes, boxed at the
    /// first; reads before it see [`NO_ROUTES`].
    routes: Option<Box<RouteBook>>,
    seen: SeenSet,
    next_event_seq: u64,
    /// Publication sequence counters of the patterns this dispatcher
    /// has published on. Keyed lookups only — never iterated.
    pattern_counters: IdMap<u16, u64>,
    delivered_total: u64,
}

/// A loss-detecting dispatcher's detector, with the patterns it
/// subscribed to mid-run: the two are only read together.
#[derive(Clone, Debug, Default)]
struct Losses {
    detector: LossDetector,
    /// Membership checks only — never iterated, so the set's
    /// arbitrary ordering can't leak into any output.
    late: IdSet<PatternId>,
}

/// A dispatcher's loss state, boxed at its first use; `None` where
/// `config` detects no losses.
fn losses<'a>(
    config: &DispatcherConfig,
    losses: &'a mut Option<Box<Losses>>,
) -> Option<&'a mut Losses> {
    let detects = config.cache_indexes.pattern_seqs;
    detects.then(|| &mut **losses.get_or_insert_default())
}

impl Dispatcher {
    /// Creates a dispatcher with empty state.
    pub fn new(id: NodeId, config: DispatcherConfig) -> Self {
        let cache = EventCache::with_indexes(
            config.cache_capacity,
            config.eviction,
            Some(id),
            config.cache_indexes,
        );
        Dispatcher {
            id,
            config,
            table: SubscriptionTable::new(),
            clients: ClientRegistry::new(),
            cache,
            losses: None,
            routes: None,
            seen: SeenSet::default(),
            next_event_seq: 0,
            pattern_counters: IdMap::default(),
            delivered_total: 0,
        }
    }

    /// This dispatcher's overlay node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The dispatcher's configuration.
    pub fn config(&self) -> &DispatcherConfig {
        &self.config
    }

    /// The subscription table.
    pub fn table(&self) -> &SubscriptionTable {
        &self.table
    }

    /// The event cache.
    pub fn cache(&self) -> &EventCache {
        &self.cache
    }

    /// Routes harvested from received events (publisher-based pull).
    pub fn routes(&self) -> &RouteBook {
        self.routes.as_deref().unwrap_or(&NO_ROUTES)
    }

    /// `true` if the event id has been received or published here.
    pub fn has_seen(&self, id: EventId) -> bool {
        self.seen.contains(id)
    }

    /// Heap bytes of the seen set (the ids [`Dispatcher::has_seen`]
    /// answers for), by capacity.
    pub fn seen_heap_bytes(&self) -> usize {
        map_heap_bytes(&self.seen.words)
    }

    /// Heap bytes of the recorded routes this dispatcher holds: the
    /// boxed route book and its map, by capacity, and each distinct
    /// route allocation that the book and the cache's ring hold,
    /// counted once (a one-hop route has none). A route the book
    /// interns ends at this dispatcher, and the copies forwarded with
    /// it record their own at the next hop, so a sum over a lossless
    /// population counts each allocation once; a recovered event's
    /// route was recorded elsewhere and counts there too.
    pub fn route_heap_bytes(&self) -> usize {
        let book = self.routes.as_deref();
        let mut held: Vec<&Arc<[NodeId]>> = book
            .into_iter()
            .flat_map(|book| book.routes.values())
            .chain(self.cache.iter().filter_map(Event::shared_route))
            .collect();
        held.sort_unstable_by_key(|route| Arc::as_ptr(route).cast::<NodeId>());
        held.dedup_by(|a, b| Arc::ptr_eq(a, b));
        // An `Arc<[NodeId]>` allocation: the strong and weak counts,
        // then the hops, padded to the counts' alignment.
        let allocation = |route: &&Arc<[NodeId]>| {
            (2 * size_of::<usize>() + route.len() * size_of::<NodeId>())
                .next_multiple_of(align_of::<usize>())
        };
        let book_bytes = book.map_or(0, |book| {
            size_of::<RouteBook>() + map_heap_bytes(&book.routes)
        });
        book_bytes + held.iter().map(allocation).sum::<usize>()
    }

    /// Total events delivered to local clients.
    pub fn delivered_total(&self) -> u64 {
        self.delivered_total
    }

    // ------------------------------------------------------------------
    // Subscription forwarding (Section II).
    // ------------------------------------------------------------------

    /// A local client subscribes to `pattern`; returns the neighbors
    /// (of `neighbors`) to send `Subscribe(pattern)` to.
    pub fn subscribe_local(&mut self, pattern: PatternId, neighbors: &[NodeId]) -> Vec<NodeId> {
        self.write_route(pattern, neighbors, |t| t.insert(pattern, Interface::Local))
    }

    /// An identified local client subscribes to `pattern`. Covering:
    /// if another local client already holds the pattern, the aggregate
    /// filter is unchanged and *nothing* is propagated — only a 0→1
    /// refcount transition installs routing state via
    /// [`Dispatcher::subscribe_local`].
    pub fn client_subscribe(
        &mut self,
        client: ClientId,
        pattern: PatternId,
        neighbors: &[NodeId],
    ) -> Vec<NodeId> {
        if self.clients.subscribe(client, pattern) {
            self.subscribe_local(pattern, neighbors)
        } else {
            Vec::new()
        }
    }

    /// [`Dispatcher::client_subscribe`] for a *mid-run* subscription
    /// (subscription or client churn). On a 0→1 transition, loss
    /// detection for the pattern's streams starts from the first event
    /// actually received: the subscriber is not owed the streams'
    /// history, and any stale expectations from an earlier
    /// subscription are dropped.
    pub fn client_subscribe_late(
        &mut self,
        client: ClientId,
        pattern: PatternId,
        neighbors: &[NodeId],
    ) -> Vec<NodeId> {
        if !self.clients.subscribe(client, pattern) {
            return Vec::new();
        }
        if let Some(losses) = losses(&self.config, &mut self.losses) {
            losses.detector.forget_pattern(pattern);
            losses.late.insert(pattern);
        }
        self.subscribe_local(pattern, neighbors)
    }

    /// An identified local client unsubscribes from `pattern`.
    /// Refcounted retraction: routing state is removed (and
    /// unsubscriptions propagated) only when the last local client
    /// drops the pattern.
    pub fn client_unsubscribe(
        &mut self,
        client: ClientId,
        pattern: PatternId,
        neighbors: &[NodeId],
    ) -> Vec<NodeId> {
        if self.clients.unsubscribe(client, pattern) {
            self.unsubscribe_local(pattern, neighbors)
        } else {
            Vec::new()
        }
    }

    /// The client-subscription registry backing the aggregate filter.
    pub fn clients(&self) -> &ClientRegistry {
        &self.clients
    }

    /// Appends to `out` every local client matching `event`, each
    /// exactly once, ascending (local fan-out). Clears `out` first.
    pub fn matching_clients_into(&self, event: &Event, out: &mut Vec<ClientId>) {
        self.clients.matching_clients_into(event, out);
    }

    /// Handles a subscription propagated by neighbor `from`; returns
    /// the neighbors to propagate `Subscribe(pattern)` to.
    pub fn on_subscribe(
        &mut self,
        pattern: PatternId,
        from: NodeId,
        neighbors: &[NodeId],
    ) -> Vec<NodeId> {
        self.write_route(pattern, neighbors, |t| {
            t.insert(pattern, Interface::Neighbor(from))
        })
    }

    /// A local client unsubscribes from `pattern`; returns the
    /// neighbors to send `Unsubscribe(pattern)` to.
    fn unsubscribe_local(&mut self, pattern: PatternId, neighbors: &[NodeId]) -> Vec<NodeId> {
        self.write_route(pattern, neighbors, |t| t.remove(pattern, Interface::Local))
    }

    /// Handles an unsubscription propagated by neighbor `from`.
    pub fn on_unsubscribe(
        &mut self,
        pattern: PatternId,
        from: NodeId,
        neighbors: &[NodeId],
    ) -> Vec<NodeId> {
        self.write_route(pattern, neighbors, |t| {
            t.remove(pattern, Interface::Neighbor(from))
        })
    }

    /// Whether `Subscribe(pattern)` stands sent to neighbor `n`: some
    /// interface other than `n` subscribes to it — a local client or
    /// another neighbor. The paper's "avoid subscription forwarding of
    /// the same event pattern in the same direction" follows: the
    /// routing table is the only record of what was sent.
    fn wants(&self, pattern: PatternId, n: NodeId) -> bool {
        self.table.has_local(pattern) || self.table.neighbors_for(pattern, Some(n)).next().is_some()
    }

    /// Applies one routing-table write for `pattern` and returns the
    /// neighbors (of `neighbors`, in order) whose
    /// [`Dispatcher::wants`] it flipped: an insert only turns it on
    /// (send `Subscribe`), a remove only off (send `Unsubscribe`). An
    /// entry of neighbor `n` never flips `wants(pattern, n)`, so nothing
    /// echoes back to its sender; a write that changes nothing (it
    /// returns `false`) flips nothing.
    fn write_route(
        &mut self,
        pattern: PatternId,
        neighbors: &[NodeId],
        write: impl FnOnce(&mut SubscriptionTable) -> bool,
    ) -> Vec<NodeId> {
        let before: Vec<bool> = neighbors.iter().map(|&n| self.wants(pattern, n)).collect();
        if !write(&mut self.table) {
            return Vec::new();
        }
        neighbors
            .iter()
            .zip(before)
            .filter(|&(&n, was)| self.wants(pattern, n) != was)
            .map(|(&n, _)| n)
            .collect()
    }

    /// The routing table, for the direct subscription fill
    /// ([`crate::flood_subscriptions_direct`]) to write its routes into
    /// as if a `Subscribe` had arrived for each, propagating nothing.
    pub(crate) fn table_mut(&mut self) -> &mut SubscriptionTable {
        &mut self.table
    }

    /// Clears all routing state learned from neighbors, keeping local
    /// subscriptions, caches, and loss-detection state. Used when the
    /// overlay is reconfigured and subscription routes must be rebuilt.
    pub fn reset_routing_state(&mut self) {
        let locals: Vec<PatternId> = self.table.local_patterns().collect();
        self.table = SubscriptionTable::new();
        for p in locals {
            self.table.insert(p, Interface::Local);
        }
    }

    // ------------------------------------------------------------------
    // Event publication and routing.
    // ------------------------------------------------------------------

    /// Publishes a new event with the given content. Returns the event
    /// — the copy to forward, and the one for metrics bookkeeping —
    /// and fills `next_hops` (cleared first) with the neighbors to
    /// forward it to. The publisher caches it, unless a copy with its
    /// id arrived first: a socket peer can forge an id ahead of its
    /// source, and the cache admits each id once.
    ///
    /// # Panics
    ///
    /// Panics if `content` is empty, unsorted, or has duplicates
    /// (produce it with [`crate::PatternSpace::random_content`] or the
    /// allocation-free [`crate::PatternSpace::random_content_into`]).
    pub fn publish(
        &mut self,
        content: &[PatternId],
        next_hops: &mut Vec<NodeId>,
    ) -> (Event, EventReceipt) {
        let pattern_seqs: Vec<(PatternId, u64)> = content
            .iter()
            .map(|&p| {
                let counter = self.pattern_counters.entry(p.value()).or_insert(0);
                *counter += 1;
                (p, *counter - 1)
            })
            .collect();
        let id = EventId::new(self.id, self.next_event_seq);
        self.next_event_seq += 1;
        let event = Event::new(id, pattern_seqs);
        let fresh = self.seen.insert(id);
        // The source sees its own event: advance loss detection for
        // locally subscribed patterns so the source never "detects"
        // its own publications as lost.
        self.observe(&event);
        let delivered = self.table.matching_neighbors_into(&event, None, next_hops);
        if delivered {
            self.delivered_total += 1;
        }
        if fresh {
            self.cache.insert(event.clone());
        }
        let receipt = EventReceipt {
            delivered,
            duplicate: false,
            losses: Vec::new(),
        };
        (event, receipt)
    }

    /// The losses `event`'s sequence numbers reveal on the locally
    /// subscribed patterns; none where the dispatcher detects none.
    fn observe(&mut self, event: &Event) -> Vec<LossRecord> {
        let table = &self.table;
        let Some(Losses { detector, late }) = losses(&self.config, &mut self.losses) else {
            return Vec::new();
        };
        detector.observe_with(event, |p| table.has_local(p), |p| late.contains(&p))
    }

    /// Handles an event arriving from neighbor `from` on the
    /// dispatching tree. Returns the copy to forward — with this hop
    /// recorded when routes are, as the route book's shared entry for
    /// its source — and fills `next_hops` (cleared first) with the
    /// neighbors to forward it to: none for a duplicate.
    pub fn on_event(
        &mut self,
        mut event: Event,
        from: Option<NodeId>,
        next_hops: &mut Vec<NodeId>,
    ) -> (Event, EventReceipt) {
        if self.config.record_routes {
            let routes = self.routes.get_or_insert_default();
            let route = routes.record_hop(event.route(), self.id);
            debug_assert!(
                route.split_last() == Some((&self.id, event.route())),
                "{}: the shared route is not the arriving one plus {}",
                event.id(),
                self.id
            );
            event.set_route(route);
        }
        if !self.seen.insert(event.id()) {
            next_hops.clear();
            let receipt = EventReceipt {
                duplicate: true,
                ..EventReceipt::default()
            };
            return (event, receipt);
        }
        let losses = self.observe(&event);
        let delivered = self.table.matching_neighbors_into(&event, from, next_hops);
        if delivered {
            self.delivered_total += 1;
            self.cache.insert(event.clone());
        }
        let receipt = EventReceipt {
            delivered,
            duplicate: false,
            losses,
        };
        (event, receipt)
    }

    /// Handles an event recovered through the out-of-band channel (a
    /// gossip reply). Recovered events are delivered and cached but
    /// never forwarded on the tree — downstream dispatchers run their
    /// own recovery.
    pub fn on_recovered_event(&mut self, event: Event) -> EventReceipt {
        if !self.seen.insert(event.id()) {
            return EventReceipt {
                duplicate: true,
                ..EventReceipt::default()
            };
        }
        let losses = self.observe(&event);
        let delivered = self.table.matches_locally(&event);
        if delivered {
            self.delivered_total += 1;
            self.cache.insert(event);
        }
        EventReceipt {
            delivered,
            duplicate: false,
            losses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PatternSpace;
    use eps_sim::check::forall;
    use std::collections::BTreeSet;

    fn cfg() -> DispatcherConfig {
        DispatcherConfig::default()
    }

    #[test]
    fn subscribe_propagates_once_per_neighbor() {
        let mut d = Dispatcher::new(NodeId::new(0), cfg());
        let p = PatternId::new(1);
        let nbrs = [NodeId::new(1), NodeId::new(2)];
        let out = d.subscribe_local(p, &nbrs);
        assert_eq!(out.len(), 2);
        // A second subscription for the same pattern is suppressed.
        let out = d.on_subscribe(p, NodeId::new(1), &nbrs);
        assert!(out.is_empty(), "already forwarded everywhere: {out:?}");
    }

    #[test]
    fn on_subscribe_excludes_sender() {
        let mut d = Dispatcher::new(NodeId::new(0), cfg());
        let p = PatternId::new(1);
        let nbrs = [NodeId::new(1), NodeId::new(2), NodeId::new(3)];
        let out = d.on_subscribe(p, NodeId::new(2), &nbrs);
        assert_eq!(out, [NodeId::new(1), NodeId::new(3)]);
        assert!(!d.table().has_local(p));
        assert!(d.table().knows(p));
    }

    #[test]
    fn publish_assigns_per_pattern_sequences() {
        // Globally unique ids, dense per-pattern sequence numbers.
        forall("publish_assigns_per_pattern_sequences", 256, |rng| {
            let space = PatternSpace::new(20, 3);
            let mut d = Dispatcher::new(NodeId::new(0), cfg());
            let mut next_seq = [0u64; 20];
            let mut ids = BTreeSet::new();
            for publishes in 0..rng.random_range(1..100u64) {
                let (event, _) = d.publish(&space.random_content(rng), &mut Vec::new());
                assert!(ids.insert(event.id()), "duplicate event id");
                assert_eq!(event.id().seq(), publishes, "non-dense event sequence");
                for &(p, seq) in event.pattern_seqs() {
                    assert_eq!(seq, next_seq[p.index()], "non-dense sequence for {p}");
                    next_seq[p.index()] += 1;
                }
            }
        });
    }

    #[test]
    fn publish_delivers_and_caches_when_locally_subscribed() {
        let mut d = Dispatcher::new(NodeId::new(0), cfg());
        let p = PatternId::new(1);
        d.subscribe_local(p, &[]);
        let (e, receipt) = d.publish(&[p], &mut Vec::new());
        assert!(receipt.delivered);
        assert!(d.cache().contains(e.id()));
        assert_eq!(d.delivered_total(), 1);
        // A publisher caches its own events, subscribed or not.
        let (e, _) = d.publish(&[PatternId::new(2)], &mut Vec::new());
        assert!(d.cache().contains(e.id()));
    }

    #[test]
    fn events_route_along_subscription_reverse_path() {
        // d1 learns that d2 (via neighbor 2) wants pattern 1.
        let mut d1 = Dispatcher::new(NodeId::new(1), cfg());
        let p = PatternId::new(1);
        d1.on_subscribe(p, NodeId::new(2), &[NodeId::new(0), NodeId::new(2)]);
        // An event from neighbor 0 matching p must be forwarded to 2 only.
        let e = Event::new(EventId::new(NodeId::new(0), 0), vec![(p, 0)]);
        let mut next_hops = Vec::new();
        let (forward, receipt) = d1.on_event(e.clone(), Some(NodeId::new(0)), &mut next_hops);
        assert!(!receipt.delivered);
        assert_eq!(next_hops, [NodeId::new(2)]);
        assert_eq!(forward, e, "no route recording, nothing to append");
    }

    #[test]
    fn duplicate_events_are_suppressed() {
        let mut d = Dispatcher::new(NodeId::new(1), cfg());
        let p = PatternId::new(1);
        d.subscribe_local(p, &[]);
        let e = Event::new(EventId::new(NodeId::new(0), 0), vec![(p, 0)]);
        let mut next_hops = Vec::new();
        let (_, first) = d.on_event(e.clone(), Some(NodeId::new(0)), &mut next_hops);
        let (_, second) = d.on_event(e, Some(NodeId::new(0)), &mut next_hops);
        assert!(first.delivered && !first.duplicate);
        assert!(second.duplicate && !second.delivered);
        assert_eq!(d.delivered_total(), 1);
    }

    #[test]
    fn seen_set_answers_like_a_set_of_ids() {
        forall("seen_set_mirrors_btreeset", 128, |rng| {
            let mut seen = SeenSet::default();
            let mut model = BTreeSet::new();
            // Seqs around the 64-event word boundaries of a few
            // sources, in any order, with repeats.
            let base = 64 * rng.random_below(1 << 20);
            let draw_id = |rng: &mut eps_sim::Rng| -> EventId {
                let seq = base + rng.random_below(200);
                EventId::new(NodeId::new(rng.random_below(3) as u32), seq)
            };
            for _ in 0..rng.random_range(1..300u32) {
                let id = draw_id(rng);
                assert_eq!(seen.insert(id), model.insert(id), "{id}");
                let probe = draw_id(rng);
                assert_eq!(seen.contains(probe), model.contains(&probe), "{probe}");
            }
        });
    }

    #[test]
    fn gaps_are_detected_for_local_patterns_only() {
        let mut d = Dispatcher::new(NodeId::new(1), cfg());
        let p = PatternId::new(1);
        let q = PatternId::new(2);
        d.subscribe_local(p, &[]);
        let e = Event::new(EventId::new(NodeId::new(0), 7), vec![(p, 2), (q, 5)]);
        let (_, receipt) = d.on_event(e, Some(NodeId::new(0)), &mut Vec::new());
        assert_eq!(receipt.losses.len(), 2); // p seqs 0, 1
        assert!(receipt.losses.iter().all(|l| l.pattern == p));
    }

    #[test]
    fn route_recording_updates_route_book() {
        let mut d = Dispatcher::new(
            NodeId::new(5),
            DispatcherConfig {
                record_routes: true,
                ..cfg()
            },
        );
        let p = PatternId::new(1);
        let route = vec![NodeId::new(0), NodeId::new(3)];
        let e = Event::from_wire(EventId::new(NodeId::new(0), 0), vec![(p, 0)], route);
        let (forward, _) = d.on_event(e, Some(NodeId::new(3)), &mut Vec::new());
        assert_eq!(
            forward.route(),
            d.routes().route_from(NodeId::new(0)).unwrap()
        );
        assert_eq!(
            d.routes().route_from(NodeId::new(0)),
            Some(&[NodeId::new(0), NodeId::new(3), NodeId::new(5)][..])
        );
        assert_eq!(
            d.routes().route_to(NodeId::new(0)),
            Some(vec![NodeId::new(3), NodeId::new(0)])
        );
    }

    #[test]
    fn a_route_book_shares_each_sources_path_until_it_changes() {
        forall("a_route_book_shares_each_sources_path", 128, |rng| {
            let me = NodeId::new(9);
            let config = DispatcherConfig {
                record_routes: true,
                ..cfg()
            };
            let mut d = Dispatcher::new(me, config);
            let p = PatternId::new(1);
            d.subscribe_local(p, &[]);
            // A path from `source` through up to three of ten upstream
            // dispatchers, none of them this one.
            let path = |rng: &mut eps_sim::Rng, source: NodeId| -> Vec<NodeId> {
                let hops = (0..rng.random_below(4)).map(|_| rng.random_range(10..20u32));
                iter::once(source).chain(hops.map(NodeId::new)).collect()
            };
            // Each source's tree path, and its next fresh seq.
            let mut tree: Vec<Vec<NodeId>> = (0..3).map(|s| vec![NodeId::new(s)]).collect();
            let mut next_seq = [0u64; 3];
            // Every copy that left, with the route it left with.
            let mut in_flight: Vec<(Event, Vec<NodeId>)> = Vec::new();
            for _ in 0..rng.random_range(1..120u32) {
                let s = rng.random_below(3) as usize;
                let source = NodeId::new(s as u32);
                let followed = match rng.random_below(6) {
                    // A reconfiguration: the tree path changes.
                    0 => {
                        tree[s] = path(rng, source);
                        tree[s].clone()
                    }
                    // A cross-link copy, off the tree path.
                    1 => path(rng, source),
                    _ => tree[s].clone(),
                };
                // A duplicate re-sends an id that already arrived.
                let seq = match next_seq[s] {
                    sent if sent > 0 && rng.random_below(4) == 0 => rng.random_below(sent),
                    _ => {
                        next_seq[s] += 1;
                        next_seq[s] - 1
                    }
                };
                let id = EventId::new(source, seq);
                let event = Event::from_wire(id, vec![(p, seq)], followed.clone());
                let expected: Vec<NodeId> = followed.iter().copied().chain([me]).collect();
                let before = d.routes().routes.get(&source).cloned();
                let from = *followed.last().unwrap();
                let (copy, _) = d.on_event(event, Some(from), &mut Vec::new());
                assert_eq!(copy.route(), expected, "leaves with this hop added");
                assert_eq!(d.routes().route_from(source), Some(&expected[..]));
                let entry = &d.routes().routes[&source];
                let shared = copy.shared_route().is_some_and(|r| Arc::ptr_eq(r, entry));
                assert!(shared, "shares the entry");
                if let Some(before) = before {
                    assert_eq!(
                        Arc::ptr_eq(&before, entry),
                        before[..] == expected,
                        "one allocation per path: {before:?} then {entry:?}"
                    );
                }
                for (copy, route) in &in_flight {
                    assert_eq!(copy.route(), route, "a copy in flight keeps its route");
                }
                in_flight.push((copy, expected));
            }
        });
    }

    #[test]
    fn recovered_events_deliver_but_do_not_forward() {
        let mut d = Dispatcher::new(NodeId::new(1), cfg());
        let p = PatternId::new(1);
        d.subscribe_local(p, &[]);
        // Another neighbor is also subscribed: a tree event would fork.
        d.on_subscribe(p, NodeId::new(2), &[NodeId::new(2)]);
        let e = Event::new(EventId::new(NodeId::new(0), 0), vec![(p, 0)]);
        let receipt = d.on_recovered_event(e.clone());
        assert!(receipt.delivered);
        assert!(d.cache().contains(e.id()));
        // Re-recovery is a duplicate.
        assert!(d.on_recovered_event(e).duplicate);
    }

    #[test]
    fn unsubscribe_propagates_when_no_interest_remains() {
        let mut d = Dispatcher::new(NodeId::new(0), cfg());
        let p = PatternId::new(1);
        let nbrs = [NodeId::new(1)];
        d.subscribe_local(p, &nbrs);
        assert_eq!(d.unsubscribe_local(p, &nbrs), nbrs);
        assert!(!d.table().knows(p));
    }

    #[test]
    fn unsubscribe_is_held_back_while_others_need_the_route() {
        let mut d = Dispatcher::new(NodeId::new(0), cfg());
        let p = PatternId::new(1);
        let nbrs = [NodeId::new(1), NodeId::new(2)];
        d.subscribe_local(p, &nbrs);
        // Neighbor 2 also subscribes through us.
        d.on_subscribe(p, NodeId::new(2), &nbrs);
        // Local unsubscription: neighbor 1 still must receive p-events
        // (for neighbor 2), so no unsubscription is sent to 1; and
        // neighbor 2 no longer needs them (only it was interested).
        assert_eq!(d.unsubscribe_local(p, &nbrs), [NodeId::new(2)]);
    }

    #[test]
    fn client_subscriptions_aggregate_before_routing() {
        let mut d = Dispatcher::new(NodeId::new(0), cfg());
        let p = PatternId::new(1);
        let nbrs = [NodeId::new(1)];
        // First client: aggregate grows, subscription propagates.
        let out = d.client_subscribe(ClientId::new(0), p, &nbrs);
        assert_eq!(out.len(), 1);
        // Covered by the aggregate: second client is wire-silent.
        let out = d.client_subscribe(ClientId::new(1), p, &nbrs);
        assert!(out.is_empty());
        assert!(d.table().has_local(p));
        // First unsubscribe: refcount 2→1, no retraction.
        let out = d.client_unsubscribe(ClientId::new(0), p, &nbrs);
        assert!(out.is_empty());
        assert!(d.table().has_local(p));
        // Last client drops it: retraction propagates.
        let out = d.client_unsubscribe(ClientId::new(1), p, &nbrs);
        assert_eq!(out, nbrs);
        assert!(!d.table().has_local(p));
    }

    #[test]
    fn aggregate_filter_equals_table_local_bits() {
        let mut d = Dispatcher::new(NodeId::new(0), cfg());
        let nbrs = [NodeId::new(1)];
        d.client_subscribe(ClientId::new(0), PatternId::new(3), &nbrs);
        d.client_subscribe(ClientId::new(1), PatternId::new(3), &nbrs);
        d.client_subscribe(ClientId::new(1), PatternId::new(7), &nbrs);
        d.client_unsubscribe(ClientId::new(0), PatternId::new(3), &nbrs);
        let aggregate: Vec<PatternId> = d.clients().aggregate_patterns().collect();
        let local: Vec<PatternId> = d.table().local_patterns().collect();
        assert_eq!(aggregate, local);
        // Reset for reconfiguration preserves the aggregate.
        d.reset_routing_state();
        let local: Vec<PatternId> = d.table().local_patterns().collect();
        assert_eq!(aggregate, local);
    }

    #[test]
    fn client_fanout_delivers_each_matching_client_once() {
        let mut d = Dispatcher::new(NodeId::new(1), cfg());
        let (p, q) = (PatternId::new(1), PatternId::new(2));
        d.client_subscribe(ClientId::new(4), p, &[]);
        d.client_subscribe(ClientId::new(4), q, &[]);
        d.client_subscribe(ClientId::new(2), q, &[]);
        let e = Event::new(EventId::new(NodeId::new(0), 0), vec![(p, 0), (q, 0)]);
        let (_, receipt) = d.on_event(e.clone(), Some(NodeId::new(0)), &mut Vec::new());
        assert!(receipt.delivered);
        let mut out = Vec::new();
        d.matching_clients_into(&e, &mut out);
        assert_eq!(out, vec![ClientId::new(2), ClientId::new(4)]);
    }

    #[test]
    fn reset_routing_state_keeps_local_subscriptions() {
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let mut topo = eps_overlay::Topology::new(2, 2);
        topo.add_link(a, b).unwrap();
        let mut ds = [Dispatcher::new(a, cfg()), Dispatcher::new(b, cfg())];
        let (p, q) = (PatternId::new(1), PatternId::new(2));
        assert_eq!(ds[0].subscribe_local(p, &[b]), [b]);
        assert!(ds[1].on_subscribe(p, a, &[a]).is_empty());
        assert_eq!(ds[1].subscribe_local(q, &[a]), [a]);
        assert!(ds[0].on_subscribe(q, b, &[b]).is_empty());
        for d in &mut ds {
            d.reset_routing_state();
        }
        assert!(ds[0].table().has_local(p) && ds[1].table().has_local(q));
        assert!(!ds[0].table().knows(q) && !ds[1].table().knows(p));
        // The rebuild re-announces each local pattern across the link.
        assert_eq!(crate::rebuild_subscription_routes(&mut ds, &topo), 2);
        assert!(ds[0].table().neighbors_for(q, None).eq([b]));
        assert!(ds[1].table().neighbors_for(p, None).eq([a]));
    }
}

//! Events and their identifiers.
//!
//! Event identifiers follow Section III of the paper: the pair (source,
//! per-source sequence number) is globally unique. To support the pull
//! algorithms' loss detection, each event additionally carries, for
//! every pattern it matches, a sequence number incremented at the
//! source each time it publishes an event for that pattern. To support
//! publisher-based pull, event messages also record the route travelled
//! so far (the address of each dispatcher encountered is appended).
//!
//! # Performance model
//!
//! An event is forwarded (and therefore cloned) once per hop of the
//! dispatching tree and once per gossip retransmission. The immutable
//! content — the pattern/sequence pairs — lives behind an [`Arc`], so
//! a clone is a refcount bump, not a deep copy. An event at its source
//! holds no route allocation: its route is `[source]`, which the id
//! already names, and every strategy that records nothing carries it
//! that way to the end. Only a recording dispatcher makes routes: its
//! route book owns the route from each source to it, and an arriving
//! event leaves with a clone of that entry whenever the entry already
//! spells its route plus this hop — every event of a source after the
//! first, while the tree is unchanged. Only a changed path (a first
//! arrival, a reconfiguration, a cross-link copy) allocates the longer
//! route, once, and copies already in flight keep theirs.

use std::slice;
use std::sync::Arc;

use eps_overlay::NodeId;

use crate::pattern::PatternId;

/// Wire cost of one recorded route hop, in bits: a dispatcher address
/// is a 32-bit identifier on the wire, and the byte codec in
/// `eps-gossip` encodes each hop as exactly four bytes. Every place
/// that accounts for route bytes ([`Event::wire_bits`], the gossip
/// envelope, the codec) derives from this one constant.
pub const ROUTE_HOP_BITS: u64 = 32;

/// Globally unique event identifier: source plus a monotonically
/// increasing per-source sequence number (paper, footnote 3).
///
/// # Examples
///
/// ```
/// use eps_pubsub::EventId;
/// use eps_overlay::NodeId;
///
/// let id = EventId::new(NodeId::new(4), 17);
/// assert_eq!(id.to_string(), "d4#17");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId {
    source: NodeId,
    seq: u64,
}

impl EventId {
    /// The largest sequence number a dispatcher can mark seen: its seen
    /// set keys 64 seqs of one source to a word, by `seq >> 6` in 32
    /// bits. A source publishing 10⁶ events a second reaches it after
    /// three days. The wire codec refuses an id past it.
    pub const MAX_SEQ: u64 = (1 << 38) - 1;

    /// Creates an event id.
    pub const fn new(source: NodeId, seq: u64) -> Self {
        EventId { source, seq }
    }

    /// The publishing dispatcher.
    pub const fn source(self) -> NodeId {
        self.source
    }

    /// The per-source sequence number.
    pub const fn seq(self) -> u64 {
        self.seq
    }
}

impl std::fmt::Display for EventId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}", self.source, self.seq)
    }
}

/// The immutable content of an event, shared between all copies.
#[derive(PartialEq, Eq, Debug)]
struct EventData {
    /// Sorted, distinct patterns matched by this event, with the
    /// per-(source, pattern) sequence number assigned at publish time.
    pattern_seqs: Vec<(PatternId, u64)>,
}

/// A published event as it travels the dispatching tree.
///
/// Contains the content (the patterns it matches), the per-pattern
/// sequence numbers assigned at the source, and the route recorded so
/// far. Cloned at every forwarding hop, as a real message would be —
/// but the clone bumps at most two reference counts (see the
/// module docs).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Event {
    id: EventId,
    data: Arc<EventData>,
    /// Dispatchers traversed so far, starting with the source; `None`
    /// is the one-hop route `[source]`, so that route is never
    /// allocated and has one representation.
    route: Option<Arc<[NodeId]>>,
}

impl Event {
    /// Creates a new event at its source.
    ///
    /// `pattern_seqs` must be sorted by pattern and duplicate-free —
    /// the publisher builds it from [`crate::PatternSpace::random_content`]
    /// plus its per-pattern counters.
    ///
    /// # Panics
    ///
    /// Panics if `pattern_seqs` is empty, unsorted, or has duplicates.
    pub fn new(id: EventId, pattern_seqs: Vec<(PatternId, u64)>) -> Self {
        assert!(!pattern_seqs.is_empty(), "event must match some pattern");
        assert!(
            pattern_seqs.windows(2).all(|w| w[0].0 < w[1].0),
            "pattern list must be sorted and distinct"
        );
        Event {
            id,
            data: Arc::new(EventData { pattern_seqs }),
            route: None,
        }
    }

    /// Reconstructs an event received off a wire, with an explicit
    /// recorded route (a fresh event's route is just `[source]`, held
    /// with no allocation as [`Event::new`] holds it; a forwarded copy
    /// carries every dispatcher it traversed).
    ///
    /// # Panics
    ///
    /// Panics if `pattern_seqs` is empty, unsorted, or has duplicates,
    /// or if `route` is empty or does not start at the event's source.
    /// Byte-level validation belongs to the codec; this constructor
    /// only accepts structurally sound events.
    pub fn from_wire(id: EventId, pattern_seqs: Vec<(PatternId, u64)>, route: Vec<NodeId>) -> Self {
        assert!(!pattern_seqs.is_empty(), "event must match some pattern");
        assert!(
            pattern_seqs.windows(2).all(|w| w[0].0 < w[1].0),
            "pattern list must be sorted and distinct"
        );
        assert_eq!(
            route.first().copied(),
            Some(id.source()),
            "recorded route must start at the source"
        );
        Event {
            id,
            data: Arc::new(EventData { pattern_seqs }),
            route: (route.len() > 1).then(|| route.into()),
        }
    }

    /// The globally unique identifier.
    pub fn id(&self) -> EventId {
        self.id
    }

    /// The publishing dispatcher.
    pub fn source(&self) -> NodeId {
        self.id.source()
    }

    /// The patterns this event matches, sorted.
    pub fn patterns(&self) -> impl Iterator<Item = PatternId> + '_ {
        self.data.pattern_seqs.iter().map(|&(p, _)| p)
    }

    /// Pattern/sequence pairs carried in the identifier.
    pub fn pattern_seqs(&self) -> &[(PatternId, u64)] {
        &self.data.pattern_seqs
    }

    /// The sequence number associated with pattern `p`, if the event
    /// matches it.
    pub fn seq_for(&self, p: PatternId) -> Option<u64> {
        self.data
            .pattern_seqs
            .binary_search_by_key(&p, |&(q, _)| q)
            .ok()
            .map(|i| self.data.pattern_seqs[i].1)
    }

    /// `true` if the event content contains pattern `p`.
    pub fn matches(&self, p: PatternId) -> bool {
        self.seq_for(p).is_some()
    }

    /// `true` if the event matches *any* of the given (sorted or not)
    /// patterns.
    pub fn matches_any<I: IntoIterator<Item = PatternId>>(&self, patterns: I) -> bool {
        patterns.into_iter().any(|p| self.matches(p))
    }

    /// The route recorded so far (source first).
    pub fn route(&self) -> &[NodeId] {
        match &self.route {
            Some(route) => route,
            None => slice::from_ref(&self.id.source),
        }
    }

    /// Replaces the recorded route with a shared one: the route book's
    /// entry for this event's source, which spells this route plus the
    /// recording hop. Copies already in flight keep their own route.
    pub(crate) fn set_route(&mut self, route: Arc<[NodeId]>) {
        debug_assert!(route.len() > 1, "a one-hop route is not allocated");
        self.route = Some(route);
    }

    /// The recorded route's shared allocation, for reading which copies
    /// share it; `None` for the one-hop route, which has none.
    pub(crate) fn shared_route(&self) -> Option<&Arc<[NodeId]>> {
        self.route.as_ref()
    }

    /// Approximate wire size of this event message, in bits, given the
    /// configured payload size. The paper assumes event and gossip
    /// messages have the same size; route recording adds
    /// [`ROUTE_HOP_BITS`] per recorded hop on top.
    pub fn wire_bits(&self, payload_bits: u64) -> u64 {
        payload_bits + ROUTE_HOP_BITS * self.route().len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event() -> Event {
        Event::new(
            EventId::new(NodeId::new(2), 9),
            vec![(PatternId::new(3), 1), (PatternId::new(10), 4)],
        )
    }

    /// `e` as it arrives after the further `hops`.
    fn hopped(e: &Event, hops: &[u32]) -> Event {
        let route = e.route().iter().copied();
        let route = route.chain(hops.iter().map(|&h| NodeId::new(h))).collect();
        Event::from_wire(e.id(), e.pattern_seqs().to_vec(), route)
    }

    #[test]
    fn id_accessors() {
        let e = event();
        assert_eq!(e.id().source(), NodeId::new(2));
        assert_eq!(e.id().seq(), 9);
        assert_eq!(e.source(), NodeId::new(2));
    }

    #[test]
    fn matching_is_containment() {
        let e = event();
        assert!(e.matches(PatternId::new(3)));
        assert!(e.matches(PatternId::new(10)));
        assert!(!e.matches(PatternId::new(4)));
        assert!(e.matches_any([PatternId::new(4), PatternId::new(10)]));
        assert!(!e.matches_any([PatternId::new(0)]));
    }

    #[test]
    fn per_pattern_sequences() {
        let e = event();
        assert_eq!(e.seq_for(PatternId::new(3)), Some(1));
        assert_eq!(e.seq_for(PatternId::new(10)), Some(4));
        assert_eq!(e.seq_for(PatternId::new(11)), None);
    }

    #[test]
    fn route_starts_at_source_and_records_hops() {
        let e = event();
        assert_eq!(e.route(), &[NodeId::new(2)]);
        let e = hopped(&e, &[5, 7]);
        assert_eq!(e.route(), &[NodeId::new(2), NodeId::new(5), NodeId::new(7)]);
    }

    #[test]
    fn a_source_event_holds_no_route_allocation() {
        // The one-hop route is the id's source, whichever way the event
        // was made, so the two compare equal and neither allocates it.
        let e = event();
        let rebuilt = Event::from_wire(e.id(), e.pattern_seqs().to_vec(), vec![e.source()]);
        assert!(e.shared_route().is_none() && rebuilt.shared_route().is_none());
        assert_eq!(rebuilt, e);
        assert_eq!(size_of::<Event>(), 40);
    }

    #[test]
    fn clone_shares_content_and_route() {
        let e = hopped(&event(), &[5]);
        let copy = e.clone();
        // A per-hop clone must be a refcount bump, not a deep copy.
        assert!(Arc::ptr_eq(&e.data, &copy.data));
        assert!(Arc::ptr_eq(
            e.shared_route().unwrap(),
            copy.shared_route().unwrap()
        ));
    }

    #[test]
    fn set_route_leaves_other_copies_alone() {
        let e = event();
        let mut hopped = e.clone();
        hopped.set_route(Arc::from([NodeId::new(2), NodeId::new(5)]));
        // The content stays shared; only the route diverges.
        assert!(Arc::ptr_eq(&e.data, &hopped.data));
        assert_eq!(e.route(), &[NodeId::new(2)]);
        assert_eq!(hopped.route(), &[NodeId::new(2), NodeId::new(5)]);
    }

    #[test]
    fn wire_bits_grows_with_route() {
        let e = event();
        assert_eq!(hopped(&e, &[5]).wire_bits(1000), e.wire_bits(1000) + 32);
    }

    #[test]
    #[should_panic]
    fn unsorted_patterns_panic() {
        let _ = Event::new(
            EventId::new(NodeId::new(0), 0),
            vec![(PatternId::new(5), 0), (PatternId::new(3), 0)],
        );
    }

    #[test]
    #[should_panic]
    fn empty_patterns_panic() {
        let _ = Event::new(EventId::new(NodeId::new(0), 0), vec![]);
    }

    #[test]
    fn event_id_display() {
        assert_eq!(event().id().to_string(), "d2#9");
    }

    #[test]
    fn from_wire_reconstructs_forwarded_copies() {
        let original = hopped(&event(), &[5]);
        let rebuilt = Event::from_wire(
            original.id(),
            original.pattern_seqs().to_vec(),
            original.route().to_vec(),
        );
        assert_eq!(rebuilt, original);
    }

    #[test]
    #[should_panic]
    fn from_wire_rejects_routes_not_starting_at_source() {
        let _ = Event::from_wire(
            EventId::new(NodeId::new(2), 9),
            vec![(PatternId::new(3), 1)],
            vec![NodeId::new(7)],
        );
    }

    #[test]
    fn wire_bits_uses_the_shared_hop_constant() {
        let e = event();
        assert_eq!(e.wire_bits(1000), 1000 + ROUTE_HOP_BITS);
    }
}

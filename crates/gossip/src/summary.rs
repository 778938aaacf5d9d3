//! Summary reconciliation: the digest policy whose anti-entropy wire
//! cost is sublinear in cache size (ROADMAP item 2).
//!
//! The paper's push digest re-announces the cache *linearly*: a round
//! for pattern p carries every cached id matching p, so wire bytes
//! grow O(C) with cache size C. Summary reconciliation replaces the id
//! list with hash-range tree aggregates (see [`eps_pubsub::summary`]):
//! a round carries the root [`RangeSummary`] — constant size — plus
//! the refinements peers asked for, reaching O(log C + Δ) bytes for Δ
//! differing events.
//!
//! The recursion is spread across *rounds*, not a synchronous RPC:
//!
//! 1. Gossiper sends a [`crate::GossipMessage::SummaryDigest`] with
//!    the root aggregate (plus any queued refinements), routed along
//!    the subscription tree exactly like a push digest.
//! 2. A receiver compares each received aggregate against its own
//!    [`eps_pubsub::SummaryIndex`]. Mismatching ranges produce a
//!    [`crate::GossipAction::RequestDetail`], which travels back to
//!    the gossiper out-of-band as a [`crate::Envelope::RangeRequest`].
//! 3. The gossiper queues the requested ranges and *its next round's
//!    digest* carries their refinement: the children aggregates of a
//!    big range, or the complete id list ([`RangeDetail`]) of a small
//!    one. Each round narrows the mismatch by one tree level, so two
//!    caches converge in ~[`eps_pubsub::summary::LEVEL_COUNT`] + 1
//!    rounds per differing path.
//!
//! The same wire form serves both transfer directions, chosen by
//! [`SummaryMode`]:
//!
//! - **Push** (`summary-push`): receivers request ids the *gossiper*
//!   has and they lack (out-of-band [`crate::GossipAction::Request`],
//!   exactly like linear push) — receiver-deficit recovery.
//! - **Pull** (`summary-pull`): receivers reply with cached events the
//!   gossiper provably lacks (an expanded range whose id list misses
//!   them) — gossiper-deficit recovery. Empty [`RangeDetail`] lists
//!   matter here: they are how a gossiper says "I have nothing in this
//!   range", letting any dispatcher on the route serve its surplus.
//!
//! Pull rounds announce the gossiper's **seen** view — the live cache
//! plus its eviction tombstones ([`eps_pubsub::EventCache::seen_summary`])
//! — and receivers compare their own seen view against it. An id the
//! gossiper consumed and then evicted is still part of its announced
//! aggregates, so peers stop re-serving that surplus round after round
//! (the gossiper's `has_seen` filter would discard every copy anyway).
//! Serving itself stays strictly live: only resident events can back a
//! [`crate::GossipAction::Reply`]. A cache that never evicts has an
//! empty tombstone set, making the seen view bit-identical to the live
//! one — the pre-tombstone wire behavior.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use eps_overlay::NodeId;
use eps_pubsub::{Dispatcher, Event, EventId, PatternId, RangeDetail, RangeRef};
use eps_sim::hash::IdSet;
use eps_sim::Rng;

use crate::config::GossipConfig;
use crate::message::GossipAction;
use crate::policy::{draw_known_pattern, Absorbed, DigestBody, DigestPolicy};

/// When a mismatching range holds at most this many ids, its
/// refinement is the complete id list rather than children aggregates:
/// listing (96 bits/id) beats another round of recursion once the
/// range is small. Part of the convergence-bound contract: at most one
/// extra round after the aggregate narrows below the threshold.
pub const DETAIL_THRESHOLD: u64 = 16;

/// Bound on queued refinement requests per dispatcher (across all
/// patterns). Peers asking faster than rounds can answer have their
/// oldest-range requests kept and the excess dropped — the mismatch
/// persists, so a dropped request is simply re-issued on a later
/// round.
pub const MAX_QUEUED_RANGES: usize = 1024;

/// Which deficit a summary digest recovers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SummaryMode {
    /// Receivers fetch what the gossiper has and they lack.
    Push,
    /// Receivers serve what they have and the gossiper lacks.
    Pull,
}

/// The summary-reconciliation digest policy (`summary-push` /
/// `summary-pull` in the [`crate::Algorithm`] table, composed with
/// [`crate::PatternSteering`]).
///
/// Requires [`eps_pubsub::DispatcherConfig::summary_index`] on every
/// dispatcher (the table rows declare it via
/// [`crate::Algorithm::needs_summary_index`]); building or absorbing a
/// digest panics otherwise.
#[derive(Clone)]
pub struct SummaryDigestPolicy {
    mode: SummaryMode,
    /// Ranges peers asked this gossiper to refine, per pattern.
    /// `BTreeMap`/`BTreeSet` keep the drain order deterministic.
    detail_out: BTreeMap<PatternId, BTreeSet<RangeRef>>,
    /// Total queued ranges (bounded by [`MAX_QUEUED_RANGES`]).
    queued: usize,
    /// Push mode: ids already requested and still in flight, so one id
    /// is never requested twice concurrently. Membership checks only —
    /// never iterated, so the set's ordering cannot leak into output.
    requested: IdSet<EventId>,
    /// Pull mode: cap on events served per absorbed digest
    /// (`digest_max`, mirroring the entry bound of negative digests).
    serve_cap: usize,
    requests_since_round: u64,
    idle_rounds: u32,
}

impl fmt::Debug for SummaryDigestPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SummaryDigestPolicy")
            .field("mode", &self.mode)
            .field("queued", &self.queued)
            .field("in_flight", &self.requested.len())
            .finish_non_exhaustive()
    }
}

impl SummaryDigestPolicy {
    fn new(mode: SummaryMode, config: &GossipConfig) -> Self {
        SummaryDigestPolicy {
            mode,
            detail_out: BTreeMap::new(),
            queued: 0,
            requested: IdSet::default(),
            serve_cap: config.digest_max,
            requests_since_round: 0,
            idle_rounds: 0,
        }
    }

    /// Receiver-deficit (push-style) summary reconciliation.
    pub fn push(config: &GossipConfig) -> Self {
        SummaryDigestPolicy::new(SummaryMode::Push, config)
    }

    /// Gossiper-deficit (pull-style) summary reconciliation.
    pub fn pull(config: &GossipConfig) -> Self {
        SummaryDigestPolicy::new(SummaryMode::Pull, config)
    }

    /// The transfer direction.
    pub fn mode(&self) -> SummaryMode {
        self.mode
    }

    /// Ranges currently queued for refinement (tests and metrics).
    pub fn queued_ranges(&self) -> usize {
        self.queued
    }

    /// Queues one refinement request, dropping it silently at the
    /// [`MAX_QUEUED_RANGES`] bound (the persistent mismatch re-issues
    /// it later).
    fn queue_range(&mut self, pattern: PatternId, range: RangeRef) {
        if self.queued >= MAX_QUEUED_RANGES {
            return;
        }
        if self.detail_out.entry(pattern).or_default().insert(range) {
            self.queued += 1;
        }
    }

    /// The view this policy's digests announce and compare: push works
    /// on the live cache (its digests invite fetches, which only
    /// resident events can serve); pull works on the *seen* view —
    /// live plus eviction tombstones — so peers stop re-serving
    /// surplus the cache has already consumed and evicted.
    fn view_summarize(
        &self,
        node: &Dispatcher,
        pattern: PatternId,
        range: RangeRef,
    ) -> eps_pubsub::RangeSummary {
        match self.mode {
            SummaryMode::Push => node.cache().summary_index().summarize(pattern, range),
            SummaryMode::Pull => node.cache().seen_summary(pattern, range),
        }
    }

    /// The complete id list of `range` under the mode's view (see
    /// [`SummaryDigestPolicy::view_summarize`]).
    fn view_ids_in(&self, node: &Dispatcher, pattern: PatternId, range: RangeRef) -> Vec<EventId> {
        match self.mode {
            SummaryMode::Push => node.cache().summary_index().ids_in(pattern, range),
            SummaryMode::Pull => node.cache().seen_ids_in(pattern, range),
        }
    }

    /// Pops the next queued refinement for `pattern`, keeping the
    /// global counter and the per-pattern map in step.
    fn pop_queued(&mut self, pattern: PatternId) -> Option<RangeRef> {
        let queue = self.detail_out.get_mut(&pattern)?;
        let range = queue.pop_first();
        if range.is_some() {
            self.queued -= 1;
        }
        if queue.is_empty() {
            self.detail_out.remove(&pattern);
        }
        range
    }

    /// Serves `ids` (a provable gossiper deficit) from the cache as a
    /// single deduplicated reply, capped at `serve_cap` events.
    fn serve_ids(&self, node: &Dispatcher, to: NodeId, ids: &[EventId]) -> Option<GossipAction> {
        let mut events: Vec<Event> = ids
            .iter()
            .filter_map(|&id| node.cache().get(id).cloned())
            .collect();
        // One event can appear under several patterns/leaves.
        events.sort_by_key(Event::id);
        events.dedup_by_key(|e| e.id());
        events.truncate(self.serve_cap);
        if events.is_empty() {
            None
        } else {
            Some(GossipAction::Reply { to, events })
        }
    }
}

impl DigestPolicy for SummaryDigestPolicy {
    fn begin_round(&mut self) {
        // Same idle-streak rule as the linear push digest: a single
        // quiet interval is noise, a streak backs the interval off.
        if self.requests_since_round > 0 {
            self.idle_rounds = 0;
        } else {
            self.idle_rounds = self.idle_rounds.saturating_add(1);
        }
        self.requests_since_round = 0;
    }

    fn draw_pattern(&mut self, node: &Dispatcher, rng: &mut Rng) -> Option<PatternId> {
        // Proactive, like push: any pattern this dispatcher routes is
        // worth a round — being on the path to a subscriber is enough.
        draw_known_pattern(node, rng)
    }

    fn build_for_pattern(
        &mut self,
        node: &Dispatcher,
        pattern: PatternId,
        limit: usize,
    ) -> Option<DigestBody> {
        let root = self.view_summarize(node, pattern, RangeRef::ROOT);
        if self.mode == SummaryMode::Push && root.count == 0 && self.queued == 0 {
            // Nothing to announce and nobody waiting on a refinement.
            // (Pull rounds still go out empty: "I have nothing" is
            // exactly what invites peers to serve their surplus.)
            return None;
        }
        let mut ranges = vec![root];
        let mut details: Vec<RangeDetail> = Vec::new();
        // Drain queued refinements while the entry budget lasts. The
        // last expansion may overshoot `limit` by one fanout of
        // children — a soft cap, guaranteeing progress even with a
        // tiny digest_max.
        while ranges.len() + details.len() < limit {
            let Some(range) = self.pop_queued(pattern) else {
                break;
            };
            let summary = self.view_summarize(node, pattern, range);
            if range.is_leaf() || summary.count <= DETAIL_THRESHOLD {
                // Small enough to list outright — including the
                // empty list, which pull receivers need to see.
                details.push(RangeDetail {
                    range,
                    ids: self.view_ids_in(node, pattern, range),
                });
            } else {
                // Refine by one level. All children are included —
                // empty ones too — so receivers can tell "gossiper
                // holds nothing here" from "not yet refined".
                for i in 0..eps_pubsub::summary::FANOUT {
                    ranges.push(self.view_summarize(node, pattern, range.child(i)));
                }
            }
        }
        Some(DigestBody::Summary {
            ranges: Arc::new(ranges),
            details: Arc::new(details),
        })
    }

    fn build_any(&mut self, _limit: usize) -> Option<DigestBody> {
        // Summary digests are always pattern-labelled.
        None
    }

    fn has_work(&self, _node: &Dispatcher) -> bool {
        // Proactive: a round is always worth attempting.
        true
    }

    fn absorb(
        &mut self,
        node: &Dispatcher,
        gossiper: NodeId,
        pattern: Option<PatternId>,
        body: DigestBody,
    ) -> Option<Absorbed> {
        let DigestBody::Summary { ranges, details } = body else {
            return None; // Linear digests are foreign to this family.
        };
        let Some(pattern) = pattern else {
            return None; // Summary digests are pattern-steered only.
        };
        let mut actions = Vec::new();
        // Push reacts only at subscribers (they are the ones with a
        // deficit worth filling); pull serves from any dispatcher on
        // the route, exactly like linear pull's cache serving.
        let reacts = gossiper != node.id()
            && match self.mode {
                SummaryMode::Push => node.table().has_local(pattern),
                SummaryMode::Pull => true,
            };
        if reacts {
            let local = node.cache().summary_index();
            let mut refine: Vec<RangeRef> = Vec::new();
            let mut serve: Vec<EventId> = Vec::new();
            for summary in ranges.iter() {
                // Pull compares seen view against seen view, so two
                // caches that merely evicted differently — but saw the
                // same ids — have nothing to exchange. Serving below
                // stays live-only: `local.ids_in` lists residents.
                let ours = self.view_summarize(node, pattern, summary.range);
                if ours.count == summary.count && ours.hash == summary.hash {
                    continue; // Identical content in this range.
                }
                match self.mode {
                    // Gossiper holds nothing we could fetch.
                    SummaryMode::Push if summary.count == 0 => {}
                    // Gossiper holds nothing: everything of ours in
                    // the range is a provable deficit — no need to
                    // recurse further.
                    SummaryMode::Pull if summary.count == 0 => {
                        serve.extend(local.ids_in(pattern, summary.range));
                    }
                    // Both sides hold something: refine to find Δ.
                    SummaryMode::Push | SummaryMode::Pull => refine.push(summary.range),
                }
            }
            let mut fetch: Vec<EventId> = Vec::new();
            for detail in details.iter() {
                match self.mode {
                    SummaryMode::Push => {
                        // Ids the gossiper holds and we have never
                        // seen, minus those already requested.
                        fetch.extend(
                            detail
                                .ids
                                .iter()
                                .copied()
                                .filter(|&id| !node.has_seen(id) && !self.requested.contains(&id)),
                        );
                    }
                    SummaryMode::Pull => {
                        // Our ids the gossiper's complete list lacks.
                        let theirs: BTreeSet<EventId> = detail.ids.iter().copied().collect();
                        serve.extend(
                            local
                                .ids_in(pattern, detail.range)
                                .into_iter()
                                .filter(|id| !theirs.contains(id)),
                        );
                    }
                }
            }
            if !refine.is_empty() {
                refine.sort_unstable();
                refine.dedup();
                actions.push(GossipAction::RequestDetail {
                    to: gossiper,
                    pattern,
                    ranges: refine,
                });
            }
            if !fetch.is_empty() {
                self.requested.extend(fetch.iter().copied());
                actions.push(GossipAction::Request {
                    to: gossiper,
                    ids: fetch,
                });
            }
            if !serve.is_empty() {
                actions.extend(self.serve_ids(node, gossiper, &serve));
            }
            if !actions.is_empty() {
                // Reconciliation in progress counts as activity for
                // the adaptive-gossip idle signal.
                self.requests_since_round += 1;
            }
        }
        // Like a linear push digest, the summary keeps propagating
        // unchanged along the pattern's routes.
        Some(Absorbed {
            actions,
            remainder: Some(DigestBody::Summary { ranges, details }),
        })
    }

    fn on_event_received(&mut self, event: &Event) {
        self.requested.remove(&event.id());
    }

    fn note_request(&mut self) {
        self.requests_since_round += 1;
    }

    fn on_range_request(&mut self, _from: NodeId, pattern: PatternId, ranges: &[RangeRef]) {
        for &range in ranges {
            self.queue_range(pattern, range);
        }
        // A peer asking for refinement is direct evidence the digests
        // are finding divergence.
        self.requests_since_round += 1;
    }

    fn is_idle(&self) -> bool {
        self.idle_rounds >= 3 && self.requests_since_round == 0 && self.queued == 0
    }
}

#[cfg(test)]
mod tests {
    use eps_pubsub::{DispatcherConfig, RangeSummary};

    use super::*;

    fn cfg() -> GossipConfig {
        GossipConfig::default()
    }

    fn summary_node(id: u32, pattern: u16) -> Dispatcher {
        let mut node = Dispatcher::new(
            NodeId::new(id),
            DispatcherConfig {
                summary_index: true,
                ..DispatcherConfig::default()
            },
        );
        node.subscribe_local(PatternId::new(pattern), &[]);
        node
    }

    fn feed(node: &mut Dispatcher, pattern: u16, source: u32, seqs: impl Iterator<Item = u64>) {
        for seq in seqs {
            let e = Event::new(
                EventId::new(NodeId::new(source), seq),
                vec![(PatternId::new(pattern), seq)],
            );
            node.on_event(e, Some(NodeId::new(99)));
        }
    }

    /// Runs rounds of two-node reconciliation: `a` gossips to `b`,
    /// actions are applied (RequestDetail queues on `a`, Request is
    /// served by `a`'s cache, Reply events land on `a`). Returns the
    /// number of rounds until no further actions flow.
    fn reconcile(
        a: &mut Dispatcher,
        b: &mut Dispatcher,
        pa: &mut SummaryDigestPolicy,
        pb: &mut SummaryDigestPolicy,
        pattern: PatternId,
        max_rounds: usize,
    ) -> usize {
        for round in 1..=max_rounds {
            pa.begin_round();
            let Some(body) = pa.build_for_pattern(a, pattern, cfg().digest_max) else {
                return round;
            };
            let absorbed = pb
                .absorb(b, a.id(), Some(pattern), body)
                .expect("summary body is native");
            if absorbed.actions.is_empty() {
                return round;
            }
            for action in absorbed.actions {
                match action {
                    GossipAction::RequestDetail { ranges, .. } => {
                        pa.on_range_request(b.id(), pattern, &ranges);
                    }
                    GossipAction::Request { ids, .. } => {
                        // b fetches from a's cache.
                        for id in ids {
                            if let Some(e) = a.cache().get(id).cloned() {
                                b.on_recovered_event(e.clone());
                                pb.on_event_received(&e);
                            }
                        }
                    }
                    GossipAction::Reply { events, .. } => {
                        // b serves a's deficit.
                        for e in events {
                            a.on_recovered_event(e.clone());
                            pa.on_event_received(&e);
                        }
                    }
                    GossipAction::Forward { .. } => {}
                }
            }
        }
        max_rounds
    }

    #[test]
    fn round_digest_is_root_only_until_peers_ask() {
        let mut node = summary_node(0, 1);
        feed(&mut node, 1, 7, 0..100);
        let mut policy = SummaryDigestPolicy::push(&cfg());
        match policy.build_for_pattern(&node, PatternId::new(1), 128) {
            Some(DigestBody::Summary { ranges, details }) => {
                assert_eq!(ranges.len(), 1, "unprompted rounds carry the root only");
                assert_eq!(ranges[0].range, RangeRef::ROOT);
                assert_eq!(ranges[0].count, 100);
                assert!(details.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn refinement_requests_expand_in_the_next_round() {
        let mut node = summary_node(0, 1);
        feed(&mut node, 1, 7, 0..100);
        let p = PatternId::new(1);
        let mut policy = SummaryDigestPolicy::push(&cfg());
        policy.on_range_request(NodeId::new(2), p, &[RangeRef::ROOT]);
        assert_eq!(policy.queued_ranges(), 1);
        match policy.build_for_pattern(&node, p, 128) {
            Some(DigestBody::Summary { ranges, details }) => {
                // Root (always) + its 16 children (100 > threshold).
                assert_eq!(ranges.len(), 1 + 16);
                let total: u64 = ranges[1..].iter().map(|r| r.count).sum();
                assert_eq!(total, 100, "children partition the root");
                assert!(details.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(policy.queued_ranges(), 0, "queue drained");
        // A small range refines straight to a detail list.
        let mut small = summary_node(1, 1);
        feed(&mut small, 1, 7, 0..5);
        let mut policy = SummaryDigestPolicy::push(&cfg());
        policy.on_range_request(NodeId::new(2), p, &[RangeRef::ROOT]);
        match policy.build_for_pattern(&small, p, 128) {
            Some(DigestBody::Summary { ranges, details }) => {
                assert_eq!(ranges.len(), 1);
                assert_eq!(details.len(), 1);
                assert_eq!(details[0].ids.len(), 5);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn push_receiver_requests_missing_ids_only_once() {
        let mut gossiper = summary_node(0, 1);
        feed(&mut gossiper, 1, 7, 0..3);
        let receiver = summary_node(1, 1);
        let p = PatternId::new(1);
        let detail = gossiper
            .cache()
            .summary_index()
            .tree(p)
            .unwrap()
            .detail(RangeRef::ROOT);
        let body = DigestBody::Summary {
            ranges: Arc::new(vec![gossiper.cache().summary_index().root(p)]),
            details: Arc::new(vec![detail]),
        };
        let mut policy = SummaryDigestPolicy::push(&cfg());
        let absorbed = policy
            .absorb(&receiver, gossiper.id(), Some(p), body.clone())
            .unwrap();
        let requests: Vec<_> = absorbed
            .actions
            .iter()
            .filter(|a| matches!(a, GossipAction::Request { .. }))
            .collect();
        assert_eq!(requests.len(), 1);
        match requests[0] {
            GossipAction::Request { to, ids } => {
                assert_eq!(*to, gossiper.id());
                assert_eq!(ids.len(), 3);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(
            matches!(absorbed.remainder, Some(DigestBody::Summary { .. })),
            "summaries keep propagating unchanged"
        );
        // Re-absorbing while the request is in flight asks for nothing.
        let again = policy
            .absorb(&receiver, gossiper.id(), Some(p), body)
            .unwrap();
        assert!(!again
            .actions
            .iter()
            .any(|a| matches!(a, GossipAction::Request { .. })));
    }

    #[test]
    fn pull_receiver_serves_the_gossiper_deficit() {
        let gossiper = summary_node(0, 1); // empty cache
        let mut server = summary_node(1, 1);
        feed(&mut server, 1, 7, 0..4);
        let p = PatternId::new(1);
        // An empty gossiper's round: root with count 0.
        let body = DigestBody::Summary {
            ranges: Arc::new(vec![RangeSummary::empty(RangeRef::ROOT)]),
            details: Arc::new(vec![]),
        };
        let mut policy = SummaryDigestPolicy::pull(&cfg());
        let absorbed = policy
            .absorb(&server, gossiper.id(), Some(p), body)
            .unwrap();
        assert_eq!(absorbed.actions.len(), 1);
        match &absorbed.actions[0] {
            GossipAction::Reply { to, events } => {
                assert_eq!(*to, gossiper.id());
                assert_eq!(events.len(), 4, "entire surplus served");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn matching_caches_produce_no_actions() {
        let mut a = summary_node(0, 1);
        let mut b = summary_node(1, 1);
        feed(&mut a, 1, 7, 0..50);
        feed(&mut b, 1, 7, 0..50);
        let p = PatternId::new(1);
        for mut policy in [
            SummaryDigestPolicy::push(&cfg()),
            SummaryDigestPolicy::pull(&cfg()),
        ] {
            let body = DigestBody::Summary {
                ranges: Arc::new(vec![a.cache().summary_index().root(p)]),
                details: Arc::new(vec![]),
            };
            let absorbed = policy.absorb(&b, a.id(), Some(p), body).unwrap();
            assert!(absorbed.actions.is_empty(), "{:?}", policy.mode());
        }
    }

    #[test]
    fn linear_bodies_are_foreign() {
        let node = summary_node(0, 1);
        let mut policy = SummaryDigestPolicy::push(&cfg());
        assert!(policy
            .absorb(
                &node,
                NodeId::new(9),
                Some(PatternId::new(1)),
                DigestBody::Positive(Arc::new(vec![]))
            )
            .is_none());
        assert!(policy
            .absorb(
                &node,
                NodeId::new(9),
                Some(PatternId::new(1)),
                DigestBody::Negative(vec![])
            )
            .is_none());
        // And a summary body without a pattern label (source/random
        // steering) is foreign too.
        assert!(policy
            .absorb(
                &node,
                NodeId::new(9),
                None,
                DigestBody::Summary {
                    ranges: Arc::new(vec![]),
                    details: Arc::new(vec![])
                }
            )
            .is_none());
    }

    #[test]
    fn push_converges_within_the_round_bound() {
        // Gossiper has 200 events; the subscriber is missing 7 of
        // them. Multi-round recursion must localize and transfer all 7
        // within ~LEVEL_COUNT + 2 rounds per level of divergence.
        let missing = [3, 50, 51, 120, 155, 180, 199];
        let mut a = summary_node(0, 1);
        let mut b = summary_node(1, 1);
        feed(&mut a, 1, 7, 0..200);
        feed(&mut b, 1, 7, (0..200).filter(|s| !missing.contains(s)));
        let p = PatternId::new(1);
        let mut pa = SummaryDigestPolicy::push(&cfg());
        let mut pb = SummaryDigestPolicy::push(&cfg());
        let rounds = reconcile(&mut a, &mut b, &mut pa, &mut pb, p, 16);
        assert!(rounds < 16, "did not converge: {rounds} rounds");
        assert_eq!(
            b.cache().summary_index().root(p),
            a.cache().summary_index().root(p),
            "caches agree after reconciliation"
        );
    }

    #[test]
    fn pull_converges_within_the_round_bound() {
        // Gossiper is missing 5 events the receiver holds.
        let missing = [10, 11, 90, 140, 170];
        let mut a = summary_node(0, 1);
        let mut b = summary_node(1, 1);
        feed(&mut a, 1, 7, (0..200).filter(|s| !missing.contains(s)));
        feed(&mut b, 1, 7, 0..200);
        let p = PatternId::new(1);
        let mut pa = SummaryDigestPolicy::pull(&cfg());
        let mut pb = SummaryDigestPolicy::pull(&cfg());
        let rounds = reconcile(&mut a, &mut b, &mut pa, &mut pb, p, 16);
        assert!(rounds < 16, "did not converge: {rounds} rounds");
        assert_eq!(
            a.cache().summary_index().root(p),
            b.cache().summary_index().root(p),
            "caches agree after reconciliation"
        );
    }

    #[test]
    fn queued_ranges_are_bounded() {
        let mut policy = SummaryDigestPolicy::push(&cfg());
        let p = PatternId::new(1);
        // 16^3 level-3 ranges exceed the queue bound.
        for i in 0..(MAX_QUEUED_RANGES as u32 + 100) {
            policy.on_range_request(NodeId::new(2), p, &[RangeRef::new(3, i % 4096)]);
        }
        assert_eq!(policy.queued_ranges(), MAX_QUEUED_RANGES);
    }

    #[test]
    fn idle_signal_requires_a_quiet_streak() {
        let mut policy = SummaryDigestPolicy::pull(&cfg());
        assert!(!policy.is_idle());
        for _ in 0..3 {
            policy.begin_round();
        }
        assert!(policy.is_idle());
        policy.on_range_request(NodeId::new(2), PatternId::new(1), &[RangeRef::ROOT]);
        assert!(!policy.is_idle(), "queued work keeps the policy busy");
    }
}

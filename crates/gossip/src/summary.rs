//! Summary reconciliation: the digest whose anti-entropy wire cost is
//! sublinear in cache size (ROADMAP item 2).
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
//!    [`crate::Envelope::RangeRequest`], which travels back to the
//!    gossiper out-of-band.
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
//!   has and they lack (out-of-band [`crate::Envelope::Request`],
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
//! [`crate::Envelope::Reply`]. A cache that never evicts has an empty
//! tombstone set, making the seen view bit-identical to the live one —
//! the pre-tombstone wire behavior.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use eps_overlay::NodeId;
use eps_pubsub::{Dispatcher, Event, EventId, PatternId, RangeDetail, RangeRef, RangeSummary};

use crate::config::GossipConfig;
use crate::envelope::{Envelope, Outgoing};
use crate::message::GossipMessage;
use crate::policy::{reply, PushState};

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
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SummaryMode {
    /// Receivers fetch what the gossiper has and they lack.
    Push,
    /// Receivers serve what they have and the gossiper lacks.
    Pull,
}

/// A dispatcher's summary-reconciliation state (the `summary-push` /
/// `summary-pull` rows of the [`crate::Algorithm`] table): the
/// refinements peers asked for, plus the in-flight requests and idle
/// streak of a push digest.
///
/// Requires [`eps_pubsub::DispatcherConfig::summary_index`] on every
/// dispatcher (the table rows declare it via
/// [`crate::Algorithm::needs_summary_index`]); building or absorbing a
/// digest panics otherwise.
#[derive(Clone, Debug)]
pub struct SummaryState {
    /// The transfer direction.
    pub(crate) mode: SummaryMode,
    /// Ranges peers asked this gossiper to refine, per pattern.
    /// `BTreeMap`/`BTreeSet` keep the drain order deterministic.
    detail_out: BTreeMap<PatternId, BTreeSet<RangeRef>>,
    /// Total queued ranges (bounded by [`MAX_QUEUED_RANGES`]).
    queued: usize,
    /// Push mode's in-flight requests, and the idle streak both modes
    /// keep like a linear push digest.
    pub(crate) push: PushState,
    /// Pull mode: cap on events served per absorbed digest
    /// (`digest_max`, mirroring the entry bound of negative digests).
    serve_cap: usize,
}

impl SummaryState {
    /// Fresh state for `mode`, serving at most `config.digest_max`
    /// events per absorbed digest.
    pub fn new(mode: SummaryMode, config: &GossipConfig) -> Self {
        SummaryState {
            mode,
            detail_out: BTreeMap::new(),
            queued: 0,
            push: PushState::default(),
            serve_cap: config.digest_max,
        }
    }

    /// Ranges currently queued for refinement.
    pub(crate) fn queued_ranges(&self) -> usize {
        self.queued
    }

    /// A peer asks this gossiper to refine `ranges` of `pattern`'s
    /// summary in its next round. Requests beyond the
    /// [`MAX_QUEUED_RANGES`] bound are dropped silently (the persistent
    /// mismatch re-issues them later).
    pub(crate) fn on_range_request(&mut self, pattern: PatternId, ranges: &[RangeRef]) {
        for &range in ranges {
            if self.queued < MAX_QUEUED_RANGES
                && self.detail_out.entry(pattern).or_default().insert(range)
            {
                self.queued += 1;
            }
        }
        // A peer asking for refinement is direct evidence the digests
        // are finding divergence.
        self.push.note_activity();
    }

    /// The view this state's digests announce and compare: push works
    /// on the live cache (its digests invite fetches, which only
    /// resident events can serve); pull works on the *seen* view —
    /// live plus eviction tombstones — so peers stop re-serving
    /// surplus the cache has already consumed and evicted.
    fn view_summarize(
        &self,
        node: &Dispatcher,
        pattern: PatternId,
        range: RangeRef,
    ) -> RangeSummary {
        match self.mode {
            SummaryMode::Push => node.cache().summary_index().summarize(pattern, range),
            SummaryMode::Pull => node.cache().seen_summary(pattern, range),
        }
    }

    /// The complete id list of `range` under the mode's view (see
    /// [`SummaryState::view_summarize`]).
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

    /// The round digest for `pattern`: its root aggregate plus queued
    /// refinements while `limit` entries last, or `None` when a push
    /// round has nothing to announce and nobody waits on a refinement.
    /// (Pull rounds still go out empty: "I have nothing" is exactly
    /// what invites peers to serve their surplus.)
    pub fn digest(
        &mut self,
        node: &Dispatcher,
        pattern: PatternId,
        limit: usize,
    ) -> Option<GossipMessage> {
        let root = self.view_summarize(node, pattern, RangeRef::ROOT);
        if self.mode == SummaryMode::Push && root.count == 0 && self.queued == 0 {
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
        Some(GossipMessage::SummaryDigest {
            gossiper: node.id(),
            pattern,
            ranges: Arc::new(ranges),
            details: Arc::new(details),
        })
    }

    /// The local reaction to `gossiper`'s digest for `pattern`: range
    /// refinement requests, then a fetch request (push) or a reply
    /// serving the gossiper's provable deficit (pull).
    pub(crate) fn absorb(
        &mut self,
        node: &Dispatcher,
        gossiper: NodeId,
        pattern: PatternId,
        ranges: &[RangeSummary],
        details: &[RangeDetail],
    ) -> Vec<Outgoing> {
        let mut out = Vec::new();
        // Push reacts only at subscribers (they are the ones with a
        // deficit worth filling); pull serves from any dispatcher on
        // the route, exactly like linear pull's cache serving.
        let reacts = gossiper != node.id()
            && match self.mode {
                SummaryMode::Push => node.table().has_local(pattern),
                SummaryMode::Pull => true,
            };
        if !reacts {
            return out;
        }
        let local = node.cache().summary_index();
        let mut refine: Vec<RangeRef> = Vec::new();
        let mut serve: Vec<EventId> = Vec::new();
        for summary in ranges {
            // Pull compares seen view against seen view, so two caches
            // that merely evicted differently — but saw the same ids —
            // have nothing to exchange. Serving below stays live-only:
            // `local.ids_in` lists residents.
            let ours = self.view_summarize(node, pattern, summary.range);
            if ours.count == summary.count && ours.hash == summary.hash {
                continue; // Identical content in this range.
            }
            match self.mode {
                // Gossiper holds nothing we could fetch.
                SummaryMode::Push if summary.count == 0 => {}
                // Gossiper holds nothing: everything of ours in the
                // range is a provable deficit — no need to recurse
                // further.
                SummaryMode::Pull if summary.count == 0 => {
                    serve.extend(local.ids_in(pattern, summary.range));
                }
                // Both sides hold something: refine to find Δ.
                SummaryMode::Push | SummaryMode::Pull => refine.push(summary.range),
            }
        }
        if !refine.is_empty() {
            refine.sort_unstable();
            refine.dedup();
            out.push(Outgoing {
                to: gossiper,
                env: Envelope::RangeRequest {
                    pattern,
                    ranges: refine,
                },
            });
        }
        match self.mode {
            // Ids the gossiper holds and we have never seen, minus
            // those already requested.
            SummaryMode::Push => out.extend(self.push.request_unseen(
                node,
                gossiper,
                details.iter().flat_map(|detail| detail.ids.iter().copied()),
            )),
            SummaryMode::Pull => {
                // Our ids the gossiper's complete list lacks.
                for detail in details {
                    let theirs: BTreeSet<EventId> = detail.ids.iter().copied().collect();
                    serve.extend(
                        local
                            .ids_in(pattern, detail.range)
                            .into_iter()
                            .filter(|id| !theirs.contains(id)),
                    );
                }
                // One deduplicated reply (an event can appear under
                // several patterns/leaves), capped at `serve_cap`.
                let mut events: Vec<Event> = serve
                    .iter()
                    .filter_map(|&id| node.cache().get(id).cloned())
                    .collect();
                events.sort_by_key(Event::id);
                events.dedup_by_key(|e| e.id());
                events.truncate(self.serve_cap);
                out.extend(reply(gossiper, events));
            }
        }
        if !out.is_empty() {
            // Reconciliation in progress counts as activity for the
            // adaptive-gossip idle signal.
            self.push.note_activity();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use eps_pubsub::DispatcherConfig;

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

    /// The ranges and details of a summary digest.
    fn parts(digest: Option<GossipMessage>) -> (Vec<RangeSummary>, Vec<RangeDetail>) {
        match digest {
            Some(GossipMessage::SummaryDigest {
                ranges, details, ..
            }) => (ranges.to_vec(), details.to_vec()),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Runs rounds of two-node reconciliation: `a` gossips to `b`,
    /// reactions are applied (range requests queue on `a`, fetch
    /// requests are served by `a`'s cache, replies land on `a`).
    /// Returns the number of rounds until no further reactions flow.
    fn reconcile(
        a: &mut Dispatcher,
        b: &mut Dispatcher,
        sa: &mut SummaryState,
        sb: &mut SummaryState,
        pattern: PatternId,
        max_rounds: usize,
    ) -> usize {
        for round in 1..=max_rounds {
            let digest = sa.digest(a, pattern, cfg().digest_max);
            if digest.is_none() {
                return round;
            }
            let (ranges, details) = parts(digest);
            let out = sb.absorb(b, a.id(), pattern, &ranges, &details);
            if out.is_empty() {
                return round;
            }
            for Outgoing { env, .. } in out {
                match env {
                    Envelope::RangeRequest { ranges, .. } => sa.on_range_request(pattern, &ranges),
                    Envelope::Request(ids) => {
                        // b fetches from a's cache.
                        for id in ids {
                            if let Some(e) = a.cache().get(id).cloned() {
                                b.on_recovered_event(e.clone());
                                sb.push.on_event_received(&e);
                            }
                        }
                    }
                    Envelope::Reply(events) => {
                        // b serves a's deficit.
                        for e in events {
                            a.on_recovered_event(e.clone());
                            sa.push.on_event_received(&e);
                        }
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        max_rounds
    }

    #[test]
    fn round_digest_is_root_only_until_peers_ask() {
        let mut node = summary_node(0, 1);
        feed(&mut node, 1, 7, 0..100);
        let mut state = SummaryState::new(SummaryMode::Push, &cfg());
        let (ranges, details) = parts(state.digest(&node, PatternId::new(1), 128));
        assert_eq!(ranges.len(), 1, "unprompted rounds carry the root only");
        assert_eq!(ranges[0].range, RangeRef::ROOT);
        assert_eq!(ranges[0].count, 100);
        assert!(details.is_empty());
    }

    #[test]
    fn refinement_requests_expand_in_the_next_round() {
        let mut node = summary_node(0, 1);
        feed(&mut node, 1, 7, 0..100);
        let p = PatternId::new(1);
        let mut state = SummaryState::new(SummaryMode::Push, &cfg());
        state.on_range_request(p, &[RangeRef::ROOT]);
        assert_eq!(state.queued_ranges(), 1);
        let (ranges, details) = parts(state.digest(&node, p, 128));
        // Root (always) + its 16 children (100 > threshold).
        assert_eq!(ranges.len(), 1 + 16);
        let total: u64 = ranges[1..].iter().map(|r| r.count).sum();
        assert_eq!(total, 100, "children partition the root");
        assert!(details.is_empty());
        assert_eq!(state.queued_ranges(), 0, "queue drained");
        // A small range refines straight to a detail list.
        let mut small = summary_node(1, 1);
        feed(&mut small, 1, 7, 0..5);
        let mut state = SummaryState::new(SummaryMode::Push, &cfg());
        state.on_range_request(p, &[RangeRef::ROOT]);
        let (ranges, details) = parts(state.digest(&small, p, 128));
        assert_eq!(ranges.len(), 1);
        assert_eq!(details.len(), 1);
        assert_eq!(details[0].ids.len(), 5);
    }

    #[test]
    fn push_receiver_requests_missing_ids_only_once() {
        let mut gossiper = summary_node(0, 1);
        feed(&mut gossiper, 1, 7, 0..3);
        let receiver = summary_node(1, 1);
        let p = PatternId::new(1);
        let index = gossiper.cache().summary_index();
        let ranges = [index.root(p)];
        let details = [index.tree(p).unwrap().detail(RangeRef::ROOT)];
        let mut state = SummaryState::new(SummaryMode::Push, &cfg());
        let out = state.absorb(&receiver, gossiper.id(), p, &ranges, &details);
        let requests: Vec<_> = out
            .iter()
            .filter(|o| matches!(o.env, Envelope::Request(_)))
            .collect();
        match requests[..] {
            [Outgoing {
                to,
                env: Envelope::Request(ids),
            }] => {
                assert_eq!(*to, gossiper.id());
                assert_eq!(ids.len(), 3);
            }
            ref other => panic!("unexpected {other:?}"),
        }
        // Re-absorbing while the request is in flight asks for nothing.
        let again = state.absorb(&receiver, gossiper.id(), p, &ranges, &details);
        assert!(!again.iter().any(|o| matches!(o.env, Envelope::Request(_))));
    }

    #[test]
    fn pull_receiver_serves_the_gossiper_deficit() {
        let gossiper = summary_node(0, 1); // empty cache
        let mut server = summary_node(1, 1);
        feed(&mut server, 1, 7, 0..4);
        let p = PatternId::new(1);
        // An empty gossiper's round: root with count 0.
        let ranges = [RangeSummary::empty(RangeRef::ROOT)];
        let mut state = SummaryState::new(SummaryMode::Pull, &cfg());
        let out = state.absorb(&server, gossiper.id(), p, &ranges, &[]);
        match &out[..] {
            [Outgoing {
                to,
                env: Envelope::Reply(events),
            }] => {
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
        for mode in [SummaryMode::Push, SummaryMode::Pull] {
            let mut state = SummaryState::new(mode, &cfg());
            let ranges = [a.cache().summary_index().root(p)];
            let out = state.absorb(&b, a.id(), p, &ranges, &[]);
            assert!(out.is_empty(), "{mode:?}");
        }
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
        let mut sa = SummaryState::new(SummaryMode::Push, &cfg());
        let mut sb = SummaryState::new(SummaryMode::Push, &cfg());
        let rounds = reconcile(&mut a, &mut b, &mut sa, &mut sb, p, 16);
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
        let mut sa = SummaryState::new(SummaryMode::Pull, &cfg());
        let mut sb = SummaryState::new(SummaryMode::Pull, &cfg());
        let rounds = reconcile(&mut a, &mut b, &mut sa, &mut sb, p, 16);
        assert!(rounds < 16, "did not converge: {rounds} rounds");
        assert_eq!(
            a.cache().summary_index().root(p),
            b.cache().summary_index().root(p),
            "caches agree after reconciliation"
        );
    }

    #[test]
    fn queued_ranges_are_bounded() {
        let mut state = SummaryState::new(SummaryMode::Push, &cfg());
        let p = PatternId::new(1);
        // 16^3 level-3 ranges exceed the queue bound.
        for i in 0..(MAX_QUEUED_RANGES as u32 + 100) {
            state.on_range_request(p, &[RangeRef::new(3, i % 4096)]);
        }
        assert_eq!(state.queued_ranges(), MAX_QUEUED_RANGES);
    }
}

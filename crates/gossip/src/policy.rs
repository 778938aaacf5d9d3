//! The two orthogonal policy stages a recovery strategy is composed
//! from.
//!
//! The paper's strategies are one algorithm family varied along two
//! axes:
//!
//! - **what a digest asserts** — a [`DigestPolicy`]: push gossips a
//!   *positive* digest of cached event identifiers
//!   ([`PositiveDigest`]), the pull variants gossip a *negative*
//!   digest of `Lost` entries ([`NegativeDigest`]), and hybrids can
//!   alternate between the two ([`AlternatingDigest`]);
//! - **where a digest travels** — a [`SteeringPolicy`]: routed along
//!   the subscription tree like an event ([`PatternSteering`]), back
//!   towards the publisher along recorded routes ([`SourceSteering`]),
//!   to random neighbors under a TTL ([`RandomSteering`]), or through
//!   a probabilistic mux of two steerings ([`MuxSteering`] — the
//!   paper's combined pull is literally
//!   `Mux(P_source, Source, Pattern)` over a negative digest).
//!
//! A [`crate::GossipEngine`] pairs one digest policy with one steering
//! policy and owns the machinery they share. The round bodies here are
//! ports of the previously hand-wired per-algorithm implementations
//! and preserve their RNG draw order exactly (the harness golden tests
//! pin this bit-for-bit).

use std::fmt;
use std::sync::Arc;

use eps_overlay::NodeId;
use eps_pubsub::{
    Dispatcher, Event, EventId, LossRecord, PatternId, RangeDetail, RangeRef, RangeSummary,
};
use eps_sim::hash::IdSet;
use eps_sim::Rng;

use crate::config::GossipConfig;
use crate::lost::LostBuffer;
use crate::message::{GossipAction, GossipMessage};

/// What one gossip round asserts.
#[derive(Clone, Debug)]
pub enum DigestBody {
    /// "I have these events" — identifiers of cached events (push).
    Positive(Arc<Vec<EventId>>),
    /// "I am missing these events" — outstanding `Lost` entries
    /// (pull).
    Negative(Vec<LossRecord>),
    /// "My cache for this pattern aggregates to these hashes" — the
    /// hash-range tree digest of summary reconciliation: compact range
    /// aggregates plus fully expanded ranges (see
    /// [`crate::SummaryDigestPolicy`]). Both halves are shared since
    /// the digest is forwarded unchanged along the tree.
    Summary {
        /// Range aggregates (the root, plus children of ranges peers
        /// asked to refine).
        ranges: Arc<Vec<RangeSummary>>,
        /// Fully expanded ranges with their complete id lists.
        details: Arc<Vec<RangeDetail>>,
    },
}

impl DigestBody {
    /// Wraps the body in the pattern-labelled wire form: a positive
    /// body becomes a [`GossipMessage::PushDigest`], a negative one a
    /// [`GossipMessage::PullDigest`]. No new wire variants exist for
    /// hybrids — they reuse these two forms.
    pub fn into_pattern_message(self, gossiper: NodeId, pattern: PatternId) -> GossipMessage {
        match self {
            DigestBody::Positive(ids) => GossipMessage::PushDigest {
                gossiper,
                pattern,
                ids,
            },
            DigestBody::Negative(lost) => GossipMessage::PullDigest {
                gossiper,
                pattern,
                lost,
            },
            DigestBody::Summary { ranges, details } => GossipMessage::SummaryDigest {
                gossiper,
                pattern,
                ranges,
                details,
            },
        }
    }
}

/// Outcome of absorbing a digest received from another gossiper.
#[derive(Debug, Default)]
pub struct Absorbed {
    /// The local reaction: out-of-band requests (positive digests) or
    /// replies served from the cache (negative digests).
    pub actions: Vec<GossipAction>,
    /// What is left for the steering policy to propagate further:
    /// positive digests travel on unchanged, negative digests shrink
    /// to the entries this dispatcher could not serve (`None`
    /// short-circuits the propagation).
    pub remainder: Option<DigestBody>,
}

/// The digest stage: owns the strategy's state (the `Lost` buffer for
/// negative digests, the in-flight request set for positive ones),
/// builds the per-round digest the steering stage sends, and absorbs
/// digests received from other gossipers.
pub trait DigestPolicy: fmt::Debug + Send {
    /// Called once at the start of every gossip round, before the
    /// steering stage runs (push's idle-streak accounting).
    fn begin_round(&mut self) {}

    /// Draws the pattern a pattern-steered round is labelled with,
    /// uniformly from this policy's candidates in ascending pattern
    /// order: one [`Rng::random_below`] draw over the candidate count,
    /// and none at all (`None`) when there are no candidates.
    fn draw_pattern(&mut self, node: &Dispatcher, rng: &mut Rng) -> Option<PatternId>;

    /// Draws the source a source-steered round targets, uniformly from
    /// the candidate sources `node` knows a route back to, in
    /// ascending id order — same draw discipline as
    /// [`DigestPolicy::draw_pattern`].
    fn draw_source(&mut self, node: &Dispatcher, rng: &mut Rng) -> Option<NodeId> {
        let _ = (node, rng);
        None
    }

    /// Builds the digest for a round labelled with `pattern`, or
    /// `None` to skip the round. `limit` bounds negative digests
    /// (positive digests are never truncated — the paper's overhead
    /// accounting charges every gossip message one event-size
    /// regardless).
    ///
    /// **Truncation contract for negative digests.** When more than
    /// `limit` entries are outstanding for `pattern`, implementations
    /// must select the *first* `limit` entries in (source, seq) order —
    /// the oldest losses per source — deterministically, never a random
    /// or insertion-ordered subset. Oldest-first matters because caches
    /// evict FIFO: the oldest losses are the ones closest to becoming
    /// unrecoverable, so they go on the wire first. The newer entries
    /// are *deferred*, never hidden: selection charges one attempt to
    /// each selected entry, and entries that exhaust `max_attempts` are
    /// dropped from the buffer, so every over-limit entry surfaces in a
    /// later round once the entries ahead of it are recovered or
    /// abandoned (pinned by a regression test in this module).
    fn build_for_pattern(
        &mut self,
        node: &Dispatcher,
        pattern: PatternId,
        limit: usize,
    ) -> Option<DigestBody>;

    /// Builds the digest for a round steered towards `source`, or
    /// `None` to skip the round.
    fn build_for_source(&mut self, source: NodeId, limit: usize) -> Option<DigestBody> {
        let _ = (source, limit);
        None
    }

    /// Builds a digest unconstrained by pattern or source (random
    /// steering), or `None` to skip the round.
    fn build_any(&mut self, limit: usize) -> Option<DigestBody>;

    /// `true` when a round could produce a digest at all. Guards the
    /// coin flips of [`MuxSteering`] and [`RandomSteering`] so a
    /// workless round consumes no RNG draws.
    fn has_work(&self, node: &Dispatcher) -> bool;

    /// Absorbs a digest received from `gossiper`. Returns `None` when
    /// the body kind is foreign to this policy (mixed deployments drop
    /// it, forwarding nothing).
    fn absorb(
        &mut self,
        node: &Dispatcher,
        gossiper: NodeId,
        pattern: Option<PatternId>,
        body: DigestBody,
    ) -> Option<Absorbed>;

    /// The dispatcher's loss detector found gaps.
    fn on_losses(&mut self, losses: &[LossRecord]) {
        let _ = losses;
    }

    /// An event arrived (on the tree or via recovery).
    fn on_event_received(&mut self, event: &Event) {
        let _ = event;
    }

    /// An out-of-band request arrived (push's activity signal for
    /// adaptive gossip).
    fn note_request(&mut self) {}

    /// An out-of-band [`crate::Envelope::RangeRequest`] arrived: `from`
    /// asks this gossiper to refine `ranges` of `pattern`'s summary in
    /// its next round. Only summary digests react; everything else
    /// ignores it.
    fn on_range_request(&mut self, from: NodeId, pattern: PatternId, ranges: &[RangeRef]) {
        let _ = (from, pattern, ranges);
    }

    /// Outstanding `Lost` entries (0 without a `Lost` buffer).
    fn outstanding_losses(&self) -> usize {
        0
    }

    /// `Lost` entries evicted by the FIFO capacity bound.
    fn lost_evictions(&self) -> u64 {
        0
    }

    /// `true` when the policy sees no evidence of recovery work (the
    /// adaptive-gossip back-off signal).
    fn is_idle(&self) -> bool {
        self.outstanding_losses() == 0
    }
}

/// The steering stage: decides where a round's digest travels and how
/// received digests keep travelling.
pub trait SteeringPolicy: fmt::Debug + Send {
    /// Starts one gossip round over `digest`.
    fn round(
        &mut self,
        digest: &mut dyn DigestPolicy,
        node: &Dispatcher,
        neighbors: &[NodeId],
        config: &GossipConfig,
        rng: &mut Rng,
    ) -> Vec<GossipAction>;

    /// Handles an incoming gossip message, or returns `None` when the
    /// wire form is not one this steering produces (a mux then offers
    /// it to its other branch; the engine drops it).
    #[allow(clippy::too_many_arguments)]
    fn on_gossip(
        &mut self,
        digest: &mut dyn DigestPolicy,
        node: &Dispatcher,
        from: NodeId,
        msg: GossipMessage,
        neighbors: &[NodeId],
        config: &GossipConfig,
        rng: &mut Rng,
    ) -> Option<Vec<GossipAction>>;
}

// ---------------------------------------------------------------------------
// Forwarding helpers shared by the steering policies.
// ---------------------------------------------------------------------------

/// The neighbors a pattern-labelled gossip message is forwarded to:
/// the neighbors subscribed to `pattern` (excluding the arrival
/// interface), each kept with probability `p_forward` — the paper's
/// "random subset of the neighbors subscribed to p".
///
/// If every coin flip comes up empty while candidates exist, one
/// random candidate is used instead: `P_forward` prunes *fan-out* to
/// limit overhead, but a digest on a single-path route would otherwise
/// die off as `P_forward^hops` and never reach a subscriber more than
/// a couple of hops away. (The paper does not report its `P_forward`
/// value or the exact subset rule; this interpretation reproduces its
/// delivery curves.)
pub(crate) fn pattern_forward_targets(
    node: &Dispatcher,
    pattern: PatternId,
    from: Option<NodeId>,
    p_forward: f64,
    rng: &mut Rng,
) -> Vec<NodeId> {
    let candidates = node.table().neighbors_for(pattern, from);
    if candidates.is_empty() {
        return candidates;
    }
    let picked: Vec<NodeId> = candidates
        .iter()
        .copied()
        .filter(|_| p_forward >= 1.0 || rng.random_bool(p_forward))
        .collect();
    if picked.is_empty() {
        vec![candidates[rng.random_range(0..candidates.len())]]
    } else {
        picked
    }
}

/// Random forwarding ignores subscription tables entirely: every
/// neighbor except the arrival interface is kept with probability
/// `p_forward`; if the coin flips all come up empty, one random
/// neighbor is used so a round is never silently wasted.
fn random_forward_targets(
    neighbors: &[NodeId],
    from: Option<NodeId>,
    p_forward: f64,
    rng: &mut Rng,
) -> Vec<NodeId> {
    let candidates: Vec<NodeId> = neighbors
        .iter()
        .copied()
        .filter(|&n| Some(n) != from)
        .collect();
    if candidates.is_empty() {
        return Vec::new();
    }
    let picked: Vec<NodeId> = candidates
        .iter()
        .copied()
        .filter(|_| p_forward >= 1.0 || rng.random_bool(p_forward))
        .collect();
    if picked.is_empty() {
        vec![candidates[rng.random_range(0..candidates.len())]]
    } else {
        picked
    }
}

/// Splits a negative digest into the events this dispatcher can serve
/// from its cache and the remainder it cannot.
pub(crate) fn serve_from_cache(
    node: &Dispatcher,
    lost: &[LossRecord],
) -> (Vec<Event>, Vec<LossRecord>) {
    let mut found = Vec::new();
    let mut remainder = Vec::new();
    for &record in lost {
        match node
            .cache()
            .get_by_pattern_seq(record.source, record.pattern, record.seq)
        {
            Some(event) => found.push(event.clone()),
            None => remainder.push(record),
        }
    }
    // One event can cover several records (it matches several
    // patterns); do not send duplicates.
    found.sort_by_key(|e| e.id());
    found.dedup_by_key(|e| e.id());
    (found, remainder)
}

/// The proactive digests' pattern draw (paper: "p is selected by
/// considering the whole subscription table"): uniform over every
/// pattern the table knows, through its known-pattern index instead of
/// a per-round copy of all of them.
pub(crate) fn draw_known_pattern(node: &Dispatcher, rng: &mut Rng) -> Option<PatternId> {
    let table = node.table();
    if table.is_empty() {
        return None;
    }
    let k = rng.random_below(table.len() as u64) as usize;
    let pattern = table.nth_known(k);
    debug_assert_eq!(pattern, table.all_patterns().nth(k), "index vs scan");
    pattern
}

// ---------------------------------------------------------------------------
// Digest policies.
// ---------------------------------------------------------------------------

/// The positive digest of push gossip (paper, Section III-B, "Push"):
/// a round announces "all the cached events matching p" for a pattern
/// drawn from the *whole* subscription table (not only local
/// subscriptions — being on the route towards a subscriber is enough,
/// which speeds up convergence). A subscriber receiving the digest
/// requests the missing events from the gossiper out-of-band.
#[derive(Clone, Debug, Default)]
pub struct PositiveDigest {
    /// Membership checks only — never iterated, so the set's
    /// arbitrary ordering can't leak into any output.
    requested: IdSet<EventId>,
    requests_since_round: u64,
    idle_rounds: u32,
}

impl PositiveDigest {
    /// Creates a positive-digest policy.
    pub fn new() -> Self {
        PositiveDigest::default()
    }
}

impl DigestPolicy for PositiveDigest {
    fn begin_round(&mut self) {
        if self.requests_since_round > 0 {
            self.idle_rounds = 0;
        } else {
            self.idle_rounds = self.idle_rounds.saturating_add(1);
        }
        self.requests_since_round = 0;
    }

    fn draw_pattern(&mut self, node: &Dispatcher, rng: &mut Rng) -> Option<PatternId> {
        draw_known_pattern(node, rng)
    }

    fn build_for_pattern(
        &mut self,
        node: &Dispatcher,
        pattern: PatternId,
        _limit: usize,
    ) -> Option<DigestBody> {
        let ids = node.cache().ids_matching(pattern);
        if ids.is_empty() {
            // Nothing to announce for this pattern: an empty digest
            // would be pure overhead.
            return None;
        }
        Some(DigestBody::Positive(Arc::new(ids)))
    }

    fn build_any(&mut self, _limit: usize) -> Option<DigestBody> {
        // Positive digests are always pattern-labelled; there is no
        // meaningful "any" digest to hand to random steering.
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
        let DigestBody::Positive(ids) = body else {
            return None; // Negative digests are foreign to pure push.
        };
        let mut actions = Vec::new();
        // Subscribed? Compare the digest with what we have seen,
        // skipping ids already requested (a previous reply may still
        // be in flight).
        let subscribed = pattern.is_some_and(|p| node.table().has_local(p));
        if gossiper != node.id() && subscribed {
            let missing: Vec<EventId> = ids
                .iter()
                .copied()
                .filter(|&id| !node.has_seen(id) && !self.requested.contains(&id))
                .collect();
            if !missing.is_empty() {
                self.requested.extend(missing.iter().copied());
                actions.push(GossipAction::Request {
                    to: gossiper,
                    ids: missing,
                });
            }
        }
        // A positive digest keeps propagating unchanged.
        Some(Absorbed {
            actions,
            remainder: Some(DigestBody::Positive(ids)),
        })
    }

    fn on_event_received(&mut self, event: &Event) {
        // The event arrived (via the tree or a reply): stop tracking
        // its id so the set stays bounded by the in-flight requests.
        self.requested.remove(&event.id());
    }

    fn note_request(&mut self) {
        // Someone is missing events: evidence that proactive rounds
        // are earning their keep (adaptive-gossip activity signal).
        self.requests_since_round += 1;
    }

    fn is_idle(&self) -> bool {
        // A single request-free interval is common noise (requests
        // only come back when *this* node's digest found a gap at a
        // subscriber); require a streak before slowing down.
        self.idle_rounds >= 3 && self.requests_since_round == 0
    }
}

/// The negative digest of the pull strategies: losses detected from
/// the per-(source, pattern) sequence numbers accumulate in the
/// [`LostBuffer`]; a round packs outstanding entries into a digest,
/// and dispatchers along the way serve what their caches hold.
#[derive(Clone, Debug)]
pub struct NegativeDigest {
    lost: LostBuffer,
}

impl NegativeDigest {
    /// Creates a negative-digest policy with the `Lost` buffer sized
    /// by `config` (`max_attempts` expiry, FIFO capacity bound).
    pub fn new(config: &GossipConfig) -> Self {
        NegativeDigest {
            lost: LostBuffer::with_capacity(config.max_attempts, config.resolved_lost_capacity()),
        }
    }

    /// Read access to the `Lost` buffer (for tests and metrics).
    pub fn lost(&self) -> &LostBuffer {
        &self.lost
    }
}

impl DigestPolicy for NegativeDigest {
    fn draw_pattern(&mut self, _node: &Dispatcher, rng: &mut Rng) -> Option<PatternId> {
        let mut patterns = self.lost.patterns();
        let n = patterns.len();
        if n == 0 {
            return None;
        }
        patterns.nth(rng.random_below(n as u64) as usize)
    }

    fn draw_source(&mut self, node: &Dispatcher, rng: &mut Rng) -> Option<NodeId> {
        // Only sources we know a route back to are actionable.
        let routable = || {
            self.lost
                .sources()
                .filter(|&s| node.routes().route_from(s).is_some())
        };
        let n = routable().count();
        if n == 0 {
            return None;
        }
        routable().nth(rng.random_below(n as u64) as usize)
    }

    fn build_for_pattern(
        &mut self,
        _node: &Dispatcher,
        pattern: PatternId,
        limit: usize,
    ) -> Option<DigestBody> {
        let entries = self.lost.for_pattern(pattern, limit);
        if entries.is_empty() {
            return None;
        }
        Some(DigestBody::Negative(entries))
    }

    fn build_for_source(&mut self, source: NodeId, limit: usize) -> Option<DigestBody> {
        let entries = self.lost.for_source(source, limit);
        if entries.is_empty() {
            return None;
        }
        Some(DigestBody::Negative(entries))
    }

    fn build_any(&mut self, limit: usize) -> Option<DigestBody> {
        let entries = self.lost.any(limit);
        if entries.is_empty() {
            return None;
        }
        Some(DigestBody::Negative(entries))
    }

    fn has_work(&self, _node: &Dispatcher) -> bool {
        !self.lost.is_empty()
    }

    fn absorb(
        &mut self,
        node: &Dispatcher,
        gossiper: NodeId,
        _pattern: Option<PatternId>,
        body: DigestBody,
    ) -> Option<Absorbed> {
        let DigestBody::Negative(lost) = body else {
            return None; // Positive digests are foreign to pure pull.
        };
        let (found, remainder) = serve_from_cache(node, &lost);
        let mut actions = Vec::new();
        if !found.is_empty() {
            actions.push(GossipAction::Reply {
                to: gossiper,
                events: found,
            });
        }
        // A dispatcher holding everything "short-circuits" the
        // propagation.
        let remainder = if remainder.is_empty() {
            None
        } else {
            Some(DigestBody::Negative(remainder))
        };
        Some(Absorbed { actions, remainder })
    }

    fn on_losses(&mut self, losses: &[LossRecord]) {
        for &record in losses {
            self.lost.add(record);
        }
    }

    fn on_event_received(&mut self, event: &Event) {
        self.lost.clear_for_event(event);
    }

    fn outstanding_losses(&self) -> usize {
        self.lost.len()
    }

    fn lost_evictions(&self) -> u64 {
        self.lost.evicted_total()
    }
}

/// A hybrid digest policy: proactive positive digests and reactive
/// negative digests in alternating rounds. Even rounds announce cached
/// events like push; odd rounds chase `Lost` entries like pull (and
/// skip silently when nothing is missing, exactly as pull rounds do).
/// Received digests of either kind are absorbed by the matching half,
/// independent of the current phase.
///
/// Registered as `push-pull` — a pure composition: no new wire
/// variants, no new algorithm struct, just this combinator paired with
/// [`PatternSteering`].
#[derive(Clone, Debug)]
pub struct AlternatingDigest {
    positive: PositiveDigest,
    negative: NegativeDigest,
    round: u64,
    positive_phase: bool,
}

impl AlternatingDigest {
    /// Creates an alternating push/pull digest policy.
    pub fn new(config: &GossipConfig) -> Self {
        AlternatingDigest {
            positive: PositiveDigest::new(),
            negative: NegativeDigest::new(config),
            round: 0,
            positive_phase: true,
        }
    }

    /// `true` while the current round gossips a positive digest.
    pub fn in_positive_phase(&self) -> bool {
        self.positive_phase
    }
}

impl DigestPolicy for AlternatingDigest {
    fn begin_round(&mut self) {
        self.positive_phase = self.round.is_multiple_of(2);
        self.round += 1;
        if self.positive_phase {
            // The idle streak of the push half counts *its* rounds.
            self.positive.begin_round();
        }
    }

    fn draw_pattern(&mut self, node: &Dispatcher, rng: &mut Rng) -> Option<PatternId> {
        if self.positive_phase {
            self.positive.draw_pattern(node, rng)
        } else {
            self.negative.draw_pattern(node, rng)
        }
    }

    fn draw_source(&mut self, node: &Dispatcher, rng: &mut Rng) -> Option<NodeId> {
        if self.positive_phase {
            self.positive.draw_source(node, rng)
        } else {
            self.negative.draw_source(node, rng)
        }
    }

    fn build_for_pattern(
        &mut self,
        node: &Dispatcher,
        pattern: PatternId,
        limit: usize,
    ) -> Option<DigestBody> {
        if self.positive_phase {
            self.positive.build_for_pattern(node, pattern, limit)
        } else {
            self.negative.build_for_pattern(node, pattern, limit)
        }
    }

    fn build_for_source(&mut self, source: NodeId, limit: usize) -> Option<DigestBody> {
        if self.positive_phase {
            self.positive.build_for_source(source, limit)
        } else {
            self.negative.build_for_source(source, limit)
        }
    }

    fn build_any(&mut self, limit: usize) -> Option<DigestBody> {
        if self.positive_phase {
            self.positive.build_any(limit)
        } else {
            self.negative.build_any(limit)
        }
    }

    fn has_work(&self, node: &Dispatcher) -> bool {
        if self.positive_phase {
            self.positive.has_work(node)
        } else {
            self.negative.has_work(node)
        }
    }

    fn absorb(
        &mut self,
        node: &Dispatcher,
        gossiper: NodeId,
        pattern: Option<PatternId>,
        body: DigestBody,
    ) -> Option<Absorbed> {
        // Reactive handling dispatches on the *body*, not the phase:
        // a pull digest arriving during a push phase is still served.
        match body {
            DigestBody::Positive(_) => self.positive.absorb(node, gossiper, pattern, body),
            DigestBody::Negative(_) => self.negative.absorb(node, gossiper, pattern, body),
            // Summary bodies belong to the summary family only.
            DigestBody::Summary { .. } => None,
        }
    }

    fn on_losses(&mut self, losses: &[LossRecord]) {
        self.negative.on_losses(losses);
    }

    fn on_event_received(&mut self, event: &Event) {
        self.positive.on_event_received(event);
        self.negative.on_event_received(event);
    }

    fn note_request(&mut self) {
        self.positive.note_request();
    }

    fn outstanding_losses(&self) -> usize {
        self.negative.outstanding_losses()
    }

    fn lost_evictions(&self) -> u64 {
        self.negative.lost_evictions()
    }

    fn is_idle(&self) -> bool {
        self.positive.is_idle() && self.negative.is_idle()
    }
}

// ---------------------------------------------------------------------------
// Steering policies.
// ---------------------------------------------------------------------------

/// Pattern steering: a round draws a pattern from the digest policy's
/// candidates, and the digest travels along the dispatching tree as if
/// it were an event matching that pattern, except that each hop
/// forwards it only to a random subset of the matching neighbors
/// (`P_forward`). Used by push, subscriber-pull, and the hybrid.
#[derive(Clone, Copy, Debug, Default)]
pub struct PatternSteering;

impl SteeringPolicy for PatternSteering {
    fn round(
        &mut self,
        digest: &mut dyn DigestPolicy,
        node: &Dispatcher,
        _neighbors: &[NodeId],
        config: &GossipConfig,
        rng: &mut Rng,
    ) -> Vec<GossipAction> {
        let Some(pattern) = digest.draw_pattern(node, rng) else {
            return Vec::new(); // Nothing to gossip about: skip the round.
        };
        let Some(body) = digest.build_for_pattern(node, pattern, config.digest_max) else {
            return Vec::new();
        };
        let msg = body.into_pattern_message(node.id(), pattern);
        pattern_forward_targets(node, pattern, None, config.p_forward, rng)
            .into_iter()
            .map(|to| GossipAction::Forward {
                to,
                msg: msg.clone(),
            })
            .collect()
    }

    fn on_gossip(
        &mut self,
        digest: &mut dyn DigestPolicy,
        node: &Dispatcher,
        from: NodeId,
        msg: GossipMessage,
        _neighbors: &[NodeId],
        config: &GossipConfig,
        rng: &mut Rng,
    ) -> Option<Vec<GossipAction>> {
        let (gossiper, pattern, body) = match msg {
            GossipMessage::PushDigest {
                gossiper,
                pattern,
                ids,
            } => (gossiper, pattern, DigestBody::Positive(ids)),
            GossipMessage::PullDigest {
                gossiper,
                pattern,
                lost,
            } => (gossiper, pattern, DigestBody::Negative(lost)),
            GossipMessage::SummaryDigest {
                gossiper,
                pattern,
                ranges,
                details,
            } => (gossiper, pattern, DigestBody::Summary { ranges, details }),
            _ => return None,
        };
        let Some(absorbed) = digest.absorb(node, gossiper, Some(pattern), body) else {
            return Some(Vec::new()); // Foreign digest kind: drop it.
        };
        let mut actions = absorbed.actions;
        if let Some(body) = absorbed.remainder {
            // Keep propagating along the pattern's routes.
            let fwd = body.into_pattern_message(gossiper, pattern);
            for to in pattern_forward_targets(node, pattern, Some(from), config.p_forward, rng) {
                actions.push(GossipAction::Forward {
                    to,
                    msg: fwd.clone(),
                });
            }
        }
        Some(actions)
    }
}

/// Source steering (paper, Section III-B, publisher-based pull): a
/// round draws a source from the digest policy's candidates — only
/// sources with a known reverse route are actionable — and the digest
/// travels back towards that publisher along the reverse of the most
/// recently recorded route. The route may be stale after a
/// reconfiguration — the two paths "share at least the first portion
/// or, in the worst case, the publisher" — so intermediate caches
/// often short-circuit the recovery.
#[derive(Clone, Copy, Debug, Default)]
pub struct SourceSteering;

impl SteeringPolicy for SourceSteering {
    fn round(
        &mut self,
        digest: &mut dyn DigestPolicy,
        node: &Dispatcher,
        _neighbors: &[NodeId],
        config: &GossipConfig,
        rng: &mut Rng,
    ) -> Vec<GossipAction> {
        let Some(source) = digest.draw_source(node, rng) else {
            return Vec::new();
        };
        let Some(DigestBody::Negative(entries)) =
            digest.build_for_source(source, config.digest_max)
        else {
            return Vec::new(); // Source steering carries negative digests only.
        };
        let route = node
            .routes()
            .route_to(source)
            .expect("a source is only drawn with a known route");
        let (next, rest) = route
            .split_first()
            .expect("route_to never returns an empty route");
        vec![GossipAction::Forward {
            to: *next,
            msg: GossipMessage::SourcePull {
                gossiper: node.id(),
                source,
                lost: entries,
                route: rest.to_vec(),
            },
        }]
    }

    fn on_gossip(
        &mut self,
        digest: &mut dyn DigestPolicy,
        node: &Dispatcher,
        _from: NodeId,
        msg: GossipMessage,
        _neighbors: &[NodeId],
        _config: &GossipConfig,
        _rng: &mut Rng,
    ) -> Option<Vec<GossipAction>> {
        let GossipMessage::SourcePull {
            gossiper,
            source,
            lost,
            route,
        } = msg
        else {
            return None;
        };
        let Some(absorbed) = digest.absorb(node, gossiper, None, DigestBody::Negative(lost)) else {
            return Some(Vec::new());
        };
        let mut actions = absorbed.actions;
        if let Some(DigestBody::Negative(remainder)) = absorbed.remainder {
            // Pass the remainder one hop further along the recorded
            // route. The route may be stale — if the next hop is no
            // longer a neighbor the harness drops the message, exactly
            // as a real unicast would fail.
            if let Some((next, rest)) = route.split_first() {
                actions.push(GossipAction::Forward {
                    to: *next,
                    msg: GossipMessage::SourcePull {
                        gossiper,
                        source,
                        lost: remainder,
                        route: rest.to_vec(),
                    },
                });
            }
        }
        Some(actions)
    }
}

/// Random steering (paper, Section IV): the digest is handed to a
/// random subset of neighbors with a hop budget, no routing
/// intelligence — the paper's "is directed routing worth the effort?"
/// comparator.
#[derive(Clone, Copy, Debug, Default)]
pub struct RandomSteering;

impl SteeringPolicy for RandomSteering {
    fn round(
        &mut self,
        digest: &mut dyn DigestPolicy,
        node: &Dispatcher,
        neighbors: &[NodeId],
        config: &GossipConfig,
        rng: &mut Rng,
    ) -> Vec<GossipAction> {
        if !digest.has_work(node) || neighbors.is_empty() {
            return Vec::new();
        }
        let Some(DigestBody::Negative(entries)) = digest.build_any(config.digest_max) else {
            return Vec::new(); // Random steering carries negative digests only.
        };
        let msg = GossipMessage::RandomPull {
            gossiper: node.id(),
            lost: entries,
            ttl: config.random_ttl,
        };
        random_forward_targets(neighbors, None, config.p_forward, rng)
            .into_iter()
            .map(|to| GossipAction::Forward {
                to,
                msg: msg.clone(),
            })
            .collect()
    }

    fn on_gossip(
        &mut self,
        digest: &mut dyn DigestPolicy,
        node: &Dispatcher,
        from: NodeId,
        msg: GossipMessage,
        neighbors: &[NodeId],
        config: &GossipConfig,
        rng: &mut Rng,
    ) -> Option<Vec<GossipAction>> {
        let GossipMessage::RandomPull {
            gossiper,
            lost,
            ttl,
        } = msg
        else {
            return None;
        };
        let Some(absorbed) = digest.absorb(node, gossiper, None, DigestBody::Negative(lost)) else {
            return Some(Vec::new());
        };
        let mut actions = absorbed.actions;
        if let Some(DigestBody::Negative(remainder)) = absorbed.remainder {
            // Forward the unserved remainder to random neighbors while
            // the hop budget lasts.
            if ttl > 1 {
                let msg = GossipMessage::RandomPull {
                    gossiper,
                    lost: remainder,
                    ttl: ttl - 1,
                };
                for to in random_forward_targets(neighbors, Some(from), config.p_forward, rng) {
                    actions.push(GossipAction::Forward {
                        to,
                        msg: msg.clone(),
                    });
                }
            }
        }
        Some(actions)
    }
}

/// A probabilistic mux of two steerings: each round a biased coin
/// (`P_source`) picks the primary, falling back to the secondary when
/// the primary produces nothing (e.g. no route known towards any
/// missing source) rather than wasting the round. Incoming messages
/// are offered to the primary first.
///
/// `Mux(Source, Pattern)` over a [`NegativeDigest`] *is* the paper's
/// combined pull: the two pull variants complement each other — with
/// few subscribers per pattern the subscriber-based variant has nobody
/// to gossip with, while with many the publisher-based one involves
/// too small a fraction of dispatchers — and "perform best when
/// combined".
#[derive(Debug)]
pub struct MuxSteering<P, S> {
    primary: P,
    secondary: S,
    primary_rounds: u64,
    secondary_rounds: u64,
}

impl<P: SteeringPolicy, S: SteeringPolicy> MuxSteering<P, S> {
    /// Creates a mux; per round, `primary` is used with probability
    /// `P_source` (from the [`GossipConfig`] the engine passes in).
    pub fn new(primary: P, secondary: S) -> Self {
        MuxSteering {
            primary,
            secondary,
            primary_rounds: 0,
            secondary_rounds: 0,
        }
    }

    /// Rounds that used the primary steering.
    pub fn primary_rounds(&self) -> u64 {
        self.primary_rounds
    }

    /// Rounds that used the secondary steering (including fallbacks).
    pub fn secondary_rounds(&self) -> u64 {
        self.secondary_rounds
    }
}

impl<P: SteeringPolicy, S: SteeringPolicy> SteeringPolicy for MuxSteering<P, S> {
    fn round(
        &mut self,
        digest: &mut dyn DigestPolicy,
        node: &Dispatcher,
        neighbors: &[NodeId],
        config: &GossipConfig,
        rng: &mut Rng,
    ) -> Vec<GossipAction> {
        if !digest.has_work(node) {
            // No work: skip without consuming the coin draw.
            return Vec::new();
        }
        if rng.random_bool(config.p_source) {
            self.primary_rounds += 1;
            let actions = self.primary.round(digest, node, neighbors, config, rng);
            if !actions.is_empty() {
                return actions;
            }
            // The primary found nothing actionable: fall back to the
            // secondary rather than wasting the round.
            self.secondary_rounds += 1;
            self.secondary.round(digest, node, neighbors, config, rng)
        } else {
            self.secondary_rounds += 1;
            self.secondary.round(digest, node, neighbors, config, rng)
        }
    }

    fn on_gossip(
        &mut self,
        digest: &mut dyn DigestPolicy,
        node: &Dispatcher,
        from: NodeId,
        msg: GossipMessage,
        neighbors: &[NodeId],
        config: &GossipConfig,
        rng: &mut Rng,
    ) -> Option<Vec<GossipAction>> {
        // Wire forms are disjoint between steerings; offer the message
        // to the primary first, then the secondary.
        match self
            .primary
            .on_gossip(digest, node, from, msg.clone(), neighbors, config, rng)
        {
            Some(actions) => Some(actions),
            None => self
                .secondary
                .on_gossip(digest, node, from, msg, neighbors, config, rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eps_pubsub::DispatcherConfig;
    use eps_sim::RngFactory;

    fn cfg() -> GossipConfig {
        GossipConfig {
            p_forward: 1.0,
            ..GossipConfig::default()
        }
    }

    fn record(source: u32, pattern: u16, seq: u64) -> LossRecord {
        LossRecord {
            source: NodeId::new(source),
            pattern: PatternId::new(pattern),
            seq,
        }
    }

    fn node_with_cached_event() -> (Dispatcher, Event) {
        let mut d = Dispatcher::new(NodeId::new(1), DispatcherConfig::default());
        d.subscribe_local(PatternId::new(1), &[]);
        let e = Event::new(
            EventId::new(NodeId::new(0), 0),
            vec![(PatternId::new(1), 4)],
        );
        d.on_event(e.clone(), Some(NodeId::new(0)));
        (d, e)
    }

    #[test]
    fn serve_from_cache_splits_found_and_missing() {
        let (d, e) = node_with_cached_event();
        let hit = record(0, 1, 4);
        let miss = record(0, 1, 7);
        let (found, remainder) = serve_from_cache(&d, &[hit, miss]);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].id(), e.id());
        assert_eq!(remainder, vec![miss]);
    }

    #[test]
    fn serve_from_cache_dedups_multi_pattern_events() {
        let mut d = Dispatcher::new(NodeId::new(1), DispatcherConfig::default());
        d.subscribe_local(PatternId::new(1), &[]);
        let e = Event::new(
            EventId::new(NodeId::new(0), 0),
            vec![(PatternId::new(1), 0), (PatternId::new(2), 0)],
        );
        d.on_event(e, Some(NodeId::new(0)));
        let records = [record(0, 1, 0), record(0, 2, 0)];
        let (found, remainder) = serve_from_cache(&d, &records);
        assert_eq!(found.len(), 1, "same event must be sent once");
        assert!(remainder.is_empty());
    }

    #[test]
    fn pattern_targets_respect_probability_extremes() {
        let mut d = Dispatcher::new(NodeId::new(0), DispatcherConfig::default());
        let p = PatternId::new(1);
        d.on_subscribe(p, NodeId::new(1), &[]);
        d.on_subscribe(p, NodeId::new(2), &[]);
        let mut rng = RngFactory::new(1).stream("gossip");
        let all = pattern_forward_targets(&d, p, None, 1.0, &mut rng);
        assert_eq!(all.len(), 2);
        // Even at p_forward = 0 a digest keeps moving along one route.
        let min_one = pattern_forward_targets(&d, p, None, 0.0, &mut rng);
        assert_eq!(min_one.len(), 1);
        let excl = pattern_forward_targets(&d, p, Some(NodeId::new(1)), 1.0, &mut rng);
        assert_eq!(excl, vec![NodeId::new(2)]);
        // No candidates -> no targets, guarantee-one does not invent.
        let q = PatternId::new(9);
        assert!(pattern_forward_targets(&d, q, None, 1.0, &mut rng).is_empty());
    }

    #[test]
    fn random_targets_never_include_sender_and_never_empty() {
        let mut rng = RngFactory::new(2).stream("gossip");
        let nbrs = [NodeId::new(1), NodeId::new(2), NodeId::new(3)];
        for _ in 0..100 {
            let t = random_forward_targets(&nbrs, Some(NodeId::new(2)), 0.3, &mut rng);
            assert!(!t.is_empty());
            assert!(!t.contains(&NodeId::new(2)));
        }
    }

    // -- DigestPolicy units -------------------------------------------------

    #[test]
    fn positive_digest_announces_cache_and_requests_missing() {
        let mut node = Dispatcher::new(NodeId::new(0), DispatcherConfig::default());
        let p = PatternId::new(1);
        node.subscribe_local(p, &[]);
        let (event, _) = node.publish(&[p]);
        let mut digest = PositiveDigest::new();
        let mut rng = RngFactory::new(1).stream("gossip");
        assert_eq!(digest.draw_pattern(&node, &mut rng), Some(p));
        match digest.build_for_pattern(&node, p, 128) {
            Some(DigestBody::Positive(ids)) => assert_eq!(*ids, vec![event.id()]),
            other => panic!("unexpected {other:?}"),
        }
        // Absorbing a digest with an unseen id produces a request.
        let foreign = Arc::new(vec![EventId::new(NodeId::new(7), 3)]);
        let absorbed = digest
            .absorb(
                &node,
                NodeId::new(5),
                Some(p),
                DigestBody::Positive(foreign),
            )
            .expect("positive body is native");
        assert!(matches!(
            absorbed.actions[0],
            GossipAction::Request { to, .. } if to == NodeId::new(5)
        ));
        assert!(
            matches!(absorbed.remainder, Some(DigestBody::Positive(_))),
            "positive digests keep propagating unchanged"
        );
        // The same id is not requested twice while in flight.
        let again = Arc::new(vec![EventId::new(NodeId::new(7), 3)]);
        let absorbed = digest
            .absorb(&node, NodeId::new(5), Some(p), DigestBody::Positive(again))
            .unwrap();
        assert!(absorbed.actions.is_empty());
        // Negative bodies are foreign.
        assert!(digest
            .absorb(
                &node,
                NodeId::new(5),
                Some(p),
                DigestBody::Negative(vec![record(0, 1, 0)])
            )
            .is_none());
    }

    #[test]
    fn positive_digest_idle_streak_requires_three_quiet_rounds() {
        let mut digest = PositiveDigest::new();
        assert!(!digest.is_idle());
        for _ in 0..3 {
            digest.begin_round();
        }
        assert!(digest.is_idle());
        digest.note_request();
        assert!(!digest.is_idle());
        digest.begin_round();
        assert!(!digest.is_idle(), "a request resets the streak");
    }

    #[test]
    fn negative_digest_tracks_and_serves_losses() {
        let (node, _) = node_with_cached_event();
        let mut digest = NegativeDigest::new(&cfg());
        digest.on_losses(&[record(0, 1, 7), record(2, 3, 1)]);
        assert_eq!(digest.outstanding_losses(), 2);
        assert_eq!(digest.lost().patterns().len(), 2);
        assert_eq!(digest.lost().sources().len(), 2);
        match digest.build_for_source(NodeId::new(2), 128) {
            Some(DigestBody::Negative(entries)) => assert_eq!(entries, vec![record(2, 3, 1)]),
            other => panic!("unexpected {other:?}"),
        }
        // Absorbing a negative digest serves the cache and shrinks the
        // remainder.
        let absorbed = digest
            .absorb(
                &node,
                NodeId::new(9),
                None,
                DigestBody::Negative(vec![record(0, 1, 4), record(0, 1, 9)]),
            )
            .expect("negative body is native");
        assert!(matches!(absorbed.actions[0], GossipAction::Reply { .. }));
        match absorbed.remainder {
            Some(DigestBody::Negative(rest)) => assert_eq!(rest, vec![record(0, 1, 9)]),
            other => panic!("unexpected {other:?}"),
        }
        // Fully served digests short-circuit.
        let absorbed = digest
            .absorb(
                &node,
                NodeId::new(9),
                None,
                DigestBody::Negative(vec![record(0, 1, 4)]),
            )
            .unwrap();
        assert!(absorbed.remainder.is_none());
        // Positive bodies are foreign.
        assert!(digest
            .absorb(
                &node,
                NodeId::new(9),
                None,
                DigestBody::Positive(Arc::new(vec![]))
            )
            .is_none());
    }

    #[test]
    fn negative_digest_truncates_oldest_first_and_never_starves_newest() {
        // The truncation contract documented on
        // `DigestPolicy::build_for_pattern`: over-limit digests carry
        // the oldest (lowest (source, seq)) entries, and every deferred
        // newer entry still reaches the wire in a later round.
        let config = GossipConfig {
            max_attempts: 2,
            ..cfg()
        };
        let node = Dispatcher::new(NodeId::new(1), DispatcherConfig::default());
        let mut digest = NegativeDigest::new(&config);
        let p = PatternId::new(1);
        for seq in 0..10 {
            digest.on_losses(&[record(0, 1, seq)]);
        }
        match digest.build_for_pattern(&node, p, 4) {
            Some(DigestBody::Negative(entries)) => {
                let oldest: Vec<LossRecord> = (0..4).map(|s| record(0, 1, s)).collect();
                assert_eq!(entries, oldest, "truncation must keep the oldest first");
            }
            other => panic!("unexpected {other:?}"),
        }
        // Keep gossiping without any recovery: attempts expire the
        // entries at the front of the order, and every newer entry —
        // including the newest — surfaces before the buffer drains.
        let mut seen_on_wire: Vec<u64> = vec![];
        for _ in 0..20 {
            if let Some(DigestBody::Negative(entries)) = digest.build_for_pattern(&node, p, 4) {
                seen_on_wire.extend(entries.iter().map(|r| r.seq));
            }
            if digest.outstanding_losses() == 0 {
                break;
            }
        }
        assert_eq!(digest.outstanding_losses(), 0);
        for seq in 0..10 {
            assert!(
                seen_on_wire.contains(&seq),
                "deferred entry seq {seq} never reached the wire: {seen_on_wire:?}"
            );
        }
    }

    #[test]
    fn alternating_digest_flips_phase_each_round() {
        let mut node = Dispatcher::new(NodeId::new(0), DispatcherConfig::default());
        let p = PatternId::new(1);
        node.subscribe_local(p, &[]);
        node.publish(&[p]);
        let mut digest = AlternatingDigest::new(&cfg());
        digest.on_losses(&[record(7, 2, 0)]);
        digest.begin_round();
        assert!(digest.in_positive_phase());
        assert!(matches!(
            digest.build_for_pattern(&node, p, 128),
            Some(DigestBody::Positive(_))
        ));
        digest.begin_round();
        assert!(!digest.in_positive_phase());
        let mut rng = RngFactory::new(1).stream("gossip");
        assert_eq!(
            digest.draw_pattern(&node, &mut rng),
            Some(PatternId::new(2))
        );
        assert!(matches!(
            digest.build_for_pattern(&node, PatternId::new(2), 128),
            Some(DigestBody::Negative(_))
        ));
        // Both body kinds are absorbed regardless of phase.
        digest.begin_round(); // back to positive
        assert!(digest
            .absorb(
                &node,
                NodeId::new(9),
                None,
                DigestBody::Negative(vec![record(7, 2, 0)])
            )
            .is_some());
        assert!(digest
            .absorb(
                &node,
                NodeId::new(9),
                Some(p),
                DigestBody::Positive(Arc::new(vec![]))
            )
            .is_some());
    }

    // -- SteeringPolicy units ----------------------------------------------

    #[test]
    fn pattern_steering_skips_round_without_candidates() {
        let node = Dispatcher::new(NodeId::new(0), DispatcherConfig::default());
        let mut digest = NegativeDigest::new(&cfg());
        let mut steering = PatternSteering;
        let mut rng = RngFactory::new(3).stream("gossip");
        assert!(steering
            .round(&mut digest, &node, &[], &cfg(), &mut rng)
            .is_empty());
    }

    #[test]
    fn pattern_steering_routes_negative_digest_to_subscribers() {
        let mut node = Dispatcher::new(NodeId::new(0), DispatcherConfig::default());
        let p = PatternId::new(1);
        node.subscribe_local(p, &[]);
        node.on_subscribe(p, NodeId::new(2), &[]);
        let mut digest = NegativeDigest::new(&cfg());
        digest.on_losses(&[record(7, 1, 0)]);
        let mut steering = PatternSteering;
        let mut rng = RngFactory::new(1).stream("gossip");
        let actions = steering.round(&mut digest, &node, &[], &cfg(), &mut rng);
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            GossipAction::Forward { to, msg } => {
                assert_eq!(*to, NodeId::new(2));
                assert!(matches!(msg, GossipMessage::PullDigest { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn source_steering_follows_reverse_route() {
        let mut node = Dispatcher::new(
            NodeId::new(5),
            DispatcherConfig {
                cache_own_published: true,
                record_routes: true,
                ..DispatcherConfig::default()
            },
        );
        node.subscribe_local(PatternId::new(1), &[]);
        let mut e = Event::new(
            EventId::new(NodeId::new(0), 0),
            vec![(PatternId::new(1), 0)],
        );
        e.record_hop(NodeId::new(3));
        node.on_event(e, Some(NodeId::new(3)));
        let mut digest = NegativeDigest::new(&cfg());
        digest.on_losses(&[record(0, 1, 5)]);
        let mut steering = SourceSteering;
        let mut rng = RngFactory::new(1).stream("gossip");
        let actions = steering.round(&mut digest, &node, &[], &cfg(), &mut rng);
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            GossipAction::Forward { to, msg } => {
                assert_eq!(*to, NodeId::new(3), "first hop back towards the source");
                match msg {
                    GossipMessage::SourcePull { source, route, .. } => {
                        assert_eq!(*source, NodeId::new(0));
                        assert_eq!(route, &vec![NodeId::new(0)]);
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn draws_are_choose_over_the_ascending_candidates() {
        // Each draw must be the single `Rng::choose` draw over the
        // candidate list in ascending order (what the golden files
        // were recorded with), and leave the generator in that state.
        let mut node = Dispatcher::new(
            NodeId::new(5),
            DispatcherConfig {
                record_routes: true,
                ..DispatcherConfig::default()
            },
        );
        for p in [3u16, 70, 9, 64, 200] {
            node.on_subscribe(PatternId::new(p), NodeId::new(1), &[]);
        }
        // Routes back to sources 2 and 6, none to 4.
        for source in [6u32, 2] {
            let mut e = Event::new(
                EventId::new(NodeId::new(source), 0),
                vec![(PatternId::new(3), 0)],
            );
            e.record_hop(NodeId::new(1));
            node.on_event(e, Some(NodeId::new(1)));
        }
        let mut negative = NegativeDigest::new(&cfg());
        negative.on_losses(&[
            record(6, 9, 1),
            record(2, 300, 1),
            record(4, 9, 2),
            record(2, 7, 1),
        ]);
        let known: Vec<PatternId> = node.table().all_patterns().collect();
        let lost = [7u16, 9, 300].map(PatternId::new);
        let routable = [2u32, 6].map(NodeId::new);
        let mut rng = RngFactory::new(4).stream("gossip");
        let mut reference = rng.clone();
        for _ in 0..50 {
            assert_eq!(
                PositiveDigest::new().draw_pattern(&node, &mut rng),
                reference.choose(&known).copied()
            );
            assert_eq!(
                negative.draw_pattern(&node, &mut rng),
                reference.choose(&lost).copied()
            );
            assert_eq!(
                negative.draw_source(&node, &mut rng),
                reference.choose(&routable).copied()
            );
        }
        // No candidates, no draw.
        let empty = Dispatcher::new(NodeId::new(0), DispatcherConfig::default());
        assert_eq!(PositiveDigest::new().draw_pattern(&empty, &mut rng), None);
        assert_eq!(negative.draw_source(&empty, &mut rng), None);
        assert_eq!(rng, reference);
    }

    #[test]
    fn source_steering_skips_unroutable_sources() {
        let node = Dispatcher::new(NodeId::new(5), DispatcherConfig::default());
        let mut digest = NegativeDigest::new(&cfg());
        digest.on_losses(&[record(7, 1, 0)]);
        let mut steering = SourceSteering;
        let mut rng = RngFactory::new(1).stream("gossip");
        assert!(steering
            .round(&mut digest, &node, &[], &cfg(), &mut rng)
            .is_empty());
        // The entry stays outstanding for later (e.g. combined pull).
        assert_eq!(digest.outstanding_losses(), 1);
    }

    #[test]
    fn random_steering_walks_with_ttl_and_skips_without_work() {
        let node = Dispatcher::new(NodeId::new(0), DispatcherConfig::default());
        let mut digest = NegativeDigest::new(&cfg());
        let mut steering = RandomSteering;
        let mut rng = RngFactory::new(1).stream("gossip");
        let nbrs = [NodeId::new(1), NodeId::new(2)];
        assert!(steering
            .round(&mut digest, &node, &nbrs, &cfg(), &mut rng)
            .is_empty());
        digest.on_losses(&[record(1, 1, 0)]);
        assert!(
            steering
                .round(&mut digest, &node, &[], &cfg(), &mut rng)
                .is_empty(),
            "no neighbors, no round"
        );
        let actions = steering.round(&mut digest, &node, &nbrs, &cfg(), &mut rng);
        assert_eq!(actions.len(), 2);
        for action in &actions {
            assert!(matches!(
                action,
                GossipAction::Forward {
                    msg: GossipMessage::RandomPull { ttl, .. },
                    ..
                } if *ttl == cfg().random_ttl
            ));
        }
        // An incoming digest at ttl=1 is served but never forwarded.
        let msg = GossipMessage::RandomPull {
            gossiper: NodeId::new(9),
            lost: vec![record(3, 1, 0)],
            ttl: 1,
        };
        let actions = steering
            .on_gossip(
                &mut digest,
                &node,
                NodeId::new(2),
                msg,
                &nbrs,
                &cfg(),
                &mut rng,
            )
            .expect("random pull is this steering's wire form");
        assert!(actions.is_empty(), "ttl=1 must not forward further");
    }

    #[test]
    fn mux_steering_flips_between_branches() {
        let mut node = Dispatcher::new(
            NodeId::new(5),
            DispatcherConfig {
                cache_own_published: true,
                record_routes: true,
                ..DispatcherConfig::default()
            },
        );
        node.subscribe_local(PatternId::new(1), &[]);
        node.on_subscribe(PatternId::new(1), NodeId::new(3), &[]);
        let mut e = Event::new(
            EventId::new(NodeId::new(0), 0),
            vec![(PatternId::new(1), 0)],
        );
        e.record_hop(NodeId::new(3));
        node.on_event(e, Some(NodeId::new(3)));
        let config = GossipConfig {
            p_forward: 1.0,
            p_source: 0.5,
            max_attempts: u32::MAX,
            ..GossipConfig::default()
        };
        let mut digest = NegativeDigest::new(&config);
        let mut mux = MuxSteering::new(SourceSteering, PatternSteering);
        let mut rng = RngFactory::new(9).stream("gossip");
        let (mut saw_pull, mut saw_source) = (false, false);
        for seq in 0..200u64 {
            digest.on_losses(&[record(0, 1, seq + 1)]);
            for action in mux.round(&mut digest, &node, &[], &config, &mut rng) {
                match action {
                    GossipAction::Forward {
                        msg: GossipMessage::PullDigest { .. },
                        ..
                    } => saw_pull = true,
                    GossipAction::Forward {
                        msg: GossipMessage::SourcePull { .. },
                        ..
                    } => saw_source = true,
                    _ => {}
                }
            }
        }
        assert!(saw_pull, "subscriber variant never used");
        assert!(saw_source, "publisher variant never used");
        assert!(mux.primary_rounds() > 0 && mux.secondary_rounds() > 0);
    }

    #[test]
    fn mux_steering_falls_back_when_primary_is_empty() {
        // Node with a subscription but no route knowledge.
        let mut node = Dispatcher::new(NodeId::new(5), DispatcherConfig::default());
        node.subscribe_local(PatternId::new(1), &[]);
        node.on_subscribe(PatternId::new(1), NodeId::new(3), &[]);
        let config = GossipConfig {
            p_forward: 1.0,
            p_source: 1.0, // always tries the primary first
            ..GossipConfig::default()
        };
        let mut digest = NegativeDigest::new(&config);
        digest.on_losses(&[record(0, 1, 5)]);
        let mut mux = MuxSteering::new(SourceSteering, PatternSteering);
        let mut rng = RngFactory::new(9).stream("gossip");
        let actions = mux.round(&mut digest, &node, &[], &config, &mut rng);
        assert!(
            matches!(
                actions[0],
                GossipAction::Forward {
                    msg: GossipMessage::PullDigest { .. },
                    ..
                }
            ),
            "expected subscriber fallback, got {actions:?}"
        );
    }

    #[test]
    fn mux_steering_skips_round_without_work() {
        let node = Dispatcher::new(NodeId::new(5), DispatcherConfig::default());
        let mut digest = NegativeDigest::new(&cfg());
        let mut mux = MuxSteering::new(SourceSteering, PatternSteering);
        let mut rng = RngFactory::new(9).stream("gossip");
        assert!(mux
            .round(&mut digest, &node, &[], &cfg(), &mut rng)
            .is_empty());
        assert_eq!(mux.primary_rounds() + mux.secondary_rounds(), 0);
    }
}

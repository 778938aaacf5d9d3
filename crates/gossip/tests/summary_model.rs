//! Two-node summary-reconciliation model: engine-driven symmetric
//! rounds between randomly diverged caches, checked against a
//! `BTreeSet` set-difference reference.
//!
//! Properties:
//!
//! 1. For every steering a summary digest composes with (pattern,
//!    mux-over-source-and-pattern), two diverged caches converge to
//!    exactly their union within the predicted round bound and then go
//!    quiet.
//! 2. Under eviction churn mid-reconciliation, exact equality is out
//!    of reach by design (the `has_seen` filter never refetches an
//!    evicted id), but no *unseen* deficit survives: every id live in
//!    one cache ends up seen by the other.
//! 3. Random steering is inert for summary digests (they are
//!    pattern-labelled only) — composition is safe, never a panic.

use std::collections::BTreeSet;
use std::sync::Arc;

use eps_gossip::{
    GossipAction, GossipConfig, GossipEngine, GossipMessage, MuxSteering, PatternSteering,
    RandomSteering, SourceSteering, SteeringPolicy, SummaryDigestPolicy,
};
use eps_overlay::NodeId;
use eps_pubsub::summary::LEVEL_COUNT;
use eps_pubsub::{Dispatcher, DispatcherConfig, Event, EventId, PatternId, RangeRef};
use eps_sim::check::forall;
use eps_sim::Rng;

/// Every event in these tests comes from one publisher stream, so
/// per-(source, pattern) sequence numbers stay monotonic per node.
const SOURCE: u32 = 7;

fn pattern() -> PatternId {
    PatternId::new(1)
}

/// One side of the reconciliation: a dispatcher plus its summary
/// engine over steering `S`, the pairing the harness runs.
struct Peer<S> {
    node: Dispatcher,
    algo: GossipEngine<SummaryDigestPolicy, S>,
}

/// A dispatcher subscribed to the test pattern both locally and on
/// behalf of its peer, so pattern steering always has a route.
fn peer<S: SteeringPolicy>(
    id: u32,
    peer_id: u32,
    capacity: usize,
    algo: GossipEngine<SummaryDigestPolicy, S>,
) -> Peer<S> {
    let mut node = Dispatcher::new(
        NodeId::new(id),
        DispatcherConfig {
            cache_capacity: capacity,
            summary_index: true,
            ..DispatcherConfig::default()
        },
    );
    node.subscribe_local(pattern(), &[]);
    node.on_subscribe(pattern(), NodeId::new(peer_id), &[]);
    Peer { node, algo }
}

/// The engine composition under test: a summary digest (push or pull
/// deficit direction) over `steering` — pattern steering, or the
/// combined-pull style mux (whose source arm has no candidates for a
/// summary digest and falls back to the pattern arm every round).
fn summary_engine<S: SteeringPolicy>(
    pull: bool,
    steering: S,
) -> GossipEngine<SummaryDigestPolicy, S> {
    let config = GossipConfig::default();
    let digest = if pull {
        SummaryDigestPolicy::pull(&config)
    } else {
        SummaryDigestPolicy::push(&config)
    };
    GossipEngine::new(config, digest, steering)
}

/// Feeds `seqs` (ascending) as tree deliveries; what one peer receives
/// and the other does not is the divergence under reconciliation.
fn feed(node: &mut Dispatcher, seqs: impl IntoIterator<Item = u64>) {
    for seq in seqs {
        let event = Event::new(
            EventId::new(NodeId::new(SOURCE), seq),
            vec![(pattern(), seq)],
        );
        node.on_event(event, Some(NodeId::new(99)));
    }
}

/// The cache's resident id set for the test pattern, read through the
/// summary index (which the eviction path must keep in sync).
fn live_ids(node: &Dispatcher) -> BTreeSet<EventId> {
    node.cache()
        .summary_index()
        .ids_in(pattern(), RangeRef::ROOT)
        .into_iter()
        .collect()
}

/// Applies `actions` (emitted by `src`'s engine, all addressed to
/// `dst` in a two-node world) and recurses into the reactions they
/// trigger. Returns the number of reconciliation actions that flowed —
/// digest forwards are free-running and do not count, so a zero return
/// means the round found no divergence to work on.
fn apply<S: SteeringPolicy>(
    src: &mut Peer<S>,
    dst: &mut Peer<S>,
    actions: Vec<GossipAction>,
    rng: &mut Rng,
) -> usize {
    let mut work = 0;
    for action in actions {
        match action {
            GossipAction::Forward { to, msg } => {
                assert_eq!(to, dst.node.id(), "two-node world");
                let from = src.node.id();
                let reactions = dst.algo.on_gossip(&dst.node, from, msg, &[from], rng);
                work += apply(dst, src, reactions, rng);
            }
            GossipAction::RequestDetail {
                to,
                pattern: p,
                ranges,
            } => {
                assert_eq!(to, dst.node.id(), "two-node world");
                dst.algo.on_range_request(src.node.id(), p, &ranges);
                work += 1;
            }
            GossipAction::Request { to, ids } => {
                assert_eq!(to, dst.node.id(), "two-node world");
                let from = src.node.id();
                let replies = dst.algo.on_request(&dst.node, from, &ids);
                work += 1 + apply(dst, src, replies, rng);
            }
            GossipAction::Reply { to, events } => {
                assert_eq!(to, dst.node.id(), "two-node world");
                for event in events {
                    dst.node.on_recovered_event(event.clone());
                    dst.algo.on_event_received(&event);
                }
                work += 1;
            }
        }
    }
    work
}

/// The predicted convergence bound for symmetric two-node summary
/// reconciliation: each direction surfaces the root mismatch and
/// narrows it by one tree level per round (`2 * LEVEL_COUNT`), moves
/// `delta` differing ids through `digest_max`-bounded digest entries
/// (each expansion consumes entry budget, hence the `digest_max - 1`
/// denominator), and drains its refinement queue with a little slack.
fn round_bound(delta: usize, digest_max: usize) -> usize {
    2 * LEVEL_COUNT + 2 * (LEVEL_COUNT * delta / (digest_max - 1) + 1) + 10
}

/// Runs symmetric rounds (A gossips to B, then B to A) until a round
/// moves nothing and the caches agree; returns the rounds used, or
/// `None` if `max_rounds` was not enough.
fn reconcile<S: SteeringPolicy>(
    a: &mut Peer<S>,
    b: &mut Peer<S>,
    rng: &mut Rng,
    max_rounds: usize,
) -> Option<usize> {
    for round in 1..=max_rounds {
        let opening = a.algo.on_round(&a.node, &[b.node.id()], rng);
        let mut work = apply(a, b, opening, rng);
        let reply_round = b.algo.on_round(&b.node, &[a.node.id()], rng);
        work += apply(b, a, reply_round, rng);
        if work == 0 && live_ids(&a.node) == live_ids(&b.node) {
            return Some(round);
        }
    }
    None
}

/// A seq subset drawn by independent coin flips — the random
/// divergence the reconciliation has to find.
fn subset(universe: u64, p: f64, rng: &mut Rng) -> Vec<u64> {
    (0..universe).filter(|_| rng.random_bool(p)).collect()
}

/// Two caches diverged at random over steering `S` converge to their
/// union within [`round_bound`].
fn converges_to_union<S: SteeringPolicy>(pull: bool, steering: fn() -> S, rng: &mut Rng) {
    let density = rng.random_range(0.2..0.95);
    let in_a = subset(200, density, rng);
    let in_b = subset(200, density, rng);

    // The BTreeSet reference the caches must converge to.
    let sa: BTreeSet<u64> = in_a.iter().copied().collect();
    let sb: BTreeSet<u64> = in_b.iter().copied().collect();
    let union: BTreeSet<EventId> = sa
        .union(&sb)
        .map(|&seq| EventId::new(NodeId::new(SOURCE), seq))
        .collect();
    let delta = sa.symmetric_difference(&sb).count();

    let mut a = peer(0, 1, 1500, summary_engine(pull, steering()));
    let mut b = peer(1, 0, 1500, summary_engine(pull, steering()));
    feed(&mut a.node, in_a);
    feed(&mut b.node, in_b);

    let bound = round_bound(delta, GossipConfig::default().digest_max);
    let rounds = reconcile(&mut a, &mut b, rng, bound);
    let label = format!(
        "pull={pull} steering={} delta={delta}",
        std::any::type_name::<S>()
    );
    assert!(rounds.is_some(), "no convergence within {bound}: {label}");
    assert_eq!(live_ids(&a.node), union, "{label}");
    assert_eq!(live_ids(&b.node), union, "{label}");
    assert_eq!(
        a.node.cache().summary_index().root(pattern()),
        b.node.cache().summary_index().root(pattern()),
        "{label}"
    );
}

#[test]
fn diverged_caches_converge_to_union_for_every_steering() {
    forall("diverged_caches_converge_to_union", 64, |rng| {
        let (pull, mux) = (rng.random_bool(0.5), rng.random_bool(0.5));
        if mux {
            converges_to_union(
                pull,
                || MuxSteering::new(SourceSteering, PatternSteering),
                rng,
            );
        } else {
            converges_to_union(pull, || PatternSteering, rng);
        }
    });
}

#[test]
fn eviction_churn_leaves_no_unseen_deficits() {
    // Capacity far below the universe: the initial feeds already
    // evict, and fresh publications mid-reconciliation keep churning.
    // `has_seen` never refetches an evicted id, so exact equality is
    // unreachable by design; the property that must survive is that
    // every id still live on one side has been *seen* by the other.
    const CAPACITY: usize = 64;
    forall("eviction_churn_leaves_no_unseen_deficits", 64, |rng| {
        let pull = rng.random_bool(0.5);
        let density = rng.random_range(0.3..0.95);
        let mut a = peer(0, 1, CAPACITY, summary_engine(pull, PatternSteering));
        let mut b = peer(1, 0, CAPACITY, summary_engine(pull, PatternSteering));
        feed(&mut a.node, subset(96, density, rng));
        feed(&mut b.node, subset(96, density, rng));

        // A few rounds into the reconciliation, new events land on
        // each side (fresh streams, so they are pure divergence).
        reconcile(&mut a, &mut b, rng, 4);
        feed(&mut a.node, 1_000..1_000 + rng.random_range(1..24u64));
        feed(&mut b.node, 2_000..2_000 + rng.random_range(1..24u64));

        // Eviction tombstones keep pull from re-serving surplus a
        // peer has already seen, but ids evicted before the other
        // side ever saw them leave a permanent seen-set divergence
        // that keeps refinement traffic alive — so run to the
        // bound and check coverage rather than quiescence.
        let bound = round_bound(128, GossipConfig::default().digest_max);
        for _ in 0..bound {
            let opening = a.algo.on_round(&a.node, &[b.node.id()], rng);
            apply(&mut a, &mut b, opening, rng);
            let reply_round = b.algo.on_round(&b.node, &[a.node.id()], rng);
            apply(&mut b, &mut a, reply_round, rng);
        }

        for &id in &live_ids(&a.node) {
            assert!(
                b.node.has_seen(id),
                "unseen deficit at b: {id:?} (pull={pull})"
            );
        }
        for &id in &live_ids(&b.node) {
            assert!(
                a.node.has_seen(id),
                "unseen deficit at a: {id:?} (pull={pull})"
            );
        }
    });
}

#[test]
fn pull_goes_quiet_once_evicted_surplus_is_seen() {
    // A consumed every event but its small cache evicted two thirds of
    // them; B holds all of them live. Before eviction tombstones, A's
    // pull rounds announced only the live residue, so B proved a
    // "deficit" and re-served the evicted surplus every round forever
    // (A's `has_seen` filter discarded each copy on arrival). With the
    // seen view — live cache plus tombstones — both sides' aggregates
    // agree, and a window of symmetric rounds must move nothing at
    // all: no replies, no requests, no refinement traffic.
    let mut a = peer(0, 1, 32, summary_engine(true, PatternSteering));
    let mut b = peer(1, 0, 1500, summary_engine(true, PatternSteering));
    feed(&mut a.node, 0..96);
    feed(&mut b.node, 0..96);
    assert_eq!(
        a.node.cache().evicted_total(),
        64,
        "the small cache churned"
    );
    assert_eq!(a.node.cache().tombstoned(pattern()), 64);

    let mut rng = Rng::from_seed(31);
    for round in 0..12 {
        let opening = a.algo.on_round(&a.node, &[b.node.id()], &mut rng);
        let work = apply(&mut a, &mut b, opening, &mut rng);
        let reply_round = b.algo.on_round(&b.node, &[a.node.id()], &mut rng);
        let reply_work = apply(&mut b, &mut a, reply_round, &mut rng);
        assert_eq!(
            work + reply_work,
            0,
            "round {round} re-served evicted surplus"
        );
    }
}

#[test]
fn random_steering_is_inert_for_summary_digests() {
    // Summary digests are pattern-labelled only: random steering's
    // build_any finds nothing to send and its absorb path rejects the
    // wire form, so the composition is a safe no-op for arbitrary
    // cache contents, never a panic.
    forall("random_steering_is_inert_for_summary_digests", 64, |rng| {
        let config = GossipConfig::default();
        let digest = if rng.random_bool(0.5) {
            SummaryDigestPolicy::pull(&config)
        } else {
            SummaryDigestPolicy::push(&config)
        };
        let mut a = peer(
            0,
            1,
            1500,
            GossipEngine::new(config, digest, RandomSteering),
        );
        feed(&mut a.node, subset(50, 0.5, rng));
        for _ in 0..5 {
            let actions = a.algo.on_round(&a.node, &[NodeId::new(1)], rng);
            assert!(actions.is_empty(), "random steering sent a summary digest");
        }
        // An incoming summary digest is foreign to random steering too.
        let index = a.node.cache().summary_index();
        let msg = GossipMessage::SummaryDigest {
            gossiper: NodeId::new(1),
            pattern: pattern(),
            ranges: Arc::new(vec![index.root(pattern())]),
            details: Arc::new(vec![]),
        };
        let from = NodeId::new(1);
        let reactions = a.algo.on_gossip(&a.node, from, msg, &[from], rng);
        assert!(reactions.is_empty(), "random steering absorbed a summary");
        assert_eq!(a.algo.outstanding_losses(), 0);
    });
}

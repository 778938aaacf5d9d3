//! Two-node summary-reconciliation model: symmetric rounds of the
//! table-built `summary-push` / `summary-pull` strategies between
//! randomly diverged caches, checked against a `BTreeSet`
//! set-difference reference.
//!
//! Properties:
//!
//! 1. Two diverged caches converge to exactly their union within the
//!    predicted round bound and then go quiet.
//! 2. Under eviction churn mid-reconciliation, exact equality is out
//!    of reach by design (the `has_seen` filter never refetches an
//!    evicted id), but no *unseen* deficit survives: every id live in
//!    one cache ends up seen by the other.

use std::collections::BTreeSet;

use eps_gossip::{Algorithm, Envelope, GossipConfig, Outgoing, Strategy, DIGEST_MAX};
use eps_overlay::NodeId;
use eps_pubsub::summary::LEVEL_COUNT;
use eps_pubsub::{CacheIndexes, Dispatcher, DispatcherConfig, Event, EventId, PatternId, RangeRef};
use eps_sim::check::forall;
use eps_sim::Rng;

/// Every event in these tests comes from one publisher stream, so
/// per-(source, pattern) sequence numbers stay monotonic per node.
const SOURCE: u32 = 7;

fn pattern() -> PatternId {
    PatternId::new(1)
}

/// One side of the reconciliation: a dispatcher plus its summary
/// strategy, the pairing the harness runs.
struct Peer {
    node: Dispatcher,
    algo: Strategy,
}

/// A dispatcher subscribed to the test pattern both locally and on
/// behalf of its peer, so its digests always have a route, running
/// `summary-pull` (`pull`) or `summary-push`. Its cache keeps both rows'
/// indexes, so the tests read the live ids in either mode.
fn peer(id: u32, peer_id: u32, capacity: usize, pull: bool) -> Peer {
    let mut node = Dispatcher::new(
        NodeId::new(id),
        DispatcherConfig {
            cache_capacity: capacity,
            cache_indexes: CacheIndexes {
                summary: true,
                ..Algorithm::summary_pull().cache_indexes()
            },
            ..DispatcherConfig::default()
        },
    );
    node.subscribe_local(pattern(), &[]);
    node.on_subscribe(pattern(), NodeId::new(peer_id), &[]);
    let algorithm = if pull {
        Algorithm::summary_pull()
    } else {
        Algorithm::summary_push()
    };
    Peer {
        node,
        algo: algorithm.build(GossipConfig::default()),
    }
}

/// Feeds `seqs` (ascending) as tree deliveries; what one peer receives
/// and the other does not is the divergence under reconciliation.
fn feed(node: &mut Dispatcher, seqs: impl IntoIterator<Item = u64>) {
    for seq in seqs {
        let event = Event::new(
            EventId::new(NodeId::new(SOURCE), seq),
            vec![(pattern(), seq)],
        );
        node.on_event(event, Some(NodeId::new(99)), &mut Vec::new());
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

/// Delivers `out` (sent by `src`'s strategy, all addressed to `dst` in
/// a two-node world) and recurses into the reactions it triggers.
/// Returns the number of reconciliation messages that flowed — digest
/// forwards are free-running and do not count, so a zero return means
/// the round found no divergence to work on.
fn apply(src: &mut Peer, dst: &mut Peer, out: Vec<Outgoing>, rng: &mut Rng) -> usize {
    let mut work = 0;
    let from = src.node.id();
    for Outgoing { to, env } in out {
        assert_eq!(to, dst.node.id(), "two-node world");
        match env {
            Envelope::Gossip(msg) => {
                let mut reactions = Vec::new();
                dst.algo
                    .on_gossip(&dst.node, from, msg, &[from], rng, &mut reactions);
                work += apply(dst, src, reactions, rng);
            }
            Envelope::RangeRequest { pattern, ranges } => {
                dst.algo.on_range_request(pattern, &ranges);
                work += 1;
            }
            Envelope::Request(ids) => {
                let mut replies = Vec::new();
                dst.algo.on_request(&dst.node, from, &ids, &mut replies);
                work += 1 + apply(dst, src, replies, rng);
            }
            Envelope::Reply(events) => {
                for event in events {
                    dst.node.on_recovered_event(event.clone());
                    dst.algo.on_event_received(&event);
                }
                work += 1;
            }
            other => panic!("a strategy sent {other:?}"),
        }
    }
    work
}

/// One gossip round of `peer`, whose one neighbor is `other`.
fn round_of(peer: &mut Peer, other: NodeId, rng: &mut Rng) -> Vec<Outgoing> {
    let mut out = Vec::new();
    peer.algo.on_round(&peer.node, &[other], rng, &mut out);
    out
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
fn reconcile(a: &mut Peer, b: &mut Peer, rng: &mut Rng, max_rounds: usize) -> Option<usize> {
    for round in 1..=max_rounds {
        let opening = round_of(a, b.node.id(), rng);
        let mut work = apply(a, b, opening, rng);
        let reply_round = round_of(b, a.node.id(), rng);
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

/// Two caches diverged at random converge to their union within
/// [`round_bound`].
#[test]
fn diverged_caches_converge_to_union() {
    forall("diverged_caches_converge_to_union", 64, |rng| {
        let pull = rng.random_bool(0.5);
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

        let mut a = peer(0, 1, 1500, pull);
        let mut b = peer(1, 0, 1500, pull);
        feed(&mut a.node, in_a);
        feed(&mut b.node, in_b);

        let bound = round_bound(delta, DIGEST_MAX);
        let rounds = reconcile(&mut a, &mut b, rng, bound);
        let label = format!("pull={pull} delta={delta}");
        assert!(rounds.is_some(), "no convergence within {bound}: {label}");
        assert_eq!(live_ids(&a.node), union, "{label}");
        assert_eq!(live_ids(&b.node), union, "{label}");
        assert_eq!(
            a.node.cache().summary_index().root(pattern()),
            b.node.cache().summary_index().root(pattern()),
            "{label}"
        );
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
        let mut a = peer(0, 1, CAPACITY, pull);
        let mut b = peer(1, 0, CAPACITY, pull);
        feed(&mut a.node, subset(96, density, rng));
        feed(&mut b.node, subset(96, density, rng));

        // A few rounds into the reconciliation, new events land on
        // each side (fresh streams, so they are pure divergence).
        reconcile(&mut a, &mut b, rng, 4);
        feed(&mut a.node, 1_000..1_000 + rng.random_range(1..24u64));
        feed(&mut b.node, 2_000..2_000 + rng.random_range(1..24u64));

        // The seen view keeps pull from re-serving surplus a peer has
        // already seen, but ids evicted before the other side ever saw
        // them leave a permanent seen-set divergence that keeps
        // refinement traffic alive — so run to the bound and check
        // coverage rather than quiescence.
        let bound = round_bound(128, DIGEST_MAX);
        for _ in 0..bound {
            let opening = round_of(&mut a, b.node.id(), rng);
            apply(&mut a, &mut b, opening, rng);
            let reply_round = round_of(&mut b, a.node.id(), rng);
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
    // them; B holds all of them live. Were A's pull rounds to announce
    // only the live residue, B would prove a "deficit" and re-serve the
    // evicted surplus every round forever (A's `has_seen` filter
    // discarding each copy on arrival). They announce the seen view —
    // every id ever admitted — so both sides' aggregates agree, and a
    // window of symmetric rounds must move nothing at all: no replies,
    // no requests, no refinement traffic.
    let mut a = peer(0, 1, 32, true);
    let mut b = peer(1, 0, 1500, true);
    feed(&mut a.node, 0..96);
    feed(&mut b.node, 0..96);
    // The small cache churned: its seen view holds the 64 evicted ids
    // beside its 32 residents.
    let cache = a.node.cache();
    assert_eq!(cache.len(), 32);
    let seen = cache.seen_index().root(pattern()).count;
    assert_eq!(seen - cache.summary_index().root(pattern()).count, 64);

    let mut rng = Rng::from_seed(31);
    for round in 0..12 {
        let opening = round_of(&mut a, b.node.id(), &mut rng);
        let work = apply(&mut a, &mut b, opening, &mut rng);
        let reply_round = round_of(&mut b, a.node.id(), &mut rng);
        let reply_work = apply(&mut b, &mut a, reply_round, &mut rng);
        assert_eq!(
            work + reply_work,
            0,
            "round {round} re-served evicted surplus"
        );
    }
}

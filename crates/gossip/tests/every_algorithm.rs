//! Properties every recovery strategy must satisfy, checked over
//! [`Algorithm::all`] — the paper's six and the extensions alike.

use std::sync::Arc;

use eps_gossip::{Algorithm, Envelope, GossipConfig, GossipMessage};
use eps_overlay::NodeId;
use eps_pubsub::{
    Dispatcher, DispatcherConfig, Event, EventId, LossRecord, PatternId, RangeRef, RangeSummary,
};
use eps_sim::check::forall;
use eps_sim::Rng;

fn any_algorithm(rng: &mut Rng) -> Algorithm {
    *rng.choose(&Algorithm::all()).unwrap()
}

/// A dispatcher provisioned the way the harness provisions one for
/// `kind` (the summary strategies read the cache's summary index).
fn dispatcher_for(kind: Algorithm, id: u32) -> Dispatcher {
    Dispatcher::new(
        NodeId::new(id),
        DispatcherConfig {
            summary_index: kind.needs_summary_index(),
            ..DispatcherConfig::default()
        },
    )
}

fn record(source: u32, pattern: u16, seq: u64) -> LossRecord {
    LossRecord {
        source: NodeId::new(source),
        pattern: PatternId::new(pattern),
        seq,
    }
}

/// Feeding losses and then the matching events returns the outstanding
/// count to zero, and with nothing outstanding and an empty cache a
/// round emits nothing.
#[test]
fn losses_reconcile_for_every_algorithm() {
    forall("losses_reconcile_for_every_algorithm", 256, |rng| {
        let kind = any_algorithm(rng);
        let mut algo = kind.build(GossipConfig::default());
        let mut losses: Vec<LossRecord> = (0..rng.random_range(1..30usize))
            .map(|_| {
                let (source, pattern) = (rng.random_range(0..4u32), rng.random_range(0..4u16));
                record(source, pattern, rng.random_below(20))
            })
            .collect();
        losses.sort();
        losses.dedup();
        algo.on_losses(&losses);
        // Only negative digests keep a Lost buffer to announce from.
        let positive = ["no-recovery", "push", "summary-push", "summary-pull"];
        if !positive.contains(&kind.name()) {
            assert_eq!(algo.outstanding_losses(), losses.len(), "{kind}");
        }
        for rec in &losses {
            let event = Event::new(
                EventId::new(rec.source, rec.seq),
                vec![(rec.pattern, rec.seq)],
            );
            algo.on_event_received(&event);
        }
        assert_eq!(algo.outstanding_losses(), 0, "{kind}");
        let node = dispatcher_for(kind, 9);
        let actions = algo.on_round(&node, &[NodeId::new(1)], rng);
        assert!(actions.is_empty(), "{kind}: unexpected {actions:?}");
    });
}

/// One message of each of the five wire forms, each something a row that
/// speaks the form reacts to at [`wire_form_node`]: unseen ids, unserved
/// losses, a route onward, hop budget left, a summary to pass on.
fn every_wire_form() -> [(&'static str, GossipMessage); 5] {
    let p = PatternId::new(1);
    let gossiper = NodeId::new(7);
    let lost = vec![record(0, 1, 40), record(0, 1, 41)];
    [
        (
            "push",
            GossipMessage::PushDigest {
                gossiper,
                pattern: p,
                ids: Arc::new(vec![EventId::new(NodeId::new(0), 40)]),
            },
        ),
        (
            "pull",
            GossipMessage::PullDigest {
                gossiper,
                pattern: p,
                lost: lost.clone(),
            },
        ),
        (
            "source",
            GossipMessage::SourcePull {
                gossiper,
                source: NodeId::new(0),
                lost: lost.clone(),
                route: vec![NodeId::new(3), NodeId::new(0)],
            },
        ),
        (
            "random",
            GossipMessage::RandomPull {
                gossiper,
                lost,
                ttl: 4,
            },
        ),
        (
            "summary",
            GossipMessage::SummaryDigest {
                gossiper,
                pattern: p,
                ranges: Arc::new(vec![RangeSummary::empty(RangeRef::ROOT)]),
                details: Arc::new(vec![]),
            },
        ),
    ]
}

/// The wire forms each row speaks, by [`every_wire_form`] label.
fn native_forms(kind: Algorithm) -> &'static [&'static str] {
    match kind.name() {
        "no-recovery" => &[],
        "random-pull" => &["random"],
        "push" => &["push"],
        "subscriber-pull" => &["pull"],
        "combined-pull" => &["pull", "source"],
        "publisher-pull" => &["source"],
        "push-pull" => &["push", "pull"],
        "summary-push" | "summary-pull" => &["summary"],
        other => panic!("no wire forms listed for {other}"),
    }
}

/// A dispatcher subscribed to pattern 1 locally and through neighbor 3,
/// holding none of the events the wire forms above ask about.
fn wire_form_node(kind: Algorithm) -> Dispatcher {
    let mut node = dispatcher_for(kind, 2);
    node.subscribe_local(PatternId::new(1), &[]);
    node.on_subscribe(PatternId::new(1), NodeId::new(3), &[]);
    node
}

/// Every row reacts to its own wire forms, and a form foreign to the
/// row returns nothing without drawing from the gossip `Rng`.
#[test]
fn foreign_wire_forms_are_dropped_without_a_draw() {
    let neighbors = [NodeId::new(1), NodeId::new(3)];
    for kind in Algorithm::all() {
        let node = wire_form_node(kind);
        for (form, msg) in every_wire_form() {
            let mut algo = kind.build(GossipConfig::default());
            let mut rng = Rng::from_seed(5);
            let before = rng.clone();
            let out = algo.on_gossip(&node, NodeId::new(1), msg, &neighbors, &mut rng);
            if native_forms(kind).contains(&form) {
                assert!(!out.is_empty(), "{kind} ignored its own {form} form");
            } else {
                assert!(out.is_empty(), "{kind} reacted to a foreign {form} form");
                assert_eq!(rng, before, "{kind} drew for a foreign {form} form");
            }
        }
    }
}

/// Strategy output never targets the node itself, and replies carry
/// only events the node actually has cached.
#[test]
fn actions_are_well_formed() {
    forall("actions_are_well_formed", 256, |rng| {
        let kind = any_algorithm(rng);
        let p = PatternId::new(1);
        let me = NodeId::new(2);
        let mut node = dispatcher_for(kind, 2);
        node.subscribe_local(p, &[]);
        node.on_subscribe(p, NodeId::new(3), &[]);
        // An ascending random subset of seqs 0..30, as tree deliveries.
        for seq in (0..30).filter(|_| rng.random_bool(0.35)) {
            node.on_event(
                Event::new(EventId::new(NodeId::new(0), seq), vec![(p, seq)]),
                Some(NodeId::new(1)),
            );
        }
        let mut algo = kind.build(GossipConfig::default());
        let mut lost: Vec<LossRecord> = (0..rng.random_range(1..20usize))
            .map(|_| record(0, 1, 100 + rng.random_below(30)))
            .collect();
        lost.sort();
        lost.dedup();
        algo.on_losses(&lost);
        let neighbors = [NodeId::new(1), NodeId::new(3)];
        let mut actions = algo.on_round(&node, &neighbors, rng);
        // Also exercise the digest-handling path with a foreign pull
        // digest covering the cached range.
        let digest = GossipMessage::PullDigest {
            gossiper: NodeId::new(7),
            pattern: p,
            lost: (0..30).map(|seq| record(0, 1, seq)).collect(),
        };
        actions.extend(algo.on_gossip(&node, NodeId::new(1), digest, &neighbors, rng));
        for out in &actions {
            if let Envelope::Reply(events) = &out.env {
                for e in events {
                    assert!(
                        node.cache().contains(e.id()),
                        "{kind} replied with an uncached event"
                    );
                }
            }
            assert_ne!(out.to, me, "{kind} addressed itself");
        }
    });
}

//! Protocol walkthrough: drive the publish-subscribe and gossip layers
//! by hand — no simulator — to see exactly what travels where when an
//! event is lost and recovered.
//!
//! Three dispatchers in a line: d0 (publisher) — d1 — d2 (subscriber).
//! The event from d0 is "lost" on the d1→d2 link; d2 detects the gap
//! from the per-(source, pattern) sequence numbers and pulls the event
//! back.
//!
//! ```text
//! cargo run --example protocol_walkthrough
//! ```

use epidemic_pubsub::gossip::{Algorithm, Envelope, GossipConfig, Outgoing};
use epidemic_pubsub::overlay::NodeId;
use epidemic_pubsub::pubsub::{Dispatcher, DispatcherConfig, PatternId};

fn main() {
    let p = PatternId::new(7);
    let (n0, n1, n2) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
    let config = DispatcherConfig::default();
    let mut d0 = Dispatcher::new(n0, config);
    let mut d1 = Dispatcher::new(n1, config);
    let mut d2 = Dispatcher::new(n2, config);

    // --- Subscription forwarding (paper, Section II) ---------------
    println!("d2 subscribes to {p}; the subscription propagates d2 -> d1 -> d0");
    let out = d2.subscribe_local(p, &[n1]);
    assert_eq!(out.len(), 1);
    let out = d1.on_subscribe(p, n2, &[n0, n2]);
    assert_eq!(out.len(), 1);
    let out = d0.on_subscribe(p, n1, &[n1]);
    assert!(out.is_empty(), "nothing beyond d0 to tell");

    // d0 subscribes too. With a single subscriber, subscriber-based
    // pull has nobody to steer a digest towards — exactly the weakness
    // the paper discusses (and why the combined variant exists). Two
    // subscribers give d2's table a route for its gossip.
    println!("d0 subscribes as well, so gossip digests have a route to follow");
    d0.subscribe_local(p, &[n1]);
    d1.on_subscribe(p, n0, &[n0, n2]);
    d2.on_subscribe(p, n1, &[n1]);

    // --- A first event flows end to end ----------------------------
    // Each dispatcher names the next hops of an event and hands back
    // the copy to forward to them.
    let mut next_hops = Vec::new();
    let (e0, _) = d0.publish(&[p], &mut next_hops);
    println!("d0 publishes {} (pattern seq {:?})", e0.id(), e0.seq_for(p));
    assert_eq!(next_hops, [n1]);
    let (copy, _) = d1.on_event(e0.clone(), Some(n0), &mut next_hops);
    assert_eq!(next_hops, [n2]);
    let (_, r2) = d2.on_event(copy, Some(n1), &mut next_hops);
    assert!(r2.delivered);
    println!("d2 delivered {} normally\n", e0.id());

    // --- The second event is lost between d1 and d2 ----------------
    let (e1, _) = d0.publish(&[p], &mut next_hops);
    println!("d0 publishes {}; d1 receives it...", e1.id());
    d1.on_event(e1, Some(n0), &mut next_hops);
    println!("...but the copy to d2 is LOST on the wire\n");

    // --- A third event reveals the gap ------------------------------
    let (e2, _) = d0.publish(&[p], &mut next_hops);
    println!(
        "d0 publishes {}; it reaches d2 and exposes the gap",
        e2.id()
    );
    let (copy, _) = d1.on_event(e2, Some(n0), &mut next_hops);
    let (_, receipt) = d2.on_event(copy, Some(n1), &mut next_hops);
    assert_eq!(receipt.losses.len(), 1);
    println!(
        "d2's loss detector reports: missing {} (seq gap on {p})\n",
        receipt.losses[0]
    );

    // --- Subscriber-based pull recovers it --------------------------
    let mut algo2 = Algorithm::subscriber_pull().build(GossipConfig {
        p_forward: 1.0,
        ..GossipConfig::default()
    });
    let mut algo1 = Algorithm::subscriber_pull().build(GossipConfig::default());
    algo2.on_losses(&receipt.losses);
    let mut rng = eps_sim::Rng::from_seed(42);

    println!("gossip round at d2: negative digest steered towards {p}'s routes");
    // Each hook appends what it sends to the caller's outbox.
    let mut out = Vec::new();
    algo2.on_round(&d2, &[n1], &mut rng, &mut out);
    let (to, msg) = match &out[0] {
        Outgoing {
            to,
            env: Envelope::Gossip(msg),
        } => (*to, msg.clone()),
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(to, n1);
    println!("d1 is a pure router (not a subscriber): it cached nothing,");
    println!("so it forwards the digest along {p}'s routes towards d0");
    let mut algo0 = Algorithm::subscriber_pull().build(GossipConfig::default());
    out.clear();
    algo1.on_gossip(&d1, n2, msg, &[n0, n2], &mut rng, &mut out);
    let (to, msg) = match &out[0] {
        Outgoing {
            to,
            env: Envelope::Gossip(msg),
        } => (*to, msg.clone()),
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(to, n0);
    println!("d0 (publisher and subscriber) serves the event from its cache");
    out.clear();
    algo0.on_gossip(&d0, n1, msg, &[n1], &mut rng, &mut out);
    let events = match &out[0] {
        Outgoing {
            to,
            env: Envelope::Reply(events),
        } => {
            assert_eq!(*to, n2);
            events.clone()
        }
        other => panic!("unexpected {other:?}"),
    };
    let recovered = d2.on_recovered_event(events[0].clone());
    assert!(recovered.delivered);
    algo2.on_event_received(&events[0]);
    println!(
        "d2 recovered {} out-of-band; outstanding losses: {}",
        events[0].id(),
        algo2.outstanding_losses()
    );
    let delivered = [r2.delivered, receipt.delivered, recovered.delivered];
    let count = delivered.iter().filter(|&&d| d).count();
    println!("\nAll three events delivered: {count}");
    assert_eq!(count, 3);
}

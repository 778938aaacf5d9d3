//! Sim-vs-wire cross-validation: the same seed, topology, and
//! workload run once through the virtual-time simulator and once over
//! loopback sockets. The shared population builder and the one node
//! clock make the two runs publish the *identical* event sequence; the
//! shared codec makes their byte accounting identical by construction.

use std::sync::Arc;
use std::time::Duration;

use eps_gossip::codec;
use eps_gossip::{Algorithm, Envelope, GossipMessage};
use eps_harness::{run_scenario, ScenarioConfig};
use eps_net::{run_reactor_cluster, NetConfig};
use eps_overlay::{NodeId, OverlayKind};
use eps_pubsub::{Event, EventId, LossRecord, PatternId, RangeDetail, RangeRef, RangeSummary};
use eps_sim::SimTime;

fn loss() -> LossRecord {
    LossRecord {
        source: NodeId::new(2),
        pattern: PatternId::new(3),
        seq: 9,
    }
}

fn crossval_scenario() -> ScenarioConfig {
    ScenarioConfig {
        seed: 7,
        nodes: 8,
        max_degree: 3,
        publish_rate: 20.0,
        link_error_rate: 0.05,
        // A content model dense relative to the node count: every
        // pattern has multiple subscribers and every (source, pattern)
        // stream carries many events, so losses are actually detected
        // and recovery genuinely engages. The default universe of 70
        // patterns over a handful of nodes leaves most events with no
        // audience, which makes "100% delivery" vacuous.
        pattern_universe: 8,
        pi_max: 2,
        duration: SimTime::from_millis(1200),
        warmup: SimTime::from_millis(200),
        cooldown: SimTime::from_millis(400),
        gossip_interval: SimTime::from_millis(30),
        algorithm: Algorithm::push(),
        ..ScenarioConfig::default()
    }
}

/// The headline cross-validation: delivery converges to 100% in both
/// worlds, and both worlds published exactly the same number of
/// events (same seed → same Poisson schedule → same workload).
#[test]
fn sim_and_loopback_agree_on_workload_and_convergence() {
    let scenario = crossval_scenario();

    let sim = run_scenario(&scenario);
    assert!(
        sim.delivery_rate >= 0.99,
        "simulated push at ε=0.05 recovers the window; got {}",
        sim.delivery_rate
    );
    assert!(sim.events_recovered > 0, "sim recovery engaged");

    let report = run_reactor_cluster(
        NetConfig {
            scenario: scenario.clone(),
            drain: Duration::from_secs(4),
            ..NetConfig::default()
        },
        2,
    )
    .expect("cluster boots");

    assert_eq!(
        report.result.events_published, sim.events_published,
        "same seed must publish the same event sequence in sim and net"
    );
    assert_eq!(
        report.result.overall_delivery_rate, 1.0,
        "the wire run converges to 100% with recovery on; got {:?}",
        report.result
    );
    // The convergence above must be *earned*: the send-side loss draw
    // dropped envelopes and gossip repaired the damage.
    assert!(report.net.injected_drops > 0, "loss injection exercised");
    assert!(report.result.events_recovered > 0, "net recovery engaged");
    assert!(report.result.gossip_msgs > 0, "gossip rounds ran");
    assert!(report.result.event_msgs > 0, "event traffic counted");
    assert_eq!(report.net.decode_errors, 0, "codec never misparses");
}

/// The cyclic-overlay cross-validation cell: a small Barabási–Albert
/// graph routes events on the BFS view over TCP while the cross links
/// replicate copies over UDP. Both worlds publish the same workload,
/// both converge, and both observe duplicate copies arriving over the
/// cross links and suppress them.
#[test]
fn sim_and_loopback_agree_on_a_barabasi_albert_graph() {
    let scenario = ScenarioConfig {
        overlay: OverlayKind::BarabasiAlbert,
        max_degree: 4,
        ..crossval_scenario()
    };

    let sim = run_scenario(&scenario);
    assert!(
        sim.duplicate_suppressed > 0,
        "cross links carried duplicate copies in sim"
    );

    let report = run_reactor_cluster(
        NetConfig {
            scenario: scenario.clone(),
            drain: Duration::from_secs(4),
            ..NetConfig::default()
        },
        2,
    )
    .expect("cluster boots");

    assert_eq!(
        report.result.events_published, sim.events_published,
        "same seed must publish the same event sequence in sim and net"
    );
    assert_eq!(
        report.result.overall_delivery_rate, 1.0,
        "the wire run converges to 100% on the cyclic overlay; got {:?}",
        report.result
    );
    assert!(
        report.result.duplicate_suppressed > 0,
        "cross links carried duplicate copies on the wire"
    );
    assert_eq!(report.net.decode_errors, 0, "codec never misparses");
}

/// The client-layer cross-validation cell: each dispatcher fronts
/// three end-user clients, so subscription setup floods *aggregated*
/// filters and delivery is accounted per client-subscription in both
/// worlds. The shared population builder makes the routing-state
/// accounting — client subscriptions, aggregate filters, table
/// entries, setup subscription messages — identical by construction,
/// and the wire run must still converge with the aggregated envelopes
/// end to end. (No churn: `NetConfig::validate` forbids it.)
#[test]
fn sim_and_loopback_agree_with_multi_client_dispatchers() {
    let scenario = ScenarioConfig {
        clients_per_node: 3,
        ..crossval_scenario()
    };

    let sim = run_scenario(&scenario);
    assert!(
        sim.client_subscriptions > sim.aggregate_patterns,
        "covering engaged: {} client subscriptions over {} aggregate filters",
        sim.client_subscriptions,
        sim.aggregate_patterns
    );

    let report = run_reactor_cluster(
        NetConfig {
            scenario: scenario.clone(),
            drain: Duration::from_secs(4),
            ..NetConfig::default()
        },
        2,
    )
    .expect("cluster boots");

    assert_eq!(
        report.result.events_published, sim.events_published,
        "same seed must publish the same event sequence in sim and net"
    );
    assert_eq!(
        report.result.overall_delivery_rate, 1.0,
        "the wire run converges to 100% at client granularity; got {:?}",
        report.result
    );
    // Routing-state accounting comes from the shared population
    // builder: the two worlds must agree exactly.
    assert_eq!(report.result.client_subscriptions, sim.client_subscriptions);
    assert_eq!(report.result.aggregate_patterns, sim.aggregate_patterns);
    assert_eq!(report.result.routing_entries, sim.routing_entries);
    assert_eq!(
        report.result.setup_subscription_msgs,
        sim.setup_subscription_msgs
    );
    assert_eq!(report.net.decode_errors, 0, "codec never misparses");
}

/// The summary-reconciliation cross-validation cell: `summary-push`
/// runs its hash-tree digests and range-refinement requests through
/// the live codec over real sockets. The run must converge like the
/// linear digests do, with the digest traffic accounted in wire bits
/// on both sides (the runtime asserts framed size == `wire_bits` on
/// every send, so convergence here proves the summary envelopes
/// round-trip at their accounted size under load).
#[test]
fn sim_and_loopback_agree_with_summary_reconciliation() {
    let scenario = ScenarioConfig {
        algorithm: Algorithm::summary_push(),
        ..crossval_scenario()
    };

    let sim = run_scenario(&scenario);
    // Summary recovery resolves a mismatch over several rounds
    // (root → refine → detail → request), so a loss near the window's
    // edge can finish just past it — the bar sits slightly below the
    // linear cells' 0.99. Everything is eventually chased down:
    // no loss records remain outstanding.
    assert!(
        sim.delivery_rate >= 0.98,
        "simulated summary-push at ε=0.05 recovers the window; got {}",
        sim.delivery_rate
    );
    assert_eq!(sim.outstanding_losses, 0, "sim chased every loss");
    assert!(sim.events_recovered > 0, "sim recovery engaged");
    assert!(sim.gossip_wire_bits > 0, "sim accounted digest bits");

    let report = run_reactor_cluster(
        NetConfig {
            scenario: scenario.clone(),
            drain: Duration::from_secs(4),
            ..NetConfig::default()
        },
        2,
    )
    .expect("cluster boots");

    assert_eq!(
        report.result.events_published, sim.events_published,
        "same seed must publish the same event sequence in sim and net"
    );
    assert_eq!(
        report.result.overall_delivery_rate, 1.0,
        "the wire run converges to 100% under summary reconciliation; got {:?}",
        report.result
    );
    assert!(report.net.injected_drops > 0, "loss injection exercised");
    assert!(report.result.events_recovered > 0, "net recovery engaged");
    assert!(
        report.result.gossip_wire_bits > 0,
        "summary digests were accounted in wire bits on the wire run"
    );
    assert_eq!(report.net.decode_errors, 0, "codec never misparses");
}

/// The boot-equivalence cell: the same seed through the simulator and
/// the epoll reactor. The reactor boots the population the simulator
/// builds (`boot_population` → `build_population`) and reports through
/// the simulator's `assemble`, so the workload identity and all
/// boot-derived routing state must be *equal*, not merely close, and
/// the wire run must converge.
#[test]
fn reactor_agrees_with_sim_on_the_same_seed() {
    let scenario = crossval_scenario();
    let sim = run_scenario(&scenario);

    let reactor = run_reactor_cluster(
        NetConfig {
            scenario: scenario.clone(),
            drain: Duration::from_secs(4),
            ..NetConfig::default()
        },
        2,
    )
    .expect("reactor boots");

    assert_eq!(
        reactor.result.events_published, sim.events_published,
        "same seed must publish the same event sequence as sim"
    );
    assert_eq!(
        reactor.result.overall_delivery_rate, 1.0,
        "the wire run converges to 100%; got {:?}",
        reactor.result
    );
    assert!(reactor.net.injected_drops > 0, "loss injection exercised");
    assert_eq!(reactor.net.decode_errors, 0, "codec never misparses");
    // Boot-derived state is bit-identical across worlds, not just
    // statistically alike.
    assert_eq!(reactor.result.routing_entries, sim.routing_entries);
    assert_eq!(
        reactor.result.client_subscriptions,
        sim.client_subscriptions
    );
    assert_eq!(reactor.result.aggregate_patterns, sim.aggregate_patterns);
    assert_eq!(
        reactor.result.setup_subscription_msgs,
        sim.setup_subscription_msgs
    );
}

/// Determinism of the workload identity itself: two net runs with the
/// same seed publish the same count, and a different seed does not.
#[test]
fn net_workload_is_seed_deterministic() {
    let mut scenario = crossval_scenario();
    scenario.nodes = 3;
    scenario.duration = SimTime::from_millis(600);
    scenario.warmup = SimTime::from_millis(100);
    scenario.cooldown = SimTime::from_millis(100);
    let config = |seed| NetConfig {
        scenario: ScenarioConfig {
            seed,
            ..scenario.clone()
        },
        drain: Duration::from_secs(2),
        ..NetConfig::default()
    };
    let a = run_reactor_cluster(config(21), 2).expect("cluster boots");
    let b = run_reactor_cluster(config(21), 2).expect("cluster boots");
    let sim = run_scenario(&ScenarioConfig {
        seed: 21,
        ..scenario.clone()
    });
    assert_eq!(a.result.events_published, b.result.events_published);
    assert_eq!(a.result.events_published, sim.events_published);
}

/// The duration gate on *first* publish ticks: at one event per second
/// over a 0.6 s run, about half the nodes draw a first publish instant
/// past the end. The node clock both worlds start drops such a tick
/// at boot, so it fires in neither; if it fired on sockets, the run
/// would publish events the simulator never saw (and idle through the
/// drain budget waiting for them).
#[test]
fn first_publish_ticks_past_the_end_fire_in_neither_world() {
    let scenario = ScenarioConfig {
        publish_rate: 1.0,
        duration: SimTime::from_millis(600),
        warmup: SimTime::from_millis(100),
        cooldown: SimTime::from_millis(100),
        ..crossval_scenario()
    };
    let sim = run_scenario(&scenario);
    assert!(
        sim.events_published > 0 && sim.events_published < scenario.nodes as u64,
        "the cell must mix first draws inside the run and past it; sim published {}",
        sim.events_published
    );
    let report = run_reactor_cluster(
        NetConfig {
            scenario,
            drain: Duration::from_secs(4),
            ..NetConfig::default()
        },
        2,
    )
    .expect("cluster boots");
    assert_eq!(report.result.events_published, sim.events_published);
}

/// The byte-accounting half of the cross-validation, stated directly:
/// for every message class, the codec's framed body is exactly
/// `wire_bits / 8` bytes — the simulator's accounting IS the wire
/// format's size. (The runtime also asserts this on every send, so
/// the cluster tests above exercise it over thousands of live
/// messages.)
#[test]
fn framed_sizes_equal_wire_bits_for_every_message_class() {
    let payload_bits = 1024;
    let event = Event::from_wire(
        EventId::new(NodeId::new(2), 9),
        vec![(PatternId::new(3), 4), (PatternId::new(8), 1)],
        [2, 1, 4].map(NodeId::new).to_vec(),
    );
    let samples: Vec<Envelope> = vec![
        Envelope::PubSub(eps_pubsub::PubSubMessage::Subscribe(PatternId::new(5))),
        Envelope::PubSub(eps_pubsub::PubSubMessage::Unsubscribe(PatternId::new(5))),
        Envelope::PubSub(eps_pubsub::PubSubMessage::Event(event.clone())),
        Envelope::CrossEvent(event.clone()),
        Envelope::Gossip(GossipMessage::PushDigest {
            gossiper: NodeId::new(0),
            pattern: PatternId::new(3),
            ids: Arc::new(vec![EventId::new(NodeId::new(2), 9)]),
        }),
        Envelope::Gossip(GossipMessage::PullDigest {
            gossiper: NodeId::new(1),
            pattern: PatternId::new(3),
            lost: vec![loss()],
        }),
        Envelope::Gossip(GossipMessage::SourcePull {
            gossiper: NodeId::new(1),
            source: NodeId::new(2),
            lost: vec![loss()],
            route: vec![NodeId::new(2), NodeId::new(1)],
        }),
        Envelope::Gossip(GossipMessage::RandomPull {
            gossiper: NodeId::new(1),
            lost: vec![loss()],
            ttl: 4,
        }),
        Envelope::Request(vec![EventId::new(NodeId::new(2), 9); 3]),
        Envelope::Reply(vec![event]),
        Envelope::Reply(vec![]),
        Envelope::Gossip(GossipMessage::SummaryDigest {
            gossiper: NodeId::new(1),
            pattern: PatternId::new(3),
            ranges: Arc::new(vec![
                RangeSummary {
                    range: RangeRef::ROOT,
                    count: 41,
                    hash: 0xDEAD_BEEF_0BAD_F00D,
                },
                RangeSummary::empty(RangeRef::ROOT.child(7)),
            ]),
            details: Arc::new(vec![RangeDetail {
                range: RangeRef::ROOT.child(2),
                ids: vec![EventId::new(NodeId::new(2), 9); 4],
            }]),
        }),
        Envelope::RangeRequest {
            pattern: PatternId::new(3),
            ranges: vec![RangeRef::ROOT, RangeRef::ROOT.child(15)],
        },
    ];
    for env in &samples {
        let body = codec::encode(env, payload_bits).expect("encodes");
        assert_eq!(
            body.len() as u64 * 8,
            env.wire_bits(payload_bits),
            "framed size must equal wire_bits for {env:?}"
        );
        assert_eq!(
            codec::decode(&body, payload_bits).expect("decodes"),
            *env,
            "decode inverts encode for {env:?}"
        );
    }
}

//! Reactor integration tests: small loopback clusters (real sockets,
//! about a second of wall clock each) that must boot, converge and
//! survive forced restarts — plus the scale case the reactor exists
//! for: a thousand dispatchers in one process on a handful of worker
//! threads.

use std::time::{Duration, Instant};

use eps_gossip::Algorithm;
use eps_harness::{run_scenario, ScenarioConfig};
use eps_net::{run_reactor_cluster, NetConfig, ReactorCluster};
use eps_sim::SimTime;

fn smoke_config(nodes: usize, algorithm: Algorithm, seed: u64) -> NetConfig {
    NetConfig {
        scenario: ScenarioConfig {
            seed,
            nodes,
            publish_rate: 20.0,
            link_error_rate: 0.05,
            // Dense content model so events have audiences and
            // recovery genuinely engages — see crossval.rs.
            pattern_universe: 6,
            pi_max: 2,
            duration: SimTime::from_millis(800),
            warmup: SimTime::from_millis(100),
            cooldown: SimTime::from_millis(100),
            gossip_interval: SimTime::from_millis(30),
            algorithm,
            ..ScenarioConfig::default()
        },
        drain: Duration::from_secs(3),
        ..NetConfig::default()
    }
}

#[test]
fn three_node_push_converges_under_the_reactor() {
    let report =
        run_reactor_cluster(smoke_config(3, Algorithm::push(), 11), 2).expect("reactor boots");
    assert!(report.result.events_published > 0, "workload ran");
    assert_eq!(
        report.result.overall_delivery_rate, 1.0,
        "push + out-of-band recovery must converge under the reactor; got {:?}",
        report.result
    );
    assert!(report.net.frames_sent > 0, "tree links carried traffic");
    assert!(
        report.net.frames_received > 0,
        "tree links delivered traffic"
    );
    assert!(
        report.latency.samples > 0 && report.latency.p99 >= report.latency.p50,
        "delivery latency was sampled; got {:?}",
        report.latency
    );
    assert_eq!(report.net.decode_errors, 0, "codec never misparses");
}

#[test]
fn combined_pull_converges_under_the_reactor() {
    let report = run_reactor_cluster(smoke_config(3, Algorithm::combined_pull(), 13), 2)
        .expect("reactor boots");
    assert!(report.result.events_published > 0, "workload ran");
    // Combined pull detects losses by sequence gaps, so an event that
    // ends its (source, pattern) stream can never be pulled — the
    // in-window rate must converge (streams keep flowing past the
    // window), but the run-tail is structurally unrecoverable.
    assert_eq!(
        report.result.delivery_rate, 1.0,
        "combined pull must converge inside the measurement window; got {:?}",
        report.result
    );
    assert_eq!(report.net.decode_errors, 0, "codec never misparses");
}

/// Forced restarts under the reactor: the restart request is
/// asynchronous (the worker keeps serving its other nodes), peers'
/// dial state machines must ride out the dead listener, and the
/// protocol state must survive the socket teardown.
#[test]
fn sixteen_node_tree_survives_forced_restarts_under_the_reactor() {
    let mut config = smoke_config(16, Algorithm::push(), 17);
    config.scenario.publish_rate = 10.0;
    config.scenario.duration = SimTime::from_millis(1200);
    let mut cluster = ReactorCluster::launch(config, 3).expect("reactor boots");
    std::thread::sleep(Duration::from_millis(250));
    cluster
        .restart_node(3, Duration::from_millis(150))
        .expect("restart request reaches the worker");
    cluster
        .restart_node(9, Duration::from_millis(150))
        .expect("restart request reaches the worker");
    let report = cluster.finish();
    assert!(report.result.events_published > 0, "workload ran");
    assert!(
        report.net.connect_retries > 0,
        "restarts must exercise the dial state machines; counters: {:?}",
        report.net
    );
    assert!(
        report.result.overall_delivery_rate > 0.9,
        "recovery should repair most restart damage; got {:?}",
        report.result
    );
    assert_eq!(report.net.decode_errors, 0, "codec never misparses");
}

/// Link loss is drawn on send, where the simulator draws it: at
/// ε = 1 every event and digest is lost before it is encoded, so no
/// protocol frame or datagram is ever written (the 4-byte dial hellos
/// are not frames).
#[test]
fn a_lost_envelope_is_never_written() {
    let mut config = smoke_config(3, Algorithm::push(), 11);
    config.scenario.link_error_rate = 1.0;
    config.drain = Duration::from_millis(300);
    let report = run_reactor_cluster(config, 2).expect("reactor boots");
    assert!(report.result.events_published > 0, "workload ran");
    assert!(report.net.injected_drops > 0, "loss was drawn");
    assert_eq!(report.net.frames_sent, 0, "no frame reached a socket");
    assert_eq!(report.net.datagrams_sent, 0, "no datagram reached a socket");
    assert_eq!(report.net.frames_received, 0);
}

/// The coordinator's convergence check reads the run's delivery
/// ledger, which every node call writes into as it delivers: a
/// lossless run has made every intended delivery when its workload
/// ends, so it must stop then, not wait out its drain.
#[test]
fn a_converged_run_stops_before_its_drain() {
    let mut config = smoke_config(3, Algorithm::no_recovery(), 11);
    config.scenario.link_error_rate = 0.0;
    config.drain = Duration::from_secs(4);
    let started = Instant::now();
    let report = run_reactor_cluster(config.clone(), 2).expect("reactor boots");
    let took = started.elapsed();
    assert_eq!(report.result.overall_delivery_rate, 1.0);
    assert!(
        took < config.drain / 2,
        "a lossless run converges with its workload; took {took:?}"
    );
}

/// The scale acceptance: 1000 dispatchers in one process, two worker
/// threads, every tree link live, full delivery. Loss injection is off
/// so the run's byte budget stays test-sized; what this pins is the
/// fd/timer/buffer machinery at three-plus thousand descriptors.
#[test]
fn thousand_dispatchers_converge_in_one_process() {
    let config = NetConfig {
        scenario: ScenarioConfig {
            seed: 23,
            nodes: 1000,
            max_degree: 6,
            publish_rate: 2.0,
            link_error_rate: 0.0,
            pattern_universe: 1000,
            pi_max: 1,
            duration: SimTime::from_millis(600),
            warmup: SimTime::from_millis(100),
            cooldown: SimTime::from_millis(100),
            gossip_interval: SimTime::from_millis(100),
            algorithm: Algorithm::push(),
            ..ScenarioConfig::default()
        },
        drain: Duration::from_secs(20),
        ..NetConfig::default()
    };
    let report = run_reactor_cluster(config, 2).expect("reactor boots 1000 dispatchers");
    assert!(
        report.result.events_published > 100,
        "the population published a real workload; got {}",
        report.result.events_published
    );
    assert!(
        report.result.overall_delivery_rate >= 0.99,
        "a lossless 1000-node tree must deliver (recovery covers stragglers); got {:?}",
        report.result
    );
    assert_eq!(report.net.decode_errors, 0, "codec never misparses");
}

/// A node behind its publish schedule must catch up at once. Every
/// publish tick renews from its *scheduled* time, so under load the
/// next deadline a node asks for is already in the past; a timer
/// structure that parks such a deadline (the hashed wheel this reactor
/// used to have filed it behind its cursor for a 4.1 s revolution)
/// either publishes late or — when the tail outlives the drain — not
/// at all. Lossless and without recovery, so the simulator's counts
/// are exact and nothing but the publish schedule decides the run
/// time: the same events cross the same tree links, and every client
/// delivery is sampled for latency exactly once.
#[test]
fn a_node_behind_its_publish_schedule_catches_up_without_a_tail() {
    let scenario = ScenarioConfig {
        seed: 29,
        nodes: 16,
        max_degree: 3,
        publish_rate: 200.0,
        link_error_rate: 0.0,
        pattern_universe: 8,
        pi_max: 2,
        duration: SimTime::from_millis(500),
        warmup: SimTime::from_millis(100),
        cooldown: SimTime::from_millis(100),
        algorithm: Algorithm::no_recovery(),
        ..ScenarioConfig::default()
    };
    let sim = run_scenario(&scenario);
    let cluster = ReactorCluster::launch(
        NetConfig {
            scenario,
            drain: Duration::from_secs(10),
            ..NetConfig::default()
        },
        2,
    )
    .expect("reactor boots");
    let started = Instant::now();
    let report = cluster.finish();
    let took = started.elapsed();
    assert_eq!(
        report.result.events_published, sim.events_published,
        "every scheduled publish fired"
    );
    assert_eq!(report.result.event_msgs, sim.event_msgs);
    assert_eq!(
        report.result.setup_subscription_msgs,
        sim.setup_subscription_msgs
    );
    let deliveries =
        (report.result.events_published as f64 * report.result.receivers_per_event).round() as u64;
    assert_eq!(report.latency.samples, deliveries);
    assert!(
        took < Duration::from_millis(1500),
        "the run ends with its schedule, not a timer revolution later; took {took:?}"
    );
    assert_eq!(report.net.decode_errors, 0, "codec never misparses");
}

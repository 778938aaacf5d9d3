//! End-to-end integration tests: whole scenarios through the public
//! facade, checking the paper's qualitative claims on reduced scales.

use epidemic_pubsub::gossip::Algorithm;
use epidemic_pubsub::harness::{run_scenario, ScenarioConfig, ScenarioResult};
use epidemic_pubsub::overlay::OverlayKind;
use epidemic_pubsub::sim::check::forall;
use epidemic_pubsub::sim::SimTime;

fn small() -> ScenarioConfig {
    ScenarioConfig {
        nodes: 30,
        duration: SimTime::from_secs(5),
        warmup: SimTime::from_secs(1),
        cooldown: SimTime::from_secs(1),
        publish_rate: 25.0,
        seed: 42,
        ..ScenarioConfig::default()
    }
}

fn run(kind: Algorithm) -> ScenarioResult {
    run_scenario(&small().with_algorithm(kind))
}

/// Whatever the configuration — any registered algorithm on any
/// overlay, with or without reconfiguration and churn — a run completes
/// and reports consistent numbers.
#[test]
fn all_algorithms_complete_and_report_sane_numbers() {
    forall(
        "all_algorithms_complete_and_report_sane_numbers",
        96,
        |rng| {
            let overlays = [
                OverlayKind::Tree,
                OverlayKind::BarabasiAlbert,
                OverlayKind::WattsStrogatz,
            ];
            let overlay = *rng.choose(&overlays).unwrap();
            // Watts–Strogatz needs its ring lattice: five nodes.
            let nodes = rng.random_range(if overlay.is_tree() { 2 } else { 5 }..40usize);
            // Each on in half the cases, at a drawn interval.
            let reconfig_ms = rng.random_bool(0.5).then(|| rng.random_range(100..1000u64));
            let churn_ms = rng.random_bool(0.5).then(|| rng.random_range(20..500u64));
            let config = ScenarioConfig {
                seed: rng.random_below(1000),
                nodes,
                overlay,
                max_degree: if overlay.is_tree() { 4 } else { 6 },
                clients_per_node: rng.random_range(1..4usize),
                link_error_rate: rng.random_range(0.0..0.3),
                buffer_size: rng.random_range(0..3000usize),
                publish_rate: 10.0,
                duration: SimTime::from_secs(2),
                warmup: SimTime::from_millis(200),
                cooldown: SimTime::from_millis(500),
                reconfig_interval: reconfig_ms.map(SimTime::from_millis),
                churn_interval: churn_ms.map(SimTime::from_millis),
                algorithm: *rng.choose(&Algorithm::all()).unwrap(),
                ..ScenarioConfig::default()
            };
            let kind = &config.algorithm;
            let r = run_scenario(&config);
            for rate in [r.delivery_rate, r.overall_delivery_rate, r.min_bin_rate] {
                assert!((0.0..=1.0).contains(&rate), "{kind}: rate {rate}");
            }
            assert!(r.min_bin_rate <= r.delivery_rate + 0.5);
            assert!(r
                .series
                .iter()
                .all(|&(_, rate)| (0.0..=1.0).contains(&rate)));
            assert!(!r.series.is_empty(), "{kind} produced no series");
            assert!(r.events_published > 0, "{kind} published nothing");
            assert!(r.events_retransmitted >= r.events_recovered);
            assert!(r.receivers_per_event <= nodes as f64);
            if *kind == Algorithm::no_recovery() {
                assert_eq!(r.gossip_msgs, 0);
            }
            if nodes >= 10 {
                assert!(r.event_msgs > 0, "{kind} forwarded nothing");
            }
        },
    );
}

#[test]
fn every_recovery_strategy_beats_the_baseline() {
    let baseline = run(Algorithm::no_recovery());
    for kind in Algorithm::paper() {
        if kind == Algorithm::no_recovery() {
            continue;
        }
        let r = run(kind);
        assert!(
            r.delivery_rate > baseline.delivery_rate + 0.02,
            "{kind}: {} vs baseline {}",
            r.delivery_rate,
            baseline.delivery_rate
        );
    }
}

#[test]
fn push_and_combined_are_the_best_strategies() {
    // The paper's headline finding (Fig. 3a): push and combined pull
    // achieve the highest delivery; each pull variant alone does not.
    let push = run(Algorithm::push()).delivery_rate;
    let combined = run(Algorithm::combined_pull()).delivery_rate;
    let subscriber = run(Algorithm::subscriber_pull()).delivery_rate;
    let publisher = run(Algorithm::publisher_pull()).delivery_rate;
    // At this reduced scale (N = 30) a single pull variant can tie the
    // combined one, so allow a small tolerance; the strict ordering at
    // N = 100 is checked by the fig3a/fig4 experiments.
    let best_single = subscriber.max(publisher);
    assert!(
        push >= best_single - 0.03,
        "push {push} well below best single pull {best_single}"
    );
    assert!(
        combined >= best_single - 0.03,
        "combined {combined} well below best single pull {best_single}"
    );
    assert!(push > 0.85, "push only reached {push}");
    assert!(combined > 0.85, "combined only reached {combined}");
}

#[test]
fn no_recovery_sends_no_recovery_traffic() {
    let r = run(Algorithm::no_recovery());
    assert_eq!(r.gossip_msgs, 0);
    assert_eq!(r.requests, 0);
    assert_eq!(r.replies, 0);
    assert_eq!(r.events_recovered, 0);
}

#[test]
fn recovered_events_show_up_in_both_counters() {
    let r = run(Algorithm::combined_pull());
    assert!(r.events_recovered > 0);
    assert!(
        r.events_retransmitted >= r.events_recovered,
        "retransmissions ({}) must cover recoveries ({})",
        r.events_retransmitted,
        r.events_recovered
    );
    assert!(r.replies > 0);
}

#[test]
fn push_uses_requests_and_pulls_do_not() {
    assert!(run(Algorithm::push()).requests > 0);
    assert_eq!(run(Algorithm::subscriber_pull()).requests, 0);
    assert_eq!(run(Algorithm::combined_pull()).requests, 0);
    assert_eq!(run(Algorithm::random_pull()).requests, 0);
}

#[test]
fn lower_error_rate_means_higher_delivery() {
    let lossy = run_scenario(&ScenarioConfig {
        link_error_rate: 0.1,
        ..small()
    });
    let mild = run_scenario(&ScenarioConfig {
        link_error_rate: 0.02,
        ..small()
    });
    assert!(mild.delivery_rate > lossy.delivery_rate);
}

#[test]
fn bigger_buffers_help_push() {
    let small_buf = run_scenario(&ScenarioConfig {
        buffer_size: 100,
        algorithm: Algorithm::push(),
        ..small()
    });
    let big_buf = run_scenario(&ScenarioConfig {
        buffer_size: 4000,
        algorithm: Algorithm::push(),
        ..small()
    });
    assert!(
        big_buf.delivery_rate > small_buf.delivery_rate,
        "beta=4000 ({}) should beat beta=100 ({})",
        big_buf.delivery_rate,
        small_buf.delivery_rate
    );
}

#[test]
fn faster_gossip_means_more_overhead_and_no_worse_delivery() {
    let slow = run_scenario(&ScenarioConfig {
        gossip_interval: SimTime::from_millis(60),
        algorithm: Algorithm::push(),
        ..small()
    });
    let fast = run_scenario(&ScenarioConfig {
        gossip_interval: SimTime::from_millis(10),
        algorithm: Algorithm::push(),
        ..small()
    });
    assert!(fast.gossip_msgs > slow.gossip_msgs);
    assert!(fast.delivery_rate >= slow.delivery_rate - 0.02);
}

#[test]
fn facade_reexports_compose() {
    // The facade's modules interoperate without importing the
    // underlying crates directly.
    use epidemic_pubsub::overlay::Topology;
    use epidemic_pubsub::pubsub::{Dispatcher, DispatcherConfig};
    use epidemic_pubsub::sim::RngFactory;

    let topo = Topology::build(
        OverlayKind::Tree,
        10,
        4,
        &mut RngFactory::new(1).stream("t"),
    );
    let d = Dispatcher::new(topo.nodes().next().unwrap(), DispatcherConfig::default());
    assert_eq!(d.id().index(), 0);
}

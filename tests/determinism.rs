//! Determinism: a scenario is a pure function of its configuration.
//! This is what lets the reproduction present single runs (the paper
//! reports 1-2% variation across seeds and also uses single runs).

use epidemic_pubsub::gossip::Algorithm;
use epidemic_pubsub::harness::{run_scenario, ScenarioConfig};
use epidemic_pubsub::sim::SimTime;

fn base(kind: Algorithm, seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        nodes: 25,
        duration: SimTime::from_secs(4),
        warmup: SimTime::from_millis(500),
        cooldown: SimTime::from_millis(500),
        publish_rate: 20.0,
        seed,
        algorithm: kind,
        ..ScenarioConfig::default()
    }
}

#[test]
fn every_algorithm_is_deterministic() {
    for kind in Algorithm::paper() {
        let a = run_scenario(&base(kind, 7));
        let b = run_scenario(&base(kind, 7));
        assert_eq!(a.delivery_rate, b.delivery_rate, "{kind}");
        assert_eq!(a.events_published, b.events_published, "{kind}");
        assert_eq!(a.event_msgs, b.event_msgs, "{kind}");
        assert_eq!(a.gossip_msgs, b.gossip_msgs, "{kind}");
        assert_eq!(a.requests, b.requests, "{kind}");
        assert_eq!(a.replies, b.replies, "{kind}");
        assert_eq!(a.events_recovered, b.events_recovered, "{kind}");
        assert_eq!(a.series, b.series, "{kind}");
    }
}

#[test]
fn reconfiguration_scenarios_are_deterministic() {
    let config = ScenarioConfig {
        link_error_rate: 0.0,
        reconfig_interval: Some(SimTime::from_millis(100)),
        ..base(Algorithm::combined_pull(), 11)
    };
    let a = run_scenario(&config);
    let b = run_scenario(&config);
    assert_eq!(a.reconfigurations, b.reconfigurations);
    assert_eq!(a.delivery_rate, b.delivery_rate);
    assert_eq!(a.series, b.series);
}

#[test]
fn seeds_produce_distinct_but_similar_runs() {
    // The paper: "variations are limited, around 1%-2%" across seeds.
    // On our reduced scale, allow a few points of spread.
    let rates: Vec<f64> = (1..=5)
        .map(|seed| run_scenario(&base(Algorithm::combined_pull(), seed)).delivery_rate)
        .collect();
    let min = rates.iter().copied().fold(f64::INFINITY, f64::min);
    let max = rates.iter().copied().fold(0.0f64, f64::max);
    assert!(max > min, "different seeds should differ somewhere");
    assert!(max - min < 0.12, "seed variation too large: {rates:?}");
}

#[test]
fn unrelated_parameters_do_not_perturb_the_workload() {
    // Changing the gossip interval must not change what gets
    // published (stream separation): the published-event count and
    // the intended-recipient statistics stay identical.
    let a = run_scenario(&base(Algorithm::push(), 3));
    let b = run_scenario(&ScenarioConfig {
        gossip_interval: SimTime::from_millis(50),
        ..base(Algorithm::push(), 3)
    });
    assert_eq!(a.events_published, b.events_published);
    assert_eq!(a.receivers_per_event, b.receivers_per_event);
}

#[test]
fn buffer_size_does_not_perturb_the_workload_either() {
    let a = run_scenario(&base(Algorithm::combined_pull(), 3));
    let b = run_scenario(&ScenarioConfig {
        buffer_size: 4000,
        ..base(Algorithm::combined_pull(), 3)
    });
    assert_eq!(a.events_published, b.events_published);
    assert_eq!(a.receivers_per_event, b.receivers_per_event);
    // (event_msgs is NOT compared: gossip and event messages share the
    // physical links, so a different recovery load legitimately shifts
    // which event messages the loss stream drops.)
}

//! Black-box behavior tests of the scenario runner: loss, recovery,
//! reconfiguration, and determinism, all through the public
//! [`run_scenario`] API.

use eps_gossip::Algorithm;
use eps_harness::{run_scenario, ScenarioConfig};
use eps_sim::check::forall;
use eps_sim::SimTime;

fn small(algorithm: Algorithm) -> ScenarioConfig {
    ScenarioConfig {
        nodes: 25,
        duration: SimTime::from_secs(4),
        warmup: SimTime::from_millis(500),
        cooldown: SimTime::from_secs(1),
        publish_rate: 20.0,
        algorithm,
        ..ScenarioConfig::default()
    }
}

/// Zero loss and no reconfiguration means perfect delivery under
/// every registered algorithm: recovery never *breaks* dispatching.
#[test]
fn lossless_network_delivers_everything() {
    forall("lossless_network_delivers_everything", 32, |rng| {
        let kind = *rng.choose(&Algorithm::all()).unwrap();
        let config = ScenarioConfig {
            seed: rng.random_below(1000),
            nodes: rng.random_range(2..30usize),
            link_error_rate: 0.0,
            publish_rate: 10.0,
            duration: SimTime::from_secs(2),
            warmup: SimTime::from_millis(200),
            cooldown: SimTime::from_millis(500),
            ..small(kind)
        };
        let result = run_scenario(&config);
        assert!(
            result.delivery_rate > 0.999,
            "lossless delivery was {} under {kind}",
            result.delivery_rate
        );
        if kind == Algorithm::no_recovery() {
            assert_eq!(result.gossip_msgs, 0);
            assert_eq!(result.requests, 0);
        }
    });
}

#[test]
fn lossy_baseline_loses_events() {
    let result = run_scenario(&small(Algorithm::no_recovery()));
    assert!(
        result.delivery_rate < 0.95,
        "expected losses, got {}",
        result.delivery_rate
    );
    assert!(result.events_published > 0);
}

#[test]
fn recovery_beats_no_recovery() {
    let baseline = run_scenario(&small(Algorithm::no_recovery()));
    for kind in [
        Algorithm::push(),
        Algorithm::subscriber_pull(),
        Algorithm::combined_pull(),
    ] {
        let recovered = run_scenario(&small(kind));
        assert!(
            recovered.delivery_rate > baseline.delivery_rate,
            "{kind}: {} <= baseline {}",
            recovered.delivery_rate,
            baseline.delivery_rate
        );
        assert!(recovered.gossip_msgs > 0, "{kind} sent no gossip");
    }
}

#[test]
fn same_seed_same_result() {
    let config = small(Algorithm::combined_pull());
    let a = run_scenario(&config);
    let b = run_scenario(&config);
    assert_eq!(a.delivery_rate, b.delivery_rate);
    assert_eq!(a.gossip_msgs, b.gossip_msgs);
    assert_eq!(a.events_published, b.events_published);
    assert_eq!(a.series, b.series);
}

#[test]
fn different_seeds_differ() {
    let a = run_scenario(&small(Algorithm::push()));
    let b = run_scenario(&ScenarioConfig {
        seed: 999,
        ..small(Algorithm::push())
    });
    assert_ne!(a.events_published, b.events_published);
}

#[test]
fn reconfigurations_happen_and_recover() {
    let config = ScenarioConfig {
        link_error_rate: 0.0,
        reconfig_interval: Some(SimTime::from_millis(200)),
        ..small(Algorithm::no_recovery())
    };
    let result = run_scenario(&config);
    assert!(result.reconfigurations >= 10);
    // Reconfigurations lose some events but the network keeps
    // working.
    assert!(result.delivery_rate > 0.5);
    assert!(result.delivery_rate < 1.0);
}

#[test]
fn recovery_masks_reconfiguration_losses() {
    let base = ScenarioConfig {
        link_error_rate: 0.0,
        reconfig_interval: Some(SimTime::from_millis(200)),
        ..small(Algorithm::no_recovery())
    };
    let no_rec = run_scenario(&base);
    let push = run_scenario(&base.with_algorithm(Algorithm::push()));
    assert!(push.delivery_rate >= no_rec.delivery_rate);
    assert!(push.min_bin_rate >= no_rec.min_bin_rate);
}

#[test]
fn zero_publish_rate_is_quiet() {
    let config = ScenarioConfig {
        publish_rate: 0.0,
        ..small(Algorithm::combined_pull())
    };
    let result = run_scenario(&config);
    assert_eq!(result.events_published, 0);
    assert_eq!(result.delivery_rate, 1.0);
}

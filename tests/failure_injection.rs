//! Failure injection: the system must stay correct (never panic,
//! never report impossible numbers) under hostile configurations the
//! paper does not exercise directly.

use epidemic_pubsub::gossip::{Algorithm, GossipConfig};
use epidemic_pubsub::harness::{run_scenario, ScenarioConfig};
use epidemic_pubsub::overlay::OutOfBandSpec;
use epidemic_pubsub::sim::SimTime;

fn base(kind: Algorithm) -> ScenarioConfig {
    ScenarioConfig {
        nodes: 20,
        duration: SimTime::from_secs(3),
        warmup: SimTime::from_millis(500),
        cooldown: SimTime::from_millis(500),
        publish_rate: 20.0,
        algorithm: kind,
        ..ScenarioConfig::default()
    }
}

#[test]
fn lossy_out_of_band_channel_degrades_gracefully() {
    // The paper assumes the unicast transport is "not necessarily
    // reliable": losing half the requests/replies must reduce, not
    // break, recovery.
    let reliable = run_scenario(&base(Algorithm::combined_pull()));
    let lossy_oob = run_scenario(&ScenarioConfig {
        out_of_band: OutOfBandSpec {
            loss_rate: 0.5,
            ..OutOfBandSpec::default()
        },
        ..base(Algorithm::combined_pull())
    });
    let baseline = run_scenario(&base(Algorithm::no_recovery()));
    assert!(lossy_oob.delivery_rate <= reliable.delivery_rate + 0.01);
    assert!(
        lossy_oob.delivery_rate > baseline.delivery_rate,
        "even a lossy recovery channel should help: {} vs {}",
        lossy_oob.delivery_rate,
        baseline.delivery_rate
    );
}

#[test]
fn fully_lossy_out_of_band_channel_equals_no_recovery_delivery() {
    let dead_oob = run_scenario(&ScenarioConfig {
        out_of_band: OutOfBandSpec {
            loss_rate: 1.0,
            ..OutOfBandSpec::default()
        },
        ..base(Algorithm::subscriber_pull())
    });
    assert_eq!(dead_oob.events_recovered, 0);
}

#[test]
fn zero_capacity_buffers_disable_recovery_but_not_dispatching() {
    let r = run_scenario(&ScenarioConfig {
        buffer_size: 0,
        ..base(Algorithm::combined_pull())
    });
    assert!(r.events_published > 0);
    assert!(r.delivery_rate > 0.2, "dispatching itself must still work");
    assert_eq!(r.events_recovered, 0, "nothing cached, nothing recovered");
}

#[test]
fn tiny_buffers_still_recover_something() {
    let r = run_scenario(&ScenarioConfig {
        buffer_size: 20,
        ..base(Algorithm::combined_pull())
    });
    assert!(r.events_recovered > 0);
}

#[test]
fn extreme_forward_probabilities_are_safe() {
    for p_forward in [0.0, 1.0] {
        let r = run_scenario(&ScenarioConfig {
            gossip: GossipConfig {
                p_forward,
                ..GossipConfig::default()
            },
            ..base(Algorithm::push())
        });
        assert!((0.0..=1.0).contains(&r.delivery_rate));
        assert!(r.gossip_msgs > 0);
    }
}

#[test]
fn p_source_extremes_select_a_single_pull_variant() {
    // p_source = 0 makes combined pull behave like subscriber pull;
    // p_source = 1 steers every round at the publisher (with
    // subscriber fallback when no route is known).
    for p_source in [0.0, 1.0] {
        let r = run_scenario(&ScenarioConfig {
            gossip: GossipConfig {
                p_source,
                ..GossipConfig::default()
            },
            ..base(Algorithm::combined_pull())
        });
        assert!(
            r.events_recovered > 0,
            "p_source={p_source} recovered nothing"
        );
    }
}

#[test]
fn total_link_loss_delivers_only_local_events() {
    let r = run_scenario(&ScenarioConfig {
        link_error_rate: 1.0,
        ..base(Algorithm::no_recovery())
    });
    // Publishers still deliver to their own local subscribers; nothing
    // crosses any link.
    assert!(r.delivery_rate < 0.3, "rate {} too high", r.delivery_rate);
}

#[test]
fn gossip_with_total_link_loss_cannot_recover_anything() {
    // Gossip digests travel the same lossy links; only out-of-band
    // replies could arrive, but no digest ever reaches anyone.
    let r = run_scenario(&ScenarioConfig {
        link_error_rate: 1.0,
        ..base(Algorithm::push())
    });
    assert_eq!(r.events_recovered, 0);
}

#[test]
fn violent_reconfiguration_storm_survives() {
    // Break a link every 10 ms with a 100 ms repair delay: the overlay
    // spends the whole run fragmented. The system must stay alive and
    // deliver what physics allows.
    let r = run_scenario(&ScenarioConfig {
        link_error_rate: 0.0,
        reconfig_interval: Some(SimTime::from_millis(10)),
        ..base(Algorithm::combined_pull())
    });
    assert!(r.reconfigurations > 100);
    assert!(r.delivery_rate > 0.1);
}

#[test]
fn single_node_network_is_a_degenerate_but_valid_case() {
    let r = run_scenario(&ScenarioConfig {
        nodes: 1,
        ..base(Algorithm::combined_pull())
    });
    // One dispatcher: everything it publishes for itself arrives.
    assert_eq!(r.delivery_rate, 1.0);
    assert_eq!(r.event_msgs, 0);
}

#[test]
fn two_node_network_works_for_every_algorithm() {
    for kind in Algorithm::paper() {
        let r = run_scenario(&ScenarioConfig {
            nodes: 2,
            ..base(kind)
        });
        assert!(
            (0.0..=1.0).contains(&r.delivery_rate),
            "{kind} on 2 nodes: {}",
            r.delivery_rate
        );
    }
}

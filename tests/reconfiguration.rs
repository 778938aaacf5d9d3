//! Integration tests of the reconfiguration machinery interacting
//! with recovery: stale routes, fragmentation windows, and the
//! combination of link loss and topology churn.

use epidemic_pubsub::gossip::Algorithm;
use epidemic_pubsub::harness::{run_scenario, run_scenario_traced, ScenarioConfig, TraceRecord};
use epidemic_pubsub::sim::SimTime;

fn base(kind: Algorithm) -> ScenarioConfig {
    ScenarioConfig {
        nodes: 30,
        duration: SimTime::from_secs(5),
        warmup: SimTime::from_secs(1),
        cooldown: SimTime::from_secs(1),
        publish_rate: 20.0,
        link_error_rate: 0.0,
        reconfig_interval: Some(SimTime::from_millis(200)),
        algorithm: kind,
        ..ScenarioConfig::default()
    }
}

#[test]
fn non_overlapping_reconfigurations_run_to_schedule() {
    let r = run_scenario(&base(Algorithm::no_recovery()));
    // 5 s run, one break every 0.2 s until ticks stop renewing.
    assert!(
        (15..=25).contains(&r.reconfigurations),
        "got {} reconfigurations",
        r.reconfigurations
    );
}

#[test]
fn losses_cluster_around_reconfigurations() {
    // With reliable links, the only losses are reconfiguration
    // windows: the worst bin must be clearly below the average.
    let r = run_scenario(&base(Algorithm::no_recovery()));
    assert!(r.delivery_rate < 1.0);
    assert!(
        r.min_bin_rate < r.delivery_rate - 0.02,
        "expected spiky losses: min {} vs avg {}",
        r.min_bin_rate,
        r.delivery_rate
    );
}

#[test]
fn publisher_pull_survives_stale_routes() {
    // Publisher-based pull steers digests along recorded routes that
    // reconfigurations keep invalidating; it must still recover
    // events rather than wedging or panicking.
    let r = run_scenario(&base(Algorithm::publisher_pull()));
    let baseline = run_scenario(&base(Algorithm::no_recovery()));
    assert!(r.events_recovered > 0, "no recovery despite losses");
    assert!(r.delivery_rate >= baseline.delivery_rate);
}

#[test]
fn combined_pull_masks_reconfigurations_almost_completely() {
    let r = run_scenario(&base(Algorithm::combined_pull()));
    assert!(
        r.delivery_rate > 0.95,
        "combined pull delivered only {}",
        r.delivery_rate
    );
    // At N = 30 a pattern averages < 1 subscriber, so pull steering
    // has little to work with; the paper-scale (N = 100) "leveling to
    // ~100%" claim is checked by the fig3b experiment instead. Here we
    // only require the worst spike to be clearly softened.
    let baseline = run_scenario(&base(Algorithm::no_recovery()));
    assert!(
        r.min_bin_rate > baseline.min_bin_rate,
        "negative spikes not softened: {} vs baseline {}",
        r.min_bin_rate,
        baseline.min_bin_rate
    );
}

#[test]
fn overlapping_reconfigurations_fragment_and_heal() {
    let config = ScenarioConfig {
        reconfig_interval: Some(SimTime::from_millis(30)),
        ..base(Algorithm::push())
    };
    let (r, trace) = run_scenario_traced(&config, 2_000_000);
    let breaks = trace
        .records()
        .iter()
        .filter(|t| matches!(t, TraceRecord::LinkBroken { .. }))
        .count();
    let adds = trace
        .records()
        .iter()
        .filter(|t| matches!(t, TraceRecord::LinkAdded { .. }))
        .count();
    assert!(breaks > 100, "expected an overlapping storm, got {breaks}");
    // Every break is eventually matched by a reconnection (the 0.1 s
    // repair delay means the last few may still be pending at the
    // instant ticks stop, never more than REPAIR_DELAY/rho + 1 worth).
    assert!(adds >= breaks - 5, "breaks {breaks} vs adds {adds}");
    assert!(
        r.delivery_rate > 0.8,
        "push delivered only {}",
        r.delivery_rate
    );
}

#[test]
fn loss_and_reconfiguration_compose() {
    // Both loss sources at once: lossy links *and* topology churn.
    let config = ScenarioConfig {
        link_error_rate: 0.05,
        ..base(Algorithm::combined_pull())
    };
    let with_recovery = run_scenario(&config);
    let without = run_scenario(&config.with_algorithm(Algorithm::no_recovery()));
    assert!(with_recovery.delivery_rate > without.delivery_rate + 0.05);
}

#[test]
fn repair_heals_delivery_after_the_last_break() {
    // After reconfigurations stop, late bins return to full delivery.
    let config = ScenarioConfig {
        duration: SimTime::from_secs(6),
        reconfig_interval: Some(SimTime::from_secs(10)), // beyond the run
        ..base(Algorithm::no_recovery())
    };
    let r = run_scenario(&config);
    assert_eq!(r.reconfigurations, 0, "rho beyond duration never fires");
    assert!(r.delivery_rate > 0.999);
}

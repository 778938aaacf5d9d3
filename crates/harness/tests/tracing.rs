//! White-box tests through the scenario trace: the trace must be
//! consistent with the metrics, and tracing must not perturb the run.

use eps_gossip::Algorithm;
use eps_harness::{run_scenario, run_scenario_traced, ScenarioConfig, TraceRecord};
use eps_sim::SimTime;
use std::collections::HashSet;

fn base(kind: Algorithm) -> ScenarioConfig {
    ScenarioConfig {
        nodes: 20,
        duration: SimTime::from_secs(3),
        warmup: SimTime::from_millis(500),
        cooldown: SimTime::from_millis(500),
        publish_rate: 15.0,
        algorithm: kind,
        ..ScenarioConfig::default()
    }
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    let config = base(Algorithm::combined_pull());
    let plain = run_scenario(&config);
    let (traced, _) = run_scenario_traced(&config, 1_000_000);
    assert_eq!(plain, traced);
}

#[test]
fn trace_agrees_with_the_metrics() {
    let config = base(Algorithm::combined_pull());
    let (result, trace) = run_scenario_traced(&config, 2_000_000);
    assert_eq!(trace.dropped(), 0, "trace capacity too small for test");

    let mut publishes = 0u64;
    let mut deliveries = 0u64;
    let mut recovered = 0u64;
    let mut published_ids = HashSet::new();
    for record in trace.records() {
        match *record {
            TraceRecord::Publish { event, .. } => {
                publishes += 1;
                assert!(published_ids.insert(event), "event published twice");
            }
            TraceRecord::Deliver {
                event,
                recovered: r,
                ..
            } => {
                deliveries += 1;
                if r {
                    recovered += 1;
                }
                assert!(published_ids.contains(&event), "delivered before published");
            }
            _ => {}
        }
    }
    assert_eq!(publishes, result.events_published);
    assert_eq!(recovered, result.events_recovered);
    assert!(deliveries > 0);
}

#[test]
fn deliveries_never_precede_their_publish_in_time() {
    let config = base(Algorithm::push());
    let (_, trace) = run_scenario_traced(&config, 2_000_000);
    let mut publish_time = std::collections::HashMap::new();
    for record in trace.records() {
        match *record {
            TraceRecord::Publish { at, event, .. } => {
                publish_time.insert(event, at);
            }
            TraceRecord::Deliver { at, event, .. } => {
                let t0 = publish_time[&event];
                assert!(at >= t0, "delivery at {at} before publish at {t0}");
            }
            _ => {}
        }
    }
}

/// Link records come from the coordinator, everything else from the
/// nodes: both must land in the one log, in time order.
#[test]
fn reconfigurations_appear_in_the_trace_in_order_and_in_break_repair_pairs() {
    let config = ScenarioConfig {
        link_error_rate: 0.0,
        reconfig_interval: Some(SimTime::from_millis(300)),
        ..base(Algorithm::no_recovery())
    };
    let (result, trace) = run_scenario_traced(&config, 2_000_000);
    let breaks = trace
        .records()
        .iter()
        .filter(|r| matches!(r, TraceRecord::LinkBroken { .. }))
        .count() as u64;
    let adds = trace
        .records()
        .iter()
        .filter(|r| matches!(r, TraceRecord::LinkAdded { .. }))
        .count() as u64;
    assert_eq!(breaks, result.reconfigurations);
    assert_eq!(adds, breaks, "every break must be repaired");
    assert_eq!(trace.dropped(), 0, "trace capacity too small for test");
    assert!(
        trace.records().windows(2).all(|w| w[0].at() <= w[1].at()),
        "record times must be non-decreasing"
    );
    assert!(trace
        .records()
        .iter()
        .any(|r| matches!(r, TraceRecord::Deliver { .. })));
}

#[test]
fn recovered_deliveries_only_happen_with_recovery_enabled() {
    let (_, trace) = run_scenario_traced(&base(Algorithm::no_recovery()), 2_000_000);
    assert!(trace.records().iter().all(|r| !matches!(
        r,
        TraceRecord::Deliver {
            recovered: true,
            ..
        }
    )));
}

#[test]
fn tiny_trace_capacity_drops_but_does_not_fail() {
    let (result, trace) = run_scenario_traced(&base(Algorithm::combined_pull()), 10);
    assert_eq!(trace.len(), 10);
    assert!(trace.dropped() > 0);
    assert!(result.events_published > 0);
}

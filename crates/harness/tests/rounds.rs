//! The rounds oracle: at a fixed gossip interval `T`, a run's rounds
//! are exactly each node's schedule, `gossip_phase + kT` for every
//! `k` with that instant before the end of the run — whether the clock
//! fired a round or parked it and replayed it later.
//!
//! [`RunStats::gossip_rounds`] sums the rounds every node ran. A node
//! runs a round only at the next instant of its schedule and moves the
//! schedule on by `T` each time, so no node can run more rounds than
//! its schedule holds: the sum equals the schedules' total only if
//! every node ran every one of its rounds.

use eps_gossip::Algorithm;
use eps_harness::{gossip_phase, run_scenario_with_stats, RunStats, ScenarioConfig};
use eps_overlay::{NodeId, OverlayKind};
use eps_sim::{RngFactory, SimTime};

/// The rounds before `config.duration` on every node's schedule.
fn scheduled_rounds(config: &ScenarioConfig) -> u64 {
    let factory = RngFactory::new(config.seed);
    let interval = config.gossip_interval;
    (0..config.nodes as u32)
        .map(|i| {
            let phase = gossip_phase(&factory, NodeId::new(i), interval);
            (0..)
                .map(|k| phase + interval.saturating_mul(k))
                .take_while(|&at| at < config.duration)
                .count() as u64
        })
        .sum()
}

/// Nearly every round sends nothing: 200 dispatchers over 4096
/// patterns at one event per second each.
fn sparse() -> ScenarioConfig {
    ScenarioConfig {
        nodes: 200,
        pattern_universe: 4096,
        publish_rate: 1.0,
        duration: SimTime::from_secs(2),
        warmup: SimTime::from_millis(300),
        cooldown: SimTime::from_millis(300),
        ..ScenarioConfig::default()
    }
}

/// The sparse cell under subscription churn and link breaks, on the
/// tree and on a cyclic overlay, whose repairs rebuild every route:
/// a coordinator change first catches up the nodes whose rounds read
/// what it changes, and debug builds check that no parked round is
/// replayed on a table or neighborhood its plan did not see.
fn sparse_with_coordinator(overlay: OverlayKind) -> ScenarioConfig {
    ScenarioConfig {
        overlay,
        churn_interval: Some(SimTime::from_millis(20)),
        reconfig_interval: Some(SimTime::from_millis(200)),
        duration: SimTime::from_secs(1),
        ..sparse()
    }
}

/// The paper's Fig. 2 cell, shortened: nearly every round sends.
fn fig2() -> ScenarioConfig {
    ScenarioConfig {
        duration: SimTime::from_millis(500),
        warmup: SimTime::from_millis(100),
        cooldown: SimTime::from_millis(100),
        ..ScenarioConfig::default()
    }
}

/// A run shorter than one interval: a node whose phase falls past the
/// end runs no round at all.
fn shorter_than_one_interval() -> ScenarioConfig {
    ScenarioConfig {
        nodes: 40,
        duration: SimTime::from_millis(20),
        warmup: SimTime::from_millis(5),
        cooldown: SimTime::from_millis(5),
        ..ScenarioConfig::default()
    }
}

/// Runs every algorithm on each cell and checks its rounds against
/// the schedule.
fn assert_rounds_match_the_schedule(cells: &[(&str, ScenarioConfig)]) {
    for (label, base) in cells {
        for algorithm in Algorithm::all() {
            let config = ScenarioConfig {
                algorithm,
                ..base.clone()
            };
            let (_, stats): (_, RunStats) = run_scenario_with_stats(&config);
            assert_eq!(
                stats.gossip_rounds,
                scheduled_rounds(&config),
                "{label}, {algorithm}"
            );
            assert!(
                stats.rounds_elided <= stats.gossip_rounds,
                "{label}, {algorithm}"
            );
        }
    }
}

#[test]
fn every_node_runs_exactly_the_rounds_of_its_schedule() {
    assert_rounds_match_the_schedule(&[
        ("sparse", sparse()),
        ("fig2", fig2()),
        ("shorter than T", shorter_than_one_interval()),
    ]);
    // Some nodes of the short cell have a phase past its end.
    let short = shorter_than_one_interval();
    assert!(scheduled_rounds(&short) < short.nodes as u64);
}

#[test]
fn coordinator_changes_leave_the_rounds_of_the_schedule() {
    assert_rounds_match_the_schedule(&[
        (
            "sparse, churn and breaks",
            sparse_with_coordinator(OverlayKind::Tree),
        ),
        (
            "sparse, churn and breaks, WS overlay",
            ScenarioConfig {
                max_degree: 6,
                ..sparse_with_coordinator(OverlayKind::WattsStrogatz)
            },
        ),
    ]);
}

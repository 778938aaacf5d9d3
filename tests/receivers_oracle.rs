//! Figure 7's oracle: on a loss-free network the mean number of
//! dispatchers an event is for is `N · (1 − (1 − π_max/Π)^k)`, the
//! closed form `ScenarioConfig::match_probability` computes once for
//! both `fig6` and `fig7`.

use epidemic_pubsub::gossip::Algorithm;
use epidemic_pubsub::harness::{run_scenario, ScenarioConfig};
use epidemic_pubsub::sim::SimTime;

/// Largest accepted gap between the measured and the closed-form mean,
/// in receivers per event. Over seeds 1–10 at both `π_max` values
/// below, the one-second cells measured within 0.12 of it (seed 2,
/// `π_max` = 30: 81.23 against 81.34). Event content one pattern
/// short moves the mean far outside it: at `π_max` = 5 such a run
/// measured 13.83 against 19.93, and at `π_max` = 30 the closed form
/// itself drops from 81.3 to 67.3.
const TOLERANCE: f64 = 0.5;

/// A reduced Figure 7 cell: the no-recovery baseline on a loss-free
/// network, as `fig7::run` builds it, over one second of publishing.
fn cell(pi_max: usize) -> ScenarioConfig {
    ScenarioConfig {
        pi_max,
        link_error_rate: 0.0,
        duration: SimTime::from_secs(1),
        warmup: SimTime::from_millis(200),
        cooldown: SimTime::from_millis(200),
        ..ScenarioConfig::default().with_algorithm(Algorithm::no_recovery())
    }
}

#[test]
fn receivers_per_event_follow_the_closed_form() {
    for pi_max in [5, 30] {
        let config = cell(pi_max);
        let expected = config.nodes as f64 * config.match_probability();
        let measured = run_scenario(&config).receivers_per_event;
        assert!(
            (measured - expected).abs() <= TOLERANCE,
            "pi_max = {pi_max}: {measured:.3} receivers per event, closed form {expected:.3}"
        );
    }
}

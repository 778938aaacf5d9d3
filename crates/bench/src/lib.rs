//! # eps-bench — benchmark support
//!
//! Shared miniature configurations plus a zero-dependency wall-clock
//! [`timing`] harness. The real, paper-scale figures are regenerated
//! by the `repro` binary in `eps-harness`; the benches here run
//! *miniatures* of each figure's distinctive configuration so that
//! benchmarking finishes in minutes while still exercising every
//! experiment code path and tracking the simulator's performance over
//! time.
//!
//! Three binaries: `microbench` covers the kernel hot paths (engine
//! schedule/pop, subscription-table matching, loss-detector
//! recording, cache digest reads, event cloning, the RNG) plus one
//! miniature end-to-end run, writing `BENCH_kernel.json` and
//! `BENCH_gossip.json`; `scenario_bench` times full miniature
//! Figure 2 and Figure 3(b) runs per paper algorithm into
//! `BENCH_scenario.json`; `bench_compare` diffs fresh results against
//! the committed baselines and flags regressions past a configurable
//! threshold. `scripts/tier1.sh` chains all three in advisory mode.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod timing;

use eps_gossip::Algorithm;
use eps_harness::ScenarioConfig;
use eps_sim::SimTime;

/// A miniature of the paper's default scenario: 20 dispatchers,
/// 1.5 virtual seconds, the Figure 2 parameters otherwise.
pub fn mini(algorithm: Algorithm) -> ScenarioConfig {
    ScenarioConfig {
        nodes: 20,
        publish_rate: 25.0,
        duration: SimTime::from_secs_f64(1.5),
        warmup: SimTime::from_millis(200),
        cooldown: SimTime::from_millis(300),
        algorithm,
        ..ScenarioConfig::default()
    }
}

/// A miniature reconfiguration scenario (Figure 3(b)).
pub fn mini_reconfig(algorithm: Algorithm, rho: SimTime) -> ScenarioConfig {
    ScenarioConfig {
        link_error_rate: 0.0,
        reconfig_interval: Some(rho),
        ..mini(algorithm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mini_configs_are_valid() {
        mini(Algorithm::push()).validate();
        mini_reconfig(Algorithm::combined_pull(), SimTime::from_millis(100)).validate();
    }
}

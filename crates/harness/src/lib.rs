//! # eps-harness — the experiment harness
//!
//! Assembles the kernel (`eps-sim`), overlay (`eps-overlay`),
//! publish-subscribe substrate (`eps-pubsub`), recovery algorithms
//! (`eps-gossip`) and metrics (`eps-metrics`) into runnable scenarios,
//! and regenerates every figure of the paper's evaluation section.
//!
//! - [`ScenarioConfig`] — one run's parameters (defaults = the paper's
//!   Figure 2);
//! - [`run_scenario`] — executes a run deterministically and returns a
//!   [`ScenarioResult`];
//! - [`run_scenario_with_stats`] — the same run, also reporting how
//!   many events it processed and how long set-up and the loop took;
//!   one thread carries a run to 10⁵ dispatchers, and
//!   [`parallel::par_map`] spreads independent runs over the cores;
//! - [`experiments`] — one driver per paper figure (3a, 3b, 4, 5, 6,
//!   7, 8, 9, 10), each printing the series the paper plots and
//!   writing CSVs under `results/`.
//!
//! The `repro` binary exposes all of this on the command line:
//!
//! ```text
//! cargo run --release -p eps-harness --bin repro -- all --quick
//! cargo run --release -p eps-harness --bin repro -- fig3a
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
pub mod experiments;
pub mod node;
pub mod parallel;
pub mod population;
mod result;
mod runner;
mod trace;

pub use config::{AdaptiveGossip, ScenarioConfig};
pub use node::{charge_send, routing_stats, NodeCtx, Outgoing, SimNode};
pub use population::{build_population, Population};
pub use result::{assemble, RoutingStats, ScenarioResult};
pub use runner::{run_scenario, run_scenario_traced, run_scenario_with_stats, RunStats};
pub use trace::{ScenarioTrace, TraceRecord};

// Compatibility block. Only `benchmark/src/sim.rs` uses these two
// names (and `RunStats::windows`), and `benchmark/` is frozen between
// benchmark PRs; ROADMAP item 1(c) is the PR that deletes this block.
#[doc(hidden)]
pub type ShardedRunStats = RunStats;
#[doc(hidden)]
pub fn run_scenario_sharded_with_stats(
    config: &ScenarioConfig,
    shards: usize,
) -> (ScenarioResult, RunStats) {
    assert_eq!(shards, 1, "the runner is single-threaded");
    run_scenario_with_stats(config)
}

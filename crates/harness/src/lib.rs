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
//! - [`run_scenario_sharded`] — the same run with its node population
//!   partitioned across worker threads under a conservative
//!   time-window barrier; bit-identical to [`run_scenario`] for every
//!   shard count, built for 10⁵–10⁶ nodes;
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
mod sharded;
mod trace;

pub use config::{AdaptiveGossip, ScenarioConfig};
pub use node::{routing_stats, NodeCtx, Outgoing, SimNode};
pub use population::{build_population, Population};
pub use result::{assemble, RoutingStats, ScenarioResult};
pub use sharded::{
    run_scenario, run_scenario_sharded, run_scenario_sharded_with_stats, run_scenario_traced,
    ShardedRunStats,
};
pub use trace::{ScenarioTrace, TraceRecord};

//! # eps-net — the real-socket runtime
//!
//! Runs the reproduction's dispatcher + gossip stack (`eps-pubsub`,
//! `eps-gossip`, the harness's `SimNode` actor) over real sockets:
//! TCP tree links, a UDP out-of-band recovery channel, wall-clock
//! timers — every dispatcher of a process multiplexed onto a few
//! epoll worker threads ([`reactor`]), all on loopback by default.
//!
//! Three properties make it more than a demo:
//!
//! 1. **One codec, one byte accounting.** Every envelope crosses the
//!    wire through `eps_gossip::codec`, whose framed size *equals* the
//!    simulator's `wire_bits` by construction (asserted on every
//!    send). Simulated byte counts and on-the-wire bytes cannot
//!    drift apart.
//! 2. **One population.** The overlay tree, subscriptions, and
//!    per-node workload streams come from the harness's shared
//!    `build_population`, so the same seed publishes the same events
//!    here and in the simulator — the basis of the cross-validation
//!    tests in `tests/crossval.rs`.
//! 3. **One result schema.** A run is assembled into the simulator's
//!    [`eps_harness::ScenarioResult`] through the same code path,
//!    with the socket-layer [`eps_metrics::NetCounters`] appended.
//!
//! # Examples
//!
//! ```no_run
//! use eps_net::{run_reactor_cluster, NetConfig};
//! use eps_harness::ScenarioConfig;
//! use eps_gossip::Algorithm;
//! use eps_sim::SimTime;
//!
//! let config = NetConfig {
//!     scenario: ScenarioConfig {
//!         nodes: 3,
//!         publish_rate: 10.0,
//!         duration: SimTime::from_millis(500),
//!         warmup: SimTime::from_millis(100),
//!         cooldown: SimTime::from_millis(100),
//!         algorithm: Algorithm::push(),
//!         ..ScenarioConfig::default()
//!     },
//!     ..NetConfig::default()
//! };
//! let report = run_reactor_cluster(config, 2).expect("sockets available");
//! println!("delivery rate: {}", report.result.overall_delivery_rate);
//! ```

// `unsafe` is denied crate-wide, with exactly one exemption: the
// `syscalls` module, which holds the raw `epoll`/`timerfd` syscall
// shims the reactor runtime is built on (the zero-dependency stance
// rules out the libc crate). Everything above that module — including
// the whole reactor — stays safe code.
#![warn(missing_docs)]
#![deny(unsafe_code)]

mod cluster;
mod core;
pub mod frame;
pub mod reactor;
mod syscalls;

pub use cluster::{DeliveryLatency, NetConfig, NetRunReport, NodeAddrs};
pub use reactor::{run_process_node, run_reactor_cluster, ReactorCluster};

//! # eps-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the substrate that replaces OMNeT++ in the
//! reproduction of *“Epidemic Algorithms for Reliable Content-Based
//! Publish-Subscribe: An Evaluation”* (Costa et al., ICDCS 2004).
//!
//! It provides exactly what the evaluation needs and nothing more:
//!
//! - [`SimTime`] — integer-nanosecond virtual time;
//! - [`KeyedEngine`] — the pending-event queue, generic over the
//!   message type: events fire in `(time, key)` order, the key being
//!   supplied by the caller as a pure function of the event, so the
//!   execution order never depends on scheduling order;
//! - [`Rng`] / [`RngFactory`] — an in-tree xoshiro256++ generator and
//!   named, independent, seed-stable random streams, so parameter
//!   sweeps do not perturb unrelated random choices (and the build
//!   needs no external crates);
//! - [`Summary`], [`RatioSeries`], [`quantile_in_place`] — the statistics
//!   helpers used to build the paper's delivery-rate and overhead
//!   figures;
//! - [`hash::IdMap`] / [`hash::IdSet`] — hash tables on a seeded
//!   one-multiply integer hasher, for the maps the event path probes
//!   but never iterates (on such keys std's SipHash costs more than
//!   the rest of the probe);
//! - [`check::forall`] / [`check::replay`] — the workspace's property
//!   harness: a test closure run over seeded [`Rng`] streams, the
//!   failing seed printed for replay.
//!
//! # Examples
//!
//! A tiny two-node ping-pong simulation:
//!
//! ```
//! use eps_sim::{KeyedEngine, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Msg { Ping, Pong }
//!
//! // Keyed by a send counter: same-instant events fire in send order.
//! let mut engine = KeyedEngine::new();
//! engine.schedule_at(SimTime::from_millis(1), 0u64, Msg::Ping);
//! let mut log = Vec::new();
//! while let Some((t, key, msg)) = engine.pop() {
//!     log.push((t, format!("{msg:?}")));
//!     if msg == Msg::Ping && t < SimTime::from_millis(3) {
//!         engine.schedule_at(t + SimTime::from_millis(1), key + 1, Msg::Pong);
//!         engine.schedule_at(t + SimTime::from_millis(2), key + 2, Msg::Ping);
//!     }
//! }
//! assert_eq!(log.len(), 3); // Ping@1ms, Pong@2ms, Ping@3ms
//! ```
//!
//! A property over that queue — whatever is scheduled pops in time
//! order — checked on 64 seeded cases, the same 64 on every run:
//!
//! ```
//! use eps_sim::{check::forall, KeyedEngine, SimTime};
//!
//! forall("pops_never_go_back_in_time", 64, |rng| {
//!     let mut engine = KeyedEngine::new();
//!     for key in 0..rng.random_range(1..50u32) {
//!         engine.schedule_at(SimTime::from_nanos(rng.random_below(1000)), key, ());
//!     }
//!     let mut last = SimTime::ZERO;
//!     while let Some((t, _, ())) = engine.pop() {
//!         assert!(t >= last);
//!         last = t;
//!     }
//! });
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod check;
pub mod hash;
mod keyed;
mod rng;
mod stats;
mod time;

pub use keyed::KeyedEngine;
pub use rng::{Rng, RngFactory, SampleRange, Zipf};
pub use stats::{quantile_in_place, RatioBin, RatioSeries, Summary};
pub use time::SimTime;

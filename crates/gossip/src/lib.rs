//! # eps-gossip — epidemic recovery for content-based publish-subscribe
//!
//! The primary contribution of *“Epidemic Algorithms for Reliable
//! Content-Based Publish-Subscribe: An Evaluation”* (Costa, Migliavacca,
//! Picco, Cugola — ICDCS 2004), reproduced in full — and factored into
//! composable **policy stages**:
//!
//! - a [`DigestPolicy`] decides *what a gossip round asserts*:
//!   [`PositiveDigest`] announces cached events (push),
//!   [`NegativeDigest`] chases detected losses (pull), and
//!   [`AlternatingDigest`] interleaves the two (the `push-pull`
//!   hybrid);
//! - a [`SteeringPolicy`] decides *where the digest travels*:
//!   [`PatternSteering`] routes it along the subscription tree with
//!   per-hop probability `P_forward`, [`SourceSteering`] reverses
//!   recorded routes back towards the publisher, [`RandomSteering`]
//!   walks at random under a TTL, and [`MuxSteering`] picks between
//!   two steerings with probability `P_source`;
//! - a [`GossipEngine`] pairs one of each.
//!
//! The [`Algorithm`] table names the compositions. All six paper
//! strategies are rows of it — e.g. combined pull is literally
//! `NegativeDigest × Mux(Source, Pattern)` — and a new hybrid is one
//! table row plus one [`Strategy`] arm, not a new module. A
//! [`Strategy`], built per dispatcher, is the boundary the harness
//! talks to.
//!
//! All strategies react to gossip rounds, detected losses, and
//! incoming gossip by emitting [`GossipAction`]s, which the simulation
//! harness (or a real transport) carries out. Algorithms never touch
//! the network and never mutate the dispatcher, so each is
//! unit-testable in isolation.
//!
//! # Examples
//!
//! ```
//! use eps_gossip::{Algorithm, GossipConfig};
//!
//! // Build one instance per dispatcher.
//! let algo = Algorithm::combined_pull().build(GossipConfig::default());
//! assert_eq!(algo.outstanding_losses(), 0);
//!
//! // Names (and aliases) resolve case-insensitively.
//! assert_eq!(Algorithm::named("Hybrid").unwrap().name(), "push-pull");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod algorithm;
pub mod codec;
mod config;
mod engine;
mod envelope;
mod lost;
mod message;
mod policy;
mod registry;
mod summary;

pub use algorithm::Strategy;
pub use codec::CodecError;
pub use config::{GossipConfig, DEFAULT_LOST_CAPACITY};
pub use engine::GossipEngine;
pub use envelope::{Channel, Envelope};
pub use lost::LostBuffer;
pub use message::{GossipAction, GossipMessage};
pub use policy::{
    Absorbed, AlternatingDigest, DigestBody, DigestPolicy, MuxSteering, NegativeDigest,
    PatternSteering, PositiveDigest, RandomSteering, SourceSteering, SteeringPolicy,
};
pub use registry::{Algorithm, ParseAlgorithmError};
pub use summary::{SummaryDigestPolicy, SummaryMode, DETAIL_THRESHOLD, MAX_QUEUED_RANGES};

//! # eps-gossip — epidemic recovery for content-based publish-subscribe
//!
//! The primary contribution of *“Epidemic Algorithms for Reliable
//! Content-Based Publish-Subscribe: An Evaluation”* (Costa, Migliavacca,
//! Picco, Cugola — ICDCS 2004), reproduced in full.
//!
//! The [`Algorithm`] table names the strategies: the paper's six —
//! push, subscriber-, publisher-, combined and random pull, and the
//! no-recovery baseline — plus the `push-pull` hybrid and the two
//! summary-reconciliation extensions. [`Algorithm::build`] turns a row
//! into a [`Strategy`], the per-dispatcher boundary the harness talks
//! to. A strategy keeps one of five kinds of state — none, push's
//! in-flight requests, a pull route's [`LostBuffer`], the hybrid's
//! both, or a [`SummaryState`] — and every hook is one `match` over
//! them. What every gossip round changes, whatever the kind — the idle
//! streak and the hybrid's phase — is one value beside it, moved
//! through a round by one function.
//!
//! Strategies react to gossip rounds, detected losses, and incoming
//! gossip with the [`Outgoing`] messages they want sent, which the
//! simulation harness (or a real transport) carries out. They never
//! touch the network and never mutate the dispatcher, so each is
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
mod envelope;
mod lost;
mod message;
mod policy;
mod registry;
mod summary;

pub use algorithm::{Lookahead, Round, Strategy};
pub use codec::CodecError;
pub use config::{GossipConfig, DEFAULT_LOST_CAPACITY, DIGEST_MAX, MAX_ATTEMPTS, RANDOM_TTL};
pub use envelope::{Channel, Envelope, Outgoing};
pub use lost::LostBuffer;
pub use message::GossipMessage;
pub use registry::{Algorithm, ParseAlgorithmError};
pub use summary::{SummaryMode, SummaryState, DETAIL_THRESHOLD, MAX_QUEUED_RANGES};

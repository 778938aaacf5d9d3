//! # eps-pubsub — best-effort content-based publish-subscribe
//!
//! Substrate crate for the reproduction of *“Epidemic Algorithms for
//! Reliable Content-Based Publish-Subscribe: An Evaluation”* (Costa et
//! al., ICDCS 2004). Implements the Section II system model that the
//! epidemic recovery algorithms operate on:
//!
//! - [`PatternId`]/[`PatternSpace`] — the content model: Π patterns,
//!   events match ≤ 3 of them, matching is containment;
//! - [`Event`]/[`EventId`] — events with globally unique identifiers,
//!   per-(source, pattern) sequence numbers (for pull loss detection)
//!   and hop-by-hop route recording (for publisher-based pull);
//! - [`SubscriptionTable`]/[`Interface`] — subscription-forwarding
//!   state: pattern → interfaces, with events routed on reverse paths,
//!   to at most [`MAX_NEIGHBORS`] neighbors;
//! - [`EventCache`] — the β-bounded FIFO buffer of cached events,
//!   building only the [`CacheIndexes`] its recovery strategy reads;
//! - [`LossDetector`]/[`LossRecord`] — sequence-gap loss detection;
//! - [`ClientId`]/[`ClientRegistry`] — the client layer: per-broker
//!   end-user subscriptions aggregated into the routing-level filter by
//!   covering/merging, with refcounted retraction;
//! - [`Dispatcher`] — the protocol logic tying it all together, pure
//!   (message in → next hops out) so it can be driven by the simulator
//!   or by unit tests directly;
//! - [`flood_subscriptions_direct`] and friends — instant assembly of
//!   the stable subscription state the paper's workloads run on.
//!
//! # Examples
//!
//! ```
//! use eps_pubsub::{Dispatcher, DispatcherConfig, PatternId, PatternSpace};
//! use eps_pubsub::flood_subscriptions_direct;
//! use eps_overlay::{OverlayKind, Topology};
//! use eps_sim::RngFactory;
//!
//! let factory = RngFactory::new(7);
//! let topo = Topology::build(OverlayKind::Tree, 10, 4, &mut factory.stream("topology"));
//! let space = PatternSpace::paper_default();
//! let mut subs_rng = factory.stream("subscriptions");
//! let subs: Vec<Vec<PatternId>> = (0..10)
//!     .map(|_| space.random_subscriptions(2, &mut subs_rng))
//!     .collect();
//! let mut dispatchers: Vec<Dispatcher> = topo
//!     .nodes()
//!     .map(|id| Dispatcher::new(id, DispatcherConfig::default()))
//!     .collect();
//! for (d, patterns) in dispatchers.iter_mut().zip(&subs) {
//!     for &p in patterns {
//!         d.subscribe_local(p, &[]);
//!     }
//! }
//! flood_subscriptions_direct(&mut dispatchers, &topo);
//! // Every dispatcher now routes events towards all subscribers.
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cache;
mod clients;
mod detector;
mod dispatcher;
mod event;
mod pattern;
mod setup;
pub mod summary;
mod table;

pub use cache::{CacheHeap, CacheIndexes, EventCache, EvictionPolicy};
pub use clients::{ClientId, ClientRegistry};
pub use detector::{LossDetector, LossRecord};
pub use dispatcher::{Dispatcher, DispatcherConfig, EventReceipt, PubSubMessage, RouteBook};
pub use event::{Event, EventId, ROUTE_HOP_BITS};
pub use pattern::{PatternId, PatternSpace};
pub use setup::{
    flood_subscriptions_direct, install_client_subscriptions, rebuild_subscription_routes,
    DispatcherHost,
};
pub use summary::{RangeDetail, RangeRef, RangeSummary, SummaryIndex};
pub use table::{Interface, SubscriptionTable, MAX_NEIGHBORS};

//! # eps-overlay — the dispatching overlay network
//!
//! Substrate crate for the reproduction of *“Epidemic Algorithms for
//! Reliable Content-Based Publish-Subscribe: An Evaluation”* (Costa et
//! al., ICDCS 2004). It models the overlay the dispatchers live on:
//!
//! - [`Topology`] — an undirected, degree-bounded graph: the paper's
//!   unrooted tree ([`Topology::random_tree`], max degree 4), plus the
//!   cyclic complex-network builders (Barabási–Albert and
//!   Watts–Strogatz) that [`Topology::build`] selects via
//!   [`OverlayKind`];
//! - [`RoutingView`] — the spanning tree a run routes on, derived from
//!   the physical graph (identity on tree inputs, deterministic BFS
//!   otherwise);
//! - [`LinkSpec`]/[`LinkTable`] — 10 Mbit/s store-and-forward links
//!   with FIFO serialization and per-message Bernoulli loss `ε`;
//! - [`OutOfBandSpec`] — the direct unicast channel used by the gossip
//!   algorithms for requests, replies and retransmissions;
//! - [`plan_reconfiguration`] — the topological-reconfiguration event
//!   generator (break a random link, replace it after the repair delay
//!   with one that keeps the overlay connected).
//!
//! # Examples
//!
//! ```
//! use eps_overlay::{LinkSpec, LinkTable, Topology};
//! use eps_sim::{RngFactory, SimTime};
//!
//! let factory = RngFactory::new(42);
//! let topo = Topology::random_tree(100, 4, &mut factory.stream("topology"));
//! let spec = LinkSpec::ethernet_10mbps(0.1);
//! let mut links = LinkTable::new();
//! let mut loss_rng = factory.stream("loss");
//!
//! // Send 1 kbit along the first link of the tree.
//! let link = topo.links().next().unwrap();
//! let t = links.transmit(&spec, link.a(), link.b(), 1000, SimTime::ZERO, &mut loss_rng);
//! println!("outcome: {t:?}");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod link;
mod node;
mod reconfig;
mod topology;
mod transport;
mod view;

pub use link::{LinkSpec, LinkTable, OutOfBandSpec, Transmission};
pub use node::{LinkId, NodeId};
pub use reconfig::{plan_reconfiguration, plan_reconnection, ReconfigPlan};
pub use topology::{OverlayKind, Topology, TopologyError, BA_ATTACHMENTS, WS_BETA};
pub use transport::ShardTransport;
pub use view::RoutingView;

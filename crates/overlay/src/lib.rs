//! # eps-overlay — the dispatching overlay network
//!
//! Substrate crate for the reproduction of *“Epidemic Algorithms for
//! Reliable Content-Based Publish-Subscribe: An Evaluation”* (Costa et
//! al., ICDCS 2004). It models the overlay the dispatchers live on:
//!
//! - [`Topology`] — an undirected, degree-bounded graph: the paper's
//!   unrooted random tree (max degree 4), or one of the cyclic
//!   complex-network overlays (Barabási–Albert and Watts–Strogatz),
//!   built by [`Topology::build`] for an [`OverlayKind`]; every walk of
//!   it is one [`Topology::breadth_first`];
//! - [`RoutingView`] — the spanning tree a run routes on, derived from
//!   the physical graph (identity on tree inputs, deterministic BFS
//!   otherwise);
//! - [`ShardTransport`] — when a message arrives, if at all: over
//!   [`LinkSpec`]'s 10 Mbit/s store-and-forward links, with FIFO
//!   serialization and per-message Bernoulli loss `ε`, or over
//!   [`OutOfBandSpec`]'s direct unicast channel, used by the gossip
//!   algorithms for requests, replies and retransmissions;
//! - [`plan_reconnection`] — the repair half of a topological
//!   reconfiguration (a random link breaks; after the repair delay a
//!   link joining two components replaces it).
//!
//! # Examples
//!
//! ```
//! use eps_overlay::{LinkSpec, OutOfBandSpec, OverlayKind, ShardTransport, Topology};
//! use eps_sim::{RngFactory, SimTime};
//!
//! let factory = RngFactory::new(42);
//! let topo = Topology::build(OverlayKind::Tree, 100, 4, &mut factory.stream("topology"));
//! let spec = LinkSpec::ethernet_10mbps(0.1);
//! let mut transport = ShardTransport::new(spec, OutOfBandSpec::default());
//! let mut loss_rng = factory.stream("loss");
//!
//! // Send 1 kbit along the first link of the tree.
//! let link = topo.links().next().unwrap();
//! let arrival = transport.send_link(link.a(), link.b(), 1000, SimTime::ZERO, &mut loss_rng);
//! println!("arrives at {arrival:?} (None: lost)");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod link;
mod node;
mod reconfig;
mod topology;
mod transport;
mod view;

pub use link::{LinkSpec, OutOfBandSpec};
pub use node::{LinkId, NodeId};
pub use reconfig::plan_reconnection;
pub use topology::{OverlayKind, Topology, TopologyError, Walk, BA_ATTACHMENTS, WS_BETA};
pub use transport::ShardTransport;
pub use view::RoutingView;

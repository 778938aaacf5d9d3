//! # eps-metrics — instrumentation for the reproduction
//!
//! Measures exactly what the evaluation section of *“Epidemic
//! Algorithms for Reliable Content-Based Publish-Subscribe: An
//! Evaluation”* (Costa et al., ICDCS 2004) reports:
//!
//! - [`DeliveryTracker`] — per-event intended recipients vs. actual
//!   deliveries; the overall and windowed delivery rate (Figures 3–6,
//!   8), receivers-per-event statistics (Figure 7);
//! - [`MessageCounters`] — per-class message counts: event forwarding
//!   vs. gossip vs. out-of-band requests/replies, per dispatcher and
//!   system-wide (Figures 9–10);
//! - [`DeliverySink`] — what a node reports its publishes and
//!   deliveries to while it runs: the tracker itself in the scenario
//!   runner;
//! - [`NetCounters`] — socket-layer runtime counters (connect
//!   retries, queue drops, decode errors) for the real-socket runtime;
//! - [`CsvTable`] / [`ascii_chart`] — result export for the harness.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod counters;
mod delivery;
mod export;
mod net;
mod sink;

pub use counters::MessageCounters;
pub use delivery::DeliveryTracker;
pub use export::{ascii_chart, CsvTable, Series};
pub use net::NetCounters;
pub use sink::DeliverySink;

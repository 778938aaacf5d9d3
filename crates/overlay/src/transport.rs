//! The transport: one object owns every source of network delay and
//! loss.
//!
//! A [`ShardTransport`] answers exactly one question per send: *when
//! does this message arrive, if at all?* Callers (the scenario runner)
//! decide routing — which neighbor to hand a message to and whether
//! the overlay still has that link — and schedule the returned arrival
//! into their event queue. It combines the paper's link model
//! ([`LinkTable`] — FIFO serialization at 10 Mbit/s, propagation
//! delay, Bernoulli loss) with the out-of-band unicast channel
//! ([`OutOfBandSpec`]).

use eps_sim::{Rng, SimTime};

use crate::link::{LinkSpec, LinkTable, OutOfBandSpec};
use crate::node::NodeId;

/// Owner of delay, loss, and bandwidth for both message channels.
/// Loss is decided by a *caller-supplied* RNG per send.
///
/// The runner keeps one `ShardTransport` per run and passes the
/// sending node's own random stream into every call, so each node's
/// loss draws depend only on that node's deterministic send order —
/// never on how other nodes' sends interleave with it. (The name
/// dates from a runner that kept one transport per worker thread.)
#[derive(Clone, Debug)]
pub struct ShardTransport {
    spec: LinkSpec,
    oob: OutOfBandSpec,
    links: LinkTable,
}

impl ShardTransport {
    /// Creates a transport from the two channel specs.
    pub fn new(spec: LinkSpec, oob: OutOfBandSpec) -> Self {
        ShardTransport {
            spec,
            oob,
            links: LinkTable::default(),
        }
    }

    /// Sends `bits` from `from` to `to` on their overlay link at time
    /// `now`, drawing loss from `rng`. Returns the absolute arrival
    /// time at `to`, or `None` if the message was lost in transit (it
    /// still occupied the queue).
    ///
    /// The caller is responsible for routing: this must only be called
    /// for links the caller believes exist.
    pub fn send_link(
        &mut self,
        from: NodeId,
        to: NodeId,
        bits: u64,
        now: SimTime,
        rng: &mut Rng,
    ) -> Option<SimTime> {
        self.links.transmit(&self.spec, from, to, bits, now, rng)
    }

    /// Sends `bits` from `from` to `to` on the out-of-band unicast
    /// channel at time `now`, drawing loss from `rng`. Returns the
    /// absolute arrival time, or `None` if lost.
    pub fn send_oob(
        &mut self,
        from: NodeId,
        to: NodeId,
        bits: u64,
        now: SimTime,
        rng: &mut Rng,
    ) -> Option<SimTime> {
        let _ = (from, to); // the direct channel has no per-pair state
        self.oob.delay(bits, rng).map(|d| now + d)
    }

    /// Discards queue state for both directions of the `a`–`b` link,
    /// so a later replacement link starts fresh.
    pub fn reset_link(&mut self, a: NodeId, b: NodeId) {
        self.links.reset_link(a, b);
    }
}

#[cfg(test)]
mod tests {
    use eps_sim::RngFactory;

    use super::*;

    fn transport(loss_rate: f64) -> ShardTransport {
        ShardTransport::new(
            LinkSpec::ethernet_10mbps(loss_rate),
            OutOfBandSpec::default(),
        )
    }

    fn loss_rng() -> Rng {
        RngFactory::new(1).stream("loss")
    }

    #[test]
    fn link_sends_match_the_raw_link_table() {
        // Same spec, same RNG stream → identical arrivals and losses.
        let mut t = transport(0.1);
        let mut table = LinkTable::default();
        let (mut rng, mut table_rng) = (loss_rng(), loss_rng());
        let spec = LinkSpec::ethernet_10mbps(0.1);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        for i in 0..200u64 {
            let now = SimTime::from_micros(i * 13);
            let expected = table.transmit(&spec, a, b, 1000, now, &mut table_rng);
            assert_eq!(t.send_link(a, b, 1000, now, &mut rng), expected);
        }
    }

    #[test]
    fn oob_arrival_is_absolute() {
        let mut t = transport(0.0);
        let now = SimTime::from_secs(2);
        let at = t
            .send_oob(NodeId::new(0), NodeId::new(5), 10_000, now, &mut loss_rng())
            .unwrap();
        // 200 µs latency + 1 ms serialization at 10 Mbit/s.
        assert_eq!(at, now + SimTime::from_micros(1200));
    }

    #[test]
    fn reset_link_restarts_the_queue() {
        let mut t = transport(0.0);
        let mut rng = loss_rng();
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        t.send_link(a, b, 1_000_000, SimTime::ZERO, &mut rng);
        t.reset_link(a, b);
        let spec = LinkSpec::ethernet_10mbps(0.0);
        let at = t.send_link(a, b, 1000, SimTime::ZERO, &mut rng).unwrap();
        assert_eq!(at, spec.serialization_delay(1000) + spec.propagation);
    }

    #[test]
    fn certain_loss_drops_every_link_message() {
        let mut t = transport(1.0);
        let mut rng = loss_rng();
        for _ in 0..100 {
            assert_eq!(
                t.send_link(NodeId::new(0), NodeId::new(1), 100, SimTime::ZERO, &mut rng),
                None
            );
        }
    }
}

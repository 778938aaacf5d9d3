//! The link model: 10 Mbit/s store-and-forward links with FIFO
//! serialization, propagation delay, and Bernoulli message loss.

use eps_sim::hash::IdMap;
use eps_sim::{Rng, SimTime};

use crate::node::NodeId;

/// Static characteristics of every overlay link.
///
/// The paper assumes each overlay link behaves as a 10 Mbit/s Ethernet
/// link with an error rate `ε` applied per message. Loss compounds per
/// hop along the dispatching tree, which is what yields the paper's
/// baseline delivery rates (≈ 55 % at ε = 0.1, ≈ 75 % at ε = 0.05 for
/// `N` = 100).
///
/// # Examples
///
/// ```
/// use eps_overlay::{LinkSpec, NodeId, OutOfBandSpec, ShardTransport};
/// use eps_sim::{RngFactory, SimTime};
///
/// let spec = LinkSpec::ethernet_10mbps(0.0);
/// let mut transport = ShardTransport::new(spec, OutOfBandSpec::default());
/// let mut rng = RngFactory::new(1).stream("loss");
/// // 1000 bits: 100 µs to serialize at 10 Mbit/s, 50 µs to propagate.
/// let at = transport.send_link(NodeId::new(0), NodeId::new(1), 1000, SimTime::ZERO, &mut rng);
/// assert_eq!(at, Some(SimTime::from_micros(150)));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkSpec {
    /// Link bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// One-way propagation delay.
    pub propagation: SimTime,
    /// Per-message loss probability in `[0, 1]`.
    pub loss_rate: f64,
}

impl LinkSpec {
    /// The paper's default: a 10 Mbit/s Ethernet-like link with 50 µs
    /// propagation delay and the given error rate.
    ///
    /// # Panics
    ///
    /// Panics if `loss_rate` is outside `[0, 1]`.
    pub fn ethernet_10mbps(loss_rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&loss_rate),
            "loss rate out of range: {loss_rate}"
        );
        LinkSpec {
            bandwidth_bps: 10_000_000,
            propagation: SimTime::from_micros(50),
            loss_rate,
        }
    }

    /// Time to clock `bits` onto the wire.
    pub(crate) fn serialization_delay(&self, bits: u64) -> SimTime {
        let ns = (bits as u128 * 1_000_000_000u128) / self.bandwidth_bps as u128;
        SimTime::from_nanos(ns as u64)
    }
}

/// Dynamic state of the overlay links: per-direction FIFO occupancy.
///
/// Each direction of a link is an independent queue (full duplex, as
/// for a switched Ethernet segment). A message enqueued while the
/// direction is busy starts serializing when the previous one ends.
#[derive(Clone, Debug, Default)]
pub(crate) struct LinkTable {
    /// Keyed lookups only — never iterated, so the map's
    /// arbitrary ordering can't leak into any output.
    busy_until: IdMap<(NodeId, NodeId), SimTime>,
}

impl LinkTable {
    /// Simulates sending `bits` from `from` to `to` at time `now`.
    ///
    /// Returns when the message arrives, or `None` with probability
    /// `spec.loss_rate`: a lost message still occupied the sender's
    /// queue, as a corrupted frame would. Loss is decided by `rng`,
    /// which the caller supplies so that the loss stream is
    /// deterministic.
    pub fn transmit(
        &mut self,
        spec: &LinkSpec,
        from: NodeId,
        to: NodeId,
        bits: u64,
        now: SimTime,
        rng: &mut Rng,
    ) -> Option<SimTime> {
        let queue = self.busy_until.entry((from, to)).or_insert(SimTime::ZERO);
        let start = (*queue).max(now);
        let done = start + spec.serialization_delay(bits);
        *queue = done;
        let lost = spec.loss_rate > 0.0 && rng.random_bool(spec.loss_rate);
        (!lost).then(|| done + spec.propagation)
    }

    /// Clears queue state for both directions of a broken link so a
    /// later replacement starts fresh.
    pub fn reset_link(&mut self, a: NodeId, b: NodeId) {
        self.busy_until.remove(&(a, b));
        self.busy_until.remove(&(b, a));
    }
}

/// The out-of-band unicast channel used for gossip requests/replies and
/// event retransmissions.
///
/// The paper assumes "a unicast transport layer (not necessarily
/// reliable, e.g., UDP-based)" that is independent of the dispatching
/// tree. We model it as a direct path with fixed latency plus
/// serialization at the configured bandwidth, and an optional loss
/// rate (zero by default; used by failure-injection tests).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OutOfBandSpec {
    /// Effective end-to-end bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// Fixed end-to-end latency.
    pub latency: SimTime,
    /// Per-message loss probability.
    pub loss_rate: f64,
}

impl Default for OutOfBandSpec {
    fn default() -> Self {
        OutOfBandSpec {
            bandwidth_bps: 10_000_000,
            latency: SimTime::from_micros(200),
            loss_rate: 0.0,
        }
    }
}

impl OutOfBandSpec {
    /// Delivery delay for a message of `bits`, or `None` if lost.
    pub fn delay(&self, bits: u64, rng: &mut Rng) -> Option<SimTime> {
        if self.loss_rate > 0.0 && rng.random_bool(self.loss_rate) {
            return None;
        }
        let ser = (bits as u128 * 1_000_000_000u128) / self.bandwidth_bps as u128;
        Some(self.latency + SimTime::from_nanos(ser as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eps_sim::check::forall;
    use eps_sim::RngFactory;

    #[test]
    fn serialization_delay_scales_with_size() {
        let spec = LinkSpec::ethernet_10mbps(0.0);
        assert_eq!(spec.serialization_delay(0), SimTime::ZERO);
        // 100 ns per bit at 10 Mbit/s; at any bandwidth the delay is
        // additive in message size up to the integer division, which
        // rounds each part down by < 1 ns.
        forall("serialization_delay_scales_with_size", 256, |rng| {
            let (x, y) = (rng.random_below(1_000_000), rng.random_below(1_000_000));
            assert_eq!(spec.serialization_delay(x).as_nanos(), 100 * x);
            let odd = LinkSpec {
                bandwidth_bps: rng.random_range(1_000..1_000_000_000u64),
                ..spec
            };
            let parts = odd.serialization_delay(x) + odd.serialization_delay(y);
            let whole = odd.serialization_delay(x + y);
            assert!(whole >= parts);
            assert!(whole.as_nanos() - parts.as_nanos() <= 2);
        });
    }

    #[test]
    fn fifo_queueing_serializes_back_to_back_sends() {
        // Sends queued at one instant in one direction arrive each one
        // serialization delay after its predecessor (so in FIFO order,
        // and never before `now` + propagation).
        forall("fifo_queueing_serializes_back_to_back_sends", 256, |rng| {
            let spec = LinkSpec::ethernet_10mbps(0.0);
            let mut table = LinkTable::default();
            let (a, b) = (NodeId::new(0), NodeId::new(1));
            let now = SimTime::from_nanos(rng.random_below(1_000_000));
            let sends = rng.random_range(1..50u64);
            let mut clocked = now;
            for _ in 0..sends {
                let bits = rng.random_range(1..100_000u64);
                let t = table.transmit(&spec, a, b, bits, now, rng);
                clocked += spec.serialization_delay(bits);
                assert_eq!(t, Some(clocked + spec.propagation));
            }
        });
    }

    #[test]
    fn directions_are_independent() {
        let spec = LinkSpec::ethernet_10mbps(0.0);
        let mut table = LinkTable::default();
        let mut rng = RngFactory::new(1).stream("loss");
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let fwd = table.transmit(&spec, a, b, 1000, SimTime::ZERO, &mut rng);
        let back = table.transmit(&spec, b, a, 1000, SimTime::ZERO, &mut rng);
        assert_eq!(fwd, back);
    }

    #[test]
    fn idle_link_restarts_from_now() {
        let spec = LinkSpec::ethernet_10mbps(0.0);
        let mut table = LinkTable::default();
        let mut rng = RngFactory::new(1).stream("loss");
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        table.transmit(&spec, a, b, 1000, SimTime::ZERO, &mut rng);
        let later = SimTime::from_secs(1);
        let t = table.transmit(&spec, a, b, 1000, later, &mut rng);
        assert_eq!(
            t,
            Some(later + spec.serialization_delay(1000) + spec.propagation)
        );
    }

    #[test]
    fn loss_rate_is_respected_statistically() {
        let spec = LinkSpec::ethernet_10mbps(0.1);
        let mut table = LinkTable::default();
        let mut rng = RngFactory::new(7).stream("loss");
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        const SENDS: u64 = 20_000;
        let lost = (0..SENDS)
            .filter(|_| {
                table
                    .transmit(&spec, a, b, 100, SimTime::ZERO, &mut rng)
                    .is_none()
            })
            .count();
        let ratio = lost as f64 / SENDS as f64;
        assert!((ratio - 0.1).abs() < 0.01, "observed loss {ratio}");
    }

    #[test]
    fn zero_loss_never_drops() {
        let spec = LinkSpec::ethernet_10mbps(0.0);
        let mut table = LinkTable::default();
        let mut rng = RngFactory::new(7).stream("loss");
        for _ in 0..1000 {
            let t = table.transmit(
                &spec,
                NodeId::new(0),
                NodeId::new(1),
                100,
                SimTime::ZERO,
                &mut rng,
            );
            assert!(t.is_some());
        }
    }

    #[test]
    fn reset_link_clears_queue() {
        let spec = LinkSpec::ethernet_10mbps(0.0);
        let mut table = LinkTable::default();
        let mut rng = RngFactory::new(1).stream("loss");
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        table.transmit(&spec, a, b, 1_000_000, SimTime::ZERO, &mut rng);
        table.reset_link(a, b);
        let t = table.transmit(&spec, a, b, 1000, SimTime::ZERO, &mut rng);
        assert_eq!(t, Some(spec.serialization_delay(1000) + spec.propagation));
    }

    #[test]
    fn out_of_band_delay_and_loss() {
        let mut rng = RngFactory::new(3).stream("oob");
        let reliable = OutOfBandSpec::default();
        let d = reliable.delay(10_000, &mut rng).unwrap();
        assert_eq!(d, SimTime::from_micros(200) + SimTime::from_micros(1000));
        let lossy = OutOfBandSpec {
            loss_rate: 1.0,
            ..OutOfBandSpec::default()
        };
        assert_eq!(lossy.delay(100, &mut rng), None);
    }

    #[test]
    #[should_panic]
    fn invalid_loss_rate_panics() {
        let _ = LinkSpec::ethernet_10mbps(1.5);
    }
}

//! Scenario configuration: the paper's Figure 2 parameters plus the
//! knobs the evaluation sweeps, and the constants no run varies.

use eps_gossip::{Algorithm, GossipConfig};
use eps_overlay::{LinkSpec, OutOfBandSpec, OverlayKind, BA_ATTACHMENTS};
use eps_pubsub::{EvictionPolicy, MAX_NEIGHBORS};
use eps_sim::SimTime;

/// Time to repair a broken link (0.1 s in the paper, after its
/// reference \[7\]).
pub const REPAIR_DELAY: SimTime = SimTime::from_millis(100);

/// Bin width of the delivery-rate time series.
pub const SERIES_BIN: SimTime = SimTime::from_millis(100);

/// Maximum patterns matched by one event (3 in the paper, footnote 5):
/// an event's content is this many uniform draws, deduplicated.
pub const MAX_PATTERNS_PER_EVENT: usize = 3;

/// Adaptive gossip-interval control (an extension the paper suggests
/// in Section IV-E, citing its reference \[14\]): a dispatcher whose
/// gossip round had nothing to do backs off exponentially up to
/// `max_interval`; as soon as a round produces traffic it snaps back
/// to `min_interval`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdaptiveGossip {
    /// The interval used while there is recovery work to do.
    pub min_interval: SimTime,
    /// The ceiling reached after repeated idle rounds.
    pub max_interval: SimTime,
    /// Multiplicative backoff applied per idle round (> 1).
    pub backoff: f64,
}

impl AdaptiveGossip {
    /// A reasonable default around the paper's `T`: idle dispatchers
    /// back off from `t` to `8·t`, doubling per idle round.
    pub fn around(t: SimTime) -> Self {
        AdaptiveGossip {
            min_interval: t,
            max_interval: t.saturating_mul(8),
            backoff: 2.0,
        }
    }

    /// Validates the parameters.
    ///
    /// # Panics
    ///
    /// Panics on non-positive intervals, an inverted range, or a
    /// backoff not greater than 1.
    pub fn validate(&self) {
        assert!(
            self.min_interval > SimTime::ZERO,
            "min interval must be positive"
        );
        assert!(
            self.max_interval >= self.min_interval,
            "max interval below min"
        );
        assert!(self.backoff > 1.0, "backoff must exceed 1");
    }
}

/// Full description of one simulation run.
///
/// Defaults reproduce the paper's Figure 2: `N` = 100 dispatchers,
/// `π_max` = 2 subscriptions per dispatcher over `Π` = 70 patterns,
/// 50 publish/s per dispatcher, link error rate `ε` = 0.1, no
/// reconfigurations, buffer `β` = 1500, gossip interval `T` = 0.03 s,
/// 25 s of virtual time.
///
/// # Examples
///
/// ```
/// use eps_harness::ScenarioConfig;
/// use eps_gossip::Algorithm;
///
/// let config = ScenarioConfig {
///     algorithm: Algorithm::combined_pull(),
///     ..ScenarioConfig::default()
/// };
/// config.validate();
/// assert_eq!(config.nodes, 100);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioConfig {
    /// Master seed for all random streams.
    pub seed: u64,
    /// Number of dispatchers `N`.
    pub nodes: usize,
    /// Maximum overlay degree (4 in every paper configuration; at most
    /// [`MAX_NEIGHBORS`], the neighbors a routing-table row holds).
    pub max_degree: usize,
    /// Shape of the physical overlay graph. The paper's scenarios use
    /// acyclic overlays (`Tree`); the cyclic kinds route events on a
    /// derived spanning tree and replicate them across the remaining
    /// physical cross links.
    pub overlay: OverlayKind,
    /// Pattern universe size `Π`.
    pub pattern_universe: u16,
    /// Subscriptions per dispatcher `π_max`. With more than one client
    /// per dispatcher this bounds each *client's* subscription count;
    /// the dispatcher's routing filter is the aggregate of its clients.
    pub pi_max: usize,
    /// End-user clients attached to each dispatcher. The paper's model
    /// is one client per dispatcher (`1`, the default); larger values
    /// exercise subscription aggregation — per-client patterns are
    /// merged into one broker-level filter, so routing state grows with
    /// the number of *distinct* patterns, not the number of clients.
    pub clients_per_node: usize,
    /// Zipf exponent `s` for pattern popularity. `0.0` (the default)
    /// keeps the paper's uniform content model; `s > 0` skews both
    /// event content and subscription draws towards low-numbered
    /// patterns with probability ∝ `1/rank^s`.
    pub zipf_s: f64,
    /// Publish rate per dispatcher, events/second (Poisson process).
    pub publish_rate: f64,
    /// Per-link, per-message loss probability `ε`.
    pub link_error_rate: f64,
    /// Interval `ρ` between topological reconfigurations
    /// (`None` = `ρ` = ∞, the lossy-link scenarios).
    pub reconfig_interval: Option<SimTime>,
    /// Event-cache capacity `β`.
    pub buffer_size: usize,
    /// Gossip interval `T`.
    pub gossip_interval: SimTime,
    /// The recovery strategy under test.
    pub algorithm: Algorithm,
    /// Gossip-layer tunables (`P_forward`, `P_source`, …).
    pub gossip: GossipConfig,
    /// Virtual-time length of the run.
    pub duration: SimTime,
    /// Events published before this instant are excluded from the
    /// summary delivery rate (routing warm-up).
    pub warmup: SimTime,
    /// Events published within this long of the end are excluded from
    /// the summary delivery rate (they get no fair recovery window).
    pub cooldown: SimTime,
    /// Nominal wire size of an event message, in bits; the paper
    /// assumes gossip messages cost the same.
    pub event_payload_bits: u64,
    /// The out-of-band unicast channel used for recovery traffic.
    pub out_of_band: OutOfBandSpec,
    /// Buffer replacement policy (the paper uses FIFO).
    pub eviction: EvictionPolicy,
    /// Optional adaptive gossip-interval control; `None` keeps the
    /// paper's fixed interval `T`.
    pub adaptive_gossip: Option<AdaptiveGossip>,
    /// Optional subscription churn: every interval, a random
    /// dispatcher swaps one of its subscriptions for a fresh pattern,
    /// propagating the (un)subscriptions through the overlay. The
    /// paper's evaluation keeps subscriptions stable; this exercises
    /// the dynamics of its companion problem (reference \[7\]).
    pub churn_interval: Option<SimTime>,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            seed: 1,
            nodes: 100,
            max_degree: 4,
            overlay: OverlayKind::Tree,
            pattern_universe: 70,
            pi_max: 2,
            clients_per_node: 1,
            zipf_s: 0.0,
            publish_rate: 50.0,
            link_error_rate: 0.1,
            reconfig_interval: None,
            buffer_size: 1500,
            gossip_interval: SimTime::from_millis(30),
            algorithm: Algorithm::no_recovery(),
            gossip: GossipConfig::default(),
            duration: SimTime::from_secs(25),
            warmup: SimTime::from_secs(2),
            cooldown: SimTime::from_secs(2),
            event_payload_bits: 1024,
            out_of_band: OutOfBandSpec::default(),
            eviction: EvictionPolicy::Fifo,
            adaptive_gossip: None,
            churn_interval: None,
        }
    }
}

impl ScenarioConfig {
    /// Checks internal consistency.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violated constraint.
    pub fn validate(&self) {
        assert!(self.nodes > 0, "need at least one dispatcher");
        assert!(self.max_degree >= 2, "degree bound must be at least 2");
        assert!(
            self.max_degree <= MAX_NEIGHBORS,
            "max_degree {} is above MAX_NEIGHBORS = {MAX_NEIGHBORS}: a routing-table row is one \
             u64, the local flag and a bit per neighbor",
            self.max_degree
        );
        match self.overlay {
            OverlayKind::Tree => {}
            OverlayKind::BarabasiAlbert => assert!(
                self.max_degree >= 2 * BA_ATTACHMENTS,
                "a Barabási–Albert overlay needs max_degree >= {}",
                2 * BA_ATTACHMENTS
            ),
            OverlayKind::WattsStrogatz => {
                assert!(self.nodes >= 5, "a Watts–Strogatz overlay needs >= 5 nodes");
                assert!(
                    self.max_degree >= 5,
                    "a Watts–Strogatz overlay needs max_degree >= 5"
                );
            }
        }
        assert!(self.pattern_universe > 0, "need a pattern universe");
        assert!(
            self.pi_max <= self.pattern_universe as usize,
            "pi_max cannot exceed the pattern universe"
        );
        assert!(
            self.clients_per_node > 0,
            "each dispatcher needs at least one client"
        );
        assert!(
            self.zipf_s >= 0.0 && self.zipf_s.is_finite(),
            "zipf exponent must be a finite non-negative number"
        );
        assert!(
            self.publish_rate >= 0.0 && self.publish_rate.is_finite(),
            "publish rate must be a finite non-negative number"
        );
        assert!(
            (0.0..=1.0).contains(&self.link_error_rate),
            "link error rate out of range"
        );
        assert!(
            self.link_spec().propagation.min(self.out_of_band.latency) > SimTime::ZERO,
            "out_of_band.latency must be positive: a message arrives strictly after it \
             was sent, or same-instant key order could run an effect before its cause"
        );
        assert!(
            self.gossip_interval > SimTime::ZERO,
            "gossip interval must be positive"
        );
        assert!(self.duration > SimTime::ZERO, "duration must be positive");
        assert!(
            self.warmup + self.cooldown < self.duration,
            "measurement window is empty"
        );
        assert!(self.event_payload_bits > 0, "events must have a size");
        self.gossip.validate();
        if let Some(adaptive) = &self.adaptive_gossip {
            adaptive.validate();
        }
        if let Some(rho) = self.reconfig_interval {
            assert!(
                rho > SimTime::ZERO,
                "reconfiguration interval must be positive"
            );
        }
        if let Some(churn) = self.churn_interval {
            assert!(churn > SimTime::ZERO, "churn interval must be positive");
            assert!(
                (self.pi_max as u16) < self.pattern_universe,
                "churn needs a spare pattern to swap in"
            );
        }
    }

    /// The overlay link model: the paper's 10 Mbit/s Ethernet-like
    /// links at this run's error rate `ε`.
    pub(crate) fn link_spec(&self) -> LinkSpec {
        LinkSpec::ethernet_10mbps(self.link_error_rate)
    }

    /// The summary measurement window: events published in
    /// `[warmup, duration - cooldown)` count towards the headline
    /// delivery rate.
    pub fn measure_window(&self) -> (SimTime, SimTime) {
        (self.warmup, self.duration.saturating_sub(self.cooldown))
    }

    /// Expected subscribers per pattern `N_π = N·π_max/Π`
    /// (2.85 at the defaults, as the paper notes).
    pub fn subscribers_per_pattern(&self) -> f64 {
        (self.nodes * self.pi_max) as f64 / self.pattern_universe as f64
    }

    /// Probability that a dispatcher's `π_max` subscriptions match an
    /// event, `1 − (1 − π_max/Π)^k` with `k` = [`MAX_PATTERNS_PER_EVENT`]
    /// uniform content draws: each draw misses all of them with
    /// probability `1 − π_max/Π`. `N` times it is the expected number
    /// of dispatchers an event is for (the paper's Figure 7 curve).
    pub fn match_probability(&self) -> f64 {
        1.0 - (1.0 - self.pi_max as f64 / self.pattern_universe as f64)
            .powi(MAX_PATTERNS_PER_EVENT as i32)
    }

    /// A copy configured for a different recovery strategy.
    pub fn with_algorithm(&self, algorithm: Algorithm) -> Self {
        ScenarioConfig {
            algorithm,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_figure_2() {
        let c = ScenarioConfig::default();
        c.validate();
        assert_eq!(c.nodes, 100);
        assert_eq!(c.pi_max, 2);
        assert_eq!(c.pattern_universe, 70);
        assert!((c.publish_rate - 50.0).abs() < f64::EPSILON);
        assert!((c.link_error_rate - 0.1).abs() < f64::EPSILON);
        assert_eq!(c.reconfig_interval, None);
        assert_eq!(c.buffer_size, 1500);
        assert_eq!(c.gossip_interval, SimTime::from_millis(30));
        assert!((c.subscribers_per_pattern() - 2.857).abs() < 0.01);
    }

    #[test]
    fn measure_window_excludes_edges() {
        let c = ScenarioConfig::default();
        let (start, end) = c.measure_window();
        assert_eq!(start, SimTime::from_secs(2));
        assert_eq!(end, SimTime::from_secs(23));
    }

    #[test]
    fn with_algorithm_changes_only_the_algorithm() {
        let base = ScenarioConfig::default();
        let push = base.with_algorithm(Algorithm::push());
        assert_eq!(push.algorithm, Algorithm::push());
        assert_eq!(push.nodes, base.nodes);
        assert_eq!(push.seed, base.seed);
    }

    #[test]
    #[should_panic]
    fn empty_measure_window_is_rejected() {
        ScenarioConfig {
            duration: SimTime::from_secs(3),
            warmup: SimTime::from_secs(2),
            cooldown: SimTime::from_secs(2),
            ..ScenarioConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "out_of_band.latency must be positive")]
    fn zero_delay_channel_is_rejected() {
        ScenarioConfig {
            out_of_band: OutOfBandSpec {
                latency: SimTime::ZERO,
                ..OutOfBandSpec::default()
            },
            ..ScenarioConfig::default()
        }
        .validate();
    }

    #[test]
    fn a_degree_bound_of_the_row_width_is_accepted() {
        ScenarioConfig {
            max_degree: MAX_NEIGHBORS,
            ..ScenarioConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "max_degree 64 is above MAX_NEIGHBORS = 63")]
    fn a_degree_bound_above_the_row_width_is_rejected() {
        ScenarioConfig {
            max_degree: MAX_NEIGHBORS + 1,
            ..ScenarioConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic]
    fn oversubscribed_pi_max_is_rejected() {
        ScenarioConfig {
            pattern_universe: 5,
            pi_max: 6,
            ..ScenarioConfig::default()
        }
        .validate();
    }
}

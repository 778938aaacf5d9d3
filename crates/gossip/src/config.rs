//! Configuration of the gossip layer.

/// Tunables shared by the epidemic recovery algorithms.
///
/// # Examples
///
/// ```
/// use eps_gossip::GossipConfig;
///
/// let config = GossipConfig::default();
/// assert_eq!(config.p_forward, 0.5);
/// assert_eq!(config.p_source, 0.5);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GossipConfig {
    /// Probability that a gossip message is forwarded to each matching
    /// neighbor at every hop (the paper's `P_forward`; the paper does
    /// not report the value used — 0.5 reproduces its curves).
    pub p_forward: f64,
    /// Probability that a combined-pull round uses the
    /// publisher-based variant instead of the subscriber-based one
    /// (the paper's `P_source`).
    pub p_source: f64,
    /// Capacity bound on the `Lost` buffer; the oldest entries are
    /// evicted FIFO beyond it (visible as `lost_evictions` in the
    /// metrics). `None` ties the bound to the event-cache size β: the
    /// harness resolves it to the scenario's `buffer_size`, and a
    /// standalone build falls back to the paper's β = 1500. There is
    /// no point remembering more losses than any cache could still
    /// serve.
    pub lost_capacity: Option<usize>,
}

/// Maximum number of entries carried by one negative digest, and of
/// events a summary-pull gossiper serves per absorbed digest. The paper
/// assumes gossip messages are the same size as event messages, which
/// bounds how much a digest can carry.
pub const DIGEST_MAX: usize = 128;

/// Hop budget for the random-pull baseline, which has no routing
/// information to decide when to stop.
pub const RANDOM_TTL: u32 = 8;

/// A `Lost` entry is given up after being gossiped this many times
/// without the event being recovered (it has likely been evicted from
/// every cache).
pub const MAX_ATTEMPTS: u32 = 20;

/// Fallback `Lost` capacity when the harness has not tied it to β:
/// the paper's default buffer size (Table I, β = 1500).
pub const DEFAULT_LOST_CAPACITY: usize = 1500;

impl Default for GossipConfig {
    fn default() -> Self {
        GossipConfig {
            p_forward: 0.5,
            p_source: 0.5,
            lost_capacity: None,
        }
    }
}

impl GossipConfig {
    /// Checks the configuration: `Err` describes a probability outside
    /// `[0, 1]` or a `Lost` capacity set to zero.
    pub fn check(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.p_forward) {
            return Err(format!("p_forward out of range: {}", self.p_forward));
        }
        if !(0.0..=1.0).contains(&self.p_source) {
            return Err(format!("p_source out of range: {}", self.p_source));
        }
        if self.lost_capacity == Some(0) {
            return Err("lost_capacity must be positive when set".to_owned());
        }
        Ok(())
    }

    /// The effective `Lost` buffer capacity: the configured bound, or
    /// [`DEFAULT_LOST_CAPACITY`] when unset.
    pub fn resolved_lost_capacity(&self) -> usize {
        self.lost_capacity.unwrap_or(DEFAULT_LOST_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert_eq!(GossipConfig::default().check(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "p_forward out of range: 1.5")]
    fn invalid_probability_panics() {
        crate::Algorithm::push().build(GossipConfig {
            p_forward: 1.5,
            ..GossipConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "lost_capacity must be positive when set")]
    fn zero_lost_capacity_panics() {
        crate::Algorithm::push().build(GossipConfig {
            lost_capacity: Some(0),
            ..GossipConfig::default()
        });
    }

    #[test]
    fn lost_capacity_resolution() {
        assert_eq!(
            GossipConfig::default().resolved_lost_capacity(),
            DEFAULT_LOST_CAPACITY
        );
        let bounded = GossipConfig {
            lost_capacity: Some(64),
            ..GossipConfig::default()
        };
        assert_eq!(bounded.resolved_lost_capacity(), 64);
    }
}

//! Patterns and the content model of the paper's Section IV-A.
//!
//! Events are "randomly-generated sequences of numbers, where each
//! number represents a pattern of the system"; an event pattern is a
//! single number; an event matches a subscription if it contains that
//! number. The system has `Π` patterns (70 by default) and an event
//! matches at most 3 patterns.

use eps_sim::{Rng, Zipf};

/// A content pattern: a single number out of the pattern universe.
///
/// # Examples
///
/// ```
/// use eps_pubsub::PatternId;
///
/// let p = PatternId::new(5);
/// assert_eq!(p.value(), 5);
/// assert_eq!(p.to_string(), "p5");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct PatternId(u16);

impl PatternId {
    /// Creates a pattern id.
    pub const fn new(v: u16) -> Self {
        PatternId(v)
    }

    /// The raw pattern number.
    pub const fn value(self) -> u16 {
        self.0
    }

    /// The dense index of this pattern, for indexing per-pattern arrays.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u16> for PatternId {
    fn from(v: u16) -> Self {
        PatternId(v)
    }
}

impl std::fmt::Display for PatternId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// The pattern universe: the `Π` patterns available in the system and
/// the content-generation model built on them.
///
/// # Examples
///
/// ```
/// use eps_pubsub::PatternSpace;
/// use eps_sim::RngFactory;
///
/// let space = PatternSpace::new(70, 3);
/// let mut rng = RngFactory::new(1).stream("content");
/// let content = space.random_content(&mut rng);
/// assert!(!content.is_empty() && content.len() <= 3);
/// let subs = space.random_subscriptions(2, &mut rng);
/// assert_eq!(subs.len(), 2);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PatternSpace {
    universe: u16,
    max_patterns_per_event: usize,
    /// Pattern-popularity skew: `None` is the paper's uniform model
    /// (and draws byte-identically to it); `Some` draws pattern ranks
    /// from a bounded Zipf law, with pattern 0 the most popular.
    zipf: Option<Zipf>,
}

impl PatternSpace {
    /// The paper's default universe: Π = 70 patterns, at most 3
    /// patterns per event.
    pub fn paper_default() -> Self {
        PatternSpace::new(70, 3)
    }

    /// Creates a pattern space.
    ///
    /// # Panics
    ///
    /// Panics if `universe == 0` or `max_patterns_per_event == 0`.
    pub fn new(universe: u16, max_patterns_per_event: usize) -> Self {
        assert!(universe > 0, "pattern universe must be non-empty");
        assert!(
            max_patterns_per_event > 0,
            "events must carry at least one pattern"
        );
        PatternSpace {
            universe,
            max_patterns_per_event,
            zipf: None,
        }
    }

    /// Creates a pattern space with Zipf-skewed pattern popularity of
    /// exponent `s` (ROADMAP 4b: realistic workloads concentrate both
    /// content and interest on few hot patterns). Pattern 0 is rank 1
    /// (most popular). `s = 0` is exactly the uniform model — the
    /// returned space equals [`PatternSpace::new`] and consumes the
    /// same RNG draws.
    ///
    /// # Panics
    ///
    /// Panics on the [`PatternSpace::new`] constraints, or if `s` is
    /// negative or non-finite.
    pub fn with_zipf(universe: u16, max_patterns_per_event: usize, s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "Zipf exponent must be ≥ 0");
        let mut space = PatternSpace::new(universe, max_patterns_per_event);
        if s > 0.0 {
            space.zipf = Some(Zipf::new(universe as u64, s));
        }
        space
    }

    /// Number of patterns in the universe (Π).
    pub fn universe(&self) -> u16 {
        self.universe
    }

    /// Maximum number of patterns a single event can match.
    pub fn max_patterns_per_event(&self) -> usize {
        self.max_patterns_per_event
    }

    /// Iterator over every pattern in the universe.
    pub fn patterns(&self) -> impl Iterator<Item = PatternId> {
        (0..self.universe).map(PatternId::new)
    }

    /// Draws the content of a new event: `max_patterns_per_event`
    /// uniform draws (with replacement, as a random number sequence
    /// would produce), deduplicated and sorted. The result has between
    /// 1 and `max_patterns_per_event` distinct patterns.
    pub fn random_content(&self, rng: &mut Rng) -> Vec<PatternId> {
        let mut content = Vec::with_capacity(self.max_patterns_per_event);
        self.random_content_into(rng, &mut content);
        content
    }

    /// Allocation-free variant of [`PatternSpace::random_content`]:
    /// clears and refills `out`, drawing from `rng` in exactly the
    /// same order, so a publisher ticking at the paper's rates reuses
    /// one buffer instead of allocating per publication.
    pub fn random_content_into(&self, rng: &mut Rng, out: &mut Vec<PatternId>) {
        out.clear();
        match self.zipf {
            // The uniform path must stay byte-identical to the
            // pre-Zipf model: same draws, same order.
            None => out.extend(
                (0..self.max_patterns_per_event)
                    .map(|_| PatternId::new(rng.random_range(0..self.universe))),
            ),
            Some(zipf) => out.extend(
                (0..self.max_patterns_per_event)
                    .map(|_| PatternId::new(zipf.sample(rng) as u16 - 1)),
            ),
        }
        out.sort();
        out.dedup();
    }

    /// Draws `count` *distinct* patterns for a subscriber (the paper's
    /// π_max subscriptions per dispatcher, "drawn randomly from the
    /// overall number Π of patterns").
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds the universe size.
    pub fn random_subscriptions(&self, count: usize, rng: &mut Rng) -> Vec<PatternId> {
        assert!(
            count <= self.universe as usize,
            "cannot draw {count} distinct patterns from a universe of {}",
            self.universe
        );
        match self.zipf {
            // Floyd's sampler, byte-identical to the pre-Zipf model.
            None => rng
                .sample_indices(self.universe as usize, count)
                .into_iter()
                .map(|i| PatternId::new(i as u16))
                .collect(),
            // Skewed interest: Zipf draws, rejecting repeats until
            // `count` distinct patterns accumulate. With count ≪ Π
            // (the π_max regime) the rejection loop terminates fast;
            // the caller gets a sorted list either way.
            Some(zipf) => {
                let mut subs: Vec<PatternId> = Vec::with_capacity(count);
                while subs.len() < count {
                    let p = PatternId::new(zipf.sample(rng) as u16 - 1);
                    if let Err(pos) = subs.binary_search(&p) {
                        subs.insert(pos, p);
                    }
                }
                subs
            }
        }
    }

    /// Expected number of subscribers per pattern for `n` dispatchers
    /// each holding `pi_max` subscriptions: `N_π = N·π_max / Π`
    /// (Section IV-A; 2.85 at the paper's defaults).
    pub fn subscribers_per_pattern(&self, n: usize, pi_max: usize) -> f64 {
        (n * pi_max) as f64 / self.universe as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eps_sim::check::forall;
    use eps_sim::RngFactory;

    #[test]
    fn paper_default_matches_figure_2() {
        let s = PatternSpace::paper_default();
        assert_eq!(s.universe(), 70);
        assert_eq!(s.max_patterns_per_event(), 3);
        let n_pi = s.subscribers_per_pattern(100, 2);
        assert!((n_pi - 2.857).abs() < 0.01, "N_pi = {n_pi}");
    }

    #[test]
    fn content_is_sorted_distinct_and_bounded() {
        forall("content_is_sorted_distinct_and_bounded", 256, |rng| {
            let universe = rng.random_range(1..200u16);
            let max_per_event = rng.random_range(1..6usize);
            let s = PatternSpace::new(universe, max_per_event);
            for _ in 0..50 {
                let c = s.random_content(rng);
                assert!((1..=max_per_event).contains(&c.len()));
                assert!(c.windows(2).all(|w| w[0] < w[1]));
                assert!(c.iter().all(|p| p.value() < universe));
            }
        });
    }

    #[test]
    fn content_covers_the_universe() {
        let s = PatternSpace::paper_default();
        let mut rng = RngFactory::new(4).stream("content");
        let mut hit = [false; 70];
        for _ in 0..5000 {
            for p in s.random_content(&mut rng) {
                hit[p.index()] = true;
            }
        }
        assert!(hit.iter().all(|&h| h), "uniform draws should cover Π");
    }

    #[test]
    fn random_content_into_matches_allocating_variant() {
        let s = PatternSpace::paper_default();
        let mut rng_a = RngFactory::new(9).stream("content");
        let mut rng_b = RngFactory::new(9).stream("content");
        let mut buf = vec![PatternId::new(99)]; // stale content is cleared
        for _ in 0..200 {
            let fresh = s.random_content(&mut rng_a);
            s.random_content_into(&mut rng_b, &mut buf);
            assert_eq!(fresh, buf, "identical draws, identical content");
        }
    }

    #[test]
    fn subscriptions_are_distinct() {
        let s = PatternSpace::paper_default();
        let mut rng = RngFactory::new(5).stream("subs");
        for count in [1, 2, 5, 30, 70] {
            let subs = s.random_subscriptions(count, &mut rng);
            assert_eq!(subs.len(), count);
            assert!(subs.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    #[should_panic]
    fn too_many_subscriptions_panics() {
        let s = PatternSpace::new(10, 3);
        let mut rng = RngFactory::new(5).stream("subs");
        let _ = s.random_subscriptions(11, &mut rng);
    }

    #[test]
    fn patterns_enumerates_universe() {
        let s = PatternSpace::new(7, 1);
        assert_eq!(s.patterns().count(), 7);
    }

    #[test]
    fn zipf_zero_is_the_uniform_model_exactly() {
        // The `--zipf 0` default must be a provable identity: same
        // struct, same draws, same outputs.
        let uniform = PatternSpace::new(70, 3);
        let zipf0 = PatternSpace::with_zipf(70, 3, 0.0);
        assert_eq!(uniform, zipf0);
        let mut rng_a = RngFactory::new(11).stream("content");
        let mut rng_b = RngFactory::new(11).stream("content");
        for _ in 0..200 {
            assert_eq!(
                uniform.random_content(&mut rng_a),
                zipf0.random_content(&mut rng_b)
            );
            assert_eq!(
                uniform.random_subscriptions(2, &mut rng_a),
                zipf0.random_subscriptions(2, &mut rng_b)
            );
        }
    }

    #[test]
    fn zipf_content_is_sorted_distinct_and_skewed() {
        let s = PatternSpace::with_zipf(70, 3, 1.5);
        let mut rng = RngFactory::new(13).stream("content");
        let mut low = 0usize;
        let mut total = 0usize;
        for _ in 0..2000 {
            let c = s.random_content(&mut rng);
            assert!((1..=3).contains(&c.len()));
            assert!(c.windows(2).all(|w| w[0] < w[1]));
            assert!(c.iter().all(|p| p.value() < 70));
            total += c.len();
            low += c.iter().filter(|p| p.value() < 7).count();
        }
        // At s = 1.5 the top decile of patterns carries well over half
        // the draws; uniform would give it 10%.
        assert!(
            low as f64 > 0.5 * total as f64,
            "skew missing: {low}/{total} draws in the top decile"
        );
    }

    #[test]
    fn zipf_subscriptions_are_distinct_and_sorted() {
        let s = PatternSpace::with_zipf(70, 3, 1.0);
        let mut rng = RngFactory::new(17).stream("subs");
        for count in [1, 2, 5, 20] {
            let subs = s.random_subscriptions(count, &mut rng);
            assert_eq!(subs.len(), count);
            assert!(subs.windows(2).all(|w| w[0] < w[1]));
        }
    }
}

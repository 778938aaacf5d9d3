//! Deterministic random-number streams, implemented in-tree.
//!
//! A single master seed fans out into independent, *named* streams so
//! that sweeping one simulation parameter (say, the buffer size) does
//! not perturb the random choices made by unrelated components (say,
//! the workload content). Stream derivation uses FNV-1a over the name
//! followed by SplitMix64 mixing; the generator itself is
//! xoshiro256++. All three are fixed, published algorithms with no
//! external dependency, so streams are stable across Rust releases and
//! platforms and the workspace builds with no network access.

/// A small, fast, deterministic pseudo-random generator
/// (xoshiro256++ by Blackman & Vigna), seeded via SplitMix64.
///
/// This is a concrete type on purpose: every call inlines, with no
/// trait-object dispatch on the simulation hot path.
///
/// # Examples
///
/// ```
/// use eps_sim::Rng;
///
/// let mut rng = Rng::from_seed(42);
/// let a = rng.next_u64();
/// let b = rng.next_u64();
/// assert_ne!(a, b);
/// assert_eq!(Rng::from_seed(42).next_u64(), a);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed, expanding it into the
    /// 256-bit state with the SplitMix64 sequence (the seeding scheme
    /// recommended by the xoshiro authors).
    pub fn from_seed(seed: u64) -> Self {
        let mut state = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            // Each call advances by the golden-ratio increment inside
            // `splitmix64`, so step the caller-side state to match the
            // canonical SplitMix64 sequence.
            *slot = splitmix64(state);
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        }
        Rng { s }
    }

    /// The next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)` with 53 random bits of mantissa.
    #[inline]
    pub(crate) fn random_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn random_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.random_f64() < p
        }
    }

    /// A uniform integer in `[0, n)`, unbiased (Lemire's widening
    /// multiplication with rejection).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn random_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "random_below(0)");
        let mut m = self.next_u64() as u128 * n as u128;
        if (m as u64) < n {
            // 2^64 mod n, computed without overflow.
            let threshold = n.wrapping_neg() % n;
            while (m as u64) < threshold {
                m = self.next_u64() as u128 * n as u128;
            }
        }
        (m >> 64) as u64
    }

    /// A uniform value in a half-open range. Implemented for the
    /// integer ranges used in the simulator and for `Range<f64>`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn random_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample_from(self)
    }

    /// A uniformly chosen element of `slice`, or `None` if empty.
    #[inline]
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.random_below(slice.len() as u64) as usize])
        }
    }

    /// A uniformly chosen item of an iterator (single-pass reservoir
    /// sampling), or `None` if the iterator is empty.
    pub fn choose_iter<I: IntoIterator>(&mut self, iter: I) -> Option<I::Item> {
        let mut chosen = None;
        for (seen, item) in iter.into_iter().enumerate() {
            if seen == 0 || self.random_below(seen as u64 + 1) == 0 {
                chosen = Some(item);
            }
        }
        chosen
    }

    /// `amount` distinct indices drawn uniformly from `0..length`,
    /// in ascending order (Floyd's algorithm).
    ///
    /// # Panics
    ///
    /// Panics if `amount > length`.
    pub fn sample_indices(&mut self, length: usize, amount: usize) -> Vec<usize> {
        assert!(
            amount <= length,
            "cannot sample {amount} distinct indices from 0..{length}"
        );
        let mut picked: Vec<usize> = Vec::with_capacity(amount);
        for j in length - amount..length {
            let t = self.random_below(j as u64 + 1) as usize;
            match picked.binary_search(&t) {
                // `t` already picked: take `j` instead. `j` exceeds
                // every earlier pick, so pushing keeps `picked` sorted.
                Ok(_) => picked.push(j),
                Err(pos) => picked.insert(pos, t),
            }
        }
        picked
    }
}

/// A bounded Zipf distribution over the ranks `1..=n` with exponent
/// `s ≥ 0`: `P(k) ∝ k^−s`. `s = 0` degenerates to uniform; larger `s`
/// concentrates mass on the low ranks (the "popular" items).
///
/// Sampling uses Devroye-style rejection from the integral envelope of
/// `x^−s`, so a draw is O(1) in `n` — no per-rank tables, which is what
/// pattern universes of 10⁴–10⁵ need. Deterministic: a draw consumes
/// one uniform for the envelope plus, for ranks `> 1`, one uniform per
/// rejection test, all from the caller's [`Rng`] stream.
///
/// # Examples
///
/// ```
/// use eps_sim::{Rng, Zipf};
///
/// let zipf = Zipf::new(70, 1.2);
/// let mut rng = Rng::from_seed(7);
/// let rank = zipf.sample(&mut rng);
/// assert!((1..=70).contains(&rank));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Zipf {
    n: f64,
    s: f64,
    /// Total envelope mass: `∫₀ⁿ max(1, x)^−s dx`.
    t: f64,
}

// `n`, `s` and `t` are finite by construction (asserted in `new`), so
// the derived `PartialEq` is total on the values that can exist.
impl Eq for Zipf {}

impl Zipf {
    /// Creates the distribution over `1..=n` with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is negative or non-finite.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(s.is_finite() && s >= 0.0, "Zipf exponent must be ≥ 0");
        let n = n as f64;
        // ∫₁ⁿ x^−s dx, plus 1 for the [0, 1) strip of the envelope.
        let t = if (s - 1.0).abs() < 1e-12 {
            1.0 + n.ln()
        } else {
            (n.powf(1.0 - s) - s) / (1.0 - s)
        };
        Zipf { n, s, t }
    }

    /// Inverse CDF of the envelope density `max(1, x)^−s / t` at
    /// envelope mass `m ∈ [0, t)`.
    fn envelope_inv(&self, m: f64) -> f64 {
        if m <= 1.0 {
            m
        } else if (self.s - 1.0).abs() < 1e-12 {
            (m - 1.0).exp()
        } else {
            (m * (1.0 - self.s) + self.s).powf(1.0 / (1.0 - self.s))
        }
    }

    /// Draws one rank in `1..=n`.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        loop {
            let x = self.envelope_inv(rng.random_f64() * self.t);
            let k = x.ceil().max(1.0).min(self.n);
            // Over [0, 1) the envelope equals the target: accept.
            if k <= 1.0 {
                return 1;
            }
            // Accept with probability (x / k)^s — the ratio of the
            // target mass at rank k to the envelope at x.
            if rng.random_f64() < (x / k).powf(self.s) {
                return k as u64;
            }
        }
    }
}

/// Ranges [`Rng::random_range`] can draw from.
pub trait SampleRange {
    /// The element type produced by sampling.
    type Output;
    /// Draws one uniform value from the range.
    fn sample_from(self, rng: &mut Rng) -> Self::Output;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for std::ops::Range<$t> {
            type Output = $t;
            #[inline]
            fn sample_from(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as u64) - (self.start as u64);
                self.start + rng.random_below(span) as $t
            }
        }
    )*};
}

impl_int_range!(u16, u32, u64, usize);

impl SampleRange for std::ops::Range<f64> {
    type Output = f64;
    #[inline]
    fn sample_from(self, rng: &mut Rng) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + rng.random_f64() * (self.end - self.start)
    }
}

/// Derives independent named RNG streams from one master seed.
///
/// # Examples
///
/// ```
/// use eps_sim::RngFactory;
///
/// let factory = RngFactory::new(42);
/// let mut topology = factory.stream("topology");
/// let mut workload = factory.stream("workload");
/// // Streams are deterministic...
/// let again = factory.stream("topology").next_u64();
/// assert_eq!(topology.next_u64(), again);
/// // ...and independent.
/// assert_ne!(factory.stream("topology").next_u64(), workload.next_u64());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RngFactory {
    master: u64,
}

impl RngFactory {
    /// Creates a factory from a master seed.
    pub fn new(master: u64) -> Self {
        RngFactory { master }
    }

    /// Returns the RNG stream with the given name. Calling twice with
    /// the same name returns identical streams.
    pub fn stream(&self, name: &str) -> Rng {
        Rng::from_seed(self.stream_seed(name))
    }

    /// Returns a stream keyed by a name plus an index, for per-entity
    /// streams such as "one per link".
    pub fn indexed_stream(&self, name: &str, index: u64) -> Rng {
        let base = self.stream_seed(name);
        Rng::from_seed(splitmix64(base ^ splitmix64(index)))
    }

    /// The derived 64-bit seed for a named stream.
    pub fn stream_seed(&self, name: &str) -> u64 {
        splitmix64(self.master ^ fnv1a(name.as_bytes()))
    }
}

/// FNV-1a over bytes: a fixed, platform-independent string hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 mixing function (Steele et al.); a strong 64-bit mixer.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_same_stream() {
        let f = RngFactory::new(7);
        let mut x = f.stream("x");
        let mut y = f.stream("x");
        let a: Vec<u64> = (0..16).map(|_| x.next_u64()).collect();
        let b: Vec<u64> = (0..16).map(|_| y.next_u64()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_names_differ() {
        let f = RngFactory::new(7);
        assert_ne!(f.stream_seed("loss"), f.stream_seed("gossip"));
    }

    #[test]
    fn different_master_seeds_differ() {
        assert_ne!(
            RngFactory::new(1).stream_seed("x"),
            RngFactory::new(2).stream_seed("x")
        );
    }

    #[test]
    fn indexed_streams_are_independent() {
        let f = RngFactory::new(9);
        let a = f.indexed_stream("link", 0).next_u64();
        let b = f.indexed_stream("link", 1).next_u64();
        assert_ne!(a, b);
        let a2 = f.indexed_stream("link", 0).next_u64();
        assert_eq!(a, a2);
    }

    #[test]
    fn fnv1a_matches_reference_vector() {
        // Known FNV-1a test vector: "a" -> 0xaf63dc4c8601ec8c
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn xoshiro_matches_reference_sequence() {
        // First outputs of xoshiro256++ from the state {1, 2, 3, 4},
        // per the reference implementation by Blackman & Vigna.
        let mut rng = Rng { s: [1, 2, 3, 4] };
        let expected: [u64; 5] = [
            41943041,
            58720359,
            3588806011781223,
            3591011842654386,
            9228616714210784205,
        ];
        for &want in &expected {
            assert_eq!(rng.next_u64(), want);
        }
    }

    #[test]
    fn stream_values_in_range() {
        let f = RngFactory::new(123);
        let mut r = f.stream("range");
        for _ in 0..100 {
            let v = r.random_range(0..70u16);
            assert!(v < 70);
        }
    }

    #[test]
    fn random_f64_is_in_unit_interval() {
        let mut r = Rng::from_seed(5);
        for _ in 0..1000 {
            let v = r.random_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn random_below_is_roughly_uniform() {
        let mut r = Rng::from_seed(11);
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            counts[r.random_below(10) as usize] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "skewed bucket: {counts:?}");
        }
    }

    #[test]
    fn random_bool_extremes_never_sample() {
        // p = 0 and p = 1 must not consume randomness disagreeing
        // with their answer.
        let mut r = Rng::from_seed(3);
        assert!(!r.random_bool(0.0));
        assert!(r.random_bool(1.0));
    }

    #[test]
    fn choose_covers_all_elements() {
        let mut r = Rng::from_seed(17);
        let items = [10, 20, 30];
        let mut seen = [false; 3];
        for _ in 0..200 {
            let &v = r.choose(&items).unwrap();
            seen[(v / 10 - 1) as usize] = true;
        }
        assert_eq!(seen, [true; 3]);
        assert!(r.choose::<u8>(&[]).is_none());
    }

    #[test]
    fn choose_iter_is_uniform_enough() {
        let mut r = Rng::from_seed(23);
        let mut counts = [0usize; 5];
        for _ in 0..5000 {
            let v = r.choose_iter(0..5usize).unwrap();
            counts[v] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "skewed bucket: {counts:?}");
        }
        assert!(r.choose_iter(std::iter::empty::<u8>()).is_none());
    }

    #[test]
    fn sample_indices_are_distinct_sorted_and_in_bounds() {
        let mut r = Rng::from_seed(29);
        for _ in 0..100 {
            let picked = r.sample_indices(50, 12);
            assert_eq!(picked.len(), 12);
            assert!(picked.windows(2).all(|w| w[0] < w[1]));
            assert!(picked.iter().all(|&i| i < 50));
        }
        // Degenerate cases.
        assert_eq!(r.sample_indices(4, 4), vec![0, 1, 2, 3]);
        assert!(r.sample_indices(4, 0).is_empty());
    }

    #[test]
    fn float_range_spans_interval() {
        let mut r = Rng::from_seed(31);
        for _ in 0..1000 {
            let v = r.random_range(2.0..3.0);
            assert!((2.0..3.0).contains(&v));
        }
    }

    #[test]
    fn zipf_ranks_stay_in_bounds() {
        let mut r = Rng::from_seed(37);
        for &s in &[0.0, 0.5, 1.0, 1.5, 3.0] {
            let zipf = Zipf::new(70, s);
            for _ in 0..2000 {
                let k = zipf.sample(&mut r);
                assert!((1..=70).contains(&k), "s={s}: rank {k} out of range");
            }
        }
        // Degenerate single-rank distribution.
        let one = Zipf::new(1, 2.0);
        assert_eq!(one.sample(&mut r), 1);
    }

    #[test]
    fn zipf_frequencies_match_the_law() {
        // At s = 1 over 1..=10, P(1)/P(2) = 2 and P(1) = 1/H₁₀ ≈ 0.34.
        let zipf = Zipf::new(10, 1.0);
        let mut r = Rng::from_seed(41);
        let mut counts = [0usize; 10];
        let draws = 200_000;
        for _ in 0..draws {
            counts[(zipf.sample(&mut r) - 1) as usize] += 1;
        }
        let h10: f64 = (1..=10).map(|k| 1.0 / k as f64).sum();
        for (i, &c) in counts.iter().enumerate() {
            let want = 1.0 / ((i + 1) as f64 * h10);
            let got = c as f64 / draws as f64;
            assert!(
                (got - want).abs() < 0.01,
                "rank {}: got {got:.4}, want {want:.4}",
                i + 1
            );
        }
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let zipf = Zipf::new(8, 0.0);
        let mut r = Rng::from_seed(43);
        let mut counts = [0usize; 8];
        for _ in 0..16_000 {
            counts[(zipf.sample(&mut r) - 1) as usize] += 1;
        }
        for &c in &counts {
            assert!((1700..2300).contains(&c), "skewed bucket: {counts:?}");
        }
    }

    #[test]
    fn zipf_sampling_is_deterministic() {
        let zipf = Zipf::new(1000, 1.2);
        let mut a = Rng::from_seed(47);
        let mut b = Rng::from_seed(47);
        let xs: Vec<u64> = (0..64).map(|_| zipf.sample(&mut a)).collect();
        let ys: Vec<u64> = (0..64).map(|_| zipf.sample(&mut b)).collect();
        assert_eq!(xs, ys);
    }
}

//! Small statistics helpers used by the metrics layer and the
//! experiment harness: online summaries and time-binned series.

use crate::time::SimTime;

/// Online (Welford) summary of a stream of `f64` samples.
///
/// # Examples
///
/// ```
/// use eps_sim::Summary;
///
/// let mut s = Summary::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     s.record(x);
/// }
/// assert_eq!(s.count(), 4);
/// assert!((s.mean() - 2.5).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance, or 0.0 when fewer than two samples.
    fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another summary into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// The `q`-quantile (0.0 ..= 1.0) of `samples` by linear interpolation
/// between the two order statistics around it — `None` for an empty
/// slice — with each sample read as `value(sample)`, where `value` must be
/// monotone: the two order statistics it interpolates between are
/// selected in place (`samples` is left reordered) instead of sorted
/// for, and converted after. A monotone `value` maps the k-th smallest
/// sample to the k-th smallest value, so this is bit for bit the
/// quantile of the converted samples, with no converted copy.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]` or two samples do not compare
/// (a NaN).
pub fn quantile_in_place<T: PartialOrd + Copy>(
    samples: &mut [T],
    q: f64,
    value: impl Fn(T) -> f64,
) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    if samples.is_empty() {
        return None;
    }
    let order = |a: &T, b: &T| a.partial_cmp(b).expect("NaN sample in quantile");
    let pos = q * (samples.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    let frac = pos - lo as f64;
    let (below, &mut high, _) = samples.select_nth_unstable_by(hi, order);
    // `lo` is `hi` or the rank just below it: the largest of `below`.
    let low = match below.iter().max_by(|a, b| order(a, b)) {
        Some(&max) if lo < hi => max,
        _ => high,
    };
    Some(value(low) * (1.0 - frac) + value(high) * frac)
}

/// A ratio series binned over virtual time: each bin accumulates a
/// numerator and a denominator (e.g. events delivered / events
/// expected), and the series reports their per-bin ratio.
///
/// # Examples
///
/// ```
/// use eps_sim::{RatioSeries, SimTime};
///
/// let mut s = RatioSeries::new(SimTime::from_secs(1));
/// s.add(SimTime::from_millis(100), 3.0, 4.0);
/// s.add(SimTime::from_millis(900), 1.0, 4.0);
/// s.add(SimTime::from_millis(1500), 1.0, 1.0);
/// let bins = s.bins();
/// assert_eq!(bins.len(), 2);
/// assert!((bins[0].ratio() - 0.5).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, Default)]
pub struct RatioSeries {
    bin_width: SimTime,
    bins: Vec<RatioBin>,
}

/// One bin of a [`RatioSeries`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RatioBin {
    /// Start of the bin in virtual time.
    pub start: SimTime,
    /// Accumulated numerator.
    pub numerator: f64,
    /// Accumulated denominator.
    pub denominator: f64,
}

impl RatioBin {
    /// The bin's ratio; 1.0 when the denominator is zero (an empty bin
    /// counts as "nothing was lost").
    pub fn ratio(&self) -> f64 {
        if self.denominator == 0.0 {
            1.0
        } else {
            self.numerator / self.denominator
        }
    }
}

impl RatioSeries {
    /// Creates a series with the given bin width.
    ///
    /// # Panics
    ///
    /// Panics if `bin_width` is zero.
    pub fn new(bin_width: SimTime) -> Self {
        assert!(bin_width > SimTime::ZERO, "bin width must be positive");
        RatioSeries {
            bin_width,
            bins: Vec::new(),
        }
    }

    /// The configured bin width.
    pub fn bin_width(&self) -> SimTime {
        self.bin_width
    }

    /// Accumulates `num`/`den` into the bin containing time `at`.
    pub fn add(&mut self, at: SimTime, num: f64, den: f64) {
        let idx = (at.as_nanos() / self.bin_width.as_nanos()) as usize;
        if self.bins.len() <= idx {
            let w = self.bin_width;
            let old = self.bins.len();
            self.bins.resize_with(idx + 1, Default::default);
            for (i, bin) in self.bins.iter_mut().enumerate().skip(old) {
                bin.start = w.saturating_mul(i as u64);
            }
        }
        self.bins[idx].numerator += num;
        self.bins[idx].denominator += den;
    }

    /// The accumulated bins, in time order.
    pub fn bins(&self) -> &[RatioBin] {
        &self.bins
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::forall;

    #[test]
    fn summary_mean_and_variance() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn summary_empty_is_safe() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
    }

    #[test]
    fn summary_merge_matches_sequential() {
        // For any data, magnitude and split point.
        forall("summary_merge_matches_sequential", 256, |rng| {
            let scale = [1.0, 10.0, 1e3, 1e6][rng.random_below(4) as usize];
            let data: Vec<f64> = (0..rng.random_range(2..200usize))
                .map(|_| rng.random_range(-scale..scale))
                .collect();
            let split = rng.random_range(0..data.len() + 1);
            let mut whole = Summary::new();
            data.iter().for_each(|&x| whole.record(x));
            let mut a = Summary::new();
            let mut b = Summary::new();
            data[..split].iter().for_each(|&x| a.record(x));
            data[split..].iter().for_each(|&x| b.record(x));
            a.merge(&b);
            assert_eq!(a.count(), whole.count());
            assert!((a.mean() - whole.mean()).abs() < 1e-11 * scale);
            assert!((a.variance() - whole.variance()).abs() < 1e-11 * scale * scale);
            assert_eq!(a.min(), whole.min());
            assert_eq!(a.max(), whole.max());
        });
    }

    /// The `q`-quantile of plain samples.
    fn quantile(samples: &[f64], q: f64) -> Option<f64> {
        quantile_in_place(&mut samples.to_vec(), q, |x| x)
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(quantile(&xs, 0.5), Some(2.5));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn the_selected_quantile_is_the_sorted_one_bit_for_bit() {
        // The quantile of the samples in seconds, by sorting for it.
        let sorted = |ns: &[u64], q: f64| {
            let mut secs: Vec<f64> = ns
                .iter()
                .map(|&n| SimTime::from_nanos(n).as_secs_f64())
                .collect();
            secs.sort_by(f64::total_cmp);
            let pos = q * (secs.len().checked_sub(1)?) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            let frac = pos - lo as f64;
            Some(secs[lo] * (1.0 - frac) + secs[hi] * frac)
        };
        let check = |ns: &[u64], q: f64| {
            let selected = quantile_in_place(&mut ns.to_vec(), q, |n| {
                SimTime::from_nanos(n).as_secs_f64()
            });
            assert_eq!(
                selected.map(f64::to_bits),
                sorted(ns, q).map(f64::to_bits),
                "{ns:?} q {q}"
            );
            let secs: Vec<f64> = ns
                .iter()
                .map(|&n| SimTime::from_nanos(n).as_secs_f64())
                .collect();
            assert_eq!(
                quantile(&secs, q).map(f64::to_bits),
                selected.map(f64::to_bits)
            );
        };
        let qs = [0.0, 0.25, 0.5, 0.95, 1.0];
        // n = 0, 1 and 2, and ties.
        for ns in [
            &[][..],
            &[7],
            &[9, 2],
            &[5, 5],
            &[3, 3, 3, 1, 3],
            &[4, 1, 4, 1, 4, 1],
        ] {
            qs.iter().for_each(|&q| check(ns, q));
        }
        forall("selected_quantile_matches_sort", 200, |rng| {
            // Few distinct values (ties) or wide ones (rounding to f64).
            let spread = [4, 1 << 20, u64::MAX >> 8][rng.random_below(3) as usize];
            let n = rng.random_range(1..60usize);
            let ns: Vec<u64> = (0..n).map(|_| rng.random_below(spread)).collect();
            check(&ns, rng.random_range(0.0..1.0));
            qs.iter().for_each(|&q| check(&ns, q));
        });
    }

    #[test]
    #[should_panic(expected = "NaN sample in quantile")]
    fn a_nan_sample_panics() {
        let _ = quantile(&[1.0, f64::NAN, 2.0], 0.5);
    }

    #[test]
    fn ratio_series_bins_by_time() {
        let mut s = RatioSeries::new(SimTime::from_secs(1));
        s.add(SimTime::from_millis(2500), 1.0, 2.0);
        let bins = s.bins();
        assert_eq!(bins.len(), 3);
        assert_eq!(bins[2].start, SimTime::from_secs(2));
        assert_eq!(bins[0].ratio(), 1.0); // empty bin
        assert_eq!(bins[2].ratio(), 0.5);
    }

    #[test]
    fn ratio_series_ratios_per_bin() {
        let mut s = RatioSeries::new(SimTime::from_secs(1));
        s.add(SimTime::from_millis(100), 8.0, 10.0);
        s.add(SimTime::from_millis(1100), 2.0, 10.0);
        let ratios: Vec<f64> = s.bins().iter().map(RatioBin::ratio).collect();
        assert_eq!(ratios, [0.8, 0.2]);
    }

    #[test]
    fn quantiles_are_bounded_by_the_extremes_and_monotone_in_q() {
        forall("quantiles_are_bounded_and_monotone", 256, |rng| {
            let data: Vec<f64> = (0..rng.random_range(1..100usize))
                .map(|_| rng.random_range(-1e6..1e6))
                .collect();
            let (q1, q2) = (rng.random_f64(), rng.random_f64());
            let v_lo = quantile(&data, q1.min(q2)).unwrap();
            let v_hi = quantile(&data, q1.max(q2)).unwrap();
            let min = data.iter().copied().fold(f64::INFINITY, f64::min);
            let max = data.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            assert!(v_lo >= min - 1e-9 && v_hi <= max + 1e-9);
            assert!(v_lo <= v_hi + 1e-9);
        });
    }

    #[test]
    fn ratio_series_conserves_mass() {
        // Summing bin numerators and denominators reproduces the inputs.
        forall("ratio_series_conserves_mass", 256, |rng| {
            let mut series = RatioSeries::new(SimTime::from_millis(100));
            let (mut num_total, mut den_total) = (0.0, 0.0);
            for _ in 0..rng.random_range(1..200usize) {
                let at = SimTime::from_nanos(rng.random_below(10_000_000));
                let den = rng.random_range(1..50u32) as f64;
                let num = (rng.random_below(50) as f64).min(den);
                series.add(at, num, den);
                num_total += num;
                den_total += den;
            }
            let bins_num: f64 = series.bins().iter().map(|b| b.numerator).sum();
            let bins_den: f64 = series.bins().iter().map(|b| b.denominator).sum();
            assert_eq!(bins_num, num_total);
            assert_eq!(bins_den, den_total);
            let total = bins_num / bins_den;
            assert!((0.0..=1.0).contains(&total));
            let nonempty = series.bins().iter().filter(|b| b.denominator > 0.0);
            assert!(nonempty.map(RatioBin::ratio).any(|r| r <= total + 1e-12));
        });
    }
}

//! Virtual time for the simulation kernel.
//!
//! Time is kept as an integer number of nanoseconds so that simulations
//! are exactly reproducible: no floating-point accumulation error, and a
//! total order with stable tie-breaking in the event queue.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A point in virtual time, measured in nanoseconds since the start of
/// the simulation.
///
/// `SimTime` is also used to represent durations (a point relative to
/// [`SimTime::ZERO`]); arithmetic saturates on underflow rather than
/// panicking so that defensive code such as `deadline - now` is safe.
///
/// # Examples
///
/// ```
/// use eps_sim::SimTime;
///
/// let t = SimTime::from_secs_f64(0.03);
/// assert_eq!(t.as_nanos(), 30_000_000);
/// assert!((t.as_secs_f64() - 0.03).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The origin of virtual time (also the zero duration).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable time; useful as "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates a time from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates a time from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Creates a time from fractional seconds, rounding to the nearest
    /// nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative, NaN, or too large to represent.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid time in seconds: {s}");
        let ns = s * 1e9;
        assert!(ns <= u64::MAX as f64, "time out of range: {s}s");
        SimTime(ns.round() as u64)
    }

    /// Returns the time as whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the time as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction: returns [`SimTime::ZERO`] on underflow.
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition: `None` on overflow.
    pub fn checked_add(self, rhs: SimTime) -> Option<SimTime> {
        self.0.checked_add(rhs.0).map(SimTime)
    }

    /// Multiplies a duration by an integer factor (saturating).
    pub fn saturating_mul(self, factor: u64) -> SimTime {
        SimTime(self.0.saturating_mul(factor))
    }

    /// Scales a duration by a float factor, rounding to the nearest
    /// nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or NaN.
    pub fn mul_f64(self, factor: f64) -> SimTime {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "invalid scale factor: {factor}"
        );
        SimTime((self.0 as f64 * factor).round() as u64)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("virtual time overflow"))
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        *self = *self - rhs;
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({:.6}s)", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::forall;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1000));
    }

    #[test]
    fn float_roundtrip() {
        forall("float_roundtrip", 256, |rng| {
            let secs = rng.random_range(0.0..1e6);
            let t = SimTime::from_secs_f64(secs);
            assert!((t.as_secs_f64() - secs).abs() < 1e-9);
            // And from the integer side, over the whole clock range:
            // f64 has 52 mantissa bits, so allow proportional rounding.
            let nanos = rng.random_below(u64::MAX / 4);
            let secs = SimTime::from_nanos(nanos).as_secs_f64();
            if secs < 1e9 {
                let back = SimTime::from_secs_f64(secs).as_nanos();
                assert!(back.abs_diff(nanos) as f64 <= 1.0 + nanos as f64 * 1e-15);
            }
        });
    }

    #[test]
    fn ordering_is_total() {
        forall("ordering_is_total", 256, |rng| {
            let (a, b) = (rng.next_u64(), rng.next_u64());
            let (ta, tb) = (SimTime::from_nanos(a), SimTime::from_nanos(b));
            assert_eq!(ta.cmp(&tb), a.cmp(&b));
            assert_eq!(ta.max(tb), SimTime::from_nanos(a.max(b)));
        });
    }

    #[test]
    fn sub_saturates() {
        forall("sub_saturates", 256, |rng| {
            let (a, b) = (
                rng.random_below(u64::MAX / 4),
                rng.random_below(u64::MAX / 4),
            );
            let (ta, tb) = (SimTime::from_nanos(a), SimTime::from_nanos(b));
            assert_eq!((ta - tb).as_nanos(), a.saturating_sub(b));
            assert_eq!(ta.saturating_sub(tb).as_nanos(), a.saturating_sub(b));
            assert_eq!((ta + tb).as_nanos(), a + b);
        });
    }

    #[test]
    fn mul_f64_rounds() {
        let t = SimTime::from_nanos(10);
        assert_eq!(t.mul_f64(1.26).as_nanos(), 13);
    }

    #[test]
    #[should_panic]
    fn from_secs_f64_rejects_negative() {
        let _ = SimTime::from_secs_f64(-1.0);
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500000s");
        assert_ne!(format!("{:?}", SimTime::ZERO), "");
    }
}

//! Simulated time.
//!
//! All simulation timestamps are microsecond ticks from the start of the
//! run. The Performance Consultant reports bottleneck times in these
//! application timestamps, matching the paper's methodology ("the times we
//! recorded are the timestamps assigned by Paradyn to the data, and reflect
//! application execution time", §4.1).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An absolute simulated instant, in microseconds since run start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The start of the run.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant (used as "never").
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds an instant from whole seconds.
    pub fn from_secs(s: u64) -> SimTime {
        SimTime(s * 1_000_000)
    }

    /// Builds an instant from milliseconds.
    pub fn from_millis(ms: u64) -> SimTime {
        SimTime(ms * 1_000)
    }

    /// Builds an instant from microsecond ticks.
    pub fn from_micros(us: u64) -> SimTime {
        SimTime(us)
    }

    /// Microsecond tick count.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds as a float (for reports).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The duration since `earlier`; saturates to zero when `earlier` is
    /// later than `self`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Pointwise maximum.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Pointwise minimum.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a duration from whole seconds.
    pub const fn from_secs(s: u64) -> SimDuration {
        SimDuration(s * 1_000_000)
    }

    /// Builds a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000)
    }

    /// Builds a duration from microsecond ticks.
    pub const fn from_micros(us: u64) -> SimDuration {
        SimDuration(us)
    }

    /// Builds a duration from fractional seconds (rounded to the nearest
    /// microsecond, saturating at zero for negative input).
    pub fn from_secs_f64(s: f64) -> SimDuration {
        SimDuration(round_to_tick(s.max(0.0) * 1e6))
    }

    /// Microsecond tick count.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds as a float (for reports and ratios).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// True if the duration is zero ticks.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies by a non-negative float, rounding to the nearest tick.
    pub fn mul_f64(self, k: f64) -> SimDuration {
        SimDuration(round_to_tick(self.0 as f64 * k.max(0.0)))
    }
}

/// `x.round() as u64` without the call into libm that `f64::round` is
/// on baseline x86-64 (no SSE4.1), where it dominated the engine's
/// time conversions. Exact for `0 <= x < 4e18`: the truncation fits an
/// `i64` and `x - t` is the exact fraction, so comparing it with 0.5
/// rounds half away from zero like `round`. Larger values, infinities
/// and NaN take `round` itself.
#[inline]
fn round_to_tick(x: f64) -> u64 {
    if (0.0..4e18).contains(&x) {
        let t = x as i64;
        (t + i64::from(x - t as f64 >= 0.5)) as u64
    } else {
        x.round() as u64
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, t: SimTime) -> SimDuration {
        self.since(t)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(d.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimDuration::from_secs_f64(0.5).as_micros(), 500_000);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert!((SimTime::from_secs(5).as_secs_f64() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(1) + SimDuration::from_millis(500);
        assert_eq!(t.as_micros(), 1_500_000);
        assert_eq!((t - SimTime::from_secs(1)).as_micros(), 500_000);
        // Subtraction saturates rather than panicking.
        assert_eq!(SimTime::ZERO - t, SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs(1).saturating_sub(SimDuration::from_secs(2)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn mul_f64_rounds() {
        assert_eq!(SimDuration(10).mul_f64(1.26).as_micros(), 13);
        assert_eq!(SimDuration(10).mul_f64(-2.0), SimDuration::ZERO);
    }

    /// The reference `round_to_tick` must equal bit for bit.
    fn libm_round(x: f64) -> u64 {
        x.round() as u64
    }

    #[test]
    fn round_to_tick_edges() {
        let p52 = (1u64 << 52) as f64;
        let p53 = (1u64 << 53) as f64;
        for x in [
            0.0,
            -0.0,
            0.49999999999999994,
            0.5,
            1.5,
            2.5,
            p52 - 0.5,
            p52 + 0.5,
            p52 + 1.5,
            p53 - 1.0,
            p53,
            p53 + 2.0,
            4e18,
            f64::from_bits(4e18f64.to_bits() - 1),
            f64::from_bits(4e18f64.to_bits() + 1),
            1.9e19,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -0.5,
            -1e300,
        ] {
            assert_eq!(round_to_tick(x), libm_round(x), "x = {x:e}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4096))]

        #[test]
        fn round_to_tick_matches_libm_on_any_bits(bits in 0u64..u64::MAX) {
            let x = f64::from_bits(bits);
            proptest::prop_assert_eq!(round_to_tick(x), libm_round(x), "x = {:e}", x);
        }

        #[test]
        fn round_to_tick_matches_libm_near_half_ticks(
            whole in 0u64..(1u64 << 54),
            frac in 0usize..7,
        ) {
            let half = [0.0, 0.25, 0.5, 0.75, -0.5, -0.25, 0.4999999999999999][frac];
            let x = (whole as f64 + half).max(0.0);
            proptest::prop_assert_eq!(round_to_tick(x), libm_round(x), "x = {:e}", x);
            let scaled = x * 1e-6;
            proptest::prop_assert_eq!(
                SimDuration::from_secs_f64(scaled).0,
                libm_round(scaled.max(0.0) * 1e6)
            );
            proptest::prop_assert_eq!(
                SimDuration(whole).mul_f64(half + 1.0).0,
                libm_round(whole as f64 * (half + 1.0))
            );
        }
    }

    #[test]
    fn sum_and_ordering() {
        let total: SimDuration = [SimDuration(1), SimDuration(2), SimDuration(3)]
            .into_iter()
            .sum();
        assert_eq!(total, SimDuration(6));
        assert!(SimTime(5).max(SimTime(9)) == SimTime(9));
        assert!(SimTime(5).min(SimTime(9)) == SimTime(5));
    }

    #[test]
    fn display_in_seconds() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500s");
        assert_eq!(SimDuration::from_millis(250).to_string(), "0.250s");
    }
}

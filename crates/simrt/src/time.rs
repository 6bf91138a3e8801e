//! Simulation time: integer milliseconds since the start of a run.
//!
//! Simulated time is kept in integer milliseconds to make event ordering
//! exact (no floating-point ties) and runs bit-for-bit reproducible. Two
//! types mirror `std::time`: [`SimTime`] is an instant, [`SimDuration`] a
//! span. Conversions to floating-point seconds/minutes exist only at the
//! measurement boundary (statistics, report output).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in simulated time, measured in milliseconds from run start.
///
/// # Examples
///
/// ```
/// use jockey_simrt::time::{SimDuration, SimTime};
///
/// let t = SimTime::from_secs(90);
/// assert_eq!(t.as_minutes_f64(), 1.5);
/// assert_eq!(t + SimDuration::from_secs(30), SimTime::from_mins(2));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time in milliseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// A sentinel later than any reachable simulation instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// Creates an instant `secs` seconds after run start.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000)
    }

    /// Creates an instant `mins` minutes after run start.
    pub const fn from_mins(mins: u64) -> Self {
        SimTime(mins * 60_000)
    }

    /// Creates an instant from fractional seconds, rounding to milliseconds.
    ///
    /// Negative inputs saturate to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime(round_to_u64(secs.max(0.0) * 1_000.0))
    }

    /// Raw milliseconds since run start.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Time since run start in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Time since run start in fractional minutes.
    pub fn as_minutes_f64(self) -> f64 {
        self.0 as f64 / 60_000.0
    }

    /// Duration since an earlier instant, saturating to zero if `earlier`
    /// is in fact later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max_of(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// A sentinel longer than any reachable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from raw milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// Creates a duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000)
    }

    /// Creates a duration of `mins` minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60_000)
    }

    /// Creates a duration from fractional seconds, rounding to milliseconds.
    ///
    /// Negative inputs saturate to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration(round_to_u64(secs.max(0.0) * 1_000.0))
    }

    /// Creates a duration from fractional minutes.
    pub fn from_mins_f64(mins: f64) -> Self {
        Self::from_secs_f64(mins * 60.0)
    }

    /// Raw milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Fractional minutes.
    pub fn as_minutes_f64(self) -> f64 {
        self.0 as f64 / 60_000.0
    }

    /// True if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Scales the duration by a non-negative factor, rounding to
    /// milliseconds and saturating on overflow.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or NaN.
    pub fn scale(self, factor: f64) -> SimDuration {
        assert!(
            factor >= 0.0,
            "duration scale factor must be non-negative, got {factor}"
        );
        let scaled = self.0 as f64 * factor;
        if scaled >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(round_to_u64(scaled))
        }
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

/// `x.round() as u64` for a non-negative (or NaN) `x`, bit for bit,
/// without the call into the software `round` that the baseline x86-64
/// target makes: the cast truncates in one instruction, and the
/// fraction `x - trunc(x)` is exact for every non-negative double
/// (below 1 it is `x` itself; from 1 to 2^52 the two operands are
/// within a factor of two; above, `x` is already an integer). Rounding
/// half away from zero is then a comparison with 0.5, and the
/// saturating add keeps the cast's saturation at `u64::MAX`.
#[inline]
fn round_to_u64(x: f64) -> u64 {
    let t = x as u64;
    if x - t as f64 >= 0.5 {
        t.saturating_add(1)
    } else {
        t
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Duration between two instants.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] when the ordering is uncertain.
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self >= rhs, "SimTime subtraction went negative");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(self >= rhs, "SimDuration subtraction went negative");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The inline rounding equals `f64::round` followed by the
    /// saturating cast on every non-negative input: half-way cases,
    /// the neighbours of each, the 2^52/2^53/2^64 boundaries,
    /// infinities, NaN, subnormals, and a sweep of random bit patterns
    /// and of millisecond-scale values.
    #[test]
    fn round_to_u64_matches_round_then_cast() {
        let check = |x: f64| {
            assert_eq!(
                round_to_u64(x),
                x.round() as u64,
                "x = {x:e} ({:#x})",
                x.to_bits()
            );
        };
        let mut edges = vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            0.49999999999999994,
            0.5,
            1.5,
            2.5,
            4_503_599_627_370_495.5, // 2^52 - 0.5
            4_503_599_627_370_496.0, // 2^52
            9_007_199_254_740_992.0, // 2^53
            9_007_199_254_740_994.0,
            9_223_372_036_854_775_808.0,  // 2^63
            18_446_744_073_709_549_568.0, // largest double below 2^64
            18_446_744_073_709_551_616.0, // 2^64
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ];
        for k in 0..2_000_u32 {
            edges.push(f64::from(k) + 0.5);
            edges.push(f64::from(k) * 1_000.0 + 0.5);
        }
        for x in edges {
            check(x);
            check(f64::from_bits(x.to_bits().saturating_add(1)));
            check(f64::from_bits(x.to_bits().saturating_sub(1)));
        }
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        for _ in 0..200_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            check(f64::from_bits(state >> 1)); // sign bit clear
            check((state >> 11) as f64 / (1_u64 << 20) as f64);
        }
    }

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(3).as_millis(), 3_000);
        assert_eq!(SimTime::from_mins(2), SimTime::from_secs(120));
        assert_eq!(SimDuration::from_mins(1).as_secs_f64(), 60.0);
        assert_eq!(SimTime::from_secs_f64(1.2345).as_millis(), 1_235);
    }

    #[test]
    fn negative_float_seconds_saturate_to_zero() {
        assert_eq!(SimTime::from_secs_f64(-5.0), SimTime::ZERO);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn arithmetic_behaves() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_secs(4);
        assert_eq!(t + d, SimTime::from_secs(14));
        assert_eq!(t - d, SimTime::from_secs(6));
        assert_eq!(SimTime::from_secs(14) - t, d);
        assert_eq!(d * 3, SimDuration::from_secs(12));
        assert_eq!(SimDuration::from_secs(12) / 4, SimDuration::from_secs(3));
    }

    #[test]
    fn saturating_since_never_underflows() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(9);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a), SimDuration::from_secs(8));
    }

    #[test]
    fn scale_rounds_and_saturates() {
        let d = SimDuration::from_millis(1_000);
        assert_eq!(d.scale(1.5), SimDuration::from_millis(1_500));
        assert_eq!(d.scale(0.0), SimDuration::ZERO);
        assert_eq!(SimDuration::MAX.scale(2.0), SimDuration::MAX);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn scale_rejects_negative() {
        let _ = SimDuration::from_secs(1).scale(-0.1);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_secs).sum();
        assert_eq!(total, SimDuration::from_secs(10));
    }

    #[test]
    fn display_is_seconds() {
        assert_eq!(SimTime::from_millis(1_500).to_string(), "1.500");
        assert_eq!(SimDuration::from_millis(250).to_string(), "0.250");
    }
}

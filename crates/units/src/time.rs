//! Nanosecond time type used for both instants and durations.
//!
//! The simulator clock is a single monotonically increasing `u64` of
//! nanoseconds since simulation start, so one type serves as both an
//! instant and a duration; arithmetic that would underflow panics in debug
//! builds (a negative time is always a bug in event ordering).

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub};

/// Nanoseconds in one microsecond.
pub const NS_PER_US: u64 = 1_000;
/// Nanoseconds in one millisecond.
pub const NS_PER_MS: u64 = 1_000_000;
/// Nanoseconds in one second.
pub const NS_PER_SEC: u64 = 1_000_000_000;

/// `x.round() as u64` — nearest integer, halves away from zero, saturating
/// like the cast — in integer arithmetic. `f64::round` is a libm call on
/// baseline x86-64, and this sits on the simulator's per-packet path
/// (`Rate::tx_time_ns`). Note `(x + 0.5) as u64` is *not* equivalent: it
/// is wrong at `0.49999999999999994` and for odd `x ≥ 2^52`.
#[inline]
pub fn round_u64(x: f64) -> u64 {
    let t = x as u64; // truncates; NaN and negatives → 0, huge → MAX
    t.saturating_add(u64::from(x - t as f64 >= 0.5))
}

/// A point in (or span of) simulated time, in nanoseconds.
///
/// ```
/// use units::TimeNs;
/// let t = TimeNs::from_millis(2) + TimeNs::from_micros(500);
/// assert_eq!(t.as_micros(), 2_500);
/// assert_eq!(t.secs_f64(), 0.0025);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimeNs(pub u64);

impl TimeNs {
    /// Time zero (simulation start / zero duration).
    pub const ZERO: TimeNs = TimeNs(0);
    /// The maximum representable time; used as an "infinite" horizon.
    pub const MAX: TimeNs = TimeNs(u64::MAX);

    /// From whole nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        TimeNs(ns)
    }

    /// From whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        TimeNs(us * NS_PER_US)
    }

    /// From whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        TimeNs(ms * NS_PER_MS)
    }

    /// From whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        TimeNs(s * NS_PER_SEC)
    }

    /// From fractional seconds (rounded to nearest nanosecond).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s.is_finite() && s >= 0.0, "invalid seconds: {s}");
        TimeNs(round_u64(s * NS_PER_SEC as f64))
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds (truncated).
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0 / NS_PER_US
    }

    /// Whole milliseconds (truncated).
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0 / NS_PER_MS
    }

    /// Fractional seconds.
    #[inline]
    pub fn secs_f64(self) -> f64 {
        self.0 as f64 / NS_PER_SEC as f64
    }

    /// Fractional milliseconds.
    #[inline]
    pub fn millis_f64(self) -> f64 {
        self.0 as f64 / NS_PER_MS as f64
    }

    /// True if this is time zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction (zero instead of underflow).
    #[inline]
    pub const fn saturating_sub(self, rhs: TimeNs) -> TimeNs {
        TimeNs(self.0.saturating_sub(rhs.0))
    }

    /// Checked subtraction.
    #[inline]
    pub const fn checked_sub(self, rhs: TimeNs) -> Option<TimeNs> {
        match self.0.checked_sub(rhs.0) {
            Some(v) => Some(TimeNs(v)),
            None => None,
        }
    }

    /// Element-wise minimum.
    #[inline]
    pub fn min(self, other: TimeNs) -> TimeNs {
        TimeNs(self.0.min(other.0))
    }

    /// Element-wise maximum.
    #[inline]
    pub fn max(self, other: TimeNs) -> TimeNs {
        TimeNs(self.0.max(other.0))
    }
}

impl Add for TimeNs {
    type Output = TimeNs;
    #[inline]
    fn add(self, rhs: TimeNs) -> TimeNs {
        TimeNs(self.0 + rhs.0)
    }
}

impl AddAssign for TimeNs {
    #[inline]
    fn add_assign(&mut self, rhs: TimeNs) {
        self.0 += rhs.0;
    }
}

impl Sub for TimeNs {
    type Output = TimeNs;
    #[inline]
    fn sub(self, rhs: TimeNs) -> TimeNs {
        debug_assert!(self.0 >= rhs.0, "time underflow: {} - {}", self.0, rhs.0);
        TimeNs(self.0 - rhs.0)
    }
}

impl Mul<u64> for TimeNs {
    type Output = TimeNs;
    #[inline]
    fn mul(self, rhs: u64) -> TimeNs {
        TimeNs(self.0 * rhs)
    }
}

impl Div<u64> for TimeNs {
    type Output = TimeNs;
    #[inline]
    fn div(self, rhs: u64) -> TimeNs {
        TimeNs(self.0 / rhs)
    }
}

impl fmt::Display for TimeNs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= NS_PER_SEC {
            write!(f, "{:.3}s", self.secs_f64())
        } else if self.0 >= NS_PER_MS {
            write!(f, "{:.3}ms", self.millis_f64())
        } else if self.0 >= NS_PER_US {
            write!(f, "{:.3}us", self.0 as f64 / NS_PER_US as f64)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl fmt::Debug for TimeNs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        <Self as fmt::Display>::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(TimeNs::from_micros(1).as_nanos(), 1_000);
        assert_eq!(TimeNs::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(TimeNs::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(TimeNs::from_secs_f64(1.5).as_millis(), 1500);
    }

    #[test]
    fn arithmetic() {
        let a = TimeNs::from_millis(5);
        let b = TimeNs::from_millis(3);
        assert_eq!((a + b).as_millis(), 8);
        assert_eq!((a - b).as_millis(), 2);
        assert_eq!((a * 2).as_millis(), 10);
        assert_eq!((a / 5).as_millis(), 1);
        assert_eq!(b.saturating_sub(a), TimeNs::ZERO);
        assert_eq!(a.checked_sub(b), Some(TimeNs::from_millis(2)));
        assert_eq!(b.checked_sub(a), None);
    }

    #[test]
    #[should_panic(expected = "time underflow")]
    #[cfg(debug_assertions)]
    fn sub_underflow_panics_in_debug() {
        let _ = TimeNs::from_millis(1) - TimeNs::from_millis(2);
    }

    #[test]
    fn display_scales() {
        assert_eq!(format!("{}", TimeNs::from_secs(2)), "2.000s");
        assert_eq!(format!("{}", TimeNs::from_millis(2)), "2.000ms");
        assert_eq!(format!("{}", TimeNs::from_micros(2)), "2.000us");
        assert_eq!(format!("{}", TimeNs::from_nanos(2)), "2ns");
    }
}

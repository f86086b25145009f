//! Shared units and small statistics helpers for the availbw workspace.
//!
//! Everything in the workspace measures time in integer **nanoseconds** and
//! rates in **bits per second**. Using newtypes instead of bare integers
//! keeps transmission-time and rate arithmetic honest across crates: a
//! store-and-forward simulator lives or dies by the consistency of this
//! arithmetic.
//!
//! The crate is dependency-free and `#![forbid(unsafe_code)]`.

#![forbid(unsafe_code)]

pub mod stats;
pub mod time;

pub use stats::{cdf_points, mean, median, percentile, std_dev, Summary};
pub use time::{round_u64, TimeNs, NS_PER_MS, NS_PER_SEC, NS_PER_US};

use core::fmt;

/// Ethernet MTU in bytes, the default maximum probe packet size.
pub const MTU: u32 = 1500;

/// A data rate in bits per second.
///
/// Stored as `f64` because the estimation algorithms bisect over rates;
/// helper constructors/readers keep the Mb/s convention of the paper.
///
/// ```
/// use units::Rate;
/// let r = Rate::from_mbps(10.0);
/// assert_eq!(r.bps(), 10_000_000.0);
/// // 1500 B at 10 Mb/s takes 1.2 ms to transmit
/// assert_eq!(r.tx_time_ns(1500), 1_200_000);
/// ```
#[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Rate(f64);

impl Rate {
    /// Zero rate.
    pub const ZERO: Rate = Rate(0.0);

    /// Construct from bits per second.
    #[inline]
    pub fn from_bps(bps: f64) -> Self {
        debug_assert!(bps.is_finite() && bps >= 0.0, "invalid rate: {bps}");
        Rate(bps)
    }

    /// Construct from megabits per second (the paper's unit).
    #[inline]
    pub fn from_mbps(mbps: f64) -> Self {
        Self::from_bps(mbps * 1e6)
    }

    /// Construct from kilobits per second.
    #[inline]
    pub fn from_kbps(kbps: f64) -> Self {
        Self::from_bps(kbps * 1e3)
    }

    /// The rate in bits per second.
    #[inline]
    pub fn bps(self) -> f64 {
        self.0
    }

    /// The rate in megabits per second.
    #[inline]
    pub fn mbps(self) -> f64 {
        self.0 / 1e6
    }

    /// Time to transmit `bytes` bytes at this rate, in nanoseconds
    /// (rounded to nearest). Panics in debug builds if the rate is zero.
    #[inline]
    pub fn tx_time_ns(self, bytes: u32) -> u64 {
        debug_assert!(self.0 > 0.0, "tx_time_ns on zero rate");
        let ns = (bytes as f64) * 8.0 * 1e9 / self.0;
        round_u64(ns)
    }

    /// Time to transmit `bytes` bytes at this rate.
    #[inline]
    pub fn tx_time(self, bytes: u32) -> TimeNs {
        TimeNs(self.tx_time_ns(bytes))
    }

    /// Number of whole bytes transferred in `dur` at this rate.
    #[inline]
    pub fn bytes_in(self, dur: TimeNs) -> u64 {
        (self.0 * dur.secs_f64() / 8.0) as u64
    }

    /// The rate that transfers `bytes` bytes in `dur`.
    ///
    /// Returns [`Rate::ZERO`] when `dur` is zero.
    #[inline]
    pub fn from_transfer(bytes: u64, dur: TimeNs) -> Rate {
        if dur.is_zero() {
            Rate::ZERO
        } else {
            Rate::from_bps(bytes as f64 * 8.0 / dur.secs_f64())
        }
    }

    /// True if this rate is exactly zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// Midpoint of two rates (used by the bisection search).
    #[inline]
    pub fn midpoint(self, other: Rate) -> Rate {
        Rate((self.0 + other.0) * 0.5)
    }

    /// Element-wise minimum.
    #[inline]
    pub fn min(self, other: Rate) -> Rate {
        Rate(self.0.min(other.0))
    }

    /// Element-wise maximum.
    #[inline]
    pub fn max(self, other: Rate) -> Rate {
        Rate(self.0.max(other.0))
    }
}

impl core::ops::Add for Rate {
    type Output = Rate;
    #[inline]
    fn add(self, rhs: Rate) -> Rate {
        Rate(self.0 + rhs.0)
    }
}

impl core::ops::Sub for Rate {
    type Output = Rate;
    #[inline]
    fn sub(self, rhs: Rate) -> Rate {
        Rate((self.0 - rhs.0).max(0.0))
    }
}

impl core::ops::Mul<f64> for Rate {
    type Output = Rate;
    #[inline]
    fn mul(self, rhs: f64) -> Rate {
        Rate(self.0 * rhs)
    }
}

impl core::ops::Div<f64> for Rate {
    type Output = Rate;
    #[inline]
    fn div(self, rhs: f64) -> Rate {
        Rate(self.0 / rhs)
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e6 {
            write!(f, "{:.2} Mb/s", self.mbps())
        } else if self.0 >= 1e3 {
            write!(f, "{:.2} kb/s", self.0 / 1e3)
        } else {
            write!(f, "{:.0} b/s", self.0)
        }
    }
}

impl fmt::Debug for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        <Self as fmt::Display>::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_constructors_agree() {
        assert_eq!(Rate::from_mbps(1.0).bps(), 1e6);
        assert_eq!(Rate::from_kbps(1.0).bps(), 1e3);
        assert_eq!(Rate::from_bps(42.0).bps(), 42.0);
    }

    #[test]
    fn tx_time_round_trips_bytes() {
        let r = Rate::from_mbps(8.0); // 1 byte per microsecond
        assert_eq!(r.tx_time_ns(1), 1_000);
        assert_eq!(r.tx_time_ns(1500), 1_500_000);
        let d = r.tx_time(1000);
        assert_eq!(r.bytes_in(d), 1000);
    }

    #[test]
    fn from_transfer_inverts_bytes_in() {
        let r = Rate::from_mbps(13.37);
        let d = TimeNs::from_millis(250);
        let b = r.bytes_in(d);
        let r2 = Rate::from_transfer(b, d);
        assert!((r.bps() - r2.bps()).abs() / r.bps() < 1e-3);
    }

    #[test]
    fn from_transfer_zero_duration_is_zero() {
        assert!(Rate::from_transfer(1000, TimeNs::ZERO).is_zero());
    }

    #[test]
    fn midpoint_min_max() {
        let a = Rate::from_mbps(2.0);
        let b = Rate::from_mbps(4.0);
        assert_eq!(a.midpoint(b).mbps(), 3.0);
        assert_eq!(a.min(b).mbps(), 2.0);
        assert_eq!(a.max(b).mbps(), 4.0);
    }

    #[test]
    fn sub_saturates_at_zero() {
        let a = Rate::from_mbps(2.0);
        let b = Rate::from_mbps(4.0);
        assert!((a - b).is_zero());
    }

    #[test]
    fn display_picks_scale() {
        assert_eq!(format!("{}", Rate::from_mbps(10.0)), "10.00 Mb/s");
        assert_eq!(format!("{}", Rate::from_kbps(10.0)), "10.00 kb/s");
        assert_eq!(format!("{}", Rate::from_bps(10.0)), "10 b/s");
    }
}

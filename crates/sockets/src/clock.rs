//! Monotonic nanosecond clocks with a process-local epoch.

use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// A monotonic clock reporting nanoseconds since its own creation.
///
/// Each endpoint creates its own — the epochs differ, so one-way delays
/// computed across endpoints carry an arbitrary constant offset, exactly
/// the situation SLoPS is designed for (§IV "Clock and Timing Issues").
#[derive(Clone, Debug)]
pub struct MonoClock {
    epoch: Instant,
}

impl MonoClock {
    /// A clock whose epoch is now.
    pub fn new() -> MonoClock {
        MonoClock {
            epoch: Instant::now(),
        }
    }

    /// A clock sharing this clock's epoch.
    ///
    /// A *fleet* of sender transports on one host must read one common
    /// timeline: the `monitord` scheduler staggers starts across paths on
    /// a single clock, so every transport of a fleet is built from clones
    /// of the same epoch. (Across hosts the epochs still differ — relative
    /// OWDs remain the only cross-host quantity.)
    pub fn same_epoch(&self) -> MonoClock {
        self.clone()
    }

    /// Nanoseconds since the epoch.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Sample how far the system's realtime clock runs ahead of this one,
    /// to map kernel arrival stamps (realtime) onto this clock. The two
    /// readings of this clock that bracket the realtime reading bound the
    /// error; a sample whose bracket exceeds [`RealtimeMap::MAX_ERROR_NS`]
    /// (a preemption between the reads) is taken again, a few times at
    /// most, and the tightest kept.
    pub fn realtime_map(&self) -> RealtimeMap {
        let mut best: Option<(u64, u64)> = None; // (bracket, offset)
        let mut now_ns = 0;
        for _ in 0..3 {
            let before = self.now_ns();
            let real = SystemTime::now().duration_since(UNIX_EPOCH).ok();
            now_ns = self.now_ns();
            let bracket = now_ns - before;
            let offset = real
                .and_then(|r| u64::try_from(r.as_nanos()).ok())
                .and_then(|r| r.checked_sub(before + bracket / 2));
            if let Some(o) = offset.filter(|_| best.is_none_or(|(b, _)| bracket < b)) {
                best = Some((bracket, o));
            }
            if bracket <= RealtimeMap::MAX_ERROR_NS {
                break;
            }
        }
        RealtimeMap {
            offset_ns: best.map(|(_, o)| o),
            now_ns,
        }
    }
}

/// A realtime → [`MonoClock`] mapping sampled at one read of a socket
/// ([`MonoClock::realtime_map`]): turns the kernel's arrival stamps into
/// the pump's clock. Both clocks advance at the same (NTP-disciplined)
/// rate, so only a step of the realtime clock between a datagram's
/// arrival and its read moves the mapping; sampling it per read bounds
/// that to one read's worth of datagrams.
#[derive(Clone, Copy, Debug)]
pub struct RealtimeMap {
    /// Realtime minus monotonic, in nanoseconds (`None`: no usable
    /// realtime reading).
    offset_ns: Option<u64>,
    /// The monotonic instant of the sample: the read.
    now_ns: u64,
}

impl RealtimeMap {
    /// The sampling error the mapping aims to stay within.
    pub const MAX_ERROR_NS: u64 = 1_000;

    /// The monotonic instant the mapping was sampled at (just after the
    /// read it serves).
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// The arrival instant on the monotonic clock of a datagram the kernel
    /// stamped `stamp` (realtime ns). A datagram without a stamp, or one
    /// that maps into the future, is stamped at the read.
    pub fn recv_ns(&self, stamp: Option<u64>) -> u64 {
        stamp
            .zip(self.offset_ns)
            .and_then(|(s, off)| s.checked_sub(off))
            .filter(|&t| t <= self.now_ns)
            .unwrap_or(self.now_ns)
    }
}

impl Default for MonoClock {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotone_and_advancing() {
        let c = MonoClock::new();
        let a = c.now_ns();
        std::thread::sleep(std::time::Duration::from_millis(5));
        let b = c.now_ns();
        assert!(b > a);
        assert!(b - a >= 4_000_000, "slept 5ms but clock moved {}ns", b - a);
    }

    #[test]
    fn distinct_clocks_have_distinct_epochs() {
        let c1 = MonoClock::new();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let c2 = MonoClock::new();
        // c2's epoch is later, so its readings are smaller.
        assert!(c1.now_ns() > c2.now_ns());
    }

    /// A realtime stamp taken now maps to about now on the monotonic
    /// clock; a missing stamp or one from the future maps to the read.
    #[test]
    fn realtime_stamps_map_onto_the_monotonic_clock() {
        let c = MonoClock::new();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let real_ns = |t: SystemTime| t.duration_since(UNIX_EPOCH).unwrap().as_nanos() as u64;
        let before = c.now_ns();
        let stamp = real_ns(SystemTime::now());
        let map = c.realtime_map();
        let mono = map.recv_ns(Some(stamp));
        assert!(mono >= before.saturating_sub(RealtimeMap::MAX_ERROR_NS));
        assert!(mono <= map.now_ns());
        // 1 ms in the past on one clock is 1 ms in the past on the other.
        assert_eq!(mono - map.recv_ns(Some(stamp - 1_000_000)), 1_000_000);
        assert_eq!(map.recv_ns(None), map.now_ns());
        assert_eq!(map.recv_ns(Some(stamp + 10_000_000_000)), map.now_ns());
        assert_eq!(map.recv_ns(Some(0)), map.now_ns(), "before the epoch");
    }

    #[test]
    fn same_epoch_clocks_agree() {
        let c1 = MonoClock::new();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let c2 = c1.same_epoch();
        let (a, b) = (c1.now_ns(), c2.now_ns());
        // Read back to back, two same-epoch clocks differ by at most the
        // read overhead — far below the 2 ms that separates fresh epochs.
        assert!(b >= a && b - a < 1_000_000, "epochs diverged: {a} vs {b}");
    }
}

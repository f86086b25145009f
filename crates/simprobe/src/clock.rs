//! The endpoint clock model: one per probe executor, i.e. one per
//! sender/receiver pair, whichever app hosts it.
//!
//! The simulator has one global clock; real measurement endpoints have two
//! unsynchronized ones. This model derives both endpoint readings from a
//! global instant: the sender reads the global clock, the receiver reads it
//! offset by a constant, and both readings are quantized to the clock
//! resolution (1 µs by default, like `gettimeofday`). SLoPS only ever uses
//! OWD *differences*, so the offset must cancel — probing code that gets
//! this wrong fails loudly under the default negative offset.

use units::TimeNs;

/// Sender/receiver clock readings derived from the global simulated clock.
#[derive(Clone, Copy, Debug)]
pub struct ClockModel {
    /// Receiver clock = global clock + `offset_ns` (may be negative).
    pub offset_ns: i64,
    /// Timestamp quantization of both endpoint clocks, in nanoseconds.
    pub resolution_ns: u64,
}

impl Default for ClockModel {
    fn default() -> Self {
        ClockModel {
            offset_ns: -7_777_777_777, // clocks are not synchronized
            resolution_ns: 1_000,
        }
    }
}

impl ClockModel {
    /// Quantize a raw nanosecond reading to the clock resolution.
    pub fn quantize(&self, ns: i64) -> i64 {
        let res = self.resolution_ns as i64;
        if res > 1 {
            ns.div_euclid(res) * res
        } else {
            ns
        }
    }

    /// Sender-clock reading of a global instant.
    pub fn sender_reading(&self, t: TimeNs) -> i64 {
        self.quantize(t.as_nanos() as i64)
    }

    /// Receiver-clock reading of a global instant.
    pub fn receiver_reading(&self, t: TimeNs) -> i64 {
        self.quantize(t.as_nanos() as i64 + self.offset_ns)
    }

    /// Relative OWD of a packet sent at `sent` and received at `recv`
    /// (receiver reading minus sender reading; signed, offset included).
    pub fn owd_ns(&self, sent: TimeNs, recv: TimeNs) -> i64 {
        self.receiver_reading(recv) - self.sender_reading(sent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantization_floors_toward_negative_infinity() {
        let c = ClockModel {
            offset_ns: 0,
            resolution_ns: 1_000,
        };
        assert_eq!(c.quantize(1_999), 1_000);
        assert_eq!(c.quantize(-1), -1_000);
        let fine = ClockModel {
            offset_ns: 0,
            resolution_ns: 1,
        };
        assert_eq!(fine.quantize(1_999), 1_999);
    }

    #[test]
    fn offset_cancels_in_owd_differences() {
        let a = ClockModel {
            offset_ns: 0,
            resolution_ns: 1,
        };
        let b = ClockModel {
            offset_ns: -123_456_789,
            resolution_ns: 1,
        };
        let sent = TimeNs::from_micros(100);
        let r1 = TimeNs::from_micros(150);
        let r2 = TimeNs::from_micros(175);
        assert_eq!(
            a.owd_ns(sent, r2) - a.owd_ns(sent, r1),
            b.owd_ns(sent, r2) - b.owd_ns(sent, r1),
        );
    }
}

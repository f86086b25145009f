//! The probe transport abstraction.
//!
//! A [`ProbeTransport`] is anything that can emit a periodic UDP-like
//! packet stream toward a receiver and report back per-packet relative
//! one-way delays: the packet-level simulator (`simprobe` crate) or the
//! synthetic oracle used in tests. Real sockets are not one: the wire
//! stack (`pathload-net` crate) drives the
//! [`SessionMachine`](crate::SessionMachine) from its event loop instead
//! of blocking on a transport.
//!
//! Clock model: sender and receiver clocks need **not** be synchronized.
//! OWDs are *relative* (`recv_ts − send_ts`, different clocks) and may even
//! be negative; SLoPS only ever uses OWD differences (§IV "Clock and Timing
//! Issues"), and each stream lasts a few milliseconds, so skew within a
//! stream is negligible.

use crate::error::TransportError;
use crate::stream::StreamRequest;
use units::{Rate, TimeNs};

/// One received probe packet.
#[derive(Clone, Copy, Debug)]
pub struct PacketSample {
    /// Packet index within the stream, `0..K`.
    pub idx: u32,
    /// Actual send time relative to the first packet (sender clock). For a
    /// perfect sender this is `idx · T`; real senders may deviate (context
    /// switches), which the receiver uses for validation.
    pub send_offset: TimeNs,
    /// Relative one-way delay in nanoseconds (receiver clock minus sender
    /// clock; arbitrary constant offset allowed, hence signed).
    pub owd_ns: i64,
}

/// The receiver-side record of one periodic stream.
#[derive(Clone, Debug)]
pub struct StreamRecord {
    /// Number of packets sent (K).
    pub sent: u32,
    /// Received packets in increasing `idx` order (lost ones are absent).
    pub samples: Vec<PacketSample>,
}

impl StreamRecord {
    /// Fraction of the stream that was lost, in `[0, 1]`.
    pub fn loss_fraction(&self) -> f64 {
        if self.sent == 0 {
            return 0.0;
        }
        1.0 - self.samples.len() as f64 / self.sent as f64
    }

    /// The relative OWDs of the received packets, in arrival order.
    pub fn owds(&self) -> Vec<i64> {
        self.samples.iter().map(|s| s.owd_ns).collect()
    }
}

/// The receiver-side record of a back-to-back packet train.
#[derive(Clone, Copy, Debug)]
pub struct TrainRecord {
    /// Packets sent.
    pub sent: u32,
    /// Packets received.
    pub received: u32,
    /// Packet size in bytes.
    pub size: u32,
    /// Receiver timestamp of the first packet.
    pub first_recv: TimeNs,
    /// Receiver timestamp of the last packet.
    pub last_recv: TimeNs,
}

impl TrainRecord {
    /// Dispersion rate `(n−1)·L·8 / (t_last − t_first)` — the ADR estimate
    /// for long trains. `None` if fewer than 2 packets arrived.
    pub fn dispersion_rate(&self) -> Option<Rate> {
        if self.received < 2 || self.last_recv <= self.first_recv {
            return None;
        }
        let bits = (self.received as u64 - 1) * self.size as u64 * 8;
        Some(Rate::from_bps(
            bits as f64 / (self.last_recv - self.first_recv).secs_f64(),
        ))
    }
}

/// Anything that can carry SLoPS probes end to end.
pub trait ProbeTransport {
    /// Send one periodic stream and collect the receiver's record.
    ///
    /// The transport must pace packets at `req.period` as precisely as it
    /// can and report actual send offsets. Implementations block (or
    /// advance simulated time) until the stream outcome is known.
    fn send_stream(&mut self, req: &StreamRequest) -> Result<StreamRecord, TransportError>;

    /// Send a back-to-back packet train (for ADR initialization and the
    /// cprobe baseline).
    fn send_train(&mut self, len: u32, size: u32) -> Result<TrainRecord, TransportError>;

    /// Current round-trip-time estimate between the endpoints.
    fn rtt(&mut self) -> TimeNs;

    /// Let the path drain: wait (or advance simulated time) for `dur`.
    fn idle(&mut self, dur: TimeNs);

    /// Highest stream rate this transport can generate, if bounded.
    fn max_rate(&self) -> Option<Rate> {
        None
    }

    /// Time consumed on this transport so far (simulated clock for the
    /// simulator, wall clock for sockets). Used for latency reporting and
    /// the duration weights of eq. 11.
    fn elapsed(&self) -> TimeNs {
        TimeNs::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_fraction() {
        let rec = StreamRecord {
            sent: 10,
            samples: (0..8)
                .map(|i| PacketSample {
                    idx: i,
                    send_offset: TimeNs::ZERO,
                    owd_ns: 0,
                })
                .collect(),
        };
        assert!((rec.loss_fraction() - 0.2).abs() < 1e-12);
        let empty = StreamRecord {
            sent: 0,
            samples: vec![],
        };
        assert_eq!(empty.loss_fraction(), 0.0);
    }

    #[test]
    fn dispersion_rate_math() {
        let tr = TrainRecord {
            sent: 11,
            received: 11,
            size: 1500,
            first_recv: TimeNs::from_millis(0),
            last_recv: TimeNs::from_millis(12),
        };
        // 10 * 1500 * 8 bits / 12 ms = 10 Mb/s
        let r = tr.dispersion_rate().unwrap();
        assert!((r.mbps() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn dispersion_rate_needs_two_packets() {
        let tr = TrainRecord {
            sent: 5,
            received: 1,
            size: 1500,
            first_recv: TimeNs::ZERO,
            last_recv: TimeNs::ZERO,
        };
        assert!(tr.dispersion_rate().is_none());
    }
}

//! The TCP receiver: cumulative ACKs with out-of-order buffering, and
//! per-interval goodput accounting for the BTC experiments.

use crate::HEADER;
use netsim::{App, Ctx, FlowId, Packet, Payload, RouteSpec, TcpFlags, TcpHeader};
use std::collections::BTreeMap;
use std::sync::Arc;
use units::{Rate, TimeNs};

/// TCP receiver application.
pub struct TcpReceiver {
    conn: u32,
    ack_flow: FlowId,
    ack_route: Arc<RouteSpec>,
    rcv_nxt: u64,
    /// Out-of-order segments: start → length.
    ooo: BTreeMap<u64, u32>,
    /// Goodput accounting: in-order payload bytes per bin.
    bins: Vec<u64>,
    bin_width: TimeNs,
    /// Total in-order payload bytes delivered.
    pub delivered: u64,
    /// RFC 1122 delayed ACKs: acknowledge every second in-order segment
    /// (out-of-order arrivals still ACK immediately, as RFC 5681 requires
    /// for fast retransmit to work). Off by default — the 2002 experiments
    /// behave the same either way, but the option exists for fidelity
    /// studies. The timer half of delayed ACKs (the 500 ms flush) is NOT
    /// modeled; with greedy senders a second segment always arrives first.
    pub delayed_acks: bool,
    held_ack: bool,
}

impl TcpReceiver {
    /// Create a receiver for connection `conn`, acknowledging along
    /// `ack_route` (which must end at the matching [`crate::TcpSender`]).
    /// `bin_width` sets the goodput-histogram resolution (1 s in Fig. 15).
    pub fn new(conn: u32, ack_route: Arc<RouteSpec>, bin_width: TimeNs) -> TcpReceiver {
        assert!(!bin_width.is_zero());
        TcpReceiver {
            conn,
            ack_flow: FlowId(0x4143_0000 + conn), // 'AC'
            ack_route,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            bins: Vec::new(),
            bin_width,
            delivered: 0,
            delayed_acks: false,
            held_ack: false,
        }
    }

    /// Goodput in bin `idx` (payload bytes that became in-order during it).
    pub fn goodput_bin(&self, idx: usize) -> u64 {
        self.bins.get(idx).copied().unwrap_or(0)
    }

    /// Average goodput between two times (whole-bin granularity).
    pub fn goodput_between(&self, from: TimeNs, to: TimeNs) -> Rate {
        if to <= from {
            return Rate::ZERO;
        }
        let w = self.bin_width.as_nanos();
        let first = (from.as_nanos() / w) as usize;
        let last = ((to.as_nanos() - 1) / w) as usize;
        let bytes: u64 = (first..=last).map(|i| self.goodput_bin(i)).sum();
        Rate::from_transfer(bytes, TimeNs::from_nanos((last - first + 1) as u64 * w))
    }

    /// Per-bin goodput rates over `[from, to)`, one entry per bin.
    pub fn goodput_series(&self, from: TimeNs, to: TimeNs) -> Vec<Rate> {
        let w = self.bin_width.as_nanos();
        let first = (from.as_nanos() / w) as usize;
        let last = ((to.as_nanos().saturating_sub(1)) / w) as usize;
        (first..=last)
            .map(|i| Rate::from_transfer(self.goodput_bin(i), self.bin_width))
            .collect()
    }

    fn credit(&mut self, now: TimeNs, bytes: u64) {
        self.delivered += bytes;
        let idx = (now.as_nanos() / self.bin_width.as_nanos()) as usize;
        if idx >= self.bins.len() {
            self.bins.resize(idx + 1, 0);
        }
        self.bins[idx] += bytes;
    }

    /// Core reassembly step, independent of the packet transport: offer a
    /// segment `[seq, seq+len)` observed at `now`. Exposed for testing and
    /// for alternative framings.
    pub fn absorb(&mut self, now: TimeNs, seq: u64, len: u32) {
        let end = seq + len as u64;
        if end <= self.rcv_nxt {
            return; // duplicate
        }
        if seq <= self.rcv_nxt {
            // In-order (possibly partially duplicate) segment.
            let newly = end - self.rcv_nxt;
            self.rcv_nxt = end;
            self.credit(now, newly);
            // Drain any out-of-order segments that are now in order.
            while let Some((&s, &l)) = self.ooo.first_key_value() {
                let e = s + l as u64;
                if s > self.rcv_nxt {
                    break;
                }
                self.ooo.pop_first();
                if e > self.rcv_nxt {
                    let newly = e - self.rcv_nxt;
                    self.rcv_nxt = e;
                    self.credit(now, newly);
                }
            }
        } else {
            // Keep the longest segment seen at this offset: retransmissions
            // after an RTO can carry different boundaries than the original.
            self.ooo
                .entry(seq)
                .and_modify(|l| *l = (*l).max(len))
                .or_insert(len);
        }
    }
}

impl App for TcpReceiver {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        let Payload::Tcp(hdr) = pkt.payload else {
            return;
        };
        if hdr.conn != self.conn || hdr.flags.ack {
            return;
        }
        let now = ctx.now();
        let in_order = hdr.seq <= self.rcv_nxt;
        self.absorb(now, hdr.seq, hdr.len);
        if self.delayed_acks && in_order && self.ooo.is_empty() {
            // Hold every second ACK for in-order traffic.
            if !self.held_ack {
                self.held_ack = true;
                return;
            }
            self.held_ack = false;
        }
        let ack_hdr = TcpHeader {
            conn: self.conn,
            seq: 0,
            ack: self.rcv_nxt,
            len: 0,
            flags: TcpFlags {
                syn: false,
                ack: true,
                fin: false,
            },
            // Echo the data segment's timestamp for the RTT sample.
            ts_echo: hdr.ts_echo,
        };
        let ack = Packet::with_payload(
            HEADER,
            self.ack_flow,
            self.rcv_nxt,
            self.ack_route.clone(),
            Payload::Tcp(ack_hdr),
        );
        ctx.send(ack);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::AppId;

    fn rx() -> TcpReceiver {
        TcpReceiver::new(
            1,
            Arc::new(RouteSpec {
                links: vec![],
                dst: AppId(0),
            }),
            TimeNs::from_secs(1),
        )
    }

    #[test]
    fn in_order_delivery_advances_rcv_nxt() {
        let mut r = rx();
        r.absorb(TimeNs::from_millis(10), 0, 1000);
        r.absorb(TimeNs::from_millis(20), 1000, 1000);
        assert_eq!(r.rcv_nxt, 2000);
        assert_eq!(r.delivered, 2000);
    }

    #[test]
    fn out_of_order_is_buffered_then_drained() {
        let mut r = rx();
        r.absorb(TimeNs::from_millis(1), 1000, 1000); // hole at 0
        assert_eq!(r.rcv_nxt, 0);
        assert_eq!(r.delivered, 0);
        r.absorb(TimeNs::from_millis(2), 2000, 1000); // second hole segment
        r.absorb(TimeNs::from_millis(3), 0, 1000); // fills the hole
        assert_eq!(r.rcv_nxt, 3000);
        assert_eq!(r.delivered, 3000);
        assert!(r.ooo.is_empty());
    }

    #[test]
    fn duplicates_do_not_double_count() {
        let mut r = rx();
        r.absorb(TimeNs::from_millis(1), 0, 1000);
        r.absorb(TimeNs::from_millis(2), 0, 1000); // full duplicate
        r.absorb(TimeNs::from_millis(3), 500, 1000); // overlapping
        assert_eq!(r.rcv_nxt, 1500);
        assert_eq!(r.delivered, 1500);
    }

    #[test]
    fn goodput_bins_accumulate_by_time() {
        let mut r = rx();
        r.absorb(TimeNs::from_millis(500), 0, 1000);
        r.absorb(TimeNs::from_millis(1500), 1000, 2000);
        assert_eq!(r.goodput_bin(0), 1000);
        assert_eq!(r.goodput_bin(1), 2000);
        assert_eq!(r.goodput_bin(2), 0);
        // 3000 B over 2 s = 12 kb/s
        let g = r.goodput_between(TimeNs::ZERO, TimeNs::from_secs(2));
        assert!((g.bps() - 12_000.0).abs() < 1.0);
        assert_eq!(
            r.goodput_series(TimeNs::ZERO, TimeNs::from_secs(2)).len(),
            2
        );
    }
}

#[cfg(test)]
mod delayed_ack_tests {
    use crate::conn::TcpConnection;
    use crate::receiver::TcpReceiver;
    use netsim::{Chain, ChainConfig, LinkConfig, Simulator};
    use units::{Rate, TimeNs};

    fn throughput_with(delayed: bool) -> f64 {
        let mut sim = Simulator::new(41);
        let chain = Chain::build(
            &mut sim,
            &ChainConfig::symmetric(vec![LinkConfig::new(
                Rate::from_mbps(8.0),
                TimeNs::from_millis(20),
            )
            .with_queue_limit(64 * 1024)]),
        );
        let conn = TcpConnection::greedy(&mut sim, &chain, 1);
        sim.app_mut::<TcpReceiver>(conn.receiver).delayed_acks = delayed;
        sim.run_until(TimeNs::from_secs(30));
        conn.throughput(&sim, TimeNs::from_secs(5), TimeNs::from_secs(30))
            .mbps()
    }

    #[test]
    fn delayed_acks_still_saturate_the_link() {
        let immediate = throughput_with(false);
        let delayed = throughput_with(true);
        assert!(immediate > 7.0, "immediate-ACK throughput {immediate:.2}");
        // Delayed ACKs halve the ACK rate but must not cripple throughput.
        assert!(
            delayed > immediate * 0.85,
            "delayed-ACK throughput {delayed:.2} vs {immediate:.2}"
        );
    }
}

//! Store-and-forward link: one transmission server plus a byte-bounded
//! drop-tail FIFO, with per-link counters and optional fault injection.
//!
//! # Departures are fixed on arrival
//!
//! A work-conserving FIFO server is a deterministic function of its
//! arrivals (Lindley's recursion; the min-plus view of Liebeherr, Fidler &
//! Valaee): a packet accepted at `now` starts transmission at
//! `max(now, departure of the packet ahead)` and departs one transmission
//! time later. So `Link::on_arrival` *returns* the departure time and
//! the engine schedules the next hop right there — there is no
//! "transmission done" event, and the link never holds the packet itself
//! (it stays in the engine's pool, see [`crate::pool`]). What the link
//! keeps is a FIFO of `(departure, size, tx time)` per accepted packet:
//! enough to answer occupancy questions (drop-tail, RED) and to credit the
//! counters and the [`UtilMonitor`] *when the transmission completes*.
//!
//! That crediting is lazy: `Link::settle` retires every entry whose
//! departure is `≤ now`. It runs at the top of every arrival and — via the
//! engine — at every public run boundary, so `stats`, `monitor()` and the
//! occupancy accessors read exactly what an event-per-departure engine
//! shows at the same clock.
//!
//! **Tie rule.** A departure at `t` precedes an arrival at `t`: a packet
//! arriving at the very nanosecond a transmission completes sees that
//! packet gone (the server idle if nothing else waits, its bytes out of
//! the queue). `queue_limit_bytes` and `max_queue_bytes` exclude the
//! packet in service, so at such a tie the packet that *enters* service
//! at `t` is already excluded too.

use crate::monitor::UtilMonitor;
use crate::red::{RedConfig, RedState};
use crate::rng::Prng;
use std::collections::VecDeque;
use units::{Rate, TimeNs};

/// Index of a link within a [`crate::Simulator`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkId(pub u32);

/// Static configuration of a unidirectional link.
#[derive(Clone, Debug)]
pub struct LinkConfig {
    /// Transmission capacity.
    pub capacity: Rate,
    /// Propagation delay, added after a packet finishes transmission.
    pub prop_delay: TimeNs,
    /// Drop-tail queue limit in bytes (the in-service packet not counted).
    pub queue_limit_bytes: u64,
    /// Fault injection: probability of dropping an arriving packet.
    pub drop_prob: f64,
    /// Optional RED active queue management (default: plain drop-tail,
    /// the paper's assumption).
    pub red: Option<RedConfig>,
    /// Utilization-monitor window (MRTG uses 5 minutes).
    pub monitor_window: TimeNs,
    /// Human-readable name for reports.
    pub name: String,
}

impl LinkConfig {
    /// A link with the given capacity and propagation delay, a generous
    /// 8 MB buffer ("sufficiently buffered to avoid losses", §V-A), no
    /// fault injection, and a 5-minute monitor window.
    pub fn new(capacity: Rate, prop_delay: TimeNs) -> LinkConfig {
        LinkConfig {
            capacity,
            prop_delay,
            queue_limit_bytes: 8 * 1024 * 1024,
            drop_prob: 0.0,
            red: None,
            monitor_window: TimeNs::from_secs(300),
            name: String::new(),
        }
    }

    /// Enable RED AQM with the given parameters.
    pub fn with_red(mut self, red: RedConfig) -> Self {
        red.validate().expect("invalid RED parameters");
        self.red = Some(red);
        self
    }

    /// Set the drop-tail buffer size in bytes.
    pub fn with_queue_limit(mut self, bytes: u64) -> Self {
        self.queue_limit_bytes = bytes;
        self
    }

    /// Enable random-loss fault injection with the given probability.
    pub fn with_drop_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "drop probability out of range");
        self.drop_prob = p;
        self
    }

    /// Set the utilization-monitor window.
    pub fn with_monitor_window(mut self, w: TimeNs) -> Self {
        self.monitor_window = w;
        self
    }

    /// Name the link (for experiment reports).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }
}

/// Running counters of a link.
#[derive(Clone, Debug, Default)]
pub struct LinkStats {
    /// Packets fully transmitted.
    pub tx_packets: u64,
    /// Bytes fully transmitted.
    pub tx_bytes: u64,
    /// Packets dropped because the queue was full.
    pub drops_overflow: u64,
    /// Packets dropped by fault injection.
    pub drops_fault: u64,
    /// Total time the transmission server was busy, in nanoseconds.
    pub busy_ns: u64,
    /// High-water mark of queued bytes (excluding the packet in service).
    pub max_queue_bytes: u64,
}

impl LinkStats {
    /// Long-run utilization over `elapsed` (busy time / elapsed).
    pub fn utilization(&self, elapsed: TimeNs) -> f64 {
        if elapsed.is_zero() {
            0.0
        } else {
            self.busy_ns as f64 / elapsed.as_nanos() as f64
        }
    }
}

/// One accepted packet: when it leaves the link, and what to credit then.
#[derive(Clone, Copy, Debug)]
struct Tx {
    depart: TimeNs,
    size: u32,
    tx_ns: u64,
}

/// A unidirectional store-and-forward link.
#[derive(Debug)]
pub struct Link {
    cfg: LinkConfig,
    /// Accepted packets not yet retired by `Link::settle`, in service
    /// order. Once settled to `now`, the front entry is the packet in
    /// service and the rest are waiting.
    fifo: VecDeque<Tx>,
    /// Bytes in `fifo` (waiting plus in service).
    backlog_bytes: u64,
    /// Running counters.
    pub stats: LinkStats,
    monitor: UtilMonitor,
    red: Option<RedState>,
    rng: Prng,
}

impl Link {
    pub(crate) fn new(cfg: LinkConfig, rng: Prng) -> Link {
        let monitor = UtilMonitor::new(cfg.monitor_window);
        let red = cfg.red.map(RedState::new);
        Link {
            cfg,
            fifo: VecDeque::new(),
            backlog_bytes: 0,
            stats: LinkStats::default(),
            monitor,
            red,
            rng,
        }
    }

    /// RED state, if the link runs RED.
    pub fn red(&self) -> Option<&RedState> {
        self.red.as_ref()
    }

    /// The link's static configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.cfg
    }

    /// The link's capacity.
    pub fn capacity(&self) -> Rate {
        self.cfg.capacity
    }

    /// Propagation delay.
    pub fn prop_delay(&self) -> TimeNs {
        self.cfg.prop_delay
    }

    /// Bytes currently waiting (excluding the packet in service).
    pub fn queue_bytes(&self) -> u64 {
        self.backlog_bytes - self.fifo.front().map_or(0, |tx| tx.size as u64)
    }

    /// Bytes in the system: queued plus the packet in service.
    pub fn backlog_bytes(&self) -> u64 {
        self.backlog_bytes
    }

    /// Packets currently waiting (excluding the packet in service).
    pub fn queue_len(&self) -> usize {
        self.fifo.len().saturating_sub(1)
    }

    /// The MRTG-style utilization monitor.
    pub fn monitor(&self) -> &UtilMonitor {
        &self.monitor
    }

    /// Retire every transmission that completed at or before `now`:
    /// credit the counters and the monitor at its departure time and free
    /// its bytes.
    pub(crate) fn settle(&mut self, now: TimeNs) {
        while let Some(tx) = self.fifo.front() {
            if tx.depart > now {
                break;
            }
            self.stats.tx_packets += 1;
            self.stats.tx_bytes += tx.size as u64;
            self.stats.busy_ns += tx.tx_ns;
            self.monitor.record(tx.depart, tx.size as u64);
            self.backlog_bytes -= tx.size as u64;
            self.fifo.pop_front();
        }
    }

    /// A packet of `size` bytes arrives at `now` (arrivals must come in
    /// time order). Returns when its last bit leaves the link, or `None`
    /// if it was dropped (queue overflow, RED, or fault injection).
    pub(crate) fn on_arrival(&mut self, size: u32, now: TimeNs) -> Option<TimeNs> {
        self.settle(now);
        if self.cfg.drop_prob > 0.0 && self.rng.chance(self.cfg.drop_prob) {
            self.stats.drops_fault += 1;
            return None;
        }
        let queued = self.queue_bytes();
        if let Some(red) = &mut self.red {
            if red.should_drop(queued, &mut self.rng) {
                self.stats.drops_overflow += 1;
                return None;
            }
        }
        let start = match self.fifo.back() {
            None => now, // idle: transmission starts immediately
            Some(ahead) => {
                let queued = queued + size as u64;
                if queued > self.cfg.queue_limit_bytes {
                    self.stats.drops_overflow += 1;
                    return None;
                }
                self.stats.max_queue_bytes = self.stats.max_queue_bytes.max(queued);
                ahead.depart
            }
        };
        let tx_ns = self.cfg.capacity.tx_time_ns(size);
        let depart = start + TimeNs::from_nanos(tx_ns);
        self.fifo.push_back(Tx {
            depart,
            size,
            tx_ns,
        });
        self.backlog_bytes += size as u64;
        Some(depart)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(limit: u64) -> Link {
        Link::new(
            LinkConfig::new(Rate::from_mbps(8.0), TimeNs::from_millis(1)).with_queue_limit(limit),
            Prng::new(0),
        )
    }

    #[test]
    fn idle_link_starts_transmission_immediately() {
        let mut l = link(10_000);
        let now = TimeNs::from_millis(10);
        // 1000 B at 8 Mb/s = 1 ms
        assert_eq!(l.on_arrival(1000, now), Some(now + TimeNs::from_millis(1)));
        assert_eq!(l.queue_len(), 0);
        assert_eq!(l.queue_bytes(), 0);
        assert_eq!(l.backlog_bytes(), 1000);
    }

    #[test]
    fn busy_link_queues_fifo_and_chains_transmissions() {
        let mut l = link(10_000);
        let t0 = TimeNs::ZERO;
        let ms = TimeNs::from_millis(1);
        assert_eq!(l.on_arrival(1000, t0), Some(ms));
        // 500 B at 8 Mb/s = 0.5 ms, each behind the one ahead.
        assert_eq!(l.on_arrival(500, t0), Some(ms + TimeNs::from_micros(500)));
        assert_eq!(l.on_arrival(500, t0), Some(ms * 2));
        assert_eq!(l.queue_bytes(), 1000);
        assert_eq!(l.queue_len(), 2);
        assert_eq!(l.stats.tx_packets, 0, "nothing has departed yet");

        l.settle(ms);
        assert_eq!((l.stats.tx_packets, l.stats.tx_bytes), (1, 1000));
        assert_eq!(
            (l.queue_len(), l.queue_bytes(), l.backlog_bytes()),
            (1, 500, 1000)
        );
        l.settle(ms * 2);
        assert_eq!((l.stats.tx_packets, l.stats.tx_bytes), (3, 2000));
        // busy: 1ms + 0.5ms + 0.5ms
        assert_eq!(l.stats.busy_ns, 2_000_000);
        assert_eq!(l.backlog_bytes(), 0);
        // The server went idle: the next packet starts on arrival.
        let later = TimeNs::from_millis(7);
        assert_eq!(l.on_arrival(1000, later), Some(later + ms));
    }

    #[test]
    fn queue_overflow_drops_tail() {
        let mut l = link(1000);
        assert!(l.on_arrival(1000, TimeNs::ZERO).is_some());
        assert!(l.on_arrival(600, TimeNs::ZERO).is_some());
        // 600 + 600 > 1000: dropped
        assert_eq!(l.on_arrival(600, TimeNs::ZERO), None);
        assert_eq!(l.stats.drops_overflow, 1);
        assert_eq!(l.stats.max_queue_bytes, 600);
    }

    /// The tie rule on drop-tail: `queue_limit` excludes the packet in
    /// service, and a departure at `t` precedes an arrival at `t`.
    #[test]
    fn departure_at_t_precedes_arrival_at_t_for_drop_tail() {
        let ms = TimeNs::from_millis(1);
        let mut l = link(1000);
        assert_eq!(l.on_arrival(1000, TimeNs::ZERO), Some(ms)); // in service
        assert_eq!(l.on_arrival(1000, TimeNs::ZERO), Some(ms * 2)); // fills the queue
                                                                    // One nanosecond early the queue is still full...
        assert_eq!(l.on_arrival(1000, ms - TimeNs::from_nanos(1)), None);
        // ...but at exactly `ms` the first packet has left, the second is
        // in service (so excluded from the limit), and the queue is empty.
        assert_eq!(l.on_arrival(1000, ms), Some(ms * 3));
        assert_eq!(l.stats.drops_overflow, 1);
        assert_eq!(l.stats.tx_packets, 1);

        // With nothing waiting, an arrival at the departure instant finds
        // the server idle: it starts at once and never counts as queued.
        let mut l = link(0);
        assert_eq!(l.on_arrival(1000, TimeNs::ZERO), Some(ms));
        assert_eq!(
            l.on_arrival(1000, ms),
            Some(ms * 2),
            "a zero-byte queue admits it"
        );
        assert_eq!(l.stats.drops_overflow, 0);
    }

    /// The tie rule on the high-water mark: bytes that depart at `t` are
    /// not in the queue an arrival at `t` joins.
    #[test]
    fn departure_at_t_precedes_arrival_at_t_for_max_queue_bytes() {
        let ms = TimeNs::from_millis(1);
        let mut l = link(10_000);
        assert!(l.on_arrival(1000, TimeNs::ZERO).is_some());
        assert!(l.on_arrival(1000, TimeNs::ZERO).is_some());
        assert_eq!(l.stats.max_queue_bytes, 1000);
        // At `ms` the queued packet enters service: the arrival queues
        // behind it alone, so the mark stays at 1000 (not 2000).
        assert_eq!(l.on_arrival(1000, ms), Some(ms * 3));
        assert_eq!(l.stats.max_queue_bytes, 1000);
        assert_eq!(l.queue_bytes(), 1000);
        // At `2 ms` that one enters service too and the server is busy
        // with it: a small arrival queues alone.
        assert_eq!(
            l.on_arrival(100, ms * 2),
            Some(ms * 3 + TimeNs::from_micros(100))
        );
        assert_eq!(l.stats.max_queue_bytes, 1000);
        assert_eq!(l.queue_bytes(), 100);
    }

    #[test]
    fn fault_injection_drops_all_at_probability_one() {
        let mut l = Link::new(
            LinkConfig::new(Rate::from_mbps(8.0), TimeNs::ZERO).with_drop_prob(1.0),
            Prng::new(1),
        );
        for _ in 0..10 {
            assert_eq!(l.on_arrival(100, TimeNs::ZERO), None);
        }
        assert_eq!(l.stats.drops_fault, 10);
    }

    #[test]
    fn utilization_accounting() {
        let mut l = link(100_000);
        assert!(l.on_arrival(1000, TimeNs::ZERO).is_some());
        l.settle(TimeNs::from_millis(1));
        // Busy 1 ms out of 4 ms elapsed => 25%.
        assert!((l.stats.utilization(TimeNs::from_millis(4)) - 0.25).abs() < 1e-9);
        assert_eq!(l.stats.utilization(TimeNs::ZERO), 0.0);
    }

    /// Reference FIFO: every accepted packet as `(depart, size, tx_ns)`,
    /// occupancy recomputed from scratch at each arrival (Lindley's
    /// recursion with a finite buffer, departures before arrivals on a
    /// tie). Quadratic and obviously right.
    #[derive(Default)]
    struct RefFifo {
        accepted: Vec<(u64, u32, u64)>,
        drops: u64,
        max_queue_bytes: u64,
    }

    impl RefFifo {
        fn arrive(&mut self, size: u32, now: u64, tx_ns: u64, limit: u64) -> Option<u64> {
            let mut in_system = self.accepted.iter().filter(|p| p.0 > now);
            // The first packet still in the system is the one in service.
            let start = match in_system.next() {
                None => now,
                Some(_) => {
                    let queued = in_system.map(|p| p.1 as u64).sum::<u64>() + size as u64;
                    if queued > limit {
                        self.drops += 1;
                        return None;
                    }
                    self.max_queue_bytes = self.max_queue_bytes.max(queued);
                    self.accepted.last().map_or(now, |p| p.0)
                }
            };
            self.accepted.push((start + tx_ns, size, tx_ns));
            Some(start + tx_ns)
        }

        /// `(tx_packets, tx_bytes, busy_ns, bytes per monitor window)` of
        /// the transmissions completed by `t`.
        fn done_by(&self, t: u64, window: u64) -> (u64, u64, u64, Vec<u64>) {
            let done = || self.accepted.iter().filter(move |p| p.0 <= t);
            let mut windows = vec![
                0u64;
                done()
                    .next_back()
                    .map_or(0, |p| (p.0 / window) as usize + 1)
            ];
            for p in done() {
                windows[(p.0 / window) as usize] += p.1 as u64;
            }
            (
                done().count() as u64,
                done().map(|p| p.1 as u64).sum(),
                done().map(|p| p.2).sum(),
                windows,
            )
        }
    }

    /// Property: `Link` agrees with the reference FIFO on every departure
    /// time and drop decision, and — after `settle` at arbitrary instants,
    /// mid-transmission and mid-queue included — on counters, occupancy
    /// and monitor windows.
    #[test]
    fn link_matches_reference_fifo() {
        let mut rng = Prng::new(0xF1F0);
        let mut drops = 0;
        for case in 0..200 {
            let limit = [0, 1500, 4000, 20_000, 8 << 20][case % 5];
            let cap = Rate::from_mbps([1.0, 8.0, 155.0][case % 3]);
            let window = TimeNs::from_millis(1 + rng.below(5));
            let mut l = Link::new(
                LinkConfig::new(cap, TimeNs::ZERO)
                    .with_queue_limit(limit)
                    .with_monitor_window(window),
                Prng::new(case as u64),
            );
            let mut model = RefFifo::default();
            let mut now = 0u64;
            for _ in 0..300 {
                // Bursts (gap 0), exact departure-instant ties, and gaps
                // long enough to drain.
                now = match rng.below(4) {
                    0 => now,
                    1 => model
                        .accepted
                        .iter()
                        .map(|p| p.0)
                        .find(|&d| d >= now)
                        .unwrap_or(now),
                    _ => {
                        let scale = 1 + rng.below(200);
                        now + rng.below(20_000_000 / scale)
                    }
                };
                let t = TimeNs::from_nanos(now);
                if rng.below(3) == 0 {
                    l.settle(t);
                    let (pkts, bytes, busy, windows) = model.done_by(now, window.as_nanos());
                    assert_eq!(
                        (l.stats.tx_packets, l.stats.tx_bytes, l.stats.busy_ns),
                        (pkts, bytes, busy)
                    );
                    let got: Vec<u64> = (0..l.monitor().num_windows())
                        .map(|i| l.monitor().bytes_in_window(i))
                        .collect();
                    assert_eq!(got, windows);
                    let left: Vec<u64> = (model.accepted.iter())
                        .filter(|p| p.0 > now)
                        .map(|p| p.1 as u64)
                        .collect();
                    assert_eq!(l.backlog_bytes(), left.iter().sum::<u64>());
                    assert_eq!(l.queue_len(), left.len().saturating_sub(1));
                    assert_eq!(l.queue_bytes(), left.iter().skip(1).sum::<u64>());
                }
                let size = 40 + rng.below(1461) as u32;
                let want = model.arrive(size, now, cap.tx_time_ns(size), limit);
                let got = l.on_arrival(size, t);
                assert_eq!(got.map(TimeNs::as_nanos), want, "case {case} at {now}");
            }
            assert_eq!(l.stats.drops_overflow, model.drops);
            assert_eq!(l.stats.max_queue_bytes, model.max_queue_bytes);
            drops += model.drops;
        }
        assert!(drops > 1000, "the finite buffers must bite: {drops} drops");
    }
}

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
//!
//! # Attached arrival processes
//!
//! The paper's cross traffic "enters and exits at each hop" (§V-A): a
//! source whose whole route is this one link, into a sink that is only
//! counted, depends on nothing in the simulation and is observed by
//! nobody before a run boundary. Such a source needs no events at all.
//! The link owns it as an [`ArrivalProcess`] and *pulls* its arrivals
//! when it is next looked at: `Link::on_arrival` first fires every
//! process due strictly before `now`, `Link::settle` every process due at
//! or before it. A pulled arrival at `t` runs the very arithmetic an event
//! arrival at `t` runs (retire departures `≤ t`, then accept or drop — one
//! code path, so `drop_prob` and RED keep drawing from the link's `Prng`
//! in arrival order); no packet, pool slot or packet id is made for it.
//! What the sink would have counted is kept exact at any boundary: an
//! accepted packet joins, on departure, a FIFO of packets in propagation
//! and is credited once its delivery instant `depart + prop_delay` is `≤`
//! the clock the drain has reached. Arrivals credit in blocks — once 16
//! packets have been delivered, or when the FIFO is full and crediting
//! makes room instead of growing it — and a boundary credits everything
//! due, so the FIFO holds one propagation delay of arrivals (plus under a
//! block) however long the gap being settled; the engine moves the credit
//! into the `CountingSink` at every run boundary.
//!
//! **Tie rules.** An event arrival at `t` precedes an attached arrival at
//! `t`. Attached arrivals at one instant fire in arming order: the merge
//! of processes is keyed `(fire time, arming stamp)`, the stamp a per-link
//! counter bumped on every (re)arm — the order event sequence numbers gave
//! the same sources' timers. Both rules are what a timer-driven source
//! does: its send at `t` queues behind an arrival already due at the link
//! at `t` (`SimCore::arrives_inline` refuses the shortcut), and otherwise
//! the arrival event had been dispatched before the timer anyway. The one
//! order they do not reproduce is an *app* whose own send at `t` goes
//! inline after a source timer armed earlier fired at that same
//! nanosecond; there the event arrival now goes first.
//!
//! # The per-arrival chain, branch-light
//!
//! A pulled arrival is a draw, a merge step and the FIFO arithmetic, and
//! on random cross traffic every data-dependent branch in that chain is a
//! coin flip the CPU mispredicts. So the chain avoids them (the draws
//! too: a renewal source draws its sizes and gaps a block at a time, see
//! `traffic::RenewalArrivals`):
//! - the processes are merged by a loser tree (`crate::tournament`): one
//!   leaf per process, keyed by its packed `u128` `(fire time, arming
//!   stamp)`, padded to a power of two, so replaying the fired process
//!   takes exactly ⌈log₂ n⌉ compares resolved by selects. Stamps are
//!   unique, so the tree fires in the very order the binary heap it
//!   replaced did, ties included;
//! - the departure of the last accepted packet is kept, so a packet
//!   starts at `max(now, tail departure)` and an idle and a busy server
//!   take the same path; only RED and fault injection, when configured,
//!   take a branch of their own;
//! - transmission times come from an 8-slot memo per link, keyed by size;
//! - the [`UtilMonitor`] keeps its current window's bounds and divides
//!   only when a departure leaves it.

use crate::app::AppId;
use crate::monitor::UtilMonitor;
use crate::red::{RedConfig, RedState};
use crate::rng::Prng;
use crate::tournament::LoserTree;
use std::collections::VecDeque;
use std::fmt::Debug;
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

/// A packet source a link can own: a one-hop flow whose arrivals depend
/// on nothing in the simulation. The one method mirrors a timer firing, so
/// sources whose timers do not all send (on/off) fit the same shape.
pub trait ArrivalProcess: Debug + Send {
    /// The process's timer fires at `at`. Returns the size of the packet
    /// it sends at that instant (`None`: this firing sends nothing) and
    /// when it fires next (`≥ at`).
    fn fire(&mut self, at: TimeNs) -> (Option<u32>, TimeNs);
}

/// What attached deliveries have added to one counting sink since the
/// engine last collected it.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SinkCredit {
    pub(crate) packets: u64,
    pub(crate) bytes: u64,
    pub(crate) last_arrival: TimeNs,
}

/// `Tx::sink` of a packet that arrived by event: its delivery is the
/// engine's business.
const NO_SINK: u32 = u32::MAX;

/// Delivered attached packets an arrival lets pile up in propagation
/// before it credits their sinks (a boundary credits them all).
const DELIVER_EVERY: usize = 16;

/// Slots of a link's memo of transmission time per packet size.
const TX_MEMO: usize = 8;

/// A process's key in the merge: `(fire time, arming stamp)` packed so one
/// `u128` compare orders both.
fn due_key(at: TimeNs, stamp: u64) -> u128 {
    (u128::from(at.as_nanos()) << 64) | u128::from(stamp)
}

/// One accepted packet: when it leaves the link, and what to credit then.
#[derive(Clone, Copy, Debug)]
struct Tx {
    depart: TimeNs,
    size: u32,
    /// Index into `Link::credits` for an attached arrival, else `NO_SINK`.
    sink: u32,
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
    /// When the last accepted packet departs: once settled to `now`, the
    /// link is busy iff this is after `now`.
    tail_depart: TimeNs,
    /// No RED and no fault injection: nothing but the buffer drops.
    drop_tail: bool,
    /// `(size, transmission ns)` at slot `size % TX_MEMO`. Size 0 takes
    /// 0 ns, so the all-zero start is a valid memo.
    tx_memo: [(u32, u64); TX_MEMO],
    /// Running counters.
    pub stats: LinkStats,
    monitor: UtilMonitor,
    red: Option<RedState>,
    rng: Prng,
    /// Attached processes, each with the index of its sink in `credits`.
    attached: Vec<(Box<dyn ArrivalProcess>, u32)>,
    /// The processes' merge: leaf `i` is `attached[i]`, keyed
    /// [`due_key`] of its next firing.
    due: LoserTree,
    next_stamp: u64,
    /// Attached packets that left the link and have not reached their
    /// sink yet: `(delivery instant, size, index into credits)`, ascending.
    in_propagation: VecDeque<(TimeNs, u32, u32)>,
    /// Per sink fed by an attached process: deliveries not yet collected.
    credits: Vec<(AppId, SinkCredit)>,
    attached_arrivals: u64,
}

impl Link {
    pub(crate) fn new(cfg: LinkConfig, rng: Prng) -> Link {
        let monitor = UtilMonitor::new(cfg.monitor_window);
        let red = cfg.red.map(RedState::new);
        let drop_tail = red.is_none() && cfg.drop_prob == 0.0;
        Link {
            cfg,
            fifo: VecDeque::new(),
            backlog_bytes: 0,
            tail_depart: TimeNs::ZERO,
            drop_tail,
            tx_memo: [(0, 0); TX_MEMO],
            stats: LinkStats::default(),
            monitor,
            red,
            rng,
            attached: Vec::new(),
            due: LoserTree::default(),
            next_stamp: 0,
            in_propagation: VecDeque::new(),
            credits: Vec::new(),
            attached_arrivals: 0,
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

    /// Packets that attached processes have sent into this link so far
    /// (accepted or dropped) — the arrivals no event was dispatched for.
    pub fn attached_arrivals(&self) -> u64 {
        self.attached_arrivals
    }

    /// Own `process`, first firing at `first_at`; what it gets through the
    /// link is credited to `sink`.
    pub(crate) fn attach(
        &mut self,
        process: Box<dyn ArrivalProcess>,
        sink: AppId,
        first_at: TimeNs,
    ) {
        let credit = match self.credits.iter().position(|(id, _)| *id == sink) {
            Some(i) => i,
            None => {
                self.credits.push((sink, SinkCredit::default()));
                self.credits.len() - 1
            }
        };
        self.attached.push((process, credit as u32));
        self.due.push(due_key(first_at, self.next_stamp));
        self.next_stamp += 1;
    }

    /// Key comparisons the merge has made replaying firings.
    #[cfg(test)]
    pub(crate) fn merge_compares(&self) -> u64 {
        self.due.compares
    }

    /// Deliveries credited since the last call, per sink.
    pub(crate) fn take_credits(&mut self) -> impl Iterator<Item = (AppId, SinkCredit)> + '_ {
        self.credits
            .iter_mut()
            .filter(|(_, c)| c.packets > 0)
            .map(|(sink, c)| (*sink, std::mem::take(c)))
    }

    /// Bring the link up to `now`: every attached arrival due at or before
    /// it has happened, every transmission completed by it is retired.
    pub(crate) fn settle(&mut self, now: TimeNs) {
        self.pull(now, true);
        self.retire(now);
        self.deliver(now);
    }

    /// A packet of `size` bytes arrives by event at `now` (arrivals must
    /// come in time order). Returns when its last bit leaves the link, or
    /// `None` if it was dropped (queue overflow, RED, or fault injection).
    pub(crate) fn on_arrival(&mut self, size: u32, now: TimeNs) -> Option<TimeNs> {
        self.pull(now, false);
        self.accept(size, now, NO_SINK)
    }

    /// Fire every attached process due before `now` — and those due at
    /// `now` too if `through` — in `(fire time, arming stamp)` order, each
    /// sent packet arriving at its fire time.
    fn pull(&mut self, now: TimeNs, through: bool) {
        if self.due.is_empty() {
            return;
        }
        // Keys below `end` are due: before `now`, or at `now` with any
        // stamp (stamps never reach `u64::MAX`) if `through`.
        let end = due_key(now, if through { u64::MAX } else { 0 });
        loop {
            let (process, key) = self.due.winner();
            if key >= end {
                break;
            }
            let at = TimeNs::from_nanos((key >> 64) as u64);
            let (source, sink) = &mut self.attached[process as usize];
            let sink = *sink;
            let (size, next) = source.fire(at);
            assert!(next >= at, "an arrival process went back in time");
            self.due.replace_winner(due_key(next, self.next_stamp));
            self.next_stamp += 1;
            if let Some(size) = size {
                self.attached_arrivals += 1;
                self.accept(size, at, sink);
            }
        }
    }

    /// Retire every transmission that completed at or before `now` —
    /// credit the counters and the monitor at its departure time, free its
    /// bytes, start an attached packet's propagation. Once
    /// [`DELIVER_EVERY`] packets have been delivered by `now` — or
    /// `in_propagation` is full — credit the sinks with them: crediting as
    /// the drain advances is what bounds `in_propagation` to one
    /// propagation delay of arrivals however long the gap being settled,
    /// and doing it in blocks keeps the drain's loop — its exit a coin
    /// flip per arrival — off the per-arrival path.
    #[inline(always)]
    fn retire(&mut self, now: TimeNs) {
        while let Some(&tx) = self.fifo.front() {
            if tx.depart > now {
                break;
            }
            self.stats.tx_packets += 1;
            self.stats.tx_bytes += tx.size as u64;
            self.stats.busy_ns += tx.tx_ns;
            self.monitor.record(tx.depart, tx.size as u64);
            self.backlog_bytes -= tx.size as u64;
            if tx.sink != NO_SINK {
                // Room is made by crediting, not by growing: what is held
                // beyond the packets in flight is a block at most.
                if self.in_propagation.len() == self.in_propagation.capacity() {
                    self.deliver(now);
                }
                let at = tx.depart + self.cfg.prop_delay;
                self.in_propagation.push_back((at, tx.size, tx.sink));
            }
            self.fifo.pop_front();
        }
        if let Some(&(at, _, _)) = self.in_propagation.get(DELIVER_EVERY - 1) {
            if at <= now {
                self.deliver(now);
            }
        }
    }

    /// Credit the sinks with every attached packet delivered by `now`.
    fn deliver(&mut self, now: TimeNs) {
        while let Some(&(at, size, sink)) = self.in_propagation.front() {
            if at > now {
                break;
            }
            let credit = &mut self.credits[sink as usize].1;
            credit.packets += 1;
            credit.bytes += size as u64;
            credit.last_arrival = at;
            self.in_propagation.pop_front();
        }
    }

    /// The arrival arithmetic, shared by event and attached arrivals:
    /// retire what has departed by `now`, then accept the packet (fixing
    /// its departure) or drop it. On a drop-tail link nothing but the
    /// buffer drops, and an idle and a busy server take the same path:
    /// an idle one has nothing queued and starts at `now`.
    #[inline(always)]
    fn accept(&mut self, size: u32, now: TimeNs, sink: u32) -> Option<TimeNs> {
        self.retire(now);
        let queued = self.queue_bytes();
        if !self.drop_tail && self.drops_early(queued) {
            return None;
        }
        let busy = self.tail_depart > now;
        let joined = if busy { queued + size as u64 } else { 0 };
        if joined > self.cfg.queue_limit_bytes {
            self.stats.drops_overflow += 1;
            return None;
        }
        self.stats.max_queue_bytes = self.stats.max_queue_bytes.max(joined);
        let tx_ns = self.tx_ns(size);
        let depart = now.max(self.tail_depart) + TimeNs::from_nanos(tx_ns);
        self.tail_depart = depart;
        self.fifo.push_back(Tx {
            depart,
            size,
            sink,
            tx_ns,
        });
        self.backlog_bytes += size as u64;
        Some(depart)
    }

    /// Fault injection, then RED, drawing from the link's `Prng` in that
    /// order; counts a drop it decides.
    fn drops_early(&mut self, queued: u64) -> bool {
        if self.cfg.drop_prob > 0.0 && self.rng.chance(self.cfg.drop_prob) {
            self.stats.drops_fault += 1;
            return true;
        }
        if let Some(red) = &mut self.red {
            if red.should_drop(queued, &mut self.rng) {
                self.stats.drops_overflow += 1;
                return true;
            }
        }
        false
    }

    /// Transmission time of `size` bytes, from the memo.
    fn tx_ns(&mut self, size: u32) -> u64 {
        let slot = &mut self.tx_memo[size as usize % TX_MEMO];
        if slot.0 != size {
            *slot = (size, self.cfg.capacity.tx_time_ns(size));
        }
        slot.1
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

    /// Fires at scripted instants, sending the scripted sizes (`None`: a
    /// silent firing), then never again.
    #[derive(Debug)]
    struct Script(VecDeque<(TimeNs, Option<u32>)>);

    impl Script {
        fn attach(l: &mut Link, sink: u32, firings: &[(TimeNs, Option<u32>)]) {
            let script = Script(firings.iter().copied().collect());
            l.attach(Box::new(script), AppId(sink), firings[0].0);
        }
    }

    impl ArrivalProcess for Script {
        fn fire(&mut self, at: TimeNs) -> (Option<u32>, TimeNs) {
            let (due, size) = self.0.pop_front().expect("fired past its script");
            assert_eq!(due, at, "fired at the instant it armed");
            (size, self.0.front().map_or(TimeNs::MAX, |next| next.0))
        }
    }

    /// Packets credited per sink since the last call.
    fn credited(l: &mut Link) -> Vec<(u32, u64, u64, TimeNs)> {
        l.take_credits()
            .map(|(sink, c)| (sink.0, c.packets, c.bytes, c.last_arrival))
            .collect()
    }

    #[test]
    fn attached_arrivals_are_pulled_and_credited_after_propagation() {
        let ms = TimeNs::from_millis(1);
        let mut l = link(10_000); // 8 Mb/s, 1 ms propagation
        Script::attach(
            &mut l,
            7,
            &[(ms, Some(1000)), (ms * 2, None), (ms * 3, Some(500))],
        );
        l.settle(ms - TimeNs::from_nanos(1));
        assert_eq!((l.attached_arrivals(), l.backlog_bytes()), (0, 0));
        // Due at the boundary: it has happened.
        l.settle(ms);
        assert_eq!((l.attached_arrivals(), l.backlog_bytes()), (1, 1000));
        // Departed at 2 ms, still propagating at 3 ms − 1 ns.
        l.settle(ms * 3 - TimeNs::from_nanos(1));
        assert_eq!(l.stats.tx_packets, 1);
        assert_eq!(credited(&mut l), vec![]);
        l.settle(ms * 3);
        assert_eq!(credited(&mut l), vec![(7, 1, 1000, ms * 3)]);
        // One jump over the rest: 500 B sent at 3 ms departs at 3.5 ms and
        // is delivered at 4.5 ms; the silent firing sent nothing.
        l.settle(ms * 60);
        assert_eq!(l.attached_arrivals(), 2);
        assert_eq!(
            credited(&mut l),
            vec![(7, 1, 500, ms * 4 + TimeNs::from_micros(500))]
        );
        assert_eq!(credited(&mut l), vec![]);
    }

    /// The tie rule between the two kinds of arrival, made visible by a
    /// queue with room for exactly one of them.
    #[test]
    fn event_arrival_at_t_precedes_attached_arrival_at_t() {
        let ms = TimeNs::from_millis(1);
        let t = TimeNs::from_micros(500);
        for settle_first in [false, true] {
            let mut l = link(1000);
            Script::attach(&mut l, 0, &[(t, Some(600))]);
            assert_eq!(l.on_arrival(1000, TimeNs::ZERO), Some(ms)); // in service
            if settle_first {
                // A boundary one nanosecond short of the tie changes nothing.
                l.settle(t - TimeNs::from_nanos(1));
            }
            // The event arrival at `t` takes the queue's 1000 bytes...
            assert_eq!(l.on_arrival(1000, t), Some(ms * 2));
            assert_eq!(l.attached_arrivals(), 0, "not pulled ahead of it");
            // ...and the attached arrival at `t` finds it full.
            l.settle(t);
            assert_eq!((l.attached_arrivals(), l.stats.drops_overflow), (1, 1));
            l.settle(ms * 10);
            assert_eq!(credited(&mut l), vec![]);
        }
        // One nanosecond earlier the attached arrival wins the room.
        let mut l = link(1000);
        Script::attach(&mut l, 0, &[(t - TimeNs::from_nanos(1), Some(600))]);
        assert_eq!(l.on_arrival(1000, TimeNs::ZERO), Some(ms));
        assert_eq!(l.on_arrival(1000, t), None);
        l.settle(ms * 10);
        assert_eq!(credited(&mut l).len(), 1);
    }

    /// Attached arrivals at one instant fire in the order their processes
    /// were (re)armed — not the order they were attached in.
    #[test]
    fn attached_ties_fire_in_arming_order() {
        let ms = TimeNs::from_millis(1);
        let us = TimeNs::from_micros;
        // Room for one waiting packet; whoever is second at a tie drops.
        let winners = |a: &[(TimeNs, Option<u32>)], b: &[(TimeNs, Option<u32>)]| {
            let mut l = link(700);
            Script::attach(&mut l, 0, a);
            Script::attach(&mut l, 1, b);
            assert_eq!(l.on_arrival(1000, TimeNs::ZERO), Some(ms)); // in service
            l.settle(ms * 10);
            (credited(&mut l), l.stats.drops_overflow)
        };
        // First arming: attach order. A (sink 0) gets through.
        let (got, drops) = winners(&[(us(500), Some(600))], &[(us(500), Some(700))]);
        assert_eq!((got.len(), got[0].0, drops), (1, 0, 1));
        // Silent firings re-arm both for 500 µs: A fires (and re-arms)
        // first at 100 µs vs 200 µs, so A is first again...
        let a = [(us(100), None), (us(500), Some(600))];
        let b = [(us(200), None), (us(500), Some(700))];
        let (got, drops) = winners(&a, &b);
        assert_eq!((got.len(), got[0].0, drops), (1, 0, 1));
        // ...but when B's earlier firing re-arms it first, B goes first
        // although it was attached second.
        let a = [(us(200), None), (us(500), Some(600))];
        let b = [(us(100), None), (us(500), Some(700))];
        let (got, drops) = winners(&a, &b);
        assert_eq!((got.len(), got[0].0, drops), (1, 1, 1));
        // A process re-armed at its own firing instant queues behind what
        // was already due then (an on/off source starting an ON period).
        let a = [(us(500), None), (us(500), Some(600))];
        let b = [(us(500), Some(700))];
        let (got, drops) = winners(&a, &b);
        assert_eq!((got.len(), got[0].0, drops), (1, 1, 1));
    }

    /// Settling across a long gap with no events must not buffer the gap's
    /// deliveries: sinks are credited as the drain advances, so neither
    /// FIFO ever holds more than about one propagation delay (here 10 ms
    /// at 1000 packets/s) of arrivals. `VecDeque` never shrinks, so its
    /// capacity is the peak.
    #[test]
    fn a_long_settle_holds_one_propagation_delay_of_arrivals() {
        #[derive(Debug)]
        struct Cbr;
        impl ArrivalProcess for Cbr {
            fn fire(&mut self, at: TimeNs) -> (Option<u32>, TimeNs) {
                (Some(500), at + TimeNs::from_millis(1))
            }
        }
        let mut l = Link::new(
            LinkConfig::new(Rate::from_mbps(8.0), TimeNs::from_millis(10)),
            Prng::new(0),
        );
        l.attach(Box::new(Cbr), AppId(0), TimeNs::ZERO);
        l.settle(TimeNs::from_secs(60));
        assert_eq!(l.attached_arrivals(), 60_001);
        let got = credited(&mut l);
        assert_eq!((got[0].1, got[0].2), (59_990, 59_990 * 500));
        assert!(l.in_propagation.len() <= 11);
        assert!(
            l.in_propagation.capacity() <= 32 && l.fifo.capacity() <= 8,
            "peak in propagation {}, in the link {}",
            l.in_propagation.capacity(),
            l.fifo.capacity()
        );
    }

    /// A renewal process with bursts (gap 0), silent firings and gaps on
    /// the event arrivals' time scale. `Clone`, so the reference model
    /// replays the very sequence the link pulls.
    #[derive(Clone, Debug)]
    struct Bursty {
        rng: Prng,
        scale: u64,
    }

    impl ArrivalProcess for Bursty {
        fn fire(&mut self, at: TimeNs) -> (Option<u32>, TimeNs) {
            let size = (self.rng.below(4) != 0).then(|| 40 + self.rng.below(1461) as u32);
            let gap = match self.rng.below(4) {
                0 => 0,
                _ => self.rng.below(self.scale),
            };
            (size, at + TimeNs::from_nanos(gap))
        }
    }

    /// Reference FIFO: every accepted packet as `(depart, size, tx_ns,
    /// attached)`, occupancy recomputed from scratch at each arrival
    /// (Lindley's recursion with a finite buffer, departures before
    /// arrivals on a tie), attached processes merged in by a linear scan
    /// for the least `(fire time, arming stamp)`. Quadratic and obviously
    /// right.
    #[derive(Default)]
    struct RefFifo {
        accepted: Vec<(u64, u32, u64, bool)>,
        drops: u64,
        max_queue_bytes: u64,
        /// `(process, next fire time, arming stamp)`.
        procs: Vec<(Bursty, u64, u64)>,
        next_stamp: u64,
        pulled: u64,
    }

    impl RefFifo {
        fn attach(&mut self, p: Bursty, first_at: u64) {
            self.procs.push((p, first_at, self.next_stamp));
            self.next_stamp += 1;
        }

        /// When the next attached process fires.
        fn next_fire(&self) -> Option<u64> {
            self.procs.iter().map(|p| p.1).min()
        }

        /// Attached arrivals before `now` (`through`: at `now` too).
        fn pull(&mut self, now: u64, through: bool, cap: Rate, limit: u64) {
            while let Some(i) =
                (0..self.procs.len()).min_by_key(|&i| (self.procs[i].1, self.procs[i].2))
            {
                let at = self.procs[i].1;
                if at > now || (at == now && !through) {
                    break;
                }
                let (size, next) = self.procs[i].0.fire(TimeNs::from_nanos(at));
                self.procs[i].1 = next.as_nanos();
                self.procs[i].2 = self.next_stamp;
                self.next_stamp += 1;
                if let Some(size) = size {
                    self.pulled += 1;
                    self.arrive(size, at, cap.tx_time_ns(size), limit, true);
                }
            }
        }

        fn arrive(
            &mut self,
            size: u32,
            now: u64,
            tx_ns: u64,
            limit: u64,
            attached: bool,
        ) -> Option<u64> {
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
            self.accepted.push((start + tx_ns, size, tx_ns, attached));
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

        /// `(packets, bytes, last delivery)` of the attached packets that
        /// reached their sink by `t`.
        fn delivered_by(&self, t: u64, prop: u64) -> (u64, u64, u64) {
            let got = || (self.accepted.iter()).filter(move |p| p.3 && p.0 + prop <= t);
            (
                got().count() as u64,
                got().map(|p| p.1 as u64).sum(),
                got().next_back().map_or(0, |p| p.0 + prop),
            )
        }
    }

    /// Property: `Link` agrees with the reference FIFO on every departure
    /// time and drop decision of merged event and attached arrivals, and —
    /// after `settle` at arbitrary instants, mid-transmission, mid-queue
    /// and mid-propagation included — on counters, occupancy, monitor
    /// windows and what the sink has been credited.
    #[test]
    fn link_matches_reference_fifo() {
        let mut rng = Prng::new(0xF1F0);
        let (mut drops, mut pulled) = (0, 0);
        for case in 0..200 {
            let limit = [0, 1500, 4000, 20_000, 8 << 20][case % 5];
            let cap = Rate::from_mbps([1.0, 8.0, 155.0][case % 3]);
            let window = TimeNs::from_millis(1 + rng.below(5));
            let prop = rng.below(3_000_000);
            let mut l = Link::new(
                LinkConfig::new(cap, TimeNs::from_nanos(prop))
                    .with_queue_limit(limit)
                    .with_monitor_window(window),
                Prng::new(case as u64),
            );
            let mut model = RefFifo::default();
            for i in 0..case % 3 {
                let p = Bursty {
                    rng: Prng::new((case * 3 + i) as u64),
                    scale: 1 + rng.below(10_000_000),
                };
                let first_at = rng.below(1_000_000);
                model.attach(p.clone(), first_at);
                l.attach(Box::new(p), AppId(0), TimeNs::from_nanos(first_at));
            }
            let mut credit = (0, 0, 0);
            let mut now = 0u64;
            for _ in 0..300 {
                // Bursts (gap 0), exact ties with a departure or with an
                // attached arrival, and gaps long enough to drain.
                now = match rng.below(5) {
                    0 => now,
                    1 => model
                        .accepted
                        .iter()
                        .map(|p| p.0)
                        .find(|&d| d >= now)
                        .unwrap_or(now),
                    2 => model.next_fire().map_or(now, |t| t.max(now)),
                    _ => {
                        let scale = 1 + rng.below(200);
                        now + rng.below(20_000_000 / scale)
                    }
                };
                let t = TimeNs::from_nanos(now);
                if rng.below(3) == 0 {
                    l.settle(t);
                    model.pull(now, true, cap, limit);
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
                    for (_, c) in l.take_credits() {
                        credit = (
                            credit.0 + c.packets,
                            credit.1 + c.bytes,
                            c.last_arrival.as_nanos(),
                        );
                    }
                    assert_eq!(
                        credit,
                        model.delivered_by(now, prop),
                        "case {case} at {now}"
                    );
                    assert_eq!(l.attached_arrivals(), model.pulled);
                }
                let size = 40 + rng.below(1461) as u32;
                model.pull(now, false, cap, limit);
                let want = model.arrive(size, now, cap.tx_time_ns(size), limit, false);
                let got = l.on_arrival(size, t);
                assert_eq!(got.map(TimeNs::as_nanos), want, "case {case} at {now}");
            }
            assert_eq!(l.stats.drops_overflow, model.drops);
            assert_eq!(l.stats.max_queue_bytes, model.max_queue_bytes);
            drops += model.drops;
            pulled += model.pulled;
        }
        assert!(drops > 1000, "the finite buffers must bite: {drops} drops");
        assert!(pulled > 10_000, "attached arrivals must merge in: {pulled}");
    }

    /// A scripted process that logs every firing, so the merge order
    /// itself can be compared, not only its effects.
    #[derive(Debug)]
    struct Logged {
        id: u32,
        script: VecDeque<(TimeNs, Option<u32>)>,
        log: std::sync::Arc<std::sync::Mutex<Vec<(u32, TimeNs)>>>,
    }

    impl ArrivalProcess for Logged {
        fn fire(&mut self, at: TimeNs) -> (Option<u32>, TimeNs) {
            self.log.lock().unwrap().push((self.id, at));
            let (due, size) = self.script.pop_front().expect("fired past its script");
            assert_eq!(due, at, "fired at the instant it armed");
            (size, self.script.front().map_or(TimeNs::MAX, |next| next.0))
        }
    }

    /// The merge as it was before the loser tree: a binary heap keyed
    /// `(fire time, arming stamp, process)`, feeding the reference FIFO.
    #[derive(Default)]
    struct HeapMerge {
        due: std::collections::BinaryHeap<std::cmp::Reverse<(TimeNs, u64, u32)>>,
        scripts: Vec<VecDeque<(TimeNs, Option<u32>)>>,
        next_stamp: u64,
        log: Vec<(u32, TimeNs)>,
        fifo: RefFifo,
    }

    impl HeapMerge {
        fn attach(&mut self, script: VecDeque<(TimeNs, Option<u32>)>) {
            let id = self.scripts.len() as u32;
            let first_at = script[0].0;
            self.scripts.push(script);
            self.due
                .push(std::cmp::Reverse((first_at, self.next_stamp, id)));
            self.next_stamp += 1;
        }

        fn pull(&mut self, now: TimeNs, through: bool, cap: Rate, limit: u64) {
            while let Some(&std::cmp::Reverse((at, _, id))) = self.due.peek() {
                if at > now || (at == now && !through) {
                    break;
                }
                let script = &mut self.scripts[id as usize];
                let (_, size) = script.pop_front().unwrap();
                let next = script.front().map_or(TimeNs::MAX, |next| next.0);
                self.due.pop();
                self.due
                    .push(std::cmp::Reverse((next, self.next_stamp, id)));
                self.next_stamp += 1;
                self.log.push((id, at));
                if let Some(size) = size {
                    self.fifo.pulled += 1;
                    let t = at.as_nanos();
                    self.fifo.arrive(size, t, cap.tx_time_ns(size), limit, true);
                }
            }
        }
    }

    /// Differential: the loser tree fires attached processes in exactly
    /// the order a binary heap of `(fire time, arming stamp, process)` did,
    /// over scripts built to stress it — same-nanosecond ties within and
    /// across processes, silent firings, a last firing that re-arms for
    /// `TimeNs::MAX` ("never again"), processes attached mid-run between
    /// pulls — and the link's counters, occupancy, drops and sink credits
    /// equal the reference's at every boundary.
    #[test]
    fn loser_tree_merges_like_a_binary_heap() {
        let mut rng = Prng::new(0x10_5E2);
        let mut fired = 0;
        for case in 0..150 {
            let limit = [1500, 6000, 8 << 20][case % 3];
            let cap = Rate::from_mbps([2.0, 10.0, 100.0][case % 3]);
            let prop = rng.below(2_000_000);
            let mut l = Link::new(
                LinkConfig::new(cap, TimeNs::from_nanos(prop))
                    .with_queue_limit(limit)
                    .with_monitor_window(TimeNs::from_millis(1)),
                Prng::new(case as u64),
            );
            let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
            let mut model = HeapMerge::default();
            // Firings on a 1 µs grid, a few grid steps apart or at the
            // very same instant, a quarter of them silent.
            let script = |rng: &mut Prng, from: u64| {
                let mut at = from + rng.below(4) * 1000;
                (0..1 + rng.below(25))
                    .map(|_| {
                        at += [0, 0, 1000, 2000, 5000, 40_000][rng.below(6) as usize];
                        let size = (rng.below(4) != 0).then(|| 40 + rng.below(1461) as u32);
                        (TimeNs::from_nanos(at), size)
                    })
                    .collect::<VecDeque<_>>()
            };
            let mut now = 0u64;
            let mut credit = (0, 0, 0);
            for step in 0..120 {
                // Attach between pulls: at the start, then now and then.
                if step == 0 || rng.below(12) == 0 {
                    for _ in 0..1 + rng.below(if step == 0 { 6 } else { 2 }) {
                        let s = script(&mut rng, now);
                        let logged = Logged {
                            id: model.scripts.len() as u32,
                            script: s.clone(),
                            log: log.clone(),
                        };
                        l.attach(Box::new(logged), AppId(0), s[0].0);
                        model.attach(s);
                    }
                }
                now += [0, 500, 1000, 3000, 20_000][rng.below(5) as usize];
                let t = TimeNs::from_nanos(now);
                if rng.below(2) == 0 {
                    let size = 40 + rng.below(1461) as u32;
                    model.pull(t, false, cap, limit);
                    let want = model
                        .fifo
                        .arrive(size, now, cap.tx_time_ns(size), limit, false);
                    assert_eq!(l.on_arrival(size, t).map(TimeNs::as_nanos), want);
                    continue;
                }
                l.settle(t);
                model.pull(t, true, cap, limit);
                assert_eq!(*log.lock().unwrap(), model.log, "case {case} at {now}");
                let (pkts, bytes, busy, windows) = model.fifo.done_by(now, 1_000_000);
                assert_eq!(
                    (l.stats.tx_packets, l.stats.tx_bytes, l.stats.busy_ns),
                    (pkts, bytes, busy)
                );
                let got: Vec<u64> = (0..l.monitor().num_windows())
                    .map(|i| l.monitor().bytes_in_window(i))
                    .collect();
                assert_eq!(got, windows);
                assert_eq!(
                    (l.stats.drops_overflow, l.stats.max_queue_bytes),
                    (model.fifo.drops, model.fifo.max_queue_bytes)
                );
                assert_eq!(l.attached_arrivals(), model.fifo.pulled);
                let left: u64 = (model.fifo.accepted.iter())
                    .filter(|p| p.0 > now)
                    .map(|p| p.1 as u64)
                    .sum();
                assert_eq!(l.backlog_bytes(), left);
                for (_, c) in l.take_credits() {
                    credit = (
                        credit.0 + c.packets,
                        credit.1 + c.bytes,
                        c.last_arrival.as_nanos(),
                    );
                }
                assert_eq!(credit, model.fifo.delivered_by(now, prop), "case {case}");
            }
            fired += model.log.len();
        }
        assert!(
            fired > 20_000,
            "the merge must be exercised: {fired} firings"
        );
    }
}

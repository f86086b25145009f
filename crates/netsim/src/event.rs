//! The event queue: a binary heap ordered by `(time, sequence)`, with a
//! one-element front slot that absorbs the push/pop churn of the hot loop.
//!
//! The sequence number breaks ties deterministically in FIFO order of
//! scheduling, which both makes runs reproducible and matches the intuitive
//! "things scheduled first happen first" semantics for simultaneous events.
//!
//! Two hot-path properties (see `docs/ARCHITECTURE.md` § Performance
//! notes):
//!
//! * **Events are small `Copy` values.** Packets travel by
//!   [`PacketSlot`] — a handle into the engine's packet pool
//!   ([`crate::pool`]) — instead of by value, so a heap sift moves ~32
//!   bytes, not a whole packet.
//! * **One compare per ordering decision.** `(time, seq)` is compared as
//!   a single packed `u128`, not as a compare-then-tie-break chain.
//! * **The front slot bypasses the heap** for push/pop alternation (an
//!   event fires and schedules the very next one to fire): the minimum
//!   pending event is kept in an `Option` in front of the heap, so that
//!   cycle costs two moves instead of two O(log n) sifts. Invariant: the
//!   front event orders before everything in the heap, so pop order is
//!   exactly the plain-heap order. Little such alternation exists on a
//!   loaded path — sends run their first-hop arrival inline and links
//!   schedule no transmission-done events — so there nearly every queue
//!   operation is a real heap operation (hit share ~0.1 %).
//!
//! The queue counts its real heap operations (`QueueStats`) so the
//! engine can report op-count wins — the honest metric on a single-core
//! container where wall-clock parallelism is off the table.

use crate::app::AppId;
use crate::link::LinkId;
use crate::pool::PacketSlot;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use units::TimeNs;

/// What happens when an event fires.
#[derive(Clone, Copy, Debug)]
pub enum EventKind {
    /// A packet arrives at the tail of a link's queue.
    ArriveAtLink {
        /// The link receiving the packet.
        link: LinkId,
        /// The arriving packet, parked in the engine's packet pool.
        slot: PacketSlot,
    },
    /// A packet is delivered to its destination application.
    Deliver {
        /// The receiving application.
        app: AppId,
        /// The delivered packet, parked in the engine's packet pool.
        slot: PacketSlot,
    },
    /// An application timer fires.
    Timer {
        /// The owning application.
        app: AppId,
        /// Opaque token the application passed when arming the timer.
        token: u64,
    },
}

#[derive(Clone, Copy, Debug)]
pub(crate) struct Event {
    pub time: TimeNs,
    pub seq: u64,
    pub kind: EventKind,
}

impl Event {
    /// `(time, seq)` packed into one integer, so ordering two events is a
    /// single branchless compare instead of a compare-then-tie-break
    /// chain.
    #[inline]
    fn key(&self) -> u128 {
        (self.time.as_nanos() as u128) << 64 | self.seq as u128
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event is popped
        // first, with the scheduling sequence as the deterministic tie-break.
        other.key().cmp(&self.key())
    }
}

/// `a` fires strictly before `b` in `(time, seq)` order.
#[inline]
fn earlier(a: &Event, b: &Event) -> bool {
    a.key() < b.key()
}

/// ceil(log2(n)) for n ≥ 1 — the comparison-cost proxy for one heap
/// operation at depth `n`.
#[inline]
fn log2_ceil(n: usize) -> u64 {
    (usize::BITS - n.max(1).next_power_of_two().leading_zeros() - 1) as u64
}

/// Heap-operation accounting for one [`EventQueue`]; aggregated across
/// shards into [`crate::sim::EngineStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct QueueStats {
    /// Real `BinaryHeap` pushes (front-slot placements excluded).
    pub heap_pushes: u64,
    /// Real `BinaryHeap` pops (front-slot serves excluded).
    pub heap_pops: u64,
    /// Pushes and pops served by the front slot, bypassing the heap.
    pub front_hits: u64,
    /// Sum over heap ops of ceil(log2(depth)): the comparison-cost proxy
    /// that captures the log(global) → log(shard) sharding win.
    pub cmp_weight: u64,
    /// Deepest the queue got (front slot included).
    pub max_depth: usize,
}

impl QueueStats {
    /// Fold another queue's counters into this one (sums; max of maxes).
    pub fn absorb(&mut self, other: &QueueStats) {
        self.heap_pushes += other.heap_pushes;
        self.heap_pops += other.heap_pops;
        self.front_hits += other.front_hits;
        self.cmp_weight += other.cmp_weight;
        self.max_depth = self.max_depth.max(other.max_depth);
    }
}

/// Min-heap of pending events, fronted by a one-element fast slot.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    /// The minimum pending event, if claimed. Invariant: orders before
    /// everything in `heap` (distinct seqs make the order strict).
    front: Option<Event>,
    heap: BinaryHeap<Event>,
    next_seq: u64,
    stats: QueueStats,
}

impl EventQueue {
    pub fn push(&mut self, time: TimeNs, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let ev = Event { time, seq, kind };
        match &self.front {
            Some(f) if earlier(&ev, f) => {
                // New minimum: it takes the front slot, the old front is
                // demoted into the heap (still ≤ everything there).
                if let Some(old) = self.front.replace(ev) {
                    self.heap_push(old);
                }
            }
            Some(_) => self.heap_push(ev),
            None => {
                // The front slot must keep ordering before the heap min.
                match self.heap.peek() {
                    Some(top) if earlier(top, &ev) => self.heap_push(ev),
                    _ => {
                        self.stats.front_hits += 1;
                        self.front = Some(ev);
                    }
                }
            }
        }
        self.stats.max_depth = self.stats.max_depth.max(self.len());
    }

    fn heap_push(&mut self, ev: Event) {
        self.heap.push(ev);
        self.stats.heap_pushes += 1;
        self.stats.cmp_weight += log2_ceil(self.heap.len());
    }

    pub fn pop(&mut self) -> Option<Event> {
        if let Some(ev) = self.front.take() {
            self.stats.front_hits += 1;
            return Some(ev);
        }
        let ev = self.heap.pop();
        if ev.is_some() {
            self.stats.heap_pops += 1;
            self.stats.cmp_weight += log2_ceil(self.heap.len() + 1);
        }
        ev
    }

    pub fn peek_time(&self) -> Option<TimeNs> {
        match &self.front {
            Some(ev) => Some(ev.time),
            None => self.heap.peek().map(|e| e.time),
        }
    }

    /// Re-insert an event carried over from a retired queue (engine freeze
    /// or collapse). Bypasses the front slot and the op counters: the
    /// event was already paid for when it was first pushed.
    pub fn seed(&mut self, time: TimeNs, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { time, seq, kind });
        self.stats.max_depth = self.stats.max_depth.max(self.len());
    }

    /// Tear the queue down into its pending events — in pop order — plus
    /// its accumulated counters. Used when the engine re-partitions
    /// (freeze into shards, collapse back to one queue).
    pub fn into_events(self) -> (Vec<Event>, QueueStats) {
        let mut evs = self.heap.into_sorted_vec();
        // `into_sorted_vec` is ascending in the inverted (max-heap) order,
        // i.e. latest-first; flip to pop order.
        evs.reverse();
        if let Some(f) = self.front {
            evs.insert(0, f);
        }
        (evs, self.stats)
    }

    /// Accumulated heap-operation counters.
    pub fn stats(&self) -> &QueueStats {
        &self.stats
    }

    #[allow(dead_code)] // used by tests and kept for engine introspection
    pub fn len(&self) -> usize {
        self.heap.len() + usize::from(self.front.is_some())
    }

    pub fn is_empty(&self) -> bool {
        self.front.is_none() && self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Prng;

    fn timer(token: u64) -> EventKind {
        EventKind::Timer {
            app: AppId(0),
            token,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::default();
        q.push(TimeNs::from_nanos(30), timer(3));
        q.push(TimeNs::from_nanos(10), timer(1));
        q.push(TimeNs::from_nanos(20), timer(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Timer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_in_scheduling_order() {
        let mut q = EventQueue::default();
        let t = TimeNs::from_nanos(5);
        for token in 0..100 {
            q.push(t, timer(token));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Timer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_time_matches_next_pop() {
        let mut q = EventQueue::default();
        assert_eq!(q.peek_time(), None);
        q.push(TimeNs::from_nanos(42), timer(0));
        assert_eq!(q.peek_time(), Some(TimeNs::from_nanos(42)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn push_pop_alternation_hits_the_front_slot() {
        let mut q = EventQueue::default();
        // A timer-loop pattern: pop one, schedule the next, repeat.
        q.push(TimeNs::from_nanos(0), timer(0));
        for i in 1..100u64 {
            let ev = q.pop().unwrap();
            assert_eq!(ev.time, TimeNs::from_nanos(i - 1));
            q.push(TimeNs::from_nanos(i), timer(i));
        }
        let s = q.stats();
        assert_eq!(s.heap_pushes, 0, "alternation must bypass the heap");
        assert_eq!(s.heap_pops, 0);
        assert_eq!(s.front_hits, 199); // 100 pushes + 99 pops
    }

    /// Model check: the front-slot queue pops in exactly the order a plain
    /// sorted list would, under a random interleaving of pushes and pops.
    #[test]
    fn front_slot_preserves_total_order() {
        let mut rng = Prng::new(0xF00D);
        let mut q = EventQueue::default();
        let mut model: Vec<(u64, u64)> = Vec::new(); // (time, seq), sorted
        let mut next_seq = 0u64;
        for _ in 0..2000 {
            if rng.below(3) > 0 || model.is_empty() {
                let t = rng.below(50);
                q.push(TimeNs::from_nanos(t), timer(next_seq));
                let pos = model.partition_point(|&e| e <= (t, next_seq));
                model.insert(pos, (t, next_seq));
                next_seq += 1;
            } else {
                let got = q.pop().unwrap();
                let want = model.remove(0);
                assert_eq!((got.time.as_nanos(), got.seq), want);
            }
        }
        while let Some(got) = q.pop() {
            let want = model.remove(0);
            assert_eq!((got.time.as_nanos(), got.seq), want);
        }
        assert!(model.is_empty());
    }

    #[test]
    fn into_events_returns_pop_order() {
        let mut q = EventQueue::default();
        for t in [30u64, 10, 20, 10] {
            q.push(TimeNs::from_nanos(t), timer(t));
        }
        let (evs, _) = q.into_events();
        let times: Vec<u64> = evs.iter().map(|e| e.time.as_nanos()).collect();
        assert_eq!(times, vec![10, 10, 20, 30]);
        // Equal-time events keep scheduling order.
        assert!(evs[0].seq < evs[1].seq);
    }

    #[test]
    fn seed_is_uncounted_but_ordered() {
        let mut q = EventQueue::default();
        q.seed(TimeNs::from_nanos(20), timer(0));
        q.seed(TimeNs::from_nanos(10), timer(1));
        assert_eq!(q.stats().heap_pushes, 0);
        assert_eq!(q.stats().front_hits, 0);
        assert_eq!(q.pop().map(|e| e.time), Some(TimeNs::from_nanos(10)));
    }
}

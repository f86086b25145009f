//! Packet buffer pool: a slab with a free list.
//!
//! Events used to carry [`Packet`]s by value, so every heap sift moved a
//! ~100-byte payload and every in-flight packet occupied fresh heap-node
//! storage. The pool parks in-flight packets in slot storage and lets
//! events carry a 4-byte [`PacketSlot`] instead, shrinking events to small
//! `Copy` values (cheap sifts) and reusing packet storage across the whole
//! run instead of churning the allocator once per event.
//!
//! A packet is parked once, at injection, and stays in its slot until it
//! is delivered or dropped: each hop borrows it in place (`get_mut`) to
//! read its size and advance its hop counter, and the link it is crossing
//! keeps only `(departure, size)` — never the packet. The pool's
//! high-water mark therefore counts every packet inside the network,
//! waiting in link queues included.
//!
//! The pool is deliberately dumb: `insert` hands out the most recently
//! freed slot (LIFO, for cache warmth), `take` frees it. Both are O(1).
//! Lookups are by `.get`, never by index, so a corrupted slot degrades to
//! a dropped event rather than a panic (this module is held to AL004
//! panic-freedom).

use crate::packet::Packet;

/// Opaque handle to a packet parked in the engine's packet pool.
///
/// Carried by [`crate::event::EventKind::ArriveAtLink`] and
/// [`crate::event::EventKind::Deliver`] in place of the packet itself.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PacketSlot(pub(crate) u32);

/// Slab of in-flight packets with LIFO slot reuse.
#[derive(Debug, Default)]
pub(crate) struct PacketPool {
    slots: Vec<Option<Packet>>,
    free: Vec<u32>,
    live: usize,
    live_max: usize,
}

impl PacketPool {
    /// Park a packet; returns the slot to redeem it with.
    pub fn insert(&mut self, pkt: Packet) -> PacketSlot {
        self.live += 1;
        self.live_max = self.live_max.max(self.live);
        if let Some(idx) = self.free.pop() {
            if let Some(slot) = self.slots.get_mut(idx as usize) {
                *slot = Some(pkt);
                return PacketSlot(idx);
            }
            // A free-list entry pointing past the slab can only come from
            // engine corruption; grow the slab instead of panicking.
        }
        let idx = self.slots.len() as u32;
        self.slots.push(Some(pkt));
        PacketSlot(idx)
    }

    /// Borrow a parked packet in place (a hop of its route). `None` for an
    /// empty or unknown slot.
    pub fn get_mut(&mut self, slot: PacketSlot) -> Option<&mut Packet> {
        self.slots.get_mut(slot.0 as usize)?.as_mut()
    }

    /// Redeem a slot, freeing it for reuse. `None` for an empty or unknown
    /// slot (an engine bug the caller turns into a dropped event).
    pub fn take(&mut self, slot: PacketSlot) -> Option<Packet> {
        let pkt = self.slots.get_mut(slot.0 as usize)?.take()?;
        self.free.push(slot.0);
        self.live = self.live.saturating_sub(1);
        Some(pkt)
    }

    /// High-water mark of simultaneously parked packets (how big the slab
    /// grew): the peak number of packets inside the network, in flight or
    /// waiting in a link queue.
    pub fn live_max(&self) -> usize {
        self.live_max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::FlowId;
    use crate::packet::RouteSpec;
    use crate::AppId;
    use std::sync::Arc;

    fn pkt(seq: u64) -> Packet {
        let route = Arc::new(RouteSpec {
            links: vec![],
            dst: AppId(0),
        });
        Packet::new(100, FlowId(1), seq, route)
    }

    #[test]
    fn slots_round_trip_and_are_reused() {
        let mut pool = PacketPool::default();
        let a = pool.insert(pkt(1));
        let b = pool.insert(pkt(2));
        assert_ne!(a, b);
        assert_eq!(pool.take(a).map(|p| p.seq), Some(1));
        // LIFO reuse: the freed slot is handed out again.
        let c = pool.insert(pkt(3));
        assert_eq!(c, a);
        assert_eq!(pool.take(b).map(|p| p.seq), Some(2));
        assert_eq!(pool.take(c).map(|p| p.seq), Some(3));
    }

    #[test]
    fn get_mut_edits_in_place_without_freeing() {
        let mut pool = PacketPool::default();
        let a = pool.insert(pkt(1));
        pool.get_mut(a).unwrap().hop += 1;
        // Still parked: the next insert gets a fresh slot.
        assert_ne!(pool.insert(pkt(2)), a);
        assert_eq!(pool.take(a).map(|p| p.hop), Some(1));
        assert!(pool.get_mut(a).is_none());
        assert!(pool.get_mut(PacketSlot(999)).is_none());
    }

    #[test]
    fn double_take_returns_none() {
        let mut pool = PacketPool::default();
        let a = pool.insert(pkt(1));
        assert!(pool.take(a).is_some());
        assert!(pool.take(a).is_none());
        assert!(pool.take(PacketSlot(999)).is_none());
    }

    #[test]
    fn live_max_tracks_peak_not_current() {
        let mut pool = PacketPool::default();
        let slots: Vec<_> = (0..5).map(|i| pool.insert(pkt(i))).collect();
        for s in slots {
            pool.take(s);
        }
        let _ = pool.insert(pkt(9));
        assert_eq!(pool.live_max(), 5);
    }
}

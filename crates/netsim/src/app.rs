//! Application framework: boxed state machines that receive packets and
//! timers, and act on the simulation through a [`Ctx`] handle.

use crate::link::SinkCredit;
use crate::packet::Packet;
use crate::sim::SimCore;
use std::any::Any;
use units::TimeNs;

/// Index of an application within a [`crate::Simulator`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AppId(pub u32);

/// A simulated application (traffic source, sink, TCP endpoint, prober...).
///
/// Handlers receive a [`Ctx`] through which they can send packets and arm
/// timers re-entrantly. Timer cancellation is by generation token: apps that
/// re-arm timers should ignore stale tokens.
///
/// The `Any` supertrait lets experiment code downcast apps back to their
/// concrete type after a run to read out collected results
/// (see [`crate::Simulator::app`]). The `Send` supertrait keeps whole
/// simulators movable across threads, which is what lets the batch runner
/// and the monitoring daemon drive independent simulations on worker
/// threads.
pub trait App: Any + Send {
    /// A packet addressed to this application arrived.
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        let _ = (ctx, pkt);
    }

    /// A timer armed with `token` fired.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let _ = (ctx, token);
    }
}

/// Handle through which an application interacts with the simulation.
pub struct Ctx<'a> {
    pub(crate) core: &'a mut SimCore,
    /// The id of the application being dispatched.
    pub id: AppId,
}

impl Ctx<'_> {
    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> TimeNs {
        self.core.now
    }

    /// Send a packet into the network now. Stamps `sent_at` and assigns the
    /// globally unique packet id; delivery follows the packet's route.
    pub fn send(&mut self, pkt: Packet) {
        let now = self.core.now;
        self.core.inject(pkt, now);
    }

    /// Arm a timer that fires `delay` from now with the given token.
    pub fn timer_in(&mut self, delay: TimeNs, token: u64) {
        let at = self.core.now + delay;
        self.core.schedule_timer(self.id, at, token);
    }

    /// Arm a timer at an absolute time (must not be in the past).
    pub fn timer_at(&mut self, at: TimeNs, token: u64) {
        self.core.schedule_timer(self.id, at, token);
    }
}

/// A sink that counts and then forgets the packets it receives.
/// Useful as the destination of cross-traffic routes.
#[derive(Debug, Default)]
pub struct CountingSink {
    /// Packets received.
    pub packets: u64,
    /// Bytes received.
    pub bytes: u64,
    /// Time of the last delivery.
    pub last_arrival: TimeNs,
}

impl CountingSink {
    /// Count deliveries the engine did not dispatch one by one: packets of
    /// a link's attached arrival processes, the last of them delivered at
    /// `credit.last_arrival` (never after the engine's clock).
    pub(crate) fn credit(&mut self, credit: SinkCredit) {
        self.packets += credit.packets;
        self.bytes += credit.bytes;
        self.last_arrival = self.last_arrival.max(credit.last_arrival);
    }
}

impl App for CountingSink {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        self.packets += 1;
        self.bytes += pkt.size as u64;
        self.last_arrival = ctx.now();
    }
}

/// A sink that records per-packet delivery: `(flow, seq, sent_at, recv_at,
/// payload)`. Used by probe receivers and by FIFO-invariant tests.
#[derive(Debug, Default)]
pub struct RecordingSink {
    /// One record per delivered packet, in delivery order.
    pub records: Vec<DeliveryRecord>,
}

/// A single packet delivery observed by a [`RecordingSink`].
#[derive(Debug, Clone)]
pub struct DeliveryRecord {
    /// Flow id of the delivered packet.
    pub flow: crate::packet::FlowId,
    /// Per-flow sequence number.
    pub seq: u64,
    /// Injection timestamp.
    pub sent_at: TimeNs,
    /// Delivery timestamp.
    pub recv_at: TimeNs,
    /// Size in bytes.
    pub size: u32,
    /// Payload header.
    pub payload: crate::packet::Payload,
}

impl App for RecordingSink {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        self.records.push(DeliveryRecord {
            flow: pkt.flow,
            seq: pkt.seq,
            sent_at: pkt.sent_at,
            recv_at: ctx.now(),
            size: pkt.size,
            payload: pkt.payload,
        });
    }
}

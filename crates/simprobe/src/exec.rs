//! The probe executor: the simulator's one implementation of the tool's
//! three verbs — send a train, send a periodic stream of K packets at
//! period T, idle (§IV).
//!
//! It holds no measurement machine. A host app hands it a [`Command`] from
//! inside a simulator callback ([`ProbeExec::begin`]), relays its packets
//! and timers ([`ProbeExec::on_packet`], [`ProbeExec::on_timer`]) and is
//! handed back the [`Event`] answering the command at the simulated instant
//! the command completes. Packets leave from per-packet timers exactly on
//! their schedule; completion is polled every [`POLL_SLICE`] and, for a
//! stream or train that lost a packet, at its deadline — which is not on
//! that grid, and where a link draws its drops in arrival order one probe
//! shifted by a few milliseconds reshuffles every later loss.

use crate::clock::ClockModel;
use netsim::{Chain, Ctx, FlowId, Packet, Payload, RouteSpec, Simulator};
use slops::machine::{Command, Event};
use slops::{PacketSample, StreamRecord, StreamRequest, TrainRecord};
use std::sync::Arc;
use units::{Rate, TimeNs};

/// Flow id of probe traffic.
const PROBE_FLOW: FlowId = FlowId(0x504C_0001); // 'PL'

/// How long past the nominal stream end the executor waits for stragglers
/// before declaring the remaining packets lost.
pub(crate) const STREAM_GRACE: TimeNs = TimeNs::from_millis(500);

/// Scheduling delay between issuing a stream/train and its first packet.
pub(crate) const LEAD_IN: TimeNs = TimeNs::from_millis(1);

/// Completion-poll granularity.
const POLL_SLICE: TimeNs = TimeNs::from_millis(5);

/// Timer-token kinds (high byte of the token). `TOK_START` belongs to the
/// hosts — the executor never arms it — and shares the numbering so that
/// one app's tokens cannot collide.
pub(crate) const TOK_START: u64 = 1 << 56;
const TOK_SEND: u64 = 2 << 56;
const TOK_CHECK: u64 = 3 << 56;
const TOK_IDLE: u64 = 4 << 56;
const TOK_KIND_MASK: u64 = 0xFF << 56;
const TOK_GEN_MASK: u64 = !TOK_KIND_MASK;

/// What the executor is currently executing.
#[derive(Debug)]
enum Exec {
    /// Nothing: before the first command, between an event and the next
    /// command, after the last.
    Quiet,
    /// A periodic stream is in flight.
    Stream {
        req: StreamRequest,
        tag: u32,
        /// First-packet instant.
        t0: TimeNs,
        /// No completion past this point; missing packets are lost.
        deadline: TimeNs,
        /// Next packet index to send.
        next_send: u32,
        /// Arrivals `(idx, sender_ts, recv_at)` in arrival order.
        arrivals: Vec<(u32, TimeNs, TimeNs)>,
    },
    /// A back-to-back train is in flight.
    Train {
        len: u32,
        size: u32,
        tag: u32,
        deadline: TimeNs,
        count: u32,
        first: TimeNs,
        last: TimeNs,
    },
    /// A pacing idle is in progress.
    Idling,
}

/// Executes probe commands for the app that hosts it.
pub(crate) struct ProbeExec {
    /// Forward route to the hosting app; set once the host has its id.
    pub(crate) route: Option<Arc<RouteSpec>>,
    /// Endpoint clock model (offset + quantization).
    pub(crate) clock: ClockModel,
    /// Narrowest forward capacity (train drain-time bound).
    narrowest: Rate,
    exec: Exec,
    next_stream_tag: u32,
    next_train_tag: u32,
    /// Instant of the armed completion poll of the stream or train in
    /// flight: a host that drives the simulator from outside runs it to
    /// exactly here, so the clock stops where the command completed.
    pub(crate) poll_at: TimeNs,
    /// Total probe bytes sent (streams + trains).
    pub(crate) probe_bytes_sent: u64,
}

impl ProbeExec {
    /// An executor for probes over `chain`; the host sets `route` once it
    /// has been added to `sim`.
    pub(crate) fn new(sim: &Simulator, chain: &Chain) -> ProbeExec {
        let narrowest = chain
            .forward
            .iter()
            .map(|l| sim.link(*l).capacity())
            .reduce(Rate::min)
            .expect("non-empty chain");
        ProbeExec {
            route: None,
            clock: ClockModel::default(),
            narrowest,
            exec: Exec::Quiet,
            next_stream_tag: 0,
            next_train_tag: 0,
            poll_at: TimeNs::ZERO,
            probe_bytes_sent: 0,
        }
    }

    /// Start executing `cmd` now. The answering event comes out of a later
    /// [`ProbeExec::on_timer`].
    ///
    /// # Panics
    ///
    /// Panics on [`Command::Finish`]: it is terminal and the host's to
    /// handle — there is nothing to execute and no event to answer it.
    pub(crate) fn begin(&mut self, ctx: &mut Ctx<'_>, cmd: &Command) {
        let t0 = ctx.now() + LEAD_IN;
        match *cmd {
            Command::SendTrain { len, size } => {
                let tag = self.next_train_tag;
                self.next_train_tag += 1;
                // Worst-case drain time at the narrowest capacity, plus
                // queueing grace.
                let drain = TimeNs::from_secs_f64(
                    (len as u64 * size as u64 * 8) as f64 / self.narrowest.bps(),
                );
                let deadline = t0 + drain * 2 + TimeNs::from_secs(1);
                self.exec = Exec::Train {
                    len,
                    size,
                    tag,
                    deadline,
                    count: 0,
                    first: TimeNs::ZERO,
                    last: TimeNs::ZERO,
                };
                ctx.timer_at(t0, TOK_SEND | tag as u64);
                self.arm_poll(ctx, tag, deadline);
            }
            Command::SendStream(req) => {
                let tag = self.next_stream_tag;
                self.next_stream_tag += 1;
                let deadline = t0 + req.period * req.count as u64 + STREAM_GRACE;
                self.exec = Exec::Stream {
                    req,
                    tag,
                    t0,
                    deadline,
                    next_send: 0,
                    arrivals: Vec::with_capacity(req.count as usize),
                };
                ctx.timer_at(t0, TOK_SEND | tag as u64);
                self.arm_poll(ctx, tag, deadline);
            }
            Command::Idle(dur) => {
                self.exec = Exec::Idling;
                ctx.timer_in(dur, TOK_IDLE);
            }
            Command::Finish(_) => panic!("Finish is terminal: nothing to execute"),
        }
    }

    /// Arm the next completion poll: one slice on, but never past
    /// `deadline`.
    fn arm_poll(&mut self, ctx: &mut Ctx<'_>, tag: u32, deadline: TimeNs) {
        self.poll_at = (ctx.now() + POLL_SLICE).min(deadline);
        ctx.timer_at(self.poll_at, TOK_CHECK | tag as u64);
    }

    /// A packet reached the host at `now`. Only packets of the stream or
    /// train in flight count; stragglers of finalized ones are dropped.
    pub(crate) fn on_packet(&mut self, now: TimeNs, payload: Payload) {
        match (&mut self.exec, payload) {
            (
                Exec::Stream { tag, arrivals, .. },
                Payload::Probe {
                    stream,
                    idx,
                    sender_ts,
                },
            ) if *tag == stream => {
                arrivals.push((idx, sender_ts, now));
            }
            (
                Exec::Train {
                    tag,
                    count,
                    first,
                    last,
                    ..
                },
                Payload::Train { train, .. },
            ) if *tag == train => {
                if *count == 0 {
                    *first = now;
                }
                *last = now;
                *count += 1;
            }
            _ => {}
        }
    }

    /// One of the executor's timers fired; returns the event answering the
    /// command in flight if this timer completed it. Timers left over from
    /// finished commands are ignored.
    pub(crate) fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) -> Option<Event> {
        let gen = (token & TOK_GEN_MASK) as u32;
        match token & TOK_KIND_MASK {
            TOK_SEND => {
                self.send(ctx, gen);
                None
            }
            TOK_CHECK => self.check_completion(ctx, gen),
            TOK_IDLE => matches!(self.exec, Exec::Idling).then(|| {
                self.exec = Exec::Quiet;
                Event::Tick(ctx.now())
            }),
            _ => unreachable!("unknown timer token {token:#x}"),
        }
    }

    /// Send what is due of stream or train `gen`: the next stream packet,
    /// exactly on its schedule, or the whole train back to back (the first
    /// link's FIFO serializes it, exactly like a sender NIC at line rate).
    fn send(&mut self, ctx: &mut Ctx<'_>, gen: u32) {
        let route = self.route.clone().expect("route installed");
        let token = TOK_SEND | gen as u64;
        match &mut self.exec {
            Exec::Stream {
                req,
                tag,
                t0,
                next_send,
                ..
            } if *tag == gen => {
                let i = *next_send;
                let payload = Payload::Probe {
                    stream: gen,
                    idx: i,
                    sender_ts: ctx.now(),
                };
                let pkt =
                    Packet::with_payload(req.packet_size, PROBE_FLOW, i as u64, route, payload);
                ctx.send(pkt);
                self.probe_bytes_sent += req.packet_size as u64;
                *next_send += 1;
                if *next_send < req.count {
                    ctx.timer_at(*t0 + req.period * *next_send as u64, token);
                }
            }
            Exec::Train { len, size, tag, .. } if *tag == gen => {
                for idx in 0..*len {
                    let payload = Payload::Train { train: gen, idx };
                    let pkt =
                        Packet::with_payload(*size, PROBE_FLOW, idx as u64, route.clone(), payload);
                    ctx.send(pkt);
                }
                self.probe_bytes_sent += *len as u64 * *size as u64;
            }
            _ => {}
        }
    }

    /// Completion poll: finalize when everything arrived or the deadline
    /// passed; otherwise poll again.
    fn check_completion(&mut self, ctx: &mut Ctx<'_>, gen: u32) -> Option<Event> {
        let (have, want, deadline) = match &self.exec {
            Exec::Stream {
                req,
                tag,
                deadline,
                arrivals,
                ..
            } if *tag == gen => (arrivals.len() as u32, req.count, *deadline),
            Exec::Train {
                len,
                tag,
                deadline,
                count,
                ..
            } if *tag == gen => (*count, *len, *deadline),
            _ => return None,
        };
        if have < want && ctx.now() < deadline {
            self.arm_poll(ctx, gen, deadline);
            return None;
        }
        Some(self.finalize())
    }

    /// Build the record of the finished stream or train from what arrived,
    /// as the two endpoint clocks read it.
    fn finalize(&mut self) -> Event {
        match std::mem::replace(&mut self.exec, Exec::Quiet) {
            Exec::Stream {
                req, t0, arrivals, ..
            } => {
                // A record with no samples is a fully lost stream.
                let first_send = self.clock.sender_reading(t0);
                let samples = arrivals
                    .iter()
                    .map(|&(idx, sender_ts, recv_at)| PacketSample {
                        idx,
                        send_offset: TimeNs::from_nanos(
                            (self.clock.sender_reading(sender_ts) - first_send).max(0) as u64,
                        ),
                        owd_ns: self.clock.owd_ns(sender_ts, recv_at),
                    })
                    .collect();
                Event::StreamDone(StreamRecord {
                    sent: req.count,
                    samples,
                })
            }
            // Dispersion is a timestamp difference, so the clock offset
            // cancels; report quantized sender-clock readings of the global
            // instants to keep the u64 fields meaningful.
            Exec::Train {
                len,
                size,
                count,
                first,
                last,
                ..
            } => Event::TrainDone(TrainRecord {
                sent: len,
                received: count,
                size,
                first_recv: TimeNs::from_nanos(self.clock.sender_reading(first).max(0) as u64),
                last_recv: TimeNs::from_nanos(self.clock.sender_reading(last).max(0) as u64),
            }),
            Exec::Quiet | Exec::Idling => unreachable!("finalize outside a stream or train"),
        }
    }
}

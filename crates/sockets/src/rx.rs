//! The receiver's protocol core — sans-IO.
//!
//! Everything a `pathload_rcv` endpoint *decides* lives here, once: who
//! is admitted ([`Admission`]: token mint from the base the pump draws,
//! the session cap and its versioned `Deny`), what an announce arms, which
//! probe packets count (kind/id match, de-duplication on index), when a
//! collection is over (complete, silence window, hard deadline), what the
//! report says, when a suspicious drop total earns a warning, and when
//! the shared probe socket must be read ([`plan_reads`]). An
//! [`RxSession`] is one control connection's state machine; it never
//! touches a socket, a thread, a clock or the OS's entropy. Inputs carry
//! their own time:
//!
//! | input | meaning | output |
//! |---|---|---|
//! | [`on_ctrl(msg, now_ns)`](RxSession::on_ctrl) | one decoded control frame | [`CtrlAction::Reply`] (`Ready`, `Echo`) or [`CtrlAction::Close`] (`Bye`); `Err` = protocol error, close the session |
//! | [`on_probe(&packet, recv_ns)`](RxSession::on_probe) | one probe datagram routed to this session, stamped with **the kernel's arrival instant** on the pump's clock (the read instant only where the kernel gave no stamp) | the report frame if this arrival completed the collection |
//! | [`on_tick(now_ns)`](RxSession::on_tick) | [`POLL_TIMEOUT`] elapsed while [`is_collecting`](RxSession::is_collecting) | the report frame if a stop rule fired |
//! | [`on_rcvbuf_overflow()`](RxSession::on_rcvbuf_overflow) | the kernel dropped probe datagrams for want of buffer space | — (the collection's reads go back to every arrival) |
//!
//! Because the stamp is the kernel's, it does not depend on when the pump
//! reads: a pump may leave the socket unread for a while and lose nothing
//! of the one-way delays. [`RxSession::read_demand`] says what each
//! collection needs of the reads and [`plan_reads`] folds those into one
//! [`ReadPlan`] for the shared socket — read on readability, or drain by
//! an instant.
//!
//! The receiver, [`EventedReceiver`](crate::EventedReceiver) (one
//! event-loop thread, Linux only: epoll and kernel arrival stamps), is a
//! pump: it reads sockets on the plan, maps the kernel's stamps onto
//! `recv_ns`, looks the session up by token, calls in here and writes what
//! comes back. Its accept loop's [`AcceptBackoff`] is policy too, so it
//! lives here. `tests/rx_conformance.rs` hand-steps this module with
//! scripted inputs and replays the same scripts over the wire against the
//! pump.
//!
//! Decisions a pump might be tempted to take itself, taken here:
//!
//! * an announce while a collection is active is a protocol error;
//! * stop rules run on `on_tick` only, at the shared [`POLL_TIMEOUT`]
//!   cadence — a complete arrival set ends a collection in `on_probe`,
//!   everything else (deadline, silence window, a zero-count announce)
//!   ends it on the next tick;
//! * the drop warning is evaluated when a collection ends, not per drop.

// Datapath module: a panicking branch here takes the whole fleet down,
// so `unwrap`/`expect` are denied outright (errors must travel as values).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::proto::{
    CtrlMsg, ProbeKind, ProbePacket, SampleWire, DENY_AT_CAPACITY, MAX_ANNOUNCE_COUNT,
    PROTO_VERSION,
};
use std::fmt;
use std::io;
use std::time::Duration;
use telemetry::Counter;

/// The tick cadence: while a session is collecting, its pump calls
/// [`RxSession::on_tick`] this often, so silence windows and deadlines
/// are noticed at this granularity. (Also bounds how fast the pump
/// notices shutdown.)
pub const POLL_TIMEOUT: Duration = Duration::from_millis(50);

/// A stream whose nominal duration has passed is considered over after
/// this much silence (covers a lost or reordered final packet without
/// waiting out the full deadline).
const STREAM_SILENCE_NS: u64 = 200_000_000;

/// A back-to-back train is considered over after this much silence.
const TRAIN_SILENCE_NS: u64 = 50_000_000;

/// Arm-to-end budget of a stream on top of its nominal duration
/// (`count · period`): 2 s to start + 1 s grace.
const STREAM_DEADLINE_SLACK_NS: u64 = 2_000_000_000 + 1_000_000_000;

/// Arm-to-end budget of a train.
const TRAIN_DEADLINE_NS: u64 = 5_000_000_000;

/// A session whose collections have dropped at least this many datagrams
/// (duplicates, malformed indices) earns a [`DropWarning`] — silent loss of
/// this magnitude usually means a broken sender or a duplicating path.
const DROP_WARN_THRESHOLD: u64 = 32;

/// Minimum spacing between drop warnings across all sessions, so a flood
/// of duplicates cannot turn the log into its own flood.
const DROP_WARN_INTERVAL_NS: u64 = 5_000_000_000;

/// The longest [`plan_reads`] lets the probe socket go unread. Long
/// enough that one read collects tens of datagrams at the periods a
/// stream is paced at (40 at 100 µs; ~21 per read on two 40 Mb/s
/// loopback paths), short enough that a report is never held back by
/// more than this, and that the receive buffer at Linux's default
/// 208 KiB `rmem_max` holds it at ~50 MB/s of small probes.
pub const MAX_READ_GAP_NS: u64 = 4_000_000;

/// What a queued datagram costs the receive buffer on top of its
/// payload: the kernel charges each one's bookkeeping (`truesize`, ~850 B
/// for a 64 B loopback datagram on Linux 6.x) against the same budget.
pub const DATAGRAM_OVERHEAD_BYTES: u64 = 1024;

/// Route/drop accounting of one receiver. Dropping a datagram is often
/// *by design* here (stale tokens, duplicated datagrams, a full receive
/// buffer); these counters make the by-design drops visible instead of
/// silent. The handles count from [`Admission::new`] on and can be
/// attached to any [`telemetry::Registry`] via [`RecvCounters::register`].
#[derive(Clone, Debug, Default)]
pub struct RecvCounters {
    /// Datagrams a pump routed to a live session.
    pub routed: Counter,
    /// Datagrams carrying a token no live session owns (stale session,
    /// never issued, foreign).
    pub drop_unknown_token: Counter,
    /// Stream/train packets a collection discarded: duplicated datagram
    /// or out-of-range index.
    pub drop_dedup: Counter,
    /// Datagrams the kernel dropped on the probe socket because its
    /// receive buffer was full (`SO_RXQ_OVFL`; counted by the pump as
    /// the datagrams that did get in report it).
    pub drop_rcvbuf: Counter,
    /// Collections ended by the silence window instead of a complete
    /// arrival set (the missing tail is treated as lost).
    pub silence_stops: Counter,
    /// Control connections refused with `Deny` at the session cap.
    pub denied: Counter,
}

impl RecvCounters {
    /// Register every family under its canonical name.
    pub fn register(&self, reg: &telemetry::Registry) {
        reg.register_counter("receiver_demux_routed_total", &[], self.routed.clone());
        reg.register_counter(
            "receiver_demux_drops_total",
            &[("reason", "unknown_token")],
            self.drop_unknown_token.clone(),
        );
        reg.register_counter(
            "receiver_demux_drops_total",
            &[("reason", "dedup")],
            self.drop_dedup.clone(),
        );
        reg.register_counter(
            "receiver_demux_drops_total",
            &[("reason", "rcvbuf")],
            self.drop_rcvbuf.clone(),
        );
        reg.register_counter(
            "receiver_collect_silence_stops_total",
            &[],
            self.silence_stops.clone(),
        );
        reg.register_counter("receiver_sessions_denied_total", &[], self.denied.clone());
    }
}

/// The admission desk of one receiver: mints session tokens, enforces the
/// session cap, hands every admitted [`RxSession`] the receiver's
/// counters, and rate-limits drop warnings across sessions. The pump owns
/// it.
#[derive(Debug)]
pub struct Admission {
    udp_port: u16,
    next_token: u64,
    /// Concurrent-session cap; 0 = unlimited.
    max_sessions: usize,
    counters: RecvCounters,
    /// `now_ns` of the last drop warning (rate limiting).
    last_drop_warn_ns: u64,
}

impl Admission {
    /// A desk advertising `udp_port` (the receiver's shared probe port) in
    /// every `Hello`. Tokens count up from `token_base`, which the pump
    /// draws at random (a simulator would seed it): an off-path attacker
    /// who cannot observe the control channel cannot guess a live token
    /// to spoof probe datagrams into a session's collection, and a
    /// restarted receiver essentially never re-issues a pre-restart token.
    pub fn new(udp_port: u16, token_base: u64) -> Admission {
        Admission {
            udp_port,
            next_token: token_base,
            max_sessions: 0,
            counters: RecvCounters::default(),
            last_drop_warn_ns: 0,
        }
    }

    /// Cap concurrent sessions at `max` (`0` = unlimited, the default).
    pub fn set_max_sessions(&mut self, max: usize) {
        self.max_sessions = max;
    }

    /// The receiver's counters.
    pub fn counters(&self) -> &RecvCounters {
        &self.counters
    }

    /// Decide one accepted control connection, given how many sessions are
    /// `live` right now. `Ok`: the new session and the `Hello` to send it.
    /// `Err`: the versioned `Deny` to send instead before closing.
    pub fn admit(&mut self, live: usize) -> Result<(RxSession, CtrlMsg), CtrlMsg> {
        if self.max_sessions != 0 && live >= self.max_sessions {
            self.counters.denied.inc();
            return Err(CtrlMsg::Deny {
                version: PROTO_VERSION,
                code: DENY_AT_CAPACITY,
            });
        }
        let token = self.next_token;
        self.next_token = token.wrapping_add(1);
        let hello = CtrlMsg::Hello {
            version: PROTO_VERSION,
            udp_port: self.udp_port,
            session: token,
        };
        let session = RxSession {
            token,
            collect: None,
            drops: 0,
            drop_check_ns: None,
            counters: self.counters.clone(),
        };
        Ok((session, hello))
    }

    /// The drop warning `session` earned when its last collection ended,
    /// if any: its running drop tally had reached 32 then, and no session
    /// was warned about in the 5 s before. The threshold keeps the
    /// occasional duplicated datagram quiet; the interval keeps a duplicate
    /// *flood* from flooding the log too. A pump asks after every report
    /// and prints what comes back.
    pub fn drop_warning(&mut self, session: &mut RxSession) -> Option<DropWarning> {
        let now_ns = session.drop_check_ns.take()?;
        if now_ns.saturating_sub(self.last_drop_warn_ns) < DROP_WARN_INTERVAL_NS {
            return None;
        }
        self.last_drop_warn_ns = now_ns;
        Some(DropWarning {
            token: session.token,
            session_drops: session.drops,
            total_drops: self.counters.drop_dedup.get(),
        })
    }
}

/// A session's collections discarded a suspicious number of datagrams
/// ([`Admission::drop_warning`]). Its `Display` is the log line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DropWarning {
    /// The offending session.
    pub token: u64,
    /// Datagrams its collections discarded so far.
    pub session_drops: u64,
    /// Datagrams every session's collections discarded so far.
    pub total_drops: u64,
}

impl fmt::Display for DropWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "receiver: session {:#018x} dropped {} duplicate/malformed probe datagrams \
             ({} across all sessions)",
            self.token, self.session_drops, self.total_drops
        )
    }
}

/// What the pump does after a control frame.
#[derive(Clone, Debug, PartialEq)]
pub enum CtrlAction {
    /// Send this frame (`Ready` or `Echo`).
    Reply(CtrlMsg),
    /// The peer said `Bye`: flush what is queued and close, cleanly.
    Close,
}

/// What distinguishes a stream collection from a train collection.
#[derive(Debug)]
enum Kind {
    Stream {
        period_ns: u64,
        /// Announced datagram size (read planning's buffer bound).
        size: u32,
        samples: Vec<SampleWire>,
        /// First matching arrival (duplicates included): the nominal
        /// duration is measured from here.
        first_arrival: Option<u64>,
        /// When the last packet is due: extrapolated from the first
        /// arrival by its index at the announced period; until then the
        /// earliest it could be, from the announce.
        due_ns: u64,
    },
    Train {
        received: u32,
        first_ns: u64,
        last_ns: u64,
    },
}

/// An armed collection.
#[derive(Debug)]
struct Collection {
    id: u32,
    count: u32,
    /// Indices already counted (duplicates are counted once, first
    /// arrival wins).
    seen: Vec<bool>,
    /// Hard stop, whatever has or has not arrived.
    deadline: u64,
    last_activity: u64,
    /// The kernel dropped probe datagrams while this collection ran.
    overflowed: bool,
    kind: Kind,
}

/// One control connection's receive state machine. See the module docs.
#[derive(Debug)]
pub struct RxSession {
    token: u64,
    /// `None` between collections: routed arrivals are discarded.
    collect: Option<Collection>,
    /// Drop tally across the session's collections (the shared counter
    /// aggregates every session; this one names the offender).
    drops: u64,
    /// When the last collection ended, if the tally had reached
    /// [`DROP_WARN_THRESHOLD`] by then: [`Admission::drop_warning`] owes
    /// the pump its verdict.
    drop_check_ns: Option<u64>,
    counters: RecvCounters,
}

impl RxSession {
    /// The session token minted at admission.
    pub fn token(&self) -> u64 {
        self.token
    }

    /// True between `Ready` and the report: the pump owes the session an
    /// [`on_tick`](Self::on_tick) every [`POLL_TIMEOUT`].
    pub fn is_collecting(&self) -> bool {
        self.collect.is_some()
    }

    /// What this session's collection needs of the probe socket's reads
    /// (`None` between collections), for [`plan_reads`]. A stream can wait
    /// for its last packet: due `count − 1 − idx` periods after the first
    /// arrival (packet `idx`), and before that no earlier than
    /// `count − 1` periods after the announce — a sender that starts late
    /// finds the stream overdue, read on arrival, until its first packet
    /// moves the due instant. A train (a few hundred µs back to back) and
    /// a collection that lost datagrams to a full receive buffer want
    /// every arrival read as it lands.
    pub fn read_demand(&self) -> Option<ReadDemand> {
        let c = self.collect.as_ref()?;
        Some(match c.kind {
            Kind::Stream {
                due_ns,
                size,
                period_ns,
                ..
            } if !c.overflowed => ReadDemand::Stream {
                due_ns,
                size,
                period_ns,
            },
            _ => ReadDemand::Now,
        })
    }

    /// The kernel dropped probe datagrams for want of receive buffer
    /// while this session was collecting: whatever the plan assumed about
    /// the buffer did not hold, so the rest of this collection is read on
    /// every arrival. (The datagrams themselves are lost; the pump counts
    /// them in [`RecvCounters::drop_rcvbuf`].)
    pub fn on_rcvbuf_overflow(&mut self) {
        if let Some(c) = self.collect.as_mut() {
            c.overflowed = true;
        }
    }

    /// One control frame from the sender at `now_ns`.
    pub fn on_ctrl(&mut self, msg: CtrlMsg, now_ns: u64) -> io::Result<CtrlAction> {
        // `Some((period, size))`: a stream; `None`: a train.
        let (id, count, stream) = match msg {
            CtrlMsg::StreamAnnounce {
                id,
                count,
                period_ns,
                size,
            } => (id, count, Some((period_ns, size))),
            CtrlMsg::TrainAnnounce { id, count, size: _ } => (id, count, None),
            CtrlMsg::Echo { token } => return Ok(CtrlAction::Reply(CtrlMsg::Echo { token })),
            CtrlMsg::Bye => return Ok(CtrlAction::Close),
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected control message {other:?}"),
                ))
            }
        };
        check_count(count)?;
        if self.collect.is_some() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "announce while a collection is active",
            ));
        }
        let (kind, budget) = match stream {
            Some((period_ns, size)) => (
                Kind::Stream {
                    period_ns,
                    size,
                    samples: Vec::with_capacity(count as usize),
                    first_arrival: None,
                    due_ns: last_due(now_ns, count, 0, period_ns),
                },
                (count as u64)
                    .saturating_mul(period_ns)
                    .saturating_add(STREAM_DEADLINE_SLACK_NS),
            ),
            None => (
                Kind::Train {
                    received: 0,
                    first_ns: 0,
                    last_ns: 0,
                },
                TRAIN_DEADLINE_NS,
            ),
        };
        self.collect = Some(Collection {
            id,
            count,
            seen: vec![false; count as usize],
            deadline: now_ns.saturating_add(budget),
            last_activity: now_ns,
            overflowed: false,
            kind,
        });
        Ok(CtrlAction::Reply(CtrlMsg::Ready { id }))
    }

    /// One probe packet carrying this session's token, stamped `recv_ns`
    /// with its arrival instant. Returns the report if it completed the
    /// collection.
    pub fn on_probe(&mut self, packet: &ProbePacket, recv_ns: u64) -> Option<CtrlMsg> {
        // Between collections: a late packet of a finished stream.
        let c = self.collect.as_mut()?;
        let wanted = match c.kind {
            Kind::Stream { .. } => ProbeKind::Stream,
            Kind::Train { .. } => ProbeKind::Train,
        };
        if packet.kind != wanted || packet.id != c.id {
            return None; // leftover of an earlier train/stream
        }
        c.last_activity = recv_ns;
        if let Kind::Stream {
            first_arrival: first_arrival @ None,
            due_ns,
            period_ns,
            ..
        } = &mut c.kind
        {
            *first_arrival = Some(recv_ns);
            *due_ns = last_due(recv_ns, c.count, packet.idx, *period_ns);
        }
        match c.seen.get_mut(packet.idx as usize) {
            // In range and fresh: mark and record below.
            Some(mark @ false) => *mark = true,
            // Malformed index or duplicated datagram.
            _ => {
                self.drops += 1;
                self.counters.drop_dedup.inc();
                return None;
            }
        }
        let collected = match &mut c.kind {
            Kind::Stream { samples, .. } => {
                samples.push(SampleWire {
                    idx: packet.idx,
                    send_ns: packet.send_ns,
                    recv_ns,
                });
                samples.len() as u32
            }
            Kind::Train {
                received,
                first_ns,
                last_ns,
            } => {
                if *received == 0 {
                    *first_ns = recv_ns;
                }
                *last_ns = (*last_ns).max(recv_ns);
                *received += 1;
                *received
            }
        };
        if collected >= c.count {
            return self.finish(recv_ns);
        }
        None
    }

    /// [`POLL_TIMEOUT`] passed while collecting: evaluate the stop rules.
    /// Returns the report if one fired. A stream stops once its nominal
    /// duration (measured from the first arrival) has passed and a
    /// silence window elapsed with nothing new — which covers a lost or
    /// reordered final packet without stalling to the deadline; a train
    /// stops on a silence window after its first packet; both stop at
    /// their hard deadline, and an announce for zero packets is complete
    /// at its first tick.
    pub fn on_tick(&mut self, now_ns: u64) -> Option<CtrlMsg> {
        let c = self.collect.as_ref()?;
        let silent_for = now_ns.saturating_sub(c.last_activity);
        let silence = match &c.kind {
            Kind::Stream {
                period_ns,
                first_arrival,
                ..
            } => first_arrival.is_some_and(|first| {
                let nominal_end = first.saturating_add((c.count as u64).saturating_mul(*period_ns));
                now_ns >= nominal_end && silent_for >= STREAM_SILENCE_NS
            }),
            Kind::Train { received, .. } => *received > 0 && silent_for >= TRAIN_SILENCE_NS,
        };
        if c.count == 0 || now_ns >= c.deadline {
            return self.finish(now_ns);
        }
        if silence {
            // Over; the missing tail is lost.
            self.counters.silence_stops.inc();
            return self.finish(now_ns);
        }
        None
    }

    /// End the active collection: build its report, return to idle.
    fn finish(&mut self, now_ns: u64) -> Option<CtrlMsg> {
        let c = self.collect.take()?;
        if self.drops >= DROP_WARN_THRESHOLD {
            self.drop_check_ns = Some(now_ns);
        }
        Some(match c.kind {
            Kind::Stream { samples, .. } => CtrlMsg::StreamReport { id: c.id, samples },
            Kind::Train {
                received,
                first_ns,
                last_ns,
            } => CtrlMsg::TrainReport {
                id: c.id,
                received,
                first_ns,
                last_ns,
            },
        })
    }
}

/// What one collection needs of the shared probe socket's reads
/// ([`RxSession::read_demand`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadDemand {
    /// Read every datagram as it lands.
    Now,
    /// A stream whose last packet is due at `due_ns`, paced at one
    /// `size`-byte datagram every `period_ns`.
    Stream {
        /// When the last packet is due.
        due_ns: u64,
        /// Announced datagram size in bytes.
        size: u32,
        /// Announced packet period.
        period_ns: u64,
    },
}

/// When a pump owes the shared probe socket a read ([`plan_reads`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadPlan {
    /// Read whenever the socket is readable: every arrival wakes the pump.
    OnReadable,
    /// Leave the socket unread until this instant, then drain it and plan
    /// again.
    At(u64),
}

/// One plan for the shared probe socket, from what every collecting
/// session needs of it (`demands`, one per collecting session), the
/// instant `now_ns`, and the effective receive buffer `rcvbuf_bytes`
/// (the kernel's read-back, 0 when unknown).
///
/// [`ReadPlan::OnReadable`] when nothing is collecting (stray datagrams
/// are counted promptly), when any session wants every arrival
/// ([`ReadDemand::Now`]), when a stream's last packet is due by `now_ns`
/// (it is overdue: the report leaves as that packet lands), or when the
/// buffer is unknown. Otherwise [`ReadPlan::At`] the earliest due instant,
/// but no later than it takes the collecting streams to half-fill the
/// buffer at their announced rates — each datagram costing its size plus
/// [`DATAGRAM_OVERHEAD_BYTES`] — and never later than [`MAX_READ_GAP_NS`]
/// from now.
///
/// A pump whose timers wake late by some error should pass `now_ns` that
/// much ahead and arm its drain that much early: the drain at a due
/// instant then finds the stream due and hands over to readability before
/// the last packet lands, instead of holding it until a late wake-up.
pub fn plan_reads(
    demands: impl IntoIterator<Item = ReadDemand>,
    now_ns: u64,
    rcvbuf_bytes: u64,
) -> ReadPlan {
    let mut earliest_due: Option<u64> = None;
    let mut bytes_per_s = 0u64;
    for demand in demands {
        let ReadDemand::Stream {
            due_ns,
            size,
            period_ns,
        } = demand
        else {
            return ReadPlan::OnReadable;
        };
        if due_ns <= now_ns {
            return ReadPlan::OnReadable;
        }
        earliest_due = Some(earliest_due.map_or(due_ns, |e| e.min(due_ns)));
        let per_datagram = u64::from(size).saturating_add(DATAGRAM_OVERHEAD_BYTES);
        bytes_per_s = bytes_per_s
            .saturating_add(per_datagram.saturating_mul(1_000_000_000) / period_ns.max(1));
    }
    let Some(due) = earliest_due else {
        return ReadPlan::OnReadable;
    };
    let half_fill_ns = (rcvbuf_bytes / 2).saturating_mul(1_000_000_000) / bytes_per_s.max(1);
    match half_fill_ns.min(MAX_READ_GAP_NS) {
        0 => ReadPlan::OnReadable,
        gap => ReadPlan::At(due.min(now_ns.saturating_add(gap))),
    }
}

/// When the last of `count` packets paced `period_ns` apart is due, if
/// packet `idx` arrived at `at_ns` (an out-of-range index: due at once).
fn last_due(at_ns: u64, count: u32, idx: u32, period_ns: u64) -> u64 {
    let left = count.saturating_sub(1).saturating_sub(idx);
    at_ns.saturating_add(u64::from(left).saturating_mul(period_ns))
}

/// Bound per-session collection memory: refuse an announce whose `count`
/// would make the receiver allocate absurd per-stream state (see
/// [`MAX_ANNOUNCE_COUNT`]).
fn check_count(count: u32) -> io::Result<()> {
    if count > MAX_ANNOUNCE_COUNT {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("announced count {count} exceeds the {MAX_ANNOUNCE_COUNT} cap"),
        ));
    }
    Ok(())
}

/// Bounded exponential backoff for a failing `accept` loop: starts small
/// (a transient error costs almost nothing), doubles per consecutive
/// error, and caps so a persistent failure (EMFILE & co.) retries at a
/// gentle steady rate instead of spinning.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AcceptBackoff {
    delay: Duration,
}

impl AcceptBackoff {
    /// Delay after the first error.
    pub const INITIAL: Duration = Duration::from_millis(10);
    /// Ceiling for consecutive errors.
    pub const MAX: Duration = Duration::from_secs(1);

    /// A fresh policy (next error waits [`AcceptBackoff::INITIAL`]).
    pub fn new() -> AcceptBackoff {
        AcceptBackoff {
            delay: Self::INITIAL,
        }
    }

    /// An accept succeeded: reset to the initial delay.
    pub fn on_success(&mut self) {
        self.delay = Self::INITIAL;
    }

    /// An accept failed: how long to pause before retrying. Consecutive
    /// errors double the delay up to [`AcceptBackoff::MAX`].
    pub fn on_error(&mut self) -> Duration {
        let delay = self.delay;
        self.delay = delay.saturating_mul(2).min(Self::MAX);
        delay
    }
}

impl Default for AcceptBackoff {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    /// One 2-packet train collection that sees idx 0 and then `dups`
    /// duplicates of it, and ends on the silence stop at `end_ns`.
    fn collection_with_drops(session: &mut RxSession, id: u32, dups: u64, end_ns: u64) {
        let announce = CtrlMsg::TrainAnnounce {
            id,
            count: 2,
            size: 64,
        };
        session
            .on_ctrl(announce, end_ns - TRAIN_SILENCE_NS)
            .unwrap();
        let packet = ProbePacket {
            session: session.token(),
            kind: ProbeKind::Train,
            id,
            idx: 0,
            send_ns: 0,
        };
        for _ in 0..=dups {
            assert_eq!(session.on_probe(&packet, end_ns - TRAIN_SILENCE_NS), None);
        }
        assert!(session.on_tick(end_ns).is_some(), "silence stop at end_ns");
    }

    /// The drop warning is evaluated when a collection ends, against the
    /// session's running tally, and is rate-limited across sessions.
    #[test]
    fn drop_warning_fires_at_collection_end_and_is_rate_limited() {
        let mut desk = Admission::new(1, 0);
        let (mut a, _) = desk.admit(0).unwrap();
        let (mut b, _) = desk.admit(1).unwrap();
        let sec = 1_000_000_000;
        let warning = |session: &RxSession, session_drops, total_drops| DropWarning {
            token: session.token(),
            session_drops,
            total_drops,
        };

        // Below the threshold: quiet.
        collection_with_drops(&mut a, 1, DROP_WARN_THRESHOLD - 1, 10 * sec);
        assert_eq!(desk.drop_warning(&mut a), None);
        // The tally is per session and cumulative: one more drop tips it.
        collection_with_drops(&mut a, 2, 1, 11 * sec);
        let tipped = warning(&a, DROP_WARN_THRESHOLD, DROP_WARN_THRESHOLD);
        assert_eq!(desk.drop_warning(&mut a), Some(tipped));
        assert_eq!(desk.drop_warning(&mut a), None, "asked once per collection");
        // Another offender inside the interval stays quiet...
        collection_with_drops(&mut b, 1, DROP_WARN_THRESHOLD, 12 * sec);
        assert_eq!(desk.drop_warning(&mut b), None);
        // ...and is named once the interval has passed.
        collection_with_drops(&mut b, 2, 0, 11 * sec + DROP_WARN_INTERVAL_NS);
        let named = warning(&b, DROP_WARN_THRESHOLD, 2 * DROP_WARN_THRESHOLD);
        assert_eq!(desk.drop_warning(&mut b), Some(named.clone()));
        assert_eq!(desk.counters().drop_dedup.get(), 2 * DROP_WARN_THRESHOLD);
        assert_eq!(
            named.to_string(),
            format!(
                "receiver: session {:#018x} dropped 32 duplicate/malformed probe \
                 datagrams (64 across all sessions)",
                b.token()
            )
        );
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut b = AcceptBackoff::new();
        let mut prev = Duration::ZERO;
        for _ in 0..20 {
            let d = b.on_error();
            assert!(d >= prev, "backoff shrank: {prev:?} -> {d:?}");
            assert!(d <= AcceptBackoff::MAX, "backoff above cap: {d:?}");
            prev = d;
        }
        assert_eq!(prev, AcceptBackoff::MAX, "persistent errors must cap");
        // The whole first minute of a persistent failure costs few retries.
        let mut b = AcceptBackoff::new();
        assert_eq!(b.on_error(), AcceptBackoff::INITIAL);
        assert_eq!(b.on_error(), AcceptBackoff::INITIAL * 2);
        assert_eq!(b.on_error(), AcceptBackoff::INITIAL * 4);
    }

    #[test]
    fn backoff_resets_on_success() {
        let mut b = AcceptBackoff::new();
        for _ in 0..10 {
            b.on_error();
        }
        b.on_success();
        assert_eq!(b.on_error(), AcceptBackoff::INITIAL);
    }

    /// Tokens count up from the base the pump passes in.
    #[test]
    fn tokens_count_up_from_the_given_base() {
        let mut desk = Admission::new(1, 41);
        assert_eq!(desk.admit(0).unwrap().0.token(), 41);
        assert_eq!(desk.admit(1).unwrap().0.token(), 42);
    }

    const MS: u64 = 1_000_000;
    /// A buffer large enough that only the due instant and the read gap
    /// bound a plan.
    const BIG: u64 = 8 << 20;

    fn stream(due_ns: u64) -> ReadDemand {
        ReadDemand::Stream {
            due_ns,
            size: 976,
            period_ns: 100_000,
        }
    }

    fn probe(session: &RxSession, kind: ProbeKind, id: u32, idx: u32) -> ProbePacket {
        ProbePacket {
            session: session.token(),
            kind,
            id,
            idx,
            send_ns: 0,
        }
    }

    /// A stream's last packet is due `count − 1 − idx` periods after the
    /// first arrival, and before that no earlier than `count − 1` periods
    /// after the announce. A train wants every arrival read as it lands.
    #[test]
    fn a_collection_says_what_it_needs_of_the_reads() {
        let mut desk = Admission::new(1, 0);
        let (mut s, _) = desk.admit(0).unwrap();
        assert_eq!(s.read_demand(), None, "idle");
        let announce = CtrlMsg::StreamAnnounce {
            id: 1,
            count: 100,
            period_ns: 100_000,
            size: 976,
        };
        s.on_ctrl(announce.clone(), MS).unwrap();
        assert_eq!(
            s.read_demand(),
            Some(stream(MS + 99 * 100_000)),
            "not started"
        );
        s.on_probe(&probe(&s, ProbeKind::Stream, 1, 0), 5 * MS);
        assert_eq!(s.read_demand(), Some(stream(5 * MS + 99 * 100_000)));
        // Later arrivals do not move the due instant.
        s.on_probe(&probe(&s, ProbeKind::Stream, 1, 1), 9 * MS);
        assert_eq!(s.read_demand(), Some(stream(5 * MS + 99 * 100_000)));

        // A lost first packet: extrapolated from the index that came.
        let (mut late, _) = desk.admit(1).unwrap();
        late.on_ctrl(announce, 0).unwrap();
        late.on_probe(&probe(&late, ProbeKind::Stream, 1, 2), 5 * MS);
        assert_eq!(late.read_demand(), Some(stream(5 * MS + 97 * 100_000)));

        let (mut train, _) = desk.admit(2).unwrap();
        let announce = CtrlMsg::TrainAnnounce {
            id: 1,
            count: 50,
            size: 1500,
        };
        train.on_ctrl(announce, 0).unwrap();
        train.on_probe(&probe(&train, ProbeKind::Train, 1, 0), MS);
        assert_eq!(train.read_demand(), Some(ReadDemand::Now), "a train");
    }

    /// An overflow sends the rest of the collection back to every
    /// arrival; the next collection plans afresh.
    #[test]
    fn an_overflow_reads_the_rest_of_the_collection_on_arrival() {
        let mut desk = Admission::new(1, 0);
        let (mut s, _) = desk.admit(0).unwrap();
        s.on_rcvbuf_overflow(); // idle: nothing to mark
        let announce = |id| CtrlMsg::StreamAnnounce {
            id,
            count: 2,
            period_ns: MS,
            size: 64,
        };
        s.on_ctrl(announce(1), 0).unwrap();
        s.on_probe(&probe(&s, ProbeKind::Stream, 1, 0), MS);
        assert!(matches!(s.read_demand(), Some(ReadDemand::Stream { .. })));
        s.on_rcvbuf_overflow();
        assert_eq!(s.read_demand(), Some(ReadDemand::Now));
        assert!(s
            .on_probe(&probe(&s, ProbeKind::Stream, 1, 1), 2 * MS)
            .is_some());
        s.on_ctrl(announce(2), 3 * MS).unwrap();
        s.on_probe(&probe(&s, ProbeKind::Stream, 2, 0), 4 * MS);
        assert!(matches!(s.read_demand(), Some(ReadDemand::Stream { .. })));
    }

    #[test]
    fn nothing_collecting_a_train_or_an_unknown_buffer_reads_on_arrival() {
        assert_eq!(plan_reads([], 0, BIG), ReadPlan::OnReadable);
        assert_eq!(
            plan_reads([stream(10 * MS), ReadDemand::Now], 0, BIG),
            ReadPlan::OnReadable
        );
        assert_eq!(plan_reads([stream(10 * MS)], 0, 0), ReadPlan::OnReadable);
    }

    /// Due by now: the last packet is overdue, so the report leaves as it
    /// lands. Until then, the earliest due instant or the read gap.
    #[test]
    fn an_overdue_last_packet_hands_over_to_readability() {
        assert_eq!(
            plan_reads([stream(10 * MS)], 10 * MS, BIG),
            ReadPlan::OnReadable
        );
        assert_eq!(
            plan_reads([stream(10 * MS)], 11 * MS, BIG),
            ReadPlan::OnReadable
        );
        assert_eq!(
            plan_reads([stream(10 * MS)], 9 * MS, BIG),
            ReadPlan::At(10 * MS)
        );
        assert_eq!(
            plan_reads([stream(100 * MS)], 9 * MS, BIG),
            ReadPlan::At(9 * MS + MAX_READ_GAP_NS)
        );
    }

    /// The socket is drained before the collecting streams half-fill the
    /// buffer at their announced rates, each datagram costing its size
    /// plus the kernel's overhead.
    #[test]
    fn reads_come_before_the_buffer_half_fills() {
        // (976 + 1024) B per 100 µs = 20 MB/s; 32 KiB is 1.6384 ms of it.
        let rcvbuf = 64 << 10;
        assert_eq!(
            plan_reads([stream(100 * MS)], 0, rcvbuf),
            ReadPlan::At(1_638_400)
        );
        // Half a byte of buffer is no time at all: read on arrival.
        assert_eq!(plan_reads([stream(100 * MS)], 0, 1), ReadPlan::OnReadable);
    }

    /// Several streams: their rates add up against the one buffer, and the
    /// earliest due instant wins.
    #[test]
    fn several_sessions_share_one_plan() {
        let rcvbuf = 64 << 10;
        assert_eq!(
            plan_reads([stream(100 * MS), stream(90 * MS)], 0, rcvbuf),
            ReadPlan::At(819_200)
        );
        assert_eq!(
            plan_reads([stream(3 * MS), stream(2 * MS), stream(50 * MS)], MS, BIG),
            ReadPlan::At(2 * MS)
        );
        assert_eq!(
            plan_reads([stream(3 * MS), stream(MS)], MS, BIG),
            ReadPlan::OnReadable,
            "one overdue stream is enough"
        );
    }
}

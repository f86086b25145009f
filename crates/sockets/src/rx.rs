//! The receiver's protocol core — sans-IO.
//!
//! Everything a `pathload_rcv` endpoint *decides* lives here, once: who
//! is admitted ([`Admission`]: token mint from a random base, the session
//! cap and its versioned `Deny`), what an announce arms, which probe
//! packets count (kind/id match, de-duplication on index), when a
//! collection is over (complete, silence window, hard deadline), what the
//! report says, and when a suspicious drop total earns a warning. An
//! [`RxSession`] is one control connection's state machine; it never
//! touches a socket, a thread or a clock. Inputs carry their own time:
//!
//! | input | meaning | output |
//! |---|---|---|
//! | [`on_ctrl(msg, now_ns)`](RxSession::on_ctrl) | one decoded control frame | [`CtrlAction::Reply`] (`Ready`, `Echo`) or [`CtrlAction::Close`] (`Bye`); `Err` = protocol error, close the session |
//! | [`on_probe(&packet, recv_ns)`](RxSession::on_probe) | one probe datagram routed to this session, stamped **at the socket read** | the report frame if this arrival completed the collection |
//! | [`on_tick(now_ns)`](RxSession::on_tick) | [`POLL_TIMEOUT`] elapsed while [`is_collecting`](RxSession::is_collecting) | the report frame if a stop rule fired |
//!
//! The two receiver shapes — [`Receiver`](crate::Receiver) (a demux
//! thread plus a thread per session; the only shape that runs off Linux)
//! and [`EventedReceiver`](crate::EventedReceiver) (one event-loop
//! thread) — are pumps: they read sockets, stamp `recv_ns`, look the
//! session up by token, call in here and write what comes back.
//! `tests/rx_conformance.rs` hand-steps this module with scripted inputs
//! and replays the same scripts over the wire against both pumps.
//!
//! Decisions taken once, here, where the two shapes used to differ:
//!
//! * an announce while a collection is active is a protocol error (a
//!   pump that does not read the control channel while collecting cannot
//!   observe one);
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
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::io;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use telemetry::Counter;

/// The tick cadence: while a session is collecting, its pump calls
/// [`RxSession::on_tick`] this often, so both shapes notice silence
/// windows and deadlines at the same granularity. (Also bounds how fast
/// the pumps notice shutdown.)
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
/// (duplicates, malformed indices) earns a stderr warning — silent loss of
/// this magnitude usually means a broken sender or a duplicating path.
const DROP_WARN_THRESHOLD: u64 = 32;

/// Minimum spacing between drop warnings across all sessions, so a flood
/// of duplicates cannot turn the log into its own flood.
const DROP_WARN_INTERVAL_NS: u64 = 5_000_000_000;

/// Route/drop accounting of one receiver. Dropping a datagram is often
/// *by design* here (stale tokens, duplicated datagrams, bounded collector
/// channels); these counters make the by-design drops visible instead of
/// silent. The handles count from [`Admission::new`] on and can be
/// attached to any [`telemetry::Registry`] via [`RecvCounters::register`];
/// both receiver shapes register through here, so their metric families
/// can never drift apart.
#[derive(Clone, Debug, Default)]
pub struct RecvCounters {
    /// Datagrams a pump routed to a live session.
    pub routed: Counter,
    /// Datagrams carrying a token no live session owns (stale session,
    /// never issued, foreign).
    pub drop_unknown_token: Counter,
    /// Datagrams dropped because the owning session's collector channel
    /// was full (threaded pump only: flood protection; reads as loss).
    pub drop_collector_full: Counter,
    /// Stream/train packets a collection discarded: duplicated datagram
    /// or out-of-range index.
    pub drop_dedup: Counter,
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
            &[("reason", "collector_full")],
            self.drop_collector_full.clone(),
        );
        reg.register_counter(
            "receiver_demux_drops_total",
            &[("reason", "dedup")],
            self.drop_dedup.clone(),
        );
        reg.register_counter(
            "receiver_collect_silence_stops_total",
            &[],
            self.silence_stops.clone(),
        );
        reg.register_counter("receiver_sessions_denied_total", &[], self.denied.clone());
    }
}

/// What every session of one receiver shares.
#[derive(Debug)]
struct Shared {
    udp_port: u16,
    next_token: AtomicU64,
    /// Concurrent-session cap; 0 = unlimited.
    max_sessions: AtomicUsize,
    counters: RecvCounters,
    /// `now_ns` of the last drop warning (rate limiting).
    last_drop_warn_ns: AtomicU64,
}

impl Shared {
    /// Warn (rate-limited) once a session's collections have discarded a
    /// suspicious number of datagrams. The threshold keeps the occasional
    /// duplicated datagram quiet; the interval keeps a duplicate *flood*
    /// from flooding stderr too.
    fn maybe_warn_drops(&self, token: u64, session_drops: u64, now_ns: u64) {
        if session_drops < DROP_WARN_THRESHOLD {
            return;
        }
        let last = self.last_drop_warn_ns.load(Ordering::Relaxed);
        if now_ns.saturating_sub(last) < DROP_WARN_INTERVAL_NS {
            return;
        }
        // Relaxed: the value only rate-limits a log line. The exchange
        // lets exactly one of several racing session threads print.
        if self
            .last_drop_warn_ns
            .compare_exchange(last, now_ns, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            eprintln!(
                "receiver: session {token:#018x} dropped {session_drops} \
                 duplicate/malformed probe datagrams ({} across all sessions)",
                self.counters.drop_dedup.get()
            );
        }
    }
}

/// The admission desk of one receiver: mints session tokens, enforces the
/// session cap, and owns the state every admitted [`RxSession`] shares
/// (counters, the drop-warning limiter). Cheap to clone; all clones are
/// one desk.
#[derive(Clone, Debug)]
pub struct Admission(Arc<Shared>);

impl Admission {
    /// A desk advertising `udp_port` (the receiver's shared probe port) in
    /// every `Hello`. Tokens count up from a random 64-bit base (std's
    /// OS-seeded hasher entropy): an off-path attacker who cannot observe
    /// the control channel cannot guess a live token to spoof probe
    /// datagrams into a session's collection, and a restarted receiver
    /// essentially never re-issues a pre-restart token.
    pub fn new(udp_port: u16) -> Admission {
        Admission(Arc::new(Shared {
            udp_port,
            next_token: AtomicU64::new(RandomState::new().build_hasher().finish()),
            max_sessions: AtomicUsize::new(0),
            counters: RecvCounters::default(),
            last_drop_warn_ns: AtomicU64::new(0),
        }))
    }

    /// Cap concurrent sessions at `max` (`0` = unlimited, the default).
    pub fn set_max_sessions(&self, max: usize) {
        self.0.max_sessions.store(max, Ordering::SeqCst);
    }

    /// The receiver's counters.
    pub fn counters(&self) -> &RecvCounters {
        &self.0.counters
    }

    /// Decide one accepted control connection, given how many sessions are
    /// `live` right now (the pump counts them under whatever lock guards
    /// its session table, so racing accepts cannot both take the last
    /// slot). `Ok`: the new session and the `Hello` to send it. `Err`:
    /// the versioned `Deny` to send instead before closing.
    pub fn admit(&self, live: usize) -> Result<(RxSession, CtrlMsg), CtrlMsg> {
        let max = self.0.max_sessions.load(Ordering::SeqCst);
        if max != 0 && live >= max {
            self.0.counters.denied.inc();
            return Err(CtrlMsg::Deny {
                version: PROTO_VERSION,
                code: DENY_AT_CAPACITY,
            });
        }
        // Relaxed: uniqueness is all that is asked of the counter.
        let token = self.0.next_token.fetch_add(1, Ordering::Relaxed);
        let hello = CtrlMsg::Hello {
            version: PROTO_VERSION,
            udp_port: self.0.udp_port,
            session: token,
        };
        let session = RxSession {
            token,
            collect: None,
            drops: 0,
            shared: Arc::clone(&self.0),
        };
        Ok((session, hello))
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
        samples: Vec<SampleWire>,
        /// First matching arrival (duplicates included): the nominal
        /// duration is measured from here.
        first_arrival: Option<u64>,
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
    shared: Arc<Shared>,
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

    /// One control frame from the sender at `now_ns`.
    pub fn on_ctrl(&mut self, msg: CtrlMsg, now_ns: u64) -> io::Result<CtrlAction> {
        // `Some(period)`: a stream; `None`: a train.
        let (id, count, period_ns) = match msg {
            CtrlMsg::StreamAnnounce {
                id,
                count,
                period_ns,
                size: _,
            } => (id, count, Some(period_ns)),
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
        let (kind, budget) = match period_ns {
            Some(period_ns) => (
                Kind::Stream {
                    period_ns,
                    samples: Vec::with_capacity(count as usize),
                    first_arrival: None,
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
            kind,
        });
        Ok(CtrlAction::Reply(CtrlMsg::Ready { id }))
    }

    /// One probe packet carrying this session's token, stamped `recv_ns`
    /// at the socket read. Returns the report if it completed the
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
        if let Kind::Stream { first_arrival, .. } = &mut c.kind {
            first_arrival.get_or_insert(recv_ns);
        }
        match c.seen.get_mut(packet.idx as usize) {
            // In range and fresh: mark and record below.
            Some(mark @ false) => *mark = true,
            // Malformed index or duplicated datagram.
            _ => {
                self.drops += 1;
                self.shared.counters.drop_dedup.inc();
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
            self.shared.counters.silence_stops.inc();
            return self.finish(now_ns);
        }
        None
    }

    /// End the active collection: build its report, return to idle.
    fn finish(&mut self, now_ns: u64) -> Option<CtrlMsg> {
        let c = self.collect.take()?;
        self.shared.maybe_warn_drops(self.token, self.drops, now_ns);
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
        let desk = Admission::new(1);
        let (mut a, _) = desk.admit(0).unwrap();
        let (mut b, _) = desk.admit(1).unwrap();
        let warned_at = || desk.0.last_drop_warn_ns.load(Ordering::Relaxed);
        let sec = 1_000_000_000;

        // Below the threshold: quiet.
        collection_with_drops(&mut a, 1, DROP_WARN_THRESHOLD - 1, 10 * sec);
        assert_eq!(warned_at(), 0);
        // The tally is per session and cumulative: one more drop tips it.
        collection_with_drops(&mut a, 2, 1, 11 * sec);
        assert_eq!(warned_at(), 11 * sec);
        // Another offender inside the interval stays quiet...
        collection_with_drops(&mut b, 1, DROP_WARN_THRESHOLD, 12 * sec);
        assert_eq!(warned_at(), 11 * sec);
        // ...and is named once the interval has passed.
        collection_with_drops(&mut b, 2, 0, 11 * sec + DROP_WARN_INTERVAL_NS);
        assert_eq!(warned_at(), 11 * sec + DROP_WARN_INTERVAL_NS);
        assert_eq!(desk.counters().drop_dedup.get(), 2 * DROP_WARN_THRESHOLD);
    }
}

//! The sender's protocol core — sans-IO.
//!
//! Everything a `pathload_snd` endpoint *decides* lives here, once: what
//! a greeting grants ([`on_hello`]), the ids of its trains and streams,
//! the header-size floor, the announce, which `Ready` and which report
//! answer it, when each probe is due and what its header says, the record
//! a report becomes, the RTT taken from three echoes, how long a frame it
//! is owed may take, and how a broken conversation is worded. A
//! [`TxSession`] is one control connection's state machine; it never
//! touches a socket, a thread or a clock — every input carries its time.
//! A machine command maps onto the wire like this:
//!
//! | command | on the wire | event fed back |
//! |---|---|---|
//! | `SendTrain { len, size }` | `TrainAnnounce`; on `Ready`, `len` packets back to back, each stamped as it leaves | `TrainDone` from the `TrainReport` |
//! | `SendStream(req)` | `StreamAnnounce`; on `Ready` at `t`, packet `i` at `t + LEAD_IN + i·period`, at most its allowance late, actual send instants kept | `StreamDone` from the `StreamReport` |
//! | `Idle(d)`, `Finish(est)` | nothing: the pump's own (a timer entry; stamping `elapsed`) | `Tick` / — |
//!
//! The pump is the [`EventedSession`](crate::EventedSession) on an event
//! loop. `tests/tx_conformance.rs` hand-steps this module against a
//! scripted receiver, replays the scripts over the wire against the pump,
//! and runs it against [`rx::RxSession`](crate::rx::RxSession).
//!
//! Decisions taken once, here:
//!
//! * an RTT exchange that fails is an error — never a made-up RTT that a
//!   machine would be built on;
//! * any frame the core is not waiting for — wrong id, wrong kind, a
//!   report while probes are still due — is a protocol error naming the
//!   state;
//! * one [`LEAD_IN_NS`], one [`RTT_ECHOES`], and one [`CTRL_TIMEOUT`] for
//!   a frame the core is owed, counted from the sender's last own action
//!   (a long stream does not eat its own budget), worded "stalled or
//!   half-open" when it runs out;
//! * how late a stream packet may leave: half the per-gap tolerance of
//!   §IV's spacing check at the stream's period ([`Due::Paced`]). Two
//!   neighbouring packets each sent at most that late shift their gap by
//!   at most that much, so pacing inside the allowance never fails §IV's
//!   spacing check.

// Datapath module: a panicking branch here takes the whole fleet down,
// so `unwrap`/`expect` are denied outright (errors must travel as values).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::proto::{
    CtrlMsg, ProbeKind, ProbePacket, SampleWire, DENY_AT_CAPACITY, PROBE_HEADER_LEN, PROTO_VERSION,
};
use slops::machine::{Command, Event};
use slops::{PacketSample, StreamRecord, TrainRecord, TransportError};
use std::io;
use std::time::Duration;
use telemetry::Histogram;
use units::TimeNs;

/// Lead-in between the `Ready` frame and a stream's first deadline, so
/// packet 0 is paced like every other instead of leaving late.
pub const LEAD_IN_NS: u64 = 1_000_000;

/// Control-channel echoes in an RTT measurement (the median is taken).
pub const RTT_ECHOES: usize = 3;

/// How long a frame the core is owed (`Ready`, a report, an echo) may
/// take — far above any honest receiver's report deadline. Also the read
/// timeout of the greeting, the one frame read blocking.
pub const CTRL_TIMEOUT: Duration = Duration::from_secs(30);

/// What the pump does after a control frame.
#[derive(Debug)]
pub enum Step {
    /// Write this frame, then wait for its answer.
    Write(CtrlMsg),
    /// Nothing to write: see [`TxSession::due`], then wait for a frame.
    Wait,
    /// The exchange is over.
    Done(Outcome),
}

/// What a finished exchange produced.
#[derive(Debug)]
pub enum Outcome {
    /// The event answering the command given to [`TxSession::begin`].
    Event(Event),
    /// The median round-trip time of [`TxSession::begin_rtt`]'s echoes.
    Rtt(TimeNs),
}

/// What the probe socket owes the wire right now.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Due {
    /// Nothing: the core waits for a control frame, or is idle.
    None,
    /// One stream packet, at `deadline` on the sender clock, and no
    /// more than `allowance` nanoseconds after it: half the spacing
    /// check's tolerance at the stream's period (0 for a core never told
    /// the tolerance).
    Paced {
        /// The packet's absolute send deadline.
        deadline: u64,
        /// How late the packet may leave without the spacing check minding.
        allowance: u64,
    },
    /// This many train packets, back to back, now.
    Burst(u32),
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum State {
    #[default]
    Idle,
    /// An echo is out; `rtts` holds the samples so far.
    Rtt,
    /// The announce is out.
    AwaitReady,
    /// `Ready` came; probes `next..count` are due.
    Sending,
    /// Every probe is out.
    AwaitReport,
}

/// The train or stream in progress.
#[derive(Debug, Default)]
struct Probe {
    id: u32,
    count: u32,
    /// Datagram size, header floor applied.
    size: u32,
    /// `Some`: a stream with this period; `None`: a train.
    period_ns: Option<u64>,
    /// A stream packet's lateness allowance.
    allowance_ns: u64,
    /// A stream's first deadline.
    t0: u64,
    /// The next index to send.
    next: u32,
}

impl Probe {
    fn deadline(&self, period_ns: u64) -> u64 {
        self.t0
            .saturating_add((self.next as u64).saturating_mul(period_ns))
    }
}

/// One control connection's send state machine. See the module docs.
#[derive(Debug, Default)]
pub struct TxSession {
    /// The receiver's token from `Hello`; it routes probes by it.
    session: u64,
    /// Ids count up across the trains and streams of one connection.
    next_id: u32,
    state: State,
    probe: Probe,
    /// A stream's actual send instants, by packet index.
    actual_send: Vec<u64>,
    rtts: Vec<u64>,
    /// The sender's last own action (an announce or echo written, the
    /// last probe sent): since then the core is owed a frame.
    waiting_since: u64,
    /// The spacing check's per-gap tolerance, a fraction of the period
    /// (`SlopsConfig::spacing_tolerance`; 0: send every packet exact).
    spacing_tolerance: f64,
    pacing_hist: Option<Histogram>,
}

/// Check a receiver's greeting. `Ok`: the session core holding the minted
/// token, and the UDP port to probe. A `Hello` of another version or any
/// other frame is `InvalidData`; a `Deny` is `ConnectionRefused`, naming
/// the reason and the protocol version the refusing receiver speaks.
pub fn on_hello(greeting: CtrlMsg) -> io::Result<(TxSession, u16)> {
    match greeting {
        CtrlMsg::Hello {
            version,
            udp_port,
            session,
        } if version == PROTO_VERSION => {
            let core = TxSession {
                session,
                ..TxSession::default()
            };
            Ok((core, udp_port))
        }
        CtrlMsg::Hello { version, .. } => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("receiver speaks protocol v{version}, we speak v{PROTO_VERSION}"),
        )),
        CtrlMsg::Deny { version, code } => {
            let reason = match code {
                DENY_AT_CAPACITY => "receiver at its concurrent-session capacity",
                _ => "connection refused by receiver policy",
            };
            Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("{reason} (receiver speaks protocol v{version})"),
            ))
        }
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("expected Hello, got {other:?}"),
        )),
    }
}

impl TxSession {
    /// The session token the receiver minted for this connection.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Observe each stream packet's pacing error (nanoseconds between its
    /// deadline and the instant it was stamped) into `hist`.
    pub fn set_pacing_histogram(&mut self, hist: Histogram) {
        self.pacing_hist = Some(hist);
    }

    /// Pace streams for a spacing check that forgives a gap off by
    /// `tolerance` of the period (the session's
    /// `SlopsConfig::spacing_tolerance`): each packet may then leave up
    /// to `tolerance · period / 2` late ([`Due::Paced`]).
    pub fn set_spacing_tolerance(&mut self, tolerance: f64) {
        self.spacing_tolerance = tolerance;
    }

    /// Begin a `SendTrain` or `SendStream` at `now_ns`: the announce to
    /// write. Whatever was in flight is abandoned (a pump that lost its
    /// channel mid-command starts clean). `Idle` and `Finish` are not
    /// wire commands; handing one in is an error.
    pub fn begin(&mut self, cmd: &Command, now_ns: u64) -> Result<CtrlMsg, TransportError> {
        let (count, size, period_ns) = match cmd {
            Command::SendTrain { len, size } => (*len, *size, None),
            Command::SendStream(req) => (req.count, req.packet_size, Some(req.period.as_nanos())),
            Command::Idle(_) | Command::Finish(_) => {
                self.state = State::Idle;
                return Err(TransportError::Io(format!(
                    "{cmd:?} is the pump's to execute, not a wire command"
                )));
            }
        };
        // A probe is at least its own header.
        let size = size.max(PROBE_HEADER_LEN as u32);
        let id = self.next_id;
        self.next_id = id.wrapping_add(1);
        // `as` saturates: a negative or NaN tolerance allows nothing.
        let allowance_ns = period_ns.map_or(0, |t| {
            (self.spacing_tolerance * t as f64 / 2.0).round() as u64
        });
        self.probe = Probe {
            id,
            count,
            size,
            period_ns,
            allowance_ns,
            ..Probe::default()
        };
        self.actual_send.clear();
        self.state = State::AwaitReady;
        self.waiting_since = now_ns;
        Ok(match period_ns {
            Some(period_ns) => CtrlMsg::StreamAnnounce {
                id,
                count,
                period_ns,
                size,
            },
            None => CtrlMsg::TrainAnnounce { id, count, size },
        })
    }

    /// Begin an RTT measurement at `now_ns`: the first echo to write.
    pub fn begin_rtt(&mut self, now_ns: u64) -> CtrlMsg {
        self.rtts.clear();
        self.state = State::Rtt;
        self.waiting_since = now_ns;
        CtrlMsg::Echo { token: 0 }
    }

    /// One control frame from the receiver at `now_ns`. Any frame but the
    /// one the core waits for is a protocol error; the core is then idle.
    pub fn on_ctrl(&mut self, msg: CtrlMsg, now_ns: u64) -> Result<Step, TransportError> {
        let stream = self.probe.period_ns.is_some();
        match (self.state, msg) {
            (State::Rtt, CtrlMsg::Echo { token }) if token == self.rtts.len() as u64 => {
                self.rtts.push(now_ns.saturating_sub(self.waiting_since));
                if self.rtts.len() < RTT_ECHOES {
                    self.waiting_since = now_ns;
                    return Ok(Step::Write(CtrlMsg::Echo {
                        token: self.rtts.len() as u64,
                    }));
                }
                self.state = State::Idle;
                self.rtts.sort_unstable();
                // RTT_ECHOES (> 0) samples: the median index is in range.
                let median = self.rtts.get(RTT_ECHOES / 2).copied().unwrap_or(0);
                Ok(Step::Done(Outcome::Rtt(TimeNs::from_nanos(median))))
            }
            (State::AwaitReady, CtrlMsg::Ready { id }) if id == self.probe.id => {
                self.probe.t0 = now_ns.saturating_add(LEAD_IN_NS);
                self.actual_send.reserve(self.probe.count as usize);
                self.state = State::Sending;
                self.sent(0, now_ns); // an announce of zero probes is sent already
                Ok(Step::Wait)
            }
            (State::AwaitReport, CtrlMsg::StreamReport { id, samples })
                if id == self.probe.id && stream =>
            {
                self.state = State::Idle;
                let record = self.stream_record(&samples);
                Ok(Step::Done(Outcome::Event(Event::StreamDone(record))))
            }
            (
                State::AwaitReport,
                CtrlMsg::TrainReport {
                    id,
                    received,
                    first_ns,
                    last_ns,
                },
            ) if id == self.probe.id && !stream => {
                self.state = State::Idle;
                Ok(Step::Done(Outcome::Event(Event::TrainDone(TrainRecord {
                    sent: self.probe.count,
                    received,
                    size: self.probe.size,
                    first_recv: TimeNs::from_nanos(first_ns),
                    last_recv: TimeNs::from_nanos(last_ns),
                }))))
            }
            (state, other) => {
                self.state = State::Idle;
                let id = self.probe.id;
                Err(TransportError::Io(format!(
                    "unexpected control message {other:?} in state {state:?} (id {id})"
                )))
            }
        }
    }

    /// What the probe socket owes the wire: all of a train at once, a
    /// stream's next packet at `t0 + next·period`, within its allowance.
    pub fn due(&self) -> Due {
        match (self.state, self.probe.period_ns) {
            (State::Sending, Some(period_ns)) => Due::Paced {
                deadline: self.probe.deadline(period_ns),
                allowance: self.probe.allowance_ns,
            },
            (State::Sending, None) => Due::Burst(self.probe.count - self.probe.next),
            _ => Due::None,
        }
    }

    /// Write the `j`-th due packet (0: the next index) into `buf`, resized
    /// to the announced size, stamped `now_ns`. Only [`sent`](Self::sent)
    /// advances the index: a packet the socket refused is stamped afresh
    /// on the retry, so the wire carries the actual send instant.
    pub fn encode(&self, j: u32, now_ns: u64, buf: &mut Vec<u8>) {
        buf.resize((self.probe.size as usize).max(PROBE_HEADER_LEN), 0);
        ProbePacket {
            session: self.session,
            kind: match self.probe.period_ns {
                Some(_) => ProbeKind::Stream,
                None => ProbeKind::Train,
            },
            id: self.probe.id,
            idx: self.probe.next.saturating_add(j),
            send_ns: now_ns,
        }
        .encode(buf);
    }

    /// The first `n` due packets went out (a stream packet: was
    /// attempted) stamped `now_ns`. Records a stream's send instants and
    /// pacing error; after the last the core is owed the report.
    pub fn sent(&mut self, n: u32, now_ns: u64) {
        if self.state != State::Sending {
            return;
        }
        for _ in 0..n.min(self.probe.count - self.probe.next) {
            if let Some(period_ns) = self.probe.period_ns {
                if let Some(h) = &self.pacing_hist {
                    h.observe(now_ns.saturating_sub(self.probe.deadline(period_ns)));
                }
                self.actual_send.push(now_ns);
            }
            self.probe.next += 1;
        }
        if self.probe.next >= self.probe.count {
            self.state = State::AwaitReport;
            self.waiting_since = now_ns;
        }
    }

    /// When the frame the core is owed is overdue ([`CTRL_TIMEOUT`] past
    /// the sender's last own action); `None` while it is owed none.
    pub fn ctrl_deadline(&self) -> Option<u64> {
        let owed = matches!(
            self.state,
            State::Rtt | State::AwaitReady | State::AwaitReport
        );
        owed.then(|| {
            self.waiting_since
                .saturating_add(CTRL_TIMEOUT.as_nanos() as u64)
        })
    }

    /// No frame came and it is `now_ns`: `Err` (and idle) once
    /// [`ctrl_deadline`](Self::ctrl_deadline) has passed, `Ok` before.
    pub fn on_timeout(&mut self, now_ns: u64) -> Result<(), TransportError> {
        match self.ctrl_deadline() {
            Some(deadline) if now_ns >= deadline => {
                let state = std::mem::take(&mut self.state);
                Err(TransportError::Io(format!(
                    "{STALLED} (in state {state:?})"
                )))
            }
            _ => Ok(()),
        }
    }

    /// The record of a report and the send instants kept while pacing.
    fn stream_record(&self, samples: &[SampleWire]) -> StreamRecord {
        let first_send = self.actual_send.first().copied().unwrap_or(0);
        let samples = samples
            .iter()
            .map(|s| PacketSample {
                idx: s.idx,
                send_offset: TimeNs::from_nanos(
                    self.actual_send
                        .get(s.idx as usize)
                        .map_or(0, |t| t.saturating_sub(first_send)),
                ),
                owd_ns: s.recv_ns as i64 - s.send_ns as i64,
            })
            .collect();
        StreamRecord {
            sent: self.probe.count,
            samples,
        }
    }
}

/// The diagnosis of an overdue frame.
const STALLED: &str = "no control frame for 30 s: receiver stalled or half-open";

/// A control-channel I/O failure as the transport error the pump
/// reports. An abrupt EOF or reset almost always means the receiver went
/// away (crashed, or restarted — a restarted receiver mints tokens from a
/// fresh random base, so the old connection *and* the old token are both
/// unusable): the session must fail cleanly here rather than limp on
/// reporting silently-empty streams.
pub fn ctrl_io_error(e: io::Error) -> TransportError {
    TransportError::Io(match e.kind() {
        io::ErrorKind::UnexpectedEof
        | io::ErrorKind::ConnectionReset
        | io::ErrorKind::ConnectionAborted
        | io::ErrorKind::BrokenPipe => format!(
            "control channel closed by receiver (receiver gone or restarted; \
             reconnect for a fresh Hello and session token): {e}"
        ),
        _ => e.to_string(),
    })
}

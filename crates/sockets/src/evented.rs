//! The evented socket driver: the sans-IO machine pumped from readiness
//! events and timers instead of blocking calls.
//!
//! [`EventedSession`] is to an [`EventLoop`] what `slops::Session::run`
//! is to a blocking thread: one
//! measurement session over one [`SocketTransport`], but driven strictly
//! by the DRIVERS.md contract with **no blocking call anywhere** — so a
//! single thread can host hundreds of these at once. The command→substrate
//! mapping is:
//!
//! | command | event-loop realization | event fed back |
//! |---|---|---|
//! | `SendTrain` | announce queued on ctrl writability; on `Ready`, blast UDP packets (resuming on UDP writability if the socket back-pressures) | `TrainDone` on the `TrainReport` frame |
//! | `SendStream(req)` | announce queued; on `Ready`, one **timer entry per packet deadline** (`t0 + i·period`), actual send instants recorded | `StreamDone` on the `StreamReport` frame |
//! | `Idle(d)` | a timer entry at `now + d` | `Tick(clock)` when it fires |
//! | `Finish(est)` | terminal: stamp `elapsed`, expose the outcome | — |
//!
//! Before the machine is built the session runs a short non-blocking RTT
//! phase (three control-channel echoes, median taken), mirroring what the
//! blocking `ProbeTransport::rtt` measures.
//!
//! There is **no estimation logic here** (the repo invariant): loss
//! accounting, spacing validation, trend classification and the rate
//! search all stay in `slops::SessionMachine`. A send that would block
//! mid-stream is recorded at its attempted instant and dropped — the
//! receiver sees it as loss, which the machine already judges.
//!
//! The host owns the event loop and the token space: it registers the
//! session ([`EventedSession::register`]) and routes every [`MuxEvent`]
//! whose token belongs to this session into [`EventedSession::on_event`].
//! When [`EventedSession::is_finished`] turns true the host takes the
//! transport and the outcome back with [`EventedSession::finish`].

// Datapath module: a panicking branch here takes the whole fleet down,
// so `unwrap`/`expect` are denied outright (errors must travel as values).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::mux::{EventLoop, Interest, MuxEvent};
use crate::proto::{
    CtrlBuf, CtrlMsg, ProbeKind, ProbePacket, MAX_FRAME_TO_SENDER, PROBE_HEADER_LEN,
};
use crate::sender::{ctrl_error_text, stream_record, SocketTransport};
use slops::machine::{Command, Event, SessionMachine};
use slops::{Estimate, ProbeTransport, SlopsConfig, SlopsError, StreamRequest, TransportError};
use std::io;
use std::os::fd::AsRawFd;
use std::sync::Arc;
use telemetry::{Histogram, TraceSink};
use units::TimeNs;

/// Number of control-channel echoes in the RTT phase (median taken).
const RTT_PROBES: usize = 3;

/// Lead-in before a stream's first packet (matches the blocking pacer).
const LEAD_IN_NS: u64 = 1_000_000;

/// The event-loop tokens one session registers under. The host allocates
/// them (disjoint per live session) and routes events back by them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionTokens {
    /// Token of the control TCP stream registration.
    pub ctrl: u64,
    /// Token of the probe UDP socket registration.
    pub probe: u64,
    /// Token this session's timer entries are armed with. The session
    /// arms plain (uncancellable) entries and relies on lazy
    /// cancellation, so the host must never reuse a timer token for a
    /// *later* session while entries may still be pending — tag it with a
    /// per-path generation (or arm through
    /// [`EventLoop::arm_timer_with_generation`] and cancel eagerly).
    pub timer: u64,
}

/// What the session is executing for the machine right now.
#[derive(Debug)]
enum Exec {
    /// RTT phase: echo `t_sent` is in flight, `rtts` collected so far.
    Rtt { t_sent: u64, rtts: Vec<u64> },
    /// An announce was queued; waiting for the `Ready` frame.
    AwaitReady(AfterReady),
    /// Mid-train: next packet to blast is `next` (resumes on UDP
    /// writability when the socket back-pressures). `bufs` are the
    /// per-message packet buffers of one `sendmmsg` batch, allocated once
    /// per train.
    BlastTrain {
        id: u32,
        len: u32,
        size: u32,
        next: u32,
        bufs: Vec<Vec<u8>>,
    },
    /// Train sent; waiting for the `TrainReport` frame.
    AwaitTrainReport { id: u32, len: u32, size: u32 },
    /// Mid-stream: packet `next`'s deadline is `t0 + next·period`; a
    /// timer entry is armed for it. `buf` is the packet buffer, allocated
    /// once per stream — the pacing path is timing-critical and must not
    /// touch the allocator per packet.
    PaceStream {
        id: u32,
        req: StreamRequest,
        t0: u64,
        next: u32,
        actual_send: Vec<u64>,
        buf: Vec<u8>,
    },
    /// Stream sent; waiting for the `StreamReport` frame.
    AwaitStreamReport {
        id: u32,
        req: StreamRequest,
        actual_send: Vec<u64>,
    },
    /// An `Idle` timer is armed; feeds `Tick` when it fires.
    AwaitTick,
    /// Terminal (estimate or error available).
    Done,
}

impl Exec {
    fn name(&self) -> &'static str {
        match self {
            Exec::Rtt { .. } => "Rtt",
            Exec::AwaitReady(_) => "AwaitReady",
            Exec::BlastTrain { .. } => "BlastTrain",
            Exec::AwaitTrainReport { .. } => "AwaitTrainReport",
            Exec::PaceStream { .. } => "PaceStream",
            Exec::AwaitStreamReport { .. } => "AwaitStreamReport",
            Exec::AwaitTick => "AwaitTick",
            Exec::Done => "Done",
        }
    }
}

/// What command execution is pending after a `Ready` frame.
#[derive(Debug)]
enum AfterReady {
    Train {
        id: u32,
        len: u32,
        size: u32,
    },
    Stream {
        id: u32,
        req: StreamRequest,
        size: u32,
    },
}

/// A shared trace sink with a `Debug` impl (the trait object itself has
/// none), so the session struct can keep deriving `Debug`.
struct SinkHandle(Arc<dyn TraceSink>);

impl std::fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("TraceSink")
    }
}

/// One measurement session driven by an event loop. See the module docs.
#[derive(Debug)]
pub struct EventedSession {
    transport: SocketTransport,
    /// Built after the RTT phase (the machine wants the RTT up front).
    machine: Option<SessionMachine>,
    /// Held until the machine is built.
    cfg: Option<SlopsConfig>,
    tokens: SessionTokens,
    start: TimeNs,
    /// Control-channel frames in flight, either direction.
    ctrl_buf: CtrlBuf,
    exec: Exec,
    outcome: Option<Result<Estimate, SlopsError>>,
    registered: bool,
    /// Where the machine's trace events are forwarded (`None`: dropped).
    sink: Option<SinkHandle>,
    /// Per-packet pacing error (ns past each packet's send deadline);
    /// `None`: not recorded.
    pacing_hist: Option<Histogram>,
}

impl EventedSession {
    /// Start a session over `transport` (switched to non-blocking mode).
    /// The first activity — the RTT echoes — is queued immediately;
    /// nothing moves until the session is [`register`](Self::register)ed
    /// and events are routed in.
    ///
    /// On failure the transport travels back with the error, so a fleet
    /// host keeps its long-lived connection for the path's next attempt.
    pub fn new(
        mut transport: SocketTransport,
        cfg: SlopsConfig,
        tokens: SessionTokens,
    ) -> Result<EventedSession, (SocketTransport, SlopsError)> {
        if let Err(msg) = cfg.validate() {
            return Err((transport, SlopsError::BadConfig(msg)));
        }
        if let Err(e) = transport.set_nonblocking(true) {
            let err = SlopsError::Transport(TransportError::Io(e.to_string()));
            return Err((transport, err));
        }
        let start = transport.elapsed();
        let t_sent = transport.clock().now_ns();
        let mut session = EventedSession {
            transport,
            machine: None,
            cfg: Some(cfg),
            tokens,
            start,
            ctrl_buf: CtrlBuf::new(MAX_FRAME_TO_SENDER),
            exec: Exec::Rtt {
                t_sent,
                rtts: Vec::with_capacity(RTT_PROBES),
            },
            outcome: None,
            registered: false,
            sink: None,
            pacing_hist: None,
        };
        session.ctrl_buf.queue(&CtrlMsg::Echo { token: 0 });
        Ok(session)
    }

    /// Tear the session down before completion (e.g. the host failed to
    /// register it, or is abandoning the measurement): deregisters and
    /// returns the transport, back in blocking mode.
    pub fn abort(mut self, lp: &EventLoop) -> SocketTransport {
        self.deregister(lp);
        let _ = self.transport.set_nonblocking(false);
        self.transport
    }

    /// Register the session's sockets with the event loop under its
    /// tokens. The control stream starts read+write (the RTT echo is
    /// already queued); the probe socket starts dormant.
    pub fn register(&mut self, lp: &EventLoop) -> io::Result<()> {
        lp.register(
            self.transport.ctrl().as_raw_fd(),
            self.tokens.ctrl,
            self.ctrl_interest(),
        )?;
        lp.register(
            self.transport.udp().as_raw_fd(),
            self.tokens.probe,
            Interest::NONE,
        )?;
        self.registered = true;
        Ok(())
    }

    /// The tokens this session was built with.
    pub fn tokens(&self) -> SessionTokens {
        self.tokens
    }

    /// Forward the machine's trace events to `sink`. The driver only
    /// relays: every event is minted inside the sans-IO machine, so the
    /// trace matches the blocking drivers' byte for byte.
    pub fn set_trace_sink(&mut self, sink: Arc<dyn TraceSink>) {
        self.sink = Some(SinkHandle(sink));
    }

    /// Record each stream packet's pacing error (nanoseconds past its
    /// absolute send deadline) into `hist`. Register the same handle in a
    /// `telemetry::Registry` to expose it.
    pub fn set_pacing_histogram(&mut self, hist: Histogram) {
        self.pacing_hist = Some(hist);
    }

    /// Drain and forward (or drop, without a sink) the machine's trace.
    fn forward_trace(&mut self) {
        if let Some(machine) = self.machine.as_mut() {
            let events = machine.take_trace();
            if let Some(SinkHandle(sink)) = &self.sink {
                for e in &events {
                    sink.record(e);
                }
            }
        }
    }

    /// True once the session has an outcome (estimate or error).
    pub fn is_finished(&self) -> bool {
        self.outcome.is_some()
    }

    /// True while a machine command is being executed on the substrate —
    /// the interval during which the DRIVERS.md contract requires the
    /// machine's own `poll()` to return `None` (assert it through
    /// [`machine_mut`](Self::machine_mut); the call is side-effect-free
    /// in exactly this situation).
    pub fn command_in_flight(&self) -> bool {
        !matches!(self.exec, Exec::Rtt { .. } | Exec::Done)
    }

    /// The underlying machine, once the RTT phase built it. Exposed for
    /// contract tests (e.g. asserting `poll() == None` while
    /// [`command_in_flight`](Self::command_in_flight)); drivers and hosts
    /// must not feed it events of their own.
    pub fn machine_mut(&mut self) -> Option<&mut SessionMachine> {
        self.machine.as_mut()
    }

    /// Deregister from the loop, return the transport (back in blocking
    /// mode) and the outcome. Calling it on a session that has not
    /// finished is a host bug, reported as an error outcome (the
    /// datapath is panic-free).
    pub fn finish(mut self, lp: &EventLoop) -> (SocketTransport, Result<Estimate, SlopsError>) {
        let outcome = self
            .outcome
            .take()
            .unwrap_or_else(|| Err(machine_protocol_violated("finish() before completion")));
        self.deregister(lp);
        let _ = self.transport.set_nonblocking(false);
        (self.transport, outcome)
    }

    /// Remove the session's sockets from the loop (idempotent; called by
    /// [`finish`](Self::finish)).
    pub fn deregister(&mut self, lp: &EventLoop) {
        if self.registered {
            let _ = lp.deregister(self.transport.ctrl().as_raw_fd());
            let _ = lp.deregister(self.transport.udp().as_raw_fd());
            self.registered = false;
        }
    }

    /// Route one event-loop event into the session. Events whose token
    /// does not belong to this session, and stale timers (from an
    /// execution state that has already moved on), are ignored.
    pub fn on_event(&mut self, lp: &mut EventLoop, ev: &MuxEvent) {
        if self.is_finished() {
            return;
        }
        let result = match *ev {
            MuxEvent::Io(r) if r.token == self.tokens.ctrl => {
                self.handle_ctrl(lp, r.readable, r.writable)
            }
            MuxEvent::Io(r) if r.token == self.tokens.probe => {
                // EPOLLERR/EPOLLHUP reach us as readable+writable even on
                // the otherwise-dormant probe socket (e.g. an ICMP
                // unreachable from a dead receiver pends SO_ERROR on the
                // connected UDP socket). Consume it FIRST: a pending
                // error is level-triggered, and a handler that ignores it
                // would spin the whole loop thread at 100% CPU while the
                // session waits forever on a report that cannot come.
                match self.transport.udp().take_error() {
                    Ok(Some(e)) => Err(TransportError::Io(format!("probe socket error: {e}"))),
                    Ok(None) | Err(_) if r.writable => self.resume_blast(lp),
                    _ => Ok(()),
                }
            }
            MuxEvent::Timer { token } if token == self.tokens.timer => self.handle_timer(lp),
            _ => Ok(()),
        };
        if let Err(e) = result {
            self.exec = Exec::Done;
            self.outcome = Some(Err(SlopsError::Transport(e)));
        }
    }

    // ---- control channel ----------------------------------------------

    fn ctrl_interest(&self) -> Interest {
        if self.ctrl_buf.wants_write() {
            Interest::BOTH
        } else {
            Interest::READ
        }
    }

    fn queue_ctrl(&mut self, lp: &EventLoop, msg: &CtrlMsg) -> Result<(), TransportError> {
        self.ctrl_buf.queue(msg);
        self.update_ctrl_interest(lp)
    }

    fn update_ctrl_interest(&self, lp: &EventLoop) -> Result<(), TransportError> {
        if self.registered {
            lp.set_interest(
                self.transport.ctrl().as_raw_fd(),
                self.tokens.ctrl,
                self.ctrl_interest(),
            )
            .map_err(|e| TransportError::Io(e.to_string()))?;
        }
        Ok(())
    }

    fn handle_ctrl(
        &mut self,
        lp: &mut EventLoop,
        readable: bool,
        writable: bool,
    ) -> Result<(), TransportError> {
        if writable && self.ctrl_buf.wants_write() {
            self.ctrl_buf
                .flush(&mut self.transport.ctrl())
                .map_err(ctrl_io_error)?;
            self.update_ctrl_interest(lp)?;
        }
        if readable {
            let open = self
                .ctrl_buf
                .fill(&mut self.transport.ctrl())
                .map_err(ctrl_io_error)?;
            while let Some(msg) = self.ctrl_buf.take_frame().map_err(ctrl_io_error)? {
                self.on_ctrl_msg(lp, msg)?;
                if matches!(self.exec, Exec::Done) {
                    break;
                }
            }
            if !open && !matches!(self.exec, Exec::Done) {
                return Err(ctrl_io_error(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF on the control channel",
                )));
            }
        }
        Ok(())
    }

    fn protocol_error(&self, got: &CtrlMsg) -> TransportError {
        TransportError::Io(format!(
            "unexpected control message {got:?} in state {}",
            self.exec.name()
        ))
    }

    fn on_ctrl_msg(&mut self, lp: &mut EventLoop, msg: CtrlMsg) -> Result<(), TransportError> {
        // Take the execution state by value; every arm either installs its
        // successor or leaves `Done` behind on the way to an error.
        match (std::mem::replace(&mut self.exec, Exec::Done), msg) {
            (Exec::Rtt { t_sent, mut rtts }, CtrlMsg::Echo { token })
                if token == rtts.len() as u64 =>
            {
                let now = self.transport.clock().now_ns();
                rtts.push(now.saturating_sub(t_sent));
                if rtts.len() < RTT_PROBES {
                    let next = rtts.len() as u64;
                    self.exec = Exec::Rtt { t_sent: now, rtts };
                    self.queue_ctrl(lp, &CtrlMsg::Echo { token: next })
                } else {
                    rtts.sort_unstable();
                    // rtts holds RTT_PROBES (> 0) samples here, so the
                    // median index is in range; 0 is a dead fallback.
                    let median = rtts.get(rtts.len() / 2).copied().unwrap_or(0);
                    let rtt = TimeNs::from_nanos(median);
                    let Some(cfg) = self.cfg.take() else {
                        // cfg is held until the machine is built;
                        // unreachable, surfaced as a failed outcome
                        // rather than a panic.
                        self.outcome = Some(Err(machine_protocol_violated("cfg already taken")));
                        return Ok(());
                    };
                    let max_rate = self.transport.max_rate();
                    match SessionMachine::new(cfg, rtt, max_rate) {
                        Ok(machine) => {
                            self.machine = Some(machine);
                            self.advance(lp)
                        }
                        Err(e) => {
                            // Config was validated in `new`; unreachable in
                            // practice, but fail cleanly rather than panic.
                            self.outcome = Some(Err(e));
                            Ok(())
                        }
                    }
                }
            }
            (Exec::AwaitReady(AfterReady::Train { id, len, size }), CtrlMsg::Ready { id: got })
                if got == id =>
            {
                let batch = (len as usize).clamp(1, crate::batch::MAX_BATCH);
                self.exec = Exec::BlastTrain {
                    id,
                    len,
                    size,
                    next: 0,
                    bufs: vec![vec![0u8; size as usize]; batch],
                };
                self.resume_blast(lp)
            }
            (
                Exec::AwaitReady(AfterReady::Stream { id, req, size }),
                CtrlMsg::Ready { id: got },
            ) if got == id => {
                let t0 = self.transport.clock().now_ns() + LEAD_IN_NS;
                let count = req.count;
                self.exec = Exec::PaceStream {
                    id,
                    req,
                    t0,
                    next: 0,
                    actual_send: Vec::with_capacity(count as usize),
                    buf: vec![0u8; size as usize],
                };
                lp.arm_timer(t0, self.tokens.timer);
                Ok(())
            }
            (
                Exec::AwaitTrainReport { id, len, size },
                CtrlMsg::TrainReport {
                    id: got,
                    received,
                    first_ns,
                    last_ns,
                },
            ) if got == id => {
                let record = slops::TrainRecord {
                    sent: len,
                    received,
                    size,
                    first_recv: TimeNs::from_nanos(first_ns),
                    last_recv: TimeNs::from_nanos(last_ns),
                };
                self.feed(lp, Event::TrainDone(record))
            }
            (
                Exec::AwaitStreamReport {
                    id,
                    req,
                    actual_send,
                },
                CtrlMsg::StreamReport { id: got, samples },
            ) if got == id => {
                let record = stream_record(req.count, &actual_send, &samples);
                self.feed(lp, Event::StreamDone(record))
            }
            (exec, other) => {
                self.exec = exec; // restore so the error names the state
                Err(self.protocol_error(&other))
            }
        }
    }

    // ---- probe socket --------------------------------------------------

    /// Send as much of a pending train blast as the UDP socket accepts —
    /// batched through `sendmmsg` where available, one kernel crossing
    /// per [`crate::batch::MAX_BATCH`] packets; on back-pressure, wait
    /// for writability and resume. Packets the kernel refuses keep their
    /// place: they are re-encoded (fresh `send_ns`) on the next attempt,
    /// so the timestamp on the wire is always the actual send instant.
    fn resume_blast(&mut self, lp: &mut EventLoop) -> Result<(), TransportError> {
        let Exec::BlastTrain {
            id,
            len,
            size,
            next,
            bufs,
        } = &mut self.exec
        else {
            return Ok(()); // stale writability notification
        };
        let (id, len, size) = (*id, *len, *size);
        while *next < len {
            let k = ((len - *next) as usize).min(bufs.len());
            for (j, buf) in bufs.iter_mut().take(k).enumerate() {
                ProbePacket {
                    session: self.transport.session(),
                    kind: ProbeKind::Train,
                    id,
                    idx: *next + j as u32,
                    send_ns: self.transport.clock().now_ns(),
                }
                .encode(buf);
            }
            match crate::batch::send_batch(self.transport.udp(), bufs.get(..k).unwrap_or(&[])) {
                Ok(sent) => {
                    *next += sent as u32;
                    if sent < k {
                        // The kernel took a prefix; wait out the back-pressure.
                        return lp
                            .set_interest(
                                self.transport.udp().as_raw_fd(),
                                self.tokens.probe,
                                Interest::WRITE,
                            )
                            .map_err(|e| TransportError::Io(e.to_string()));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return lp
                        .set_interest(
                            self.transport.udp().as_raw_fd(),
                            self.tokens.probe,
                            Interest::WRITE,
                        )
                        .map_err(|e| TransportError::Io(e.to_string()));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(TransportError::Io(e.to_string())),
            }
        }
        self.exec = Exec::AwaitTrainReport { id, len, size };
        lp.set_interest(
            self.transport.udp().as_raw_fd(),
            self.tokens.probe,
            Interest::NONE,
        )
        .map_err(|e| TransportError::Io(e.to_string()))
    }

    // ---- timers --------------------------------------------------------

    fn handle_timer(&mut self, lp: &mut EventLoop) -> Result<(), TransportError> {
        match std::mem::replace(&mut self.exec, Exec::Done) {
            Exec::PaceStream {
                id,
                req,
                t0,
                mut next,
                mut actual_send,
                mut buf,
            } => {
                let (count, period) = (req.count, req.period.as_nanos());
                // Send every packet whose deadline has passed (the blocking
                // pacer catches up the same way when it overshoots).
                loop {
                    let now = self.transport.clock().now_ns();
                    let deadline = t0 + next as u64 * period;
                    if deadline > now {
                        lp.arm_timer(deadline, self.tokens.timer);
                        self.exec = Exec::PaceStream {
                            id,
                            req,
                            t0,
                            next,
                            actual_send,
                            buf,
                        };
                        return Ok(());
                    }
                    let send_ns = now;
                    if let Some(h) = &self.pacing_hist {
                        h.observe(now - deadline);
                    }
                    ProbePacket {
                        session: self.transport.session(),
                        kind: ProbeKind::Stream,
                        id,
                        idx: next,
                        send_ns,
                    }
                    .encode(&mut buf);
                    // A send the socket refuses (back-pressure) cannot be
                    // retried — its deadline is now. Record the attempt
                    // honestly and move on; the receiver counts it as
                    // loss. Hard socket errors abort the measurement.
                    match self.transport.udp().send(&buf) {
                        Ok(_) => {}
                        Err(e)
                            if e.kind() == io::ErrorKind::WouldBlock
                                || e.kind() == io::ErrorKind::Interrupted => {}
                        Err(e) => return Err(TransportError::Io(e.to_string())),
                    }
                    actual_send.push(send_ns);
                    next += 1;
                    if next >= count {
                        self.exec = Exec::AwaitStreamReport {
                            id,
                            req,
                            actual_send,
                        };
                        return Ok(());
                    }
                }
            }
            Exec::AwaitTick => {
                let now = self.transport.elapsed();
                self.feed(lp, Event::Tick(now))
            }
            // Stale timer (the stream/idle it paced errored or completed
            // through another path): restore the state and ignore it.
            other => {
                self.exec = other;
                Ok(())
            }
        }
    }

    // ---- machine pump --------------------------------------------------

    fn feed(&mut self, lp: &mut EventLoop, event: Event) -> Result<(), TransportError> {
        // The machine is built before any command executes and accepts
        // the event answering its own command; invariant breaks surface
        // as transport errors, not panics.
        let Some(machine) = self.machine.as_mut() else {
            return Err(protocol_violation("no machine built"));
        };
        if machine.on_event(event).is_err() {
            return Err(protocol_violation("event refused by the machine"));
        }
        self.forward_trace();
        self.advance(lp)
    }

    /// Poll the machine and begin executing the command it emits.
    fn advance(&mut self, lp: &mut EventLoop) -> Result<(), TransportError> {
        // The session answers each command before advancing, so the
        // machine never pends here; see `feed` on the error mapping.
        let Some(cmd) = self.machine.as_mut().and_then(SessionMachine::poll) else {
            return Err(protocol_violation("poll pended mid-session"));
        };
        self.forward_trace();
        match cmd {
            Command::SendTrain { len, size } => {
                let size = (size as usize).max(PROBE_HEADER_LEN) as u32;
                let id = self.transport.next_stream_id();
                self.queue_ctrl(
                    lp,
                    &CtrlMsg::TrainAnnounce {
                        id,
                        count: len,
                        size,
                    },
                )?;
                self.exec = Exec::AwaitReady(AfterReady::Train { id, len, size });
                Ok(())
            }
            Command::SendStream(req) => {
                let size = (req.packet_size as usize).max(PROBE_HEADER_LEN) as u32;
                let id = self.transport.next_stream_id();
                self.queue_ctrl(
                    lp,
                    &CtrlMsg::StreamAnnounce {
                        id,
                        count: req.count,
                        period_ns: req.period.as_nanos(),
                        size,
                    },
                )?;
                self.exec = Exec::AwaitReady(AfterReady::Stream { id, req, size });
                Ok(())
            }
            Command::Idle(dur) => {
                self.exec = Exec::AwaitTick;
                let deadline = self.transport.clock().now_ns() + dur.as_nanos();
                lp.arm_timer(deadline, self.tokens.timer);
                Ok(())
            }
            Command::Finish(est) => {
                let mut est = *est;
                est.elapsed = self.transport.elapsed().saturating_sub(self.start);
                self.exec = Exec::Done;
                self.outcome = Some(Ok(est));
                Ok(())
            }
        }
    }
}

/// A control-channel failure as the session's transport error (with the
/// dead-receiver diagnosis of [`ctrl_error_text`]).
fn ctrl_io_error(e: io::Error) -> TransportError {
    TransportError::Io(ctrl_error_text(&e))
}

/// A break of the command/event protocol between this session and the
/// machine — unreachable by construction of the pump (`feed`/`advance`
/// answer every command before polling again), and reported as an error
/// so the datapath stays panic-free.
fn protocol_violation(what: &str) -> TransportError {
    TransportError::Io(format!("machine protocol violated: {what}"))
}

/// [`protocol_violation`] as a session outcome.
fn machine_protocol_violated(what: &str) -> SlopsError {
    SlopsError::Transport(protocol_violation(what))
}

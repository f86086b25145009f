//! The sender's pump: the sans-IO machine driven from readiness events
//! and timers.
//!
//! [`EventedSession`] is one measurement session over one
//! [`SocketTransport`], driven strictly by the DRIVERS.md contract with
//! **no blocking call anywhere** — so a single thread can host hundreds
//! of these at once (`monitord`), or one on a loop of its own
//! ([`EventedSession::run_alone`], `pathload_snd`). What goes on the wire
//! is decided by the transport's protocol core ([`crate::tx`] has the
//! command→wire table); this module is the event-loop work around it:
//! control frames flushed on writability and parsed on readability,
//! **one timer entry per paced deadline**, armed with the lateness
//! allowance the core gives it (the session's spacing tolerance, handed
//! to the core here), a train blasted through
//! `sendmmsg` (resuming on UDP writability if the socket back-pressures),
//! `Idle(d)` as a timer entry answered with `Tick(clock)`, `Finish(est)`
//! stamped with `elapsed`, one watchdog entry for the frame the core is
//! owed — and, before the machine is built, the core's RTT exchange,
//! whose failure fails the session.
//!
//! There is **no estimation logic here** (the repo invariant): loss
//! accounting, spacing validation, trend classification and the rate
//! search all stay in `slops::SessionMachine`. A send that would block
//! mid-stream is recorded at its attempted instant and dropped — the
//! receiver sees it as loss, which the machine already judges.
//!
//! A fleet host owns the event loop and the token space: it registers
//! the session ([`EventedSession::register`]) and routes every
//! [`MuxEvent`] whose token belongs to this session into
//! [`EventedSession::on_event`]. When [`EventedSession::is_finished`]
//! turns true the host takes the transport and the outcome back with
//! [`EventedSession::finish`].

// Datapath module: a panicking branch here takes the whole fleet down,
// so `unwrap`/`expect` are denied outright (errors must travel as values).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::batch::{send_batch, MAX_BATCH};
use crate::mux::{EventLoop, Interest, MuxEvent};
use crate::proto::{CtrlBuf, CtrlMsg, MAX_FRAME_TO_SENDER};
use crate::sender::SocketTransport;
use crate::tx::{ctrl_io_error, Due, Outcome, Step, CTRL_TIMEOUT};
use slops::machine::{Command, Event, SessionMachine};
use slops::{Estimate, SlopsConfig, SlopsError, TransportError};
use std::io;
use std::os::fd::AsRawFd;
use std::sync::Arc;
use telemetry::TraceSink;
use units::TimeNs;

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
    /// per-path generation, as `monitord`'s socket fleet driver does.
    pub timer: u64,
}

/// What the session is doing for the machine right now.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Exec {
    /// The transport's protocol core is mid-exchange (the RTT echoes, a
    /// train, a stream): it says what to write, what is due and what it
    /// waits for; [`EventedSession::drive`] does it.
    Wire,
    /// An `Idle` timer is armed for `until`; feeds `Tick` when it fires.
    AwaitTick { until: u64 },
    /// Terminal (estimate or error available).
    Done,
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
    /// The packet buffers of one `sendmmsg` batch (a stream uses the
    /// first), kept across commands: the pacing path is timing-critical
    /// and must not touch the allocator per packet.
    bufs: Vec<Vec<u8>>,
    /// The probe socket back-pressured a blast: write interest is set.
    blast_blocked: bool,
    /// The paced deadline a timer entry is already armed for (0: none).
    /// A pop mid-stream may be the watchdog's stale entry; arming the
    /// same deadline again would leave a duplicate riding along.
    paced_armed: u64,
    /// The deadline of the one pending watchdog entry. A wait does not
    /// arm its own (~120 per estimate, each lingering for the whole
    /// timeout): the entry is re-armed for the then-current wait when it
    /// fires.
    watchdog: Option<u64>,
}

impl EventedSession {
    /// Start a session over `transport`. The first activity — the RTT
    /// echoes — is queued immediately; nothing moves until the session is
    /// [`register`](Self::register)ed and events are routed in.
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
        transport.core.set_spacing_tolerance(cfg.spacing_tolerance);
        let start = transport.elapsed();
        let echo = transport.core.begin_rtt(start.as_nanos());
        let mut session = EventedSession {
            transport,
            machine: None,
            cfg: Some(cfg),
            tokens,
            start,
            ctrl_buf: CtrlBuf::new(MAX_FRAME_TO_SENDER),
            exec: Exec::Wire,
            outcome: None,
            registered: false,
            sink: None,
            bufs: vec![Vec::new(); MAX_BATCH],
            blast_blocked: false,
            paced_armed: 0,
            watchdog: None,
        };
        session.ctrl_buf.queue(&echo);
        Ok(session)
    }

    /// Run one whole measurement over `transport` on an event loop of its
    /// own, on the calling thread — `pathload_snd`'s host. The transport
    /// comes back with the outcome, as from [`finish`](Self::finish).
    pub fn run_alone(
        transport: SocketTransport,
        cfg: SlopsConfig,
    ) -> (SocketTransport, Result<Estimate, SlopsError>) {
        let io_error = |e: io::Error| SlopsError::Transport(TransportError::Io(e.to_string()));
        let mut lp = match EventLoop::new(transport.clock.same_epoch()) {
            Ok(lp) => lp,
            Err(e) => return (transport, Err(io_error(e))),
        };
        let tokens = SessionTokens {
            ctrl: 0,
            probe: 1,
            timer: 2,
        };
        let mut session = match EventedSession::new(transport, cfg, tokens) {
            Ok(session) => session,
            Err((transport, e)) => return (transport, Err(e)),
        };
        if let Err(e) = session.register(&lp) {
            return (session.abort(&lp), Err(io_error(e)));
        }
        let mut events = Vec::new();
        while !session.is_finished() {
            events.clear();
            // The session's own timer entries (a deadline, an idle, the
            // watchdog) end every wait long before this.
            if let Err(e) = lp.wait(&mut events, CTRL_TIMEOUT) {
                return (session.abort(&lp), Err(io_error(e)));
            }
            for ev in &events {
                session.on_event(&mut lp, ev);
            }
        }
        session.finish(&lp)
    }

    /// Tear the session down before completion (e.g. the host failed to
    /// register it, or is abandoning the measurement): deregisters and
    /// returns the transport.
    pub fn abort(mut self, lp: &EventLoop) -> SocketTransport {
        self.deregister(lp);
        self.transport
    }

    /// Register the session's sockets with the event loop under its
    /// tokens. The control stream starts read+write (the RTT echo is
    /// already queued); the probe socket starts dormant.
    pub fn register(&mut self, lp: &EventLoop) -> io::Result<()> {
        lp.register(
            self.transport.ctrl.as_raw_fd(),
            self.tokens.ctrl,
            self.ctrl_interest(),
        )?;
        lp.register(
            self.transport.udp.as_raw_fd(),
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

    /// Drain and forward (or drop, without a sink) the machine's trace.
    fn forward_trace(&mut self) {
        if let Some(machine) = self.machine.as_mut() {
            let events = machine.drain_trace();
            if let Some(SinkHandle(sink)) = &self.sink {
                for e in events {
                    sink.record(&e);
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
        self.machine.is_some() && self.exec != Exec::Done
    }

    /// The underlying machine, once the RTT phase built it. Exposed for
    /// contract tests (e.g. asserting `poll() == None` while
    /// [`command_in_flight`](Self::command_in_flight)); drivers and hosts
    /// must not feed it events of their own.
    pub fn machine_mut(&mut self) -> Option<&mut SessionMachine> {
        self.machine.as_mut()
    }

    /// Deregister from the loop, return the transport and the outcome.
    /// Calling it on a session that has not finished is a host bug,
    /// reported as an error outcome (the datapath is panic-free).
    pub fn finish(mut self, lp: &EventLoop) -> (SocketTransport, Result<Estimate, SlopsError>) {
        let outcome = self.outcome.take().unwrap_or_else(|| {
            Err(SlopsError::Transport(protocol_violation(
                "finish() before completion",
            )))
        });
        self.deregister(lp);
        (self.transport, outcome)
    }

    /// Remove the session's sockets from the loop (idempotent; called by
    /// [`finish`](Self::finish)).
    pub fn deregister(&mut self, lp: &EventLoop) {
        if self.registered {
            let _ = lp.deregister(self.transport.ctrl.as_raw_fd());
            let _ = lp.deregister(self.transport.udp.as_raw_fd());
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
                // Plain writability resumes a blast in `drive`.
                match self.transport.udp.take_error() {
                    Ok(Some(e)) => Err(TransportError::Io(format!("probe socket error: {e}"))),
                    _ => Ok(()),
                }
            }
            MuxEvent::Timer { token } if token == self.tokens.timer => self.handle_timer(lp),
            _ => return,
        };
        if let Err(e) = result.and_then(|()| self.drive(lp)) {
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
                self.transport.ctrl.as_raw_fd(),
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
                .flush(&mut &self.transport.ctrl)
                .map_err(ctrl_io_error)?;
            self.update_ctrl_interest(lp)?;
        }
        if readable {
            let open = self
                .ctrl_buf
                .fill(&mut &self.transport.ctrl)
                .map_err(ctrl_io_error)?;
            while let Some(msg) = self.ctrl_buf.take_frame().map_err(ctrl_io_error)? {
                self.on_frame(lp, msg)?;
                if self.exec == Exec::Done {
                    break;
                }
            }
            if !open && self.exec != Exec::Done {
                return Err(ctrl_io_error(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF on the control channel",
                )));
            }
        }
        Ok(())
    }

    /// One frame from the receiver: the core says what it means.
    fn on_frame(&mut self, lp: &mut EventLoop, msg: CtrlMsg) -> Result<(), TransportError> {
        let now = self.transport.clock.now_ns();
        match self.transport.core.on_ctrl(msg, now)? {
            Step::Write(frame) => self.queue_ctrl(lp, &frame),
            Step::Wait => Ok(()),
            Step::Done(Outcome::Event(event)) => self.feed(lp, event),
            Step::Done(Outcome::Rtt(rtt)) => {
                // cfg is held until the machine is built, here, once.
                let Some(cfg) = self.cfg.take() else {
                    return Err(protocol_violation("a second RTT phase"));
                };
                let max_rate = Some(self.transport.rate_cap);
                match SessionMachine::new(cfg, rtt, max_rate) {
                    Ok(machine) => {
                        self.machine = Some(machine);
                        self.advance(lp)
                    }
                    Err(e) => {
                        // Config was validated in `new`; unreachable in
                        // practice, but fail cleanly rather than panic.
                        self.exec = Exec::Done;
                        self.outcome = Some(Err(e));
                        Ok(())
                    }
                }
            }
        }
    }

    // ---- probe socket and timers ---------------------------------------

    /// Do what the core has due now, arm a timer entry for what it has
    /// due later, and while it is owed a frame keep the watchdog pending.
    /// Runs after every event: a `Ready` just read, a deadline just
    /// popped, a probe socket just turned writable all end up here.
    fn drive(&mut self, lp: &mut EventLoop) -> Result<(), TransportError> {
        while self.exec == Exec::Wire {
            let now = self.transport.clock.now_ns();
            match self.transport.core.due() {
                Due::Paced {
                    deadline,
                    allowance,
                } if deadline > now => {
                    if self.paced_armed != deadline {
                        self.paced_armed = deadline;
                        lp.arm_timer_within(deadline, allowance, self.tokens.timer);
                    }
                    break;
                }
                // Due, or overdue: the loop catches up on every deadline
                // that has passed.
                Due::Paced { .. } => self.send_paced(now)?,
                Due::Burst(n) => {
                    if !self.blast(lp, n)? {
                        break; // resumes on probe-socket writability
                    }
                }
                Due::None => {
                    match self.transport.core.ctrl_deadline() {
                        Some(deadline) if now >= deadline => self.transport.core.on_timeout(now)?,
                        Some(deadline) if self.watchdog.is_none() => {
                            self.watchdog = Some(deadline);
                            lp.arm_timer(deadline, self.tokens.timer);
                        }
                        _ => {}
                    }
                    break;
                }
            }
        }
        Ok(())
    }

    /// Send the stream packet whose deadline has come, stamped `now`. A
    /// send the socket refuses (back-pressure) cannot be retried — its
    /// deadline is now: the attempt is recorded honestly and the receiver
    /// counts it as loss. Hard socket errors abort the measurement.
    fn send_paced(&mut self, now: u64) -> Result<(), TransportError> {
        let Some(buf) = self.bufs.first_mut() else {
            return Err(protocol_violation("no packet buffer"));
        };
        self.transport.core.encode(0, now, buf);
        match self.transport.udp.send(buf) {
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(TransportError::Io(e.to_string())),
        }
        self.transport.core.sent(1, now);
        Ok(())
    }

    /// Send as much of a train's `due` packets as one `sendmmsg` batch
    /// holds and the UDP socket accepts — one kernel crossing per
    /// [`MAX_BATCH`] packets. `Ok(false)`: the socket back-pressured and
    /// write interest is set; the refused packets keep their place and
    /// the core stamps them again on the next attempt.
    fn blast(&mut self, lp: &EventLoop, due: u32) -> Result<bool, TransportError> {
        let k = (due as usize).min(self.bufs.len());
        for (j, buf) in self.bufs.iter_mut().take(k).enumerate() {
            let now = self.transport.clock.now_ns();
            self.transport.core.encode(j as u32, now, buf);
        }
        let sent = match send_batch(&self.transport.udp, self.bufs.get(..k).unwrap_or(&[])) {
            Ok(sent) => sent,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => 0,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => return Ok(true),
            Err(e) => return Err(TransportError::Io(e.to_string())),
        };
        let now = self.transport.clock.now_ns();
        self.transport.core.sent(sent as u32, now);
        // A refused packet (all of them, or a tail): wait out the
        // back-pressure on writability.
        let blocked = sent < k;
        if blocked != self.blast_blocked {
            self.blast_blocked = blocked;
            let interest = if blocked {
                Interest::WRITE
            } else {
                Interest::NONE
            };
            lp.set_interest(self.transport.udp.as_raw_fd(), self.tokens.probe, interest)
                .map_err(|e| TransportError::Io(e.to_string()))?;
        }
        Ok(!blocked)
    }

    /// One of this session's timer entries popped: an idle that elapsed
    /// feeds `Tick`; a paced deadline is sent by `drive`; the watchdog's
    /// makes room for the next (`drive` arms it if a frame is still owed,
    /// and fails the session if that frame is overdue).
    fn handle_timer(&mut self, lp: &mut EventLoop) -> Result<(), TransportError> {
        let now = self.transport.clock.now_ns();
        if self.watchdog.is_some_and(|at| now >= at) {
            self.watchdog = None;
        }
        match self.exec {
            Exec::AwaitTick { until } if now >= until => {
                self.feed(lp, Event::Tick(TimeNs::from_nanos(now)))
            }
            _ => Ok(()),
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
        let now = self.transport.clock.now_ns();
        match cmd {
            Command::Idle(dur) => {
                let until = now + dur.as_nanos();
                self.exec = Exec::AwaitTick { until };
                lp.arm_timer(until, self.tokens.timer);
                Ok(())
            }
            Command::Finish(est) => {
                let mut est = *est;
                est.elapsed = self.transport.elapsed().saturating_sub(self.start);
                self.exec = Exec::Done;
                self.outcome = Some(Ok(est));
                Ok(())
            }
            wire @ (Command::SendTrain { .. } | Command::SendStream(_)) => {
                let announce = self.transport.core.begin(&wire, now)?;
                self.exec = Exec::Wire;
                self.queue_ctrl(lp, &announce)
            }
        }
    }
}

/// A break of the command/event protocol between this session and the
/// machine — unreachable by construction of the pump (`feed`/`advance`
/// answer every command before polling again), and reported as an error
/// so the datapath stays panic-free.
fn protocol_violation(what: &str) -> TransportError {
    TransportError::Io(format!("machine protocol violated: {what}"))
}

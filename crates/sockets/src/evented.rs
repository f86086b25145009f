//! The sender's pump: the sans-IO machine driven from readiness events
//! and timers.
//!
//! [`EventedSession`] is a path's sender for the life of one
//! [`SocketTransport`]: it owns the connection and runs one measurement
//! on it at a time, driven strictly by the DRIVERS.md contract with
//! **no blocking call anywhere** — so a single thread can host hundreds
//! of these at once (`monitord`), or one on a loop of its own
//! ([`EventedSession::run_alone`], `pathload_snd`). What goes on the wire
//! is decided by the transport's protocol core ([`crate::tx`] has the
//! command→wire table); this module is the event-loop work around it:
//! control frames flushed on writability and parsed on readability,
//! a train blasted through `sendmmsg` (resuming on UDP writability if
//! the socket back-pressures), `Finish(est)` stamped with `elapsed` —
//! and, before the machine is built, the core's RTT exchange, whose
//! failure fails the measurement. **One timer**, re-armed after every
//! event, wakes the session for the next paced deadline, with the
//! lateness allowance the core gives it (the session's spacing
//! tolerance, handed to the core here), for the end of an `Idle(d)`,
//! answered with `Tick(clock)`, or for the deadline of the frame the core
//! is owed — never two at once.
//!
//! There is **no estimation logic here** (the repo invariant): loss
//! accounting, spacing validation, trend classification and the rate
//! search all stay in `slops::SessionMachine`. A send that would block
//! mid-stream is recorded at its attempted instant and dropped — the
//! receiver sees it as loss, which the machine already judges.
//!
//! A fleet host owns the event loop and the token space. It starts a
//! measurement with [`EventedSession::begin`] (which registers the two
//! sockets), routes every [`MuxEvent`] under the session's tokens into
//! [`EventedSession::on_event`], and collects the result with
//! [`EventedSession::take_outcome`] (which deregisters them): between
//! measurements the connection is not watched, since a reset idle
//! connection reports `EPOLLHUP` whatever its interest, and the timer is
//! disarmed. The session ignores every event while no measurement runs,
//! and each action re-checks the clock against the core, so a spurious
//! event does nothing.

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
/// them (disjoint per session) and routes events back by them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionTokens {
    /// Token of the control TCP stream registration.
    pub ctrl: u64,
    /// Token of the probe UDP socket registration.
    pub probe: u64,
    /// Token of this session's one timer, re-armed for each instant it
    /// must act at, for the connection's whole life.
    pub timer: u64,
}

impl Default for SessionTokens {
    /// Three distinct tokens: enough for a loop that hosts one session.
    fn default() -> SessionTokens {
        SessionTokens {
            ctrl: 0,
            probe: 1,
            timer: 2,
        }
    }
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
    /// No measurement runs: none begun, or its outcome is available.
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

/// A path's sender, driven by an event loop. See the module docs.
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
    /// Where the machine's trace events are forwarded (`None`: dropped).
    sink: Option<SinkHandle>,
    /// The packet buffers of one `sendmmsg` batch (a stream uses the
    /// first), kept across commands: the pacing path is timing-critical
    /// and must not touch the allocator per packet.
    bufs: Vec<Vec<u8>>,
    /// The probe socket back-pressured a blast: write interest is set.
    blast_blocked: bool,
}

impl EventedSession {
    /// The sender of `transport`'s connection, with no measurement
    /// running; a host routes events to it under `tokens`.
    pub fn new(transport: SocketTransport, tokens: SessionTokens) -> EventedSession {
        EventedSession {
            transport,
            machine: None,
            cfg: None,
            tokens,
            start: TimeNs::ZERO,
            ctrl_buf: CtrlBuf::new(MAX_FRAME_TO_SENDER),
            exec: Exec::Done,
            outcome: None,
            sink: None,
            bufs: vec![Vec::new(); MAX_BATCH],
            blast_blocked: false,
        }
    }

    /// Run one whole measurement on an event loop of its own, on the
    /// calling thread — `pathload_snd`'s host.
    pub fn run_alone(&mut self, cfg: SlopsConfig) -> Result<Estimate, SlopsError> {
        let mut lp = EventLoop::new(self.transport.clock.same_epoch()).map_err(io_error)?;
        self.begin(&lp, cfg)?;
        let mut events = Vec::new();
        loop {
            if let Some(outcome) = self.take_outcome(&lp) {
                return outcome;
            }
            events.clear();
            // The session's timer (a deadline, an idle's end, the owed
            // frame's) ends every wait long before this.
            match lp.wait(&mut events, CTRL_TIMEOUT) {
                Ok(()) => {
                    for ev in &events {
                        self.on_event(&mut lp, ev);
                    }
                }
                Err(e) => self.fail(io_error(e)),
            }
        }
    }

    /// Begin a measurement: register the two sockets with `lp` under the
    /// session's tokens and queue the RTT echo. The control stream starts
    /// read+write; the probe socket starts dormant. Refused before
    /// anything is registered if `cfg` does not validate.
    pub fn begin(&mut self, lp: &EventLoop, cfg: SlopsConfig) -> Result<(), SlopsError> {
        cfg.validate().map_err(SlopsError::BadConfig)?;
        let ctrl = self.transport.ctrl.as_raw_fd();
        lp.register(ctrl, self.tokens.ctrl, Interest::BOTH)
            .map_err(io_error)?;
        let probe = self.transport.udp.as_raw_fd();
        if let Err(e) = lp.register(probe, self.tokens.probe, Interest::NONE) {
            let _ = lp.deregister(ctrl);
            return Err(io_error(e));
        }
        self.transport
            .core
            .set_spacing_tolerance(cfg.spacing_tolerance);
        self.start = self.transport.elapsed();
        self.ctrl_buf = CtrlBuf::new(MAX_FRAME_TO_SENDER);
        self.ctrl_buf
            .queue(&self.transport.core.begin_rtt(self.start.as_nanos()));
        self.machine = None;
        self.cfg = Some(cfg);
        self.blast_blocked = false;
        self.exec = Exec::Wire;
        Ok(())
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

    /// The connection this sender owns.
    pub fn transport(&self) -> &SocketTransport {
        &self.transport
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

    /// The measurement's outcome once it has one (estimate or error),
    /// the sockets then deregistered from `lp`; `None` while it runs or
    /// when none was begun.
    pub fn take_outcome(&mut self, lp: &EventLoop) -> Option<Result<Estimate, SlopsError>> {
        let outcome = self.outcome.take()?;
        let _ = lp.deregister(self.transport.ctrl.as_raw_fd());
        let _ = lp.deregister(self.transport.udp.as_raw_fd());
        Some(outcome)
    }

    /// End the running measurement with `error`.
    fn fail(&mut self, error: SlopsError) {
        self.exec = Exec::Done;
        self.outcome = Some(Err(error));
    }

    /// Route one event-loop event into the session, then arm its timer
    /// for the next instant it must act at (none once the measurement is
    /// over). Events whose token does not belong to this session, and
    /// every event while no measurement runs, are ignored.
    pub fn on_event(&mut self, lp: &mut EventLoop, ev: &MuxEvent) {
        let result = match *ev {
            _ if self.exec == Exec::Done => return,
            // An idle that elapsed feeds `Tick`; a deadline that came, or
            // an overdue frame, is `drive`'s.
            MuxEvent::Timer { token } if token == self.tokens.timer => {
                let now = self.transport.clock.now_ns();
                match self.exec {
                    Exec::AwaitTick { until } if now >= until => {
                        self.feed(lp, Event::Tick(TimeNs::from_nanos(now)))
                    }
                    _ => Ok(()),
                }
            }
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
            _ => return,
        };
        if let Err(e) = result.and_then(|()| self.drive(lp)) {
            self.fail(SlopsError::Transport(e));
        }
        match self.next_wake() {
            Some((at, allowance)) => lp.arm_timer(at, allowance, self.tokens.timer),
            None => _ = lp.disarm_timer(self.tokens.timer),
        }
    }

    /// The next instant the session must act at without an I/O event, and
    /// how late it may act: the next paced deadline, an idle's end, or
    /// the owed frame's deadline.
    fn next_wake(&self) -> Option<(u64, u64)> {
        match self.exec {
            Exec::AwaitTick { until } => Some((until, 0)),
            Exec::Done => None,
            Exec::Wire => match self.transport.core.due() {
                Due::Paced {
                    deadline,
                    allowance,
                } => Some((deadline, allowance)),
                // A blast waits on writability.
                Due::Burst(_) => None,
                Due::None => self.transport.core.ctrl_deadline().map(|at| (at, 0)),
            },
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
        lp.set_interest(
            self.transport.ctrl.as_raw_fd(),
            self.tokens.ctrl,
            self.ctrl_interest(),
        )
        .map_err(|e| TransportError::Io(e.to_string()))
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
                        // Config was validated in `begin`; unreachable in
                        // practice, but fail cleanly rather than panic.
                        self.fail(e);
                        Ok(())
                    }
                }
            }
        }
    }

    // ---- probe socket and timers ---------------------------------------

    /// Do what the core has due now, and fail the measurement once the
    /// frame it is owed is overdue. Runs after every event: a `Ready` just
    /// read, a deadline just popped, a probe socket just turned writable
    /// all end up here.
    fn drive(&mut self, lp: &mut EventLoop) -> Result<(), TransportError> {
        while self.exec == Exec::Wire {
            let now = self.transport.clock.now_ns();
            match self.transport.core.due() {
                Due::Paced { deadline, .. } if deadline > now => break,
                // Due, or overdue: the loop catches up on every deadline
                // that has passed.
                Due::Paced { .. } => self.send_paced(now)?,
                Due::Burst(n) => {
                    if !self.blast(lp, n)? {
                        break; // resumes on probe-socket writability
                    }
                }
                Due::None => {
                    self.transport.core.on_timeout(now)?;
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
                self.exec = Exec::AwaitTick {
                    until: now + dur.as_nanos(),
                };
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

fn io_error(e: io::Error) -> SlopsError {
    SlopsError::Transport(TransportError::Io(e.to_string()))
}

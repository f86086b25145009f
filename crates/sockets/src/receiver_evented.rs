//! The pathload receiver (`pathload_rcv`): one thread, thousands of
//! concurrent sessions.
//!
//! [`EventedReceiver`] is the *pump* over the sans-IO protocol core in
//! [`crate::rx`] — admission, collection and stop rules and reports are
//! decided there — hosted on one [`mux::EventLoop`](crate::mux::EventLoop).
//! What this module owns is the substrate:
//!
//! * the control listener accepts non-blocking, pausing on the core's
//!   [`AcceptBackoff`] after an accept error (EMFILE & co.) instead of
//!   hot-looping; each connection the core's [`Admission`] desk admits
//!   becomes a slot in a session slab: a non-blocking control stream, its
//!   [`CtrlBuf`] frame buffer, and its [`RxSession`];
//! * the shared UDP probe socket is folded into the same loop and read
//!   **on the core's schedule, not on every datagram**. The kernel stamps
//!   each datagram as it lands (`SO_TIMESTAMPNS`,
//!   [`batch::prepare_probe_socket`]); a drain reads the socket in
//!   `recvmmsg` batches ([`batch::UdpRecvBatch`]), maps each datagram's
//!   own stamp onto the receiver's clock — the core's timestamp contract
//!   — and hands each packet to its session's core by token. A datagram
//!   whose token no live session owns (stale, never issued, foreign) is
//!   dropped and counted, so a late packet of a finished session never
//!   reaches a live collection. When to drain is
//!   [`rx::plan_reads`](crate::rx::plan_reads)' answer: between drains
//!   the socket's epoll interest is `NONE` and a timer ends the wait —
//!   the receiver's loop is sleep-only ([`EventLoop::sleep_only`]) — one
//!   learned wake-up error early so the drain at a stream's due instant
//!   hands over to readability before the last packet lands and the
//!   report leaves as it does. The socket is read on readability instead
//!   while nothing is collecting, while a train or a stream's first or
//!   overdue last packet is in flight, after the kernel dropped datagrams
//!   for want of buffer during a collection, and whenever the kernel does
//!   not stamp;
//! * the core's tick is a sleep-only timer entry: a collecting session
//!   re-arms one every [`POLL_TIMEOUT`] under its slot's token. While
//!   reads are deferred the socket is drained before every tick, so the
//!   stop rules see every arrival.
//!
//! The loop cancels no timer. The receiver records the instant of each
//! timer it arms — a slot's `tick_at`, the receiver's `drain_at` — and
//! honours a pop only when that recorded instant has come, before acting
//! on it. Entries pop in deadline order, so a stale entry (the tick of a
//! closed slot or of a finished collection, a superseded drain) finds no
//! instant or a later one and is dropped; it costs one loop wake-up when
//! it comes due, about one per collection.
//!
//! The plan is made again only when something it depends on changes — a
//! collection begins or ends, a stream's first arrival moves its due
//! instant, the kernel overflows the buffer, a planned drain comes due —
//! so a turn of the loop costs its events, not a walk over every
//! collecting session.
//!
//! Route/drop accounting is the core's `RecvCounters`; the receiver adds
//! a `receiver_sessions` gauge (live sessions) and a
//! `receiver_recv_batch_size` histogram (datagrams per kernel crossing).
//! Arrivals go straight into the core, with no queue in between to fill
//! up, so the only datagrams lost inside the receiver are the ones the
//! kernel dropped for want of buffer (`rcvbuf`).
//!
//! Linux only, like every socket module of the crate: the loop is epoll
//! and a timerfd, and reading on a plan needs the kernel's arrival
//! stamps.

// Datapath module: a panicking branch here takes the whole fleet down,
// so `unwrap`/`expect` are denied outright (errors must travel as values).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::batch::{self, UdpRecvBatch};
use crate::clock::MonoClock;
use crate::mux::{EventLoop, Interest, MuxEvent};
use crate::proto::{CtrlBuf, CtrlMsg, ProbePacket, MAX_FRAME_TO_RECEIVER};
use crate::rx::{
    plan_reads, AcceptBackoff, Admission, CtrlAction, ReadPlan, RxSession, POLL_TIMEOUT,
};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use telemetry::{Gauge, Histogram};

/// Event-loop token of the control listener.
const TOK_LISTEN: u64 = 1 << 60;
/// Event-loop token of the shared UDP probe socket.
const TOK_UDP: u64 = (1 << 60) + 1;
/// Timer token re-enabling a backed-off listener.
const TOK_ACCEPT_RESUME: u64 = (1 << 60) + 2;
/// Timer token of the planned drain.
const TOK_DRAIN: u64 = (1 << 60) + 3;
/// Session-slot tokens live below this bound.
const TOK_SLOT_MAX: u64 = 1 << 60;

/// How many `recvmmsg` batches one drain may read before yielding back to
/// the loop, so a datagram flood cannot starve control traffic and
/// timers indefinitely (a drain cut short leaves the socket on
/// readability until one empties it).
const MAX_BATCHES_PER_WAKEUP: usize = 64;

/// Largest probe datagram the receive buffers accommodate.
const RECV_BUF_LEN: usize = 2048;

/// A random 64-bit base for a receiver's session tokens (std's OS-seeded
/// hasher entropy; no dependency), drawn once per incarnation and handed
/// to the sans-IO [`Admission`] desk.
fn random_token_base() -> u64 {
    RandomState::new().build_hasher().finish()
}

/// One live session: a non-blocking control connection, its frame
/// buffer, and the protocol core deciding what it means.
#[derive(Debug)]
struct Slot {
    ctrl: TcpStream,
    io: CtrlBuf,
    core: RxSession,
    /// Where the slot sits in the receiver's `collecting` list, while its
    /// core is collecting.
    collecting_at: Option<usize>,
    /// The instant the slot's pending tick is armed for (`None`: no tick
    /// owed; a tick timer that pops finds this, or a later instant, when
    /// it is stale).
    tick_at: Option<u64>,
}

impl Slot {
    /// Move bytes and frames between the socket and the core. `Ok(false)`
    /// means the session ended cleanly (`Bye`, or EOF).
    fn on_io(&mut self, readable: bool, writable: bool, now_ns: u64) -> io::Result<bool> {
        if writable {
            self.io.flush(&mut self.ctrl)?;
        }
        if readable {
            let open = self.io.fill(&mut self.ctrl)?;
            while let Some(msg) = self.io.take_frame()? {
                match self.core.on_ctrl(msg, now_ns)? {
                    CtrlAction::Reply(reply) => self.io.queue(&reply),
                    CtrlAction::Close => {
                        // Best-effort flush of anything still queued.
                        let _ = self.io.flush(&mut self.ctrl);
                        return Ok(false);
                    }
                }
            }
            if !open {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// The pathload receiver: one TCP control listener, one shared UDP probe
/// socket, one event-loop thread, any number of sessions. See the module
/// docs.
pub struct EventedReceiver {
    listener: TcpListener,
    /// Bound control address, captured at bind time so `ctrl_addr` has no
    /// error (or panic) path.
    ctrl_addr: SocketAddr,
    udp: UdpSocket,
    clock: MonoClock,
    lp: EventLoop,
    batch: UdpRecvBatch,
    sessions: Vec<Option<Slot>>,
    free: Vec<usize>,
    by_token: HashMap<u64, usize>,
    /// Slots whose core is collecting: the read plan's inputs.
    collecting: Vec<usize>,
    /// Something the read plan depends on changed since it was made (a
    /// collection began or ended, a first arrival moved a due instant, an
    /// overflow, a planned drain came due): plan again after this turn.
    /// Between such changes the plan stands, so a turn costs O(events),
    /// not O(collecting sessions).
    replan: bool,
    admission: Admission,
    /// The kernel stamps probe arrivals (and has stamped every one read
    /// so far): only then may reads wait for the plan.
    stamps: bool,
    /// The probe socket's effective receive buffer in bytes (0: unknown).
    rcvbuf: u64,
    /// The last drain stopped at its batch budget with datagrams left.
    backlog: bool,
    /// The probe socket's epoll interest is readable (else `NONE`).
    udp_reading: bool,
    /// The instant the pending drain timer is armed for (a drain timer
    /// that pops before it, or with none pending, is stale).
    drain_at: Option<u64>,
    /// Live sessions right now.
    sessions_gauge: Gauge,
    /// Datagrams per kernel crossing of the probe socket.
    batch_hist: Histogram,
    backoff: AcceptBackoff,
    accept_paused: bool,
}

impl EventedReceiver {
    /// Bind to `addr` (port 0 for ephemeral; std sets `SO_REUSEADDR` on
    /// Unix, so a restarted receiver rebinds the same port immediately).
    /// The UDP probe socket binds the same IP with its own ephemeral
    /// port, advertised in every `Hello`.
    pub fn bind(addr: SocketAddr) -> io::Result<EventedReceiver> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let ctrl_addr = listener.local_addr()?;
        let mut udp_addr = ctrl_addr;
        udp_addr.set_port(0);
        let udp = UdpSocket::bind(udp_addr)?;
        udp.set_nonblocking(true)?;
        let probe = batch::prepare_probe_socket(&udp);
        let admission = Admission::new(udp.local_addr()?.port(), random_token_base());
        let clock = MonoClock::new();
        let lp = EventLoop::sleep_only(clock.clone())?;
        lp.register(listener.as_raw_fd(), TOK_LISTEN, Interest::READ)?;
        lp.register(udp.as_raw_fd(), TOK_UDP, Interest::READ)?;
        Ok(EventedReceiver {
            listener,
            ctrl_addr,
            udp,
            clock,
            lp,
            batch: UdpRecvBatch::new(batch::MAX_BATCH, RECV_BUF_LEN),
            sessions: Vec::new(),
            free: Vec::new(),
            by_token: HashMap::new(),
            collecting: Vec::new(),
            replan: false,
            admission,
            stamps: probe.stamps,
            rcvbuf: probe.rcvbuf as u64,
            backlog: false,
            udp_reading: true,
            drain_at: None,
            sessions_gauge: Gauge::new(),
            batch_hist: Histogram::new(),
            backoff: AcceptBackoff::new(),
            accept_paused: false,
        })
    }

    /// The control-channel address senders should connect to.
    pub fn ctrl_addr(&self) -> SocketAddr {
        self.ctrl_addr
    }

    /// Cap concurrent sessions at `max` (`0` = unlimited, the default).
    /// Beyond the cap a new connection is answered with a **versioned
    /// [`CtrlMsg::Deny`]** (code
    /// [`DENY_AT_CAPACITY`](crate::proto::DENY_AT_CAPACITY)) instead of
    /// `Hello`: the sender gets a clean "receiver at capacity" error
    /// instead of a hung session, and sessions already running are
    /// untouched.
    pub fn with_max_sessions(mut self, max: usize) -> EventedReceiver {
        self.admission.set_max_sessions(max);
        self
    }

    /// Force the scalar receive loop instead of `recvmmsg` (the
    /// batching-correctness test pins both paths identical).
    pub fn with_scalar_recv(mut self, scalar: bool) -> EventedReceiver {
        self.batch.set_scalar(scalar);
        self
    }

    /// Attach the receiver's metrics to `reg`: the core's
    /// `receiver_demux_*`/`receiver_collect_*`/`receiver_sessions_denied_total`
    /// families, the `receiver_sessions` gauge and the
    /// `receiver_recv_batch_size` histogram. The counters count from
    /// [`EventedReceiver::bind`] on; registering merely names them.
    pub fn register_metrics(&self, reg: &telemetry::Registry) {
        self.admission.counters().register(reg);
        reg.register_gauge("receiver_sessions", &[], self.sessions_gauge.clone());
        reg.register_histogram("receiver_recv_batch_size", &[], self.batch_hist.clone());
    }

    /// Serve until `stop` turns true (checked between event-loop waits,
    /// so shutdown latency is bounded by `POLL_TIMEOUT`).
    pub fn run(&mut self, stop: &AtomicBool) -> io::Result<()> {
        let mut events = Vec::new();
        while !stop.load(Ordering::Relaxed) {
            self.turn(&mut events)?;
        }
        Ok(())
    }

    /// One turn of the loop: wait, serve what came, and plan the next
    /// reads if what the plan depends on changed.
    fn turn(&mut self, events: &mut Vec<MuxEvent>) -> io::Result<()> {
        events.clear();
        self.lp.wait(events, POLL_TIMEOUT)?;
        for ev in events.iter() {
            self.dispatch(ev);
        }
        if std::mem::take(&mut self.replan) {
            self.plan_probe_reads();
        }
        Ok(())
    }

    fn dispatch(&mut self, ev: &MuxEvent) {
        match *ev {
            MuxEvent::Io(r) if r.token == TOK_LISTEN => self.on_accept_ready(),
            MuxEvent::Io(r) if r.token == TOK_UDP && r.readable => self.drain_probes(),
            MuxEvent::Io(r) if r.token < TOK_SLOT_MAX => {
                self.on_session_io(r.token as usize, r.readable, r.writable);
            }
            MuxEvent::Timer {
                token: TOK_ACCEPT_RESUME,
            } => self.resume_accepting(),
            // A drain before its recorded instant, or with none pending,
            // is stale: dropped below.
            MuxEvent::Timer { token: TOK_DRAIN }
                if self.drain_at.is_some_and(|at| at <= self.clock.now_ns()) =>
            {
                self.drain_at = None;
                self.replan = true;
                self.drain_probes();
            }
            MuxEvent::Timer { token } if token < TOK_SLOT_MAX => {
                self.on_tick_timer(token as usize);
            }
            _ => {}
        }
    }

    /// Move the receiver onto its own thread; the handle stops and joins
    /// it. (The receiver outlives any number of fleets: sessions come and
    /// go, the thread serves until [`EventedReceiverHandle::stop`].)
    pub fn spawn(self) -> EventedReceiverHandle {
        let addr = self.ctrl_addr();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let mut rx = self;
        let join = std::thread::spawn(move || rx.run(&stop2));
        EventedReceiverHandle { addr, stop, join }
    }

    // ---- accept path ---------------------------------------------------

    fn on_accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((ctrl, _peer)) => {
                    self.backoff.on_success();
                    self.admit(ctrl);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    // Persistent accept errors (EMFILE & co.) are level-
                    // triggered: deregister the listener and re-enable it
                    // after a bounded backoff instead of hot-looping.
                    let delay = self.backoff.on_error();
                    eprintln!("receiver: accept error: {e} (pausing accepts for {delay:?})");
                    if self.lp.deregister(self.listener.as_raw_fd()).is_ok() {
                        self.accept_paused = true;
                        let deadline = self.clock.now_ns() + delay.as_nanos() as u64;
                        self.lp.arm_timer(deadline, TOK_ACCEPT_RESUME);
                    }
                    break;
                }
            }
        }
    }

    fn resume_accepting(&mut self) {
        if self.accept_paused
            && self
                .lp
                .register(self.listener.as_raw_fd(), TOK_LISTEN, Interest::READ)
                .is_ok()
        {
            self.accept_paused = false;
            self.on_accept_ready();
        }
    }

    /// Offer one accepted control connection to the admission desk: queue
    /// the `Hello` and register the slot, or send the `Deny` and drop it.
    fn admit(&mut self, mut ctrl: TcpStream) {
        let _ = ctrl.set_nodelay(true);
        if ctrl.set_nonblocking(true).is_err() {
            return;
        }
        let mut io = CtrlBuf::new(MAX_FRAME_TO_RECEIVER);
        let core = match self.admission.admit(self.by_token.len()) {
            Ok((core, hello)) => {
                io.queue(&hello);
                core
            }
            Err(deny) => {
                // Best-effort single write: the frame is a handful of bytes
                // and the socket buffer of a fresh connection always holds it.
                io.queue(&deny);
                let _ = io.flush(&mut ctrl);
                return;
            }
        };
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.sessions.push(None);
                self.sessions.len() - 1
            }
        };
        if self
            .lp
            .register(ctrl.as_raw_fd(), slot as u64, Interest::BOTH)
            .is_err()
        {
            self.free.push(slot);
            return;
        }
        self.by_token.insert(core.token(), slot);
        if let Some(entry) = self.sessions.get_mut(slot) {
            *entry = Some(Slot {
                ctrl,
                io,
                core,
                collecting_at: None,
                tick_at: None,
            });
        }
        self.sessions_gauge.set(self.by_token.len() as i64);
    }

    /// Tear a slot down: deregister, free the token (a pending tick finds
    /// the slot empty, or another session's, and is dropped).
    fn close_session(&mut self, slot: usize) {
        self.stop_collecting(slot);
        if let Some(sess) = self.sessions.get_mut(slot).and_then(Option::take) {
            let _ = self.lp.deregister(sess.ctrl.as_raw_fd());
            self.by_token.remove(&sess.core.token());
            self.free.push(slot);
            self.sessions_gauge.set(self.by_token.len() as i64);
        }
    }

    /// The slot's core began collecting: it shapes the read plan.
    fn start_collecting(&mut self, slot: usize) {
        if let Some(sess) = self.sessions.get_mut(slot).and_then(Option::as_mut) {
            if sess.collecting_at.is_none() {
                sess.collecting_at = Some(self.collecting.len());
                self.collecting.push(slot);
                self.replan = true;
            }
        }
    }

    /// The slot's collection is over (report shipped, or the session
    /// closed): it no longer shapes the read plan.
    fn stop_collecting(&mut self, slot: usize) {
        let Some(i) = self
            .sessions
            .get_mut(slot)
            .and_then(Option::as_mut)
            .and_then(|sess| sess.collecting_at.take())
        else {
            return;
        };
        self.collecting.swap_remove(i);
        // The last slot of the list moved into the hole.
        if let Some(&moved) = self.collecting.get(i) {
            if let Some(sess) = self.sessions.get_mut(moved).and_then(Option::as_mut) {
                sess.collecting_at = Some(i);
            }
        }
        self.replan = true;
    }

    /// A session failed (socket or protocol error): say so, close it.
    fn fail_session(&mut self, slot: usize, e: &io::Error) {
        if let Some(sess) = self.sessions.get(slot).and_then(Option::as_ref) {
            eprintln!("session error: {e} (session {:#018x})", sess.core.token());
        }
        self.close_session(slot);
    }

    // ---- control channel per session -----------------------------------

    fn on_session_io(&mut self, slot: usize, readable: bool, writable: bool) {
        let now = self.clock.now_ns();
        let Some(sess) = self.sessions.get_mut(slot).and_then(Option::as_mut) else {
            return; // stale event for an already-closed slot
        };
        let was_collecting = sess.core.is_collecting();
        match sess.on_io(readable, writable, now) {
            Ok(true) => {
                if !was_collecting && sess.core.is_collecting() {
                    Self::arm_tick(&mut self.lp, sess, slot, now);
                    self.start_collecting(slot);
                }
                self.update_interest(slot);
            }
            Ok(false) => self.close_session(slot),
            Err(e) => self.fail_session(slot, &e),
        }
    }

    /// Re-point epoll at what the slot's write buffer implies.
    fn update_interest(&mut self, slot: usize) {
        if let Some(sess) = self.sessions.get(slot).and_then(Option::as_ref) {
            let interest = if sess.io.wants_write() {
                Interest::BOTH
            } else {
                Interest::READ
            };
            let _ = self
                .lp
                .set_interest(sess.ctrl.as_raw_fd(), slot as u64, interest);
        }
    }

    /// Arm the session's next tick under its slot's token and record its
    /// instant. A tick means "not before": sleep-only.
    fn arm_tick(lp: &mut EventLoop, sess: &mut Slot, slot: usize, now: u64) {
        let at = now + POLL_TIMEOUT.as_nanos() as u64;
        sess.tick_at = Some(at);
        lp.arm_timer(at, slot as u64);
    }

    // ---- probe datagrams -----------------------------------------------

    /// Read the probe socket until it is empty (or the batch budget is
    /// spent), stamping each datagram with the kernel's arrival instant
    /// on the receiver's clock.
    fn drain_probes(&mut self) {
        let backlog = self.read_batches();
        if backlog != self.backlog {
            self.backlog = backlog;
            self.replan = true;
        }
    }

    /// [`EventedReceiver::drain_probes`]' reads: true when the batch
    /// budget ran out before the socket was empty.
    fn read_batches(&mut self) -> bool {
        for _ in 0..MAX_BATCHES_PER_WAKEUP {
            let n = match self.batch.recv(&self.udp) {
                Ok(n) => n,
                // Empty, or a transient error the next drain retries.
                Err(_) => return false,
            };
            let stamps = self.clock.realtime_map();
            self.batch_hist.observe(n as u64);
            let dropped = self.batch.take_drops();
            if dropped > 0 {
                self.on_overflow(dropped);
            }
            for i in 0..n {
                let stamp = self.batch.stamp(i);
                if stamp.is_none() && self.stamps {
                    self.stamps = false;
                    self.replan = true;
                }
                if let Some(packet) = ProbePacket::decode(self.batch.msg(i)) {
                    self.demux(&packet, stamps.recv_ns(stamp));
                }
            }
        }
        true
    }

    /// The kernel dropped `dropped` probe datagrams for want of buffer:
    /// count them, and tell every running collection (the core sends it
    /// back to reading on every arrival).
    fn on_overflow(&mut self, dropped: u64) {
        self.admission.counters().drop_rcvbuf.add(dropped);
        for &slot in &self.collecting {
            if let Some(sess) = self.sessions.get_mut(slot).and_then(Option::as_mut) {
                sess.core.on_rcvbuf_overflow();
            }
        }
        self.replan = true;
    }

    /// Point the probe socket's reads where the core's plan says: on
    /// readability, or a drain timer one learned wake-up error before the
    /// planned instant (so a drain at a stream's due instant finds it due
    /// and hands over to readability before its last packet lands).
    fn plan_probe_reads(&mut self) {
        let lead = self.lp.wake_error_ns();
        let plan = if self.stamps && !self.backlog {
            let sessions = &self.sessions;
            let demands = self.collecting.iter().filter_map(|&slot| {
                sessions
                    .get(slot)
                    .and_then(Option::as_ref)
                    .and_then(|sess| sess.core.read_demand())
            });
            plan_reads(demands, self.clock.now_ns() + lead, self.rcvbuf)
        } else {
            ReadPlan::OnReadable
        };
        match plan {
            ReadPlan::OnReadable => {
                // A pending drain timer becomes stale.
                self.drain_at = None;
                self.set_udp_reading(true);
            }
            ReadPlan::At(at) => {
                let at = at.saturating_sub(lead);
                // An earlier pending drain serves as well: it drains and
                // plans again. A later one becomes stale.
                if self.drain_at.is_none_or(|pending| at < pending) {
                    self.lp.arm_timer(at, TOK_DRAIN);
                    self.drain_at = Some(at);
                }
                self.set_udp_reading(false);
            }
        }
    }

    /// Set the probe socket's epoll interest to readable or `NONE`; an
    /// `epoll_ctl` only when it changes.
    fn set_udp_reading(&mut self, reading: bool) {
        let interest = if reading {
            Interest::READ
        } else {
            Interest::NONE
        };
        if reading != self.udp_reading {
            match self
                .lp
                .set_interest(self.udp.as_raw_fd(), TOK_UDP, interest)
            {
                Ok(()) => self.udp_reading = reading,
                // Try again after the next turn.
                Err(_) => self.replan = true,
            }
        }
    }

    /// Hand one decoded probe packet to the session owning its token.
    fn demux(&mut self, packet: &ProbePacket, recv_ns: u64) {
        let counters = self.admission.counters();
        let Some(&slot) = self.by_token.get(&packet.session) else {
            counters.drop_unknown_token.inc();
            return;
        };
        counters.routed.inc();
        let Some(sess) = self.sessions.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let demand = sess.core.read_demand();
        let report = sess.core.on_probe(packet, recv_ns);
        // A stream's first arrival moves its due instant.
        self.replan |= sess.core.read_demand() != demand;
        if let Some(report) = report {
            self.send_report(slot, &report);
        }
    }

    // ---- ticks and reports ---------------------------------------------

    /// A session's tick timer fired: unless it is stale (the slot's
    /// recorded tick instant has not come), let the core evaluate its
    /// stop rules — after draining the probe socket if its reads are
    /// deferred, so the rules see every arrival (on readability, the loop
    /// hands every arrival over as it lands) — and re-arm while it keeps
    /// collecting.
    fn on_tick_timer(&mut self, slot: usize) {
        let now = self.clock.now_ns();
        let Some(sess) = self.sessions.get_mut(slot).and_then(Option::as_mut) else {
            return; // the tick of a closed slot
        };
        if sess.tick_at.is_none_or(|at| at > now) {
            return; // a finished collection's, or a closed slot's successor's
        }
        sess.tick_at = None;
        if !self.udp_reading {
            self.drain_probes();
        }
        let now = self.clock.now_ns();
        let Some(sess) = self.sessions.get_mut(slot).and_then(Option::as_mut) else {
            return; // the drain failed the session
        };
        match sess.core.on_tick(now) {
            Some(report) => self.send_report(slot, &report),
            None if sess.core.is_collecting() => Self::arm_tick(&mut self.lp, sess, slot, now),
            None => {}
        }
    }

    /// Ship a finished collection's report: drop the pending tick (its
    /// timer goes stale), print the drop warning the collection earned, if
    /// any, queue the frame, push what the socket takes now (the rest
    /// rides on writability).
    fn send_report(&mut self, slot: usize, report: &CtrlMsg) {
        self.stop_collecting(slot);
        let Some(sess) = self.sessions.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if let Some(warning) = self.admission.drop_warning(&mut sess.core) {
            eprintln!("{warning}");
        }
        sess.tick_at = None;
        sess.io.queue(report);
        match sess.io.flush(&mut sess.ctrl) {
            Ok(()) => self.update_interest(slot),
            Err(e) => self.fail_session(slot, &e),
        }
    }
}

/// A spawned [`EventedReceiver`]: stoppable, joinable.
pub struct EventedReceiverHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: JoinHandle<io::Result<()>>,
}

impl EventedReceiverHandle {
    /// The control-channel address senders should connect to.
    pub fn ctrl_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the receiver thread and join it (sockets close with it, so a
    /// successor can rebind the same port immediately — `SO_REUSEADDR`,
    /// which std sets on Unix).
    pub fn stop(self) -> io::Result<()> {
        self.stop.store(true, Ordering::SeqCst);
        match self.join.join() {
            Ok(r) => r,
            Err(_) => Err(io::Error::other("receiver thread panicked")),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::proto::PROTO_VERSION;
    use crate::sender::{connect_ctrl, SocketTransport};

    fn bind() -> EventedReceiver {
        EventedReceiver::bind("127.0.0.1:0".parse().unwrap()).unwrap()
    }

    #[test]
    fn hello_echo_bye_roundtrip() {
        let rx = bind();
        let addr = rx.ctrl_addr();
        let h = rx.spawn();
        let (mut ctrl, core, udp_port) = connect_ctrl(addr).unwrap();
        assert_ne!(udp_port, 0);
        assert_ne!(core.session(), 0);
        CtrlMsg::Echo { token: 42 }.write_to(&mut ctrl).unwrap();
        match CtrlMsg::read_from(&mut ctrl).unwrap() {
            CtrlMsg::Echo { token } => assert_eq!(token, 42),
            other => panic!("expected echo, got {other:?}"),
        }
        CtrlMsg::Bye.write_to(&mut ctrl).unwrap();
        drop(ctrl);
        h.stop().unwrap();
    }

    #[test]
    fn session_cap_refuses_with_versioned_deny() {
        let rx = bind().with_max_sessions(1);
        let addr = rx.ctrl_addr();
        let h = rx.spawn();
        let first = connect_ctrl(addr).expect("first session fits");
        let err = connect_ctrl(addr).expect_err("second session must be denied");
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
        let msg = err.to_string();
        assert!(msg.contains("capacity"), "{msg}");
        assert!(msg.contains(&format!("v{PROTO_VERSION}")), "{msg}");
        drop(first);
        h.stop().unwrap();
    }

    /// The token the receiver's admission desk would hand the next sender.
    fn mint_token(rx: &mut EventedReceiver) -> u64 {
        let (session, _hello) = rx.admission.admit(0).expect("uncapped");
        session.token()
    }

    #[test]
    fn tokens_are_unique_per_receiver() {
        let mut rx = bind();
        assert_ne!(mint_token(&mut rx), mint_token(&mut rx));
    }

    /// Two receiver incarnations mint from different random bases: a
    /// token from one can essentially never be live on the other, so
    /// probes stamped with a pre-restart token are dropped by the demux
    /// instead of contaminating the restarted receiver's sessions.
    #[test]
    fn token_bases_differ_across_receiver_incarnations() {
        let base_a = mint_token(&mut bind());
        let base_b = mint_token(&mut bind());
        assert_ne!(base_a, base_b, "restarted receiver reused its token base");
    }

    /// A probe datagram carrying `session` as its token.
    fn stray_probe(session: u64) -> [u8; crate::proto::PROBE_HEADER_LEN] {
        let mut buf = [0u8; crate::proto::PROBE_HEADER_LEN];
        ProbePacket {
            session,
            kind: crate::proto::ProbeKind::Stream,
            id: 1,
            idx: 0,
            send_ns: 0,
        }
        .encode(&mut buf);
        buf
    }

    /// Datagrams carrying a token no live session owns are dropped *and
    /// counted*: the by-design drop is visible in the registry.
    #[test]
    fn unknown_token_datagrams_are_counted_as_drops() {
        let rx = bind();
        let reg = telemetry::Registry::new();
        rx.register_metrics(&reg);
        let drops = reg.counter("receiver_demux_drops_total", &[("reason", "unknown_token")]);
        let addr = rx.ctrl_addr();
        let h = rx.spawn();
        let (ctrl, core, udp_port) = connect_ctrl(addr).unwrap();
        let buf = stray_probe(core.session().wrapping_add(0xdead)); // never issued
        let udp = UdpSocket::bind("127.0.0.1:0").unwrap();
        let target = SocketAddr::new(addr.ip(), udp_port);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while drops.get() == 0 && std::time::Instant::now() < deadline {
            udp.send_to(&buf, target).unwrap();
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert!(drops.get() > 0, "unknown-token drop was not counted");
        drop(ctrl);
        h.stop().unwrap();
    }

    /// A sender, on its one-session host, measures against the evented
    /// receiver: the first and every paced packet routed.
    #[test]
    fn sender_measures_through_the_evented_receiver() {
        use slops::SlopsConfig;
        use units::{Rate, TimeNs};
        let _timed = crate::timing_test_lock();
        let rx = bind();
        let reg = telemetry::Registry::new();
        rx.register_metrics(&reg);
        let routed = reg.counter("receiver_demux_routed_total", &[]);
        let addr = rx.ctrl_addr();
        let h = rx.spawn();
        let mut tx = SocketTransport::connect(addr).unwrap();
        tx.rate_cap = Rate::from_mbps(40.0);
        let paced = telemetry::Histogram::new();
        tx.set_pacing_histogram(paced.clone());
        let mut cfg = SlopsConfig::default();
        cfg.min_period = TimeNs::from_millis(1);
        cfg.stream_len = 50;
        cfg.fleet_len = 2;
        cfg.resolution = Rate::from_mbps(10.0);
        cfg.grey_resolution = Rate::from_mbps(20.0);
        cfg.max_fleets = 2;
        let mut tx = crate::EventedSession::new(tx, Default::default());
        let est = tx.run_alone(cfg).unwrap();
        assert!(est.low <= est.high && !est.fleets.is_empty());
        assert!(paced.count() >= 100, "two 50-packet streams at least");
        drop(tx);
        h.stop().unwrap();
        // Every paced packet plus the initial train's made it through the
        // demux; loopback loses none worth a tolerance.
        assert!(
            routed.get() > paced.count(),
            "routed {} of {} paced",
            routed.get(),
            paced.count()
        );
    }

    /// Turn `rx` until `done` holds (at most 5 s).
    fn turn_until(rx: &mut EventedReceiver, mut done: impl FnMut(&EventedReceiver) -> bool) {
        let patience = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let mut events = Vec::new();
        while !done(rx) {
            assert!(std::time::Instant::now() < patience, "condition never held");
            rx.turn(&mut events).unwrap();
        }
    }

    /// A stream that has started leaves the probe socket unread between
    /// planned drains; once the kernel drops datagrams for want of buffer
    /// during it, the drops are counted and the socket goes back to
    /// readability for the rest of the collection.
    #[test]
    fn an_overflow_sends_the_collection_back_to_readability() {
        use crate::proto::{ProbeKind, PROBE_HEADER_LEN};
        let _timed = crate::timing_test_lock();
        let mut rx = bind();
        let reg = telemetry::Registry::new();
        rx.register_metrics(&reg);
        let (routed, rcvbuf_drops) = (
            reg.counter("receiver_demux_routed_total", &[]),
            reg.counter("receiver_demux_drops_total", &[("reason", "rcvbuf")]),
        );
        let addr = rx.ctrl_addr();
        let handshake = std::thread::spawn(move || {
            let (mut ctrl, core, udp_port) = connect_ctrl(addr).unwrap();
            CtrlMsg::StreamAnnounce {
                id: 1,
                count: 100,
                period_ns: 1_000_000,
                size: 64,
            }
            .write_to(&mut ctrl)
            .unwrap();
            assert_eq!(
                CtrlMsg::read_from(&mut ctrl).unwrap(),
                CtrlMsg::Ready { id: 1 }
            );
            (ctrl, core.session(), udp_port)
        });
        turn_until(&mut rx, |_| handshake.is_finished());
        let (_ctrl, session, udp_port) = handshake.join().unwrap();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        tx.connect(SocketAddr::new(addr.ip(), udp_port)).unwrap();
        let send = |idx: u32| {
            let mut buf = [0u8; PROBE_HEADER_LEN];
            let (kind, id, send_ns) = (ProbeKind::Stream, 1, 0);
            ProbePacket {
                session,
                kind,
                id,
                idx,
                send_ns,
            }
            .encode(&mut buf);
            tx.send(&buf).unwrap();
        };

        send(0);
        turn_until(&mut rx, |rx| routed.get() == 1 && !rx.udp_reading);
        assert!(rx.drain_at.is_some(), "deferred reads need a drain timer");

        batch::set_recv_buffer(&rx.udp, 1).unwrap();
        for idx in 1..64 {
            send(idx);
        }
        // The drain frees room; the next datagram in reports the drops.
        turn_until(&mut rx, |_| routed.get() > 1);
        send(64);
        turn_until(&mut rx, |_| rcvbuf_drops.get() > 0);
        assert!(rx.udp_reading, "still deferring after an overflow");
        assert!(rx.drain_at.is_none());
    }

    /// Datagrams the kernel dropped because the probe socket's buffer was
    /// full are counted under `rcvbuf`: with the socket shrunk to two
    /// datagrams and a blast sent before the loop reads, every datagram
    /// ends up either routed (here: unknown token) or counted as dropped.
    #[test]
    fn the_demux_counts_datagrams_the_kernel_dropped() {
        let _timed = crate::timing_test_lock();
        let mut rx = bind();
        batch::set_recv_buffer(&rx.udp, 1).unwrap();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        tx.connect(rx.udp.local_addr().unwrap()).unwrap();
        let buf = stray_probe(0xdead);
        let mut sent = 0u64;
        for _ in 0..64 {
            tx.send(&buf).unwrap();
            sent += 1;
        }
        let counters = rx.admission.counters().clone();
        let accounted = || counters.drop_rcvbuf.get() + counters.drop_unknown_token.get();
        turn_until(&mut rx, |_| {
            // The drops are reported by the next datagram that gets in.
            if counters.drop_rcvbuf.get() == 0 {
                tx.send(&buf).unwrap();
                sent += 1;
            }
            counters.drop_rcvbuf.get() > 0 && accounted() >= sent
        });
        assert_eq!(accounted(), sent, "every datagram routed or counted");
        assert!(
            counters.drop_rcvbuf.get() >= 60,
            "two datagrams fit, not more"
        );
    }

    /// A closed slot's pending tick pops after a new session took the
    /// slot and began collecting: the successor's recorded tick instant
    /// has not come, so the pop is dropped before it drains the deferred
    /// probe socket or ticks the successor's core.
    #[test]
    fn a_closed_slots_tick_neither_drains_nor_ticks_its_successor() {
        let _timed = crate::timing_test_lock();
        let mut rx = bind();
        let reg = telemetry::Registry::new();
        rx.register_metrics(&reg);
        let routed = reg.counter("receiver_demux_routed_total", &[]);
        let addr = rx.ctrl_addr();
        let announce = || {
            std::thread::spawn(move || {
                let (mut ctrl, core, udp_port) = connect_ctrl(addr).unwrap();
                CtrlMsg::StreamAnnounce {
                    id: 1,
                    count: 200,
                    period_ns: 1_000_000,
                    size: 64,
                }
                .write_to(&mut ctrl)
                .unwrap();
                assert_eq!(
                    CtrlMsg::read_from(&mut ctrl).unwrap(),
                    CtrlMsg::Ready { id: 1 }
                );
                (ctrl, core.session(), udp_port)
            })
        };
        let tick_at = |rx: &EventedReceiver| rx.sessions[0].as_ref().and_then(|s| s.tick_at);

        let first = announce();
        turn_until(&mut rx, |_| first.is_finished());
        let (ctrl, _, _) = first.join().unwrap();
        assert!(tick_at(&rx).is_some(), "a collecting slot owes a tick");
        drop(ctrl);
        turn_until(&mut rx, |rx| rx.sessions[0].is_none());
        let second = announce();
        turn_until(&mut rx, |_| second.is_finished());
        let (_ctrl, session, udp_port) = second.join().unwrap();
        let owed = tick_at(&rx).expect("the successor took slot 0");

        // The closed slot's own tick is 50 ms out from its start and may
        // have popped already on a slow host: a slot-0 timer due now
        // stands in for it, so what pops next does not hang on the clock.
        rx.lp.arm_timer(rx.clock.now_ns(), 0);
        let mut events = Vec::new();
        rx.lp.wait(&mut events, POLL_TIMEOUT).unwrap();
        assert!(
            events
                .iter()
                .any(|ev| matches!(ev, MuxEvent::Timer { token: 0 })),
            "the stale tick popped"
        );
        assert!(rx.clock.now_ns() < owed, "the successor's own tick popped");
        assert!(!rx.udp_reading, "reads are deferred while collecting");
        // A datagram waits in the deferred socket.
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        tx.send_to(&stray_probe(session), SocketAddr::new(addr.ip(), udp_port))
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let before = routed.get();
        rx.dispatch(&MuxEvent::Timer { token: 0 });
        assert_eq!(routed.get(), before, "a stale tick drained the socket");
        assert_eq!(tick_at(&rx), Some(owed), "a stale tick ticked the core");
    }

    /// A receiver that served a connection and stopped is rebound on the
    /// same port at once: its side closed first, so the connection lingers
    /// in TIME_WAIT on that port, which `SO_REUSEADDR` (std sets it on
    /// Unix) lets the successor bind past.
    #[test]
    fn a_stopped_receiver_rebinds_its_port_at_once() {
        use std::io::Read;
        let rx = bind();
        let addr = rx.ctrl_addr();
        let h = rx.spawn();
        let (mut ctrl, _core, _port) = connect_ctrl(addr).unwrap();
        CtrlMsg::Bye.write_to(&mut ctrl).unwrap();
        let mut b = [0u8; 1];
        assert_eq!(ctrl.read(&mut b).unwrap(), 0, "the receiver closes first");
        drop(ctrl);
        h.stop().unwrap();
        EventedReceiver::bind(addr).expect("immediate rebind of the same port");
    }

    #[test]
    fn oversized_announce_closes_only_that_session() {
        let rx = bind();
        let addr = rx.ctrl_addr();
        let h = rx.spawn();
        let (mut bad, _core, _port) = connect_ctrl(addr).unwrap();
        let (mut good, _core2, _port2) = connect_ctrl(addr).unwrap();
        CtrlMsg::StreamAnnounce {
            id: 1,
            count: u32::MAX,
            period_ns: 1_000_000,
            size: 64,
        }
        .write_to(&mut bad)
        .unwrap();
        // The offender's connection closes (read returns EOF)...
        let err = CtrlMsg::read_from(&mut bad);
        assert!(err.is_err(), "oversized announce must close the session");
        // ...while the other session keeps working.
        CtrlMsg::Echo { token: 7 }.write_to(&mut good).unwrap();
        match CtrlMsg::read_from(&mut good).unwrap() {
            CtrlMsg::Echo { token } => assert_eq!(token, 7),
            other => panic!("expected echo, got {other:?}"),
        }
        h.stop().unwrap();
    }
}

//! The threaded receiver (`pathload_rcv`): timestamps probe arrivals and
//! ships records back over the control channel — for **many concurrent
//! senders** on one control port and one shared UDP socket.
//!
//! [`Receiver`] is a *pump* over the sans-IO protocol core in
//! [`crate::rx`]: which connections are admitted, which packets count,
//! when a collection ends and what its report says are all decided there.
//! This module owns the threads and the sockets:
//!
//! * every accepted control connection is offered to the core's
//!   [`Admission`] desk; an admitted one becomes a *session* — an
//!   [`RxSession`] on a thread of its own, with a bounded arrival channel
//!   registered under the minted token — and a refused one gets the
//!   core's versioned `Deny`;
//! * one background *demux* thread owns the shared UDP socket: it reads
//!   on every arrival through the same [`batch::UdpRecvBatch`] helper as
//!   the evented pump, stamps each datagram with **the kernel's arrival
//!   instant** (`SO_TIMESTAMPNS`, mapped onto the receiver's clock; the
//!   read instant where the kernel gave none), counts the datagrams the
//!   kernel dropped for want of buffer, decodes the header, and routes
//!   the packet to the owning session's channel by token.
//!   Datagrams carrying an unknown (stale, never-issued, foreign) token
//!   are dropped, so a late packet from a finished session can never
//!   contaminate a live collection; channels are bounded, so a datagram
//!   flood cannot grow receiver memory;
//! * a session thread blocks on its control channel between collections
//!   and on its arrival channel during one, feeding the core each frame,
//!   each arrival, and a tick every [`POLL_TIMEOUT`], and writing back
//!   whatever frame the core returns;
//! * [`Receiver::serve_forever`] accepts concurrently, one thread per
//!   session, with bounded backoff on persistent accept errors (EMFILE &
//!   co.) so a starved listener does not hot-loop at 100% CPU.
//!
//! This is the only receiver shape that runs off Linux (the evented one
//! needs epoll), which is why it stays.

// Datapath module: a panicking branch here takes the whole fleet down,
// so `unwrap`/`expect` are denied outright (errors must travel as values).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::batch::{self, UdpRecvBatch};
use crate::clock::MonoClock;
use crate::proto::{CtrlBuf, CtrlMsg, ProbePacket, MAX_FRAME_TO_RECEIVER};
use crate::rx::{Admission, CtrlAction, RxSession, POLL_TIMEOUT};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver as ChanReceiver, RecvTimeoutError, SyncSender};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Largest probe datagram the receive buffers accommodate.
pub(crate) const RECV_BUF_LEN: usize = 2048;

/// A random 64-bit base for a receiver's session tokens (std's OS-seeded
/// hasher entropy; no dependency). Both pumps draw one per incarnation
/// and hand it to the sans-IO [`Admission`] desk.
pub(crate) fn random_token_base() -> u64 {
    RandomState::new().build_hasher().finish()
}

/// A probe packet as the demux thread hands it to a session thread:
/// decoded header plus the arrival timestamp (receiver clock, the
/// kernel's arrival instant, taken before any queueing).
#[derive(Clone, Copy, Debug)]
struct Arrival {
    packet: ProbePacket,
    recv_ns: u64,
}

type Registry = Mutex<HashMap<u64, SyncSender<Arrival>>>;

/// Bound on a session's arrival channel. Far above any stream or train
/// the sender announces (default stream length is 100 packets), so a
/// datagram flood cannot grow receiver memory without bound — the demux
/// drops for that session once full (dropped probes read as loss, which
/// collection already tolerates) and other sessions are unaffected.
const COLLECTOR_CAPACITY: usize = 4096;

fn lock_registry(reg: &Registry) -> MutexGuard<'_, HashMap<u64, SyncSender<Arrival>>> {
    // A poisoned registry only means some session thread panicked while
    // holding the (insert/remove-only) lock; the map itself stays sound.
    reg.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Session-serving state shared by the accept loop, the session threads,
/// and the demux thread.
struct Shared {
    clock: MonoClock,
    registry: Registry,
    admission: Admission,
}

/// The pathload receiver: one TCP control listener plus one **shared** UDP
/// probe socket, serving any number of concurrent sender sessions.
pub struct Receiver {
    listener: TcpListener,
    /// Bound control address, captured at bind time so `ctrl_addr` has no
    /// error (or panic) path.
    ctrl_addr: SocketAddr,
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
    demux: Option<JoinHandle<()>>,
}

impl Receiver {
    /// Bind to `addr` (use port 0 for an ephemeral port). The UDP socket
    /// binds to the same IP with its own (ephemeral) port; that one port
    /// is shared by every session and advertised in each `Hello`. The
    /// demux thread routing its datagrams starts here and runs until the
    /// receiver is dropped.
    pub fn bind(addr: SocketAddr) -> io::Result<Receiver> {
        // SO_REUSEADDR: a restarted receiver daemon rebinds its control
        // port immediately even while the previous incarnation's accepted
        // sockets linger in TIME_WAIT (see `batch::bind_reuse`).
        let listener = crate::batch::bind_reuse(addr)?;
        let ctrl_addr = listener.local_addr()?;
        let mut udp_addr = ctrl_addr;
        udp_addr.set_port(0);
        let udp = UdpSocket::bind(udp_addr)?;
        udp.set_read_timeout(Some(POLL_TIMEOUT))?;
        // Reads happen on arrival here, so neither the stamps nor the
        // buffer decide anything; they make the timestamp contract and the
        // overflow count the evented pump's.
        batch::prepare_probe_socket(&udp);
        let shared = Arc::new(Shared {
            clock: MonoClock::new(),
            registry: Mutex::new(HashMap::new()),
            admission: Admission::new(udp.local_addr()?.port(), random_token_base()),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let demux = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            thread::spawn(move || demux_loop(&udp, &shared, &stop))
        };
        Ok(Receiver {
            listener,
            ctrl_addr,
            shared,
            stop,
            demux: Some(demux),
        })
    }

    /// The control-channel address senders should connect to.
    pub fn ctrl_addr(&self) -> SocketAddr {
        self.ctrl_addr
    }

    /// Cap concurrent sessions at `max` (`0` = unlimited, the default).
    ///
    /// A receiver serving a fleet cannot accept sessions unboundedly:
    /// every session costs a serving thread, an arrival channel, and
    /// demux-registry space. Beyond the cap a new control connection is
    /// answered with a **versioned [`CtrlMsg::Deny`]** (code
    /// [`DENY_AT_CAPACITY`](crate::proto::DENY_AT_CAPACITY)) instead of `Hello` — the sender gets a clean
    /// "receiver at capacity" error instead of a hung or half-open
    /// session, and sessions already running are untouched.
    pub fn with_max_sessions(self, max: usize) -> Receiver {
        self.shared.admission.set_max_sessions(max);
        self
    }

    /// Attach this receiver's route/drop counters to `reg` so a scrape or
    /// digest sees them. The counters exist (and count) from
    /// [`Receiver::bind`] on; registering merely names them. Safe to call
    /// any number of times, on any number of registries.
    pub fn register_metrics(&self, reg: &telemetry::Registry) {
        self.shared.admission.counters().register(reg);
    }

    /// Serve exactly one sender session (blocking), then return. Other
    /// sessions may be served concurrently by other calls or threads —
    /// the probe socket demux keeps them apart.
    pub fn serve_one(&self) -> io::Result<()> {
        let (ctrl, _peer) = self.listener.accept()?;
        self.shared.serve_session(ctrl)
    }

    /// Accept exactly `n` sender sessions, serve them **concurrently**
    /// (one thread each), and return once all have finished. Errors are
    /// reported only after every spawned session is joined — including
    /// when a later `accept` fails, so no session is left running
    /// detached with its outcome lost. The accept error (if any) wins
    /// over session errors.
    pub fn serve_n(&self, n: usize) -> io::Result<()> {
        let mut sessions = Vec::with_capacity(n);
        let mut accept_err = None;
        for _ in 0..n {
            match self.listener.accept() {
                Ok((ctrl, _peer)) => {
                    let shared = Arc::clone(&self.shared);
                    sessions.push(thread::spawn(move || shared.serve_session(ctrl)));
                }
                Err(e) => {
                    accept_err = Some(e);
                    break;
                }
            }
        }
        let mut first_err = accept_err;
        for handle in sessions {
            match handle.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => {
                    first_err.get_or_insert(e);
                }
                Err(_) => {
                    first_err.get_or_insert_with(|| io::Error::other("session thread panicked"));
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Serve sessions forever (for the `pathload_rcv` binary): accept
    /// concurrently, one detached thread per session. Session errors are
    /// logged and do not affect other sessions; accept errors are retried
    /// with bounded exponential backoff (a persistent failure such as
    /// EMFILE must not hot-loop the accept thread at 100% CPU).
    pub fn serve_forever(&self) -> io::Result<()> {
        let mut backoff = AcceptBackoff::new();
        loop {
            match self.listener.accept() {
                Ok((ctrl, _peer)) => {
                    backoff.on_success();
                    let shared = Arc::clone(&self.shared);
                    thread::spawn(move || {
                        if let Err(e) = shared.serve_session(ctrl) {
                            eprintln!("session error: {e}");
                        }
                    });
                }
                Err(e) => {
                    let delay = backoff.on_error();
                    eprintln!("accept error: {e} (retrying in {delay:?})");
                    thread::sleep(delay);
                }
            }
        }
    }
}

impl Drop for Receiver {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.demux.take() {
            let _ = handle.join();
        }
    }
}

/// Bounded exponential backoff for a failing `accept` loop: starts small
/// (a transient error costs almost nothing), doubles per consecutive
/// error, and caps so a persistent failure retries at a gentle steady
/// rate instead of spinning.
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

    /// An accept failed: how long to sleep before retrying. Consecutive
    /// errors double the delay up to [`AcceptBackoff::MAX`].
    pub fn on_error(&mut self) -> Duration {
        let delay = self.delay;
        self.delay = (delay * 2).min(Self::MAX);
        delay
    }
}

impl Default for AcceptBackoff {
    fn default() -> Self {
        Self::new()
    }
}

/// The demux loop: read the shared probe socket, stamp arrivals, route by
/// session token. Runs until the receiver sets `stop`.
fn demux_loop(udp: &UdpSocket, shared: &Shared, stop: &AtomicBool) {
    let counters = shared.admission.counters();
    let mut batch = UdpRecvBatch::new(batch::MAX_BATCH, RECV_BUF_LEN);
    while !stop.load(Ordering::Relaxed) {
        match batch.recv(udp) {
            Ok(n) => {
                let stamps = shared.clock.realtime_map();
                counters.drop_rcvbuf.add(batch.take_drops());
                let registry = lock_registry(&shared.registry);
                for i in 0..n {
                    let Some(packet) = ProbePacket::decode(batch.msg(i)) else {
                        continue;
                    };
                    let recv_ns = stamps.recv_ns(batch.stamp(i));
                    // Unknown token (stale session, never issued): drop.
                    // A full channel also drops (never block the demux
                    // — other sessions' packets are behind this one).
                    if let Some(tx) = registry.get(&packet.session) {
                        match tx.try_send(Arrival { packet, recv_ns }) {
                            Ok(()) => counters.routed.inc(),
                            Err(_) => counters.drop_collector_full.inc(),
                        }
                    } else {
                        counters.drop_unknown_token.inc();
                    }
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(_) => {
                // Transient socket error: don't busy-loop on it.
                thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

impl Shared {
    /// Serve one control connection to completion: offer it to the
    /// admission desk, say `Hello` (or `Deny`), pump the session,
    /// deregister on the way out (any exit path).
    fn serve_session(&self, mut ctrl: TcpStream) -> io::Result<()> {
        ctrl.set_nodelay(true)?;
        let (tx, arrivals) = mpsc::sync_channel(COLLECTOR_CAPACITY);
        let admitted = {
            // Admit-and-insert under one lock, so racing accepts cannot
            // both squeeze into the last slot.
            let mut registry = lock_registry(&self.registry);
            let admitted = self.admission.admit(registry.len());
            if let Ok((session, _)) = &admitted {
                registry.insert(session.token(), tx);
            }
            admitted
        };
        let (mut session, hello) = match admitted {
            Ok(admitted) => admitted,
            Err(deny) => return deny.write_to(&mut ctrl),
        };
        let result = self.pump_session(&mut ctrl, &mut session, &hello, &arrivals);
        lock_registry(&self.registry).remove(&session.token());
        result
    }

    /// The session pump: control frames while idle, arrivals and ticks
    /// while collecting, every decision taken by `session`.
    fn pump_session(
        &self,
        ctrl: &mut TcpStream,
        session: &mut RxSession,
        hello: &CtrlMsg,
        arrivals: &ChanReceiver<Arrival>,
    ) -> io::Result<()> {
        hello.write_to(ctrl)?;
        let mut inbound = CtrlBuf::new(MAX_FRAME_TO_RECEIVER);
        loop {
            let msg = match inbound.read_msg(ctrl) {
                Ok(m) => m,
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
                Err(e) => return Err(e),
            };
            // Arrivals queued since the last report are leftovers of
            // finished streams; the idle core discards them.
            while let Ok(stale) = arrivals.try_recv() {
                session.on_probe(&stale.packet, stale.recv_ns);
            }
            match session.on_ctrl(msg, self.clock.now_ns())? {
                CtrlAction::Reply(reply) => reply.write_to(ctrl)?,
                CtrlAction::Close => return Ok(()),
            }
            let mut next_tick = self.clock.now_ns() + POLL_TIMEOUT.as_nanos() as u64;
            while session.is_collecting() {
                let now = self.clock.now_ns();
                let report = if now >= next_tick {
                    next_tick = now + POLL_TIMEOUT.as_nanos() as u64;
                    session.on_tick(now)
                } else {
                    match arrivals.recv_timeout(Duration::from_nanos(next_tick - now)) {
                        Ok(Arrival { packet, recv_ns }) => session.on_probe(&packet, recv_ns),
                        Err(RecvTimeoutError::Timeout) => None,
                        Err(RecvTimeoutError::Disconnected) => {
                            return Err(io::Error::other("probe demux went away"))
                        }
                    }
                };
                if let Some(report) = report {
                    report.write_to(ctrl)?;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::proto::PROTO_VERSION;
    use crate::sender::connect_ctrl;

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

    /// The token the receiver's admission desk would hand the next sender.
    fn mint_token(rx: &Receiver) -> u64 {
        let (session, _hello) = rx.shared.admission.admit(0).expect("uncapped");
        session.token()
    }

    #[test]
    fn tokens_are_unique_per_receiver() {
        let rx = Receiver::bind("127.0.0.1:0".parse().unwrap()).unwrap();
        let a = mint_token(&rx);
        let b = mint_token(&rx);
        assert_ne!(a, b);
    }

    /// Two receiver incarnations mint from different random bases: a
    /// token from one can essentially never be live on the other, so
    /// probes stamped with a pre-restart token are dropped by the demux
    /// instead of contaminating the restarted receiver's sessions.
    #[test]
    fn token_bases_differ_across_receiver_incarnations() {
        let a = Receiver::bind("127.0.0.1:0".parse().unwrap()).unwrap();
        let base_a = mint_token(&a);
        drop(a);
        let b = Receiver::bind("127.0.0.1:0".parse().unwrap()).unwrap();
        let base_b = mint_token(&b);
        assert_ne!(base_a, base_b, "restarted receiver reused its token base");
    }

    /// Beyond `with_max_sessions`, a connection is refused with a
    /// versioned `Deny` that `connect_ctrl` turns into a clean error;
    /// sessions already running are untouched.
    #[test]
    fn session_cap_refuses_with_versioned_deny() {
        let rx = Receiver::bind("127.0.0.1:0".parse().unwrap())
            .unwrap()
            .with_max_sessions(1);
        let addr = rx.ctrl_addr();
        let server = thread::spawn(move || {
            // First session occupies the only slot; second is denied.
            rx.serve_n(2)
        });
        let first = connect_ctrl(addr).expect("first session fits");
        let err = connect_ctrl(addr).expect_err("second session must be denied");
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
        let msg = err.to_string();
        assert!(msg.contains("capacity"), "{msg}");
        assert!(
            msg.contains(&format!("v{PROTO_VERSION}")),
            "deny must carry the receiver's protocol version: {msg}"
        );
        drop(first);
        server.join().unwrap().unwrap();
    }

    /// Datagrams carrying a token no live session owns are dropped *and
    /// counted*: the by-design drop is visible in the registry.
    #[test]
    fn unknown_token_datagrams_are_counted_as_drops() {
        use crate::proto::{ProbeKind, PROBE_HEADER_LEN};

        let rx = Receiver::bind("127.0.0.1:0".parse().unwrap()).unwrap();
        let reg = telemetry::Registry::new();
        rx.register_metrics(&reg);
        let drops = reg.counter("receiver_demux_drops_total", &[("reason", "unknown_token")]);
        let addr = rx.ctrl_addr();
        let server = thread::spawn(move || rx.serve_one());
        let (ctrl, core, udp_port) = connect_ctrl(addr).unwrap();
        let udp = UdpSocket::bind("127.0.0.1:0").unwrap();
        let mut buf = [0u8; PROBE_HEADER_LEN];
        ProbePacket {
            session: core.session().wrapping_add(0xdead), // never issued
            kind: ProbeKind::Stream,
            id: 1,
            idx: 0,
            send_ns: 0,
        }
        .encode(&mut buf);
        let target = SocketAddr::new(addr.ip(), udp_port);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while drops.get() == 0 && std::time::Instant::now() < deadline {
            udp.send_to(&buf, target).unwrap();
            thread::sleep(Duration::from_millis(10));
        }
        assert!(drops.get() > 0, "unknown-token drop was not counted");
        drop(ctrl);
        server.join().unwrap().unwrap();
    }

    /// Datagrams the kernel dropped because the probe socket's buffer was
    /// full are counted by the demux under `rcvbuf`: with the socket
    /// shrunk to two datagrams and a blast sent before the demux reads,
    /// every datagram ends up either routed (here: unknown token) or
    /// counted as dropped.
    #[cfg(target_os = "linux")]
    #[test]
    fn the_demux_counts_datagrams_the_kernel_dropped() {
        use crate::proto::{ProbeKind, PROBE_HEADER_LEN};
        let udp = UdpSocket::bind("127.0.0.1:0").unwrap();
        udp.set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        assert!(batch::prepare_probe_socket(&udp).stamps);
        batch::set_recv_buffer(&udp, 1).unwrap();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        tx.connect(udp.local_addr().unwrap()).unwrap();
        let mut buf = [0u8; PROBE_HEADER_LEN];
        ProbePacket {
            session: 0xdead,
            kind: ProbeKind::Stream,
            id: 1,
            idx: 0,
            send_ns: 0,
        }
        .encode(&mut buf);
        let mut sent = 0u64;
        for _ in 0..64 {
            tx.send(&buf).unwrap();
            sent += 1;
        }

        let shared = Arc::new(Shared {
            clock: MonoClock::new(),
            registry: Mutex::new(HashMap::new()),
            admission: Admission::new(0, 1),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let demux = {
            let (shared, stop) = (Arc::clone(&shared), Arc::clone(&stop));
            thread::spawn(move || demux_loop(&udp, &shared, &stop))
        };
        let counters = shared.admission.counters();
        let accounted = || counters.drop_rcvbuf.get() + counters.drop_unknown_token.get();
        let patience = std::time::Instant::now() + Duration::from_secs(5);
        // The drops are reported by the next datagram that gets in.
        while counters.drop_rcvbuf.get() == 0 || accounted() < sent {
            assert!(
                std::time::Instant::now() < patience,
                "{sent} sent, {} accounted",
                accounted()
            );
            if counters.drop_rcvbuf.get() == 0 {
                tx.send(&buf).unwrap();
                sent += 1;
            }
            thread::sleep(Duration::from_millis(2));
        }
        stop.store(true, Ordering::SeqCst);
        demux.join().unwrap();
        assert_eq!(accounted(), sent, "every datagram routed or counted");
        assert!(
            counters.drop_rcvbuf.get() >= 60,
            "two datagrams fit, not more"
        );
    }

    /// An announce whose count would allocate absurd per-stream state is
    /// refused (the session closes with a protocol error).
    #[test]
    fn oversized_announce_is_rejected() {
        let rx = Receiver::bind("127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = rx.ctrl_addr();
        let server = thread::spawn(move || rx.serve_one());
        let (mut ctrl, _core, _port) = connect_ctrl(addr).unwrap();
        CtrlMsg::StreamAnnounce {
            id: 1,
            count: u32::MAX,
            period_ns: 1_000_000,
            size: 64,
        }
        .write_to(&mut ctrl)
        .unwrap();
        let err = server
            .join()
            .unwrap()
            .expect_err("announce must be refused");
        assert!(err.to_string().contains("cap"), "{err}");
    }
}

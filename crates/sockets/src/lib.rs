//! # pathload-net — SLoPS over real sockets
//!
//! A faithful implementation of the pathload tool's transport (§IV):
//! UDP periodic probe streams timestamped at both ends, with a TCP control
//! channel that announces streams, acknowledges them, and carries the
//! receiver's per-packet records back to the sender. The receiver is
//! **session-multiplexing**: one control port and one shared UDP probe
//! socket serve any number of concurrent senders, demuxed by the session
//! token minted at `Hello` and carried in every probe packet (wire
//! protocol v2). The sender side hosts the *same* sans-IO
//! `slops::SessionMachine` that runs over the simulator, pumped by an
//! [`EventedSession`] on an event loop: `pathload_snd` runs one on a loop
//! of its own ([`EventedSession::run_alone`]), `monitord` hundreds on
//! one.
//!
//! Layout:
//!
//! * [`proto`] — wire formats: UDP probe packets and framed control
//!   messages (hand-rolled, dependency-free encoding), and
//!   [`proto::CtrlBuf`], the one control-channel frame buffer every
//!   endpoint shape reads and writes through — inbound frames bounded per
//!   role, nothing reserved on a length field's word.
//! * [`clock`] — monotonic nanosecond clocks. Sender and receiver use
//!   *different epochs* on purpose: SLoPS needs only relative OWDs.
//! * [`pacing`] — absolute-deadline packet pacing (sleep-then-spin) as a
//!   sans-IO core, [`pacing::TimerPlan`]: the deadline
//!   [`pacing::TimerQueue`] and the learned spin window, answering where
//!   a loop's sleep ends, whether it spins and which timers are due. It
//!   is the part of a measurement tool a general-purpose runtime cannot
//!   do; this is why the crate runs its own readiness loop instead of an
//!   async executor.
//! * [`mux`] — the readiness event loop, [`mux::EventLoop`]: an epoll
//!   poller and a timerfd carrying out a `TimerPlan` — paced for a
//!   sender or a fleet, sleep-only for the receiver. No executor
//!   dependency: epoll is called straight through the C library `std`
//!   already links.
//! * [`tx`] — the sender's sans-IO protocol core: [`tx::on_hello`] and
//!   [`tx::TxSession`] (ids, announce, which `Ready` / report answers
//!   it, probe deadlines and headers, report → record, RTT median,
//!   control timeout), driven by `begin` / `on_ctrl` / `due` / `encode`
//!   + `sent` with time passed in. Every sender decision lives here, once.
//! * [`evented`] — [`EventedSession`], the sender's one pump over that
//!   core and non-blocking driver of the sans-IO machine: a path's
//!   sender for the life of its connection, one measurement at a time.
//!   Frames go out on writability, probes on timer expiry, replies come
//!   back on readability, so one thread can multiplex hundreds of
//!   concurrent senders (the `monitord` fleet) or run one alone
//!   (`pathload_snd`).
//! * [`batch`] — the kernel-fast datapath: `recvmmsg`/`sendmmsg`
//!   batching (one syscall, many datagrams) or a scalar `recvmsg` loop on
//!   request, and kernel arrival stamps and the receive-buffer overflow
//!   count on the probe socket.
//! * [`rx`] — the receiver's sans-IO protocol core: [`rx::Admission`]
//!   (token mint, session cap, counters, the drop-warning limiter) and [`rx::RxSession`] (announce
//!   handling, de-duplicating loss-tolerant collection, silence-window
//!   and deadline stop rules, report construction), driven by
//!   `on_ctrl` / `on_probe` / `on_tick` with time passed in,
//!   [`rx::plan_reads`] (when the shared probe socket must be read) and
//!   [`rx::AcceptBackoff`]. Every receiver decision lives here, once.
//! * [`receiver_evented`] — [`EventedReceiver`] (`pathload_rcv`), the
//!   pump over that core on one [`mux::EventLoop`] thread: non-blocking
//!   accept, a slab of sessions, batched probe reads stamped by the
//!   kernel on the core's read plan instead of on every datagram, the
//!   core's tick as a timer entry. Thousands of sessions, one thread.
//! * [`sender`] — [`SocketTransport`]: one connection's sockets, clock
//!   and [`tx`] core, owned by the [`EventedSession`] that pumps it for
//!   the connection's whole life.
//!
//! Binaries `pathload_snd` / `pathload_rcv` wrap these (see `src/bin`).
//!
//! **Platform.** The four socket modules — [`mux`], [`batch`],
//! [`evented`] and [`receiver_evented`] — need Linux (epoll, timerfd,
//! kernel arrival stamps) and sit behind one `target_os = "linux"` gate
//! each; off Linux they do not exist and both binaries exit 2 saying so.
//! The rest — [`proto`], [`clock`], [`pacing`], [`rx`], [`tx`] and
//! [`sender`] — is portable.
//!
//! Localhost quick start (two terminals):
//!
//! ```text
//! pathload_rcv 127.0.0.1:9100
//! pathload_snd 127.0.0.1:9100
//! ```

// `deny`, not `forbid`: the exceptions are the FFI blocks in `mux::sys`
// (epoll, timerfd) and `batch::sys` (`recvmmsg`/`recvmsg`/`sendmmsg`/socket options) wrapping
// syscalls std links but does not expose; each opts in explicitly with
// `#[allow(unsafe_code)]`.
#![deny(unsafe_code)]

#[cfg(target_os = "linux")]
pub mod batch;
pub mod clock;
#[cfg(target_os = "linux")]
pub mod evented;
#[cfg(target_os = "linux")]
pub mod mux;
pub mod pacing;
pub mod proto;
#[cfg(target_os = "linux")]
pub mod receiver_evented;
pub mod rx;
pub mod sender;
pub mod tx;

#[cfg(target_os = "linux")]
pub use batch::UdpRecvBatch;
#[cfg(target_os = "linux")]
pub use evented::{EventedSession, SessionTokens};
#[cfg(target_os = "linux")]
pub use receiver_evented::{EventedReceiver, EventedReceiverHandle};
pub use rx::AcceptBackoff;
pub use sender::SocketTransport;

/// Serialises the unit tests that judge wall-clock timing (a deadline's
/// overshoot, a loop's CPU share) with each other and with the ones that
/// load the host (a paced measurement over loopback, a receive loop turned
/// by hand): two at once on a small host make the timed one read the
/// other's load as its own lateness.
#[cfg(test)]
fn timing_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static TIMED: std::sync::Mutex<()> = std::sync::Mutex::new(());
    TIMED.lock().unwrap_or_else(|e| e.into_inner())
}

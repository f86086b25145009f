//! The sender side (`pathload_snd`): [`SocketTransport`] — the sockets of
//! one control connection and the protocol core
//! ([`crate::tx::TxSession`]) that decides what goes over them. The
//! [`EventedSession`](crate::EventedSession) that owns it pumps it, alone
//! on a loop of its own (`pathload_snd`) or among a fleet's (`monitord`).

use crate::clock::MonoClock;
use crate::proto::CtrlMsg;
use crate::tx::{self, TxSession};
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpStream, UdpSocket};
use telemetry::Histogram;
use units::{Rate, TimeNs};

/// One connection to a receiver: its control and probe sockets, the
/// sender's clock and the protocol core.
#[derive(Debug)]
pub struct SocketTransport {
    // The evented pump (`crate::evented`) registers, flushes, stamps and
    // steps these itself.
    pub(crate) ctrl: TcpStream,
    pub(crate) udp: UdpSocket,
    pub(crate) clock: MonoClock,
    /// The conversation with the receiver.
    pub(crate) core: TxSession,
    /// Cap on the stream rates this host can pace reliably. Defaults to
    /// 80 Mb/s (MTU-sized packets every ~150 µs), which a commodity Linux
    /// box sustains with the sleep-spin pacer; raise it on fast dedicated
    /// hardware.
    pub rate_cap: Rate,
}

/// Connect a control channel to a receiver and take its greeting.
/// Returns the stream (blocking; reads time out after
/// [`tx::CTRL_TIMEOUT`]), the session core the `Hello` granted, and the
/// receiver's UDP port.
pub(crate) fn connect_ctrl(addr: SocketAddr) -> io::Result<(TcpStream, TxSession, u16)> {
    let mut ctrl = TcpStream::connect(addr)?;
    ctrl.set_nodelay(true)?;
    ctrl.set_read_timeout(Some(tx::CTRL_TIMEOUT))?;
    let (core, udp_port) = tx::on_hello(CtrlMsg::read_from(&mut ctrl)?)?;
    Ok((ctrl, core, udp_port))
}

impl SocketTransport {
    /// Connect to a receiver's control address.
    pub fn connect(addr: SocketAddr) -> io::Result<SocketTransport> {
        Self::connect_with_clock(addr, MonoClock::new())
    }

    /// Connect with an explicit sender clock.
    ///
    /// [`elapsed`](Self::elapsed) reports this clock, so transports built
    /// from [`MonoClock::same_epoch`] clones of one clock share a timeline
    /// — what a fleet scheduler staggering starts across paths requires.
    /// The greeting is read blocking; from then on both sockets are
    /// non-blocking, for the event loop that pumps them.
    pub fn connect_with_clock(addr: SocketAddr, clock: MonoClock) -> io::Result<SocketTransport> {
        let (ctrl, core, udp_port) = connect_ctrl(addr)?;
        let mut peer = addr;
        peer.set_port(udp_port);
        let local = match addr {
            SocketAddr::V4(_) => SocketAddr::from((Ipv4Addr::UNSPECIFIED, 0)),
            SocketAddr::V6(_) => SocketAddr::from((Ipv6Addr::UNSPECIFIED, 0)),
        };
        let udp = UdpSocket::bind(local)?;
        udp.connect(peer)?;
        ctrl.set_nonblocking(true)?;
        udp.set_nonblocking(true)?;
        Ok(SocketTransport {
            ctrl,
            udp,
            clock,
            core,
            rate_cap: Rate::from_mbps(80.0),
        })
    }

    /// The session token the receiver minted for this connection.
    pub fn session(&self) -> u64 {
        self.core.session()
    }

    /// The transport's clock now: what an estimate's `elapsed` and a
    /// fleet's start and finish instants are read from.
    pub fn elapsed(&self) -> TimeNs {
        TimeNs::from_nanos(self.clock.now_ns())
    }

    /// Record each stream packet's pacing error (nanoseconds late past
    /// its absolute send deadline) into `hist`. The histogram is shared:
    /// register the same handle in a `telemetry::Registry` to expose it.
    pub fn set_pacing_histogram(&mut self, hist: Histogram) {
        self.core.set_pacing_histogram(hist);
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        let _ = CtrlMsg::Bye.write_to(&mut self.ctrl);
    }
}

//! The sender side (`pathload_snd`): [`SocketTransport`], a real-network
//! [`slops::ProbeTransport`] — the sockets of one control connection, the
//! protocol core ([`crate::tx::TxSession`]) that decides what goes over
//! them, and the blocking pump between the two.

use crate::clock::MonoClock;
use crate::pacing::{pace_until, SpinWindow};
use crate::proto::CtrlMsg;
use crate::tx::{self, ctrl_io_error, Due, Outcome, Step, TxSession};
use slops::machine::{Command, Event};
use slops::{ProbeTransport, StreamRecord, StreamRequest, TrainRecord, TransportError};
use std::io;
use std::net::{SocketAddr, TcpStream, UdpSocket};
use telemetry::Histogram;
use units::{Rate, TimeNs};

/// SLoPS probing over real UDP/TCP sockets.
#[derive(Debug)]
pub struct SocketTransport {
    // The sockets, the clock and the core are the evented pump's too
    // (`crate::evented` registers, flushes, stamps and steps them itself).
    pub(crate) ctrl: TcpStream,
    pub(crate) udp: UdpSocket,
    pub(crate) clock: MonoClock,
    /// The conversation with the receiver. Boxed so the transport stays
    /// small enough to travel inside an `Err` (`EventedSession::new`).
    pub(crate) core: Box<TxSession>,
    /// The blocking pump's pacing window, learned across its streams.
    spin: SpinWindow,
    /// Cap on the stream rates this host can pace reliably. Defaults to
    /// 80 Mb/s (MTU-sized packets every ~150 µs), which a commodity Linux
    /// box sustains with the sleep-spin pacer; raise it on fast dedicated
    /// hardware.
    pub rate_cap: Rate,
}

/// Connect a control channel to a receiver and take its greeting.
/// Returns the stream (reads time out after [`tx::CTRL_TIMEOUT`]), the
/// session core the `Hello` granted, and the receiver's UDP port.
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
    /// `elapsed()` reports this clock, so transports built from
    /// [`MonoClock::same_epoch`] clones of one clock share a timeline —
    /// what a fleet scheduler staggering starts across paths requires.
    pub fn connect_with_clock(addr: SocketAddr, clock: MonoClock) -> io::Result<SocketTransport> {
        let (ctrl, core, udp_port) = connect_ctrl(addr)?;
        let mut peer = addr;
        peer.set_port(udp_port);
        let local: SocketAddr = match addr {
            SocketAddr::V4(_) => "0.0.0.0:0".parse().unwrap(),
            SocketAddr::V6(_) => "[::]:0".parse().unwrap(),
        };
        let udp = UdpSocket::bind(local)?;
        udp.connect(peer)?;
        Ok(SocketTransport {
            ctrl,
            udp,
            clock,
            core: Box::new(core),
            spin: SpinWindow::new(),
            rate_cap: Rate::from_mbps(80.0),
        })
    }

    /// The session token the receiver minted for this connection.
    pub fn session(&self) -> u64 {
        self.core.session()
    }

    /// Record each stream packet's pacing error (nanoseconds late past
    /// its absolute send deadline) into `hist`, whichever pump paces it.
    /// The histogram is shared: register the same handle in a
    /// `telemetry::Registry` to expose it.
    pub fn set_pacing_histogram(&mut self, hist: Histogram) {
        self.core.set_pacing_histogram(hist);
    }

    /// Switch both sockets (control TCP and probe UDP) between blocking
    /// and non-blocking mode.
    ///
    /// The blocking [`ProbeTransport`] methods of this type assume
    /// blocking mode; in non-blocking mode the transport is driven by an
    /// [`EventedSession`](crate::evented::EventedSession) registered with
    /// a [`mux::EventLoop`](crate::mux::EventLoop) instead.
    pub fn set_nonblocking(&mut self, nonblocking: bool) -> io::Result<()> {
        self.ctrl.set_nonblocking(nonblocking)?;
        self.udp.set_nonblocking(nonblocking)
    }

    /// The blocking pump: write what the core hands out, then alternate
    /// pacing and sending while probes are due with a blocking frame read
    /// while none is, until the core is done.
    fn pump(&mut self, first: CtrlMsg) -> Result<Outcome, TransportError> {
        let mut step = Step::Write(first);
        let mut buf = Vec::new();
        loop {
            match step {
                Step::Write(frame) => frame.write_to(&mut self.ctrl).map_err(ctrl_io_error)?,
                Step::Wait => {}
                Step::Done(outcome) => return Ok(outcome),
            }
            loop {
                match self.core.due() {
                    Due::None => break,
                    Due::Paced(deadline) => _ = pace_until(&self.clock, deadline, &mut self.spin),
                    Due::Burst(_) => {}
                }
                let now = self.clock.now_ns();
                self.core.encode(0, now, &mut buf);
                self.udp
                    .send(&buf)
                    .map_err(|e| TransportError::Io(e.to_string()))?;
                self.core.sent(1, now);
            }
            let msg = CtrlMsg::read_from(&mut self.ctrl).map_err(ctrl_io_error)?;
            step = self.core.on_ctrl(msg, self.clock.now_ns())?;
        }
    }
}

/// The core answered a command with the outcome of another — excluded by
/// its state machine, reported as an error rather than a panic.
fn mismatch(got: &Outcome) -> TransportError {
    TransportError::Io(format!("command answered with {got:?}"))
}

impl ProbeTransport for SocketTransport {
    fn send_stream(&mut self, req: &StreamRequest) -> Result<StreamRecord, TransportError> {
        let now = self.clock.now_ns();
        let announce = self.core.begin(&Command::SendStream(*req), now)?;
        match self.pump(announce)? {
            Outcome::Event(Event::StreamDone(record)) => Ok(record),
            other => Err(mismatch(&other)),
        }
    }

    fn send_train(&mut self, len: u32, size: u32) -> Result<TrainRecord, TransportError> {
        let now = self.clock.now_ns();
        let announce = self.core.begin(&Command::SendTrain { len, size }, now)?;
        match self.pump(announce)? {
            Outcome::Event(Event::TrainDone(record)) => Ok(record),
            other => Err(mismatch(&other)),
        }
    }

    fn rtt(&mut self) -> TimeNs {
        let echo = self.core.begin_rtt(self.clock.now_ns());
        match self.pump(echo) {
            Ok(Outcome::Rtt(rtt)) => rtt,
            // This method cannot fail: a conservative fallback.
            _ => TimeNs::from_millis(100),
        }
    }

    fn idle(&mut self, dur: TimeNs) {
        std::thread::sleep(dur.to_std());
    }

    fn max_rate(&self) -> Option<Rate> {
        Some(self.rate_cap)
    }

    fn elapsed(&self) -> TimeNs {
        TimeNs::from_nanos(self.clock.now_ns())
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        let _ = CtrlMsg::Bye.write_to(&mut self.ctrl);
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use crate::{EventedReceiver, EventedReceiverHandle};
    use slops::stream_params;
    use slops::SlopsConfig;

    fn loopback_pair() -> (SocketTransport, EventedReceiverHandle) {
        let rx = EventedReceiver::bind("127.0.0.1:0".parse().unwrap()).unwrap();
        let handle = rx.spawn();
        let tx = SocketTransport::connect(handle.ctrl_addr()).unwrap();
        (tx, handle)
    }

    fn loopback_cfg() -> SlopsConfig {
        // Gentle pacing for shared CI machines: 1 ms period floor, short
        // streams.
        let mut cfg = SlopsConfig::default();
        cfg.min_period = TimeNs::from_millis(1);
        cfg.stream_len = 50;
        cfg
    }

    #[test]
    fn stream_round_trip_over_loopback() {
        let _timed = crate::timing_test_lock();
        let (mut tx, handle) = loopback_pair();
        let cfg = loopback_cfg();
        let req = stream_params(Rate::from_mbps(1.6), 0, &cfg); // 200B @ 1ms
        let rec = tx.send_stream(&req).unwrap();
        assert!(
            rec.samples.len() as u32 >= req.count - 2,
            "lost too much on loopback: {}/{}",
            rec.samples.len(),
            req.count
        );
        // Relative OWDs on loopback are small but never absurd (> 1 s).
        for s in &rec.samples {
            assert!(s.owd_ns.abs() < 1_000_000_000);
        }
        drop(tx);
        handle.stop().unwrap();
    }

    #[test]
    fn train_round_trip_over_loopback() {
        let (mut tx, handle) = loopback_pair();
        let rec = tx.send_train(20, 1500).unwrap();
        assert!(rec.received >= 18, "train lost packets: {}", rec.received);
        let rate = rec.dispersion_rate().unwrap();
        assert!(rate.mbps() > 10.0, "loopback dispersion {rate} is absurd");
        drop(tx);
        handle.stop().unwrap();
    }

    #[test]
    fn rtt_over_loopback_is_sub_millisecond() {
        let (mut tx, handle) = loopback_pair();
        let rtt = tx.rtt();
        assert!(rtt < TimeNs::from_millis(50), "loopback rtt {rtt}");
        drop(tx);
        handle.stop().unwrap();
    }
}

//! Hand-rolled far ends for the wire-level tests. [`RawClient`] speaks
//! just enough of protocol v2 to announce collections and inject exactly
//! the datagrams a receiver test wants; [`RawServer`] is the sockets of a
//! receiver and nothing else, so a sender test can script every frame the
//! sender is answered with.

// Each test binary uses its own subset of the client.
#![allow(dead_code)]

use availbw::pathload_net::proto::{CtrlMsg, ProbeKind, ProbePacket, SampleWire, PROTO_VERSION};
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::time::Duration;

/// One control connection plus a probe socket aimed at the receiver's
/// shared UDP port.
pub struct RawClient {
    ctrl: TcpStream,
    udp: UdpSocket,
    /// The token the receiver minted for this connection.
    pub session: u64,
}

impl RawClient {
    /// Connect and take the `Hello`.
    pub fn connect(addr: SocketAddr) -> RawClient {
        let mut ctrl = TcpStream::connect(addr).unwrap();
        ctrl.set_nodelay(true).unwrap();
        ctrl.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let (udp_port, session) = match CtrlMsg::read_from(&mut ctrl).unwrap() {
            CtrlMsg::Hello {
                version,
                udp_port,
                session,
            } => {
                assert_eq!(version, PROTO_VERSION);
                (udp_port, session)
            }
            other => panic!("expected Hello, got {other:?}"),
        };
        let mut peer = addr;
        peer.set_port(udp_port);
        let udp = UdpSocket::bind("127.0.0.1:0").unwrap();
        udp.connect(peer).unwrap();
        RawClient { ctrl, udp, session }
    }

    /// Send one control frame.
    pub fn send(&mut self, msg: &CtrlMsg) {
        msg.write_to(&mut self.ctrl).unwrap();
    }

    /// Write raw bytes onto the control stream (framing attacks).
    pub fn send_raw(&mut self, bytes: &[u8]) {
        use std::io::Write;
        self.ctrl.write_all(bytes).unwrap();
    }

    /// Read the next control frame (`Err` once the receiver closed the
    /// connection).
    pub fn recv(&mut self) -> std::io::Result<CtrlMsg> {
        CtrlMsg::read_from(&mut self.ctrl)
    }

    /// Announce a stream and wait for `Ready`.
    pub fn announce_stream(&mut self, id: u32, count: u32, period_ns: u64) {
        self.send(&CtrlMsg::StreamAnnounce {
            id,
            count,
            period_ns,
            size: 64,
        });
        assert_eq!(self.recv().unwrap(), CtrlMsg::Ready { id });
    }

    /// Announce a train and wait for `Ready`.
    pub fn announce_train(&mut self, id: u32, count: u32) {
        self.send(&CtrlMsg::TrainAnnounce {
            id,
            count,
            size: 64,
        });
        assert_eq!(self.recv().unwrap(), CtrlMsg::Ready { id });
    }

    /// Send one stream-kind probe datagram with an arbitrary (possibly
    /// stale) token.
    pub fn send_probe(&self, session: u64, id: u32, idx: u32, send_ns: u64) {
        self.send_packet(&ProbePacket {
            session,
            kind: ProbeKind::Stream,
            id,
            idx,
            send_ns,
        });
    }

    /// Send one arbitrary probe datagram.
    pub fn send_packet(&self, packet: &ProbePacket) {
        let mut buf = [0u8; 64];
        packet.encode(&mut buf);
        self.udp.send(&buf).unwrap();
    }

    /// Read the report of stream `id`.
    pub fn read_report(&mut self, id: u32) -> Vec<SampleWire> {
        match self.recv().unwrap() {
            CtrlMsg::StreamReport { id: got, samples } => {
                assert_eq!(got, id);
                samples
            }
            other => panic!("expected StreamReport, got {other:?}"),
        }
    }

    /// Read the report of train `id`: how many of its packets arrived.
    pub fn read_train_report(&mut self, id: u32) -> u32 {
        match self.recv().unwrap() {
            CtrlMsg::TrainReport {
                id: got, received, ..
            } => {
                assert_eq!(got, id);
                received
            }
            other => panic!("expected TrainReport, got {other:?}"),
        }
    }

    /// Say `Bye` and hang up.
    pub fn bye(mut self) {
        let _ = CtrlMsg::Bye.write_to(&mut self.ctrl);
    }
}

/// The sockets of a receiver — a control listener and a probe socket on
/// loopback — with no protocol behind them: the test decides every frame.
pub struct RawServer {
    listener: TcpListener,
    udp: UdpSocket,
}

impl RawServer {
    /// Bind both sockets on ephemeral loopback ports.
    pub fn bind() -> RawServer {
        let udp = UdpSocket::bind("127.0.0.1:0").unwrap();
        udp.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        RawServer {
            listener: TcpListener::bind("127.0.0.1:0").unwrap(),
            udp,
        }
    }

    /// The control address a sender connects to.
    pub fn ctrl_addr(&self) -> SocketAddr {
        self.listener.local_addr().unwrap()
    }

    /// The probe port to advertise in a `Hello`.
    pub fn udp_port(&self) -> u16 {
        self.udp.local_addr().unwrap().port()
    }

    /// Accept one control connection and greet it with `greeting` (a
    /// `Hello`, or whatever the script says instead).
    pub fn accept(&self, greeting: &CtrlMsg) -> TcpStream {
        let (mut ctrl, _peer) = self.listener.accept().unwrap();
        ctrl.set_nodelay(true).unwrap();
        greeting.write_to(&mut ctrl).unwrap();
        ctrl
    }

    /// The next probe datagram, whole; `None` after half a second of
    /// silence.
    pub fn recv_probe(&self) -> Option<Vec<u8>> {
        let mut buf = [0u8; 2048];
        let n = self.udp.recv(&mut buf).ok()?;
        Some(buf[..n].to_vec())
    }
}

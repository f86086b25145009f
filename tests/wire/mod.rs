//! A hand-rolled control client for the wire-level receiver tests: speaks
//! just enough of protocol v2 to announce collections and inject exactly
//! the datagrams a test wants.

// Each test binary uses its own subset of the client.
#![allow(dead_code)]

use availbw::pathload_net::proto::{CtrlMsg, ProbeKind, ProbePacket, SampleWire, PROTO_VERSION};
use std::net::{SocketAddr, TcpStream, UdpSocket};
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

    /// Say `Bye` and hang up.
    pub fn bye(mut self) {
        let _ = CtrlMsg::Bye.write_to(&mut self.ctrl);
    }
}

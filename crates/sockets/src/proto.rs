//! Wire formats: UDP probe packets and framed TCP control messages.
//!
//! Everything is hand-encoded little-endian — the formats are tiny and a
//! serialization framework would be the heaviest dependency in the crate.
//!
//! Everything that arrives here is hostile until parsed: decoding never
//! indexes, never unwraps, and never reserves memory on the word of a
//! length field — a frame is bounded per role ([`MAX_FRAME_TO_RECEIVER`],
//! [`MAX_FRAME_TO_SENDER`]) before a body byte is buffered, and a sample
//! count must account for exactly the bytes present. [`CtrlBuf`] is the
//! one control-channel frame buffer every endpoint shape reads and writes
//! through.

// Datapath module: a panicking branch here takes the whole fleet down,
// so `unwrap`/`expect` are denied outright (errors must travel as values).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::io::{self, Read, Write};

/// Magic tag identifying our UDP probe packets.
pub const PROBE_MAGIC: u32 = 0x534C_6F50; // "SLoP"

/// Wire protocol version, carried in the `Hello` frame and in every probe
/// packet. Version 2 added session multiplexing: the receiver mints a
/// session token at `Hello` and every probe packet carries it, so one
/// receiver (one control port, one UDP socket) serves many concurrent
/// senders. Endpoints reject a peer speaking a different version — the
/// formats are not compatible across versions.
pub const PROTO_VERSION: u8 = 2;

/// Fixed UDP probe header length (the rest of the packet is padding).
pub const PROBE_HEADER_LEN: usize = 32;

/// Upper bound on the `count` a single announce may name. Collection
/// allocates per-stream state proportional to `count` (the seen-index
/// set, the sample vector), so without a cap one malicious
/// `StreamAnnounce { count: u32::MAX, .. }` frame would make the receiver
/// allocate gigabytes. Far above any real configuration (default stream
/// length is 100 packets); an announce beyond it is a protocol error that
/// closes the offending session — other sessions are unaffected.
pub const MAX_ANNOUNCE_COUNT: u32 = 1 << 16;

/// Encoded size of one [`SampleWire`] inside a `StreamReport`.
const SAMPLE_WIRE_LEN: usize = 20;

/// Largest control-frame body a **receiver** accepts. Its biggest
/// legitimate inbound frame is the 21-byte `StreamAnnounce`; anything
/// longer is refused on the 4-byte prefix alone, so a hostile peer cannot
/// make a session buffer more than a few dozen bytes.
pub const MAX_FRAME_TO_RECEIVER: usize = 32;

/// Largest control-frame body a **sender** accepts: a `StreamReport`
/// (tag, id, sample count) carrying [`MAX_ANNOUNCE_COUNT`] samples — the
/// most a receiver can ever have been asked to collect.
pub const MAX_FRAME_TO_SENDER: usize = 9 + SAMPLE_WIRE_LEN * MAX_ANNOUNCE_COUNT as usize;

fn invalid(what: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// Little-endian cursor over untrusted bytes: every read is bounds-checked
/// and a short buffer is an error value, never a panic.
struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn bytes<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        let (head, rest) = self
            .0
            .split_first_chunk::<N>()
            .ok_or_else(|| invalid("short frame"))?;
        self.0 = rest;
        Ok(*head)
    }

    fn u8(&mut self) -> io::Result<u8> {
        self.bytes::<1>().map(|[b]| b)
    }

    fn u16(&mut self) -> io::Result<u16> {
        self.bytes().map(u16::from_le_bytes)
    }

    fn u32(&mut self) -> io::Result<u32> {
        self.bytes().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> io::Result<u64> {
        self.bytes().map(u64::from_le_bytes)
    }
}

/// Write `bytes` at the front of `out` and advance past them (the encode
/// twin of [`Reader::bytes`]; a too-short `out` is left untouched).
fn put<const N: usize>(out: &mut &mut [u8], bytes: [u8; N]) {
    if let Some((head, rest)) = std::mem::take(out).split_first_chunk_mut::<N>() {
        *head = bytes;
        *out = rest;
    }
}

/// Kind byte of a probe packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbeKind {
    /// Packet of a periodic stream.
    Stream,
    /// Packet of a back-to-back train.
    Train,
}

/// A decoded UDP probe packet header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProbePacket {
    /// The sender's session token, minted by the receiver at `Hello`.
    /// The receiver demuxes its one shared UDP socket on this field.
    pub session: u64,
    /// Stream or train kind.
    pub kind: ProbeKind,
    /// Stream/train id.
    pub id: u32,
    /// Packet index within the stream/train.
    pub idx: u32,
    /// Sender clock at transmission (sender epoch, nanoseconds).
    pub send_ns: u64,
}

impl ProbePacket {
    /// Encode into `buf`, which must be at least [`PROBE_HEADER_LEN`]
    /// long: a shorter one is left untouched (no header fits, and
    /// [`ProbePacket::decode`] refuses it). The bytes beyond the header
    /// are left untouched as padding.
    pub fn encode(&self, buf: &mut [u8]) {
        let Some(head) = buf.first_chunk_mut::<PROBE_HEADER_LEN>() else {
            return;
        };
        let kind = match self.kind {
            ProbeKind::Stream => 0,
            ProbeKind::Train => 1,
        };
        let mut out: &mut [u8] = head;
        put(&mut out, PROBE_MAGIC.to_le_bytes());
        put(&mut out, [kind, PROTO_VERSION, 0, 0]);
        put(&mut out, self.id.to_le_bytes());
        put(&mut out, self.idx.to_le_bytes());
        put(&mut out, self.send_ns.to_le_bytes());
        put(&mut out, self.session.to_le_bytes());
    }

    /// Decode from a received datagram; `None` if it is not ours (wrong
    /// magic, wrong version, unknown kind, or too short).
    pub fn decode(buf: &[u8]) -> Option<ProbePacket> {
        let mut r = Reader(buf.first_chunk::<PROBE_HEADER_LEN>()?);
        if r.u32().ok()? != PROBE_MAGIC {
            return None;
        }
        let kind = match r.u8().ok()? {
            0 => ProbeKind::Stream,
            1 => ProbeKind::Train,
            _ => return None,
        };
        if r.u8().ok()? != PROTO_VERSION {
            return None;
        }
        r.u16().ok()?; // reserved
        let (id, idx) = (r.u32().ok()?, r.u32().ok()?);
        let (send_ns, session) = (r.u64().ok()?, r.u64().ok()?);
        Some(ProbePacket {
            session,
            kind,
            id,
            idx,
            send_ns,
        })
    }
}

/// One receiver-side observation of a stream packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SampleWire {
    /// Packet index.
    pub idx: u32,
    /// Sender timestamp from the packet (sender epoch).
    pub send_ns: u64,
    /// Receiver arrival timestamp (receiver epoch).
    pub recv_ns: u64,
}

/// Control-channel messages (TCP, length-prefixed frames).
#[derive(Clone, Debug, PartialEq)]
pub enum CtrlMsg {
    /// Receiver → sender on connect: protocol version, the UDP port to
    /// probe, and the session token minted for this control connection.
    Hello {
        /// The receiver's [`PROTO_VERSION`]; the sender disconnects on a
        /// mismatch instead of mis-parsing probe reports.
        version: u8,
        /// Receiver's (shared) UDP port.
        udp_port: u16,
        /// Session token the sender must stamp into every probe packet;
        /// the receiver routes shared-socket datagrams by this token.
        session: u64,
    },
    /// Sender → receiver: a stream is about to start.
    StreamAnnounce {
        /// Stream id.
        id: u32,
        /// Number of packets.
        count: u32,
        /// Packet period in nanoseconds.
        period_ns: u64,
        /// Packet size in bytes.
        size: u32,
    },
    /// Receiver → sender: armed and ready for the announced stream.
    Ready {
        /// Echoed stream/train id.
        id: u32,
    },
    /// Receiver → sender: per-packet records of a finished stream.
    StreamReport {
        /// Stream id.
        id: u32,
        /// Observations, in arrival order.
        samples: Vec<SampleWire>,
    },
    /// Sender → receiver: a back-to-back train is about to start.
    TrainAnnounce {
        /// Train id.
        id: u32,
        /// Number of packets.
        count: u32,
        /// Packet size in bytes.
        size: u32,
    },
    /// Receiver → sender: train observations.
    TrainReport {
        /// Train id.
        id: u32,
        /// Packets received.
        received: u32,
        /// First arrival (receiver epoch, ns).
        first_ns: u64,
        /// Last arrival (receiver epoch, ns).
        last_ns: u64,
    },
    /// RTT probe (either direction bounces it back).
    Echo {
        /// Opaque payload echoed verbatim.
        token: u64,
    },
    /// Session end.
    Bye,
    /// Receiver → sender **instead of** `Hello`: the connection is
    /// refused. Versioned like `Hello` so a sender can always tell a
    /// policy refusal (e.g. [`DENY_AT_CAPACITY`]) apart from a protocol
    /// mismatch, and knows which protocol the refusing receiver speaks.
    Deny {
        /// The receiver's [`PROTO_VERSION`].
        version: u8,
        /// Why the session was refused (a `DENY_*` constant).
        code: u8,
    },
}

/// [`CtrlMsg::Deny`] code: the receiver is at its concurrent-session
/// capacity; retry later or point the path at another receiver.
pub const DENY_AT_CAPACITY: u8 = 1;

impl CtrlMsg {
    fn tag(&self) -> u8 {
        match self {
            CtrlMsg::Hello { .. } => 1,
            CtrlMsg::StreamAnnounce { .. } => 2,
            CtrlMsg::Ready { .. } => 3,
            CtrlMsg::StreamReport { .. } => 4,
            CtrlMsg::TrainAnnounce { .. } => 5,
            CtrlMsg::TrainReport { .. } => 6,
            CtrlMsg::Echo { .. } => 7,
            CtrlMsg::Bye => 8,
            CtrlMsg::Deny { .. } => 9,
        }
    }

    /// Write the message as one length-prefixed frame.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let mut body = Vec::with_capacity(32);
        body.push(self.tag());
        match self {
            CtrlMsg::Hello {
                version,
                udp_port,
                session,
            } => {
                body.push(*version);
                body.extend_from_slice(&udp_port.to_le_bytes());
                body.extend_from_slice(&session.to_le_bytes());
            }
            CtrlMsg::StreamAnnounce {
                id,
                count,
                period_ns,
                size,
            } => {
                body.extend_from_slice(&id.to_le_bytes());
                body.extend_from_slice(&count.to_le_bytes());
                body.extend_from_slice(&period_ns.to_le_bytes());
                body.extend_from_slice(&size.to_le_bytes());
            }
            CtrlMsg::Ready { id } => body.extend_from_slice(&id.to_le_bytes()),
            CtrlMsg::StreamReport { id, samples } => {
                body.extend_from_slice(&id.to_le_bytes());
                body.extend_from_slice(&(samples.len() as u32).to_le_bytes());
                for s in samples {
                    body.extend_from_slice(&s.idx.to_le_bytes());
                    body.extend_from_slice(&s.send_ns.to_le_bytes());
                    body.extend_from_slice(&s.recv_ns.to_le_bytes());
                }
            }
            CtrlMsg::TrainAnnounce { id, count, size } => {
                body.extend_from_slice(&id.to_le_bytes());
                body.extend_from_slice(&count.to_le_bytes());
                body.extend_from_slice(&size.to_le_bytes());
            }
            CtrlMsg::TrainReport {
                id,
                received,
                first_ns,
                last_ns,
            } => {
                body.extend_from_slice(&id.to_le_bytes());
                body.extend_from_slice(&received.to_le_bytes());
                body.extend_from_slice(&first_ns.to_le_bytes());
                body.extend_from_slice(&last_ns.to_le_bytes());
            }
            CtrlMsg::Echo { token } => body.extend_from_slice(&token.to_le_bytes()),
            CtrlMsg::Bye => {}
            CtrlMsg::Deny { version, code } => {
                body.push(*version);
                body.push(*code);
            }
        }
        w.write_all(&(body.len() as u32).to_le_bytes())?;
        w.write_all(&body)
    }

    /// Read one length-prefixed frame, consuming exactly its bytes (the
    /// blocking endpoints' reader; a stream of frames is read one call at
    /// a time). The prefix is bounded by [`MAX_FRAME_TO_SENDER`], the
    /// largest frame either role accepts, and the body buffer grows only
    /// with the bytes that actually arrive.
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<CtrlMsg> {
        let mut prefix = [0u8; 4];
        r.read_exact(&mut prefix)?;
        let len = frame_len(prefix, MAX_FRAME_TO_SENDER)?;
        let mut body = Vec::new();
        r.by_ref().take(len as u64).read_to_end(&mut body)?;
        if body.len() < len {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        CtrlMsg::decode(&body)
    }

    /// Decode one frame body (tag byte plus fields, without the length
    /// prefix). Short, over-long (trailing bytes) and unknown-tag bodies
    /// are errors; nothing is reserved beyond the bytes present.
    pub fn decode(body: &[u8]) -> io::Result<CtrlMsg> {
        let mut r = Reader(body);
        let msg = match r.u8()? {
            1 => CtrlMsg::Hello {
                version: r.u8()?,
                udp_port: r.u16()?,
                session: r.u64()?,
            },
            2 => CtrlMsg::StreamAnnounce {
                id: r.u32()?,
                count: r.u32()?,
                period_ns: r.u64()?,
                size: r.u32()?,
            },
            3 => CtrlMsg::Ready { id: r.u32()? },
            4 => {
                let id = r.u32()?;
                let n = r.u32()? as usize;
                // The count must account for exactly the bytes that
                // follow, so the reservation below is backed by data the
                // peer really sent, not by 4 bytes of header.
                if n.checked_mul(SAMPLE_WIRE_LEN) != Some(r.0.len()) {
                    return Err(invalid("sample count does not match the frame length"));
                }
                let mut samples = Vec::with_capacity(n);
                for _ in 0..n {
                    samples.push(SampleWire {
                        idx: r.u32()?,
                        send_ns: r.u64()?,
                        recv_ns: r.u64()?,
                    });
                }
                CtrlMsg::StreamReport { id, samples }
            }
            5 => CtrlMsg::TrainAnnounce {
                id: r.u32()?,
                count: r.u32()?,
                size: r.u32()?,
            },
            6 => CtrlMsg::TrainReport {
                id: r.u32()?,
                received: r.u32()?,
                first_ns: r.u64()?,
                last_ns: r.u64()?,
            },
            7 => CtrlMsg::Echo { token: r.u64()? },
            8 => CtrlMsg::Bye,
            9 => CtrlMsg::Deny {
                version: r.u8()?,
                code: r.u8()?,
            },
            _ => return Err(invalid("unknown tag")),
        };
        if !r.0.is_empty() {
            return Err(invalid("trailing bytes in frame"));
        }
        Ok(msg)
    }
}

/// Validate a frame's length prefix against the reader's bound.
fn frame_len(prefix: [u8; 4], max_frame: usize) -> io::Result<usize> {
    match u32::from_le_bytes(prefix) as usize {
        0 => Err(invalid("empty control frame")),
        len if len > max_frame => Err(invalid("control frame exceeds the inbound bound")),
        len => Ok(len),
    }
}

/// Bytes read from the control stream per `read` call.
const READ_CHUNK: usize = 16 * 1024;

/// The control-channel frame buffer: inbound bytes not yet forming a
/// complete frame, outbound bytes the socket has not accepted yet. One
/// implementation serves the evented sender and the receiver (both
/// non-blocking: [`fill`](Self::fill) / [`take_frame`](Self::take_frame) /
/// [`flush`](Self::flush)).
///
/// Inbound memory is bounded by construction: a length prefix above
/// `max_frame` is an error the moment its 4 bytes are in, and `fill`
/// stops reading once a whole frame must already be buffered, so the
/// buffer never holds more than one bound plus one read chunk.
#[derive(Debug)]
pub struct CtrlBuf {
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    max_frame: usize,
}

impl CtrlBuf {
    /// An empty buffer accepting inbound frame bodies up to `max_frame`
    /// bytes ([`MAX_FRAME_TO_RECEIVER`] or [`MAX_FRAME_TO_SENDER`]).
    pub fn new(max_frame: usize) -> CtrlBuf {
        CtrlBuf {
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            max_frame,
        }
    }

    /// Read what a non-blocking stream has available. `Ok(false)` on a
    /// clean EOF. Returns early once a complete frame is certainly
    /// buffered (the caller drains frames; a level-triggered poller then
    /// reports the rest), which is what bounds the buffer against a peer
    /// that never stops sending.
    pub fn fill<R: Read>(&mut self, r: &mut R) -> io::Result<bool> {
        let mut chunk = [0u8; READ_CHUNK];
        while self.rbuf.len() < 4 + self.max_frame {
            match r.read(&mut chunk) {
                Ok(0) => return Ok(false),
                Ok(n) => {
                    // `read` contracts n <= chunk.len(); `get` keeps the
                    // defensive bound out of the panic path.
                    if let Some(read) = chunk.get(..n) {
                        self.rbuf.extend_from_slice(read);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Pop one complete frame off the inbound buffer, if present.
    pub fn take_frame(&mut self) -> io::Result<Option<CtrlMsg>> {
        let Some(&prefix) = self.rbuf.first_chunk::<4>() else {
            return Ok(None); // length prefix not complete yet
        };
        let len = frame_len(prefix, self.max_frame)?;
        let Some(body) = self.rbuf.get(4..4 + len) else {
            return Ok(None); // body not complete yet
        };
        let msg = CtrlMsg::decode(body)?;
        self.rbuf.drain(..4 + len);
        Ok(Some(msg))
    }

    /// Queue `msg` as one outbound frame.
    pub fn queue(&mut self, msg: &CtrlMsg) {
        // Vec<u8> as io::Write cannot fail; discard the impossible Err.
        let _ = msg.write_to(&mut self.wbuf);
    }

    /// True while queued outbound bytes wait for the socket.
    pub fn wants_write(&self) -> bool {
        !self.wbuf.is_empty()
    }

    /// Write as much of the outbound queue as `w` accepts. `Ok` with
    /// [`wants_write`](Self::wants_write) still true means back-pressure
    /// (wait for writability).
    pub fn flush<W: Write>(&mut self, w: &mut W) -> io::Result<()> {
        while !self.wbuf.is_empty() {
            match w.write(&self.wbuf) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::BrokenPipe,
                        "write returned 0",
                    ))
                }
                Ok(n) => {
                    self.wbuf.drain(..n.min(self.wbuf.len()));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Bytes of memory currently held for inbound data (diagnostics; the
    /// hostile-input tests pin it under the bound).
    pub fn inbound_capacity(&self) -> usize {
        self.rbuf.capacity()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn probe_packet_round_trip() {
        let p = ProbePacket {
            session: 0xDEAD_BEEF_0042,
            kind: ProbeKind::Stream,
            id: 42,
            idx: 7,
            send_ns: 123_456_789_012,
        };
        let mut buf = vec![0u8; 200];
        p.encode(&mut buf);
        assert_eq!(ProbePacket::decode(&buf), Some(p));
    }

    #[test]
    fn a_buffer_shorter_than_the_header_is_left_untouched() {
        let p = ProbePacket {
            session: 1,
            kind: ProbeKind::Stream,
            id: 2,
            idx: 3,
            send_ns: 4,
        };
        let mut short = [0xAAu8; PROBE_HEADER_LEN - 1];
        p.encode(&mut short);
        assert_eq!(short, [0xAA; PROBE_HEADER_LEN - 1]);
        assert_eq!(ProbePacket::decode(&short), None);
    }

    #[test]
    fn probe_packet_rejects_garbage() {
        assert_eq!(ProbePacket::decode(&[0u8; 10]), None);
        let mut buf = vec![0u8; 64];
        buf[0..4].copy_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        assert_eq!(ProbePacket::decode(&buf), None);
        let p = ProbePacket {
            session: 9,
            kind: ProbeKind::Train,
            id: 1,
            idx: 2,
            send_ns: 3,
        };
        let mut buf = vec![0u8; 64];
        p.encode(&mut buf);
        buf[4] = 99; // invalid kind
        assert_eq!(ProbePacket::decode(&buf), None);
    }

    #[test]
    fn probe_packet_rejects_other_versions() {
        let p = ProbePacket {
            session: 1,
            kind: ProbeKind::Stream,
            id: 1,
            idx: 0,
            send_ns: 2,
        };
        let mut buf = vec![0u8; 64];
        p.encode(&mut buf);
        buf[5] = PROTO_VERSION + 1;
        assert_eq!(ProbePacket::decode(&buf), None);
        buf[5] = 0; // pre-versioning layout
        assert_eq!(ProbePacket::decode(&buf), None);
    }

    fn round_trip(msg: CtrlMsg) {
        let mut buf = Vec::new();
        msg.write_to(&mut buf).unwrap();
        let got = CtrlMsg::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(got, msg);
    }

    #[test]
    fn ctrl_messages_round_trip() {
        round_trip(CtrlMsg::Hello {
            version: PROTO_VERSION,
            udp_port: 9999,
            session: u64::MAX - 3,
        });
        round_trip(CtrlMsg::StreamAnnounce {
            id: 5,
            count: 100,
            period_ns: 100_000,
            size: 300,
        });
        round_trip(CtrlMsg::Ready { id: 5 });
        round_trip(CtrlMsg::StreamReport {
            id: 5,
            samples: vec![
                SampleWire {
                    idx: 0,
                    send_ns: 10,
                    recv_ns: 20,
                },
                SampleWire {
                    idx: 1,
                    send_ns: 30,
                    recv_ns: 45,
                },
            ],
        });
        round_trip(CtrlMsg::TrainAnnounce {
            id: 9,
            count: 48,
            size: 1500,
        });
        round_trip(CtrlMsg::TrainReport {
            id: 9,
            received: 48,
            first_ns: 1,
            last_ns: 2,
        });
        round_trip(CtrlMsg::Echo { token: u64::MAX });
        round_trip(CtrlMsg::Bye);
        round_trip(CtrlMsg::Deny {
            version: PROTO_VERSION,
            code: DENY_AT_CAPACITY,
        });
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let mut buf = Vec::new();
        CtrlMsg::Hello {
            version: PROTO_VERSION,
            udp_port: 1,
            session: 7,
        }
        .write_to(&mut buf)
        .unwrap();
        buf.truncate(buf.len() - 1);
        assert!(CtrlMsg::read_from(&mut buf.as_slice()).is_err());
    }
}

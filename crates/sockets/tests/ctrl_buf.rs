//! The control-channel frame buffer and frame decoder against hostile
//! input: per-role bounds enforced on the 4-byte prefix alone, no memory
//! reserved on a length field's word, trailing bytes refused.

use pathload_net::proto::{
    CtrlBuf, CtrlMsg, SampleWire, MAX_ANNOUNCE_COUNT, MAX_FRAME_TO_RECEIVER, MAX_FRAME_TO_SENDER,
};
use std::io::{self, Read};

#[test]
fn trailing_bytes_in_a_frame_are_an_error() {
    let mut frame = Vec::new();
    CtrlMsg::Echo { token: 7 }.write_to(&mut frame).unwrap();
    frame[0] += 1; // the prefix now covers one byte more...
    frame.push(0); // ...which is there, after the Echo's fields
    let err = CtrlMsg::read_from(&mut frame.as_slice()).unwrap_err();
    assert!(err.to_string().contains("trailing"), "{err}");
}

/// Four bytes of hostile prefix are refused on sight, under the
/// role's bound, with nothing reserved for the body they promise.
#[test]
fn oversized_prefix_is_refused_before_any_body_byte() {
    for (bound, len) in [
        (MAX_FRAME_TO_RECEIVER, MAX_FRAME_TO_RECEIVER as u32 + 1),
        (MAX_FRAME_TO_RECEIVER, 16 * 1024 * 1024),
        (MAX_FRAME_TO_SENDER, MAX_FRAME_TO_SENDER as u32 + 1),
        (MAX_FRAME_TO_SENDER, u32::MAX),
        (MAX_FRAME_TO_SENDER, 0),
    ] {
        let mut buf = CtrlBuf::new(bound);
        let prefix = len.to_le_bytes();
        assert!(
            !buf.fill(&mut prefix.as_slice()).unwrap(),
            "EOF after 4 bytes"
        );
        assert!(
            buf.take_frame().is_err(),
            "prefix {len} under bound {bound}"
        );
        assert!(buf.inbound_capacity() <= 8, "{}", buf.inbound_capacity());
    }
    // The largest legitimate frames pass their own role's bound.
    let mut to_receiver = CtrlBuf::new(MAX_FRAME_TO_RECEIVER);
    let announce = CtrlMsg::StreamAnnounce {
        id: 1,
        count: MAX_ANNOUNCE_COUNT,
        period_ns: 1,
        size: 1500,
    };
    let mut wire = Vec::new();
    announce.write_to(&mut wire).unwrap();
    to_receiver.fill(&mut wire.as_slice()).unwrap();
    assert_eq!(to_receiver.take_frame().unwrap(), Some(announce));
    let report = CtrlMsg::StreamReport {
        id: 1,
        samples: vec![
            SampleWire {
                idx: 0,
                send_ns: 1,
                recv_ns: 2
            };
            MAX_ANNOUNCE_COUNT as usize
        ],
    };
    let mut wire = Vec::new();
    report.write_to(&mut wire).unwrap();
    assert_eq!(wire.len(), 4 + MAX_FRAME_TO_SENDER);
    assert_eq!(CtrlMsg::read_from(&mut wire.as_slice()).unwrap(), report);
}

/// A peer that never stops sending cannot grow the inbound buffer:
/// `fill` returns as soon as a whole frame must be in, and the caller
/// drains it before reading on.
#[test]
fn fill_is_bounded_against_an_endless_stream() {
    struct Endless(Vec<u8>, usize);
    impl Read for Endless {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            for b in out.iter_mut() {
                *b = self.0[self.1 % self.0.len()];
                self.1 += 1;
            }
            Ok(out.len())
        }
    }
    let mut frame = Vec::new();
    CtrlMsg::Echo { token: 9 }.write_to(&mut frame).unwrap();
    let mut wire = Endless(frame, 0);
    let mut buf = CtrlBuf::new(MAX_FRAME_TO_RECEIVER);
    for _ in 0..3 {
        assert!(buf.fill(&mut wire).unwrap());
        while let Some(msg) = buf.take_frame().unwrap() {
            assert_eq!(msg, CtrlMsg::Echo { token: 9 });
        }
        assert!(
            buf.inbound_capacity() <= 2 * 16 * 1024,
            "one read chunk, not the stream"
        );
    }
}

/// Read from a blocking stream, the buffer yields frame after frame and
/// reports the clean close; queued frames flush out byte-identical to
/// `write_to`.
#[test]
fn ctrl_buf_blocking_read_and_flush() {
    let msgs = [CtrlMsg::Echo { token: 1 }, CtrlMsg::Bye];
    let mut wire = Vec::new();
    let mut out = CtrlBuf::new(MAX_FRAME_TO_RECEIVER);
    for m in &msgs {
        m.write_to(&mut wire).unwrap();
        out.queue(m);
    }
    assert!(out.wants_write());
    let mut flushed = Vec::new();
    out.flush(&mut flushed).unwrap();
    assert!(!out.wants_write());
    assert_eq!(flushed, wire);

    let mut inbound = CtrlBuf::new(MAX_FRAME_TO_RECEIVER);
    assert!(!inbound.fill(&mut wire.as_slice()).unwrap(), "clean close");
    for m in &msgs {
        assert_eq!(&inbound.take_frame().unwrap().unwrap(), m);
    }
    assert_eq!(inbound.take_frame().unwrap(), None);
}

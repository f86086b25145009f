//! Fuzz-style property tests of the wire formats: arbitrary bytes must
//! never panic the decoders, and encode/decode must round-trip.

use pathload_net::proto::{
    CtrlBuf, CtrlMsg, ProbeKind, ProbePacket, SampleWire, MAX_FRAME_TO_RECEIVER,
    MAX_FRAME_TO_SENDER, PROTO_VERSION,
};
use proptest::prelude::*;

proptest! {
    /// Arbitrary datagrams never panic the probe decoder.
    #[test]
    fn probe_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..2048)) {
        let _ = ProbePacket::decode(&bytes);
    }

    /// Arbitrary control frames never panic the frame reader (errors are
    /// fine; panics and unbounded allocations are not).
    #[test]
    fn ctrl_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..4096)) {
        let mut cursor = bytes.as_slice();
        let _ = CtrlMsg::read_from(&mut cursor);
    }

    /// Arbitrary bytes through the shared frame buffer, under either
    /// role's bound: never a panic, every frame it yields is within the
    /// bound, and it never holds more memory than (twice, Vec's growth)
    /// the bytes the peer actually sent — a length prefix reserves nothing.
    #[test]
    fn ctrl_buf_never_panics_and_reserves_only_what_arrived(
        bytes in prop::collection::vec(any::<u8>(), 0..4096),
        sender_role in any::<bool>(),
    ) {
        let bound = if sender_role { MAX_FRAME_TO_SENDER } else { MAX_FRAME_TO_RECEIVER };
        let mut buf = CtrlBuf::new(bound);
        let mut wire = bytes.as_slice();
        while let Ok(open) = buf.fill(&mut wire) {
            prop_assert!(buf.inbound_capacity() <= 2 * bytes.len().max(8));
            let mut failed = false;
            loop {
                match buf.take_frame() {
                    Ok(Some(msg)) => {
                        let mut encoded = Vec::new();
                        msg.write_to(&mut encoded).unwrap();
                        prop_assert!(encoded.len() <= 4 + bound);
                    }
                    Ok(None) => break,
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
            if failed || !open {
                break;
            }
        }
    }

    /// A `StreamReport` header may claim any sample count; decoding
    /// reserves for exactly the samples the body really carries and
    /// refuses every other count, trailing bytes included.
    #[test]
    fn stream_report_count_must_match_the_bytes_present(
        id in any::<u32>(),
        claimed in any::<u32>(),
        tail in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut body = vec![4u8];
        body.extend(id.to_le_bytes());
        body.extend(claimed.to_le_bytes());
        body.extend(&tail);
        match CtrlMsg::decode(&body) {
            Ok(CtrlMsg::StreamReport { id: got, samples }) => {
                prop_assert_eq!(got, id);
                prop_assert_eq!(samples.len(), claimed as usize);
                prop_assert_eq!(samples.len() * 20, tail.len());
                prop_assert!(samples.capacity() * 20 <= tail.len().max(20));
            }
            Ok(other) => prop_assert!(false, "decoded {:?}", other),
            Err(_) => prop_assert!(claimed as usize * 20 != tail.len()),
        }
    }

    /// Arbitrary frame bodies never panic the decoder.
    #[test]
    fn ctrl_body_decode_never_panics(body in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = CtrlMsg::decode(&body);
    }

    /// Probe header round-trips through any buffer size >= header length.
    #[test]
    fn probe_round_trip(
        session in any::<u64>(),
        kind_train in any::<bool>(),
        id in any::<u32>(),
        idx in any::<u32>(),
        send_ns in any::<u64>(),
        pad in 32usize..1500,
    ) {
        let p = ProbePacket {
            session,
            kind: if kind_train { ProbeKind::Train } else { ProbeKind::Stream },
            id,
            idx,
            send_ns,
        };
        let mut buf = vec![0u8; pad];
        p.encode(&mut buf);
        prop_assert_eq!(ProbePacket::decode(&buf), Some(p));
    }

    /// Stream reports with arbitrary sample contents round-trip exactly.
    #[test]
    fn stream_report_round_trip(
        id in any::<u32>(),
        samples in prop::collection::vec((any::<u32>(), any::<u64>(), any::<u64>()), 0..200),
    ) {
        let msg = CtrlMsg::StreamReport {
            id,
            samples: samples
                .iter()
                .map(|(idx, s, r)| SampleWire { idx: *idx, send_ns: *s, recv_ns: *r })
                .collect(),
        };
        let mut buf = Vec::new();
        msg.write_to(&mut buf).unwrap();
        let got = CtrlMsg::read_from(&mut buf.as_slice()).unwrap();
        prop_assert_eq!(got, msg);
    }

    /// Concatenated frames decode in order (stream framing is
    /// self-delimiting).
    #[test]
    fn frames_are_self_delimiting(
        port1 in any::<u16>(),
        port2 in any::<u16>(),
        tok1 in any::<u64>(),
        tok2 in any::<u64>(),
    ) {
        let hello = |udp_port, session| CtrlMsg::Hello { version: PROTO_VERSION, udp_port, session };
        let mut buf = Vec::new();
        hello(port1, tok1).write_to(&mut buf).unwrap();
        hello(port2, tok2).write_to(&mut buf).unwrap();
        let mut cursor = buf.as_slice();
        prop_assert_eq!(CtrlMsg::read_from(&mut cursor).unwrap(), hello(port1, tok1));
        prop_assert_eq!(CtrlMsg::read_from(&mut cursor).unwrap(), hello(port2, tok2));
        prop_assert!(cursor.is_empty());
    }
}

//! Sender conformance: one protocol core, one pump.
//!
//! The sender's half of the wire protocol — hello, RTT echoes, announce,
//! the probes of a train or a paced stream, the report — lives once, in
//! the sans-IO `pathload_net::tx::TxSession`. This file pins it from the
//! far end, the way `tests/rx_conformance.rs` pins the receiver's from
//! the near end. A scripted fake receiver ([`Far`]: the decisions;
//! `wire::RawServer`: the sockets) answers like a receiver except where
//! its script says otherwise, and logs every frame and every probe
//! datagram it is sent:
//!
//! 1. **hand-stepped** — the scripts played against a `TxSession` in
//!    memory with explicit timestamps ([`Bench`]): exact frames, exact
//!    deadlines (`Ready + lead-in + i·T`, to the nanosecond), exact
//!    records, the exact instant a silent receiver becomes a stall;
//! 2. **over the wire** — the same scripts replayed against the pump, an
//!    [`EventedSession`] running a whole machine-driven session on a
//!    loop of its own ([`EventedSession::run_alone`], `pathload_snd`'s
//!    host). One checker reads both logs; the pump's errors are the
//!    core's, word for word, a receiver that dies mid-echo included;
//! 3. **core against core** — `TxSession` and `rx::RxSession` holding the
//!    whole conversation in memory over a constant one-way delay.
//!
//! The wire half of this file predates `TxSession`: it was written
//! against the pumps, not the core, and holds the pump to the far end's
//! view alone.

// The evented pump is Linux-only (epoll, timerfd).
#![cfg(target_os = "linux")]

use availbw::pathload_net::clock::MonoClock;
use availbw::pathload_net::proto::{
    CtrlMsg, ProbeKind, ProbePacket, SampleWire, DENY_AT_CAPACITY, PROBE_HEADER_LEN, PROTO_VERSION,
};
use availbw::pathload_net::rx::{Admission, CtrlAction, RxSession, POLL_TIMEOUT};
use availbw::pathload_net::tx::{self, Due, Outcome, Step, TxSession, CTRL_TIMEOUT};
use availbw::pathload_net::{EventedSession, SocketTransport};
use availbw::slops::machine::{Command, Event};
use availbw::slops::{InitialRate, SlopsConfig, SlopsError, StreamRequest, TransportError};
use availbw::telemetry::Histogram;
use availbw::units::{Rate, TimeNs};
use std::collections::VecDeque;
use std::io::Write;
use std::thread;
use std::time::{Duration, Instant};

mod wire;
use wire::RawServer;

/// The session token the fake receiver mints.
const TOKEN: u64 = 0x5EED_0000_0000_002A;

/// Lead-in the sender leaves between `Ready` and a stream's first
/// deadline (`tx::LEAD_IN_NS`, spelled out: the protocol's value is
/// pinned here, not imported).
const LEAD_IN_NS: u64 = 1_000_000;

/// Packets in the opening train of every scripted conversation. Long
/// enough that its dispersion, 32-byte packets and a loaded box
/// notwithstanding, leaves the machine a range to search: the evented
/// scripts need its streams to happen.
const TRAIN_LEN: u32 = 48;

/// How the fake receiver misbehaves on one announce.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Fault {
    /// `Ready` carries another id.
    ReadyWrongId,
    /// The report carries another id.
    ReportWrongId,
    /// A train is answered with a `StreamReport`, a stream with a
    /// `TrainReport`.
    ReportWrongKind,
    /// An (empty) report is written right behind `Ready`, in one segment:
    /// it is there before the first probe is due.
    ReportEarly,
    /// `Ready`, the probes are taken, and then nothing, ever.
    Silent,
    /// The connection is closed on the n-th RTT echo (not on an
    /// announce), unanswered: a receiver that dies mid-echo.
    HangUpMidEchoes,
}

/// One announce as the far end lived it.
#[derive(Debug)]
struct Collection {
    announce: CtrlMsg,
    /// The far end's clock when it answered `Ready`.
    ready_ns: u64,
    /// Every probe datagram that arrived before the report went out:
    /// decoded header, datagram length, arrival stamp.
    probes: Vec<(ProbePacket, usize, u64)>,
}

impl Collection {
    /// `(id, count, size, period)` of the announce; the period is `None`
    /// for a train.
    fn announced(&self) -> (u32, u32, u32, Option<u64>) {
        match self.announce {
            CtrlMsg::StreamAnnounce {
                id,
                count,
                period_ns,
                size,
            } => (id, count, size, Some(period_ns)),
            CtrlMsg::TrainAnnounce { id, count, size } => (id, count, size, None),
            ref other => panic!("not an announce: {other:?}"),
        }
    }
}

/// The scripted far end: every decision a receiver takes, taken the way
/// the script says, and a log of everything the sender sent.
#[derive(Debug)]
struct Far {
    /// `(n, fault)`: misbehave on the n-th announce (0-based).
    fault: Option<(usize, Fault)>,
    /// Every control frame the sender wrote, in order.
    frames: Vec<CtrlMsg>,
    collections: Vec<Collection>,
    /// True between a `Ready` and the report (or what replaces it).
    collecting: bool,
    /// The script closed the connection.
    hung_up: bool,
}

impl Far {
    fn new(fault: Option<(usize, Fault)>) -> Far {
        Far {
            fault,
            frames: Vec::new(),
            collections: Vec::new(),
            collecting: false,
            hung_up: false,
        }
    }

    /// The fault to apply to the announce being served, if any.
    fn fault_now(&self) -> Option<Fault> {
        self.fault
            .filter(|(n, _)| n + 1 == self.collections.len())
            .map(|(_, fault)| fault)
    }

    /// One control frame from the sender at `now_ns`; the replies, to be
    /// written as one segment.
    fn on_frame(&mut self, msg: CtrlMsg, now_ns: u64) -> Vec<CtrlMsg> {
        self.frames.push(msg.clone());
        match msg {
            CtrlMsg::Echo { token } => {
                self.hung_up = self.fault == Some((token as usize, Fault::HangUpMidEchoes));
                if self.hung_up {
                    return Vec::new();
                }
                vec![CtrlMsg::Echo { token }]
            }
            CtrlMsg::StreamAnnounce { id, .. } | CtrlMsg::TrainAnnounce { id, .. } => {
                self.collections.push(Collection {
                    announce: msg,
                    ready_ns: now_ns,
                    probes: Vec::new(),
                });
                self.collecting = true;
                let wrong = self.fault_now() == Some(Fault::ReadyWrongId);
                let mut replies = vec![CtrlMsg::Ready {
                    id: id + 7 * u32::from(wrong),
                }];
                if self.fault_now() == Some(Fault::ReportEarly) {
                    replies.extend(self.report());
                }
                replies
            }
            _ => Vec::new(),
        }
    }

    /// One probe datagram at `recv_ns`; the report, if this one ends the
    /// collection and the script lets a report out.
    fn on_probe(&mut self, datagram: &[u8], recv_ns: u64) -> Option<CtrlMsg> {
        let packet = ProbePacket::decode(datagram).expect("the sender sent a non-probe datagram");
        let c = self
            .collections
            .last_mut()
            .expect("a probe before any announce");
        c.probes.push((packet, datagram.len(), recv_ns));
        let (_, count, _, _) = c.announced();
        ((c.probes.len() as u32) >= count)
            .then(|| self.report())
            .flatten()
    }

    /// End the collection being served: its report, as the script has it.
    fn report(&mut self) -> Option<CtrlMsg> {
        let fault = self.fault_now();
        let c = self.collections.last()?;
        let (id, _, _, period) = c.announced();
        self.collecting = false;
        let id = id + 7 * u32::from(fault == Some(Fault::ReportWrongId));
        let stream = period.is_some() != (fault == Some(Fault::ReportWrongKind));
        let report = if stream {
            CtrlMsg::StreamReport {
                id,
                samples: c
                    .probes
                    .iter()
                    .map(|&(p, _, recv_ns)| SampleWire {
                        idx: p.idx,
                        send_ns: p.send_ns,
                        recv_ns,
                    })
                    .collect(),
            }
        } else {
            CtrlMsg::TrainReport {
                id,
                received: c.probes.len() as u32,
                first_ns: c.probes.first().map_or(0, |p| p.2),
                last_ns: c.probes.last().map_or(0, |p| p.2),
            }
        };
        (fault != Some(Fault::Silent)).then_some(report)
    }
}

// ---- hand-stepped -----------------------------------------------------

/// The hand-stepped clock: a control frame takes 1 µs either way, a train
/// packet 100 ns to hand over, a stream packet leaves exactly on its
/// deadline, and a probe arrives the instant it left.
const FRAME_NS: u64 = 1_000;
const TRAIN_PACKET_NS: u64 = 100;

/// A `TxSession` and a [`Far`] with nothing between them but this loop
/// and a counter for a clock.
struct Bench {
    tx: TxSession,
    far: Far,
    now: u64,
}

impl Bench {
    fn new(fault: Option<(usize, Fault)>) -> Bench {
        let hello = CtrlMsg::Hello {
            version: PROTO_VERSION,
            udp_port: 4242,
            session: TOKEN,
        };
        let (tx, udp_port) = tx::on_hello(hello).expect("a Hello of our version");
        assert_eq!((tx.session(), udp_port), (TOKEN, 4242));
        Bench {
            tx,
            far: Far::new(fault),
            now: 1_000_000,
        }
    }

    /// One exchange, pumped the way an event loop would: write what the
    /// core hands out, send what is due when it is due, hand the core
    /// each reply the moment the far end produces it — and when none
    /// comes, let time pass until the core calls it a stall.
    fn pump(&mut self, first: CtrlMsg) -> Result<Outcome, TransportError> {
        let mut step = Step::Write(first);
        let mut buf = Vec::new();
        // Frames on their way to the sender.
        let mut inbox = VecDeque::new();
        loop {
            match step {
                Step::Write(frame) => {
                    self.now += FRAME_NS;
                    inbox.extend(self.far.on_frame(frame, self.now));
                }
                Step::Wait => {}
                Step::Done(outcome) => return Ok(outcome),
            }
            while inbox.is_empty() {
                match self.tx.due() {
                    Due::None => break,
                    Due::Paced(deadline) => self.now = self.now.max(deadline),
                    Due::Burst(_) => self.now += TRAIN_PACKET_NS,
                }
                self.tx.encode(0, self.now, &mut buf);
                self.tx.sent(1, self.now);
                inbox.extend(self.far.on_probe(&buf, self.now));
            }
            let Some(frame) = inbox.pop_front() else {
                let deadline = self
                    .tx
                    .ctrl_deadline()
                    .expect("silence, yet nothing is owed");
                self.tx.on_timeout(deadline - 1)?;
                self.now = deadline;
                self.tx.on_timeout(deadline)?;
                panic!("an overdue frame was not called a stall");
            };
            self.now += FRAME_NS;
            step = self.tx.on_ctrl(frame, self.now)?;
        }
    }

    fn command(&mut self, cmd: &Command) -> Result<Event, TransportError> {
        let announce = self.tx.begin(cmd, self.now)?;
        match self.pump(announce)? {
            Outcome::Event(event) => Ok(event),
            Outcome::Rtt(rtt) => panic!("{cmd:?} answered with an RTT of {rtt}"),
        }
    }

    /// The scripted conversation, asked of the core: RTT, an 8-byte
    /// train, [`SCRIPT_STREAM`], a 100-byte train — and the `Bye` a pump
    /// says when its transport drops.
    fn conversation(&mut self) -> Result<(TimeNs, Vec<Event>), TransportError> {
        let result = (|| {
            let echo = self.tx.begin_rtt(self.now);
            let Outcome::Rtt(rtt) = self.pump(echo)? else {
                panic!("echoes answered with an event");
            };
            let events = vec![
                self.command(&Command::SendTrain {
                    len: TRAIN_LEN,
                    size: 8,
                })?,
                self.command(&Command::SendStream(SCRIPT_STREAM))?,
                self.command(&Command::SendTrain { len: 3, size: 100 })?,
            ];
            Ok((rtt, events))
        })();
        self.far.on_frame(CtrlMsg::Bye, self.now);
        result
    }
}

/// The fault-free conversation, hand-stepped: the exact frames (down to
/// their bytes), the 32-byte floor, every deadline and every record to
/// the nanosecond, pacing error observed by the core.
#[test]
fn hand_stepped_core_holds_the_scripted_conversation() {
    let mut bench = Bench::new(None);
    let pacing = Histogram::new();
    bench.tx.set_pacing_histogram(pacing.clone());
    let (rtt, events) = bench.conversation().expect("a fault-free run");
    check_conversation("core", &bench.far, 3);
    let want = scripted_frames();
    assert_eq!(bench.far.frames, want);
    assert_eq!(encode(&bench.far.frames), encode(&want));
    // Wire protocol v2, literally: the two announce layouts.
    let mut literal = vec![13, 0, 0, 0, 5, 0, 0, 0, 0, 48, 0, 0, 0, 32, 0, 0, 0];
    literal.extend([21, 0, 0, 0, 2, 1, 0, 0, 0, 12, 0, 0, 0]);
    literal.extend(1_000_000u64.to_le_bytes());
    literal.extend([32, 0, 0, 0]);
    assert_eq!(encode(&bench.far.frames[3..5]), literal);
    assert_eq!(
        rtt,
        TimeNs::from_nanos(2 * FRAME_NS),
        "median of 2 µs trips"
    );

    let [Event::TrainDone(train), Event::StreamDone(stream), Event::TrainDone(_)] = &events[..]
    else {
        panic!("three commands, three answers in kind: {events:?}");
    };
    // `Ready` is written at `ready_ns` and read a frame time later; the
    // train's four packets leave 100 ns apart from there.
    let ready_read = bench.far.collections[0].ready_ns + FRAME_NS;
    assert_eq!(
        (train.sent, train.received, train.size),
        (TRAIN_LEN, TRAIN_LEN, 32)
    );
    assert_eq!(train.first_recv.as_nanos(), ready_read + TRAIN_PACKET_NS);
    assert_eq!(
        train.last_recv.as_nanos(),
        ready_read + TRAIN_LEN as u64 * TRAIN_PACKET_NS
    );
    // The stream's packet i leaves at Ready + lead-in + i·T, exactly.
    let c = &bench.far.collections[1];
    let t0 = c.ready_ns + FRAME_NS + LEAD_IN_NS;
    for (i, &(p, _, _)) in c.probes.iter().enumerate() {
        assert_eq!((p.idx, p.send_ns), (i as u32, t0 + i as u64 * 1_000_000));
    }
    assert_eq!((stream.sent, stream.samples.len()), (12, 12));
    for (i, s) in stream.samples.iter().enumerate() {
        assert_eq!((s.idx, s.owd_ns), (i as u32, 0));
        assert_eq!(s.send_offset, TimeNs::from_millis(i as u64));
    }
    // Twelve paced packets, none late; a train's are not paced.
    assert_eq!((pacing.count(), pacing.sum()), (12, 0));
}

/// Every fault script, hand-stepped: the core refuses the frame, names
/// the state it was in, and is idle afterwards.
#[test]
fn hand_stepped_core_refuses_the_scripted_faults() {
    for script in &SCRIPTS {
        let mut bench = Bench::new(Some(script.fault));
        let error = bench
            .conversation()
            .expect_err("the fault went unnoticed")
            .to_string();
        let name = script.name;
        assert!(error.contains(script.quotes), "{name}: {error}");
        assert!(error.contains(script.state), "{name}: {error}");
        assert_eq!(bench.tx.due(), Due::None, "{name}: idle after an error");
        assert_eq!(bench.tx.ctrl_deadline(), None, "{name}");
        check_conversation(name, &bench.far, script.fault.0);
    }
}

/// The silent-receiver hang, on synthetic time: a frame the core is owed
/// has [`CTRL_TIMEOUT`] from the sender's *last own action* — not from
/// the announce, or a stream longer than the timeout would eat its own
/// budget — and an overdue one is a transport error that says so, in
/// every state that waits.
#[test]
fn a_silent_receiver_is_a_stall_in_every_waiting_state() {
    let timeout = CTRL_TIMEOUT.as_nanos() as u64;
    let stalls = |tx: &mut TxSession, since: u64, state: &str| {
        assert_eq!(tx.ctrl_deadline(), Some(since + timeout), "{state}");
        tx.on_timeout(since + timeout - 1).expect("within budget");
        let error = tx.on_timeout(since + timeout).expect_err(state).to_string();
        assert!(error.contains("stalled or half-open"), "{error}");
        assert!(error.contains(state), "{error}");
        assert_eq!((tx.due(), tx.ctrl_deadline()), (Due::None, None), "idle");
    };

    // Mid-RTT: the second echo is never answered.
    let mut bench = Bench::new(None);
    let tx = &mut bench.tx;
    assert_eq!(tx.begin_rtt(1_000), CtrlMsg::Echo { token: 0 });
    let step = tx.on_ctrl(CtrlMsg::Echo { token: 0 }, 6_000).unwrap();
    assert!(matches!(step, Step::Write(CtrlMsg::Echo { token: 1 })));
    stalls(tx, 6_000, "Rtt");

    // The announce is never answered.
    let long = Command::SendStream(StreamRequest {
        stream_id: 0,
        packet_size: 200,
        period: TimeNs::from_secs(1),
        count: 40,
    });
    tx.begin(&long, 10_000).unwrap();
    stalls(tx, 10_000, "AwaitReady");

    // `Ready`, a 40 s stream, and then nothing: while probes are due the
    // core is owed no frame, and the wait for the report starts at the
    // last probe — 9 s after the announce's own 30 s would have run out.
    let announce = tx.begin(&long, 20_000).unwrap();
    assert!(matches!(announce, CtrlMsg::StreamAnnounce { id: 1, .. }));
    tx.on_ctrl(CtrlMsg::Ready { id: 1 }, 21_000).unwrap();
    let mut buf = Vec::new();
    let mut last = 0;
    while let Due::Paced(deadline) = tx.due() {
        assert_eq!(tx.ctrl_deadline(), None, "nothing is owed mid-stream");
        tx.on_timeout(deadline).expect("no wait, no stall");
        tx.encode(0, deadline, &mut buf);
        tx.sent(1, deadline);
        last = deadline;
    }
    assert_eq!(last, 21_000 + LEAD_IN_NS + 39 * 1_000_000_000);
    stalls(tx, last, "AwaitReport");

    // And the connection's ids go on where they were.
    let next = tx
        .begin(&Command::SendTrain { len: 2, size: 64 }, last)
        .unwrap();
    assert!(matches!(next, CtrlMsg::TrainAnnounce { id: 2, .. }));

    // The same through a pump loop: the far end takes a stream's probes
    // and never reports; the stall is called 30 s after the last probe.
    let mut bench = Bench::new(Some((1, Fault::Silent)));
    let error = bench.conversation().expect_err("silence").to_string();
    assert!(error.contains("stalled or half-open"), "{error}");
    let (last_probe, _, _) = bench.far.collections[1].probes[11];
    assert_eq!(bench.now, last_probe.send_ns + timeout);
}

// ---- core against core ------------------------------------------------

/// One-way delay of the in-memory path, either direction.
const DELAY_NS: u64 = 250_000;

/// A `TxSession` and an `RxSession` joined by a constant one-way delay.
/// One counter is the clock of both ends (`now`: the sender's present).
struct Path {
    tx: TxSession,
    rx: RxSession,
    now: u64,
    /// Probe index the path loses, if any.
    drop_idx: Option<u32>,
}

impl Path {
    /// One exchange to its outcome.
    fn exchange(&mut self, first: CtrlMsg) -> Outcome {
        let mut step = Step::Write(first);
        let mut buf = Vec::new();
        loop {
            // A frame bound for the sender, and when it gets there.
            let mut inbound = match step {
                Step::Write(frame) => {
                    let at = self.now + DELAY_NS;
                    match self
                        .rx
                        .on_ctrl(frame, at)
                        .expect("a frame the receiver takes")
                    {
                        CtrlAction::Reply(reply) => Some((reply, at + DELAY_NS)),
                        CtrlAction::Close => panic!("nobody said Bye"),
                    }
                }
                Step::Wait => None,
                Step::Done(outcome) => return outcome,
            };
            let mut rx_now = self.now + DELAY_NS;
            loop {
                match self.tx.due() {
                    Due::None => break,
                    Due::Paced(deadline) => self.now = self.now.max(deadline),
                    Due::Burst(_) => self.now += 1,
                }
                self.tx.encode(0, self.now, &mut buf);
                self.tx.sent(1, self.now);
                let packet = ProbePacket::decode(&buf).expect("a probe header");
                if Some(packet.idx) == self.drop_idx {
                    continue;
                }
                rx_now = self.now + DELAY_NS;
                if let Some(report) = self.rx.on_probe(&packet, rx_now) {
                    inbound = Some((report, rx_now + DELAY_NS));
                }
            }
            // A collection short of a probe ends on the receiver's ticks.
            while inbound.is_none() {
                assert!(self.rx.is_collecting(), "nothing owed, nothing coming");
                rx_now += POLL_TIMEOUT.as_nanos() as u64;
                inbound = self.rx.on_tick(rx_now).map(|r| (r, rx_now + DELAY_NS));
            }
            let (frame, at) = inbound.expect("the loop above ends on Some");
            self.now = self.now.max(at);
            step = self
                .tx
                .on_ctrl(frame, self.now)
                .expect("the frame it waits for");
        }
    }

    fn command(&mut self, cmd: &Command) -> Event {
        let announce = self.tx.begin(cmd, self.now).unwrap();
        match self.exchange(announce) {
            Outcome::Event(event) => event,
            Outcome::Rtt(rtt) => panic!("{cmd:?} answered with an RTT of {rtt}"),
        }
    }
}

/// The two protocol cores, together for the first time: admission, hello,
/// one RTT, one train, one stream and one stream that loses a probe, with
/// no socket, no thread and a counter for a clock. Every one-way delay
/// reads as exactly the injected one, every send offset as exactly
/// `idx · period`, and a dropped probe as one missing sample.
#[test]
fn tx_against_rx_in_memory() {
    let mut desk = Admission::new(4242, 0x5eed);
    let (rx, hello) = desk.admit(0).expect("an uncapped desk admits");
    let (tx, udp_port) = tx::on_hello(hello).expect("the desk's own Hello");
    assert_eq!((tx.session(), udp_port), (rx.token(), 4242));
    let mut path = Path {
        tx,
        rx,
        now: 1_000_000,
        drop_idx: None,
    };

    let echo = path.tx.begin_rtt(path.now);
    let Outcome::Rtt(rtt) = path.exchange(echo) else {
        panic!("echoes answered with an event");
    };
    assert_eq!(rtt, TimeNs::from_nanos(2 * DELAY_NS));

    let before = path.now;
    let Event::TrainDone(train) = path.command(&Command::SendTrain { len: 6, size: 1000 }) else {
        panic!("a train answered with a stream");
    };
    assert_eq!((train.sent, train.received, train.size), (6, 6, 1000));
    // Announce out, Ready back, then one tick of the counter per packet.
    let first_send = before + 2 * DELAY_NS + 1;
    assert_eq!(train.first_recv.as_nanos(), first_send + DELAY_NS);
    assert_eq!(train.last_recv.as_nanos(), first_send + 5 + DELAY_NS);

    let req = StreamRequest {
        stream_id: 0,
        packet_size: 300,
        period: TimeNs::from_millis(2),
        count: 10,
    };
    let Event::StreamDone(stream) = path.command(&Command::SendStream(req)) else {
        panic!("a stream answered with a train");
    };
    assert_eq!((stream.sent, stream.samples.len()), (10, 10));
    for (i, s) in stream.samples.iter().enumerate() {
        assert_eq!(s.idx, i as u32);
        assert_eq!(s.owd_ns, DELAY_NS as i64);
        assert_eq!(s.send_offset, TimeNs::from_millis(2 * i as u64));
    }

    path.drop_idx = Some(4);
    let Event::StreamDone(lossy) = path.command(&Command::SendStream(req)) else {
        panic!("a stream answered with a train");
    };
    assert_eq!((lossy.sent, lossy.samples.len()), (10, 9));
    let got: Vec<u32> = lossy.samples.iter().map(|s| s.idx).collect();
    assert_eq!(got, [0, 1, 2, 3, 5, 6, 7, 8, 9], "idx 4 is the one missing");
    for s in &lossy.samples {
        assert_eq!(s.owd_ns, DELAY_NS as i64);
        assert_eq!(s.send_offset, TimeNs::from_millis(2 * s.idx as u64));
    }
    assert_eq!(desk.counters().silence_stops.get(), 1, "the lossy stream");
    assert_eq!(desk.counters().drop_dedup.get(), 0);
}

// ---- over the wire ----------------------------------------------------

/// Serve one control connection with `far`'s decisions on `server`'s
/// sockets until the sender hangs up (or the script does). `clock`
/// shares the sender's epoch, so `ready_ns` and the probes' `send_ns`
/// are on one timeline.
fn serve(server: &RawServer, clock: &MonoClock, mut far: Far) -> Far {
    let hello = CtrlMsg::Hello {
        version: PROTO_VERSION,
        udp_port: server.udp_port(),
        session: TOKEN,
    };
    let mut ctrl = server.accept(&hello);
    while let Ok(msg) = CtrlMsg::read_from(&mut ctrl) {
        // Stamped before the replies are written (in one segment, so a
        // sender reads them in one go): it reads `Ready` no earlier.
        let replies = far.on_frame(msg, clock.now_ns());
        if far.hung_up {
            break; // closes the connection
        }
        let _ = ctrl.write_all(&encode(&replies));
        while far.collecting {
            // Silence means the sender gave up on this command (a fault
            // script): back to the control channel, where its `Bye` is.
            let Some(datagram) = server.recv_probe() else {
                far.collecting = false;
                break;
            };
            if let Some(report) = far.on_probe(&datagram, clock.now_ns()) {
                let _ = report.write_to(&mut ctrl);
            }
        }
    }
    far
}

/// Start a fake receiver; returns the address to dial, the shared clock
/// and the thread that yields the far end's log.
fn start_far(
    fault: Option<(usize, Fault)>,
) -> (std::net::SocketAddr, MonoClock, thread::JoinHandle<Far>) {
    let clock = MonoClock::new();
    let server = RawServer::bind();
    let addr = server.ctrl_addr();
    let far_clock = clock.same_epoch();
    let handle = thread::spawn(move || serve(&server, &far_clock, Far::new(fault)));
    (addr, clock, handle)
}

/// What one pump run left behind.
struct Run {
    far: Far,
    /// The error the sender's side ended with, if any.
    outcome: Result<(), String>,
}

/// The stream of the scripted conversation: an 8-byte packet, which must
/// go out as a bare 32-byte header.
const SCRIPT_STREAM: StreamRequest = StreamRequest {
    stream_id: 0,
    packet_size: 8,
    period: TimeNs::from_millis(1),
    count: 12,
};

/// The session the pump runs: an 8-byte initial train, then two short
/// fleets of 12-packet streams, one RTT of idle between streams.
fn evented_cfg() -> SlopsConfig {
    let mut cfg = SlopsConfig::default();
    cfg.initial = InitialRate::Train {
        len: TRAIN_LEN,
        size: 8,
    };
    cfg.stream_len = 12;
    cfg.fleet_len = 2;
    cfg.max_fleets = 2;
    cfg.min_period = TimeNs::from_millis(1);
    // Never narrow enough to stop early: `max_fleets` ends the session.
    cfg.resolution = Rate::from_mbps(0.1);
    cfg.grey_resolution = Rate::from_mbps(0.2);
    cfg.avg_load_factor = 1.0;
    cfg
}

/// Run one session on the one-session host, `patience` bounding the
/// wait. Returns the outcome and how long it took.
fn host(
    addr: std::net::SocketAddr,
    clock: &MonoClock,
    patience: Duration,
) -> (Result<(), SlopsError>, Duration) {
    let mut transport = SocketTransport::connect_with_clock(addr, clock.same_epoch()).unwrap();
    transport.rate_cap = Rate::from_mbps(30.0);
    let started = Instant::now();
    let (done, outcome) = std::sync::mpsc::channel();
    thread::spawn(move || {
        let (transport, outcome) = EventedSession::run_alone(transport, evented_cfg());
        drop(transport); // says `Bye`
        let _ = done.send(outcome.map(|_| ()));
    });
    let outcome = outcome.recv_timeout(patience).unwrap_or_else(|_| {
        Err(SlopsError::Transport(TransportError::Io(format!(
            "still waiting after {patience:?}"
        ))))
    });
    (outcome, started.elapsed())
}

fn run(fault: Option<(usize, Fault)>) -> Run {
    let (addr, clock, far) = start_far(fault);
    let (outcome, _) = host(addr, &clock, Duration::from_secs(20));
    Run {
        far: far.join().unwrap(),
        outcome: outcome.map_err(|e| e.to_string()),
    }
}

fn encode(frames: &[CtrlMsg]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for f in frames {
        f.write_to(&mut bytes).unwrap();
    }
    bytes
}

/// What every conversation must look like from the far end, whether the
/// pump or the hand-stepped core held the near end: three echoes, announces whose ids count up
/// from 0 across trains and streams, `Bye` last; per announce the probes
/// the protocol promises. `complete` is how many announces ran to their
/// report (a fault script stops the sender short of the last one).
fn check_conversation(who: &str, far: &Far, complete: usize) {
    let echoes: Vec<_> = (0..3).map(|token| CtrlMsg::Echo { token }).collect();
    assert_eq!(far.frames[..3], echoes[..], "{who}: RTT is echoes 0, 1, 2");
    assert_eq!(far.frames.last(), Some(&CtrlMsg::Bye), "{who}: Bye on drop");
    let announces = &far.frames[3..far.frames.len() - 1];
    assert_eq!(
        announces.len(),
        far.collections.len(),
        "{who}: a frame that is neither echo, announce nor Bye: {:?}",
        far.frames
    );
    for (n, c) in far.collections.iter().enumerate() {
        let (id, count, size, period) = c.announced();
        assert_eq!(id, n as u32, "{who}: ids count 0, 1, 2… across kinds");
        assert!(
            size as usize >= PROBE_HEADER_LEN,
            "{who}: announced a packet smaller than its header"
        );
        if n >= complete {
            continue;
        }
        let kind = match period {
            Some(_) => ProbeKind::Stream,
            None => ProbeKind::Train,
        };
        assert_eq!(c.probes.len() as u32, count, "{who}: announce {n}");
        let mut seen = vec![false; count as usize];
        let mut last_send = 0;
        for &(p, len, _) in &c.probes {
            assert_eq!(
                (p.session, p.kind, p.id),
                (TOKEN, kind, id),
                "{who}: announce {n}: a probe of another collection"
            );
            assert_eq!(len, size as usize, "{who}: sent size is the announced size");
            assert!(
                !std::mem::replace(&mut seen[p.idx as usize], true),
                "{who}: announce {n}: idx {} twice",
                p.idx
            );
            assert!(p.send_ns >= last_send, "{who}: send_ns went backwards");
            last_send = p.send_ns;
            assert!(
                p.send_ns >= c.ready_ns,
                "{who}: announce {n}: a probe stamped before Ready"
            );
            if let Some(period_ns) = period {
                // Absolute deadlines t0 + i·T with t0 ≥ Ready + lead-in:
                // no packet leaves before its own. (How late it leaves is
                // the box's business; half a second is not.)
                let due = c.ready_ns + LEAD_IN_NS + p.idx as u64 * period_ns;
                assert!(
                    p.send_ns >= due,
                    "{who}: announce {n}: idx {} left {} ns early",
                    p.idx,
                    due - p.send_ns
                );
                assert!(p.send_ns < due + 500_000_000, "{who}: off the grid");
            }
        }
    }
}

/// Every frame the scripted conversation puts on the control channel
/// (`Bye` included: the far end logs it when the conversation ends).
fn scripted_frames() -> Vec<CtrlMsg> {
    vec![
        CtrlMsg::Echo { token: 0 },
        CtrlMsg::Echo { token: 1 },
        CtrlMsg::Echo { token: 2 },
        CtrlMsg::TrainAnnounce {
            id: 0,
            count: TRAIN_LEN,
            size: 32, // asked for 8
        },
        CtrlMsg::StreamAnnounce {
            id: 1,
            count: 12,
            period_ns: 1_000_000,
            size: 32, // asked for 8
        },
        CtrlMsg::TrainAnnounce {
            id: 2,
            count: 3,
            size: 100,
        },
        CtrlMsg::Bye,
    ]
}

/// The scripted conversation with a machine in charge of the commands:
/// the pump's frames and probes pass the checker, its first announce is
/// byte for byte the hand-stepped core's.
#[test]
fn evented_pump_holds_the_scripted_conversation() {
    let run = run(None);
    run.outcome.expect("a fault-free run");
    check_conversation("evented", &run.far, run.far.collections.len());
    let first = CtrlMsg::TrainAnnounce {
        id: 0,
        count: TRAIN_LEN,
        size: 32, // the config asks for 8
    };
    assert_eq!(encode(&run.far.frames[3..4]), encode(&[first]));
    let streams = &run.far.collections[1..];
    assert!(streams.len() >= 2, "the machine ran at least one fleet");
    for c in streams {
        let (_, count, _, period) = c.announced();
        assert_eq!(count, 12);
        assert!(period.is_some_and(|p| p >= 1_000_000), "a stream, paced");
    }
}

struct Script {
    name: &'static str,
    fault: (usize, Fault),
    /// What the sender's error must quote: the frame it refused.
    quotes: &'static str,
    /// The core state the error must name.
    state: &'static str,
}

const SCRIPTS: [Script; 7] = [
    Script {
        name: "ready_wrong_id_for_the_train",
        fault: (0, Fault::ReadyWrongId),
        quotes: "Ready { id: 7 }",
        state: "AwaitReady",
    },
    Script {
        name: "ready_wrong_id_for_a_stream",
        fault: (1, Fault::ReadyWrongId),
        quotes: "Ready { id: 8 }",
        state: "AwaitReady",
    },
    Script {
        name: "train_report_wrong_id",
        fault: (0, Fault::ReportWrongId),
        quotes: "TrainReport { id: 7,",
        state: "AwaitReport",
    },
    Script {
        name: "stream_report_wrong_id",
        fault: (1, Fault::ReportWrongId),
        quotes: "StreamReport { id: 8,",
        state: "AwaitReport",
    },
    Script {
        name: "stream_report_for_a_train",
        fault: (0, Fault::ReportWrongKind),
        quotes: "StreamReport { id: 0,",
        state: "AwaitReport",
    },
    Script {
        name: "train_report_for_a_stream",
        fault: (1, Fault::ReportWrongKind),
        quotes: "TrainReport { id: 1,",
        state: "AwaitReport",
    },
    Script {
        name: "report_before_any_probe",
        fault: (1, Fault::ReportEarly),
        quotes: "StreamReport { id: 1,",
        state: "Sending",
    },
];

/// Every fault script against the pump, all at once: the sender ends
/// with an error that quotes the frame it refused, announces nothing
/// after it, and still says `Bye`.
#[test]
fn both_pumps_refuse_the_scripted_faults() {
    let runs: Vec<_> = SCRIPTS
        .iter()
        .map(|script| {
            let fault = script.fault;
            (script, thread::spawn(move || run(Some(fault))))
        })
        .collect();
    for (script, handle) in runs {
        let who = script.name;
        let run = handle.join().unwrap_or_else(|_| panic!("{who} panicked"));
        let Err(error) = run.outcome else {
            panic!("{who}: the fault went unnoticed");
        };
        assert!(error.contains(script.quotes), "{who}: {error}");
        assert!(error.contains(script.state), "{who}: {error}");
        assert_eq!(
            run.far.collections.len(),
            script.fault.0 + 1,
            "{who}: announced again after a protocol error"
        );
        check_conversation(who, &run.far, script.fault.0);
    }
}

/// A receiver that greets and then dies during the RTT echoes fails the
/// session with the core's worded control-channel error — not a made-up
/// RTT that a machine is built on, and then an unrelated write error —
/// and the sender announces nothing.
#[test]
fn a_receiver_that_dies_mid_echo_fails_the_session_before_any_announce() {
    let (addr, clock, far) = start_far(Some((1, Fault::HangUpMidEchoes)));
    let (outcome, _) = host(addr, &clock, Duration::from_secs(20));
    let error = outcome.expect_err("the receiver is gone").to_string();
    assert!(error.contains("receiver gone or restarted"), "{error}");
    assert!(error.contains("fresh Hello"), "{error}");
    let far = far.join().unwrap();
    let echoes: Vec<_> = (0..2).map(|token| CtrlMsg::Echo { token }).collect();
    assert_eq!(far.frames, echoes, "echo 1 went unanswered: nothing after");
    assert!(
        far.collections.is_empty(),
        "an announce after a dead channel"
    );
}

/// What `connect` makes of the greeting: a `Deny` is `ConnectionRefused`
/// naming the reason and the *receiver's* protocol version, a `Hello` of
/// another version or anything else is `InvalidData`.
#[test]
fn the_greeting_is_checked_before_anything_is_sent() {
    let greet = |greeting: CtrlMsg| {
        let server = RawServer::bind();
        let addr = server.ctrl_addr();
        let far = thread::spawn(move || drop(server.accept(&greeting)));
        let err = SocketTransport::connect(addr).expect_err("a refused greeting");
        far.join().unwrap();
        (err.kind(), err.to_string())
    };
    let (kind, text) = greet(CtrlMsg::Deny {
        version: 9,
        code: DENY_AT_CAPACITY,
    });
    assert_eq!(kind, std::io::ErrorKind::ConnectionRefused);
    assert!(text.contains("capacity") && text.contains("v9"), "{text}");
    let (kind, text) = greet(CtrlMsg::Deny {
        version: 2,
        code: 200,
    });
    assert_eq!(kind, std::io::ErrorKind::ConnectionRefused);
    assert!(text.contains("policy") && text.contains("v2"), "{text}");
    let (kind, text) = greet(CtrlMsg::Hello {
        version: 3,
        udp_port: 1,
        session: TOKEN,
    });
    assert_eq!(kind, std::io::ErrorKind::InvalidData);
    assert!(text.contains("v3"), "{text}");
    let (kind, text) = greet(CtrlMsg::Ready { id: 0 });
    assert_eq!(kind, std::io::ErrorKind::InvalidData);
    assert!(text.contains("Ready"), "{text}");
}

/// A receiver that answers `Ready`, takes the probes and then goes silent
/// (stalled, half-open) must fail the session, not hang it: the path
/// would stay "running" in the scheduler for ever. Thirty seconds of wall
/// clock, so `--ignored`; the CI soak job runs it.
#[test]
#[ignore = "waits out the 30 s control-channel timeout"]
fn silent_receiver_fails_the_evented_session_instead_of_hanging() {
    let (addr, clock, far) = start_far(Some((0, Fault::Silent)));
    let (outcome, took) = host(addr, &clock, Duration::from_secs(40));
    let error = outcome.expect_err("a silent receiver").to_string();
    assert!(error.contains("stalled or half-open"), "{error}");
    assert!(took < Duration::from_secs(31), "failed only after {took:?}");
    let far = far.join().unwrap();
    assert_eq!(
        far.collections[0].probes.len() as u32,
        TRAIN_LEN,
        "the train went out"
    );
}

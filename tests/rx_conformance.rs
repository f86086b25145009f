//! Receiver conformance: the protocol core, and the pump over it.
//!
//! The per-session receive protocol lives once, in the sans-IO
//! `pathload_net::rx::RxSession`. This file pins it the way
//! `tests/driver_equivalence.rs` pins the sender's machine:
//!
//! 1. **hand-stepped** — scripted `(ctrl, probe, tick)` sequences fed to
//!    an `RxSession` with explicit timestamps, asserting the exact frames
//!    it returns (down to their encoded bytes), the exact tick a stop rule
//!    fires on, and the exact counter deltas;
//! 2. **over the wire** — the same scripts replayed by a hand-rolled
//!    client against the `EventedReceiver`: it must produce the core's
//!    frame sequence, the same `(idx, send_ns)` sets and the same counter
//!    deltas, because all it does is move bytes in and out of that core.

// The receiver's event loop is Linux-only (epoll).
#![cfg(target_os = "linux")]

use availbw::pathload_net::proto::{
    CtrlMsg, ProbeKind, ProbePacket, SampleWire, DENY_AT_CAPACITY, MAX_ANNOUNCE_COUNT,
    PROTO_VERSION,
};
use availbw::pathload_net::rx::{Admission, CtrlAction, POLL_TIMEOUT};
use availbw::pathload_net::{EventedReceiver, EventedReceiverHandle};
use availbw::telemetry::Registry;
use std::thread;
use std::time::{Duration, Instant};

mod wire;
use wire::RawClient;

/// One scripted input.
#[derive(Clone, Debug)]
enum Step {
    /// A control frame from the sender.
    Ctrl(CtrlMsg),
    /// A probe datagram carrying the session's token: kind, id, idx,
    /// send_ns.
    Probe(ProbeKind, u32, u32, u64),
    /// Nothing more arrives: time passes until the receiver speaks.
    Silence,
}

use ProbeKind::{Stream, Train};

fn announce_stream(id: u32, count: u32) -> Step {
    Step::Ctrl(CtrlMsg::StreamAnnounce {
        id,
        count,
        period_ns: 1_000_000,
        size: 64,
    })
}

fn announce_train(id: u32, count: u32) -> Step {
    Step::Ctrl(CtrlMsg::TrainAnnounce {
        id,
        count,
        size: 64,
    })
}

/// The hand-stepped clock: starts at 1 ms, a control frame costs 1 µs, a
/// probe 10 µs. `t(c, p)` is the instant after `c` control frames and `p`
/// probes — what the core is handed as `now_ns` / `recv_ns`.
const fn t(ctrls: u64, probes: u64) -> u64 {
    1_000_000 + 1_000 * ctrls + 10_000 * probes
}

fn sample(idx: u32, send_ns: u64, recv_ns: u64) -> SampleWire {
    SampleWire {
        idx,
        send_ns,
        recv_ns,
    }
}

/// What a script must produce when hand-stepped.
struct Expect {
    /// Every frame the core returns, in order, exactly.
    frames: Vec<CtrlMsg>,
    /// Per `Silence` step: the tick (1-based) the report came out on.
    ticks: Vec<u32>,
    /// The session ended (protocol error or `Bye`).
    closed: bool,
    dedup: u64,
    silence_stops: u64,
}

struct Script {
    name: &'static str,
    steps: Vec<Step>,
    expect: Expect,
}

fn scripts() -> Vec<Script> {
    let probe = Step::Probe;
    vec![
        Script {
            name: "in_order",
            steps: vec![
                announce_stream(7, 3),
                probe(Stream, 7, 0, 100),
                probe(Stream, 7, 1, 200),
                probe(Stream, 7, 2, 300),
            ],
            expect: Expect {
                frames: vec![
                    CtrlMsg::Ready { id: 7 },
                    CtrlMsg::StreamReport {
                        id: 7,
                        samples: vec![
                            sample(0, 100, t(1, 1)),
                            sample(1, 200, t(1, 2)),
                            sample(2, 300, t(1, 3)),
                        ],
                    },
                ],
                ticks: vec![],
                closed: false,
                dedup: 0,
                silence_stops: 0,
            },
        },
        Script {
            name: "duplicated_index",
            steps: vec![
                announce_stream(8, 3),
                probe(Stream, 8, 0, 100),
                probe(Stream, 8, 1, 200),
                probe(Stream, 8, 1, 201), // the duplicate: first arrival wins
                probe(Stream, 8, 2, 300),
            ],
            expect: Expect {
                frames: vec![
                    CtrlMsg::Ready { id: 8 },
                    CtrlMsg::StreamReport {
                        id: 8,
                        samples: vec![
                            sample(0, 100, t(1, 1)),
                            sample(1, 200, t(1, 2)),
                            sample(2, 300, t(1, 4)),
                        ],
                    },
                ],
                ticks: vec![],
                closed: false,
                dedup: 1,
                silence_stops: 0,
            },
        },
        Script {
            name: "out_of_range_index",
            steps: vec![
                announce_stream(9, 2),
                probe(Stream, 9, 0, 100),
                probe(Stream, 9, 5, 500),
                probe(Stream, 9, 1, 200),
            ],
            expect: Expect {
                frames: vec![
                    CtrlMsg::Ready { id: 9 },
                    CtrlMsg::StreamReport {
                        id: 9,
                        samples: vec![sample(0, 100, t(1, 1)), sample(1, 200, t(1, 3))],
                    },
                ],
                ticks: vec![],
                closed: false,
                dedup: 1,
                silence_stops: 0,
            },
        },
        Script {
            name: "wrong_id",
            steps: vec![
                announce_stream(10, 2),
                probe(Stream, 99, 0, 999),
                probe(Stream, 10, 0, 100),
                probe(Stream, 10, 1, 200),
            ],
            expect: Expect {
                frames: vec![
                    CtrlMsg::Ready { id: 10 },
                    CtrlMsg::StreamReport {
                        id: 10,
                        samples: vec![sample(0, 100, t(1, 2)), sample(1, 200, t(1, 3))],
                    },
                ],
                ticks: vec![],
                closed: false,
                dedup: 0,
                silence_stops: 0,
            },
        },
        Script {
            name: "wrong_kind",
            steps: vec![
                announce_stream(11, 2),
                probe(Train, 11, 0, 999),
                probe(Stream, 11, 0, 100),
                probe(Stream, 11, 1, 200),
            ],
            expect: Expect {
                frames: vec![
                    CtrlMsg::Ready { id: 11 },
                    CtrlMsg::StreamReport {
                        id: 11,
                        samples: vec![sample(0, 100, t(1, 2)), sample(1, 200, t(1, 3))],
                    },
                ],
                ticks: vec![],
                closed: false,
                dedup: 0,
                silence_stops: 0,
            },
        },
        Script {
            name: "probe_while_idle",
            steps: vec![
                probe(Stream, 12, 0, 999),
                Step::Ctrl(CtrlMsg::Echo { token: 5 }),
                announce_stream(12, 1),
                probe(Stream, 12, 0, 100),
            ],
            expect: Expect {
                frames: vec![
                    CtrlMsg::Echo { token: 5 },
                    CtrlMsg::Ready { id: 12 },
                    CtrlMsg::StreamReport {
                        id: 12,
                        samples: vec![sample(0, 100, t(2, 2))],
                    },
                ],
                ticks: vec![],
                closed: false,
                dedup: 0,
                silence_stops: 0,
            },
        },
        Script {
            // Last activity at t(1, 4); the 5 ms nominal duration is long
            // over when the 200 ms silence window closes — on tick 4,
            // exactly 200 ms later, not a tick earlier.
            name: "lost_tail_stops_on_silence",
            steps: vec![
                announce_stream(13, 5),
                probe(Stream, 13, 0, 100),
                probe(Stream, 13, 1, 200),
                probe(Stream, 13, 2, 300),
                probe(Stream, 13, 3, 400),
                Step::Silence,
            ],
            expect: Expect {
                frames: vec![
                    CtrlMsg::Ready { id: 13 },
                    CtrlMsg::StreamReport {
                        id: 13,
                        samples: vec![
                            sample(0, 100, t(1, 1)),
                            sample(1, 200, t(1, 2)),
                            sample(2, 300, t(1, 3)),
                            sample(3, 400, t(1, 4)),
                        ],
                    },
                ],
                ticks: vec![4],
                closed: false,
                dedup: 0,
                silence_stops: 1,
            },
        },
        Script {
            // Armed at t(1, 0); deadline = + 2 s + 2·1 ms + 1 s. Tick 60
            // is 3.000 s in, tick 61 the first past 3.002 s.
            name: "nothing_arrives_stops_on_deadline",
            steps: vec![announce_stream(14, 2), Step::Silence],
            expect: Expect {
                frames: vec![
                    CtrlMsg::Ready { id: 14 },
                    CtrlMsg::StreamReport {
                        id: 14,
                        samples: vec![],
                    },
                ],
                ticks: vec![61],
                closed: false,
                dedup: 0,
                silence_stops: 0,
            },
        },
        Script {
            name: "train_first_and_last_stamps",
            steps: vec![
                announce_train(15, 4),
                probe(Train, 15, 0, 100),
                probe(Train, 15, 1, 200),
                probe(Train, 15, 2, 300),
                probe(Train, 15, 3, 400),
            ],
            expect: Expect {
                frames: vec![
                    CtrlMsg::Ready { id: 15 },
                    CtrlMsg::TrainReport {
                        id: 15,
                        received: 4,
                        first_ns: t(1, 1),
                        last_ns: t(1, 4),
                    },
                ],
                ticks: vec![],
                closed: false,
                dedup: 0,
                silence_stops: 0,
            },
        },
        Script {
            // A train is over after 50 ms of silence: the very first tick.
            name: "train_lost_tail",
            steps: vec![
                announce_train(16, 4),
                probe(Train, 16, 0, 100),
                probe(Train, 16, 1, 200),
                Step::Silence,
            ],
            expect: Expect {
                frames: vec![
                    CtrlMsg::Ready { id: 16 },
                    CtrlMsg::TrainReport {
                        id: 16,
                        received: 2,
                        first_ns: t(1, 1),
                        last_ns: t(1, 2),
                    },
                ],
                ticks: vec![1],
                closed: false,
                dedup: 0,
                silence_stops: 1,
            },
        },
        Script {
            name: "zero_count_completes_on_the_first_tick",
            steps: vec![announce_stream(17, 0), Step::Silence],
            expect: Expect {
                frames: vec![
                    CtrlMsg::Ready { id: 17 },
                    CtrlMsg::StreamReport {
                        id: 17,
                        samples: vec![],
                    },
                ],
                ticks: vec![1],
                closed: false,
                dedup: 0,
                silence_stops: 0,
            },
        },
        Script {
            name: "count_over_the_cap",
            steps: vec![announce_stream(18, MAX_ANNOUNCE_COUNT + 1)],
            expect: Expect {
                frames: vec![],
                ticks: vec![],
                closed: true,
                dedup: 0,
                silence_stops: 0,
            },
        },
        Script {
            name: "announce_during_a_collection",
            steps: vec![announce_stream(19, 2), announce_stream(20, 2)],
            expect: Expect {
                frames: vec![CtrlMsg::Ready { id: 19 }],
                ticks: vec![],
                closed: true,
                dedup: 0,
                silence_stops: 0,
            },
        },
    ]
}

/// What running a script produced, on the core or over the wire.
#[derive(Debug, Default)]
struct Transcript {
    frames: Vec<CtrlMsg>,
    /// Per step: how many frames it produced (a step that ends the
    /// session counts one — the read that finds the connection closed).
    replies: Vec<usize>,
    ticks: Vec<u32>,
    closed: bool,
    dedup: u64,
    silence_stops: u64,
}

/// Feed a script to a fresh `RxSession`, one input at a time, on the
/// hand-stepped clock.
fn hand_step(steps: &[Step]) -> Transcript {
    let mut desk = Admission::new(4242, 0x5eed);
    let (mut session, hello) = desk.admit(0).expect("an uncapped desk admits");
    assert_eq!(
        hello,
        CtrlMsg::Hello {
            version: PROTO_VERSION,
            udp_port: 4242,
            session: session.token(),
        }
    );
    let mut out = Transcript::default();
    let mut now = t(0, 0);
    for step in steps {
        assert!(!out.closed, "input after the session ended");
        let before = out.frames.len();
        match step {
            Step::Ctrl(msg) => {
                now += 1_000;
                match session.on_ctrl(msg.clone(), now) {
                    Ok(CtrlAction::Reply(frame)) => out.frames.push(frame),
                    Ok(CtrlAction::Close) | Err(_) => out.closed = true,
                }
            }
            &Step::Probe(kind, id, idx, send_ns) => {
                now += 10_000;
                let packet = ProbePacket {
                    session: session.token(),
                    kind,
                    id,
                    idx,
                    send_ns,
                };
                out.frames.extend(session.on_probe(&packet, now));
            }
            Step::Silence => {
                let mut ticks = 0;
                let report = loop {
                    assert!(session.is_collecting(), "ticking an idle session");
                    now += POLL_TIMEOUT.as_nanos() as u64;
                    ticks += 1;
                    if let Some(report) = session.on_tick(now) {
                        break report;
                    }
                    assert!(ticks < 1_000, "no stop rule ever fired");
                };
                out.ticks.push(ticks);
                out.frames.push(report);
            }
        }
        out.replies
            .push(out.frames.len() - before + usize::from(out.closed));
    }
    assert!(
        out.closed || !session.is_collecting(),
        "script ended mid-collection"
    );
    let counters = desk.counters();
    out.dedup = counters.drop_dedup.get();
    out.silence_stops = counters.silence_stops.get();
    assert_eq!(counters.denied.get(), 0);
    out
}

fn encode(frames: &[CtrlMsg]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for f in frames {
        f.write_to(&mut bytes).unwrap();
    }
    bytes
}

/// Every script, hand-stepped: exact frames (as values and as encoded
/// bytes), exact stop ticks, exact counter deltas.
#[test]
fn hand_stepped_core_produces_the_scripted_frames() {
    for script in scripts() {
        let got = hand_step(&script.steps);
        let want = &script.expect;
        let name = script.name;
        assert_eq!(got.frames, want.frames, "{name}: frames");
        assert_eq!(
            encode(&got.frames),
            encode(&want.frames),
            "{name}: encoded frames"
        );
        assert_eq!(got.ticks, want.ticks, "{name}: stop ticks");
        assert_eq!(got.closed, want.closed, "{name}: closed");
        assert_eq!(got.dedup, want.dedup, "{name}: dedup drops");
        assert_eq!(
            got.silence_stops, want.silence_stops,
            "{name}: silence stops"
        );
    }
}

/// The byte layout of what the core emits is wire protocol v2, pinned
/// literally: a `Ready` and a `TrainReport`.
#[test]
fn report_frames_are_byte_exact() {
    let train = hand_step(&[
        announce_train(15, 2),
        Step::Probe(Train, 15, 0, 100),
        Step::Probe(Train, 15, 1, 200),
    ]);
    let mut want = vec![5, 0, 0, 0, 3, 15, 0, 0, 0]; // Ready { id: 15 }
    want.extend([25, 0, 0, 0, 6, 15, 0, 0, 0, 2, 0, 0, 0]); // TrainReport, 2 received
    want.extend(t(1, 1).to_le_bytes());
    want.extend(t(1, 2).to_le_bytes());
    assert_eq!(encode(&train.frames), want);
}

/// The protocol errors name themselves, and admission at the cap answers
/// with the versioned `Deny` and counts it.
#[test]
fn protocol_errors_and_the_session_cap() {
    let mut desk = Admission::new(1, 0x5eed);
    let (mut session, _) = desk.admit(0).unwrap();
    let err = session
        .on_ctrl(
            CtrlMsg::TrainAnnounce {
                id: 1,
                count: MAX_ANNOUNCE_COUNT + 1,
                size: 64,
            },
            0,
        )
        .expect_err("over the cap");
    assert!(err.to_string().contains("cap"), "{err}");
    assert!(!session.is_collecting());

    let ready = session.on_ctrl(
        CtrlMsg::TrainAnnounce {
            id: 2,
            count: 4,
            size: 64,
        },
        0,
    );
    assert_eq!(ready.unwrap(), CtrlAction::Reply(CtrlMsg::Ready { id: 2 }));
    let second = CtrlMsg::StreamAnnounce {
        id: 3,
        count: 4,
        period_ns: 1_000_000,
        size: 64,
    };
    let err = session.on_ctrl(second, 1).expect_err("already armed");
    assert!(err.to_string().contains("collection is active"), "{err}");
    let err = session
        .on_ctrl(CtrlMsg::Ready { id: 9 }, 2)
        .expect_err("a receiver-to-sender frame");
    assert!(err.to_string().contains("unexpected"), "{err}");
    assert_eq!(session.on_ctrl(CtrlMsg::Bye, 3).unwrap(), CtrlAction::Close);

    desk.set_max_sessions(1);
    assert!(desk.admit(0).is_ok(), "below the cap");
    assert_eq!(
        desk.admit(1).expect_err("at the cap"),
        CtrlMsg::Deny {
            version: PROTO_VERSION,
            code: DENY_AT_CAPACITY,
        }
    );
    assert_eq!(desk.counters().denied.get(), 1);
}

// ---- over the wire ----------------------------------------------------

/// A receiver serving on its own thread, its metrics in `reg`.
fn start(reg: &Registry) -> EventedReceiverHandle {
    let rx = EventedReceiver::bind("127.0.0.1:0".parse().unwrap()).unwrap();
    rx.register_metrics(reg);
    rx.spawn()
}

/// Replay a script against a fresh receiver, reading after each step as
/// many frames as the core answered it with.
fn replay(steps: &[Step], replies: &[usize]) -> Transcript {
    let reg = Registry::new();
    let rx = start(&reg);
    let routed = reg.counter("receiver_demux_routed_total", &[]);
    let mut client = RawClient::connect(rx.ctrl_addr());
    let mut out = Transcript::default();
    let mut probes_sent = 0;
    for (step, &replies) in steps.iter().zip(replies) {
        assert!(!out.closed, "input after the session ended");
        match step {
            Step::Ctrl(msg) => client.send(msg),
            &Step::Probe(kind, id, idx, send_ns) => {
                client.send_packet(&ProbePacket {
                    session: client.session,
                    kind,
                    id,
                    idx,
                    send_ns,
                });
                probes_sent += 1;
                // The datagram and the next control frame travel on
                // different sockets, and the pump may leave the probe
                // socket unread until its planned drain: the session sees
                // them in script order only once this probe is routed.
                let patience = Instant::now() + Duration::from_secs(5);
                while routed.get() < probes_sent && Instant::now() < patience {
                    thread::sleep(Duration::from_micros(200));
                }
            }
            Step::Silence => {}
        }
        for _ in 0..replies {
            match client.recv() {
                Ok(frame) => out.frames.push(frame),
                Err(_) => out.closed = true,
            }
        }
    }
    client.bye();
    rx.stop().unwrap();
    let drops = |reason| {
        reg.counter("receiver_demux_drops_total", &[("reason", reason)])
            .get()
    };
    assert_eq!(drops("unknown_token"), 0);
    assert_eq!(routed.get(), probes_sent, "lost probes on loopback");
    out.dedup = drops("dedup");
    out.silence_stops = reg
        .counter("receiver_collect_silence_stops_total", &[])
        .get();
    out
}

/// A frame with the receiver-clock stamps removed: what must agree
/// between the hand-stepped core and a pump on a real clock.
#[derive(Debug, PartialEq)]
enum Shape {
    Frame(CtrlMsg),
    /// `(idx, send_ns)` of a stream report, sorted.
    Stream(u32, Vec<(u32, u64)>),
    /// A train report; the flag says `first_ns <= last_ns`.
    Train(u32, u32, bool),
}

fn shapes(frames: &[CtrlMsg]) -> Vec<Shape> {
    frames
        .iter()
        .map(|f| match f {
            CtrlMsg::StreamReport { id, samples } => {
                let mut set: Vec<_> = samples.iter().map(|s| (s.idx, s.send_ns)).collect();
                set.sort_unstable();
                Shape::Stream(*id, set)
            }
            CtrlMsg::TrainReport {
                id,
                received,
                first_ns,
                last_ns,
            } => Shape::Train(*id, *received, first_ns <= last_ns),
            other => Shape::Frame(other.clone()),
        })
        .collect()
}

/// Every script over real sockets, all at once (each run has a receiver
/// of its own, so the counter deltas are the script's): the frame
/// sequence, the `(idx, send_ns)` sets and the counter deltas are the
/// hand-stepped core's.
#[test]
fn the_pump_replays_the_scripts_like_the_core() {
    let runs: Vec<_> = scripts()
        .into_iter()
        .map(|script| {
            let core = hand_step(&script.steps);
            let want = (
                shapes(&core.frames),
                core.closed,
                core.dedup,
                core.silence_stops,
            );
            let run = thread::spawn(move || replay(&script.steps, &core.replies));
            (script.name, want, run)
        })
        .collect();
    for (name, want, run) in runs {
        let got = run.join().unwrap_or_else(|_| panic!("{name} panicked"));
        let got = (
            shapes(&got.frames),
            got.closed,
            got.dedup,
            got.silence_stops,
        );
        assert_eq!(got, want, "{name}: the pump diverged from the core");
    }
}

// ---- the timestamp contract, over the wire ------------------------------

/// Send stream `id`'s packets `0..count`, all but `skip`, `period` apart
/// by busy-waiting on absolute deadlines. Each carries as `send_ns` the
/// instant it was handed to the socket on a test clock started here;
/// returns those, by index.
fn send_paced(
    client: &RawClient,
    id: u32,
    count: u32,
    period: Duration,
    skip: Option<u32>,
) -> Vec<u64> {
    let t0 = Instant::now();
    let mut sent = Vec::new();
    for idx in 0..count {
        while t0.elapsed() < period * idx {
            std::hint::spin_loop();
        }
        let send_ns = t0.elapsed().as_nanos() as u64;
        sent.push(send_ns);
        if Some(idx) != skip {
            client.send_probe(client.session, id, idx, send_ns);
        }
    }
    sent
}

/// Hang up and stop the receiver.
fn finish(client: RawClient, rx: EventedReceiverHandle) {
    client.bye();
    rx.stop().unwrap();
}

/// Collections the receiver ended on the silence window.
fn silence_stops(reg: &Registry) -> u64 {
    reg.counter("receiver_collect_silence_stops_total", &[])
        .get()
}

/// Datagrams sent 1 ms apart carry arrival stamps 1 ms ± 200 µs apart,
/// although the pump reads them several to a drain, which a stamp taken at
/// the read would collapse into one. The spacing is compared with the
/// sender's own, so a preempted sender cannot fail it; a preemption
/// between the sender's clock read and its send can, and gets two more
/// tries.
#[test]
fn arrival_stamps_are_the_kernels_not_the_reads() {
    const COUNT: u32 = 12;
    let mut worst_ns = Vec::new();
    for _ in 0..3 {
        let reg = Registry::new();
        let rx = start(&reg);
        let mut client = RawClient::connect(rx.ctrl_addr());
        client.announce_stream(1, COUNT, 1_000_000);
        let sent = send_paced(&client, 1, COUNT, Duration::from_millis(1), None);
        let mut samples = client.read_report(1);
        finish(client, rx);
        assert_eq!(samples.len(), COUNT as usize, "loss on loopback");
        samples.sort_by_key(|s| s.idx);
        let worst = samples
            .windows(2)
            .map(|w| {
                let got = w[1].recv_ns as i64 - w[0].recv_ns as i64;
                let want = sent[w[1].idx as usize] as i64 - sent[w[0].idx as usize] as i64;
                (got - want).unsigned_abs()
            })
            .max()
            .unwrap();
        let batches = reg.histogram("receiver_recv_batch_size", &[]);
        assert!(
            batches.sum() > batches.count(),
            "the pump read every datagram on its own"
        );
        worst_ns.push(worst);
        if worst <= 200_000 {
            break;
        }
    }
    assert!(
        worst_ns.last().is_some_and(|&w| w <= 200_000),
        "stamp spacing off the send spacing by {worst_ns:?} ns"
    );
}

/// A stream whose first packet comes 5 ms after `Ready` completes on its
/// last packet, not on a stop rule.
#[test]
fn a_sender_that_starts_late_still_completes() {
    const COUNT: u32 = 20;
    let reg = Registry::new();
    let rx = start(&reg);
    let mut client = RawClient::connect(rx.ctrl_addr());
    client.announce_stream(2, COUNT, 1_000_000);
    thread::sleep(Duration::from_millis(5));
    send_paced(&client, 2, COUNT, Duration::from_millis(1), None);
    let last_sent = Instant::now();
    let samples = client.read_report(2);
    let waited = last_sent.elapsed();
    finish(client, rx);
    assert_eq!(samples.len(), COUNT as usize);
    assert_eq!(silence_stops(&reg), 0);
    assert!(
        waited < Duration::from_millis(150),
        "the report came {waited:?} after the last packet"
    );
}

/// A stream whose last packet is lost still ends, on the silence stop.
#[test]
fn a_lost_last_packet_ends_on_the_silence_stop() {
    const COUNT: u32 = 20;
    let reg = Registry::new();
    let rx = start(&reg);
    let mut client = RawClient::connect(rx.ctrl_addr());
    client.announce_stream(3, COUNT, 1_000_000);
    send_paced(&client, 3, COUNT, Duration::from_millis(1), Some(COUNT - 1));
    let samples = client.read_report(3);
    finish(client, rx);
    assert_eq!(samples.len(), COUNT as usize - 1);
    assert_eq!(silence_stops(&reg), 1);
}

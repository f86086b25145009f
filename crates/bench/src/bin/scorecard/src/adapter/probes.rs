//! Fixed-count probes of single public functions, one per layer cost the
//! workloads cannot isolate. Each runs a fixed number of operations
//! [`REPS`] times and reports the median nanoseconds per operation, so a
//! probe's work — unlike its time — is the same on every run.

use monitord::scheduler::{Poll, ScheduleConfig, Scheduler};
use monitord::{export, PathSeries, SeriesConfig};
use pathload_net::batch::UdpRecvBatch;
use pathload_net::mux::TimerQueue;
use pathload_net::proto::{ProbeKind, ProbePacket, PROBE_HEADER_LEN};
use slops::series::RangeSample;
use slops::testutil::OracleTransport;
use slops::{classify_stream, PacketSample, Session, SlopsConfig, StreamRecord};
use std::hint::black_box;
use std::net::UdpSocket;
use std::time::Instant;
use units::{Rate, TimeNs};

const REPS: usize = 5;

/// Paths in the control-plane probes: the size of the `oracle_fleet`
/// workload, where these costs are on the critical path.
const FLEET_PATHS: usize = 4096;

/// Median over [`REPS`] repetitions of `body`'s wall time, per operation.
fn ns_per_op(ops: u64, mut body: impl FnMut()) -> f64 {
    timed_ns_per_op(ops, || {
        let t = Instant::now();
        body();
        t.elapsed().as_nanos() as u64
    })
}

/// Like [`ns_per_op`] for bodies that time only part of themselves and
/// return those nanoseconds.
fn timed_ns_per_op(ops: u64, mut body: impl FnMut() -> u64) -> f64 {
    let samples: Vec<f64> = (0..REPS).map(|_| body() as f64 / ops as f64).collect();
    crate::stats::median(&samples).expect("REPS > 0")
}

fn sample(i: u64) -> RangeSample {
    RangeSample {
        started: TimeNs::from_secs(60 * i),
        duration: TimeNs::from_secs(12),
        low: Rate::from_mbps(38.0 + (i % 3) as f64),
        high: Rate::from_mbps(42.0 + (i % 5) as f64),
    }
}

// ---- slops ---------------------------------------------------------------

/// One whole measurement of the sans-IO machine against the instant
/// oracle (the `BENCH_7.json` `session_machine_full_run` body).
pub fn machine_ns_per_session() -> f64 {
    const SESSIONS: u64 = 40;
    let session = Session::new(SlopsConfig::default());
    ns_per_op(SESSIONS, || {
        for _ in 0..SESSIONS {
            let mut t = OracleTransport::new(Rate::from_mbps(47.0), 3);
            black_box(session.run(&mut t).expect("the oracle never fails"));
        }
    })
}

/// Trend classification (group medians, PCT, PDT) of one 100-packet
/// stream record.
pub fn trend_ns_per_stream() -> f64 {
    const STREAMS: u64 = 20_000;
    let cfg = SlopsConfig::default();
    let rec = StreamRecord {
        sent: 100,
        samples: (0..100u32)
            .map(|i| PacketSample {
                idx: i,
                send_offset: TimeNs::from_micros(100 * i as u64),
                owd_ns: 1000 + i as i64 * 37 + (i as i64 % 7) * 1000,
            })
            .collect(),
    };
    ns_per_op(STREAMS, || {
        for _ in 0..STREAMS {
            black_box(classify_stream(black_box(&rec), &cfg));
        }
    })
}

// ---- monitord ------------------------------------------------------------

/// `(poll_ns, on_complete_ns)` of the fleet scheduler at 4096 paths: four
/// full waves of starts, each completed before the next.
pub fn scheduler_ns() -> (f64, f64) {
    const WAVES: u64 = 4;
    let cfg = ScheduleConfig {
        period: TimeNs::from_secs(60),
        jitter: TimeNs::from_secs(10),
        max_concurrent: 0,
        seed: 7,
    };
    let ops = WAVES * FLEET_PATHS as u64;
    let mut polls = Vec::with_capacity(REPS);
    let mut completes = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let mut s = Scheduler::new(FLEET_PATHS, TimeNs::ZERO, TimeNs::from_secs(3600), &cfg);
        let (mut poll_ns, mut complete_ns) = (0u64, 0u64);
        let mut wave = Vec::with_capacity(FLEET_PATHS);
        for _ in 0..WAVES {
            wave.clear();
            let t = Instant::now();
            while let Poll::Start { path, at } = s.poll() {
                wave.push((path, at));
            }
            poll_ns += t.elapsed().as_nanos() as u64;
            assert_eq!(
                wave.len(),
                FLEET_PATHS,
                "an uncapped wave starts every path"
            );
            let t = Instant::now();
            for &(path, at) in &wave {
                s.on_complete(path, at + TimeNs::from_secs(12));
            }
            complete_ns += t.elapsed().as_nanos() as u64;
        }
        polls.push(poll_ns as f64 / ops as f64);
        completes.push(complete_ns as f64 / ops as f64);
    }
    (
        crate::stats::median(&polls).expect("REPS > 0"),
        crate::stats::median(&completes).expect("REPS > 0"),
    )
}

/// `(push_ns, changes_ns)` of one path's series store: pushes into a full
/// ring (every push evicts), and the change-detector pass the fleet
/// drivers run after every sample, on a 15-sample series.
pub fn store_ns() -> (f64, f64) {
    const PUSHES: u64 = 200_000;
    const CHANGES: u64 = 2_000;
    let cfg = SeriesConfig::default();
    let push = ns_per_op(PUSHES, || {
        let mut s = PathSeries::new("p", &cfg, TimeNs::ZERO);
        for i in 0..PUSHES {
            s.push(sample(i));
        }
        black_box(s.len());
    });
    let mut s = PathSeries::new("p", &cfg, TimeNs::ZERO);
    for i in 0..15 {
        s.push(sample(i));
    }
    let changes = ns_per_op(CHANGES, || {
        for _ in 0..CHANGES {
            black_box(s.changes().len());
        }
    });
    (push, changes)
}

/// `(sample_line_ns, fleet_jsonl_ns_per_line)` of the export layer: one
/// `sample` record, and a whole 4096-path fleet (four samples each plus
/// summaries) written to memory.
pub fn export_ns() -> (f64, f64) {
    const LINES: u64 = 50_000;
    let s = sample(3);
    let line = ns_per_op(LINES, || {
        for i in 0..LINES {
            black_box(export::sample_line(i as usize, "o1234", &s).len());
        }
    });
    let cfg = SeriesConfig::default();
    let fleet: Vec<PathSeries> = (0..FLEET_PATHS)
        .map(|p| {
            let mut series = PathSeries::new(format!("o{p}"), &cfg, TimeNs::ZERO);
            for i in 0..4 {
                series.push(sample(i));
            }
            series
        })
        .collect();
    let mut buf = Vec::new();
    export::write_fleet_jsonl(&mut buf, &fleet).expect("writing to memory");
    let lines = buf.iter().filter(|&&b| b == b'\n').count() as u64;
    let fleet_line = ns_per_op(lines, || {
        buf.clear();
        export::write_fleet_jsonl(&mut buf, &fleet).expect("writing to memory");
        black_box(buf.len());
    });
    (line, fleet_line)
}

// ---- telemetry -----------------------------------------------------------

/// `(counter_inc_ns, histogram_observe_ns)` on registered, labelled series.
pub fn registry_primitive_ns() -> (f64, f64) {
    const OPS: u64 = 2_000_000;
    let registry = telemetry::Registry::new();
    let counter = registry.counter("probe_total", &[("path", "lo0")]);
    let hist = registry.histogram("probe_ns", &[("path", "lo0")]);
    let inc = ns_per_op(OPS, || {
        for _ in 0..OPS {
            black_box(&counter).inc();
        }
    });
    let observe = ns_per_op(OPS, || {
        let mut v = 1u64;
        for _ in 0..OPS {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            hist.observe(black_box(v >> 40));
        }
    });
    (inc, observe)
}

// ---- sockets -------------------------------------------------------------

/// `(encode_ns, decode_ns)` of the 32-byte probe header.
pub fn probe_codec_ns() -> (f64, f64) {
    const OPS: u64 = 2_000_000;
    let mut buf = [0u8; PROBE_HEADER_LEN];
    let encode = ns_per_op(OPS, || {
        for i in 0..OPS {
            ProbePacket {
                session: 0x9E37_79B9_7F4A_7C15,
                kind: ProbeKind::Stream,
                id: 7,
                idx: i as u32,
                send_ns: i,
            }
            .encode(black_box(&mut buf));
        }
    });
    let decode = ns_per_op(OPS, || {
        for _ in 0..OPS {
            black_box(ProbePacket::decode(black_box(&buf)));
        }
    });
    (encode, decode)
}

/// Draining 32 loopback datagrams from a non-blocking socket, batched
/// (`recvmmsg`) or one syscall per datagram; nanoseconds per drain. Only
/// the drain is timed, not the 32 sends that set it up.
pub fn udp_drain32_ns(scalar: bool) -> std::io::Result<f64> {
    const DRAINS: u64 = 200;
    let rx = UdpSocket::bind("127.0.0.1:0")?;
    rx.set_nonblocking(true)?;
    let tx = UdpSocket::bind("127.0.0.1:0")?;
    tx.connect(rx.local_addr()?)?;
    let payload = [0u8; 64];
    let mut batch = UdpRecvBatch::new(32, 2048);
    batch.set_scalar(scalar);
    let mut failure = None;
    let per_drain = timed_ns_per_op(DRAINS, || {
        let mut drain_ns = 0u64;
        for _ in 0..DRAINS {
            for _ in 0..32 {
                if let Err(e) = tx.send(&payload) {
                    failure = Some(e);
                }
            }
            let t = Instant::now();
            let mut got = 0usize;
            loop {
                match batch.recv(&rx) {
                    Ok(n) => got += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) => {
                        failure = Some(e);
                        break;
                    }
                }
            }
            drain_ns += t.elapsed().as_nanos() as u64;
            black_box(got);
        }
        drain_ns
    });
    match failure {
        Some(e) => Err(e),
        None => Ok(per_drain),
    }
}

/// The event loop's timer queue: 1000 arms with interleaved deadlines,
/// then a drain in deadline order; nanoseconds per operation (arm or pop).
pub fn timerq_ns_per_op() -> f64 {
    const TIMERS: u64 = 1000;
    const ROUNDS: u64 = 50;
    ns_per_op(2 * TIMERS * ROUNDS, || {
        for _ in 0..ROUNDS {
            let mut q = TimerQueue::new();
            for i in 0..TIMERS {
                q.arm((i * 7919) % TIMERS, i);
            }
            let mut popped = 0u64;
            while q.pop_expired(u64::MAX).is_some() {
                popped += 1;
            }
            assert_eq!(black_box(popped), TIMERS);
        }
    })
}

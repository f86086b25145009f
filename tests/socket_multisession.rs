//! The session-multiplexing receiver, end to end over loopback: N
//! concurrent senders on ONE control port and ONE shared UDP probe
//! socket, demuxed by the session token minted at `Hello`.
//!
//! Alongside the full-session tests there are wire-level injection tests
//! driven by a hand-rolled control client: they feed the receiver
//! duplicated, reordered, truncated, and stale-session datagrams and pin
//! the collection semantics directly (de-duplication on index, no stall
//! on a lost final packet, stale tokens dropped).

// The receiver's event loop is Linux-only (epoll).
#![cfg(target_os = "linux")]

use availbw::monitord::{
    run_socket_fleet_async_with_telemetry, FleetEvent, FleetTelemetry, ScheduleConfig,
    SeriesConfig, ShutdownFlag, SocketPathSpec,
};
use availbw::pathload_net::proto::{CtrlMsg, ProbeKind, ProbePacket, PROTO_VERSION};
use availbw::pathload_net::{
    EventedReceiver, EventedReceiverHandle, EventedSession, SocketTransport,
};
use availbw::slops::{Estimate, SlopsConfig};
use availbw::units::{Rate, TimeNs};
use std::net::{SocketAddr, UdpSocket};
use std::thread;
use std::time::{Duration, Instant};

mod wire;
use wire::RawClient;

const RATE_CAP_MBPS: f64 = 40.0;

fn gentle_cfg() -> SlopsConfig {
    let mut cfg = SlopsConfig::default();
    cfg.stream_len = 30;
    cfg.fleet_len = 4;
    cfg.min_period = TimeNs::from_millis(1);
    cfg.resolution = Rate::from_mbps(8.0);
    cfg.grey_resolution = Rate::from_mbps(16.0);
    cfg.max_fleets = 6;
    cfg
}

/// A receiver serving on its own thread until stopped.
fn receiver() -> EventedReceiverHandle {
    EventedReceiver::bind("127.0.0.1:0".parse().unwrap())
        .unwrap()
        .spawn()
}

fn run_session(addr: SocketAddr) -> Estimate {
    let mut t = SocketTransport::connect(addr).unwrap();
    t.rate_cap = Rate::from_mbps(RATE_CAP_MBPS);
    let mut sender = EventedSession::new(t, Default::default());
    sender.run_alone(gentle_cfg()).expect("session")
}

fn assert_sane(est: &Estimate, what: &str) {
    assert!(est.low.bps() <= est.high.bps(), "{what}: low > high");
    assert!(!est.fleets.is_empty(), "{what}: empty fleet trace");
    assert!(
        est.high.mbps() <= RATE_CAP_MBPS + 8.0,
        "{what}: estimate above the pacing cap: {}",
        est.high
    );
}

/// Two senders measuring **concurrently through one shared receiver**
/// complete with the same sane estimates as two senders on dedicated
/// receivers. Real sockets are nondeterministic, so the comparison is
/// structural (both setups complete, converge, and respect the cap) —
/// the same standard `tests/socket_loopback.rs` applies to one session.
#[test]
fn concurrent_sessions_on_shared_receiver_match_dedicated_receivers() {
    // Shared: one receiver, two concurrent sessions.
    let rx = receiver();
    let addr = rx.ctrl_addr();
    let a = thread::spawn(move || run_session(addr));
    let b = thread::spawn(move || run_session(addr));
    let shared = [a.join().unwrap(), b.join().unwrap()];
    rx.stop().unwrap();

    // Dedicated: one receiver per sender, also concurrent.
    let mut servers = Vec::new();
    let mut sessions = Vec::new();
    for _ in 0..2 {
        let rx = receiver();
        let addr = rx.ctrl_addr();
        servers.push(rx);
        sessions.push(thread::spawn(move || run_session(addr)));
    }
    let dedicated: Vec<Estimate> = sessions.into_iter().map(|s| s.join().unwrap()).collect();
    for rx in servers {
        rx.stop().unwrap();
    }

    for (i, est) in shared.iter().enumerate() {
        assert_sane(est, &format!("shared session {i}"));
    }
    for (i, est) in dedicated.iter().enumerate() {
        assert_sane(est, &format!("dedicated session {i}"));
    }
}

/// A probe stream and a probe train from *different sessions*, in flight
/// at the same time through the shared UDP socket, do not contaminate
/// each other's collections — even though both use id 0 (each connection
/// numbers its own collections). The two clients interleave their
/// datagrams one for one.
#[test]
fn interleaved_stream_and_train_do_not_cross_contaminate() {
    let rx = receiver();
    let addr = rx.ctrl_addr();
    let mut a = RawClient::connect(addr);
    let mut b = RawClient::connect(addr);
    assert_ne!(a.session, b.session, "sessions must get unique tokens");

    const COUNT: u32 = 50;
    const TRAIN: u32 = 60;
    a.announce_stream(0, COUNT, 1_000_000);
    b.announce_train(0, TRAIN);
    for idx in 0..TRAIN {
        if idx < COUNT {
            a.send_probe(a.session, 0, idx, 1_000 + idx as u64);
        }
        b.send_packet(&ProbePacket {
            session: b.session,
            kind: ProbeKind::Train,
            id: 0,
            idx,
            send_ns: 0xBAD0 + idx as u64,
        });
    }
    let stream = a.read_report(0);
    let received = b.read_train_report(0);
    a.bye();
    b.bye();
    rx.stop().unwrap();

    // The stream collection saw only its own packets: no index outside
    // the stream, no duplicates, no train datagram, and nearly
    // everything arrived.
    assert!(
        stream.len() as u32 >= COUNT - 5,
        "stream lost too much on loopback: {}/{COUNT}",
        stream.len()
    );
    let mut idxs: Vec<u32> = stream.iter().map(|s| s.idx).collect();
    idxs.sort_unstable();
    idxs.dedup();
    assert_eq!(idxs.len(), stream.len(), "duplicate stream indices");
    assert!(idxs.iter().all(|&i| i < COUNT), "foreign index collected");
    for s in &stream {
        assert_eq!(s.send_ns, 1_000 + s.idx as u64, "a train packet collected");
    }

    // The train counted only its own packets.
    assert!(received <= TRAIN, "train over-counted: {received}");
    assert!(received >= TRAIN - 5, "train lost too much: {received}");
}

/// Duplicated and reordered datagrams are collected once each, and a
/// stream missing packets (including a hole in the middle) terminates
/// after a short silence window instead of stalling for the multi-second
/// deadline — the regression test for the seed's double-count/stall bug
/// cluster in stream collection (now `rx::RxSession`).
#[test]
fn duplicate_datagrams_are_deduplicated_and_losses_do_not_stall() {
    let rx = receiver();
    let mut client = RawClient::connect(rx.ctrl_addr());
    const ID: u32 = 9;
    const COUNT: u32 = 20;
    const PERIOD_NS: u64 = 2_000_000; // 2 ms → 40 ms nominal duration
    client.announce_stream(ID, COUNT, PERIOD_NS);

    // Indices 0..20 with idx 7 lost, mildly reordered (the tail arrives
    // before its predecessors), and EVERY datagram sent twice. The seed
    // receiver double-counted the duplicates (19 distinct arrivals looked
    // like 38 >= 20, terminating "complete" with idx 7 missing) — and
    // with the last *appended* packet not being idx 19, a lost tail made
    // it block out the whole 3 s+ deadline.
    let sent: Vec<u32> = (0..15).chain([19, 18, 17, 16, 15]).collect();
    for &idx in &sent {
        if idx == 7 {
            continue; // lost in the network
        }
        client.send_probe(client.session, ID, idx, 1_000 + idx as u64);
        client.send_probe(client.session, ID, idx, 1_000 + idx as u64); // duplicate
    }
    let waited = Instant::now();
    let samples = client.read_report(ID);
    let elapsed = waited.elapsed();

    // Every index exactly once, idx 7 really missing, send_ns preserved.
    let mut idxs: Vec<u32> = samples.iter().map(|s| s.idx).collect();
    idxs.sort_unstable();
    let expected: Vec<u32> = (0..COUNT).filter(|&i| i != 7).collect();
    assert_eq!(
        idxs, expected,
        "collection must be distinct indices minus the loss"
    );
    for s in &samples {
        assert_eq!(
            s.send_ns,
            1_000 + s.idx as u64,
            "sample carries wrong send_ns"
        );
    }
    // And it terminated on the silence window, not the 3 s+ deadline.
    assert!(
        elapsed < Duration::from_millis(1_500),
        "collection stalled for {elapsed:?} on a lossy stream"
    );

    client.bye();
    rx.stop().unwrap();
}

/// Token recycling across receiver **restarts**: a restarted receiver
/// mints tokens from a fresh random 64-bit base, so a token issued by the
/// previous incarnation is (with overwhelming probability) never live on
/// the new one. Probes a sender still stamps with its pre-restart token
/// are silently dropped by the restarted receiver's demux — they can
/// never contaminate the new incarnation's sessions — while the sender's
/// *reconnect* performs a fresh `Hello` and gets a live token that
/// collects normally.
#[test]
fn receiver_restart_invalidates_pre_restart_tokens() {
    // Incarnation 1 issues a token, then goes away entirely.
    let stale = {
        let rx = receiver();
        let client = RawClient::connect(rx.ctrl_addr());
        let stale = client.session;
        client.bye();
        rx.stop().unwrap();
        stale
    };

    // Incarnation 2 ("the restart"): the reconnecting sender's fresh
    // Hello mints a token from the new random base.
    let rx = receiver();
    let mut client = RawClient::connect(rx.ctrl_addr());
    assert_ne!(
        client.session, stale,
        "restarted receiver re-minted a pre-restart token"
    );

    const ID: u32 = 5;
    const COUNT: u32 = 10;
    const BOGUS_NS: u64 = 0xDEAD_0000;
    client.announce_stream(ID, COUNT, 1_000_000);
    for idx in 0..COUNT {
        // The pre-restart token, poisoned so collection would be visible.
        client.send_probe(stale, ID, idx, BOGUS_NS);
        // The live post-restart token.
        client.send_probe(client.session, ID, idx, 1_000 + idx as u64);
    }
    let samples = client.read_report(ID);
    assert_eq!(samples.len() as u32, COUNT);
    for s in &samples {
        assert_eq!(
            s.send_ns,
            1_000 + s.idx as u64,
            "a pre-restart-token datagram was collected: idx {} carries {:#x}",
            s.idx,
            s.send_ns
        );
    }
    client.bye();
    rx.stop().unwrap();
}

/// Receiver restart, sender side: a transport whose receiver died
/// mid-session must fail with a **clean control-channel error** that
/// names the situation and the recovery (reconnect → fresh `Hello` and
/// token) — not an opaque read failure, and never silently-empty stream
/// reports.
#[test]
fn dead_receiver_mid_session_yields_a_clean_restart_error() {
    // A hand-rolled "receiver" that speaks a valid v2 Hello, answers the
    // RTT echoes, and then crashes (drops the connection) on the first
    // measurement announce — exactly what a sender observes across a
    // receiver restart mid-session.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let udp = UdpSocket::bind("127.0.0.1:0").unwrap();
    let udp_port = udp.local_addr().unwrap().port();
    let server = thread::spawn(move || {
        let (mut ctrl, _) = listener.accept().unwrap();
        CtrlMsg::Hello {
            version: PROTO_VERSION,
            udp_port,
            session: 42,
        }
        .write_to(&mut ctrl)
        .unwrap();
        // Echo every RTT probe; die without replying on the first announce.
        loop {
            match CtrlMsg::read_from(&mut ctrl) {
                Ok(CtrlMsg::Echo { token }) => CtrlMsg::Echo { token }.write_to(&mut ctrl).unwrap(),
                Ok(CtrlMsg::StreamAnnounce { .. } | CtrlMsg::TrainAnnounce { .. }) => return true,
                _ => return false,
            }
        }
    });

    let mut sender =
        EventedSession::new(SocketTransport::connect(addr).unwrap(), Default::default());
    let err = sender
        .run_alone(gentle_cfg())
        .expect_err("the receiver is gone");
    drop(sender);
    assert!(
        server.join().unwrap(),
        "the receiver must die at an announce, after the echoes"
    );
    let msg = format!("{err:?}");
    assert!(
        msg.contains("restarted"),
        "control-channel death must diagnose a possible restart: {msg}"
    );
    assert!(
        msg.contains("Hello"),
        "the error must name the recovery (reconnect for a fresh Hello): {msg}"
    );
}

/// Probe datagrams carrying a stale token (a finished session's) or a
/// never-issued token are dropped by the demux, not collected into a live
/// session — even when id, kind, and indices match the live stream.
#[test]
fn stale_session_probe_packets_are_dropped() {
    let rx = receiver();
    let addr = rx.ctrl_addr();
    // Session 1 connects and leaves: its token is now stale.
    let t1 = SocketTransport::connect(addr).unwrap();
    let stale = t1.session();
    drop(t1);
    thread::sleep(Duration::from_millis(100)); // let the receiver deregister it

    let mut client = RawClient::connect(addr);
    assert_ne!(client.session, stale);
    const ID: u32 = 3;
    const COUNT: u32 = 10;
    const BOGUS_NS: u64 = 0xBAD0_BAD0;
    client.announce_stream(ID, COUNT, 1_000_000);
    for idx in 0..COUNT {
        // Same id/kind/idx as the live stream, wrong (stale/unknown)
        // token, poisoned send_ns so collection would be visible.
        client.send_probe(stale, ID, idx, BOGUS_NS);
        client.send_probe(u64::MAX, ID, idx, BOGUS_NS);
        client.send_probe(client.session, ID, idx, 1_000 + idx as u64);
    }
    let samples = client.read_report(ID);
    assert_eq!(samples.len() as u32, COUNT);
    for s in &samples {
        assert_eq!(
            s.send_ns,
            1_000 + s.idx as u64,
            "a stale-session datagram was collected: idx {} carries {:#x}",
            s.idx,
            s.send_ns
        );
    }

    client.bye();
    rx.stop().unwrap();
}

/// The framing attack: four hostile bytes — a length prefix naming a
/// 16 MiB frame — close the offending session at once (the receiver's
/// inbound bound is a few dozen bytes; nothing is allocated or awaited on
/// the prefix's word) while another session keeps being served: one slot
/// is torn down, the loop and every other session carry on.
#[test]
fn oversized_frame_prefix_closes_only_that_session() {
    let rx = receiver();
    let addr = rx.ctrl_addr();
    let mut bad = RawClient::connect(addr);
    let mut good = RawClient::connect(addr);
    bad.send_raw(&(16u32 * 1024 * 1024).to_le_bytes());
    let waited = Instant::now();
    let closed = bad.recv().expect_err("the offending session must close");
    assert_eq!(closed.kind(), std::io::ErrorKind::UnexpectedEof, "{closed}");
    assert!(
        waited.elapsed() < Duration::from_secs(2),
        "the receiver waited for a body it should have refused"
    );
    good.send(&CtrlMsg::Echo { token: 7 });
    assert_eq!(good.recv().unwrap(), CtrlMsg::Echo { token: 7 });
    good.bye();
    rx.stop().unwrap();
}

/// One batching-correctness run: an evented receiver pinned to either
/// the scalar or the `recvmmsg` receive path, fed a fixed injected
/// sequence (per index: one unknown-token datagram, the real packet, a
/// duplicate). Returns the collected `(idx, send_ns)` pairs and every
/// `receiver_demux_*` counter.
#[allow(clippy::type_complexity)]
fn batching_run(scalar: bool) -> (Vec<(u32, u64)>, Vec<(String, u64)>) {
    let reg = availbw::telemetry::Registry::new();
    let rx = EventedReceiver::bind("127.0.0.1:0".parse().unwrap())
        .unwrap()
        .with_scalar_recv(scalar);
    rx.register_metrics(&reg);
    let handle = rx.spawn();
    let mut client = RawClient::connect(handle.ctrl_addr());
    const ID: u32 = 12;
    const COUNT: u32 = 24;
    client.announce_stream(ID, COUNT, 1_000_000);
    let unknown = client.session.wrapping_add(0x5AA5);
    for idx in 0..COUNT {
        client.send_probe(unknown, ID, idx, 0xBAD);
        client.send_probe(client.session, ID, idx, 1_000 + idx as u64);
        client.send_probe(client.session, ID, idx, 1_000 + idx as u64); // duplicate
    }
    let samples = client.read_report(ID);
    client.bye();
    // The duplicate of the final (completing) index lands after the
    // report is queued; give it time to be counted before scraping.
    thread::sleep(Duration::from_millis(200));
    let text = reg.render_prometheus();
    handle.stop().unwrap();
    let mut counters: Vec<(String, u64)> = text
        .lines()
        .filter(|l| !l.starts_with('#') && l.starts_with("receiver_demux_"))
        .map(|l| {
            let (key, value) = l.rsplit_once(' ').expect("metric line has a value");
            (key.to_string(), value.parse().expect("counter value"))
        })
        .collect();
    counters.sort();
    let mut collected: Vec<(u32, u64)> = samples.iter().map(|s| (s.idx, s.send_ns)).collect();
    collected.sort_unstable();
    (collected, counters)
}

/// **Batching correctness:** the `recvmmsg` path and the scalar fallback
/// route a byte-identical injected sequence — unknown tokens, in-order
/// packets, duplicates, including a duplicate arriving after the
/// collection completed — to identical per-session collections and
/// identical `receiver_demux_*` counters, with the absolute values
/// pinned: 48 routed (24 real + 24 duplicates), 24 unknown-token drops,
/// 23 dedup drops (the final index's duplicate lands post-completion and
/// is discarded by the idle session, not the dedup check).
#[test]
fn batched_and_scalar_datapaths_route_identically() {
    let (scalar_samples, scalar_counters) = batching_run(true);
    let (batched_samples, batched_counters) = batching_run(false);
    assert_eq!(
        scalar_samples, batched_samples,
        "the two receive paths collected different samples"
    );
    assert_eq!(
        scalar_counters, batched_counters,
        "the two receive paths counted differently"
    );
    let expected: Vec<(u32, u64)> = (0..24).map(|i| (i, 1_000 + i as u64)).collect();
    assert_eq!(scalar_samples, expected, "wrong collection");
    let value = |needle: &str| {
        scalar_counters
            .iter()
            .find(|(k, _)| k.contains(needle))
            .unwrap_or_else(|| panic!("no {needle} counter"))
            .1
    };
    assert_eq!(value("routed_total"), 48);
    assert_eq!(value("unknown_token"), 24);
    assert_eq!(value("dedup"), 23);
}

/// **Fault injection, whole-fleet:** kill and restart a receiver while an
/// async-driver fleet is mid-run. The path pointed at the restarted
/// receiver loses its session (counted as measurement errors), re-dials
/// at its next scheduled start — fresh `Hello`, fresh token, no operator
/// action — and completes more samples afterwards. A path pointed at a
/// receiver that stays up never notices.
#[test]
fn receiver_restart_mid_fleet_redials_at_the_next_scheduled_start() {
    let gentle = {
        let mut cfg = SlopsConfig::default();
        cfg.stream_len = 20;
        cfg.fleet_len = 3;
        cfg.min_period = TimeNs::from_millis(1);
        cfg.resolution = Rate::from_mbps(10.0);
        cfg.grey_resolution = Rate::from_mbps(20.0);
        cfg.max_fleets = 4;
        cfg
    };
    // Receiver A will be killed and rebound on the SAME address
    // (SO_REUSEADDR carries it through TIME_WAIT); receiver B stays up.
    let rx_a = EventedReceiver::bind("127.0.0.1:0".parse().unwrap()).unwrap();
    let handle_a = rx_a.spawn();
    let addr_a = handle_a.ctrl_addr();
    let rx_b = EventedReceiver::bind("127.0.0.1:0".parse().unwrap()).unwrap();
    let handle_b = rx_b.spawn();
    let addr_b = handle_b.ctrl_addr();

    // The saboteur: on signal, stop A and bring up a fresh incarnation on
    // the same address — a daemon restart as the fleet sees it.
    let (signal, armed) = std::sync::mpsc::channel::<()>();
    let saboteur = thread::spawn(move || {
        armed.recv().expect("restart signal");
        handle_a.stop().expect("receiver A stops cleanly");
        let rx = EventedReceiver::bind(addr_a).expect("rebind through TIME_WAIT");
        rx.spawn()
    });

    let specs = vec![
        SocketPathSpec {
            label: "restarted".into(),
            ctrl_addr: addr_a,
            cfg: gentle.clone(),
            rate_cap: Some(Rate::from_mbps(RATE_CAP_MBPS)),
        },
        SocketPathSpec {
            label: "stable".into(),
            ctrl_addr: addr_b,
            cfg: gentle,
            rate_cap: Some(Rate::from_mbps(RATE_CAP_MBPS)),
        },
    ];
    let sched = ScheduleConfig {
        period: TimeNs::from_secs(2),
        jitter: TimeNs::ZERO,
        max_concurrent: 2,
        seed: 11,
    };
    // The path's pacing histogram must keep filling on the re-dialled
    // transport (a fresh protocol core): `paced_at_restart` is its count
    // when receiver A is pulled.
    let telemetry = FleetTelemetry::new();
    let paced = telemetry.pacing_histogram("restarted");
    let mut paced_at_restart = None;
    let series = run_socket_fleet_async_with_telemetry(
        specs,
        &sched,
        &SeriesConfig::default(),
        TimeNs::from_secs(12),
        &ShutdownFlag::new(),
        Some(&telemetry),
        |ev| {
            // The moment path 0 lands its first sample, pull receiver A
            // out from under it.
            if let FleetEvent::Sample { path: 0, .. } = ev {
                if paced_at_restart.is_none() {
                    paced_at_restart = Some(paced.count());
                    signal.send(()).expect("saboteur alive");
                }
            }
        },
    )
    .unwrap();
    let handle_a2 = saboteur.join().expect("saboteur thread");

    let paced_at_restart = paced_at_restart.expect("path 0 never landed its pre-restart sample");
    assert!(paced_at_restart > 0, "the first measurement paced nothing");
    assert!(
        series[0].len() >= 2,
        "no post-restart sample: the path never re-dialed ({} samples, {} errors)",
        series[0].len(),
        series[0].errors()
    );
    assert!(
        series[0].errors() >= 1,
        "killing the receiver mid-run must surface at least one error"
    );
    assert_eq!(
        series[1].errors(),
        0,
        "the stable path must never notice the other receiver's restart"
    );
    assert!(!series[1].is_empty(), "the stable path was never measured");
    // Path 0 was idle when A was pulled, so what came after is the
    // re-dialled transport's: at least one fleet of 3 × 20 paced packets.
    assert!(
        paced.count() >= paced_at_restart + 60,
        "pacing_error_ns stopped filling after the re-dial: {} then, {} now",
        paced_at_restart,
        paced.count()
    );

    handle_a2.stop().unwrap();
    handle_b.stop().unwrap();
}

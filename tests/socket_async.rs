//! The async (event-loop) socket driver, end to end over loopback.
//!
//! Three layers are pinned here, matching the DRIVERS.md checklist for a
//! new driver:
//!
//! 1. **the hand-stepped contract tests** — an [`EventedSession`] driven
//!    one event-loop wait at a time, with the machine's `poll() == None`
//!    invariant asserted while every command is in flight, once alone and
//!    once through two measurements on one connection amid spurious
//!    timer pops and readiness;
//! 2. **a big fleet** — ≥32 loopback paths multiplexed on ONE event-loop
//!    thread against ONE shared multi-session receiver, with every JSONL
//!    line the daemon would emit parsed and checked;
//! 3. **the scheduler's schedule** — the driver takes every start from
//!    the sans-IO scheduler, so its tick-grid start offsets are the ones
//!    the scheduler issues when stepped alone, and its records share one
//!    schema. (Real sockets are nondeterministic, so the estimates
//!    themselves are not compared — the same standard as
//!    `tests/socket_loopback.rs`.)

// The driver and the receiver are Linux-only (epoll).
#![cfg(target_os = "linux")]

use availbw::monitord::export::{sample_line, summary_line};
use availbw::monitord::{
    run_socket_fleet_async_with_telemetry, FleetEvent, FleetTelemetry, Poll, ScheduleConfig,
    Scheduler, SeriesConfig, ShutdownFlag, SocketPathSpec,
};
use availbw::pathload_net::clock::MonoClock;
use availbw::pathload_net::mux::{EventLoop, IoReady, MuxEvent};
use availbw::pathload_net::{
    EventedReceiver, EventedReceiverHandle, EventedSession, SessionTokens, SocketTransport,
};
use availbw::slops::series::RangeSample;
use availbw::slops::{Estimate, InitialRate, SlopsConfig};
use availbw::telemetry::Histogram;
use availbw::units::{Rate, TimeNs};
use std::time::{Duration, Instant};

mod common;
use common::{field, parse_flat_json};

const RATE_CAP_MBPS: f64 = 30.0;

/// The tests here are wall-clock sensitive (schedules, pacing) and CPU
/// hungry (32 concurrent loopback paths); running them in parallel on a
/// small CI box makes measurements overrun their periods. Serialize them.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serialized() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Gentle probing so a loopback measurement lasts well under a second.
fn gentle_cfg() -> SlopsConfig {
    let mut cfg = SlopsConfig::default();
    cfg.stream_len = 20;
    cfg.fleet_len = 3;
    cfg.min_period = TimeNs::from_millis(1);
    cfg.resolution = Rate::from_mbps(10.0);
    cfg.grey_resolution = Rate::from_mbps(20.0);
    cfg.max_fleets = 4;
    cfg
}

/// A receiver serving on its own thread until stopped, its metrics in
/// `reg` when one is given.
fn receiver(reg: Option<&availbw::telemetry::Registry>) -> EventedReceiverHandle {
    let rx = EventedReceiver::bind("127.0.0.1:0".parse().unwrap()).unwrap();
    if let Some(reg) = reg {
        rx.register_metrics(reg);
    }
    rx.spawn()
}

/// `n` gentle loopback paths, all naming the receiver at `addr`.
fn specs(n: usize, label: &str, addr: std::net::SocketAddr) -> Vec<SocketPathSpec> {
    (0..n)
        .map(|i| SocketPathSpec {
            label: format!("{label}{i}"),
            ctrl_addr: addr,
            cfg: gentle_cfg(),
            rate_cap: Some(Rate::from_mbps(RATE_CAP_MBPS)),
        })
        .collect()
}

/// One sender on `clock`'s epoch toward `rx`, under tokens 1, 2, 3.
fn sender(rx: &EventedReceiverHandle, clock: &MonoClock, paced: &Histogram) -> EventedSession {
    let mut transport =
        SocketTransport::connect_with_clock(rx.ctrl_addr(), clock.same_epoch()).unwrap();
    transport.rate_cap = Rate::from_mbps(RATE_CAP_MBPS);
    transport.set_pacing_histogram(paced.clone());
    EventedSession::new(transport, TOKENS)
}

const TOKENS: SessionTokens = SessionTokens {
    ctrl: 1,
    probe: 2,
    timer: 3,
};

/// Drain `lp` one wait at a time into `sender`'s measurement until it has
/// an outcome, asserting the machine contract between batches — `poll()`
/// returns `None` while the driver executes a command — and that the
/// sender keeps at most its one timer pending, whatever earlier waits and
/// measurements armed, and none once the measurement is over. `after`
/// runs after every batch of real events.
fn hand_step(
    sender: &mut EventedSession,
    lp: &mut EventLoop,
    mut after: impl FnMut(&mut EventedSession, &mut EventLoop),
) -> Estimate {
    let started = Instant::now();
    let mut events: Vec<MuxEvent> = Vec::new();
    let mut saw_in_flight = false;
    let outcome = loop {
        if let Some(outcome) = sender.take_outcome(lp) {
            break outcome;
        }
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "the measurement did not terminate"
        );
        if sender.command_in_flight() {
            saw_in_flight = true;
            let machine = sender
                .machine_mut()
                .expect("a machine exists once commands execute");
            assert!(
                machine.poll().is_none(),
                "poll() must be None while a command is in flight"
            );
            assert!(!machine.is_finished());
        }
        events.clear();
        lp.wait(&mut events, Duration::from_millis(50)).unwrap();
        for ev in &events {
            sender.on_event(lp, ev);
        }
        after(sender, lp);
        assert!(
            lp.timers_pending() <= 1,
            "{} timer entries left behind by one sender",
            lp.timers_pending()
        );
    };
    assert!(saw_in_flight, "the loop never observed a command in flight");
    assert_eq!(
        lp.timers_pending(),
        0,
        "a finished measurement left its timer armed"
    );
    let est = outcome.expect("loopback measurement succeeds");
    assert!(est.low.bps() <= est.high.bps());
    assert!(!est.fleets.is_empty(), "empty fleet trace");
    assert!(est.elapsed > TimeNs::ZERO, "driver must stamp elapsed");
    assert!(
        est.high.mbps() <= RATE_CAP_MBPS + 8.0,
        "estimate above the pacing cap: {}",
        est.high
    );
    est
}

/// The DRIVERS.md hand-stepped contract test, evented edition: one
/// measurement over real loopback sockets, the event loop drained one
/// wait at a time, the machine invariant asserted between every batch of
/// events. It must still converge to a sane estimate with a
/// driver-stamped `elapsed`.
#[test]
fn hand_stepped_evented_session_honors_the_machine_contract() {
    let _serial = serialized();
    let rx = receiver(None);
    let clock = MonoClock::new();
    let mut sender = sender(&rx, &clock, &Histogram::new());
    let mut lp = EventLoop::new(clock.same_epoch()).unwrap();
    sender.begin(&lp, gentle_cfg()).unwrap();
    hand_step(&mut sender, &mut lp, |_, _| {});
    drop(sender);
    rx.stop().unwrap();
}

/// One sender is its path's for the life of the connection: two
/// back-to-back measurements on one connection, with a spurious timer
/// pop and spurious readiness on both sockets fed in before `begin`,
/// after every batch of real events, and after `take_outcome`. Nothing
/// tags the tokens of one measurement apart from the next, so the sender
/// itself must shrug these off: both measurements converge under the
/// machine contract with O(1) timer entries, the receiver routes every
/// packet the sender sent (each measurement's initial train plus every
/// paced stream packet), and no datagram reaches it under a token it
/// does not know.
#[test]
fn one_sender_measures_twice_through_spurious_events() {
    let _serial = serialized();
    let reg = availbw::telemetry::Registry::new();
    let rx = receiver(Some(&reg));
    let clock = MonoClock::new();
    let paced = Histogram::new();
    let mut sender = sender(&rx, &clock, &paced);
    let mut lp = EventLoop::new(clock.same_epoch()).unwrap();
    let spurious = |sender: &mut EventedSession, lp: &mut EventLoop| {
        sender.on_event(
            lp,
            &MuxEvent::Timer {
                token: TOKENS.timer,
            },
        );
        for token in [TOKENS.ctrl, TOKENS.probe] {
            let ready = IoReady {
                token,
                readable: true,
                writable: true,
            };
            sender.on_event(lp, &MuxEvent::Io(ready));
        }
    };
    let cfg = gentle_cfg();
    let InitialRate::Train { len: train, .. } = cfg.initial else {
        panic!("the gentle config starts with a train");
    };
    for _ in 0..2 {
        spurious(&mut sender, &mut lp);
        assert!(
            sender.take_outcome(&lp).is_none(),
            "an outcome before any measurement began"
        );
        sender.begin(&lp, cfg.clone()).unwrap();
        hand_step(&mut sender, &mut lp, spurious);
        spurious(&mut sender, &mut lp);
        assert!(
            sender.take_outcome(&lp).is_none(),
            "an outcome between measurements"
        );
    }
    drop(sender);
    rx.stop().unwrap();

    let routed = reg.counter("receiver_demux_routed_total", &[]).get();
    let unknown = reg
        .counter("receiver_demux_drops_total", &[("reason", "unknown_token")])
        .get();
    assert_eq!(
        routed,
        paced.count() + 2 * u64::from(train),
        "routed {routed} of {} paced",
        paced.count()
    );
    assert_eq!(
        unknown, 0,
        "datagrams under a token the receiver never issued"
    );
}

/// A ≥32-path loopback fleet on the async driver: one event-loop thread,
/// one shared multi-session receiver, every path sampled before the
/// horizon, no errors, and every JSONL line the daemon would emit parses
/// with the right shape. The receiver's metrics land in the fleet's
/// registry: the core's demux/collect/deny families, with routed traffic.
#[test]
fn thirty_two_path_fleet_on_one_event_loop_thread() {
    let _serial = serialized();
    const N: usize = 32;
    let telemetry = FleetTelemetry::new();
    let rx = receiver(Some(telemetry.registry()));
    let specs = specs(N, "lo", rx.ctrl_addr());
    let sched = ScheduleConfig {
        period: TimeNs::from_secs(5),
        jitter: TimeNs::from_millis(200),
        max_concurrent: 8,
        seed: 7,
    };

    // Collect the JSONL lines exactly as the binary would emit them.
    let mut lines: Vec<String> = Vec::new();
    let series = run_socket_fleet_async_with_telemetry(
        specs,
        &sched,
        &SeriesConfig::default(),
        TimeNs::from_secs(6),
        &ShutdownFlag::new(),
        Some(&telemetry),
        |ev| match ev {
            FleetEvent::Sample {
                path,
                label,
                sample,
            } => lines.push(sample_line(path, label, &sample)),
            FleetEvent::Failed { path, error, .. } => {
                panic!("path {path} failed on loopback: {error}")
            }
            FleetEvent::Change { .. } => {} // possible, not asserted
        },
    )
    .unwrap();
    for (p, s) in series.iter().enumerate() {
        lines.push(summary_line(p, s));
    }

    let mut samples_seen = [0usize; N];
    let mut summaries_seen = [0usize; N];
    for line in &lines {
        let rec = parse_flat_json(line).unwrap_or_else(|| panic!("bad JSONL: {line}"));
        match field(&rec, "type") {
            Some("sample") => {
                let p: usize = field(&rec, "path").unwrap().parse().unwrap();
                assert!(p < N, "{line}");
                assert_eq!(field(&rec, "label").unwrap(), format!("lo{p}"));
                let low: f64 = field(&rec, "low_bps").unwrap().parse().unwrap();
                let high: f64 = field(&rec, "high_bps").unwrap().parse().unwrap();
                assert!(0.0 <= low && low <= high, "{line}");
                let dur: f64 = field(&rec, "duration_ns").unwrap().parse().unwrap();
                assert!(dur > 0.0, "{line}");
                samples_seen[p] += 1;
            }
            Some("summary") => {
                let p: usize = field(&rec, "path").unwrap().parse().unwrap();
                assert_eq!(field(&rec, "errors").unwrap(), "0", "{line}");
                summaries_seen[p] += 1;
            }
            other => panic!("unexpected record type {other:?}: {line}"),
        }
    }

    assert_eq!(series.len(), N);
    for (p, s) in series.iter().enumerate() {
        assert!(
            samples_seen[p] >= 1,
            "path {p} was never measured within the horizon"
        );
        assert_eq!(summaries_seen[p], 1, "path {p}: wrong summary count");
        assert_eq!(s.len(), samples_seen[p], "path {p}: streamed != stored");
        assert_eq!(s.errors(), 0, "path {p} errored");
    }
    rx.stop().unwrap();

    let text = telemetry.registry().render_prometheus();
    for family in [
        "receiver_demux_routed_total",
        "receiver_demux_drops_total",
        "receiver_collect_silence_stops_total",
        "receiver_sessions_denied_total",
    ] {
        assert!(text.contains(family), "the receiver lost {family}");
    }
    let routed = telemetry
        .registry()
        .counter("receiver_demux_routed_total", &[])
        .get();
    assert!(routed > 0, "the receiver routed nothing");
}

/// Run the driver over a dedicated shared receiver and return the
/// per-path samples plus the JSONL lines.
fn run_fleet(
    n: usize,
    sched: &ScheduleConfig,
    horizon: TimeNs,
) -> (Vec<Vec<RangeSample>>, Vec<String>) {
    let rx = receiver(None);
    let mut lines = Vec::new();
    let series = run_socket_fleet_async_with_telemetry(
        specs(n, "p", rx.ctrl_addr()),
        sched,
        &SeriesConfig::default(),
        horizon,
        &ShutdownFlag::new(),
        None,
        |ev: FleetEvent<'_>| {
            if let FleetEvent::Sample {
                path,
                label,
                sample,
            } = ev
            {
                lines.push(sample_line(path, label, &sample));
            }
        },
    )
    .unwrap();
    rx.stop().unwrap();
    let samples = series
        .iter()
        .map(|s| s.samples().copied().collect())
        .collect();
    (samples, lines)
}

/// Run the driver with the full telemetry wiring and return the number
/// of samples observed, the registry's Prometheus snapshot, and the
/// registry lookups counted after the first `n` samples and at the end.
fn run_fleet_with_telemetry(
    n: usize,
    sched: &ScheduleConfig,
    horizon: TimeNs,
) -> (usize, String, (u64, u64)) {
    let rx = receiver(None);
    let telemetry = FleetTelemetry::new();
    let mut samples = 0usize;
    let mut after_first_wave = None;
    run_socket_fleet_async_with_telemetry(
        specs(n, "p", rx.ctrl_addr()),
        sched,
        &SeriesConfig::default(),
        horizon,
        &ShutdownFlag::new(),
        Some(&telemetry),
        |ev: FleetEvent<'_>| match ev {
            FleetEvent::Sample { .. } => {
                samples += 1;
                if samples == n {
                    after_first_wave = Some(telemetry.registry().lookups());
                }
            }
            FleetEvent::Failed { path, error, .. } => {
                panic!("path {path} failed on loopback: {error}")
            }
            FleetEvent::Change { .. } => {}
        },
    )
    .unwrap();
    rx.stop().unwrap();
    let lookups = (
        after_first_wave.expect("every path measured once"),
        telemetry.registry().lookups(),
    );
    (samples, telemetry.registry().render_prometheus(), lookups)
}

/// The machine-trace series of one Prometheus snapshot: every
/// `name{labels}` key of the families minted from machine trace events,
/// plus the summed value of one family for cross-checks.
fn trace_series(text: &str) -> (Vec<String>, u64) {
    const FAMILIES: [&str; 3] = [
        "streams_total{",
        "fleet_verdicts_total{",
        "sessions_done_total{",
    ];
    let mut keys = Vec::new();
    let mut sessions_done = 0u64;
    for line in text.lines() {
        if line.starts_with('#') {
            continue;
        }
        if FAMILIES.iter().any(|f| line.starts_with(f)) {
            let (key, value) = line.rsplit_once(' ').expect("metric line has a value");
            keys.push(key.to_string());
            if key.starts_with("sessions_done_total{") {
                sessions_done += value.parse::<u64>().expect("counter value");
            }
        }
    }
    keys.sort();
    (keys, sessions_done)
}

/// The driver only RELAYS the machine-minted trace into the shared
/// registry: every path surfaces the machine-trace series, every recorded
/// sample is matched by exactly one machine-minted `SessionDone`, and the
/// per-path pacing histograms fill. Once every path has measured, further
/// estimates (and the event loop's wake-ups around them) take no registry
/// lookup: the relays resolve their handles up front.
#[test]
fn async_driver_relays_the_machine_trace() {
    let _serial = serialized();
    const N: usize = 2;
    let sched = ScheduleConfig {
        period: TimeNs::from_secs(2),
        jitter: TimeNs::from_millis(100),
        max_concurrent: N,
        seed: 42,
    };
    let (samples, text, lookups) = run_fleet_with_telemetry(N, &sched, TimeNs::from_secs(5));
    assert_eq!(lookups.0, lookups.1, "lookups after the first wave");

    let (keys, done) = trace_series(&text);
    for p in 0..N {
        let path = format!("path=\"p{p}\"");
        assert!(
            keys.iter().any(|k| k.contains(&path)),
            "no machine-trace series for p{p}"
        );
    }
    assert_eq!(
        done, samples as u64,
        "samples without a machine-minted SessionDone"
    );
    assert!(samples >= N, "the driver measured too little");
    for p in 0..N {
        let needle = format!("pacing_error_ns_count{{path=\"p{p}\"}}");
        let line = text
            .lines()
            .find(|l| l.starts_with(&needle))
            .unwrap_or_else(|| panic!("missing {needle}"));
        let count: u64 = line.rsplit_once(' ').unwrap().1.parse().unwrap();
        assert!(count > 0, "path p{p} paced no packets");
    }
}

/// The driver takes every start from the sans-IO scheduler, so for a seed
/// it issues the scheduler's tick-grid schedule: each sample's start
/// offset (relative to the fleet's first start, which removes the
/// wall-clock epoch) equals the one the scheduler issues when stepped
/// alone with every measurement finishing at once — as long as no
/// measurement overruns its period. Every sample line has one schema.
#[test]
fn async_driver_issues_the_schedulers_schedule() {
    let _serial = serialized();
    const N: usize = 2;
    let sched = ScheduleConfig {
        period: TimeNs::from_secs(3),
        jitter: TimeNs::from_millis(200),
        max_concurrent: N, // never the binding constraint here
        seed: 99,
    };
    let horizon = TimeNs::from_secs(7);
    let (samples, lines) = run_fleet(N, &sched, horizon);

    let mut alone = Scheduler::new(N, TimeNs::ZERO, horizon, &sched);
    let mut want = vec![Vec::new(); N];
    while let Poll::Start { path, at } = alone.poll() {
        want[path.0 as usize].push(at);
        alone.on_complete(path, at);
    }
    let offsets = |starts: Vec<Vec<TimeNs>>| {
        let t0 = starts
            .iter()
            .flatten()
            .copied()
            .min()
            .expect("non-empty run");
        starts
            .into_iter()
            .map(|p| p.into_iter().map(|t| t - t0).collect::<Vec<_>>())
            .collect::<Vec<_>>()
    };
    let got = samples
        .iter()
        .map(|p| p.iter().map(|r| r.started).collect())
        .collect();
    assert_eq!(
        offsets(got),
        offsets(want),
        "the driver diverged from the scheduler's tick schedule"
    );

    let keys = |line: &String| {
        parse_flat_json(line)
            .unwrap_or_else(|| panic!("bad JSONL: {line}"))
            .into_iter()
            .map(|(k, _)| k)
            .collect::<Vec<_>>()
    };
    let keys: Vec<_> = lines.iter().map(keys).collect();
    assert!(!keys.is_empty());
    for k in &keys {
        assert_eq!(*k, keys[0], "schema must be uniform across lines");
    }
}

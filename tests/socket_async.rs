//! The async (event-loop) socket driver, end to end over loopback.
//!
//! Three layers are pinned here, matching the DRIVERS.md checklist for a
//! new driver:
//!
//! 1. **the hand-stepped contract test** — an [`EventedSession`] driven
//!    one event-loop wait at a time, with the machine's `poll() == None`
//!    invariant asserted while every command is in flight;
//! 2. **a big fleet** — ≥32 loopback paths multiplexed on ONE event-loop
//!    thread against ONE shared multi-session receiver, with every JSONL
//!    line the daemon would emit parsed and checked;
//! 3. **thread-vs-async structural equivalence** — both fleet drivers run
//!    the same seeded schedule; per-path sample counts, the tick-grid
//!    start offsets, and the record schema must agree. (Real sockets are
//!    nondeterministic, so the estimates themselves are not compared —
//!    the same standard as `tests/socket_loopback.rs`.)

// The evented driver is Unix-only (raw-fd registration with epoll).
#![cfg(unix)]

use availbw::monitord::export::{sample_line, summary_line};
use availbw::monitord::{
    run_socket_fleet_async_with_telemetry, run_socket_fleet_with_telemetry, FleetEvent,
    FleetTelemetry, ScheduleConfig, SeriesConfig, ShutdownFlag, SocketPathSpec,
};
use availbw::pathload_net::clock::MonoClock;
use availbw::pathload_net::mux::{EventLoop, MuxEvent};
#[cfg(target_os = "linux")]
use availbw::pathload_net::{EventedReceiver, EventedReceiverHandle};
use availbw::pathload_net::{EventedSession, Receiver, SessionTokens, SocketTransport};
use availbw::slops::series::RangeSample;
use availbw::slops::SlopsConfig;
use availbw::units::{Rate, TimeNs};
use std::thread;
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

/// The DRIVERS.md hand-stepped contract test, evented edition: one
/// session over real loopback sockets, the event loop drained one wait
/// at a time, and between every batch of events the machine invariant is
/// asserted — `poll()` returns `None` exactly while the driver is
/// executing a command. The session must still converge to a sane
/// estimate with a driver-stamped `elapsed`.
#[test]
fn hand_stepped_evented_session_honors_the_machine_contract() {
    let _serial = serialized();
    let rx = Receiver::bind("127.0.0.1:0".parse().unwrap()).unwrap();
    let addr = rx.ctrl_addr();
    let server = thread::spawn(move || rx.serve_one());

    let clock = MonoClock::new();
    let mut transport = SocketTransport::connect_with_clock(addr, clock.same_epoch()).unwrap();
    transport.rate_cap = Rate::from_mbps(RATE_CAP_MBPS);
    let tokens = SessionTokens {
        ctrl: 1,
        probe: 2,
        timer: 3,
    };
    let mut session = EventedSession::new(transport, gentle_cfg(), tokens)
        .map_err(|(_, e)| e)
        .unwrap();
    let mut lp = EventLoop::new(clock.same_epoch()).unwrap();
    session.register(&lp).unwrap();

    let started = Instant::now();
    let mut events: Vec<MuxEvent> = Vec::new();
    let mut saw_in_flight = false;
    while !session.is_finished() {
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "session did not terminate"
        );
        if session.command_in_flight() {
            saw_in_flight = true;
            let machine = session
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
            session.on_event(&mut lp, ev);
        }
    }
    assert!(saw_in_flight, "the loop never observed a command in flight");
    // A session's timer entries stay O(1) across a measurement: at most
    // one paced deadline or idle and the one control-channel watchdog.
    assert!(
        lp.timers_pending() <= 3,
        "{} timer entries left behind by one session",
        lp.timers_pending()
    );

    let (transport, outcome) = session.finish(&lp);
    let est = outcome.expect("loopback session succeeds");
    assert!(est.low.bps() <= est.high.bps());
    assert!(!est.fleets.is_empty(), "empty fleet trace");
    assert!(est.elapsed > TimeNs::ZERO, "driver must stamp elapsed");
    assert!(
        est.high.mbps() <= RATE_CAP_MBPS + 8.0,
        "estimate above the pacing cap: {}",
        est.high
    );
    drop(transport);
    server.join().unwrap().unwrap();
}

/// A ≥32-path loopback fleet on the async driver: one event-loop thread,
/// one shared multi-session receiver, every path sampled before the
/// horizon, no errors, and every JSONL line the daemon would emit parses
/// with the right shape.
#[test]
fn thirty_two_path_fleet_on_one_event_loop_thread() {
    let _serial = serialized();
    const N: usize = 32;
    let rx = Receiver::bind("127.0.0.1:0".parse().unwrap()).unwrap();
    let addr = rx.ctrl_addr();
    let server = thread::spawn(move || rx.serve_n(N));
    let specs: Vec<SocketPathSpec> = (0..N)
        .map(|i| SocketPathSpec {
            label: format!("lo{i}"),
            ctrl_addr: addr,
            cfg: gentle_cfg(),
            rate_cap: Some(Rate::from_mbps(RATE_CAP_MBPS)),
        })
        .collect();
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
        None,
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
    server.join().unwrap().unwrap();
}

/// Run one fleet driver over a dedicated shared receiver and return the
/// per-path `(started, duration)` samples plus the JSONL lines.
fn run_driver(
    use_async: bool,
    n: usize,
    sched: &ScheduleConfig,
    horizon: TimeNs,
) -> (Vec<Vec<RangeSample>>, Vec<String>) {
    let rx = Receiver::bind("127.0.0.1:0".parse().unwrap()).unwrap();
    let addr = rx.ctrl_addr();
    let server = thread::spawn(move || rx.serve_n(n));
    let specs: Vec<SocketPathSpec> = (0..n)
        .map(|i| SocketPathSpec {
            label: format!("p{i}"),
            ctrl_addr: addr,
            cfg: gentle_cfg(),
            rate_cap: Some(Rate::from_mbps(RATE_CAP_MBPS)),
        })
        .collect();
    let mut lines = Vec::new();
    let observer = |ev: FleetEvent<'_>| {
        if let FleetEvent::Sample {
            path,
            label,
            sample,
        } = ev
        {
            lines.push(sample_line(path, label, &sample));
        }
    };
    let (series_cfg, stop) = (SeriesConfig::default(), ShutdownFlag::new());
    let series = if use_async {
        run_socket_fleet_async_with_telemetry(
            specs,
            sched,
            &series_cfg,
            horizon,
            &stop,
            None,
            observer,
        )
    } else {
        run_socket_fleet_with_telemetry(
            specs,
            sched,
            &series_cfg,
            horizon,
            2,
            &stop,
            None,
            observer,
        )
    }
    .unwrap();
    server.join().unwrap().unwrap();
    let samples = series
        .iter()
        .map(|s| s.samples().copied().collect())
        .collect();
    (samples, lines)
}

/// Run one fleet driver with the full telemetry wiring and return the
/// number of samples observed, the registry's Prometheus snapshot, and
/// the registry lookups counted after the first `n` samples and at the
/// end.
fn run_driver_with_telemetry(
    use_async: bool,
    n: usize,
    sched: &ScheduleConfig,
    horizon: TimeNs,
) -> (usize, String, (u64, u64)) {
    let rx = Receiver::bind("127.0.0.1:0".parse().unwrap()).unwrap();
    let addr = rx.ctrl_addr();
    let server = thread::spawn(move || rx.serve_n(n));
    let specs: Vec<SocketPathSpec> = (0..n)
        .map(|i| SocketPathSpec {
            label: format!("p{i}"),
            ctrl_addr: addr,
            cfg: gentle_cfg(),
            rate_cap: Some(Rate::from_mbps(RATE_CAP_MBPS)),
        })
        .collect();
    let telemetry = FleetTelemetry::new();
    let mut samples = 0usize;
    let mut after_first_wave = None;
    let observer = |ev: FleetEvent<'_>| match ev {
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
    };
    if use_async {
        run_socket_fleet_async_with_telemetry(
            specs,
            sched,
            &SeriesConfig::default(),
            horizon,
            &ShutdownFlag::new(),
            Some(&telemetry),
            observer,
        )
        .unwrap();
    } else {
        run_socket_fleet_with_telemetry(
            specs,
            sched,
            &SeriesConfig::default(),
            horizon,
            2,
            &ShutdownFlag::new(),
            Some(&telemetry),
            observer,
        )
        .unwrap();
    }
    server.join().unwrap().unwrap();
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

/// Thread-vs-async trace-event equivalence: both drivers only RELAY the
/// machine-minted trace into the shared registry, so they surface the
/// exact same machine-trace series (same families, same label
/// vocabulary, same paths), and in both runs every recorded sample is
/// matched by exactly one machine-minted `SessionDone`. Real-socket
/// timing makes the verdict distributions differ; the series themselves
/// must not.
#[test]
fn thread_and_async_drivers_relay_the_same_machine_trace() {
    let _serial = serialized();
    const N: usize = 2;
    let sched = ScheduleConfig {
        period: TimeNs::from_secs(2),
        jitter: TimeNs::from_millis(100),
        max_concurrent: N,
        seed: 42,
    };
    let horizon = TimeNs::from_secs(5);
    let (thread_samples, thread_text, thread_lookups) =
        run_driver_with_telemetry(false, N, &sched, horizon);
    let (async_samples, async_text, async_lookups) =
        run_driver_with_telemetry(true, N, &sched, horizon);
    // Both drivers relay through handles resolved up front: estimates
    // after the first wave (and the event loop's wake-ups around them)
    // take no registry lookup.
    assert_eq!(thread_lookups.0, thread_lookups.1, "thread driver");
    assert_eq!(async_lookups.0, async_lookups.1, "async driver");

    let (thread_keys, thread_done) = trace_series(&thread_text);
    let (async_keys, async_done) = trace_series(&async_text);
    assert!(!thread_keys.is_empty(), "no machine-trace series surfaced");
    assert_eq!(
        thread_keys, async_keys,
        "drivers surfaced different machine-trace series"
    );
    assert_eq!(
        thread_done, thread_samples as u64,
        "thread driver: samples without a machine-minted SessionDone"
    );
    assert_eq!(
        async_done, async_samples as u64,
        "async driver: samples without a machine-minted SessionDone"
    );
    // Both runs actually measured something.
    assert!(thread_samples >= N, "thread driver measured too little");
    assert!(async_samples >= N, "async driver measured too little");
    // Both drivers also fed the per-path pacing histograms.
    for text in [&thread_text, &async_text] {
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
}

/// One far end of a fleet run: a threaded receiver thread or an evented
/// receiver handle.
#[cfg(target_os = "linux")]
enum FarEnd {
    Threaded(thread::JoinHandle<std::io::Result<()>>),
    Evented(EventedReceiverHandle),
}

/// Run one async-driver fleet against either receiver shape, with the
/// receiver's metrics registered on the fleet's registry. Returns the
/// per-path samples, the JSONL sample lines, and the registry's
/// Prometheus snapshot.
#[cfg(target_os = "linux")]
fn run_fleet_against_receiver(
    evented: bool,
    n: usize,
    sched: &ScheduleConfig,
    horizon: TimeNs,
) -> (Vec<Vec<RangeSample>>, Vec<String>, String) {
    let telemetry = FleetTelemetry::new();
    let (addr, far_end) = if evented {
        let rx = EventedReceiver::bind("127.0.0.1:0".parse().unwrap()).unwrap();
        rx.register_metrics(telemetry.registry());
        let handle = rx.spawn();
        (handle.ctrl_addr(), FarEnd::Evented(handle))
    } else {
        let rx = Receiver::bind("127.0.0.1:0".parse().unwrap()).unwrap();
        rx.register_metrics(telemetry.registry());
        let addr = rx.ctrl_addr();
        (addr, FarEnd::Threaded(thread::spawn(move || rx.serve_n(n))))
    };
    let specs: Vec<SocketPathSpec> = (0..n)
        .map(|i| SocketPathSpec {
            label: format!("p{i}"),
            ctrl_addr: addr,
            cfg: gentle_cfg(),
            rate_cap: Some(Rate::from_mbps(RATE_CAP_MBPS)),
        })
        .collect();
    let mut lines = Vec::new();
    let series = run_socket_fleet_async_with_telemetry(
        specs,
        sched,
        &SeriesConfig::default(),
        horizon,
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
            FleetEvent::Change { .. } => {}
        },
    )
    .unwrap();
    match far_end {
        FarEnd::Threaded(h) => h.join().unwrap().unwrap(),
        FarEnd::Evented(h) => h.stop().unwrap(),
    }
    let samples = series
        .iter()
        .map(|s| s.samples().copied().collect())
        .collect();
    (samples, lines, telemetry.registry().render_prometheus())
}

/// The `receiver_*` metric family names of one Prometheus snapshot.
#[cfg(target_os = "linux")]
fn receiver_families(text: &str) -> std::collections::BTreeSet<String> {
    text.lines()
        .filter(|l| !l.starts_with('#') && l.starts_with("receiver_"))
        .map(|l| {
            l.split(['{', ' '])
                .next()
                .expect("metric line has a name")
                .to_string()
        })
        .collect()
}

/// Threaded-vs-evented **receiver** structural equivalence: the same
/// 32-path async fleet (same seed, schedule, configs) runs against both
/// receiver shapes. The far end must be interchangeable: per-path sample
/// counts equal, every path measured, one uniform JSONL schema across
/// both runs, and the demux metric surface identical — the same six
/// `receiver_demux_*`/`receiver_collect_*`/`receiver_sessions_denied_total`
/// families with routed traffic in both. (Estimates are not compared:
/// real sockets are nondeterministic.)
#[cfg(target_os = "linux")]
#[test]
fn threaded_and_evented_receivers_are_structurally_equivalent() {
    let _serial = serialized();
    const N: usize = 32;
    let sched = ScheduleConfig {
        period: TimeNs::from_secs(5),
        jitter: TimeNs::from_millis(200),
        max_concurrent: 8,
        seed: 7,
    };
    let horizon = TimeNs::from_secs(6);
    let (t_samples, t_lines, t_text) = run_fleet_against_receiver(false, N, &sched, horizon);
    let (e_samples, e_lines, e_text) = run_fleet_against_receiver(true, N, &sched, horizon);

    // Same per-path sample counts, every path measured.
    let counts = |s: &Vec<Vec<RangeSample>>| s.iter().map(|p| p.len()).collect::<Vec<_>>();
    assert_eq!(
        counts(&t_samples),
        counts(&e_samples),
        "receiver shapes yielded different sample counts"
    );
    for (p, samples) in t_samples.iter().enumerate() {
        assert!(!samples.is_empty(), "path {p} was never measured");
    }

    // One uniform JSONL schema across both runs.
    let keys = |line: &String| {
        parse_flat_json(line)
            .unwrap_or_else(|| panic!("bad JSONL: {line}"))
            .into_iter()
            .map(|(k, _)| k)
            .collect::<Vec<_>>()
    };
    let t_keys: Vec<_> = t_lines.iter().map(keys).collect();
    let e_keys: Vec<_> = e_lines.iter().map(keys).collect();
    assert!(!t_keys.is_empty() && !e_keys.is_empty());
    for k in t_keys.iter().chain(e_keys.iter()) {
        assert_eq!(*k, t_keys[0], "JSONL schema diverged between receivers");
    }

    // Identical demux metric surface. The evented receiver may add
    // families of its own (sessions gauge, batch-size histogram) but the
    // shared demux/collect/deny vocabulary must match exactly.
    const DEMUX: [&str; 4] = [
        "receiver_demux_routed_total",
        "receiver_demux_drops_total",
        "receiver_collect_silence_stops_total",
        "receiver_sessions_denied_total",
    ];
    let t_families = receiver_families(&t_text);
    let e_families = receiver_families(&e_text);
    for family in DEMUX {
        assert!(t_families.contains(family), "threaded run lost {family}");
        assert!(e_families.contains(family), "evented run lost {family}");
    }
    assert!(
        t_families.is_subset(&e_families),
        "evented receiver dropped families the threaded one exposes: \
         {t_families:?} vs {e_families:?}"
    );
    // Both shapes actually routed probe traffic through the demux path.
    for (who, text) in [("threaded", &t_text), ("evented", &e_text)] {
        let routed: u64 = text
            .lines()
            .find(|l| l.starts_with("receiver_demux_routed_total"))
            .and_then(|l| l.rsplit_once(' '))
            .map(|(_, v)| v.parse().expect("counter value"))
            .unwrap_or_else(|| panic!("{who}: no routed counter line"));
        assert!(routed > 0, "{who} receiver routed nothing");
    }
}

/// Thread-vs-async structural equivalence: the two drivers take every
/// start from the same sans-IO scheduler, so for the same seed they must
/// issue the same tick-grid schedule — per-path sample counts equal, and
/// each sample's start offset (relative to the fleet's first start, which
/// removes the wall-clock epoch difference between the two runs) equal to
/// the tick. The JSONL schema must match field-for-field.
#[test]
fn thread_and_async_drivers_issue_the_same_schedule() {
    let _serial = serialized();
    const N: usize = 2;
    let sched = ScheduleConfig {
        period: TimeNs::from_secs(3),
        jitter: TimeNs::from_millis(200),
        max_concurrent: N, // never the binding constraint here
        seed: 99,
    };
    let horizon = TimeNs::from_secs(7);
    let (thread_samples, thread_lines) = run_driver(false, N, &sched, horizon);
    let (async_samples, async_lines) = run_driver(true, N, &sched, horizon);

    // Same per-path sample counts.
    let counts = |s: &Vec<Vec<RangeSample>>| s.iter().map(|p| p.len()).collect::<Vec<_>>();
    assert_eq!(
        counts(&thread_samples),
        counts(&async_samples),
        "drivers measured different sample counts"
    );

    // Same scheduler tick schedule: start offsets relative to the fleet's
    // first start are pure functions of (seed, n, period, tick grid) as
    // long as no measurement overruns its period, so they are identical
    // across drivers even though the two runs' wall-clock epochs differ.
    let offsets = |s: &Vec<Vec<RangeSample>>| {
        let t0 = s
            .iter()
            .flat_map(|p| p.iter().map(|r| r.started))
            .min()
            .expect("non-empty run");
        s.iter()
            .map(|p| p.iter().map(|r| r.started - t0).collect::<Vec<_>>())
            .collect::<Vec<_>>()
    };
    assert_eq!(
        offsets(&thread_samples),
        offsets(&async_samples),
        "drivers diverged from the shared scheduler's tick schedule"
    );

    // Same record schema: identical key sequences on every sample line.
    let keys = |line: &String| {
        parse_flat_json(line)
            .unwrap_or_else(|| panic!("bad JSONL: {line}"))
            .into_iter()
            .map(|(k, _)| k)
            .collect::<Vec<_>>()
    };
    let thread_keys: Vec<_> = thread_lines.iter().map(keys).collect();
    let async_keys: Vec<_> = async_lines.iter().map(keys).collect();
    assert!(!thread_keys.is_empty());
    assert_eq!(thread_keys[0], async_keys[0], "record schema diverged");
    for k in thread_keys.iter().chain(async_keys.iter()) {
        assert_eq!(*k, thread_keys[0], "schema must be uniform across lines");
    }
}

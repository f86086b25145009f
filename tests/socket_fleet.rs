//! The socket-backed monitoring fleet, end to end over loopback: the
//! `monitord` binary's driver ([`run_socket_fleet_async_with_telemetry`])
//! multiplexing several real UDP/TCP paths through the sans-IO scheduler,
//! with the JSONL records it would emit validated line by line.
//!
//! Every fleet here shares a **single** receiver address: the
//! multi-session receiver demuxes all paths' sessions on one control port
//! and one UDP socket, which is the intended co-located deployment.
//!
//! Loopback has no FIFO bottleneck, so the estimates themselves are not
//! meaningful — what these tests pin is the deployable stack: long-lived
//! per-path connections to one shared receiver, shared-epoch clocks,
//! staggered starts, streamed records that parse, and per-path series
//! that settle into a sane range.

// The fleet driver and the receiver are Linux-only (epoll).
#![cfg(target_os = "linux")]

use availbw::monitord::export::{sample_line, summary_line};
use availbw::monitord::{
    run_socket_fleet_async_with_telemetry, FleetEvent, ScheduleConfig, SeriesConfig, ShutdownFlag,
    SocketPathSpec,
};
use availbw::pathload_net::EventedReceiver;
use availbw::slops::SlopsConfig;
use availbw::units::{Rate, TimeNs};

mod common;
use common::{field, parse_flat_json};

/// Gentle probing so a loopback measurement lasts about a second.
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

const RATE_CAP_MBPS: f64 = 40.0;

/// Three loopback paths, all naming ONE shared receiver address, through
/// the binary's socket fleet driver: every streamed record parses as
/// JSONL, every path converges to a sane series with no errors, and the
/// starts are staggered on one shared timeline.
#[test]
fn loopback_fleet_emits_valid_jsonl_and_converges() {
    const N: usize = 3;
    let rx = EventedReceiver::bind("127.0.0.1:0".parse().unwrap())
        .unwrap()
        .spawn();
    let addr = rx.ctrl_addr();
    let specs: Vec<SocketPathSpec> = (0..N)
        .map(|i| SocketPathSpec {
            label: format!("lo{i}"),
            ctrl_addr: addr,
            cfg: gentle_cfg(),
            rate_cap: Some(Rate::from_mbps(RATE_CAP_MBPS)),
        })
        .collect();
    let sched = ScheduleConfig {
        period: TimeNs::from_secs(2),
        jitter: TimeNs::from_millis(200),
        max_concurrent: 1, // loopback paths share the host CPU
        seed: 42,
    };

    // Collect the JSONL lines exactly as the binary would emit them.
    let mut lines: Vec<String> = Vec::new();
    let series = run_socket_fleet_async_with_telemetry(
        specs,
        &sched,
        &SeriesConfig::default(),
        TimeNs::from_secs(8),
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

    // Every line parses as a flat JSON record with the right shape.
    let mut samples_seen = [0usize; N];
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
                assert!(
                    high <= (RATE_CAP_MBPS + 8.0) * 1e6,
                    "estimate above the pacing cap: {line}"
                );
                let dur: f64 = field(&rec, "duration_ns").unwrap().parse().unwrap();
                assert!(dur > 0.0, "{line}");
                samples_seen[p] += 1;
            }
            Some("summary") => {
                assert_eq!(field(&rec, "errors").unwrap(), "0", "{line}");
            }
            Some("change") => {}
            other => panic!("unexpected record type {other:?}: {line}"),
        }
    }

    // Per-path series: at least 2 samples each, streamed == stored.
    assert_eq!(series.len(), N);
    let mut first_starts = Vec::new();
    for (p, s) in series.iter().enumerate() {
        assert!(
            s.len() >= 2,
            "path {p}: only {} samples before the horizon",
            s.len()
        );
        assert_eq!(s.len(), samples_seen[p], "path {p}: streamed != stored");
        assert_eq!(s.errors(), 0);
        first_starts.push(s.samples().next().unwrap().started);
    }
    // Staggered starts on one shared timeline: all distinct.
    first_starts.sort();
    first_starts.dedup();
    assert_eq!(first_starts.len(), N, "starts were not staggered");

    rx.stop().unwrap();
}

/// The concurrency cap holds over real sockets even when both paths
/// share one receiver: with `max_concurrent 1` no two measurements
/// overlap in wall-clock time, even across paths.
#[test]
fn concurrency_cap_holds_on_the_wall_clock() {
    const N: usize = 2;
    let rx = EventedReceiver::bind("127.0.0.1:0".parse().unwrap())
        .unwrap()
        .spawn();
    let addr = rx.ctrl_addr();
    let specs: Vec<SocketPathSpec> = (0..N)
        .map(|i| SocketPathSpec {
            label: format!("p{i}"),
            ctrl_addr: addr,
            cfg: gentle_cfg(),
            rate_cap: Some(Rate::from_mbps(RATE_CAP_MBPS)),
        })
        .collect();
    let sched = ScheduleConfig {
        period: TimeNs::from_millis(500), // force back-to-back pressure
        jitter: TimeNs::ZERO,
        max_concurrent: 1,
        seed: 3,
    };
    let series = run_socket_fleet_async_with_telemetry(
        specs,
        &sched,
        &SeriesConfig::default(),
        TimeNs::from_secs(5),
        &ShutdownFlag::new(),
        None,
        |_| {},
    )
    .unwrap();
    let mut intervals: Vec<(TimeNs, TimeNs)> = series
        .iter()
        .flat_map(|s| s.samples().map(|r| (r.started, r.end())))
        .collect();
    intervals.sort();
    assert!(
        intervals.len() >= 3,
        "too few measurements to check the cap"
    );
    for w in intervals.windows(2) {
        assert!(
            w[1].0 >= w[0].1,
            "measurements overlapped under cap 1: {w:?}"
        );
    }
    rx.stop().unwrap();
}

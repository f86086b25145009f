//! The socket-backed fleet driver: monitoring real paths with real
//! UDP/TCP probes, under the same sans-IO [`Scheduler`].
//!
//! Each monitored path is one [`pathload_net::SocketTransport`] connected
//! to a `pathload_rcv` receiver near that path's far end. Receivers are
//! session-multiplexing, so paths whose far ends are co-located may all
//! name the **same** receiver address — each connection becomes its own
//! session, demuxed by the token in every probe packet. All transports
//! of a fleet share **one clock epoch** ([`pathload_net::clock::MonoClock::same_epoch`]):
//! the scheduler staggers starts across paths on a single timeline, so the
//! per-path `elapsed()` clocks must agree on what "now" means.
//!
//! This module adds no policy of its own — it connects transports and
//! hands them to the thread-backed driver ([`crate::thread::run_fleet_with_telemetry`]),
//! which takes every scheduling decision from the shared [`Scheduler`] and
//! every estimate from the sans-IO `slops::SessionMachine`. Both repo
//! invariants hold by construction: estimation logic lives in the machine,
//! scheduling policy lives in the scheduler.
//!
//! On a wall clock the schedule is best effort: a start instant may
//! already be in the past when its worker picks the job up, in which case
//! the measurement starts immediately (the stagger and the concurrency cap
//! survive; the exact tick grid does not — see `crate::thread`).
//!
//! The `monitord` binary (`crates/monitord/src/bin/monitord.rs`) is a thin
//! shell around [`run_socket_fleet_with_telemetry`] plus the JSONL export layer.
//!
//! [`Scheduler`]: crate::scheduler::Scheduler

use crate::metrics::FleetTelemetry;
use crate::scheduler::ScheduleConfig;
use crate::store::{PathSeries, SeriesConfig};
use crate::thread::{run_fleet_with_telemetry, FleetEvent, ShutdownFlag, ThreadPathSpec};
use pathload_net::clock::MonoClock;
use pathload_net::SocketTransport;
use slops::{SlopsConfig, SlopsError, TransportError};
use std::io;
use std::net::SocketAddr;
use units::{Rate, TimeNs};

/// One monitored path of a socket-backed fleet.
#[derive(Clone, Debug)]
pub struct SocketPathSpec {
    /// Label carried into the series and the export layer.
    pub label: String,
    /// Control address of the path's `pathload_rcv` receiver.
    pub ctrl_addr: SocketAddr,
    /// Measurement configuration for this path.
    pub cfg: SlopsConfig,
    /// Override of the transport's pacing rate cap (see
    /// [`SocketTransport::rate_cap`]); `None` keeps the default.
    pub rate_cap: Option<Rate>,
}

/// Connect one [`SocketTransport`] per path, all sharing a single clock
/// epoch. Returns the epoch clock (so an event loop can read the same
/// timeline) and the connected `(spec, transport)` pairs in path order.
/// Shared by the thread-backed ([`connect_fleet_with_telemetry`]) and
/// event-loop ([`crate::evented::run_socket_fleet_async_with_telemetry`])
/// drivers.
pub(crate) fn connect_transports(
    specs: Vec<SocketPathSpec>,
    telemetry: Option<&FleetTelemetry>,
) -> io::Result<(MonoClock, Vec<(SocketPathSpec, SocketTransport)>)> {
    let epoch = MonoClock::new();
    let mut out = Vec::with_capacity(specs.len());
    for spec in specs {
        let mut transport =
            SocketTransport::connect_with_clock(spec.ctrl_addr, epoch.same_epoch())?;
        if let Some(cap) = spec.rate_cap {
            transport.rate_cap = cap;
        }
        if let Some(t) = telemetry {
            transport.set_pacing_histogram(t.pacing_histogram(&spec.label));
        }
        out.push((spec, transport));
    }
    Ok((epoch, out))
}

/// Connect one [`SocketTransport`] per path, all sharing a single clock
/// epoch, and package them for the thread-backed fleet driver. With a
/// [`FleetTelemetry`] hub, each transport's per-packet pacing error is
/// observed into the hub's `pacing_error_ns{path="…"}` histogram.
///
/// The control connections are long-lived: each receiver serves this
/// fleet's path for the whole monitoring run (every periodic measurement
/// reuses the same control channel and UDP socket).
pub fn connect_fleet_with_telemetry(
    specs: Vec<SocketPathSpec>,
    telemetry: Option<&FleetTelemetry>,
) -> io::Result<Vec<ThreadPathSpec>> {
    let (_epoch, connected) = connect_transports(specs, telemetry)?;
    Ok(connected
        .into_iter()
        .map(|(spec, transport)| ThreadPathSpec {
            label: spec.label,
            cfg: spec.cfg,
            transport: Box::new(transport),
        })
        .collect())
}

/// Run a socket-backed monitoring fleet to completion: connect every
/// path, then measure each periodically (staggered, jittered, capped —
/// see [`ScheduleConfig`]) until `horizon` of wall-clock time has passed
/// since the fleet connected, streaming a [`FleetEvent`] to `observer`
/// for every stored sample, failure, and flagged change.
///
/// Returns the per-path series in path order. Connection failures are
/// fatal (a fleet that cannot reach a receiver is misconfigured); failures
/// of individual *measurements* after that are counted on the path's
/// series and monitoring continues.
///
/// `stop` and `telemetry` behave as in
/// [`run_fleet_with_telemetry`]:
/// SIGINT/SIGTERM stop new starts, let in-flight measurements land and
/// still flush per-path summaries; the hub gets pacing-error histograms
/// on every transport, machine trace events per path and live scheduler
/// gauges — everything a `monitord --metrics` scrape serves mid-run.
#[allow(clippy::too_many_arguments)]
pub fn run_socket_fleet_with_telemetry(
    specs: Vec<SocketPathSpec>,
    sched_cfg: &ScheduleConfig,
    series_cfg: &SeriesConfig,
    horizon: TimeNs,
    threads: usize,
    stop: &ShutdownFlag,
    telemetry: Option<&FleetTelemetry>,
    observer: impl FnMut(FleetEvent<'_>),
) -> Result<Vec<PathSeries>, SlopsError> {
    let paths = connect_fleet_with_telemetry(specs, telemetry)
        .map_err(|e| SlopsError::Transport(TransportError::Io(e.to_string())))?;
    run_fleet_with_telemetry(
        paths, sched_cfg, series_cfg, horizon, threads, stop, telemetry, observer,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathload_net::Receiver;
    use std::thread;

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

    /// Two loopback paths sharing ONE receiver address (the multi-session
    /// receiver demuxes them), one short monitoring run: transports share
    /// an epoch, every path gets at least one sample, nothing errors.
    #[test]
    fn loopback_pair_shares_one_receiver() {
        let rx = Receiver::bind("127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = rx.ctrl_addr();
        let server = thread::spawn(move || rx.serve_n(2));
        let specs: Vec<SocketPathSpec> = (0..2)
            .map(|i| SocketPathSpec {
                label: format!("lo{i}"),
                ctrl_addr: addr,
                cfg: gentle_cfg(),
                rate_cap: Some(Rate::from_mbps(30.0)),
            })
            .collect();
        let sched = ScheduleConfig {
            period: TimeNs::from_secs(2),
            jitter: TimeNs::from_millis(100),
            max_concurrent: 1,
            seed: 1,
        };
        let mut samples = 0usize;
        let series = run_socket_fleet_with_telemetry(
            specs,
            &sched,
            &SeriesConfig::default(),
            TimeNs::from_secs(4),
            2,
            &ShutdownFlag::new(),
            None,
            |ev| {
                if matches!(ev, FleetEvent::Sample { .. }) {
                    samples += 1;
                }
            },
        )
        .unwrap();
        assert_eq!(series.len(), 2);
        for s in &series {
            assert!(!s.is_empty(), "{}: no samples", s.label());
            assert_eq!(s.errors(), 0, "{}: errored", s.label());
            for r in s.samples() {
                assert!(r.low.bps() <= r.high.bps());
            }
        }
        assert_eq!(samples, series.iter().map(|s| s.len()).sum::<usize>());
        server.join().unwrap().unwrap();
    }

    /// A shutdown request cancels a start whose worker is still idling
    /// toward a future start instant: with path 1 staggered 5 s out and
    /// the flag raised at ~1.5 s, the fleet returns promptly (path 1 is
    /// never measured) instead of sleeping out the stagger and probing
    /// after the signal.
    #[test]
    fn shutdown_cancels_a_dispatched_but_unstarted_measurement() {
        use std::time::{Duration, Instant};

        let rx = Receiver::bind("127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = rx.ctrl_addr();
        let server = thread::spawn(move || rx.serve_n(2));
        let specs: Vec<SocketPathSpec> = (0..2)
            .map(|i| SocketPathSpec {
                label: format!("lo{i}"),
                ctrl_addr: addr,
                cfg: gentle_cfg(),
                rate_cap: Some(Rate::from_mbps(30.0)),
            })
            .collect();
        let sched = ScheduleConfig {
            period: TimeNs::from_secs(10), // stagger puts path 1 at +5 s
            jitter: TimeNs::ZERO,
            max_concurrent: 2,
            seed: 2,
        };
        let stop = ShutdownFlag::new();
        let signal = {
            let stop = stop.clone();
            thread::spawn(move || {
                thread::sleep(Duration::from_millis(1_500));
                stop.request();
            })
        };
        let begun = Instant::now();
        let series = run_socket_fleet_with_telemetry(
            specs,
            &sched,
            &SeriesConfig::default(),
            TimeNs::from_secs(60),
            2,
            &stop,
            None,
            |_| {},
        )
        .unwrap();
        let elapsed = begun.elapsed();
        signal.join().unwrap();
        server.join().unwrap().unwrap();

        // Path 0 measured once (it started immediately); path 1's start
        // was cancelled mid-idle — no sample, no error.
        assert_eq!(series[0].len(), 1, "path 0 measures before the signal");
        assert_eq!(series[1].len(), 0, "path 1 must be cancelled, not measured");
        assert_eq!(series[0].errors() + series[1].errors(), 0);
        assert!(
            elapsed < Duration::from_millis(4_500),
            "shutdown waited out the stagger: {elapsed:?}"
        );
    }

    /// A fleet with an unreachable receiver fails to connect, fatally.
    #[test]
    fn unreachable_receiver_is_a_connect_error() {
        // Bind-and-drop to get a port that is almost surely closed.
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let specs = vec![SocketPathSpec {
            label: "dead".into(),
            ctrl_addr: dead,
            cfg: gentle_cfg(),
            rate_cap: None,
        }];
        let err = run_socket_fleet_with_telemetry(
            specs,
            &ScheduleConfig::default(),
            &SeriesConfig::default(),
            TimeNs::from_secs(1),
            1,
            &ShutdownFlag::new(),
            None,
            |_| {},
        );
        assert!(matches!(err, Err(SlopsError::Transport(_))));
    }
}

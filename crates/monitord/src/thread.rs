//! The thread-backed fleet driver: one blocking transport per path.
//!
//! For transports that block — the simulator shim, the test oracle — the
//! fleet runs as batches of blocking [`slops::Session::run`] calls on the
//! [`slops::runner`] worker pool: the fleet core issues every start it
//! can, the batch executes concurrently (one transport per worker,
//! transports never shared), and completions feed back **one at a time in
//! virtual finish order**, with the core re-polled between feeds. That
//! ordering matters: it is exactly how the in-sim driver observes
//! completions, so a fast path can be rescheduled while a slow path's
//! measurement is still outstanding instead of waiting for the whole
//! batch. Both drivers are pumps over the same sans-IO [`Fleet`], so on
//! independent paths they produce **identical per-path series** for the
//! same seeds — asserted by `tests/fleet_monitoring.rs`.
//!
//! On transports with a virtual clock the schedule is exact. On a
//! wall-clock transport time also passes while a worker waits for its
//! batch, so a start instant may already lie in the past when its job
//! runs; the driver then starts immediately (best effort) — the stagger
//! and cap remain, the precise grid does not.

use crate::fleet::{Fleet, FleetEvent, ShutdownFlag};
use crate::metrics::FleetTelemetry;
use crate::scheduler::ScheduleConfig;
use crate::store::{PathSeries, SeriesConfig};
use slops::runner::run_parallel;
use slops::{Estimate, ProbeTransport, Session, SlopsConfig, SlopsError};
use std::collections::BTreeMap;
use std::sync::Arc;
use telemetry::TraceSink;
use units::TimeNs;

/// One monitored path of a thread-backed fleet.
pub struct ThreadPathSpec {
    /// Label carried into the series and the export layer.
    pub label: String,
    /// Measurement configuration for this path.
    pub cfg: SlopsConfig,
    /// The path's transport. All transports of a fleet must share a time
    /// epoch (`elapsed()` measured from the same origin), since the
    /// scheduler staggers starts on one common timeline.
    pub transport: Box<dyn ProbeTransport + Send>,
}

/// Run a thread-backed monitoring fleet to completion: measure every path
/// periodically (staggered, jittered, capped — see [`ScheduleConfig`])
/// until `horizon` on the transports' clock, using `threads` workers per
/// wave (`0` = one per CPU). Returns the per-path series in path order.
///
/// * **Observer** — every stored sample, failed measurement, and newly
///   flagged change is reported as a [`FleetEvent`] the moment the driver
///   learns of it — what a daemon needs to stream JSONL records while the
///   fleet is still running. Failed measurements are counted on the
///   path's series ([`PathSeries::errors`]) and monitoring continues.
/// * **Shutdown** — when `stop` is requested (from a signal handler,
///   another thread, or the observer itself), the scheduler stops issuing
///   new starts, measurements already *probing* complete and are recorded
///   normally, and the function returns the series collected so far. A
///   start that was already handed to a worker but is still idling toward
///   its start instant is cancelled without being measured (neither a
///   sample nor an error), so shutdown latency is bounded by the longest
///   measurement in flight, not by the schedule period.
/// * **Telemetry** — with a [`FleetTelemetry`] hub, per-path machine
///   trace events are forwarded to the hub's sinks (the driver only
///   relays — every event is minted by the sans-IO machine) and the
///   scheduler gauges are mirrored after every feed, so a scrape mid-run
///   sees live values.
#[allow(clippy::too_many_arguments)]
pub fn run_fleet_with_telemetry(
    paths: Vec<ThreadPathSpec>,
    sched_cfg: &ScheduleConfig,
    series_cfg: &SeriesConfig,
    horizon: TimeNs,
    threads: usize,
    stop: &ShutdownFlag,
    telemetry: Option<&FleetTelemetry>,
    mut observer: impl FnMut(FleetEvent<'_>),
) -> Result<Vec<PathSeries>, SlopsError> {
    // The fleet epoch: the latest transport clock (all at 0 for fresh
    // transports; equal by construction for warmed simulator shims).
    let t0 = paths
        .iter()
        .map(|p| p.transport.elapsed())
        .max()
        .unwrap_or(TimeNs::ZERO);
    let mut fleet = Fleet::new(
        paths.iter().map(|p| (p.label.as_str(), &p.cfg)),
        t0,
        horizon,
        sched_cfg,
        series_cfg,
    )?;
    if let Some(t) = telemetry {
        fleet.attach_telemetry(t);
    }
    // One machine-trace sink per path; the sink travels to the worker
    // inside the (cheaply cloned) Session.
    let sinks: Option<Vec<Arc<dyn TraceSink>>> =
        telemetry.map(|t| paths.iter().map(|p| t.trace_sink(&p.label)).collect());
    let (cfgs, mut transports): (Vec<SlopsConfig>, Vec<_>) = paths
        .into_iter()
        .map(|p| (p.cfg, Some(p.transport)))
        .unzip();

    // Completions executed but not yet fed to the fleet, keyed by the
    // tick boundary at which a tick-granular driver would learn of them
    // (ties broken by path id), carrying `(start, exact finish, outcome)`.
    // `None` = the start was cancelled by shutdown before probing began.
    type Outcome = Option<Result<Estimate, SlopsError>>;
    let mut unfed: BTreeMap<(TimeNs, usize), (TimeNs, TimeNs, Outcome)> = BTreeMap::new();
    // Latest fleet-clock instant the driver has learned of (via fed
    // completion ticks); what the backlog gauge is evaluated at.
    let mut fleet_now = t0;
    loop {
        fleet.apply_stop(stop);
        // Issue every start the fleet can decide with what it knows.
        let mut batch: Vec<(usize, TimeNs)> = Vec::new();
        while let Some(start) = fleet.next_start() {
            batch.push(start);
        }
        if batch.is_empty() && unfed.is_empty() {
            debug_assert!(fleet.scheduler().is_done(), "blocked with nothing running");
            break;
        }
        // Execute the new starts concurrently: one path per job, the
        // transport travels to the worker and back. (A wall-clock
        // transport may already be past `at`; it then starts at once.)
        let jobs: Vec<_> = batch
            .into_iter()
            .map(|(p, at)| {
                let mut transport = transports[p].take().expect("path measured twice at once");
                let mut session = Session::new(cfgs[p].clone());
                if let Some(sinks) = &sinks {
                    session = session.with_trace_sink(Arc::clone(&sinks[p]));
                }
                let stop = stop.clone();
                move |_idx: usize| {
                    // Idle toward `at` in short chunks so a shutdown
                    // request cancels a start that has not begun probing
                    // yet (a worker sleeping toward a start minutes away
                    // must not outlive the signal by those minutes). The
                    // chunks sum to exactly the single idle they replace,
                    // so virtual-clock transports stay bit-identical.
                    const IDLE_CHUNK: TimeNs = TimeNs::from_millis(50);
                    let cancelled = loop {
                        let now = transport.elapsed();
                        if now >= at {
                            break false;
                        }
                        if stop.is_requested() {
                            break true;
                        }
                        transport.idle(IDLE_CHUNK.min(at - now));
                    };
                    let outcome = if cancelled {
                        None
                    } else {
                        Some(session.run(transport.as_mut()))
                    };
                    let finished = transport.elapsed();
                    (p, at, outcome, finished, transport)
                }
            })
            .collect();
        for (p, at, outcome, finished, transport) in run_parallel(jobs, threads) {
            transports[p] = Some(transport);
            let tick = fleet.scheduler().tick_boundary(finished);
            unfed.insert((tick, p), (at, finished, outcome));
        }
        // Feed ONLY the earliest tick's completions, then re-poll: the
        // scheduler must learn completions in the same tick-granular
        // groups — with the same paths still marked running in between —
        // as the in-sim driver harvests them, or the two schedules
        // diverge (e.g. when a measurement overruns its period, the fast
        // path must be rescheduled while the slow one is still running).
        if let Some(&(tick, _)) = unfed.keys().next() {
            fleet_now = fleet_now.max(tick);
            while let Some(entry) = unfed.first_entry() {
                if entry.key().0 != tick {
                    break;
                }
                let (_, p) = *entry.key();
                match entry.remove() {
                    (at, finished, Some(outcome)) => {
                        fleet.complete(p, at, outcome, finished, &mut observer)
                    }
                    (_, finished, None) => fleet.cancel(p, finished),
                }
            }
        }
        fleet.observe(fleet_now);
    }
    fleet.observe(fleet_now);
    Ok(fleet.into_series())
}

#[cfg(test)]
mod tests {
    use super::*;
    use slops::series::RangeSample;
    use slops::testutil::OracleTransport;
    use units::Rate;

    /// `run_fleet_with_telemetry` without a hub.
    fn run(
        paths: Vec<ThreadPathSpec>,
        sched: &ScheduleConfig,
        horizon: TimeNs,
        threads: usize,
        stop: &ShutdownFlag,
        observer: impl FnMut(FleetEvent<'_>),
    ) -> Result<Vec<PathSeries>, SlopsError> {
        let series = SeriesConfig::default();
        run_fleet_with_telemetry(
            paths, sched, &series, horizon, threads, stop, None, observer,
        )
    }

    fn oracle_fleet(n: usize) -> Vec<ThreadPathSpec> {
        (0..n)
            .map(|i| ThreadPathSpec {
                label: format!("p{i}"),
                cfg: SlopsConfig::default(),
                transport: Box::new(OracleTransport::new(
                    Rate::from_mbps(20.0 + 10.0 * i as f64),
                    i as u64,
                )),
            })
            .collect()
    }

    #[test]
    fn oracle_fleet_converges_per_path() {
        let sched = ScheduleConfig {
            period: TimeNs::from_secs(30),
            jitter: TimeNs::from_secs(2),
            max_concurrent: 2,
            seed: 7,
        };
        let series = run(
            oracle_fleet(3),
            &sched,
            TimeNs::from_secs(120),
            2,
            &ShutdownFlag::new(),
            |_| {},
        )
        .unwrap();
        assert_eq!(series.len(), 3);
        for (i, s) in series.iter().enumerate() {
            let want = 20.0 + 10.0 * i as f64;
            assert!(s.len() >= 2, "path {i}: {} samples", s.len());
            assert_eq!(s.errors(), 0);
            for r in s.samples() {
                assert!(
                    r.low.mbps() <= want + 1.5 && want - 1.5 <= r.high.mbps(),
                    "path {i}: [{}, {}] vs {want}",
                    r.low,
                    r.high
                );
            }
        }
    }

    #[test]
    fn wave_execution_is_deterministic() {
        let run = |threads: usize| {
            let sched = ScheduleConfig {
                period: TimeNs::from_secs(20),
                jitter: TimeNs::from_secs(1),
                max_concurrent: 0,
                seed: 3,
            };
            run(
                oracle_fleet(4),
                &sched,
                TimeNs::from_secs(90),
                threads,
                &ShutdownFlag::new(),
                |_| {},
            )
            .unwrap()
            .into_iter()
            .map(|s| s.samples().copied().collect::<Vec<_>>())
            .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(4), "worker count changed the series");
    }

    #[test]
    fn observer_sees_every_stored_sample_in_feed_order() {
        let sched = ScheduleConfig {
            period: TimeNs::from_secs(25),
            jitter: TimeNs::from_secs(1),
            max_concurrent: 2,
            seed: 11,
        };
        let mut streamed: Vec<(usize, RangeSample)> = Vec::new();
        let series = run(
            oracle_fleet(3),
            &sched,
            TimeNs::from_secs(100),
            2,
            &ShutdownFlag::new(),
            |ev| {
                if let FleetEvent::Sample { path, sample, .. } = ev {
                    streamed.push((path, sample));
                }
            },
        )
        .unwrap();
        let stored: usize = series.iter().map(|s| s.len()).sum();
        assert_eq!(streamed.len(), stored, "observer missed samples");
        // Per path, the streamed samples are exactly the stored series.
        for (p, s) in series.iter().enumerate() {
            let mine: Vec<RangeSample> = streamed
                .iter()
                .filter(|(q, _)| *q == p)
                .map(|&(_, r)| r)
                .collect();
            let kept: Vec<RangeSample> = s.samples().copied().collect();
            assert_eq!(mine, kept, "path {p} diverged");
        }
    }

    #[test]
    fn preset_shutdown_flag_stops_before_any_measurement() {
        let stop = ShutdownFlag::new();
        stop.request();
        assert!(stop.is_requested());
        let series = run(
            oracle_fleet(2),
            &ScheduleConfig::default(),
            TimeNs::from_secs(600),
            1,
            &stop,
            |_| panic!("no event may fire after shutdown was requested"),
        )
        .unwrap();
        assert_eq!(series.len(), 2, "series are still returned per path");
        assert!(series.iter().all(|s| s.is_empty()), "no starts issued");
    }

    #[test]
    fn shutdown_mid_run_flushes_what_was_collected() {
        let sched = ScheduleConfig {
            period: TimeNs::from_secs(10),
            jitter: TimeNs::ZERO,
            max_concurrent: 1,
            seed: 5,
        };
        // A long horizon that would yield dozens of samples; the flag is
        // raised by the observer at the first sample, so the run ends
        // after at most the already-started wave.
        let stop = ShutdownFlag::new();
        let handle = stop.clone();
        let mut streamed = 0usize;
        let series = run(
            oracle_fleet(2),
            &sched,
            TimeNs::from_secs(10_000),
            1,
            &stop,
            |ev| {
                if matches!(ev, FleetEvent::Sample { .. }) {
                    streamed += 1;
                    handle.request();
                }
            },
        )
        .unwrap();
        let stored: usize = series.iter().map(|s| s.len()).sum();
        assert_eq!(stored, streamed, "flushed series match streamed events");
        assert!(stored >= 1, "the in-flight measurement was recorded");
        assert!(
            stored <= 2,
            "only the wave in flight at shutdown may land, got {stored}"
        );
    }

    /// The telemetry budget as an op count: once every path of a
    /// hub-attached fleet has been instrumented and the scheduler gauges
    /// resolved, estimates go through handles only — no registry lookup
    /// (lock, key allocation, search of every series) per estimate.
    #[test]
    fn steady_state_estimates_take_no_registry_lookups() {
        const N: usize = 256;
        let paths = (0..N)
            .map(|i| ThreadPathSpec {
                label: format!("o{i}"),
                cfg: SlopsConfig::default(),
                transport: Box::new(OracleTransport::new(
                    Rate::from_mbps(10.0 + (i % 50) as f64),
                    i as u64,
                )),
            })
            .collect();
        let sched = ScheduleConfig {
            period: TimeNs::from_secs(60),
            jitter: TimeNs::from_secs(10),
            max_concurrent: 0,
            seed: 9,
        };
        let tele = FleetTelemetry::new();
        let stop = ShutdownFlag::new();
        let (mut samples, mut after_first_wave) = (0usize, None);
        run_fleet_with_telemetry(
            paths,
            &sched,
            &SeriesConfig::default(),
            TimeNs::from_secs(1_000_000),
            1,
            &stop,
            Some(&tele),
            |ev| {
                assert!(!matches!(ev, FleetEvent::Failed { .. }), "{ev:?}");
                if matches!(ev, FleetEvent::Sample { .. }) {
                    samples += 1;
                    if samples == N {
                        after_first_wave = Some(tele.registry().lookups());
                    }
                    if samples == 2 * N {
                        stop.request();
                    }
                }
            },
        )
        .unwrap();
        assert!(samples >= 2 * N, "{samples} samples");
        let steady = after_first_wave.expect("the first wave landed");
        assert_eq!(
            tele.registry().lookups(),
            steady,
            "{} estimates after the first wave looked metrics up",
            samples - N
        );
    }

    #[test]
    fn bad_config_rejected_up_front() {
        let mut paths = oracle_fleet(1);
        paths[0].cfg.fleet_fraction = 0.1;
        let err = run(
            paths,
            &ScheduleConfig::default(),
            TimeNs::from_secs(10),
            1,
            &ShutdownFlag::new(),
            |_| {},
        );
        assert!(matches!(err, Err(SlopsError::BadConfig(_))));
    }
}

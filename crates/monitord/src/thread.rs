//! The thread-backed fleet driver: one blocking transport per path.
//!
//! For transports that block — real sockets (`pathload-net`), the
//! simulator shim, the test oracle — the fleet runs as batches of blocking
//! [`slops::Session::run`] calls on the [`slops::runner`] worker pool: the
//! scheduler issues every start it can, the batch executes concurrently
//! (one transport per worker, transports never shared), and completions
//! feed back **one at a time in virtual finish order**, with the scheduler
//! re-polled between feeds. That ordering matters: it is exactly how the
//! in-sim driver observes completions, so a fast path can be rescheduled
//! while a slow path's measurement is still outstanding instead of
//! waiting for the whole batch. Both drivers take decisions from the same
//! sans-IO [`Scheduler`], so on independent paths they produce
//! **identical per-path series** for the same seeds — asserted by
//! `tests/fleet_monitoring.rs`.
//!
//! On transports with a virtual clock the schedule is exact. On
//! wall-clock transports (real sockets) time also passes while a worker
//! waits for its batch, so a start instant may already lie in the past
//! when its job runs; the driver then starts immediately (best effort) —
//! the stagger and cap remain, the precise grid does not.

use crate::metrics::FleetTelemetry;
use crate::scheduler::{PathId, Poll, ScheduleConfig, Scheduler};
use crate::store::{ChangeCursor, ChangeEvent, PathSeries, SeriesConfig};
use slops::runner::run_parallel;
use slops::series::RangeSample;
use slops::{Estimate, ProbeTransport, Session, SlopsConfig, SlopsError};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use telemetry::TraceSink;
use units::TimeNs;

/// A cooperative stop signal for a running fleet (graceful shutdown).
///
/// Clone it freely: all clones share one flag. Once requested, the fleet
/// driver stops issuing new scheduler starts ([`Scheduler::shutdown`]),
/// lets in-flight measurements complete and be recorded, and returns the
/// per-path series collected so far — which is what a daemon flushes as
/// summaries on SIGINT/SIGTERM. Requesting shutdown is idempotent and
/// cannot be undone.
#[derive(Clone, Debug, Default)]
pub struct ShutdownFlag(Arc<AtomicBool>);

impl ShutdownFlag {
    /// A fresh, un-requested flag.
    pub fn new() -> ShutdownFlag {
        ShutdownFlag::default()
    }

    /// Request shutdown (idempotent; callable from any thread, e.g. a
    /// signal watcher).
    pub fn request(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Has shutdown been requested?
    pub fn is_requested(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

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

/// A live notification from a running fleet, streamed to the observer of
/// [`run_fleet_with_telemetry`] (and of the socket drivers built on the
/// same completion path) as completions are fed to the scheduler, in the
/// same tick-granular order the series are built in.
#[derive(Debug)]
pub enum FleetEvent<'a> {
    /// A measurement finished; `sample` was just appended to the path's
    /// series.
    Sample {
        /// Index of the path within the fleet.
        path: usize,
        /// The path's label.
        label: &'a str,
        /// The stored range sample.
        sample: RangeSample,
    },
    /// A measurement failed; the error was counted on the path's series
    /// and monitoring continues.
    Failed {
        /// Index of the path within the fleet.
        path: usize,
        /// The path's label.
        label: &'a str,
        /// What went wrong.
        error: &'a SlopsError,
    },
    /// The change detector flagged a new windowed-range shift on a path.
    ///
    /// Best-effort live signal: a change is emitted when it first becomes
    /// visible, but later samples landing in the same window can still
    /// widen its envelope. The authoritative list is
    /// [`PathSeries::changes`] once the run is over.
    Change {
        /// Index of the path within the fleet.
        path: usize,
        /// The path's label.
        label: &'a str,
        /// The flagged change.
        change: ChangeEvent,
    },
}

/// Fold one finished measurement into its path's series and tell the
/// observer: a stored sample (plus every change the detector newly
/// flags), or a counted failure. The one completion path of every fleet
/// driver that measures over transports — the thread driver's feed loop
/// and the event-loop driver call it with the same arguments, so their
/// series and event streams cannot drift apart.
pub(crate) fn record_outcome(
    path: usize,
    at: TimeNs,
    outcome: Result<Estimate, SlopsError>,
    series: &mut PathSeries,
    cursor: &mut ChangeCursor,
    observer: &mut impl FnMut(FleetEvent<'_>),
) {
    match outcome {
        Ok(est) => {
            let sample = RangeSample::from_estimate(at, &est);
            series.push(sample);
            observer(FleetEvent::Sample {
                path,
                label: series.label(),
                sample,
            });
            let changes = series.changes();
            for change in cursor.fresh(&changes) {
                observer(FleetEvent::Change {
                    path,
                    label: series.label(),
                    change: *change,
                });
            }
        }
        Err(error) => {
            series.record_error();
            observer(FleetEvent::Failed {
                path,
                label: series.label(),
                error: &error,
            });
        }
    }
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
///   scheduler's deterministic accessors are mirrored into its gauges
///   after every feed, so a scrape mid-run sees live values.
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
    assert!(!paths.is_empty(), "a fleet needs at least one path");
    for p in &paths {
        p.cfg.validate().map_err(SlopsError::BadConfig)?;
    }
    // The fleet epoch: the latest transport clock (all at 0 for fresh
    // transports; equal by construction for warmed simulator shims).
    let t0 = paths
        .iter()
        .map(|p| p.transport.elapsed())
        .max()
        .expect("non-empty fleet");
    let mut sched = Scheduler::new(paths.len(), t0, horizon, sched_cfg);
    let mut series: Vec<PathSeries> = paths
        .iter()
        .map(|p| PathSeries::new(p.label.clone(), series_cfg, t0))
        .collect();
    // One machine-trace sink per path; the sink travels to the worker
    // inside the (cheaply cloned) Session.
    let sinks: Option<Vec<Arc<dyn TraceSink>>> =
        telemetry.map(|t| paths.iter().map(|p| t.trace_sink(&p.label)).collect());
    let mut cfgs: Vec<SlopsConfig> = Vec::with_capacity(paths.len());
    let mut transports: Vec<Option<Box<dyn ProbeTransport + Send>>> = Vec::new();
    for p in paths {
        cfgs.push(p.cfg);
        transports.push(Some(p.transport));
    }

    // Changes already reported per path, so the observer only sees each
    // flagged change once (instant-keyed: eviction may shrink the list).
    let mut change_cursors = vec![ChangeCursor::new(); series.len()];

    // Completions executed but not yet fed to the scheduler, keyed by the
    // tick boundary at which a tick-granular driver would learn of them
    // (ties broken by path id), carrying `(start, exact finish, outcome)`.
    // `None` = the start was cancelled by shutdown before probing began:
    // the scheduler still learns the completion, the series record
    // nothing.
    type Outcome = Option<Result<Estimate, SlopsError>>;
    let mut unfed: BTreeMap<(TimeNs, usize), (TimeNs, TimeNs, Outcome)> = BTreeMap::new();
    // Latest fleet-clock instant the driver has learned of (via fed
    // completion ticks); what the backlog gauge is evaluated at.
    let mut fleet_now = t0;
    loop {
        // Graceful shutdown: the stop decision itself belongs to the
        // scheduler (it finishes idle paths, waits out running ones).
        if stop.is_requested() {
            sched.shutdown();
        }
        // Issue every start the scheduler can decide with what it knows.
        let mut batch: Vec<(usize, TimeNs)> = Vec::new();
        while let Poll::Start { path, at } = sched.poll() {
            batch.push((path.0 as usize, at));
        }
        if batch.is_empty() && unfed.is_empty() {
            debug_assert!(sched.is_done(), "blocked with nothing running");
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
            unfed.insert((sched.tick_boundary(finished), p), (at, finished, outcome));
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
                let (at, finished, outcome) = entry.remove();
                // `None`: cancelled by shutdown before probing began —
                // not a sample, not an error, the path simply was not
                // measured.
                if let Some(outcome) = outcome {
                    record_outcome(
                        p,
                        at,
                        outcome,
                        &mut series[p],
                        &mut change_cursors[p],
                        &mut observer,
                    );
                }
                sched.on_complete(PathId(p as u32), finished);
            }
        }
        if let Some(t) = telemetry {
            t.observe_scheduler(&sched, fleet_now);
        }
    }
    if let Some(t) = telemetry {
        t.observe_scheduler(&sched, fleet_now);
    }
    Ok(series)
}

#[cfg(test)]
mod tests {
    use super::*;
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

//! The fleet core: everything a fleet driver decides *about* a path's
//! measurements, with no substrate attached.
//!
//! [`Fleet`] is sans-IO, like the [`Scheduler`] it owns. The in-sim
//! ([`crate::sim`]), thread ([`crate::thread`]) and socket
//! ([`crate::evented`]) drivers are pumps over it: each takes its starts
//! from [`Fleet::next_start`], realizes them on its substrate and hands
//! every outcome back through [`Fleet::complete`] — or [`Fleet::cancel`]
//! for a start that never began probing. Config validation, the per-path
//! [`PathSeries`] and [`ChangeCursor`]s, shutdown, the [`FleetEvent`]
//! stream and the scheduler gauges are decided here, once, so the drivers'
//! series and event streams cannot drift apart.

use crate::metrics::{FleetTelemetry, SchedulerGauges};
use crate::scheduler::{PathId, Poll, ScheduleConfig, Scheduler};
use crate::store::{ChangeCursor, ChangeEvent, PathSeries, SeriesConfig};
use slops::series::RangeSample;
use slops::{Estimate, SlopsConfig, SlopsError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use units::TimeNs;

/// A cooperative stop signal for a running fleet (graceful shutdown).
///
/// Clone it freely: all clones share one flag. Once requested, the fleet
/// stops issuing new scheduler starts ([`Scheduler::shutdown`]), lets
/// in-flight measurements complete and be recorded, and its driver
/// returns the per-path series collected so far — which is what a daemon
/// flushes as summaries on SIGINT/SIGTERM. Requesting shutdown is
/// idempotent and cannot be undone.
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

/// A live notification from a running fleet, streamed to the observer of
/// a fleet driver as completions are fed to the scheduler, in the same
/// order the series are built in.
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

/// The sans-IO fleet core. See the module docs.
#[derive(Debug)]
pub struct Fleet {
    sched: Scheduler,
    series: Vec<PathSeries>,
    /// Changes already streamed per path, so the observer sees each
    /// flagged change once (instant-keyed: eviction may shrink the list).
    cursors: Vec<ChangeCursor>,
    stopped: bool,
    gauges: Option<SchedulerGauges>,
}

impl Fleet {
    /// Validate every path's `(label, config)` and build the fleet's
    /// bookkeeping in the same pass: the scheduler (measurements from
    /// `t0`, none starting at or after `horizon`) and one empty series per
    /// path, its window grid anchored at `t0`. An invalid config, or no
    /// path at all, is rejected here, before any start.
    pub fn new<'a>(
        paths: impl IntoIterator<Item = (&'a str, &'a SlopsConfig)>,
        t0: TimeNs,
        horizon: TimeNs,
        sched_cfg: &ScheduleConfig,
        series_cfg: &SeriesConfig,
    ) -> Result<Fleet, SlopsError> {
        let paths = paths.into_iter();
        let mut series = Vec::with_capacity(paths.size_hint().0);
        for (label, cfg) in paths {
            cfg.validate().map_err(SlopsError::BadConfig)?;
            series.push(PathSeries::new(label, series_cfg, t0));
        }
        let n = series.len();
        if n == 0 {
            return Err(no_paths());
        }
        Ok(Fleet {
            sched: Scheduler::new(n, t0, horizon, sched_cfg),
            series,
            cursors: vec![ChangeCursor::new(); n],
            stopped: false,
            gauges: None,
        })
    }

    /// The validation [`Fleet::new`] runs, for a driver that must refuse
    /// a bad config before its fleet epoch exists (the socket driver
    /// checks before it dials, and its epoch starts once every path is
    /// connected).
    pub(crate) fn validate<'a>(
        cfgs: impl IntoIterator<Item = &'a SlopsConfig>,
    ) -> Result<(), SlopsError> {
        let mut n = 0;
        for cfg in cfgs {
            cfg.validate().map_err(SlopsError::BadConfig)?;
            n += 1;
        }
        if n == 0 {
            return Err(no_paths());
        }
        Ok(())
    }

    /// Mirror the scheduler into `tele`'s `scheduler_*` gauges from now
    /// on, on every [`Fleet::observe`]. The gauges are resolved once,
    /// here.
    pub fn attach_telemetry(&mut self, tele: &FleetTelemetry) {
        self.gauges = Some(tele.scheduler_gauges().clone());
    }

    /// Apply a requested shutdown to the scheduler, exactly once: returns
    /// `true` on the call that applied it, so the driver can cancel the
    /// starts it holds that have not begun probing ([`Fleet::cancel`]).
    pub fn apply_stop(&mut self, stop: &ShutdownFlag) -> bool {
        if self.stopped || !stop.is_requested() {
            return false;
        }
        self.stopped = true;
        self.sched.shutdown();
        true
    }

    /// The next start the scheduler can decide with what it knows:
    /// `(path, at)`, each exactly once. `None` when nothing can start
    /// until a running measurement completes, or the fleet is done.
    pub fn next_start(&mut self) -> Option<(usize, TimeNs)> {
        match self.sched.poll() {
            Poll::Start { path, at } => Some((path.0 as usize, at)),
            Poll::Blocked | Poll::Done => None,
        }
    }

    /// Path `path`'s measurement, started at `at`, finished at `finished`
    /// with `outcome`: a stored sample (plus every change the detector
    /// newly flags) or a counted failure, each told to `observer`; then
    /// the scheduler learns of the completion — which may free the next
    /// start.
    pub fn complete(
        &mut self,
        path: usize,
        at: TimeNs,
        outcome: Result<Estimate, SlopsError>,
        finished: TimeNs,
        observer: &mut impl FnMut(FleetEvent<'_>),
    ) {
        if let (Some(series), Some(cursor)) =
            (self.series.get_mut(path), self.cursors.get_mut(path))
        {
            match outcome {
                Ok(est) => {
                    let sample = RangeSample::from_estimate(at, &est);
                    series.push(sample);
                    let label = series.label();
                    observer(FleetEvent::Sample {
                        path,
                        label,
                        sample,
                    });
                    for change in cursor.fresh(&series.changes()) {
                        observer(FleetEvent::Change {
                            path,
                            label,
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
        self.sched.on_complete(PathId(path as u32), finished);
    }

    /// A start of `path` that never began probing (cancelled by shutdown
    /// while it waited for its instant): the scheduler frees the slot at
    /// `now`; the series records neither a sample nor an error.
    pub fn cancel(&mut self, path: usize, now: TimeNs) {
        self.sched.on_complete(PathId(path as u32), now);
    }

    /// Mirror the scheduler's deterministic accessors into the attached
    /// hub's gauges (no-op without one). `now` is the driver's latest
    /// known fleet-clock instant, which the backlog depth is read at.
    pub fn observe(&self, now: TimeNs) {
        if let Some(g) = &self.gauges {
            g.running.set(self.sched.running() as i64);
            g.backlog.set(self.sched.backlog(now) as i64);
            g.started.set(self.sched.started() as i64);
            g.overruns.set(self.sched.overruns() as i64);
        }
    }

    /// The scheduler, read-only (tick grid, progress, counters).
    pub fn scheduler(&self) -> &Scheduler {
        &self.sched
    }

    /// The per-path series, in path order.
    pub fn series(&self) -> &[PathSeries] {
        &self.series
    }

    /// Consume the fleet, returning the per-path series.
    pub fn into_series(self) -> Vec<PathSeries> {
        self.series
    }
}

/// The refusal of a fleet with no path: there is nothing to schedule.
fn no_paths() -> SlopsError {
    SlopsError::BadConfig("a fleet needs at least one path".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use slops::{Termination, TransportError};
    use units::Rate;

    /// A scripted estimate `[lo, hi]` Mb/s that took one second.
    fn est(lo: f64, hi: f64) -> Estimate {
        Estimate {
            low: Rate::from_mbps(lo),
            high: Rate::from_mbps(hi),
            grey: None,
            termination: Termination::Resolution,
            fleets: Vec::new(),
            elapsed: TimeNs::from_secs(1),
        }
    }

    fn fleet(n: usize, sched: ScheduleConfig, series: SeriesConfig) -> Fleet {
        let cfg = SlopsConfig::default();
        let labels: Vec<String> = (0..n).map(|i| format!("p{i}")).collect();
        Fleet::new(
            labels.iter().map(|l| (l.as_str(), &cfg)),
            TimeNs::ZERO,
            TimeNs::from_secs(1000),
            &sched,
            &series,
        )
        .unwrap()
    }

    fn every(period_s: u64, cap: usize) -> ScheduleConfig {
        ScheduleConfig {
            period: TimeNs::from_secs(period_s),
            jitter: TimeNs::ZERO,
            max_concurrent: cap,
            seed: 1,
        }
    }

    /// What an observer was told, owned.
    #[derive(Debug, PartialEq)]
    enum Told {
        Sample(usize, TimeNs),
        Failed(usize),
        Change(usize, TimeNs),
    }

    fn tell(log: &mut Vec<Told>) -> impl FnMut(FleetEvent<'_>) + '_ {
        |ev| {
            log.push(match ev {
                FleetEvent::Sample { path, sample, .. } => Told::Sample(path, sample.started),
                FleetEvent::Failed { path, .. } => Told::Failed(path),
                FleetEvent::Change { path, change, .. } => Told::Change(path, change.at),
            })
        }
    }

    #[test]
    fn a_cancelled_start_records_nothing_and_frees_its_slot() {
        // Cap 1: path 1 waits for path 0's slot.
        let mut f = fleet(2, every(10, 1), SeriesConfig::default());
        assert_eq!(f.next_start(), Some((0, TimeNs::ZERO)));
        assert_eq!(f.next_start(), None, "the one slot is taken");
        f.cancel(0, TimeNs::from_secs(1));
        // Path 1 takes the freed slot at its own staggered due instant.
        assert_eq!(f.next_start(), Some((1, TimeNs::from_secs(5))));
        for s in f.series() {
            assert!(
                s.is_empty(),
                "{}: a cancelled start left a sample",
                s.label()
            );
            assert_eq!(s.errors(), 0, "{}: a cancelled start counted", s.label());
        }
        assert_eq!(f.scheduler().running(), 1);
    }

    #[test]
    fn a_failure_is_counted_and_streamed_as_failed() {
        let mut f = fleet(1, every(10, 0), SeriesConfig::default());
        let (p, at) = f.next_start().unwrap();
        let mut log = Vec::new();
        let error = SlopsError::Transport(TransportError::Io("receiver gone".into()));
        f.complete(
            p,
            at,
            Err(error),
            at + TimeNs::from_secs(1),
            &mut tell(&mut log),
        );
        assert_eq!(log, [Told::Failed(0)]);
        assert_eq!(f.series()[0].errors(), 1);
        assert!(f.series()[0].is_empty());
        // Monitoring continues on the schedule.
        assert_eq!(f.next_start(), Some((0, TimeNs::from_secs(10))));
    }

    #[test]
    fn a_change_streams_once_even_after_eviction_shrinks_the_list() {
        let series = SeriesConfig {
            capacity: 2,
            window: TimeNs::from_secs(30),
        };
        let mut f = fleet(1, every(30, 0), series);
        let mut log = Vec::new();
        // [7, 9] then three [3, 4]: one step down, at the 30 s window.
        for (lo, hi) in [(7.0, 9.0), (3.0, 4.0), (3.0, 4.0), (3.0, 4.0)] {
            let (p, at) = f.next_start().unwrap();
            f.complete(
                p,
                at,
                Ok(est(lo, hi)),
                at + TimeNs::from_secs(1),
                &mut tell(&mut log),
            );
        }
        let changes: Vec<&Told> = log
            .iter()
            .filter(|t| matches!(t, Told::Change(..)))
            .collect();
        assert_eq!(changes, [&Told::Change(0, TimeNs::from_secs(30))]);
        assert_eq!(log.len(), 5, "four samples and one change: {log:?}");
        // Premise: eviction took the change's windows with it.
        assert!(f.series()[0].evicted() > 0);
        assert!(f.series()[0].changes().is_empty());
    }

    #[test]
    fn a_stop_mid_run_shuts_down_once_and_cancels_pending_starts() {
        let mut f = fleet(2, every(10, 0), SeriesConfig::default());
        let stop = ShutdownFlag::new();
        assert!(!f.apply_stop(&stop), "nothing requested yet");
        // Path 0 probes from 0 s; path 1's start waits for 5 s.
        assert_eq!(f.next_start(), Some((0, TimeNs::ZERO)));
        assert_eq!(f.next_start(), Some((1, TimeNs::from_secs(5))));
        stop.request();
        assert!(f.apply_stop(&stop), "the first call applies the stop");
        assert!(!f.apply_stop(&stop), "and only the first");
        assert_eq!(f.next_start(), None, "no start after the stop");
        // The driver cancels the pending start; the probing one lands.
        f.cancel(1, TimeNs::from_secs(2));
        let mut log = Vec::new();
        f.complete(
            0,
            TimeNs::ZERO,
            Ok(est(3.0, 4.0)),
            TimeNs::from_secs(3),
            &mut tell(&mut log),
        );
        assert_eq!(log, [Told::Sample(0, TimeNs::ZERO)]);
        assert_eq!(f.next_start(), None);
        assert!(f.scheduler().is_done());
        assert_eq!(f.scheduler().started(), 2);
        assert_eq!((f.series()[0].len(), f.series()[1].len()), (1, 0));
        assert_eq!(f.series()[1].errors(), 0);
    }

    #[test]
    fn a_bad_config_is_rejected_before_any_start() {
        let good = SlopsConfig::default();
        let mut bad = SlopsConfig::default();
        bad.fleet_fraction = 0.1;
        let built = Fleet::new(
            [("good", &good), ("bad", &bad)],
            TimeNs::ZERO,
            TimeNs::from_secs(100),
            &ScheduleConfig::default(),
            &SeriesConfig::default(),
        );
        assert!(matches!(built, Err(SlopsError::BadConfig(_))));
        assert!(matches!(
            Fleet::validate([&good, &bad]),
            Err(SlopsError::BadConfig(_))
        ));
        assert!(Fleet::validate([&good]).is_ok());
        let none = Fleet::new(
            [],
            TimeNs::ZERO,
            TimeNs::from_secs(100),
            &ScheduleConfig::default(),
            &SeriesConfig::default(),
        );
        assert!(matches!(none, Err(SlopsError::BadConfig(_))));
        assert!(matches!(Fleet::validate([]), Err(SlopsError::BadConfig(_))));
    }
}

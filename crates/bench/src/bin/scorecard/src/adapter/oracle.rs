//! The control plane alone: thousands of synthetic `OracleTransport`
//! paths under `monitord::run_fleet_with_telemetry` — no simulator, no
//! sockets, so the session machine, the scheduler, the series store, the
//! export layer and telemetry are all that runs.

use super::{Est, Metered, PathProbeCounters, ProbeCounts, Tally};
use monitord::{
    export, run_fleet_with_telemetry, FleetEvent, FleetTelemetry, ScheduleConfig, SeriesConfig,
    ShutdownFlag, ThreadPathSpec,
};
use slops::testutil::OracleTransport;
use slops::SlopsConfig;
use std::sync::Arc;
use std::time::Instant;
use units::{Rate, TimeNs};

pub const PATHS: usize = 4096;

/// Far enough out that the stop rule, not the scheduler, ends the run.
const HORIZON: TimeNs = TimeNs::from_secs(100_000_000);

/// Path `i`'s known avail-bw: 10…59 Mb/s.
fn truth_mbps(i: usize) -> f64 {
    10.0 + (i % 50) as f64
}

/// When the observer asks the fleet to shut down.
#[derive(Clone, Copy, Debug)]
pub enum StopAfter {
    /// Once this wall-clock instant has passed.
    Deadline(Instant),
    /// Once this many measurements have been observed. Reproducible: the
    /// observer runs on the driver's own thread, between scheduler feeds.
    Samples(u64),
}

/// The paths, schedule and hub of one fleet run (what `setup_s` times).
pub struct OracleFleet {
    specs: Vec<ThreadPathSpec>,
    tally: Arc<Tally>,
    sched: ScheduleConfig,
    tele: FleetTelemetry,
}

#[derive(Debug, Default)]
pub struct OracleRun {
    pub ests: Vec<Est>,
    pub failed: u64,
    /// Samples seen when the stop was requested — replaying the run with
    /// `StopAfter::Samples` of this value reproduces it exactly.
    pub samples_at_stop: u64,
    pub counts: ProbeCounts,
    /// Wall time inside transport calls / inside the observer (traced
    /// passes only).
    pub transport_ns: u64,
    pub observer_ns: u64,
    pub scheduler_overruns: u64,
    pub scheduler_backlog_max: u64,
    /// One `render_prometheus` of the hub's registry at the end.
    pub render_ns: u64,
    pub render_bytes: u64,
}

impl OracleFleet {
    pub fn build(seed: u64, clock: Option<Instant>) -> OracleFleet {
        let tally = Arc::new(Tally::default());
        let specs = (0..PATHS)
            .map(|i| ThreadPathSpec {
                label: format!("o{i}"),
                cfg: SlopsConfig::default(),
                transport: Box::new(Metered::new(
                    OracleTransport::new(
                        Rate::from_mbps(truth_mbps(i)),
                        seed.wrapping_add(i as u64),
                    ),
                    Arc::clone(&tally),
                    clock,
                )),
            })
            .collect();
        OracleFleet {
            specs,
            tally,
            sched: ScheduleConfig {
                period: TimeNs::from_secs(60),
                jitter: TimeNs::from_secs(10),
                max_concurrent: 0,
                seed,
            },
            tele: FleetTelemetry::new(),
        }
    }

    /// Run the fleet on one worker until the stop rule fires and the
    /// measurements in flight have landed. The observer renders every
    /// sample as a JSONL record into memory, like the daemon does.
    /// `with_hub = false` runs the identical fleet without telemetry.
    pub fn run(self, stop_after: StopAfter, with_hub: bool, traced: bool) -> OracleRun {
        let stop = ShutdownFlag::new();
        let mut out = OracleRun::default();
        let cfg = SlopsConfig::default();
        let registry = self.tele.registry().clone();
        let backlog = registry.gauge("scheduler_backlog", &[]);
        let observer = |ev: FleetEvent<'_>| {
            let t_obs = traced.then(Instant::now);
            match ev {
                FleetEvent::Sample {
                    path,
                    label,
                    sample,
                } => {
                    // The daemon's sink, in memory.
                    std::hint::black_box(export::sample_line(path, label, &sample));
                    out.ests.push(Est {
                        path: path as u32,
                        started_ns: sample.started.as_nanos(),
                        latency_ns: sample.duration.as_nanos(),
                        low_bps: sample.low.bps(),
                        high_bps: sample.high.bps(),
                        truth_bps: truth_mbps(path) * 1e6,
                    });
                }
                FleetEvent::Failed { .. } => out.failed += 1,
                FleetEvent::Change { .. } => {}
            }
            out.scheduler_backlog_max = out.scheduler_backlog_max.max(backlog.get().max(0) as u64);
            if !stop.is_requested() {
                let seen = out.ests.len() as u64 + out.failed;
                let due = match stop_after {
                    StopAfter::Deadline(at) => Instant::now() >= at,
                    StopAfter::Samples(n) => seen >= n,
                };
                if due {
                    out.samples_at_stop = seen;
                    stop.request();
                }
            }
            if let Some(t) = t_obs {
                out.observer_ns += t.elapsed().as_nanos() as u64;
            }
        };
        let series = run_fleet_with_telemetry(
            self.specs,
            &self.sched,
            &SeriesConfig::default(),
            HORIZON,
            1,
            &stop,
            with_hub.then_some(&self.tele),
            observer,
        )
        .expect("the default SlopsConfig is valid");
        debug_assert_eq!(
            series.iter().map(|s| s.errors()).sum::<u64>(),
            out.failed,
            "every failure reaches the observer"
        );

        if with_hub {
            // Fleets and terminations are only visible in the hub's trace
            // counters; streams, packets and bytes come from the tally.
            out.counts = series
                .iter()
                .map(|s| PathProbeCounters::resolve(&registry, s.label()).read(&cfg))
                .sum();
            out.scheduler_overruns = registry.gauge("scheduler_overruns", &[]).get().max(0) as u64;
            let t = Instant::now();
            let page = registry.render_prometheus();
            out.render_ns = t.elapsed().as_nanos() as u64;
            out.render_bytes = page.len() as u64;
        }
        out.counts.sessions = out.ests.len() as u64 + out.failed;
        out.counts.streams = self.tally.streams();
        out.counts.probe_pkts = self.tally.pkts();
        out.counts.probe_bytes = self.tally.bytes();
        out.transport_ns = self.tally.busy_ns();
        out
    }
}

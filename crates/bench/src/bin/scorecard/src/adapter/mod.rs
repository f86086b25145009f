//! The only module that calls into the repository's crates.
//!
//! Everything the scorecard measures goes through the functions here, and
//! they hand back plain numbers (`f64` bits per second, `u64`
//! nanoseconds), so the rest of the harness never names a repo type. A
//! refactor of the measured code therefore has exactly one place where the
//! benchmark must keep compiling; `README.md` lists the public items used.
//!
//! Every layer is measured from outside: by timing these calls, by the
//! [`Metered`] decorator on `slops::ProbeTransport`, and by reading the
//! counters the code already exposes (`netsim::EngineStats`,
//! `telemetry::Registry`). Nothing in the measured crates is changed.

mod metered;
pub mod oracle;
pub mod paper;
pub mod probes;
pub mod simfleet;
#[cfg(unix)]
pub mod wire;

pub use metered::{Metered, Tally};
pub use netsim::EngineStats;

use slops::{InitialRate, SlopsConfig, Termination};
use telemetry::{Counter, Registry};

/// One finished measurement, in plain numbers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Est {
    /// Index of the path (or scenario) the measurement ran on.
    pub path: u32,
    /// Start instant on the path's own clock.
    pub started_ns: u64,
    /// Start → `Finish` on the path's own clock: simulated or virtual
    /// nanoseconds, wall nanoseconds on the loopback workload.
    pub latency_ns: u64,
    pub low_bps: f64,
    pub high_bps: f64,
    /// The path's known avail-bw (on loopback: the pacing cap, the most
    /// the tool is allowed to report).
    pub truth_bps: f64,
}

/// What the measurements of a run cost the path, summed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ProbeCounts {
    pub sessions: u64,
    pub fleets: u64,
    pub streams: u64,
    /// Sessions that stopped on the grey-region resolution.
    pub grey_sessions: u64,
    pub probe_pkts: u64,
    /// 0 where only packet counts are observable from outside.
    pub probe_bytes: u64,
}

impl std::ops::Add for ProbeCounts {
    type Output = ProbeCounts;

    fn add(self, o: ProbeCounts) -> ProbeCounts {
        ProbeCounts {
            sessions: self.sessions + o.sessions,
            fleets: self.fleets + o.fleets,
            streams: self.streams + o.streams,
            grey_sessions: self.grey_sessions + o.grey_sessions,
            probe_pkts: self.probe_pkts + o.probe_pkts,
            probe_bytes: self.probe_bytes + o.probe_bytes,
        }
    }
}

impl std::iter::Sum for ProbeCounts {
    fn sum<I: Iterator<Item = ProbeCounts>>(iter: I) -> ProbeCounts {
        iter.fold(ProbeCounts::default(), |a, b| a + b)
    }
}

/// The highest rate the default tool configuration can probe at; no
/// estimate may exceed it.
pub fn default_max_rate_bps() -> f64 {
    SlopsConfig::default().max_rate().bps()
}

/// Handles on one path's machine-minted trace counters as a
/// `monitord::FleetTelemetry` mirrors them (`streams_total`,
/// `fleet_verdicts_total`, `sessions_done_total`), resolved once so that
/// reading them mid-run costs a few atomic loads.
struct PathProbeCounters {
    streams: Vec<Counter>,
    fleets: Vec<Counter>,
    done: Vec<Counter>,
    done_grey: Counter,
}

impl PathProbeCounters {
    fn resolve(reg: &Registry, label: &str) -> PathProbeCounters {
        let family = |name: &str, key: &str, values: &[&str]| -> Vec<Counter> {
            values
                .iter()
                .map(|v| reg.counter(name, &[("path", label), (key, v)]))
                .collect()
        };
        PathProbeCounters {
            streams: family(
                "streams_total",
                "verdict",
                &slops::StreamClass::ALL.map(|c| c.name()),
            ),
            fleets: family(
                "fleet_verdicts_total",
                "verdict",
                &slops::FleetOutcome::ALL.map(|o| o.name()),
            ),
            done: family(
                "sessions_done_total",
                "termination",
                &Termination::ALL.map(|t| t.name()),
            ),
            done_grey: reg.counter(
                "sessions_done_total",
                &[
                    ("path", label),
                    ("termination", Termination::GreyResolution.name()),
                ],
            ),
        }
    }

    /// The path's probe cost so far. Packets follow from the
    /// configuration: every stream is `stream_len` packets and every
    /// session opens with one `InitialRate::Train`.
    fn read(&self, cfg: &SlopsConfig) -> ProbeCounts {
        let sum = |family: &[Counter]| family.iter().map(Counter::get).sum::<u64>();
        let (streams, sessions) = (sum(&self.streams), sum(&self.done));
        let train_len = match cfg.initial {
            InitialRate::Train { len, .. } => len as u64,
            InitialRate::FixedMax(_) => 0,
        };
        ProbeCounts {
            sessions,
            fleets: sum(&self.fleets),
            streams,
            grey_sessions: self.done_grey.get(),
            probe_pkts: streams * cfg.stream_len as u64 + sessions * train_len,
            probe_bytes: 0,
        }
    }
}

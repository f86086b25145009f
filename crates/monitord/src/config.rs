//! The `monitord` daemon configuration: a tiny line-based format.
//!
//! One directive per line, `key value...`; `#` starts a comment. The
//! format is hand-rolled for the same reason the JSONL encoder is: the
//! workspace is offline, records are flat, and a config framework would
//! be its only external dependency.
//!
//! ```text
//! # paths to monitor: `path <label> <host:port> [key=value ...]`
//! # (labels must be unique; addresses need not be — one multi-session
//! # pathload_rcv serves any number of co-located paths on one port)
//! path atl-gru 192.0.2.7:9100
//! path atl-fra 198.51.100.3:9100
//! # per-path probe overrides: a gentle DSL path probed with shorter,
//! # slower streams than the fleet default
//! path atl-dsl 203.0.113.9:9100 stream_len=50 rate_cap_mbps=8 resolution_mbps=0.5
//!
//! period_s 30          # start-to-start spacing per path
//! jitter_s 2           # random addition to each path's initial offset
//! max_concurrent 1     # probe streams in flight at once (0 = unlimited)
//! window_s 300         # tumbling window of the change detector
//! capacity 4096        # ring-buffer samples kept per path (0 = unbounded)
//! horizon_s 3600       # stop issuing measurements after this long
//! out -                # JSONL sink: `-` for stdout, else a file path
//! rate_cap_mbps 80     # pacing ceiling of the sender transports
//! metrics 127.0.0.1:9091  # serve a Prometheus-text snapshot here
//!
//! # probing knobs (defaults are the paper's; override for gentle paths)
//! stream_len 100
//! fleet_len 12
//! min_period_us 100
//! resolution_mbps 1
//! grey_resolution_mbps 2
//! max_fleets 64
//! ```
//!
//! The probing knobs (`stream_len`, `fleet_len`, `min_period_us`,
//! `resolution_mbps`, `grey_resolution_mbps`, `max_fleets`,
//! `rate_cap_mbps`) may also appear as `key=value` fields on an
//! individual `path` line; the override beats the global directive for
//! that path regardless of file order ([`DaemonConfig::probe_for`] /
//! [`DaemonConfig::rate_cap_for`] resolve the merge). Heterogeneous
//! fleets need this: a 100 Mb/s office path and an 8 Mb/s DSL tail can
//! share one config without probing the DSL line at office rates.
//!
//! Unknown keys are errors (they are invariably typos), both as
//! directives and as path overrides, as are missing `path` lines.
//! Parsing does not resolve addresses — the binary resolves each path's
//! `host:port` when it connects, so a config referencing a
//! currently-unresolvable host still parses.

use crate::scheduler::ScheduleConfig;
use crate::store::SeriesConfig;
use core::fmt;
use slops::SlopsConfig;
use units::{Rate, TimeNs};

/// One `path` directive: a label, an unresolved `host:port`, and any
/// per-path probe overrides given as `key=value` fields on the line.
#[derive(Clone, Debug, PartialEq)]
pub struct PathEntry {
    /// Label carried into the series and every JSONL record.
    pub label: String,
    /// The path's `pathload_rcv` control address (resolved at connect).
    pub addr: String,
    /// Per-path probe overrides (fields left `None` inherit the global
    /// probing configuration; see [`DaemonConfig::probe_for`]).
    pub overrides: ProbeOverrides,
}

/// Per-path overrides of the probing knobs, parsed from `key=value`
/// fields on a `path` line. Every field is optional; `None` means
/// "inherit the global directive".
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProbeOverrides {
    /// Overrides the global `stream_len`.
    pub stream_len: Option<u32>,
    /// Overrides the global `fleet_len`.
    pub fleet_len: Option<u32>,
    /// Overrides the global `min_period_us`.
    pub min_period: Option<TimeNs>,
    /// Overrides the global `resolution_mbps`.
    pub resolution: Option<Rate>,
    /// Overrides the global `grey_resolution_mbps`.
    pub grey_resolution: Option<Rate>,
    /// Overrides the global `max_fleets`.
    pub max_fleets: Option<u32>,
    /// Overrides the global `rate_cap_mbps`.
    pub rate_cap: Option<Rate>,
}

impl ProbeOverrides {
    /// True when no field overrides anything.
    pub fn is_empty(&self) -> bool {
        *self == ProbeOverrides::default()
    }

    /// Apply the overrides onto a base probing configuration.
    pub fn apply(&self, base: &SlopsConfig) -> SlopsConfig {
        let mut cfg = base.clone();
        if let Some(v) = self.stream_len {
            cfg.stream_len = v;
        }
        if let Some(v) = self.fleet_len {
            cfg.fleet_len = v;
        }
        if let Some(v) = self.min_period {
            cfg.min_period = v;
        }
        if let Some(v) = self.resolution {
            cfg.resolution = v;
        }
        if let Some(v) = self.grey_resolution {
            cfg.grey_resolution = v;
        }
        if let Some(v) = self.max_fleets {
            cfg.max_fleets = v;
        }
        cfg
    }
}

/// A parsed `monitord` configuration.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// The monitored paths, in file order.
    pub paths: Vec<PathEntry>,
    /// Fleet scheduling knobs (period, jitter, concurrency cap, seed).
    pub schedule: ScheduleConfig,
    /// Per-path series knobs (ring capacity, change-detector window).
    pub series: SeriesConfig,
    /// Stop issuing new measurements this long after the fleet connects.
    pub horizon: TimeNs,
    /// JSONL sink: `None` for stdout, `Some(path)` for a file.
    pub out: Option<String>,
    /// Metrics scrape address (`metrics <host:port>`): serve a
    /// Prometheus-text registry snapshot here for the whole run.
    pub metrics: Option<String>,
    /// Probing configuration applied to every path.
    pub probe: SlopsConfig,
    /// Pacing ceiling of the sender transports, if overridden.
    pub rate_cap: Option<Rate>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            paths: Vec::new(),
            schedule: ScheduleConfig::default(),
            series: SeriesConfig::default(),
            horizon: TimeNs::from_secs(3600),
            out: None,
            metrics: None,
            probe: SlopsConfig::default(),
            rate_cap: None,
        }
    }
}

/// A rejected configuration line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based line number of the offending directive.
    pub line: usize,
    /// What was wrong with it.
    pub msg: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "config line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ConfigError {}

impl DaemonConfig {
    /// Parse a configuration from the line-based format above.
    pub fn parse(text: &str) -> Result<DaemonConfig, ConfigError> {
        let mut cfg = DaemonConfig::default();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let err = |msg: String| ConfigError { line: lineno, msg };
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut tokens = line.split_whitespace();
            let key = tokens.next().expect("non-empty line has a first token");
            let rest: Vec<&str> = tokens.collect();
            let one = || -> Result<&str, ConfigError> {
                match rest.as_slice() {
                    [v] => Ok(v),
                    _ => Err(err(format!("`{key}` wants exactly one value"))),
                }
            };
            match key {
                "path" => match rest.as_slice() {
                    [label, addr, kvs @ ..] => {
                        if cfg.paths.iter().any(|p| p.label == *label) {
                            return Err(err(format!("duplicate path label {label:?}")));
                        }
                        // Duplicate *addresses* are fine: the receiver is
                        // session-multiplexing, so co-located paths share
                        // one `pathload_rcv` control port by design.
                        let overrides = parse_overrides(kvs, lineno)?;
                        cfg.paths.push(PathEntry {
                            label: (*label).to_string(),
                            addr: (*addr).to_string(),
                            overrides,
                        });
                    }
                    _ => {
                        return Err(err(
                            "`path` wants `<label> <host:port> [key=value ...]`".into()
                        ))
                    }
                },
                "period_s" => cfg.schedule.period = secs(key, one()?, lineno)?,
                "jitter_s" => cfg.schedule.jitter = secs(key, one()?, lineno)?,
                "max_concurrent" => cfg.schedule.max_concurrent = int(key, one()?, lineno)?,
                "seed" => cfg.schedule.seed = int(key, one()?, lineno)?,
                "window_s" => cfg.series.window = secs(key, one()?, lineno)?,
                "capacity" => cfg.series.capacity = int(key, one()?, lineno)?,
                "horizon_s" => cfg.horizon = secs(key, one()?, lineno)?,
                "out" => {
                    let v = one()?;
                    cfg.out = if v == "-" { None } else { Some(v.to_string()) };
                }
                "rate_cap_mbps" => {
                    cfg.rate_cap = Some(Rate::from_mbps(float(key, one()?, lineno)?))
                }
                "metrics" => cfg.metrics = Some(one()?.to_string()),
                "stream_len" => cfg.probe.stream_len = int(key, one()?, lineno)?,
                "fleet_len" => cfg.probe.fleet_len = int(key, one()?, lineno)?,
                "min_period_us" => {
                    cfg.probe.min_period = TimeNs::from_micros(int(key, one()?, lineno)?)
                }
                "resolution_mbps" => {
                    cfg.probe.resolution = Rate::from_mbps(float(key, one()?, lineno)?)
                }
                "grey_resolution_mbps" => {
                    cfg.probe.grey_resolution = Rate::from_mbps(float(key, one()?, lineno)?)
                }
                "max_fleets" => cfg.probe.max_fleets = int(key, one()?, lineno)?,
                other => return Err(err(format!("unknown directive `{other}`"))),
            }
        }
        if cfg.paths.is_empty() {
            return Err(ConfigError {
                line: 0,
                msg: "no `path` directives: nothing to monitor".into(),
            });
        }
        if cfg.horizon.is_zero() {
            return Err(ConfigError {
                line: 0,
                msg: "horizon_s must be positive".into(),
            });
        }
        cfg.probe.validate().map_err(|msg| ConfigError {
            line: 0,
            msg: format!("probing configuration rejected: {msg}"),
        })?;
        // Each path's *merged* configuration must also validate — an
        // override can individually break an otherwise-sane global.
        for p in &cfg.paths {
            cfg.probe_for(p).validate().map_err(|msg| ConfigError {
                line: 0,
                msg: format!("path {}: probing configuration rejected: {msg}", p.label),
            })?;
        }
        Ok(cfg)
    }

    /// The effective probing configuration of one path: the global
    /// `probe` directives with the path's `key=value` overrides applied
    /// (overrides win regardless of file order).
    pub fn probe_for(&self, entry: &PathEntry) -> SlopsConfig {
        entry.overrides.apply(&self.probe)
    }

    /// The effective pacing cap of one path: the per-path
    /// `rate_cap_mbps=` override if present, else the global directive.
    pub fn rate_cap_for(&self, entry: &PathEntry) -> Option<Rate> {
        entry.overrides.rate_cap.or(self.rate_cap)
    }
}

/// Parse the `key=value` override fields of one `path` line. Unknown
/// keys and malformed values are line-numbered errors, like directives.
fn parse_overrides(kvs: &[&str], line: usize) -> Result<ProbeOverrides, ConfigError> {
    let mut o = ProbeOverrides::default();
    for kv in kvs {
        let err = |msg: String| ConfigError { line, msg };
        let Some((key, value)) = kv.split_once('=') else {
            return Err(err(format!("path override `{kv}` wants `key=value`")));
        };
        match key {
            "stream_len" => o.stream_len = Some(int(key, value, line)?),
            "fleet_len" => o.fleet_len = Some(int(key, value, line)?),
            "min_period_us" => o.min_period = Some(TimeNs::from_micros(int(key, value, line)?)),
            "resolution_mbps" => o.resolution = Some(Rate::from_mbps(float(key, value, line)?)),
            "grey_resolution_mbps" => {
                o.grey_resolution = Some(Rate::from_mbps(float(key, value, line)?))
            }
            "max_fleets" => o.max_fleets = Some(int(key, value, line)?),
            "rate_cap_mbps" => o.rate_cap = Some(Rate::from_mbps(float(key, value, line)?)),
            other => return Err(err(format!("unknown path override `{other}`"))),
        }
    }
    Ok(o)
}

fn float(key: &str, v: &str, line: usize) -> Result<f64, ConfigError> {
    match v.parse::<f64>() {
        Ok(x) if x.is_finite() && x >= 0.0 => Ok(x),
        _ => Err(ConfigError {
            line,
            msg: format!("`{key}` wants a non-negative number, got {v:?}"),
        }),
    }
}

fn secs(key: &str, v: &str, line: usize) -> Result<TimeNs, ConfigError> {
    Ok(TimeNs::from_secs_f64(float(key, v, line)?))
}

fn int<T: TryFrom<u64>>(key: &str, v: &str, line: usize) -> Result<T, ConfigError> {
    v.parse::<u64>()
        .ok()
        .and_then(|x| T::try_from(x).ok())
        .ok_or_else(|| ConfigError {
            line,
            msg: format!("`{key}` wants a non-negative integer, got {v:?}"),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "\
# a fleet of two
path a 127.0.0.1:9100   # trailing comment
path b 127.0.0.1:9101

period_s 12.5
jitter_s 0.5
max_concurrent 2
seed 99
window_s 60
capacity 128
horizon_s 120
out /tmp/fleet.jsonl
rate_cap_mbps 40
stream_len 50
min_period_us 500
resolution_mbps 4
grey_resolution_mbps 8
max_fleets 16
";

    #[test]
    fn full_config_round_trips() {
        let cfg = DaemonConfig::parse(GOOD).unwrap();
        assert_eq!(cfg.paths.len(), 2);
        assert_eq!(cfg.paths[0].label, "a");
        assert_eq!(cfg.paths[1].addr, "127.0.0.1:9101");
        assert_eq!(cfg.schedule.period, TimeNs::from_secs_f64(12.5));
        assert_eq!(cfg.schedule.jitter, TimeNs::from_secs_f64(0.5));
        assert_eq!(cfg.schedule.max_concurrent, 2);
        assert_eq!(cfg.schedule.seed, 99);
        assert_eq!(cfg.series.window, TimeNs::from_secs(60));
        assert_eq!(cfg.series.capacity, 128);
        assert_eq!(cfg.horizon, TimeNs::from_secs(120));
        assert_eq!(cfg.out.as_deref(), Some("/tmp/fleet.jsonl"));
        assert_eq!(cfg.rate_cap.unwrap().mbps(), 40.0);
        assert_eq!(cfg.probe.stream_len, 50);
        assert_eq!(cfg.probe.min_period, TimeNs::from_micros(500));
        assert_eq!(cfg.probe.max_fleets, 16);
    }

    #[test]
    fn defaults_fill_the_gaps() {
        let cfg = DaemonConfig::parse("path p 10.0.0.1:9100\n").unwrap();
        assert_eq!(cfg.schedule.period, ScheduleConfig::default().period);
        assert_eq!(cfg.horizon, TimeNs::from_secs(3600));
        assert!(cfg.out.is_none());
        assert!(cfg.rate_cap.is_none());
    }

    #[test]
    fn out_dash_means_stdout() {
        let cfg = DaemonConfig::parse("path p 10.0.0.1:9100\nout -\n").unwrap();
        assert!(cfg.out.is_none());
    }

    #[test]
    fn metrics_directive_sets_the_scrape_address() {
        let cfg = DaemonConfig::parse("path p 10.0.0.1:9100\nmetrics 127.0.0.1:9091\n").unwrap();
        assert_eq!(cfg.metrics.as_deref(), Some("127.0.0.1:9091"));
        let cfg = DaemonConfig::parse("path p 10.0.0.1:9100\n").unwrap();
        assert!(cfg.metrics.is_none());
    }

    #[test]
    fn bad_lines_are_rejected_with_position() {
        for (text, needle) in [
            ("path p 1.2.3.4:9100\nbogus 3\n", "unknown directive"),
            ("path p\n", "`path` wants"),
            (
                "path p 1.2.3.4:1\npath p 1.2.3.4:2\n",
                "duplicate path label",
            ),
            ("path p 1.2.3.4:1\nperiod_s fast\n", "non-negative number"),
            ("path p 1.2.3.4:1\ncapacity -2\n", "non-negative integer"),
            // Not a key: the socket fleet driver runs on one thread.
            (
                "path p 1.2.3.4:1\nthreads 3\n",
                "unknown directive `threads`",
            ),
            ("path p 1.2.3.4:1\nperiod_s 1 2\n", "exactly one value"),
            ("", "no `path` directives"),
            (
                "path p 1.2.3.4:1\nhorizon_s 0\n",
                "horizon_s must be positive",
            ),
        ] {
            let err = DaemonConfig::parse(text).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "{text:?} => {err} (wanted {needle:?})"
            );
        }
        // The error names the offending line.
        let err = DaemonConfig::parse("path p 1.2.3.4:9100\n\nbogus 3\n").unwrap_err();
        assert_eq!(err.line, 3);
    }

    /// The receiver is session-multiplexing, so paths sharing one
    /// `pathload_rcv` address is the intended co-located deployment and
    /// must parse (duplicate *labels* stay an error).
    #[test]
    fn shared_receiver_address_is_allowed() {
        let cfg = DaemonConfig::parse("path a 192.0.2.7:9100\npath b 192.0.2.7:9100\n").unwrap();
        assert_eq!(cfg.paths.len(), 2);
        assert_eq!(cfg.paths[0].addr, cfg.paths[1].addr);
    }

    #[test]
    fn invalid_probe_config_is_rejected() {
        let err = DaemonConfig::parse("path p 1.2.3.4:1\nstream_len 0\n").unwrap_err();
        assert!(err.to_string().contains("probing configuration rejected"));
    }

    /// `key=value` fields on a `path` line override the global probing
    /// knobs for that path only — regardless of where in the file the
    /// global directive appears.
    #[test]
    fn per_path_overrides_beat_globals_regardless_of_order() {
        let cfg = DaemonConfig::parse(
            "path fat 10.0.0.1:9100\n\
             path dsl 10.0.0.2:9100 stream_len=40 rate_cap_mbps=8 min_period_us=900 resolution_mbps=0.5\n\
             stream_len 100\n\
             rate_cap_mbps 80\n",
        )
        .unwrap();
        assert!(cfg.paths[0].overrides.is_empty());
        // The untouched path inherits every global.
        let fat = cfg.probe_for(&cfg.paths[0]);
        assert_eq!(fat.stream_len, 100);
        assert_eq!(cfg.rate_cap_for(&cfg.paths[0]).unwrap().mbps(), 80.0);
        // The overridden path wins over the later global directives.
        let dsl = cfg.probe_for(&cfg.paths[1]);
        assert_eq!(dsl.stream_len, 40);
        assert_eq!(dsl.min_period, TimeNs::from_micros(900));
        assert_eq!(dsl.resolution.mbps(), 0.5);
        assert_eq!(cfg.rate_cap_for(&cfg.paths[1]).unwrap().mbps(), 8.0);
        // Knobs not overridden still inherit.
        assert_eq!(dsl.fleet_len, fat.fleet_len);
    }

    #[test]
    fn bad_path_overrides_are_line_numbered_errors() {
        for (text, needle) in [
            (
                "path a 1.2.3.4:1\npath b 1.2.3.4:2 warp_speed=9\n",
                "unknown path override `warp_speed`",
            ),
            (
                "path a 1.2.3.4:1\npath b 1.2.3.4:2 stream_len\n",
                "wants `key=value`",
            ),
            (
                "path a 1.2.3.4:1\npath b 1.2.3.4:2 stream_len=lots\n",
                "non-negative integer",
            ),
            (
                "path a 1.2.3.4:1\npath b 1.2.3.4:2 rate_cap_mbps=-4\n",
                "non-negative number",
            ),
        ] {
            let err = DaemonConfig::parse(text).unwrap_err();
            assert_eq!(err.line, 2, "{text:?} => {err}");
            assert!(
                err.to_string().contains(needle),
                "{text:?} => {err} (wanted {needle:?})"
            );
        }
    }

    /// A merged (global + override) configuration that fails validation
    /// is rejected at parse time, naming the path.
    #[test]
    fn invalid_merged_override_config_is_rejected() {
        let err = DaemonConfig::parse("path p 1.2.3.4:1 stream_len=0\n").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("path p"), "{msg}");
        assert!(msg.contains("probing configuration rejected"), "{msg}");
    }
}

//! # monitord — a multi-path avail-bw monitoring daemon
//!
//! The paper's motivating applications (§I, §IX: SLA verification, server
//! selection, overlay routing) and its dynamics study (§VI) all consume a
//! *continuous series* of avail-bw ranges across *many* paths. This crate
//! is that deployment mode: a long-running monitoring scheduler
//! multiplexing N independent measurement sessions, one per path, with all
//! estimation staying in the sans-IO `slops::SessionMachine`.
//!
//! The pieces:
//!
//! * [`fleet`] — the sans-IO fleet core, [`Fleet`]: config validation,
//!   the scheduler, the per-path series and change cursors, shutdown, the
//!   completion path with its live [`FleetEvent`]s, and the scheduler
//!   gauges. Every fleet driver below is a pump over it.
//! * [`scheduler`] — the sans-IO fleet [`Scheduler`] the core owns:
//!   staggered starts (configurable period + jitter) and a concurrency cap
//!   so concurrent probe streams don't self-interfere on shared links, on
//!   a deterministic [`scheduler::TICK`] grid.
//! * [`store`] — per-path bounded [`PathSeries`] ring buffers with eq. 11
//!   window averages, §VI variation statistics, and a change-point flag
//!   (consecutive windowed ranges that stop overlapping), built on
//!   [`slops::series`].
//! * [`sim`] — the in-sim pump: N paths (disjoint or sharing a tight
//!   link) inside **one** `netsim::Simulator`, each measurement a native
//!   `simprobe::SessionApp` installed on the tick grid.
//! * [`thread`] — the thread pump: blocking transports (simulator shims,
//!   the test oracle) measured in concurrent waves on the `slops::runner`
//!   pool, completions replayed in tick order.
//! * [`evented`] — the socket pump (the `monitord` binary's): every real
//!   path, a [`SocketPathSpec`] (one long-lived `pathload-net` UDP/TCP
//!   connection per path, all sharing a clock epoch), kept by one
//!   non-blocking `pathload_net::EventedSession` for the connection's
//!   life, all multiplexed on ONE epoll thread; the same dial re-connects
//!   a receiver that went away. Linux only, like the
//!   receiver: the module is gated on `target_os = "linux"`; everything
//!   else in the crate is portable.
//! * [`metrics`] — [`FleetTelemetry`], the one registry behind the scrape
//!   endpoint, the JSONL `telemetry` records and the stderr digest.
//! * [`config`] — the `monitord` binary's line-based configuration.
//! * [`export`] — JSON-lines daemon output and a human fleet summary.
//!
//! All drivers take their decisions from the same core, so on independent
//! paths the deterministic ones produce identical per-path series for the
//! same seeds — the fleet-level extension of the repo's driver-equivalence
//! invariant.
//!
//! The runnable daemon is the `monitord` binary
//! (`crates/monitord/src/bin/monitord.rs`): point it at a config file
//! listing `pathload_rcv` receivers and it streams the JSONL records of
//! [`export`] to stdout or a file; `monitord --loopback N` demonstrates
//! the whole stack against in-process receivers.
//!
//! ```
//! use monitord::{
//!     run_fleet_with_telemetry, ScheduleConfig, SeriesConfig, ShutdownFlag, ThreadPathSpec,
//! };
//! use slops::testutil::OracleTransport;
//! use slops::SlopsConfig;
//! use units::{Rate, TimeNs};
//!
//! // Monitor three synthetic paths for two simulated minutes.
//! let paths = (0..3)
//!     .map(|i| ThreadPathSpec {
//!         label: format!("path{i}"),
//!         cfg: SlopsConfig::default(),
//!         transport: Box::new(OracleTransport::new(Rate::from_mbps(30.0 + 10.0 * i as f64), i as u64)),
//!     })
//!     .collect();
//! let series = run_fleet_with_telemetry(
//!     paths,
//!     &ScheduleConfig::default(),
//!     &SeriesConfig::default(),
//!     TimeNs::from_secs(120),
//!     0,                    // one worker per CPU
//!     &ShutdownFlag::new(), // never requested: run to the horizon
//!     None,                 // no telemetry hub
//!     |_event| {},          // no live observer
//! )
//! .unwrap();
//! for (i, s) in series.iter().enumerate() {
//!     let a = 30.0 + 10.0 * i as f64;
//!     let (lo, hi) = s.envelope().expect("non-empty series");
//!     assert!(lo.mbps() <= a + 1.5 && a - 1.5 <= hi.mbps());
//! }
//! println!("{}", monitord::export::fleet_summary(&series));
//! ```

#![forbid(unsafe_code)]

pub mod config;
#[cfg(target_os = "linux")]
pub mod evented;
pub mod export;
pub mod fleet;
pub mod metrics;
pub mod scheduler;
pub mod sim;
pub mod store;
pub mod thread;

pub use config::{ConfigError, DaemonConfig, PathEntry, ProbeOverrides};
#[cfg(target_os = "linux")]
pub use evented::{run_socket_fleet_async_with_telemetry, SocketPathSpec};
pub use export::{fleet_summary, telemetry_line, write_fleet_jsonl};
pub use fleet::{Fleet, FleetEvent, ShutdownFlag};
pub use metrics::FleetTelemetry;
pub use scheduler::{PathId, Poll, ScheduleConfig, Scheduler};
pub use sim::{SimEngine, SimFleetMonitor, SimPathSpec};
pub use store::{ChangeCursor, ChangeDirection, ChangeEvent, PathSeries, SeriesConfig};
pub use thread::{run_fleet_with_telemetry, ThreadPathSpec};

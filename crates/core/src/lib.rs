//! # slops — Self-Loading Periodic Streams (the paper's core contribution)
//!
//! Implements the SLoPS end-to-end available-bandwidth measurement
//! methodology and the pathload estimation algorithm of Jain & Dovrolis
//! (SIGCOMM 2002 / ToN 2003), §III–§IV:
//!
//! * [`owd`] — relative one-way-delay processing: Γ ≈ √K group medians.
//! * [`trend`] — the PCT (eq. 8) and PDT (eq. 9) increasing-trend
//!   statistics and stream classification (type I / type N).
//! * [`stream`] — periodic-stream parameter selection: packet size `L`,
//!   period `T`, length `K`, respecting `L_min`, the MTU and `T_min`.
//! * [`fleet`] — fleets of N streams and the three-way verdict:
//!   `R > A`, `R < A`, or the **grey region** `R ≈ A`.
//! * [`ratesearch`] — the binary-search rate adjustment with grey-region
//!   bounds and the ω / χ termination rules.
//! * [`machine`] — the **sans-IO session state machine**: the full §IV
//!   control loop (train initialization, fleets, pacing idles of
//!   max(RTT, 9·V), loss handling, termination) with all I/O and clock
//!   access factored out. It emits [`machine::Command`]s and consumes
//!   [`machine::Event`]s, making every intermediate state deterministic
//!   and unit-testable.
//! * [`session`] — the blocking reference **driver**: [`Session::run`]
//!   executes the machine's commands over any
//!   [`transport::ProbeTransport`] and returns the final
//!   `[R_min, R_max]` report.
//! * [`runner`] — the parallel **batch layer**: scoped worker threads
//!   executing {scenario × seed × config} grids of sessions, one
//!   transport per worker, results in job order.
//! * [`metrics`] — the relative-variation metric ρ (eq. 12) and the
//!   weighted average used to compare against MRTG (eq. 11).
//! * [`series`] — reusable avail-bw time-series aggregation: compact
//!   [`RangeSample`]s, eq. 11 window averages, tumbling windowed ranges,
//!   and the §VI change-point flag. The `monitord` crate builds its
//!   per-path ring-buffer stores on it.
//!
//! ## Machine / driver / runner split
//!
//! ```text
//!             commands (SendTrain | SendStream | Idle | Finish)
//!   ┌────────────────┐ ──────────────────────────────► ┌──────────────┐
//!   │ SessionMachine │                                 │    driver    │
//!   │   (sans-IO)    │ ◄────────────────────────────── │ (owns the IO)│
//!   └────────────────┘   events (TrainDone | StreamDone└──────────────┘
//!                         | StreamLost | Tick)            │
//!                                                         ▼
//!                        Session::run (blocking, any ProbeTransport)
//!                        simprobe::SessionApp (event-driven, in-sim)
//! ```
//!
//! The machine is the single source of truth for the estimation logic;
//! drivers only translate commands into their I/O substrate. The blocking
//! driver serves the oracle and the simulator shim; the in-sim driver
//! (`simprobe::SessionApp`) runs a measurement as a native discrete-event
//! application next to cross traffic and TCP flows; the wire stack's
//! sender (`pathload_net::EventedSession`) drives the machine from an event
//! loop over real sockets; and
//! [`runner::run_sessions`] fans whole grids of sessions out over every
//! core. For algorithm testing without a network there is
//! [`testutil::OracleTransport`], a synthetic path with a known avail-bw.
//!
//! ```
//! use slops::testutil::OracleTransport;
//! use slops::{Session, SlopsConfig};
//! use units::Rate;
//!
//! let mut path = OracleTransport::new(Rate::from_mbps(40.0), 42);
//! let est = Session::new(SlopsConfig::default()).run(&mut path).unwrap();
//! assert!(est.low.mbps() <= 40.0 && 40.0 <= est.high.mbps() + 1.0);
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod error;
pub mod fleet;
pub mod machine;
pub mod metrics;
pub mod owd;
pub mod ratesearch;
pub mod runner;
pub mod series;
pub mod session;
pub mod stream;
pub mod testutil;
pub mod transport;
pub mod trend;
pub mod validation;

pub use config::{InitialRate, SlopsConfig, TrendMode};
pub use error::{SlopsError, TransportError};
pub use fleet::{FleetOutcome, FleetTrace};
pub use machine::{Command, Event, MachineError, SessionMachine};
pub use metrics::{relative_variation, weighted_average};
pub use ratesearch::RateSearch;
pub use runner::{run_parallel, run_sessions, Outcome, SessionJob};
pub use series::{RangeSample, SeriesStats, WindowedRange};
pub use session::{Estimate, Session, Termination};
pub use stream::{stream_params, StreamRequest};
pub use transport::{PacketSample, ProbeTransport, StreamRecord, TrainRecord};
pub use trend::{classify_medians, classify_stream, pct_metric, pdt_metric, StreamClass};
pub use validation::{check_spacing, spacing_acceptable, SpacingReport};

//! # simprobe — SLoPS probing over the packet-level simulator
//!
//! Implements [`slops::ProbeTransport`] on top of a [`netsim::Simulator`]
//! (periodic UDP-like streams, back-to-back trains, pacing idles), together
//! with builders for every topology in the paper's evaluation:
//!
//! * [`scenarios::PaperPath`] — the H-hop chain of Fig. 4 with a tight link
//!   in the middle and per-hop cross traffic (Figs. 5–9, 11, 13, 14).
//! * [`scenarios::verification_path`] — the Univ-Oregon → Univ-Delaware
//!   style path where the tight link (155 Mb/s POS) differs from the narrow
//!   link (100 Mb/s FE) (Figs. 1–3, 10).
//! * [`scenarios::multiplexing_path`] — a bottleneck fed by a configurable
//!   number of Pareto ON/OFF sources (Fig. 12).
//!
//! Timestamping model: the simulated receiver reads its own clock, which is
//! offset from the sender's by a configurable constant and quantized to a
//! configurable resolution (1 µs default, like `gettimeofday`; see
//! [`clock::ClockModel`]). SLoPS only uses OWD *differences*, so the offset
//! cancels — the transport exists to prove exactly that on a
//! packet-accurate path.
//!
//! One probe executor (`exec.rs`, crate-private) turns "send a train",
//! "send a stream", "idle" into simulator packets and timers and builds
//! the records from what arrives. Two apps host it:
//!
//! * [`SimTransport`] — implements [`slops::ProbeTransport`] with the
//!   measurement machine *outside* the event loop: each probe call runs the
//!   simulator until the executor reports the command complete. One
//!   measurement per simulator; simplest to use, and what `baselines` and
//!   every `Session::run` caller stand on.
//! * [`SessionApp`] (via [`install_session`] / [`run_session`]) — runs the
//!   sans-IO [`slops::SessionMachine`] *inside* the loop, from packet/timer
//!   callbacks, so measurements coexist with cross traffic, TCP flows and
//!   each other under one ordinary event loop. Same seed, same estimate.

#![forbid(unsafe_code)]

pub mod clock;
pub mod driver;
mod exec;
pub mod scenarios;
pub mod transport;

pub use clock::ClockModel;
pub use driver::{install_session, install_session_at, run_session, SessionApp};
pub use scenarios::{
    build_disjoint_paths, multiplexing_path, reverse_loaded_path, shared_tight_link,
    step_link_load, verification_path, verification_path_with_window, PaperPath, PaperPathConfig,
    SharedTightLink, SharedTightLinkConfig,
};
pub use transport::SimTransport;

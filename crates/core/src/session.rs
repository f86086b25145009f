//! The full pathload measurement session (§IV).
//!
//! One [`Session::run`] call:
//!
//! 1. estimates the path RTT;
//! 2. initializes the rate search — by default from the dispersion (ADR) of
//!    a back-to-back packet train, which upper-bounds the avail-bw;
//! 3. sends fleets of N periodic streams, classifying each stream's OWD
//!    trend and each fleet as above / below / grey;
//! 4. bisects until the ω / χ termination rules fire (or a fleet budget or
//!    the transport's maximum rate is exhausted);
//! 5. reports the final `[R_min, R_max]` range plus a full per-fleet trace.
//!
//! Pacing: between the streams of a fleet the session idles
//! `max(RTT, (1/x − 1)·V)` where `V = K·T` is the stream duration and `x`
//! the configured average-load cap (0.1 ⇒ idle ≥ 9 V ⇒ average probing
//! load < 10 % of the fleet rate, §IV "Fleets of Streams").

use crate::config::SlopsConfig;
use crate::error::SlopsError;
use crate::fleet::FleetTrace;
use crate::machine::{Command, Event, SessionMachine};
use crate::transport::ProbeTransport;
use std::sync::Arc;
use telemetry::TraceSink;
use units::{Rate, TimeNs};

/// Why the session stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Termination {
    /// `R_max − R_min ≤ ω` with no grey region.
    Resolution,
    /// Both avail-bw bounds within χ of the grey-region bounds.
    GreyResolution,
    /// The transport cannot probe faster; avail-bw ≥ the reported low bound.
    TransportCeiling,
    /// The fleet budget ran out before the resolutions were met.
    FleetBudget,
}

impl Termination {
    /// Every termination cause, for pre-sizing label vocabularies.
    pub const ALL: [Termination; 4] = [
        Termination::Resolution,
        Termination::GreyResolution,
        Termination::TransportCeiling,
        Termination::FleetBudget,
    ];

    /// Stable snake_case name (trace events, JSONL, metric labels).
    pub fn name(self) -> &'static str {
        match self {
            Termination::Resolution => "resolution",
            Termination::GreyResolution => "grey_resolution",
            Termination::TransportCeiling => "transport_ceiling",
            Termination::FleetBudget => "fleet_budget",
        }
    }
}

/// The result of a measurement session.
#[derive(Clone, Debug, PartialEq)]
pub struct Estimate {
    /// Lower end of the avail-bw variation range.
    pub low: Rate,
    /// Upper end of the avail-bw variation range.
    pub high: Rate,
    /// Grey-region bounds, when one was detected.
    pub grey: Option<(Rate, Rate)>,
    /// Why the session stopped.
    pub termination: Termination,
    /// Per-fleet trace, in probing order.
    pub fleets: Vec<FleetTrace>,
    /// Transport time consumed by the whole session.
    pub elapsed: TimeNs,
}

impl Estimate {
    /// Midpoint of the reported range.
    pub fn midpoint(&self) -> Rate {
        self.low.midpoint(self.high)
    }

    /// Relative variation ρ of the reported range (eq. 12).
    pub fn relative_variation(&self) -> f64 {
        crate::metrics::relative_variation(self.low, self.high)
    }
}

/// A configured measurement session; cheap to clone and reuse.
#[derive(Clone)]
pub struct Session {
    cfg: SlopsConfig,
    sink: Option<Arc<dyn TraceSink>>,
}

impl core::fmt::Debug for Session {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Session")
            .field("cfg", &self.cfg)
            .field("sink", &self.sink.as_ref().map(|_| "TraceSink"))
            .finish()
    }
}

impl Session {
    /// Create a session with the given configuration.
    pub fn new(cfg: SlopsConfig) -> Session {
        Session { cfg, sink: None }
    }

    /// Forward the machine's trace events to `sink` during
    /// [`Session::run`]. The driver only relays: every event is minted by
    /// the [`SessionMachine`] itself.
    pub fn with_trace_sink(mut self, sink: Arc<dyn TraceSink>) -> Session {
        self.sink = Some(sink);
        self
    }

    /// The session's configuration.
    pub fn config(&self) -> &SlopsConfig {
        &self.cfg
    }

    /// Drain and forward (or drop, when no sink is attached) the trace
    /// the machine minted since the last call.
    fn forward_trace(&self, machine: &mut SessionMachine) {
        let events = machine.drain_trace();
        if let Some(sink) = &self.sink {
            for e in events {
                sink.record(&e);
            }
        }
    }

    /// Run one measurement over `transport`.
    ///
    /// This is the blocking reference driver over the sans-IO
    /// [`SessionMachine`]: it executes each [`Command`] synchronously on
    /// the transport and feeds the resulting [`Event`] back, in strict
    /// alternation. Event-driven drivers (e.g. `simprobe::SessionApp`)
    /// run the very same machine from timer and packet callbacks.
    pub fn run<T: ProbeTransport + ?Sized>(
        &self,
        transport: &mut T,
    ) -> Result<Estimate, SlopsError> {
        // Validate before touching the transport (a socket transport's
        // rtt() may do real I/O).
        self.cfg.validate().map_err(SlopsError::BadConfig)?;
        let start = transport.elapsed();
        let rtt = transport.rtt();
        let mut machine = SessionMachine::new(self.cfg.clone(), rtt, transport.max_rate())?;
        loop {
            let cmd = machine
                .poll()
                .expect("blocking driver always answers each command before polling again");
            self.forward_trace(&mut machine);
            let event = match cmd {
                Command::SendTrain { len, size } => {
                    Event::TrainDone(transport.send_train(len, size)?)
                }
                Command::SendStream(req) => Event::StreamDone(transport.send_stream(&req)?),
                Command::Idle(dur) => {
                    transport.idle(dur);
                    Event::Tick(transport.elapsed())
                }
                Command::Finish(est) => {
                    let mut est = *est;
                    est.elapsed = transport.elapsed().saturating_sub(start);
                    return Ok(est);
                }
            };
            machine
                .on_event(event)
                .expect("the machine accepts the event answering its own command");
            self.forward_trace(&mut machine);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::OracleTransport;

    fn run_with_avail(a_mbps: f64, seed: u64) -> Estimate {
        let mut t = OracleTransport::new(Rate::from_mbps(a_mbps), seed);
        Session::new(SlopsConfig::default()).run(&mut t).unwrap()
    }

    #[test]
    fn brackets_fixed_avail_bw() {
        for (a, seed) in [(5.0, 1), (20.0, 2), (47.0, 3), (74.0, 4)] {
            let est = run_with_avail(a, seed);
            assert!(
                est.low.mbps() <= a + 1.0 && a - 1.0 <= est.high.mbps(),
                "A={a}: reported [{}, {}]",
                est.low,
                est.high
            );
            assert!(est.fleets.len() >= 3, "suspiciously few fleets");
        }
    }

    #[test]
    fn terminates_at_resolution_without_noise() {
        let est = run_with_avail(40.0, 7);
        assert_eq!(est.termination, Termination::Resolution);
        assert!((est.high - est.low).mbps() <= 1.0 + 1e-9);
    }

    #[test]
    fn grey_region_produces_wider_report() {
        let mut t = OracleTransport::new(Rate::from_mbps(40.0), 11);
        t.avail_halfwidth = Rate::from_mbps(4.0); // avail-bw varies 36..44
        let est = Session::new(SlopsConfig::default()).run(&mut t).unwrap();
        assert_eq!(est.termination, Termination::GreyResolution);
        assert!(est.grey.is_some());
        // The report brackets the mean avail-bw, is wider than the
        // noise-free ω resolution, and stays within the true variation
        // range padded by the grey resolution χ (§VI).
        assert!(
            est.low.mbps() <= 40.0 && 40.0 <= est.high.mbps(),
            "mean not bracketed: [{}, {}]",
            est.low,
            est.high
        );
        assert!(
            (est.high - est.low).mbps() >= 1.5,
            "range suspiciously tight"
        );
        assert!(est.low.mbps() >= 36.0 - 2.0 - 1e-6, "low = {}", est.low);
        assert!(est.high.mbps() <= 44.0 + 2.0 + 1e-6, "high = {}", est.high);
    }

    #[test]
    fn lossy_path_still_terminates() {
        let mut t = OracleTransport::new(Rate::from_mbps(30.0), 13);
        t.loss_prob = 0.02; // below the moderate threshold per stream, mostly
        let est = Session::new(SlopsConfig::default()).run(&mut t).unwrap();
        assert!(est.low.mbps() <= 31.0 && est.high.mbps() >= 28.0);
    }

    #[test]
    fn heavy_loss_aborts_fleets_downward() {
        let mut t = OracleTransport::new(Rate::from_mbps(50.0), 17);
        t.loss_above_rate = Some(Rate::from_mbps(20.0));
        t.loss_prob_above = 0.5;
        // Any probing above 20 Mb/s sees 50% loss => fleets abort => the
        // estimate collapses below 20 Mb/s even though trend-A is 50.
        let est = Session::new(SlopsConfig::default()).run(&mut t).unwrap();
        assert!(
            est.high.mbps() <= 21.0,
            "losses should cap the estimate, got {}",
            est.high
        );
    }

    #[test]
    fn bad_config_is_rejected() {
        let mut cfg = SlopsConfig::default();
        cfg.fleet_fraction = 0.1;
        let mut t = OracleTransport::new(Rate::from_mbps(10.0), 1);
        let err = Session::new(cfg).run(&mut t).unwrap_err();
        assert!(matches!(err, SlopsError::BadConfig(_)));
    }

    #[test]
    fn transport_ceiling_is_reported() {
        let mut t = OracleTransport::new(Rate::from_mbps(500.0), 19);
        t.max_rate = Some(Rate::from_mbps(100.0));
        let est = Session::new(SlopsConfig::default()).run(&mut t).unwrap();
        assert_eq!(est.termination, Termination::TransportCeiling);
        assert!(est.high.mbps() <= 100.0 + 1e-6);
    }

    #[test]
    fn session_is_reusable() {
        let s = Session::new(SlopsConfig::default());
        let mut t1 = OracleTransport::new(Rate::from_mbps(25.0), 23);
        let mut t2 = OracleTransport::new(Rate::from_mbps(60.0), 29);
        let e1 = s.run(&mut t1).unwrap();
        let e2 = s.run(&mut t2).unwrap();
        assert!(e1.low.mbps() <= 25.0 + 1.0 && 25.0 - 1.0 <= e1.high.mbps());
        assert!(e2.low.mbps() <= 60.0 + 1.0 && 60.0 - 1.0 <= e2.high.mbps());
    }
}

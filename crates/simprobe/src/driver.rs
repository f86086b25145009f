//! The in-sim session driver: a measurement session as a **native
//! discrete-event application**.
//!
//! [`crate::SimTransport`] keeps the measurement machine outside the event
//! loop: every probe call seizes the loop until its stream completes, so
//! exactly one measurement can run per simulator and nothing else can own
//! the loop meanwhile. [`SessionApp`] inverts that: it runs the sans-IO
//! [`slops::SessionMachine`] *inside* the simulation, answering its commands
//! from packet and timer callbacks. The simulation is then free to host
//! anything else concurrently — cross traffic, TCP flows, pingers, several
//! measurement sessions on disjoint (or shared!) paths — under one ordinary
//! `run_until` loop.
//!
//! Both host the same probe executor (`exec.rs`), so for the same simulator
//! seed and start instant they inject identical packet sequences, observe
//! identical OWDs, and report **identical estimates** — which the
//! driver-equivalence tests assert, machine outside the loop against
//! machine inside it.

use crate::clock::ClockModel;
use crate::exec::{ProbeExec, TOK_START};
use netsim::{App, AppId, Chain, Ctx, Packet, Simulator};
use slops::machine::{Command, Event, SessionMachine};
use slops::{Estimate, SlopsConfig, SlopsError};
use std::sync::Arc;
use telemetry::TraceSink;
use units::TimeNs;

/// A pathload measurement session running as a simulator application.
///
/// Build with [`install_session`], kick implicitly (the installer arms the
/// start timer), run the simulator however the experiment likes, and read
/// the result with [`SessionApp::estimate`] or [`run_session`].
pub struct SessionApp {
    machine: SessionMachine,
    /// Where the machine's trace events are forwarded (`None`: dropped).
    sink: Option<Arc<dyn TraceSink>>,
    exec: ProbeExec,
    start_at: Option<TimeNs>,
    result: Option<Estimate>,
}

impl SessionApp {
    /// The finished estimate, once the session has terminated.
    pub fn estimate(&self) -> Option<&Estimate> {
        self.result.as_ref()
    }

    /// Take the finished estimate out of the app.
    pub fn take_estimate(&mut self) -> Option<Estimate> {
        self.result.take()
    }

    /// Forward the machine's trace events to `sink` from now on. The app
    /// only relays: every event is minted inside the sans-IO machine, so
    /// the trace matches the other drivers' byte for byte.
    pub fn set_trace_sink(&mut self, sink: Arc<dyn TraceSink>) {
        self.sink = Some(sink);
    }

    /// The endpoint clock model (offset + quantization) the session's
    /// records are read through.
    pub fn clock_mut(&mut self) -> &mut ClockModel {
        &mut self.exec.clock
    }

    /// Total probe bytes injected (streams + trains).
    pub fn probe_bytes_sent(&self) -> u64 {
        self.exec.probe_bytes_sent
    }

    /// Drain and forward (or drop, without a sink) the machine's trace.
    fn forward_trace(&mut self) {
        let events = self.machine.drain_trace();
        if let Some(sink) = &self.sink {
            for e in events {
                sink.record(&e);
            }
        }
    }

    /// Poll the machine once and execute the command it emits.
    fn advance(&mut self, ctx: &mut Ctx<'_>) {
        let cmd = self
            .machine
            .poll()
            .expect("SessionApp always answers the previous command before advancing");
        self.forward_trace();
        if let Command::Finish(est) = cmd {
            let mut est = *est;
            est.elapsed = ctx
                .now()
                .saturating_sub(self.start_at.expect("session was started"));
            self.result = Some(est);
        } else {
            self.exec.begin(ctx, &cmd);
        }
    }

    /// Feed an event to the machine and execute the follow-up command.
    fn feed(&mut self, ctx: &mut Ctx<'_>, event: Event) {
        self.machine
            .on_event(event)
            .expect("SessionApp feeds only the event answering its own command");
        self.forward_trace();
        self.advance(ctx);
    }
}

impl App for SessionApp {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        self.exec.on_packet(ctx.now(), pkt.payload);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == TOK_START {
            if self.start_at.is_none() {
                self.start_at = Some(ctx.now());
                self.advance(ctx);
            }
        } else if let Some(event) = self.exec.on_timer(ctx, token) {
            self.feed(ctx, event);
        }
    }
}

/// Install a measurement session on `chain`, starting at the current
/// simulated instant. Returns the app id; read the result with
/// [`SessionApp::estimate`] once the simulation has run long enough, or
/// use [`run_session`].
///
/// The RTT estimate handed to the machine is the chain's base RTT for
/// small control packets, like [`crate::SimTransport`]'s `rtt()`.
pub fn install_session(
    sim: &mut Simulator,
    chain: &Chain,
    cfg: SlopsConfig,
) -> Result<AppId, SlopsError> {
    install_session_at(sim, chain, cfg, sim.now())
}

/// [`install_session`] with an explicit start instant (≥ the current
/// simulated time).
pub fn install_session_at(
    sim: &mut Simulator,
    chain: &Chain,
    cfg: SlopsConfig,
    start_at: TimeNs,
) -> Result<AppId, SlopsError> {
    let rtt = chain.base_rtt(sim, 100, 100);
    // The simulator can inject at any rate; slops caps at MTU/T_min.
    let machine = SessionMachine::new(cfg, rtt, None)?;
    let app = SessionApp {
        machine,
        sink: None,
        exec: ProbeExec::new(sim, chain),
        start_at: None,
        result: None,
    };
    let id = sim.add_app(Box::new(app));
    let route = chain.forward_route(sim, id);
    sim.app_mut::<SessionApp>(id).exec.route = Some(route);
    sim.schedule_timer(id, start_at, TOK_START);
    Ok(id)
}

/// Run the simulation until session `id` finishes (or `limit` is hit) and
/// return its estimate. Other apps — cross traffic, TCP flows, further
/// sessions — keep running concurrently. The simulator advances in 50 ms
/// slices, so the clock is left at the end of the slice in which the
/// session ended (not at `limit`); only [`Estimate::elapsed`] is exact.
pub fn run_session(sim: &mut Simulator, id: AppId, limit: TimeNs) -> Option<Estimate> {
    const SLICE: TimeNs = TimeNs::from_millis(50);
    while sim.app::<SessionApp>(id).result.is_none() && sim.now() < limit {
        let target = (sim.now() + SLICE).min(limit);
        sim.run_until(target);
    }
    sim.app_mut::<SessionApp>(id).take_estimate()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::SimTransport;
    use netsim::{ChainConfig, LinkConfig};
    use slops::Session;
    use units::Rate;

    fn empty_chain(sim: &mut Simulator) -> Chain {
        Chain::build(
            sim,
            &ChainConfig::symmetric(vec![
                LinkConfig::new(Rate::from_mbps(10.0), TimeNs::from_millis(5)),
                LinkConfig::new(Rate::from_mbps(8.0), TimeNs::from_millis(5)),
            ]),
        )
    }

    #[test]
    fn in_sim_session_measures_empty_path_capacity() {
        let mut sim = Simulator::new(5);
        let chain = empty_chain(&mut sim);
        let id = install_session(&mut sim, &chain, SlopsConfig::default()).unwrap();
        let est = run_session(&mut sim, id, TimeNs::from_secs(600)).expect("session finished");
        assert!(
            est.low.mbps() <= 8.0 && 8.0 <= est.high.mbps() + 0.5,
            "reported [{}, {}]",
            est.low,
            est.high
        );
        assert!(est.elapsed > TimeNs::ZERO);
    }

    #[test]
    fn bad_config_is_rejected_at_install() {
        let mut sim = Simulator::new(5);
        let chain = empty_chain(&mut sim);
        let mut cfg = SlopsConfig::default();
        cfg.fleet_fraction = 0.1;
        assert!(install_session(&mut sim, &chain, cfg).is_err());
    }

    /// The acid test: on the identical topology and seed, the machine
    /// inside the event loop and the machine outside it produce the *same*
    /// estimate.
    #[test]
    fn matches_blocking_driver_on_empty_path() {
        let blocking = {
            let mut sim = Simulator::new(42);
            let chain = empty_chain(&mut sim);
            let mut t = SimTransport::new(sim, chain);
            Session::new(SlopsConfig::default()).run(&mut t).unwrap()
        };
        let in_sim = {
            let mut sim = Simulator::new(42);
            let chain = empty_chain(&mut sim);
            let id = install_session(&mut sim, &chain, SlopsConfig::default()).unwrap();
            run_session(&mut sim, id, TimeNs::from_secs(600)).unwrap()
        };
        assert_eq!(blocking, in_sim);
    }
}

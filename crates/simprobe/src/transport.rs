//! [`slops::ProbeTransport`] implementation over [`netsim::Simulator`].

use crate::clock::ClockModel;
use crate::exec::{ProbeExec, TOK_START};
use netsim::{App, AppId, Chain, Ctx, Packet, Simulator};
use slops::machine::{Command, Event};
use slops::{ProbeTransport, StreamRecord, StreamRequest, TrainRecord, TransportError};
use units::{Rate, TimeNs};

/// The transport's endpoint inside the simulation: hosts the probe
/// executor and holds, for the transport outside the event loop, the
/// command to start at the next `TOK_START` and the event it completed
/// with.
struct TransportApp {
    exec: ProbeExec,
    command: Option<Command>,
    event: Option<Event>,
}

impl App for TransportApp {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        self.exec.on_packet(ctx.now(), pkt.payload);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == TOK_START {
            let cmd = self.command.take().expect("a command was stored");
            self.exec.begin(ctx, &cmd);
        } else if let Some(event) = self.exec.on_timer(ctx, token) {
            self.event = Some(event);
        }
    }
}

/// SLoPS probing over a simulated path.
///
/// Owns the simulator; between probes, [`SimTransport::idle`] advances
/// simulated time so cross traffic (and any other application in the
/// simulation, e.g. TCP flows or pingers) keeps running. The simulator can
/// be borrowed back at any time through [`SimTransport::sim`] /
/// [`SimTransport::sim_mut`] for inspection or for driving other apps.
pub struct SimTransport {
    sim: Simulator,
    chain: Chain,
    app: AppId,
}

impl SimTransport {
    /// Wrap a simulator whose probe path is `chain`; adds the transport's
    /// receiving endpoint to `sim` as one more app.
    pub fn new(mut sim: Simulator, chain: Chain) -> SimTransport {
        let app = sim.add_app(Box::new(TransportApp {
            exec: ProbeExec::new(&sim, &chain),
            command: None,
            event: None,
        }));
        let route = chain.forward_route(&sim, app);
        sim.app_mut::<TransportApp>(app).exec.route = Some(route);
        SimTransport { sim, chain, app }
    }

    /// Borrow the underlying simulator.
    pub fn sim(&self) -> &Simulator {
        &self.sim
    }

    /// Mutably borrow the underlying simulator (to read link stats, drive
    /// other applications, ...).
    pub fn sim_mut(&mut self) -> &mut Simulator {
        &mut self.sim
    }

    /// The probe path.
    pub fn chain(&self) -> &Chain {
        &self.chain
    }

    /// Consume the transport, returning the simulator.
    pub fn into_sim(self) -> Simulator {
        self.sim
    }

    /// The endpoint clock model the records are read through: the receiver
    /// clock is the global clock plus an offset (default: not
    /// synchronized), both quantized to a resolution (default 1 µs).
    /// Changes apply to records completed from now on.
    pub fn clock_mut(&mut self) -> &mut ClockModel {
        &mut self.sim.app_mut::<TransportApp>(self.app).exec.clock
    }

    /// Total probe bytes injected (streams + trains); lets experiments
    /// discount the tool's own footprint from link counters.
    pub fn probe_bytes_sent(&self) -> u64 {
        self.sim.app::<TransportApp>(self.app).exec.probe_bytes_sent
    }

    /// Have the executor start `cmd` now, and run the simulation from one
    /// completion poll to the next until it yields the answering event —
    /// which leaves the clock at the instant the command completed.
    fn execute(&mut self, cmd: Command) -> Event {
        let mut until = self.sim.now();
        self.sim.app_mut::<TransportApp>(self.app).command = Some(cmd);
        self.sim.schedule_timer(self.app, until, TOK_START);
        loop {
            self.sim.run_until(until);
            let app = self.sim.app_mut::<TransportApp>(self.app);
            if let Some(event) = app.event.take() {
                return event;
            }
            until = app.exec.poll_at;
        }
    }
}

impl ProbeTransport for SimTransport {
    fn send_stream(&mut self, req: &StreamRequest) -> Result<StreamRecord, TransportError> {
        match self.execute(Command::SendStream(*req)) {
            Event::StreamDone(rec) => Ok(rec),
            other => unreachable!("a stream was answered with {other:?}"),
        }
    }

    fn send_train(&mut self, len: u32, size: u32) -> Result<TrainRecord, TransportError> {
        match self.execute(Command::SendTrain { len, size }) {
            Event::TrainDone(rec) => Ok(rec),
            other => unreachable!("a train was answered with {other:?}"),
        }
    }

    fn rtt(&mut self) -> TimeNs {
        // Control messages are small; base RTT of the (possibly loaded)
        // path is what the real tool's control channel would measure.
        self.chain.base_rtt(&self.sim, 100, 100)
    }

    fn idle(&mut self, dur: TimeNs) {
        let target = self.sim.now() + dur;
        self.sim.run_until(target);
    }

    fn max_rate(&self) -> Option<Rate> {
        None // the simulator can inject at any rate; slops caps at MTU/T_min
    }

    fn elapsed(&self) -> TimeNs {
        self.sim.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{ChainConfig, LinkConfig};
    use slops::stream_params;
    use slops::SlopsConfig;

    /// Empty 2-hop path: 10 Mb/s then 8 Mb/s links.
    fn empty_path() -> SimTransport {
        let mut sim = Simulator::new(5);
        let chain = Chain::build(
            &mut sim,
            &ChainConfig::symmetric(vec![
                LinkConfig::new(Rate::from_mbps(10.0), TimeNs::from_millis(5)),
                LinkConfig::new(Rate::from_mbps(8.0), TimeNs::from_millis(5)),
            ]),
        );
        SimTransport::new(sim, chain)
    }

    #[test]
    fn stream_on_empty_path_is_flat_below_capacity() {
        let mut t = empty_path();
        let cfg = SlopsConfig::default();
        let req = stream_params(Rate::from_mbps(4.0), 0, &cfg);
        let rec = t.send_stream(&req).unwrap();
        assert_eq!(rec.samples.len(), 100);
        assert_eq!(rec.loss_fraction(), 0.0);
        let owds = rec.owds();
        // No cross traffic, rate below capacity: OWDs constant within
        // clock quantization.
        let min = *owds.iter().min().unwrap();
        let max = *owds.iter().max().unwrap();
        assert!(
            max - min <= 2 * t.clock_mut().resolution_ns as i64,
            "OWD spread {} on an empty path",
            max - min
        );
    }

    #[test]
    fn stream_above_path_capacity_ramps() {
        let mut t = empty_path();
        let cfg = SlopsConfig::default();
        // 9 Mb/s > 8 Mb/s second-link capacity: self-loading.
        let req = stream_params(Rate::from_mbps(9.0), 1, &cfg);
        let rec = t.send_stream(&req).unwrap();
        let owds = rec.owds();
        assert!(owds.last().unwrap() > owds.first().unwrap());
        // Fluid prediction: slope = L·8(1 − 8/9)/8e6 per packet.
        let l_bits = req.packet_size as f64 * 8.0;
        let slope = l_bits * (1.0 - 8.0 / 9.0) / 8e6 * 1e9; // ns per packet
        let total_pred = slope * 99.0;
        let total_obs = (owds[99] - owds[0]) as f64;
        assert!(
            (total_obs - total_pred).abs() / total_pred < 0.05,
            "observed ramp {total_obs} vs fluid {total_pred}"
        );
    }

    #[test]
    fn clock_offset_cancels_in_owd_differences() {
        let cfg = SlopsConfig::default();
        let run = |offset: i64| {
            let mut t = empty_path();
            t.clock_mut().offset_ns = offset;
            let req = stream_params(Rate::from_mbps(9.0), 0, &cfg);
            let rec = t.send_stream(&req).unwrap();
            let owds = rec.owds();
            owds[99] - owds[0]
        };
        let ramp_no_offset = run(0);
        let ramp_offset = run(123_456_789_012);
        assert!((ramp_no_offset - ramp_offset).abs() <= 2_000);

        // An offset set between two streams on one transport takes effect
        // on the second: every OWD moves by it, the ramp does not.
        let mut t = empty_path();
        t.clock_mut().offset_ns = 0;
        let req = stream_params(Rate::from_mbps(9.0), 0, &cfg);
        let before = t.send_stream(&req).unwrap().owds();
        t.idle(TimeNs::from_secs(1)); // let the self-loaded queue drain
        t.clock_mut().offset_ns = 5_000_000_000;
        let after = t.send_stream(&req).unwrap().owds();
        assert!((after[0] - before[0] - 5_000_000_000).abs() <= 2_000);
        assert!(((after[99] - after[0]) - (before[99] - before[0])).abs() <= 2_000);
    }

    /// Only packets of the stream or train in flight count: a straggler of
    /// an already-finalized stream and a train packet with a stale tag are
    /// ignored, and a stream and a train carrying the same tag number do
    /// not alias. The records equal those of an undisturbed run.
    #[test]
    fn collects_streams_and_trains_separately() {
        use netsim::{FlowId, Payload};
        let req = stream_params(Rate::from_mbps(4.0), 0, &SlopsConfig::default());
        let mut clean = empty_path();
        let mut t = empty_path();
        // Handed straight to the endpoint (a route with no links), so the
        // path itself is not disturbed.
        let direct = t.sim.route(&[], t.app);
        let stray = |t: &mut SimTransport, after_ms: u64, payload: Payload| {
            let at = t.elapsed() + TimeNs::from_millis(after_ms);
            let pkt = Packet::with_payload(64, FlowId(9), 0, direct.clone(), payload);
            t.sim.inject(pkt, at);
        };
        // The records have no `PartialEq`; their `Debug` shows every field.
        let same = |a: &dyn std::fmt::Debug, b: &dyn std::fmt::Debug| {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        };
        let probe = |stream: u32| Payload::Probe {
            stream,
            idx: 5,
            sender_ts: TimeNs::ZERO,
        };

        // Stream 0, with train packets of tag 0 arriving mid-flight.
        stray(&mut t, 15, Payload::Train { train: 0, idx: 0 });
        same(&t.send_stream(&req), &clean.send_stream(&req));
        // Stream 1, with a straggler of stream 0 mid-flight.
        stray(&mut t, 15, probe(0));
        same(&t.send_stream(&req), &clean.send_stream(&req));
        // Train 0, with a straggler of stream 0 (same tag number) and a
        // train packet with a stale tag, both ahead of its first packet.
        stray(&mut t, 12, probe(0));
        stray(&mut t, 12, Payload::Train { train: 7, idx: 0 });
        same(&t.send_train(10, 1500), &clean.send_train(10, 1500));
        assert_eq!(t.elapsed(), clean.elapsed());
    }

    /// A stream that lost a packet completes at its deadline, which is not
    /// on the completion-poll grid, and the transport leaves the clock at
    /// exactly that instant — not at the next grid point. (Where a link
    /// draws its drops in arrival order, the few milliseconds would shift
    /// the next probe and reshuffle every later loss.)
    #[test]
    fn shim_leaves_the_clock_at_the_finalizing_poll() {
        use crate::exec::{LEAD_IN, STREAM_GRACE};
        let mut sim = Simulator::new(5);
        let lossy = LinkConfig::new(Rate::from_mbps(10.0), TimeNs::from_millis(5));
        let chain = Chain::build(
            &mut sim,
            &ChainConfig::symmetric(vec![lossy.with_drop_prob(0.05)]),
        );
        let mut t = SimTransport::new(sim, chain);
        t.idle(TimeNs::from_micros(1_234_567)); // start off every grid
        let mut req = stream_params(Rate::from_mbps(4.0), 0, &SlopsConfig::default());
        req.period = TimeNs::from_micros(177);
        let start = t.elapsed();
        let rec = t.send_stream(&req).unwrap();
        assert!(rec.loss_fraction() > 0.0, "the stream must lose a packet");
        let deadline = start + LEAD_IN + req.period * req.count as u64 + STREAM_GRACE;
        assert_eq!(t.elapsed(), deadline);
    }

    #[test]
    fn train_dispersion_on_empty_path_equals_narrow_capacity() {
        let mut t = empty_path();
        let rec = t.send_train(48, 1500).unwrap();
        assert_eq!(rec.received, 48);
        let adr = rec.dispersion_rate().unwrap();
        // Empty path: dispersion = narrow link capacity = 8 Mb/s.
        assert!((adr.mbps() - 8.0).abs() < 0.1, "adr = {adr}");
    }

    #[test]
    fn rtt_matches_chain_base_rtt() {
        let mut t = empty_path();
        let rtt = t.rtt();
        // 2*(tx100B + 5ms) per direction, four links total: > 20 ms.
        assert!(rtt > TimeNs::from_millis(20));
        assert!(rtt < TimeNs::from_millis(21));
    }

    #[test]
    fn idle_advances_simulated_time() {
        let mut t = empty_path();
        let before = t.elapsed();
        t.idle(TimeNs::from_millis(123));
        assert_eq!(t.elapsed() - before, TimeNs::from_millis(123));
    }

    #[test]
    fn session_measures_empty_path_capacity() {
        // On an empty path the avail-bw equals the narrow capacity (8 Mb/s).
        let mut t = empty_path();
        let est = slops::Session::new(SlopsConfig::default())
            .run(&mut t)
            .unwrap();
        assert!(
            est.low.mbps() <= 8.0 && 8.0 <= est.high.mbps() + 0.5,
            "reported [{}, {}]",
            est.low,
            est.high
        );
    }
}

//! The packet-level simulator must converge to the analytic fluid model
//! (paper Appendix) when fed fluid-like (CBR, small-packet) cross traffic.

use availbw::fluid::{FluidLink, FluidPath};
use availbw::netsim::app::CountingSink;
use availbw::netsim::{Chain, ChainConfig, LinkConfig, Simulator};
use availbw::simprobe::SimTransport;
use availbw::slops::{stream_params, ProbeTransport, SlopsConfig};
use availbw::traffic::{attach_sources, SourceConfig};
use availbw::units::{Rate, TimeNs};

/// Two-hop path with CBR cross traffic on each hop; returns the transport
/// and the matching fluid path.
fn fluid_like_path(seed: u64) -> (SimTransport, FluidPath) {
    let caps = [Rate::from_mbps(20.0), Rate::from_mbps(10.0)];
    let utils = [0.3, 0.6];
    let mut sim = Simulator::new(seed);
    let chain = Chain::build(
        &mut sim,
        &ChainConfig::symmetric(
            caps.iter()
                .map(|c| LinkConfig::new(*c, TimeNs::from_millis(5)))
                .collect(),
        ),
    );
    let sink = sim.add_app(Box::new(CountingSink::default()));
    for hop in 0..2 {
        let route = chain.hop_route(&sim, hop, sink);
        // Small packets at constant spacing approximate fluid.
        let mut cfg = SourceConfig::cbr(100);
        cfg.start_jitter = TimeNs::from_micros(50);
        attach_sources(&mut sim, route, caps[hop] * utils[hop], 4, &cfg);
    }
    let mut transport = SimTransport::new(sim, chain);
    transport.sim_mut().run_until(TimeNs::from_secs(1));
    let fluid = FluidPath::new(
        caps.iter()
            .zip(utils)
            .map(|(c, u)| FluidLink::new(*c, *c * (1.0 - u)))
            .collect(),
    );
    (transport, fluid)
}

#[test]
fn owd_ramp_matches_fluid_prediction_above_avail_bw() {
    let (mut t, fluid) = fluid_like_path(5);
    let a = fluid.avail_bw(); // 4 Mb/s (10 * 0.4)
    assert_eq!(a.mbps(), 4.0);
    let cfg = SlopsConfig::default();
    for rate_mbps in [5.0, 7.0, 9.0] {
        let rate = Rate::from_mbps(rate_mbps);
        let req = stream_params(rate, 0, &cfg);
        let rec = t.send_stream(&req).unwrap();
        let owds = rec.owds();
        let measured = (owds[owds.len() - 1] - owds[0]) as f64; // ns
        let predicted =
            fluid.owd_slope(req.actual_rate(), req.packet_size) * (owds.len() - 1) as f64 * 1e9;
        let err = (measured - predicted).abs() / predicted;
        assert!(
            err < 0.15,
            "rate {rate_mbps}: measured ramp {measured:.0}ns vs fluid {predicted:.0}ns (err {err:.2})"
        );
        t.idle(TimeNs::from_millis(500));
    }
}

#[test]
fn owd_flat_below_avail_bw_as_fluid_predicts() {
    let (mut t, fluid) = fluid_like_path(6);
    let cfg = SlopsConfig::default();
    let req = stream_params(Rate::from_mbps(3.0), 0, &cfg);
    assert_eq!(fluid.owd_slope(req.actual_rate(), req.packet_size), 0.0);
    let rec = t.send_stream(&req).unwrap();
    let owds = rec.owds();
    let spread = owds.iter().max().unwrap() - owds.iter().min().unwrap();
    // CBR cross traffic: queueing jitter stays within a few packet times.
    assert!(
        spread < 500_000,
        "OWD spread {spread}ns for a sub-avail-bw stream on a CBR path"
    );
}

#[test]
fn train_dispersion_matches_fluid_exit_rate() {
    let (mut t, fluid) = fluid_like_path(7);
    let rec = t.send_train(96, 1500).unwrap();
    let adr = rec.dispersion_rate().unwrap();
    // A long back-to-back train enters at the first link's capacity.
    let predicted = fluid.exit_rate(Rate::from_mbps(20.0));
    let err = (adr.bps() - predicted.bps()).abs() / predicted.bps();
    assert!(
        err < 0.10,
        "train ADR {adr} vs fluid exit rate {predicted} (err {err:.2})"
    );
    // And the classic result: ADR overestimates the avail-bw.
    assert!(adr.bps() > fluid.avail_bw().bps());
}

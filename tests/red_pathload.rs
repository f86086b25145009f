//! pathload over a RED bottleneck: the methodology needs OWD *growth*,
//! which RED preserves even while bounding the queue (extension test).

use availbw::netsim::app::CountingSink;
use availbw::netsim::{Chain, ChainConfig, LinkConfig, RedConfig, Simulator};
use availbw::simprobe::SimTransport;
use availbw::slops::{Session, SlopsConfig};
use availbw::traffic::{attach_sources, SourceConfig};
use availbw::units::{Rate, TimeNs};

#[test]
fn pathload_still_works_over_red() {
    let mut sim = Simulator::new(33);
    let limit = 512 * 1024u64;
    let chain = Chain::build(
        &mut sim,
        &ChainConfig::symmetric(vec![
            LinkConfig::new(Rate::from_mbps(40.0), TimeNs::from_millis(5)),
            LinkConfig::new(Rate::from_mbps(10.0), TimeNs::from_millis(10))
                .with_queue_limit(limit)
                .with_red(RedConfig::for_queue_limit(limit)),
            LinkConfig::new(Rate::from_mbps(40.0), TimeNs::from_millis(5)),
        ]),
    );
    let sink = sim.add_app(Box::new(CountingSink::default()));
    let route = chain.hop_route(&sim, 1, sink);
    attach_sources(
        &mut sim,
        route,
        Rate::from_mbps(6.0),
        10,
        &SourceConfig::paper_poisson(),
    );
    let mut t = SimTransport::new(sim, chain);
    t.sim_mut().run_until(TimeNs::from_secs(2));
    let est = Session::new(SlopsConfig::default()).run(&mut t).unwrap();
    // A = 4 Mb/s; RED's early drops on probe streams are rare at this
    // load, and SLoPS only needs relative OWD growth, which RED preserves.
    assert!(
        est.low.mbps() <= 4.6 && 3.4 <= est.high.mbps(),
        "over RED: [{}, {}]",
        est.low,
        est.high
    );
}

//! Engine-level invariant tests: conservation, determinism, and stress
//! behavior of the simulator under adversarial conditions.

use netsim::app::{CountingSink, RecordingSink};
use netsim::{Chain, ChainConfig, FlowId, LinkConfig, Packet, Prng, Simulator};
use units::{Rate, TimeNs};

/// Every injected byte is either delivered or accounted as a drop.
#[test]
fn byte_conservation_under_overload() {
    let mut sim = Simulator::new(5);
    let l = sim.add_link(
        LinkConfig::new(Rate::from_mbps(1.0), TimeNs::from_millis(1)).with_queue_limit(10_000),
    );
    let sink = sim.add_app(Box::new(CountingSink::default()));
    let route = sim.route(&[l], sink);
    let mut rng = Prng::new(9);
    let mut injected = 0u64;
    let mut t = TimeNs::ZERO;
    for i in 0..5_000 {
        t += TimeNs::from_micros(rng.below(200));
        let size = 40 + rng.below(1460) as u32;
        injected += size as u64;
        sim.inject(Packet::new(size, FlowId(1), i, route.clone()), t);
    }
    assert!(sim.run_until_idle(TimeNs::from_secs(600)));
    let delivered = sim.app::<CountingSink>(sink).bytes;
    let stats = &sim.link(l).stats;
    assert!(stats.drops_overflow > 0, "overload must drop");
    assert_eq!(stats.tx_bytes, delivered);
    // Conservation: what went in equals what came out plus queue drops.
    // Dropped bytes are not tracked per byte, so reconstruct from counts:
    // injected == delivered + dropped bytes; we only know dropped packets,
    // so check the weaker but still binding inequality both ways.
    assert!(delivered < injected);
    assert!(
        delivered + stats.drops_overflow * 1500 >= injected,
        "drop accounting inconsistent"
    );
}

/// Two identical simulations produce byte-identical delivery traces.
#[test]
fn determinism_across_runs() {
    let trace = |seed: u64| {
        let mut sim = Simulator::new(seed);
        let chain = Chain::build(
            &mut sim,
            &ChainConfig::symmetric(vec![
                LinkConfig::new(Rate::from_mbps(5.0), TimeNs::from_millis(2)),
                LinkConfig::new(Rate::from_mbps(3.0), TimeNs::from_millis(3)),
            ]),
        );
        let sink = sim.add_app(Box::new(RecordingSink::default()));
        let route = chain.forward_route(&sim, sink);
        let mut rng = sim.rng();
        let mut t = TimeNs::ZERO;
        for i in 0..500 {
            t += TimeNs::from_micros(rng.below(3000));
            let size = 40 + rng.below(1460) as u32;
            sim.inject(Packet::new(size, FlowId(2), i, route.clone()), t);
        }
        sim.run_until_idle(TimeNs::from_secs(100));
        sim.app::<RecordingSink>(sink)
            .records
            .iter()
            .map(|r| (r.seq, r.recv_at))
            .collect::<Vec<_>>()
    };
    assert_eq!(trace(77), trace(77));
    assert_ne!(trace(77), trace(78));
}

/// A packet larger than the queue limit on a busy link is dropped, not
/// wedged.
#[test]
fn oversized_packet_cannot_wedge_the_queue() {
    let mut sim = Simulator::new(1);
    let l =
        sim.add_link(LinkConfig::new(Rate::from_mbps(1.0), TimeNs::ZERO).with_queue_limit(1000));
    let sink = sim.add_app(Box::new(CountingSink::default()));
    let route = sim.route(&[l], sink);
    sim.inject(Packet::new(500, FlowId(1), 0, route.clone()), TimeNs::ZERO);
    // Arrives while busy, exceeds the whole queue limit: dropped.
    sim.inject(Packet::new(1500, FlowId(1), 1, route.clone()), TimeNs::ZERO);
    sim.inject(
        Packet::new(500, FlowId(1), 2, route),
        TimeNs::from_micros(10),
    );
    assert!(sim.run_until_idle(TimeNs::from_secs(1)));
    assert_eq!(sim.app::<CountingSink>(sink).packets, 2);
    assert_eq!(sim.link(l).stats.drops_overflow, 1);
}

/// run_until never executes events beyond the horizon, and time never
/// goes backwards even with many interleaved timers.
#[test]
fn run_until_horizon_is_respected() {
    use netsim::{App, Ctx};
    struct Ticker {
        pub fired: Vec<TimeNs>,
    }
    impl App for Ticker {
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            self.fired.push(ctx.now());
            ctx.timer_in(TimeNs::from_millis(10), 0);
        }
    }
    let mut sim = Simulator::new(1);
    let app = sim.add_app(Box::new(Ticker { fired: vec![] }));
    sim.schedule_timer(app, TimeNs::ZERO, 0);
    sim.run_until(TimeNs::from_millis(95));
    let fired = &sim.app::<Ticker>(app).fired;
    assert_eq!(fired.len(), 10); // t = 0, 10, ..., 90
    assert!(fired.windows(2).all(|w| w[0] < w[1]));
    assert_eq!(sim.now(), TimeNs::from_millis(95));
    sim.run_until(TimeNs::from_millis(105));
    assert_eq!(sim.app::<Ticker>(app).fired.len(), 11);
}

/// The engine sustains millions of events without issue (smoke/perf).
#[test]
fn engine_throughput_smoke() {
    let mut sim = Simulator::new(3);
    let l = sim.add_link(LinkConfig::new(
        Rate::from_mbps(1000.0),
        TimeNs::from_micros(1),
    ));
    let sink = sim.add_app(Box::new(CountingSink::default()));
    let route = sim.route(&[l], sink);
    for i in 0..200_000u64 {
        sim.inject(
            Packet::new(100, FlowId(1), i, route.clone()),
            TimeNs::from_nanos(i * 900),
        );
    }
    assert!(sim.run_until_idle(TimeNs::from_secs(10)));
    assert_eq!(sim.app::<CountingSink>(sink).packets, 200_000);
    // Op-count gate: an injected one-hop packet is exactly two dispatched
    // events (arrival + delivery); a third would be a regression to an
    // event per transmission.
    assert_eq!(sim.events_processed(), 400_000);
}

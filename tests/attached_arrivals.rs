//! Differential test of the two homes a cross-traffic source can have: a
//! link that pulls its arrivals (no events), and a timer-driven
//! `CrossTrafficSource` app (two events per packet). Same topology, same
//! rng streams, same probe flow: every observable must be equal at every
//! run boundary.

use availbw::netsim::app::{CountingSink, RecordingSink};
use availbw::netsim::{
    App, AppId, Ctx, FlowId, LinkConfig, LinkId, Packet, RedConfig, RouteSpec, Simulator,
};
use availbw::simprobe::scenarios::step_link_load;
use availbw::traffic::{
    attach_onoff_sources, attach_sources, CrossTrafficSource, OnOffArrivals, OnOffConfig,
    RenewalArrivals, SourceConfig,
};
use availbw::units::{Rate, TimeNs};
use proptest::prelude::*;
use std::sync::Arc;

/// Where the cross traffic lives.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Home {
    /// `attach_sources` / `attach_onoff_sources` / `step_link_load`: the
    /// routes are one link into a counting sink, so the links own them.
    Link,
    /// The same generators over the same rng streams, hand-installed
    /// behind timers.
    Timer,
}

fn renewal(
    home: Home,
    sim: &mut Simulator,
    route: &Arc<RouteSpec>,
    rate: Rate,
    n: usize,
    cfg: &SourceConfig,
) {
    if home == Home::Link {
        return attach_sources(sim, route.clone(), rate, n, cfg);
    }
    for i in 0..n {
        let mut rng = sim.rng();
        let start = cfg.start_offset(&mut rng);
        let arrivals = RenewalArrivals::new(cfg, rate / n as f64, rng);
        let first_at = sim.now() + start;
        CrossTrafficSource::install(
            sim,
            Box::new(arrivals),
            route.clone(),
            FlowId(i as u32),
            first_at,
        );
    }
}

fn onoff(home: Home, sim: &mut Simulator, route: &Arc<RouteSpec>, rate: Rate, n: usize) {
    if home == Home::Link {
        return attach_onoff_sources(sim, route.clone(), rate, n);
    }
    let cfg = OnOffConfig::with_avg_rate(rate / n as f64);
    let cycle = TimeNs::from_secs_f64(cfg.mean_on_secs + cfg.mean_off_secs);
    for i in 0..n {
        let mut rng = sim.rng();
        let start = TimeNs::from_nanos(rng.below(cycle.as_nanos().max(1)));
        let arrivals = OnOffArrivals::new(&cfg, rng);
        let first_at = sim.now() + start;
        CrossTrafficSource::install(
            sim,
            Box::new(arrivals),
            route.clone(),
            FlowId(i as u32),
            first_at,
        );
    }
}

/// A periodic probe flow sent by an app, so its first-hop arrival runs
/// inline in the send and its second-hop arrival is an event.
struct Periodic {
    route: Arc<RouteSpec>,
    period: TimeNs,
    seq: u64,
}

impl App for Periodic {
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        ctx.send(Packet::new(500, FlowId(1), self.seq, self.route.clone()));
        self.seq += 1;
        ctx.timer_in(self.period, 0);
    }
}

/// One case of the property.
#[derive(Clone, Debug)]
struct Case {
    seed: u64,
    drop_prob: f64,
    red: bool,
    queue_limit: u64,
    /// Load the first hop too (its sources share the sink), or leave it
    /// empty so probe arrivals at the second hop tie, to the nanosecond,
    /// with a CBR source there.
    first_hop_loaded: bool,
    /// Boundary gaps in nanoseconds, and the boundary the load steps at.
    gaps: Vec<u64>,
    step_at: usize,
}

/// One link at a boundary: `LinkStats`' six counters, the monitor's
/// windows, `queue_bytes`, `backlog_bytes`, `queue_len`.
type LinkReading = ([u64; 6], Vec<u64>, u64, u64, usize);

/// Everything observable at a boundary.
#[derive(PartialEq, Debug)]
struct Reading {
    now: TimeNs,
    links: Vec<LinkReading>,
    sink: (u64, u64, TimeNs),
    probes: Vec<(u64, TimeNs, TimeNs)>,
}

fn read(sim: &Simulator, links: &[LinkId], sink: AppId, probe_sink: AppId) -> Reading {
    Reading {
        now: sim.now(),
        links: links
            .iter()
            .map(|&id| {
                let l = sim.link(id);
                let st = &l.stats;
                let m = l.monitor();
                (
                    [
                        st.tx_packets,
                        st.tx_bytes,
                        st.drops_overflow,
                        st.drops_fault,
                        st.busy_ns,
                        st.max_queue_bytes,
                    ],
                    (0..m.num_windows()).map(|i| m.bytes_in_window(i)).collect(),
                    l.queue_bytes(),
                    l.backlog_bytes(),
                    l.queue_len(),
                )
            })
            .collect(),
        sink: {
            let s = sim.app::<CountingSink>(sink);
            (s.packets, s.bytes, s.last_arrival)
        },
        probes: (sim.app::<RecordingSink>(probe_sink).records.iter())
            .map(|r| (r.seq, r.sent_at, r.recv_at))
            .collect(),
    }
}

/// Build the case with its cross traffic at `home`, run it boundary by
/// boundary, and return every reading plus `(events, attached arrivals)`.
fn run(case: &Case, home: Home) -> (Vec<Reading>, (u64, u64)) {
    let ms = TimeNs::from_millis(1);
    let mut sim = Simulator::new(case.seed);
    let first = sim.add_link(
        LinkConfig::new(Rate::from_mbps(40.0), ms).with_monitor_window(TimeNs::from_millis(20)),
    );
    let mut tight = LinkConfig::new(Rate::from_mbps(10.0), ms * 3)
        .with_queue_limit(case.queue_limit)
        .with_drop_prob(case.drop_prob)
        .with_monitor_window(TimeNs::from_millis(7));
    if case.red {
        tight = tight.with_red(RedConfig::for_queue_limit(case.queue_limit));
    }
    let tight = sim.add_link(tight);
    let sink = sim.add_app(Box::new(CountingSink::default()));
    let probe_sink = sim.add_app(Box::new(RecordingSink::default()));
    let probe_route = sim.route(&[first, tight], probe_sink);
    let probe = sim.add_app(Box::new(Periodic {
        route: probe_route.clone(),
        period: ms,
        seq: 0,
    }));
    // 500 B cross the first hop in 100 µs + 1 ms: sent at 0.9 ms (mod 1 ms)
    // they reach the tight link on the millisecond, where the CBR source
    // below fires.
    sim.schedule_timer(probe, TimeNs::from_micros(900), 0);

    let tight_route = sim.route(&[tight], sink);
    if case.first_hop_loaded {
        let first_route = sim.route(&[first], sink);
        let cfg = SourceConfig::paper_poisson();
        renewal(home, &mut sim, &first_route, Rate::from_mbps(12.0), 3, &cfg);
    } else {
        // 500 B at 4 Mb/s: one packet per millisecond, from t = 0.
        let mut cbr = SourceConfig::cbr(500);
        cbr.start_jitter = TimeNs::ZERO;
        renewal(home, &mut sim, &tight_route, Rate::from_mbps(4.0), 1, &cbr);
    }
    let pareto = SourceConfig::paper_pareto();
    renewal(
        home,
        &mut sim,
        &tight_route,
        Rate::from_mbps(3.0),
        4,
        &pareto,
    );
    onoff(home, &mut sim, &tight_route, Rate::from_mbps(3.0), 6);

    let mut readings = Vec::new();
    for (i, gap) in case.gaps.iter().enumerate() {
        if i == case.step_at {
            match home {
                Home::Link => {
                    step_link_load(&mut sim, tight, sink, Rate::from_mbps(2.0), 2, &pareto)
                }
                Home::Timer => {
                    let route = sim.route(&[tight], sink);
                    renewal(home, &mut sim, &route, Rate::from_mbps(2.0), 2, &pareto);
                }
            }
            // And a probe packet from outside, behind whatever is due.
            let at = sim.now() + TimeNs::from_micros(40);
            sim.inject(Packet::new(1200, FlowId(2), 0, probe_route.clone()), at);
        }
        let target = sim.now() + TimeNs::from_nanos(*gap);
        sim.run_until(target);
        readings.push(read(&sim, &[first, tight], sink, probe_sink));
    }
    let stats = sim.engine_stats();
    (readings, (stats.events_processed, stats.attached_arrivals))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// A link that owns its one-hop sources shows, at every boundary —
    /// mid-transmission and mid-propagation included — exactly what the
    /// same sources behind timers show: link counters, monitor windows,
    /// occupancy, the cross-traffic sink, and every probe delivery.
    #[test]
    fn attached_matches_timer_driven(
        seed in any::<u64>(),
        faults in 0u8..8,
        queue_limit in 3_000u64..60_000,
        // Mostly a few milliseconds, sometimes nanoseconds, sometimes long.
        gaps in prop::collection::vec((0u8..8, 1u64..5_000_000), 10..40),
        step_at in 0usize..10,
    ) {
        let case = Case {
            seed,
            drop_prob: if faults & 1 == 0 { 0.0 } else { 0.03 },
            red: faults & 2 != 0,
            queue_limit,
            first_hop_loaded: faults & 4 != 0,
            gaps: gaps
                .iter()
                .map(|&(kind, x)| match kind {
                    0 => 1 + x % 2_000,
                    1 => x * 40,
                    _ => x,
                })
                .collect(),
            step_at,
        };
        let (attached, (events, pulled)) = run(&case, Home::Link);
        let (timers, (timer_events, none_pulled)) = run(&case, Home::Timer);
        prop_assert_eq!(none_pulled, 0);
        prop_assert!(pulled > 0 && events < timer_events);
        for (i, (a, t)) in attached.iter().zip(&timers).enumerate() {
            prop_assert_eq!(a, t, "boundary {} of {:?}", i, case);
        }
        // The property must have teeth: packets got through, and some did
        // not.
        let last = attached.last().unwrap();
        prop_assert!(last.sink.0 > 0 && !last.probes.is_empty());
    }
}

/// The cases the property is there for, pinned so they cannot silently
/// stop occurring: probe arrivals tying with a CBR source to the
/// nanosecond, and a buffer small enough that who is first at a tie
/// decides who is dropped.
#[test]
fn ties_and_drops_occur_in_the_differential_cases() {
    let case = Case {
        seed: 5,
        drop_prob: 0.03,
        red: false,
        queue_limit: 3_000,
        first_hop_loaded: false,
        gaps: vec![3_000_000; 60],
        step_at: 20,
    };
    let (attached, _) = run(&case, Home::Link);
    let (timers, _) = run(&case, Home::Timer);
    for (i, (a, t)) in attached.iter().zip(&timers).enumerate() {
        assert_eq!(a, t, "boundary {i}");
    }
    let last = attached.last().unwrap();
    let [_, _, overflow, fault, _, _] = last.links[1].0;
    assert!(overflow > 50 && fault > 10, "{overflow} / {fault} drops");
    // Probes reach the tight link exactly on the millisecond.
    let on_the_ms = (last.probes.iter())
        .filter(|(_, sent, _)| (sent.as_nanos() + 1_100_000) % 1_000_000 == 0)
        .count();
    assert!(on_the_ms > 100, "{on_the_ms} aligned probes");
}

//! Fleet monitoring end to end: the `monitord` daemon subsystem over the
//! sans-IO machine.
//!
//! (a) N staggered in-sim sessions on disjoint loaded paths each converge
//!     to a range containing that path's true avail-bw;
//! (b) on a shared tight link, a mid-run cross-traffic step is flagged by
//!     the change detector;
//! (c) the in-sim and thread-backed drivers produce identical per-path
//!     series for the same seeds on disjoint paths — the fleet-level
//!     extension of the driver-equivalence invariant.

use availbw::monitord::{
    run_fleet_with_telemetry, ChangeDirection, ScheduleConfig, SeriesConfig, ShutdownFlag,
    SimFleetMonitor, SimPathSpec, ThreadPathSpec,
};
use availbw::netsim::{Chain, ChainConfig, LinkConfig, Simulator};
use availbw::simprobe::scenarios::{
    build_disjoint_paths, shared_tight_link, step_link_load, LinkLoad, PathOpts,
    SharedTightLinkConfig,
};
use availbw::simprobe::SimTransport;
use availbw::slops::SlopsConfig;
use availbw::traffic::SourceConfig;
use availbw::units::{Rate, TimeNs};

/// (a) Disjoint loaded paths in one simulation: every path's monitoring
/// series brackets that path's true avail-bw, and the starts really are
/// staggered across paths.
#[test]
fn staggered_sessions_converge_per_path() {
    let mut sim = Simulator::new(1001);
    // Three 2-hop paths with different capacities and loads:
    // A = 6, 10, and 16 Mb/s.
    let specs: [(f64, f64); 3] = [(10.0, 0.40), (20.0, 0.50), (20.0, 0.20)];
    let loads: Vec<Vec<LinkLoad>> = specs
        .iter()
        .map(|&(cap, util)| {
            vec![
                LinkLoad::pareto(Rate::from_mbps(40.0), 0.10, 5),
                LinkLoad::pareto(Rate::from_mbps(cap), util, 5),
            ]
        })
        .collect();
    let chains = build_disjoint_paths(&mut sim, &loads, &PathOpts::default());
    let paths = chains
        .into_iter()
        .enumerate()
        .map(|(i, chain)| SimPathSpec {
            label: format!("path{i}"),
            chain,
            cfg: SlopsConfig::default(),
        })
        .collect();
    let sched = ScheduleConfig {
        period: TimeNs::from_secs(45),
        jitter: TimeNs::from_secs(3),
        max_concurrent: 0,
        seed: 5,
    };
    let horizon = sim.now() + TimeNs::from_secs(100);
    let mut mon = SimFleetMonitor::new(sim, paths, &sched, &SeriesConfig::default(), horizon)
        .expect("valid fleet");
    mon.run_to_completion();

    let mut first_starts = Vec::new();
    for (i, series) in mon.series().iter().enumerate() {
        let a = specs[i].0 * (1.0 - specs[i].1);
        assert!(series.len() >= 2, "path {i}: only {} samples", series.len());
        assert_eq!(series.errors(), 0, "path {i} lost measurements");
        let (lo, hi) = series.envelope().expect("non-empty series");
        assert!(
            lo.mbps() <= a + 0.5 && a - 0.5 <= hi.mbps(),
            "path {i}: envelope [{lo}, {hi}] should contain A = {a} Mb/s"
        );
        // The windowed average is in the right neighborhood too.
        let avg = series.window_average(TimeNs::ZERO, TimeNs::MAX).mbps();
        assert!(
            (avg - a).abs() < a * 0.5,
            "path {i}: window average {avg:.2} vs A = {a}"
        );
        first_starts.push(series.samples().next().unwrap().started);
    }
    // Staggering: the three first starts are distinct instants.
    first_starts.sort();
    first_starts.dedup();
    assert_eq!(first_starts.len(), 3, "starts were not staggered");
}

/// (b) Two paths over one tight link; midway, the tight-link load steps
/// from 20% to ~60% (A: 8 → 4 Mb/s). The change detector flags a
/// downward shift after the step, on at least one path.
#[test]
fn shared_tight_link_step_is_flagged() {
    let mut sim = Simulator::new(2002);
    let cfg = SharedTightLinkConfig {
        paths: 2,
        tight: LinkLoad::pareto(Rate::from_mbps(10.0), 0.20, 10),
        ..SharedTightLinkConfig::default()
    };
    let shared = shared_tight_link(&mut sim, &cfg);
    let paths = shared
        .chains
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, chain)| SimPathSpec {
            label: format!("shared{i}"),
            chain,
            cfg: SlopsConfig::default(),
        })
        .collect();
    let sched = ScheduleConfig {
        period: TimeNs::from_secs(30),
        jitter: TimeNs::from_secs(2),
        // One probe stream at a time: concurrent streams would load the
        // shared tight link with each other's probes.
        max_concurrent: 1,
        seed: 9,
    };
    let series_cfg = SeriesConfig {
        capacity: 0,
        window: TimeNs::from_secs(150),
    };
    let t0 = sim.now();
    let step_at = t0 + TimeNs::from_secs(150);
    let horizon = t0 + TimeNs::from_secs(300);
    let mut mon =
        SimFleetMonitor::new(sim, paths, &sched, &series_cfg, horizon).expect("valid fleet");

    // First phase: A = 8 Mb/s.
    mon.run_until(step_at);
    // Step: +4 Mb/s of cross traffic => utilization ~60%, A ~ 4 Mb/s.
    step_link_load(
        mon.sim_mut(),
        shared.tight,
        shared.cross_sink,
        Rate::from_mbps(4.0),
        10,
        &SourceConfig::paper_pareto(),
    );
    mon.run_to_completion();

    let flagged = mon.series().iter().any(|s| {
        s.changes()
            .iter()
            .any(|c| c.direction == ChangeDirection::Down && c.at >= step_at)
    });
    assert!(
        flagged,
        "no path flagged the avail-bw step; series: {:?}",
        mon.series()
            .iter()
            .map(|s| s
                .samples()
                .map(|r| (r.started, r.low, r.high))
                .collect::<Vec<_>>())
            .collect::<Vec<_>>()
    );
}

/// (c) Driver equivalence at the fleet level: on disjoint (unloaded)
/// paths, the in-sim driver (one simulator hosting all sessions) and the
/// thread-backed driver (one blocking simulator shim per path) produce
/// identical per-path series under the same schedule.
#[test]
fn in_sim_and_thread_drivers_produce_identical_series() {
    const CAPS: [f64; 4] = [8.0, 12.0, 16.0, 24.0];
    let chain_cfg = |mbps: f64| {
        ChainConfig::symmetric(vec![
            LinkConfig::new(Rate::from_mbps(mbps + 4.0), TimeNs::from_millis(5)),
            LinkConfig::new(Rate::from_mbps(mbps), TimeNs::from_millis(5)),
        ])
    };
    let sched = ScheduleConfig {
        period: TimeNs::from_secs(20),
        jitter: TimeNs::from_secs(3),
        max_concurrent: 2,
        seed: 77,
    };
    let series_cfg = SeriesConfig::default();
    let horizon = TimeNs::from_secs(60);

    // In-sim: all four paths in one simulator.
    let in_sim = {
        let mut sim = Simulator::new(42);
        let paths = CAPS
            .iter()
            .enumerate()
            .map(|(i, &mbps)| SimPathSpec {
                label: format!("p{i}"),
                chain: Chain::build(&mut sim, &chain_cfg(mbps)),
                cfg: SlopsConfig::default(),
            })
            .collect();
        let mut mon = SimFleetMonitor::new(sim, paths, &sched, &series_cfg, horizon).unwrap();
        mon.run_to_completion();
        mon.into_series()
    };

    // Thread-backed: one blocking simulator shim per path.
    let threaded = {
        let paths = CAPS
            .iter()
            .enumerate()
            .map(|(i, &mbps)| {
                let mut sim = Simulator::new(42);
                let chain = Chain::build(&mut sim, &chain_cfg(mbps));
                ThreadPathSpec {
                    label: format!("p{i}"),
                    cfg: SlopsConfig::default(),
                    transport: Box::new(SimTransport::new(sim, chain)),
                }
            })
            .collect();
        let stop = ShutdownFlag::new();
        run_fleet_with_telemetry(paths, &sched, &series_cfg, horizon, 2, &stop, None, |_| {})
            .unwrap()
    };

    assert_eq!(in_sim.len(), threaded.len());
    for (a, b) in in_sim.iter().zip(&threaded) {
        assert!(a.len() >= 2, "{}: too few samples ({})", a.label(), a.len());
        let sa: Vec<_> = a.samples().collect();
        let sb: Vec<_> = b.samples().collect();
        assert_eq!(sa, sb, "per-path series diverged on {}", a.label());
        assert_eq!(a.errors(), b.errors());
    }
}

/// (c′) Driver equivalence under **overrun**: path 0 has a huge RTT, so
/// its measurements outlast the period while the fast paths keep cycling.
/// The thread driver must still reschedule the fast paths while the slow
/// measurement is outstanding — feeding completions to the scheduler in
/// the same tick-granular order the in-sim driver observes them —
/// or the per-path series diverge (regression test for the wave-barrier
/// scheduling bug).
#[test]
fn drivers_agree_when_a_measurement_overruns_its_period() {
    // (capacity, per-hop propagation): path 0 is slow, path 1 fast.
    const SPECS: [(f64, u64); 2] = [(8.0, 400), (16.0, 5)];
    let chain_cfg = |(mbps, prop_ms): (f64, u64)| {
        ChainConfig::symmetric(vec![
            LinkConfig::new(Rate::from_mbps(mbps + 4.0), TimeNs::from_millis(prop_ms)),
            LinkConfig::new(Rate::from_mbps(mbps), TimeNs::from_millis(prop_ms)),
        ])
    };
    // Period between the fast path's ~7.8 s measurements and the slow
    // path's ~10.5 s ones: only path 0 overruns. With both paths free to
    // run concurrently, the slow path's next due comes up *before* the
    // fast path's — a batch-fed scheduler would hand the slow path the
    // early-freed slot and stall the fast path behind the slow finish.
    let sched = ScheduleConfig {
        period: TimeNs::from_secs(8),
        jitter: TimeNs::from_secs(1),
        max_concurrent: 0,
        seed: 13,
    };
    let series_cfg = SeriesConfig::default();
    let horizon = TimeNs::from_secs(60);

    let in_sim = {
        let mut sim = Simulator::new(7);
        let paths = SPECS
            .iter()
            .enumerate()
            .map(|(i, &spec)| SimPathSpec {
                label: format!("p{i}"),
                chain: Chain::build(&mut sim, &chain_cfg(spec)),
                cfg: SlopsConfig::default(),
            })
            .collect();
        let mut mon = SimFleetMonitor::new(sim, paths, &sched, &series_cfg, horizon).unwrap();
        mon.run_to_completion();
        mon.into_series()
    };
    let threaded = {
        let paths = SPECS
            .iter()
            .enumerate()
            .map(|(i, &spec)| {
                let mut sim = Simulator::new(7);
                let chain = Chain::build(&mut sim, &chain_cfg(spec));
                ThreadPathSpec {
                    label: format!("p{i}"),
                    cfg: SlopsConfig::default(),
                    transport: Box::new(SimTransport::new(sim, chain)),
                }
            })
            .collect();
        let stop = ShutdownFlag::new();
        run_fleet_with_telemetry(paths, &sched, &series_cfg, horizon, 0, &stop, None, |_| {})
            .unwrap()
    };

    // Premises: the slow path overruns the period, the fast ones do not.
    let slow = &in_sim[0];
    assert!(
        slow.samples().all(|r| r.duration > sched.period),
        "test premise broken: path 0 should overrun the period"
    );
    assert!(
        in_sim[1].samples().all(|r| r.duration < sched.period),
        "test premise broken: path 1 should not overrun"
    );
    for (a, b) in in_sim.iter().zip(&threaded) {
        let sa: Vec<_> = a.samples().collect();
        let sb: Vec<_> = b.samples().collect();
        assert_eq!(sa, sb, "series diverged under overrun on {}", a.label());
    }
}

//! Sharded-engine equivalence: the per-path-event-queue simulator must be
//! **bit-identical** to the single-queue engine on every per-path
//! observable — estimates, monitoring series, and machine-minted
//! [`TraceEvent`] streams — on disjoint-path fleets (the sharding
//! contract; same shape as the batched-vs-scalar byte-identity test in
//! `tests/socket_multisession.rs`), and must fall back to the single
//! queue, still correct, whenever paths share a link.

use availbw::monitord::{
    FleetTelemetry, ScheduleConfig, SeriesConfig, SimEngine, SimFleetMonitor, SimPathSpec,
};
use availbw::netsim::{ShardRefusal, Simulator};
use availbw::simprobe::scenarios::{
    build_disjoint_paths, shared_tight_link, LinkLoad, PathOpts, SharedTightLinkConfig,
};
use availbw::simprobe::{install_session_at, SessionApp};
use availbw::slops::series::RangeSample;
use availbw::slops::SlopsConfig;
use availbw::telemetry::{TraceEvent, VecSink};
use availbw::units::{Rate, TimeNs};
use proptest::prelude::*;
use std::sync::Arc;

/// A small loaded two-path fleet (disjoint one-hop chains).
fn two_path_loads() -> Vec<Vec<LinkLoad>> {
    vec![
        vec![LinkLoad::pareto(Rate::from_mbps(10.0), 0.30, 3)],
        vec![LinkLoad::pareto(Rate::from_mbps(20.0), 0.20, 3)],
    ]
}

fn small_opts() -> PathOpts {
    let mut opts = PathOpts::default();
    opts.warmup = TimeNs::from_millis(500);
    opts
}

/// Run a two-path monitored fleet to completion on the given engine;
/// returns (per-path samples, shard count, events processed).
fn fleet_run(seed: u64, engine: SimEngine) -> (Vec<Vec<RangeSample>>, usize, u64) {
    let mut sim = Simulator::new(seed);
    let chains = build_disjoint_paths(&mut sim, &two_path_loads(), &small_opts());
    let specs = chains
        .into_iter()
        .enumerate()
        .map(|(i, chain)| SimPathSpec {
            label: format!("p{i}"),
            chain,
            cfg: SlopsConfig::default(),
        })
        .collect();
    let sched = ScheduleConfig {
        period: TimeNs::from_secs(8),
        jitter: TimeNs::from_secs(1),
        max_concurrent: 0,
        seed: seed ^ 0x5eed,
    };
    let mut mon = SimFleetMonitor::with_engine(
        sim,
        specs,
        &sched,
        &SeriesConfig::default(),
        TimeNs::from_secs(18),
        engine,
    )
    .unwrap();
    mon.run_to_completion();
    let series = mon
        .series()
        .iter()
        .map(|s| s.samples().copied().collect::<Vec<_>>())
        .collect();
    let stats = mon.engine_stats();
    (series, mon.shards(), stats.events_processed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Seed sweep: the sharded fleet's monitoring series is bit-identical
    /// to the single-queue fleet's, seed by seed, and the engines even
    /// dispatch the exact same number of events.
    #[test]
    fn sharded_fleet_series_bit_identical(seed in 1u64..1_000_000) {
        let (single, shards_single, ev_single) = fleet_run(seed, SimEngine::SingleQueue);
        let (sharded, shards_auto, ev_auto) = fleet_run(seed, SimEngine::Auto);
        prop_assert_eq!(shards_single, 1);
        prop_assert_eq!(shards_auto, 2, "two disjoint chains must shard 1:1");
        prop_assert!(single.iter().all(|s| !s.is_empty()), "fleet measured nothing");
        prop_assert_eq!(single, sharded);
        prop_assert_eq!(ev_single, ev_auto, "same fleet, same events");
    }
}

/// One measurement session per path with a recording trace sink; returns
/// each path's trace stream and final `[low, high]` estimate.
#[allow(clippy::type_complexity)]
fn session_traces(seed: u64, shard: bool) -> (Vec<Vec<TraceEvent>>, Vec<(Rate, Rate)>) {
    let mut sim = Simulator::new(seed);
    let chains = build_disjoint_paths(&mut sim, &two_path_loads(), &small_opts());
    if shard {
        assert_eq!(sim.try_shard().unwrap(), 2);
    }
    let start = sim.now() + TimeNs::from_millis(10);
    let mut ids = Vec::new();
    let mut sinks = Vec::new();
    for chain in &chains {
        let id = install_session_at(&mut sim, chain, SlopsConfig::default(), start).unwrap();
        let sink = Arc::new(VecSink::new());
        sim.app_mut::<SessionApp>(id).set_trace_sink(sink.clone());
        ids.push(id);
        sinks.push(sink);
    }
    // Cross-traffic sources never idle, so run a fixed horizon.
    sim.run_until(start + TimeNs::from_secs(20));
    let estimates = ids
        .iter()
        .map(|&id| {
            let est = sim
                .app_mut::<SessionApp>(id)
                .take_estimate()
                .expect("session did not finish within the horizon");
            (est.low, est.high)
        })
        .collect();
    (sinks.iter().map(|s| s.take()).collect(), estimates)
}

/// The machine-minted trace streams — every phase transition, stream
/// verdict, and fleet verdict, in order — are bit-identical per path
/// between the engines, and so are the estimates.
#[test]
fn sharded_traces_bit_identical() {
    let (traces_single, est_single) = session_traces(42, false);
    let (traces_sharded, est_sharded) = session_traces(42, true);
    assert!(traces_single.iter().all(|t| !t.is_empty()));
    assert_eq!(traces_single, traces_sharded);
    assert_eq!(est_single, est_sharded);
}

/// A shared-tight-link fleet cannot shard: every forward path crosses the
/// tight link, so the planner sees one component, refuses, and the fleet
/// keeps running (correctly) on the single queue — with results identical
/// to an explicitly single-queue run.
#[test]
fn shared_tight_link_refuses_and_still_measures() {
    let run = |engine: SimEngine| {
        let mut sim = Simulator::new(7);
        let mut cfg = SharedTightLinkConfig::default();
        cfg.warmup = TimeNs::from_millis(500);
        let topo = shared_tight_link(&mut sim, &cfg);
        let specs = topo
            .chains
            .into_iter()
            .enumerate()
            .map(|(i, chain)| SimPathSpec {
                label: format!("p{i}"),
                chain,
                cfg: SlopsConfig::default(),
            })
            .collect();
        let sched = ScheduleConfig {
            period: TimeNs::from_secs(8),
            jitter: TimeNs::from_secs(1),
            max_concurrent: 1, // serialize: the paths interfere at `tight`
            seed: 3,
        };
        let mut mon = SimFleetMonitor::with_engine(
            sim,
            specs,
            &sched,
            &SeriesConfig::default(),
            TimeNs::from_secs(18),
            engine,
        )
        .unwrap();
        mon.run_to_completion();
        let refusal = mon.shard_refusal().cloned();
        let shards = mon.shards();
        let series: Vec<Vec<RangeSample>> = mon
            .series()
            .iter()
            .map(|s| s.samples().copied().collect())
            .collect();
        (refusal, shards, series)
    };
    let (refusal, shards, series) = run(SimEngine::Auto);
    assert_eq!(refusal, Some(ShardRefusal::SingleComponent));
    assert_eq!(shards, 1, "refusal must leave the single queue running");
    assert!(series.iter().all(|s| !s.is_empty()));
    let (_, _, series_single) = run(SimEngine::SingleQueue);
    assert_eq!(series, series_single);
}

/// Retiring a session mid-measurement drops its in-flight events from
/// whichever shard owns them: the engine stays sharded, never panics, and
/// the other path's session is untouched.
#[test]
fn remove_app_retires_events_from_its_shard() {
    let mut sim = Simulator::new(11);
    let chains = build_disjoint_paths(&mut sim, &two_path_loads(), &small_opts());
    assert_eq!(sim.try_shard().unwrap(), 2);
    let start = sim.now() + TimeNs::from_millis(10);
    let doomed = install_session_at(&mut sim, &chains[0], SlopsConfig::default(), start).unwrap();
    let kept = install_session_at(&mut sim, &chains[1], SlopsConfig::default(), start).unwrap();
    // Run into the measurement so probe packets and timers are in flight…
    sim.run_until(start + TimeNs::from_millis(50));
    // …then the session goes away with events still pending in its shard.
    sim.remove_app(doomed);
    sim.run_until(start + TimeNs::from_secs(20));
    assert_eq!(sim.shards(), 2, "retirement must not collapse the engine");
    assert!(
        sim.app_mut::<SessionApp>(kept).take_estimate().is_some(),
        "the surviving path's session must finish normally"
    );
}

/// The driver drains the engine counters into the telemetry registry:
/// totals match the simulator's own stats exactly, and the shard gauge
/// reports the partition.
#[test]
fn engine_counters_reach_the_registry() {
    let mut sim = Simulator::new(5);
    let chains = build_disjoint_paths(&mut sim, &two_path_loads(), &small_opts());
    let specs = chains
        .into_iter()
        .enumerate()
        .map(|(i, chain)| SimPathSpec {
            label: format!("p{i}"),
            chain,
            cfg: SlopsConfig::default(),
        })
        .collect();
    let sched = ScheduleConfig {
        period: TimeNs::from_secs(8),
        jitter: TimeNs::from_secs(1),
        max_concurrent: 0,
        seed: 9,
    };
    let mut mon = SimFleetMonitor::new(
        sim,
        specs,
        &sched,
        &SeriesConfig::default(),
        TimeNs::from_secs(10),
    )
    .unwrap();
    let tele = FleetTelemetry::new();
    mon.attach_telemetry(&tele);
    mon.run_to_completion();
    let stats = mon.engine_stats();
    let reg = tele.registry();
    assert_eq!(
        reg.counter("sim_events_processed_total", &[]).get(),
        stats.events_processed
    );
    assert_eq!(
        reg.counter("sim_heap_ops_total", &[]).get(),
        stats.heap_ops()
    );
    assert_eq!(
        reg.counter("sim_front_hits_total", &[]).get(),
        stats.front_hits
    );
    assert_eq!(
        reg.counter("sim_attached_arrivals_total", &[]).get(),
        stats.attached_arrivals
    );
    assert!(
        stats.attached_arrivals > stats.events_processed,
        "the cross traffic is the links' own: {stats:?}"
    );
    assert_eq!(reg.gauge("sim_shards", &[]).get(), 2);
    assert!(reg.gauge("sim_heap_max_depth", &[]).get() > 0);
    assert!(stats.front_hits > 0, "the front slot must see traffic");
}

//! Engine golden values: estimates recorded from the event-per-departure
//! simulator (four events per one-hop cross-traffic packet), before links
//! fixed a packet's departure on arrival. An engine change that claims
//! "same results, fewer events" must keep every number here bit-identical
//! — not merely within noise. Re-record only when the *model* (link,
//! traffic, estimator) changes on purpose: each assertion prints the
//! values it saw.

use availbw::monitord::{ScheduleConfig, SeriesConfig, SimEngine, SimFleetMonitor, SimPathSpec};
use availbw::netsim::{Chain, Simulator};
use availbw::simprobe::scenarios::{
    build_disjoint_paths, shared_tight_link, LinkLoad, PaperPath, PaperPathConfig, PathOpts,
    SharedTightLinkConfig, TrafficModel,
};
use availbw::simprobe::{install_session, run_session};
use availbw::slops::{Estimate, Session, SlopsConfig};
use availbw::units::{Rate, TimeNs};

/// `(low, high)` as f64 bit patterns, the number of fleets spent, and the
/// simulated nanoseconds the session took.
type Golden = (u64, u64, usize, u64);

fn bits(est: &Estimate) -> Golden {
    (
        est.low.bps().to_bits(),
        est.high.bps().to_bits(),
        est.fleets.len(),
        est.elapsed.as_nanos(),
    )
}

const PAPER_PATH: [(u64, Golden); 4] = [
    (
        7,
        (0x4145f480ebbdb2a6, 0x4155f480ebbdb2a6, 3, 16_619_000_000),
    ),
    (
        77,
        (0x41430399eb43c9c5, 0x41530399eb43c9c5, 3, 18_887_800_000),
    ),
    (
        777,
        (0x4143f2358ae0358b, 0x4153f2358ae0358b, 3, 18_120_800_000),
    ),
    (
        7777,
        (0x41456a74c59d3168, 0x41556a74c59d3168, 3, 17_013_000_000),
    ),
];

#[test]
fn paper_path_estimates_are_pinned_for_both_in_sim_drivers() {
    let path_cfg = PaperPathConfig::default();
    let blocking = PAPER_PATH.map(|(seed, _)| {
        let mut t = PaperPath::build(&path_cfg, seed).into_transport();
        let est = Session::new(SlopsConfig::default()).run(&mut t).unwrap();
        (seed, bits(&est))
    });
    assert_eq!(blocking, PAPER_PATH, "blocking shim: {blocking:#x?}");
    let in_sim = PAPER_PATH.map(|(seed, _)| {
        let t = PaperPath::build(&path_cfg, seed).into_transport();
        let chain = t.chain().clone();
        let mut sim = t.into_sim();
        let id = install_session(&mut sim, &chain, SlopsConfig::default()).unwrap();
        let est = run_session(&mut sim, id, TimeNs::from_secs(3600)).expect("session finished");
        (seed, bits(&est))
    });
    assert_eq!(in_sim, PAPER_PATH, "SessionApp: {in_sim:#x?}");
}

/// Run a monitored fleet to completion; one fingerprint per path folding
/// every sample's `(started, duration, low, high)` bits, plus the sample
/// count.
fn fleet_fingerprints(
    sim: Simulator,
    chains: Vec<Chain>,
    max_concurrent: usize,
    horizon: TimeNs,
    engine: SimEngine,
) -> (Vec<(u64, usize)>, usize) {
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
        max_concurrent,
        seed: 0x5eed,
    };
    let mut mon = SimFleetMonitor::with_engine(
        sim,
        specs,
        &sched,
        &SeriesConfig::default(),
        horizon,
        engine,
    )
    .unwrap();
    mon.run_to_completion();
    let fps = mon
        .series()
        .iter()
        .map(|s| {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            let mut n = 0;
            for x in s.samples() {
                for w in [
                    x.started.as_nanos(),
                    x.duration.as_nanos(),
                    x.low.bps().to_bits(),
                    x.high.bps().to_bits(),
                ] {
                    h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
                }
                n += 1;
            }
            (h, n)
        })
        .collect();
    (fps, mon.shards())
}

const DISJOINT_FLEET: [(u64, usize); 4] = [
    (0x7d7c5a313071a0e4, 3),
    (0xb96994477be0741c, 2),
    (0xb9b8064dbd6e7997, 1),
    (0x73e79326f8bdd0d8, 1),
];

#[test]
fn disjoint_fleet_series_are_pinned_sharded_and_single_queue() {
    let run = |engine: SimEngine| {
        let mut sim = Simulator::new(11);
        let loads = vec![
            vec![LinkLoad::pareto(Rate::from_mbps(10.0), 0.30, 3)],
            vec![LinkLoad::pareto(Rate::from_mbps(20.0), 0.20, 3)],
            vec![
                LinkLoad::pareto(Rate::from_mbps(40.0), 0.10, 3),
                LinkLoad::pareto(Rate::from_mbps(12.0), 0.50, 3),
            ],
            vec![LinkLoad {
                model: TrafficModel::ParetoOnOff,
                ..LinkLoad::pareto(Rate::from_mbps(8.0), 0.40, 3)
            }],
        ];
        let mut opts = PathOpts::default();
        opts.warmup = TimeNs::from_millis(500);
        let chains = build_disjoint_paths(&mut sim, &loads, &opts);
        fleet_fingerprints(sim, chains, 0, TimeNs::from_secs(18), engine)
    };
    let (sharded, shards) = run(SimEngine::Auto);
    assert_eq!(shards, 4, "four disjoint chains shard 1:1");
    assert_eq!(sharded, DISJOINT_FLEET, "sharded: {sharded:#x?}");
    let (single, shards) = run(SimEngine::SingleQueue);
    assert_eq!(shards, 1);
    assert_eq!(single, DISJOINT_FLEET, "single queue: {single:#x?}");
}

const SHARED_FLEET: [(u64, usize); 3] = [
    (0x66fd2e8fdeda7834, 2),
    (0xe14bdda96dd73821, 1),
    (0xca9367f787f879cc, 1),
];

#[test]
fn shared_tight_link_fleet_series_are_pinned() {
    let mut sim = Simulator::new(7);
    let mut cfg = SharedTightLinkConfig::default();
    cfg.paths = 3;
    cfg.warmup = TimeNs::from_millis(500);
    let topo = shared_tight_link(&mut sim, &cfg);
    // Cap 1 serializes the paths: they interfere at the tight link.
    let horizon = TimeNs::from_secs(40);
    let (fps, shards) = fleet_fingerprints(sim, topo.chains, 1, horizon, SimEngine::Auto);
    assert_eq!(shards, 1, "one component: the planner refuses");
    assert_eq!(fps, SHARED_FLEET, "shared tight link: {fps:#x?}");
}

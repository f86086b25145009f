//! Engine golden values: estimates recorded from the event-per-departure
//! simulator (four events per one-hop cross-traffic packet), before links
//! fixed a packet's departure on arrival. An engine change that claims
//! "same results, fewer events" must keep every number here bit-identical
//! — not merely within noise. Re-record only when the *model* (link,
//! traffic, estimator) changes on purpose: each assertion prints the
//! values it saw.

use availbw::monitord::{ScheduleConfig, SeriesConfig, SimEngine, SimFleetMonitor, SimPathSpec};
use availbw::netsim::app::CountingSink;
use availbw::netsim::{Chain, ChainConfig, LinkConfig, RedConfig, RouteSpec, Simulator};
use availbw::simprobe::scenarios::{
    build_disjoint_paths, shared_tight_link, step_link_load, LinkLoad, PaperPath, PaperPathConfig,
    PathOpts, SharedTightLinkConfig, TrafficModel,
};
use availbw::simprobe::{install_session, run_session, SimTransport};
use availbw::slops::{stream_params, Estimate, ProbeTransport, Session, SlopsConfig, StreamRecord};
use availbw::traffic::{attach_onoff_sources, attach_sources, SourceConfig};
use availbw::units::{Rate, TimeNs};
use std::sync::Arc;

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

/// What a raw stream pins: samples received, the FNV fold of every
/// sample's `(idx, send_offset, owd_ns)`, and — for the reader — the
/// first and last OWD.
type RawStream = (usize, u64, i64, i64);

fn raw_stream(rec: &StreamRecord) -> RawStream {
    let fold = rec.samples.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, s| {
        [s.idx as u64, s.send_offset.as_nanos(), s.owd_ns as u64]
            .iter()
            .fold(h, |h, w| (h ^ w).wrapping_mul(0x0000_0100_0000_01b3))
    });
    let owds = rec.owds();
    (owds.len(), fold, owds[0], owds[owds.len() - 1])
}

/// The probe verbs with no machine in between — the surface the
/// `baselines` crate (cprobe, TOPP, Delphi) stands on: one train, a stream
/// below the 4 Mb/s avail-bw and one above it, called directly on a
/// `PaperPath` transport, and where each call leaves the clock.
#[test]
fn raw_probe_records_are_pinned() {
    let mut t = PaperPath::build(&PaperPathConfig::default(), 7).into_transport();
    let cfg = SlopsConfig::default();
    let train = t.send_train(48, 1500).unwrap();
    let got_train = (
        train.sent,
        train.received,
        train.size,
        train.first_recv.as_nanos(),
        train.last_recv.as_nanos(),
        t.elapsed().as_nanos(),
    );
    let want_train = (48, 48, 1500, 2_053_705_000, 2_115_004_000, 2_120_000_000);
    assert_eq!(got_train, want_train, "train: {got_train:?}");
    // (rate in Mb/s, the stream as `raw_stream` folds it, the clock after).
    let below = (100, 0x6046_4f75_7678_5a49, -7_727_458_000, -7_726_742_000);
    let above = (100, 0x3b6e_556a_bfc1_04d1, -7_726_549_000, -7_718_200_000);
    let streams: [(f64, RawStream, u64); 2] =
        [(2.5, below, 2_240_000_000), (7.0, above, 2_325_000_000)];
    for (id, (mbps, want, clock)) in streams.into_iter().enumerate() {
        let req = stream_params(Rate::from_mbps(mbps), id as u32, &cfg);
        let got = (raw_stream(&t.send_stream(&req).unwrap()), t.elapsed());
        assert_eq!(got, (want, TimeNs::from_nanos(clock)), "{mbps} Mb/s");
    }
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

// --- The neighbourhood of the golden set --------------------------------
//
// Recorded at the two-events-per-cross-packet engine, before links pulled
// their one-hop arrival processes: the places where a link draws from its
// own `Prng` in arrival order (`drop_prob`, RED), where acceptance depends
// on exact occupancy (a drop-tail buffer that overflows), the second
// traffic model (Pareto on/off), and sources attached mid-run.

/// What a neighbourhood case pins: each session's estimate, then — at the
/// clock the last session ended on — the loaded link's counters
/// `[tx_packets, tx_bytes, drops_overflow, drops_fault, busy_ns,
/// max_queue_bytes]` and the cross-traffic sink's `(packets, bytes,
/// last_arrival)`.
type Neighbour = (Vec<Golden>, [u64; 6], (u64, u64, u64));

/// A 40 / 10 / 40 Mb/s chain whose middle link is `tight`; `load` attaches
/// the cross traffic to the middle hop's one-link route into a counting
/// sink. One second of warm-up, then `sessions` measurements back to back
/// over the blocking shim, with `between` called on the simulator after
/// each but the last.
fn neighbourhood(
    seed: u64,
    tight: LinkConfig,
    load: impl FnOnce(&mut Simulator, Arc<RouteSpec>),
    sessions: usize,
    mut between: impl FnMut(&mut Simulator, &Chain, availbw::netsim::AppId),
) -> Neighbour {
    let mut sim = Simulator::new(seed);
    let edge = || LinkConfig::new(Rate::from_mbps(40.0), TimeNs::from_millis(5));
    let chain = Chain::build(
        &mut sim,
        &ChainConfig::symmetric(vec![edge(), tight, edge()]),
    );
    let sink = sim.add_app(Box::new(CountingSink::default()));
    let route = chain.hop_route(&sim, 1, sink);
    load(&mut sim, route);
    let mut t = SimTransport::new(sim, chain);
    t.sim_mut().run_until(TimeNs::from_secs(1));
    let mut ests = Vec::new();
    for i in 0..sessions {
        let est = Session::new(SlopsConfig::default()).run(&mut t).unwrap();
        ests.push(bits(&est));
        if i + 1 < sessions {
            let chain = t.chain().clone();
            between(t.sim_mut(), &chain, sink);
        }
    }
    let sim = t.sim();
    let st = &sim.link(t.chain().forward[1]).stats;
    let s = sim.app::<CountingSink>(sink);
    (
        ests,
        [
            st.tx_packets,
            st.tx_bytes,
            st.drops_overflow,
            st.drops_fault,
            st.busy_ns,
            st.max_queue_bytes,
        ],
        (s.packets, s.bytes, s.last_arrival.as_nanos()),
    )
}

fn tight_link() -> LinkConfig {
    LinkConfig::new(Rate::from_mbps(10.0), TimeNs::from_millis(10))
}

fn pareto_6mbps(sim: &mut Simulator, route: Arc<RouteSpec>) {
    attach_sources(
        sim,
        route,
        Rate::from_mbps(6.0),
        10,
        &SourceConfig::paper_pareto(),
    );
}

fn no_step(_: &mut Simulator, _: &Chain, _: availbw::netsim::AppId) {}

#[test]
fn drop_prob_link_is_pinned() {
    let got = neighbourhood(
        21,
        tight_link().with_drop_prob(0.01),
        pareto_6mbps,
        1,
        no_step,
    );
    let want: Neighbour = (
        vec![(0x414d223be03aa769, 0x415851197f7d7341, 5, 40_722_100_000)],
        [75_648, 31_891_950, 0, 778, 25_513_560_000, 66_010],
        (69_642, 30_625_620, 41_721_358_793),
    );
    assert_eq!(got, want, "drop_prob: {got:#x?}");
}

#[test]
fn red_link_is_pinned() {
    let limit = 24 * 1024;
    let tight = tight_link()
        .with_queue_limit(limit)
        .with_red(RedConfig::for_queue_limit(limit));
    let got = neighbourhood(22, tight, pareto_6mbps, 1, no_step);
    let want: Neighbour = (
        vec![(0x4143d10d4c77b035, 0x4153d10d4c77b035, 3, 18_064_200_000)],
        [35_904, 14_929_240, 34, 0, 11_943_392_000, 24_470],
        (32_262, 14_165_960, 19_064_096_699),
    );
    assert_eq!(got, want, "RED: {got:#x?}");
}

#[test]
fn overflowing_drop_tail_buffer_is_pinned() {
    let got = neighbourhood(
        23,
        tight_link().with_queue_limit(6000),
        pareto_6mbps,
        1,
        no_step,
    );
    let want: Neighbour = (
        vec![(0x4155b87f8b634d70, 0x41586a0000000000, 4, 24_154_500_000)],
        [47_079, 19_484_350, 278, 0, 15_587_480_000, 6_000],
        (42_296, 18_502_690, 25_153_480_194),
    );
    assert_eq!(got, want, "drop-tail: {got:#x?}");
}

#[test]
fn pareto_onoff_path_is_pinned() {
    let onoff = |sim: &mut Simulator, route| {
        attach_onoff_sources(sim, route, Rate::from_mbps(5.0), 8);
    };
    let got = neighbourhood(24, tight_link(), onoff, 1, no_step);
    let want: Neighbour = (
        vec![(0x41456a74c59d3168, 0x41556a74c59d3168, 3, 15_908_000_000)],
        [12_786, 9_930_000, 0, 0, 7_944_000_000, 63_500],
        (9_132, 9_132_000, 16_907_967_345),
    );
    assert_eq!(got, want, "on/off: {got:#x?}");
}

#[test]
fn step_link_load_mid_run_is_pinned() {
    let light = |sim: &mut Simulator, route| {
        attach_sources(
            sim,
            route,
            Rate::from_mbps(3.0),
            5,
            &SourceConfig::paper_pareto(),
        );
    };
    let step = |sim: &mut Simulator, chain: &Chain, sink| {
        step_link_load(
            sim,
            chain.forward[1],
            sink,
            Rate::from_mbps(3.0),
            5,
            &SourceConfig::paper_poisson(),
        );
    };
    let got = neighbourhood(25, tight_link(), light, 2, step);
    let want: Neighbour = (
        vec![
            (0x415ae3428995fdbf, 0x416025990ee643b9, 4, 12_174_800_000),
            (0x41455749660abdc3, 0x41555749660abdc3, 3, 15_911_200_000),
        ],
        [46_615, 18_402_960, 0, 0, 14_722_368_000, 62_590],
        (38_103, 16_573_220, 29_085_782_627),
    );
    assert_eq!(got, want, "step: {got:#x?}");
}

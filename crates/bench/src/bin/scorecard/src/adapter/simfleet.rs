//! Many monitored paths inside one simulator: `monitord::SimFleetMonitor`
//! over disjoint chains (the engine shards) or over one shared tight link
//! (it cannot).

use super::{EngineStats, Est, PathProbeCounters, ProbeCounts};
use monitord::scheduler::TICK;
use monitord::{FleetTelemetry, ScheduleConfig, SeriesConfig, SimFleetMonitor, SimPathSpec};
use netsim::{Chain, Simulator};
use simprobe::scenarios::{
    build_disjoint_paths, shared_tight_link, LinkLoad, PathOpts, SharedTightLinkConfig,
};
use slops::SlopsConfig;
use units::{Rate, TimeNs};

/// Far enough out that the wall-clock budget, not the scheduler, ends the
/// run (the scheduler stops issuing starts at its horizon).
const HORIZON: TimeNs = TimeNs::from_secs(1_000_000);

/// Simulated nanoseconds per [`SimFleet::tick`].
pub const TICK_NS: u64 = TICK.as_nanos();

pub struct SimFleet {
    mon: SimFleetMonitor,
    /// Per-path handles on the trace counters of the attached
    /// `FleetTelemetry` registry.
    counters: Vec<PathProbeCounters>,
    truth_bps: Vec<f64>,
    /// Samples already handed out, per path (retained + evicted).
    seen: Vec<u64>,
    /// Probe cost of the sessions that have **finished**, per path: read
    /// from the registry at the tick a path's sample appears, when its
    /// next session has not yet completed a stream.
    settled: Vec<ProbeCounts>,
}

impl SimFleet {
    /// 256 disjoint one-hop paths (5/10/20 Mb/s, 20 % Pareto load, two
    /// sources each), every path measuring back to back without a
    /// concurrency cap — the `BENCH_9.json` configuration.
    pub fn disjoint(seed: u64) -> SimFleet {
        const PATHS: usize = 256;
        let mut sim = Simulator::new(seed);
        let loads: Vec<Vec<LinkLoad>> = (0..PATHS)
            .map(|i| {
                let cap = [5.0, 10.0, 20.0][i % 3];
                vec![LinkLoad::pareto(Rate::from_mbps(cap), 0.20, 2)]
            })
            .collect();
        let opts = PathOpts {
            warmup: TimeNs::from_millis(500),
            ..PathOpts::default()
        };
        let chains = build_disjoint_paths(&mut sim, &loads, &opts);
        let truth = loads.iter().map(|l| l[0].avail().bps()).collect();
        let sched = ScheduleConfig {
            period: TimeNs::from_secs(4),
            jitter: TimeNs::from_secs(2),
            max_concurrent: 0,
            seed,
        };
        SimFleet::monitor(sim, chains, truth, &sched)
    }

    /// 64 paths through one 50 Mb/s tight link at 60 % load (100 Pareto
    /// sources, A = 20 Mb/s) behind 1 Gb/s edges, measured one at a time:
    /// the schedule wants ~23 at once, so the concurrency cap is what
    /// paces the fleet. One connected component: the shard planner must
    /// refuse.
    ///
    /// The cap is 1 because probe streams of concurrent measurements
    /// collide on the tight link, and whether two sessions' streams fall
    /// into step is decided once per run: with a cap of 4 the share of
    /// ranges covering A swung 0.25–0.41 between seeds, which no bound
    /// could gate. Serialised, accuracy is a property of the estimator.
    pub fn shared(seed: u64) -> SimFleet {
        const PATHS: usize = 64;
        let mut sim = Simulator::new(seed);
        let cfg = SharedTightLinkConfig {
            paths: PATHS,
            tight: LinkLoad::pareto(Rate::from_mbps(50.0), 0.60, 100),
            edge_capacity: Rate::from_mbps(1000.0),
            ..SharedTightLinkConfig::default()
        };
        let topo = shared_tight_link(&mut sim, &cfg);
        let truth = vec![cfg.tight.avail().bps(); PATHS];
        let sched = ScheduleConfig {
            period: TimeNs::from_secs(30),
            jitter: TimeNs::from_secs(5),
            max_concurrent: 1,
            seed,
        };
        SimFleet::monitor(sim, topo.chains, truth, &sched)
    }

    fn monitor(
        sim: Simulator,
        chains: Vec<Chain>,
        truth_bps: Vec<f64>,
        sched: &ScheduleConfig,
    ) -> SimFleet {
        let labels: Vec<String> = (0..chains.len()).map(|i| format!("p{i}")).collect();
        let specs = chains
            .into_iter()
            .zip(&labels)
            .map(|(chain, label)| SimPathSpec {
                label: label.clone(),
                chain,
                cfg: SlopsConfig::default(),
            })
            .collect();
        let horizon = sim.now() + HORIZON;
        let mut mon = SimFleetMonitor::new(sim, specs, sched, &SeriesConfig::default(), horizon)
            .expect("the default SlopsConfig is valid");
        let tele = FleetTelemetry::new();
        mon.attach_telemetry(&tele);
        let counters = labels
            .iter()
            .map(|l| PathProbeCounters::resolve(tele.registry(), l))
            .collect();
        let n = labels.len();
        SimFleet {
            mon,
            counters,
            truth_bps,
            seen: vec![0; n],
            settled: vec![ProbeCounts::default(); n],
        }
    }

    /// Advance the simulation by one scheduler tick and append the
    /// measurements that finished in it, in path order.
    pub fn tick(&mut self, out: &mut Vec<Est>) {
        let target = self.mon.sim().now() + TICK;
        self.mon.run_until(target);
        for (p, series) in self.mon.series().iter().enumerate() {
            let total = series.len() as u64 + series.evicted();
            let fresh = (total - self.seen[p]) as usize;
            if fresh == 0 {
                continue;
            }
            self.seen[p] = total;
            for s in series.samples().skip(series.len() - fresh) {
                out.push(Est {
                    path: p as u32,
                    started_ns: s.started.as_nanos(),
                    latency_ns: s.duration.as_nanos(),
                    low_bps: s.low.bps(),
                    high_bps: s.high.bps(),
                    truth_bps: self.truth_bps[p],
                });
            }
            self.settled[p] = self.counters[p].read(&SlopsConfig::default());
        }
    }

    /// Probe cost of every finished measurement so far.
    pub fn probe_counts(&self) -> ProbeCounts {
        self.settled.iter().copied().sum()
    }

    pub fn engine(&self) -> EngineStats {
        self.mon.engine_stats()
    }

    pub fn shards(&self) -> usize {
        self.mon.shards()
    }

    pub fn paths(&self) -> usize {
        self.counters.len()
    }
}

//! The in-sim fleet driver: N monitored paths inside **one** simulation.
//!
//! Each scheduled measurement is installed as a fresh
//! [`simprobe::SessionApp`] (the event-driven driver over the sans-IO
//! machine), so all sessions, cross traffic, TCP flows — anything living
//! in the simulator — share one ordinary event loop. Paths may be disjoint
//! or share links (e.g. [`simprobe::scenarios::shared_tight_link`]), which
//! is what enables the §VI cross-traffic-dynamics scenarios: step the load
//! mid-run through [`SimFleetMonitor::sim_mut`] and watch the change
//! detector flag it.
//!
//! The driver is a pump over the sans-IO [`Fleet`]: it installs the
//! fleet's starts, advances the simulation on the scheduler's [`TICK`]
//! grid and hands completions back after every tick, so every scheduling
//! decision is made with exact completion times — byte-identical to the
//! thread-backed driver on independent paths (pinned by
//! `tests/fleet_monitoring.rs`).

use crate::fleet::Fleet;
use crate::metrics::FleetTelemetry;
use crate::scheduler::{ScheduleConfig, TICK};
use crate::store::{PathSeries, SeriesConfig};
use netsim::{AppId, Chain, EngineStats, LinkId, ShardRefusal, Simulator};
use simprobe::{install_session_at, SessionApp};
use slops::{SlopsConfig, SlopsError};
use std::sync::Arc;
use telemetry::{Counter, Gauge, TraceSink};
use units::TimeNs;

/// One monitored path of an in-sim fleet.
pub struct SimPathSpec {
    /// Label carried into the series and the export layer.
    pub label: String,
    /// The path through the shared simulator.
    pub chain: Chain,
    /// Measurement configuration for this path.
    pub cfg: SlopsConfig,
}

struct PathRuntime {
    chain: Chain,
    cfg: SlopsConfig,
    /// The running measurement, if any: `(app, start instant)`.
    running: Option<(AppId, TimeNs)>,
}

/// Which event engine the in-sim fleet runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimEngine {
    /// Try to shard the event queue per connected component; fall back to
    /// the single queue if the topology refuses (shared links). This is
    /// what [`SimFleetMonitor::new`] uses — sharding is bit-identical on
    /// per-path observables, so it is safe to be the default.
    Auto,
    /// Force the single global event queue (the A/B baseline for the
    /// fleet benchmark and the equivalence tests).
    SingleQueue,
}

/// Resolved telemetry handles for the engine counters, plus the last
/// published snapshot so the monotonic counters can be fed deltas.
struct EngineTelemetry {
    events: Counter,
    heap_ops: Counter,
    front_hits: Counter,
    attached_arrivals: Counter,
    shards: Gauge,
    heap_max_depth: Gauge,
    last: EngineStats,
    /// Per-path trace sinks (machine-minted events → registry), applied
    /// to each session at install time.
    sinks: Vec<Arc<dyn TraceSink>>,
}

/// A multi-path monitoring daemon over one simulator. Build with
/// [`SimFleetMonitor::new`], drive with [`SimFleetMonitor::run_until`] /
/// [`SimFleetMonitor::run_to_completion`], read the per-path series with
/// [`SimFleetMonitor::series`].
pub struct SimFleetMonitor {
    sim: Simulator,
    fleet: Fleet,
    paths: Vec<PathRuntime>,
    /// Why the topology could not shard (None when sharded or forced
    /// single-queue).
    shard_refusal: Option<ShardRefusal>,
    tele: Option<EngineTelemetry>,
}

impl SimFleetMonitor {
    /// Create the monitor on the [`SimEngine::Auto`] engine. Scheduling
    /// starts at the simulator's current instant (warm the topology up
    /// first) and no measurement starts at or after `horizon`. Every
    /// path's config is validated up front.
    pub fn new(
        sim: Simulator,
        paths: Vec<SimPathSpec>,
        sched_cfg: &ScheduleConfig,
        series_cfg: &SeriesConfig,
        horizon: TimeNs,
    ) -> Result<SimFleetMonitor, SlopsError> {
        Self::with_engine(sim, paths, sched_cfg, series_cfg, horizon, SimEngine::Auto)
    }

    /// [`SimFleetMonitor::new`] with an explicit engine choice. Every
    /// path's chain (both directions) is bound as one component with the
    /// shard planner, so a fleet of disjoint chains shards 1:1 with its
    /// paths; fleets sharing links refuse and stay on the single queue.
    pub fn with_engine(
        mut sim: Simulator,
        paths: Vec<SimPathSpec>,
        sched_cfg: &ScheduleConfig,
        series_cfg: &SeriesConfig,
        horizon: TimeNs,
        engine: SimEngine,
    ) -> Result<SimFleetMonitor, SlopsError> {
        let fleet = Fleet::new(
            paths.iter().map(|p| (p.label.as_str(), &p.cfg)),
            sim.now(),
            horizon,
            sched_cfg,
            series_cfg,
        )?;
        for p in &paths {
            let links: Vec<LinkId> = p
                .chain
                .forward
                .iter()
                .chain(p.chain.reverse.iter())
                .copied()
                .collect();
            sim.bind_links(&links);
        }
        let shard_refusal = match engine {
            SimEngine::SingleQueue => None,
            SimEngine::Auto => sim.try_shard().err(),
        };
        let paths = paths
            .into_iter()
            .map(|p| PathRuntime {
                chain: p.chain,
                cfg: p.cfg,
                running: None,
            })
            .collect();
        Ok(SimFleetMonitor {
            sim,
            fleet,
            paths,
            shard_refusal,
            tele: None,
        })
    }

    /// Wire the engine counters, the scheduler gauges and per-path trace
    /// sinks into a fleet telemetry hub: `sim_events_processed_total`,
    /// `sim_heap_ops_total`, `sim_front_hits_total`,
    /// `sim_attached_arrivals_total` (packets the links pulled from their
    /// one-hop sources without any event), `sim_shards`,
    /// `sim_heap_max_depth`, `scheduler_{running,backlog,started,overruns}`.
    /// The sans-IO simulator only exposes plain [`EngineStats`]; this
    /// driver drains them — and the fleet core mirrors the scheduler —
    /// into the registry at the end of every [`SimFleetMonitor::run_until`]
    /// (the `drain_trace()` idiom).
    pub fn attach_telemetry(&mut self, tele: &FleetTelemetry) {
        self.fleet.attach_telemetry(tele);
        let reg = tele.registry();
        let sinks = self
            .fleet
            .series()
            .iter()
            .map(|s| tele.trace_sink(s.label()))
            .collect();
        let mut t = EngineTelemetry {
            events: reg.counter("sim_events_processed_total", &[]),
            heap_ops: reg.counter("sim_heap_ops_total", &[]),
            front_hits: reg.counter("sim_front_hits_total", &[]),
            attached_arrivals: reg.counter("sim_attached_arrivals_total", &[]),
            shards: reg.gauge("sim_shards", &[]),
            heap_max_depth: reg.gauge("sim_heap_max_depth", &[]),
            last: EngineStats::default(),
            sinks,
        };
        // Everything the engine did before attachment counts too.
        let stats = self.sim.engine_stats();
        t.events.add(stats.events_processed);
        t.heap_ops.add(stats.heap_ops());
        t.front_hits.add(stats.front_hits);
        t.attached_arrivals.add(stats.attached_arrivals);
        t.shards.set(stats.shards as i64);
        t.heap_max_depth.set(stats.heap_max_depth as i64);
        t.last = stats;
        self.tele = Some(t);
    }

    /// Push engine-counter deltas since the last publication into the
    /// attached registry (no-op when telemetry is not attached).
    fn publish_engine_stats(&mut self) {
        let Some(t) = &mut self.tele else {
            return;
        };
        let stats = self.sim.engine_stats();
        t.events
            .add(stats.events_processed - t.last.events_processed);
        t.heap_ops.add(stats.heap_ops() - t.last.heap_ops());
        t.front_hits.add(stats.front_hits - t.last.front_hits);
        t.attached_arrivals
            .add(stats.attached_arrivals - t.last.attached_arrivals);
        t.shards.set(stats.shards as i64);
        t.heap_max_depth.set(stats.heap_max_depth as i64);
        t.last = stats;
    }

    /// Install every start the fleet can issue right now.
    fn install_ready(&mut self) {
        while let Some((p, at)) = self.fleet.next_start() {
            debug_assert!(self.paths[p].running.is_none());
            debug_assert!(at >= self.sim.now(), "start instant in the simulated past");
            let id = install_session_at(
                &mut self.sim,
                &self.paths[p].chain,
                self.paths[p].cfg.clone(),
                at,
            )
            .expect("config validated at construction");
            if let Some(t) = &self.tele {
                self.sim
                    .app_mut::<SessionApp>(id)
                    .set_trace_sink(t.sinks[p].clone());
            }
            self.paths[p].running = Some((id, at));
        }
    }

    /// Harvest finished sessions: retire the app, hand the estimate to the
    /// fleet (which stores it and frees the scheduler slot).
    fn harvest(&mut self) {
        for (p, path) in self.paths.iter_mut().enumerate() {
            let Some((id, at)) = path.running else {
                continue;
            };
            let Some(est) = self.sim.app_mut::<SessionApp>(id).take_estimate() else {
                continue;
            };
            self.sim.remove_app(id);
            path.running = None;
            let finished = at + est.elapsed;
            self.fleet.complete(p, at, Ok(est), finished, &mut |_| {});
        }
    }

    /// Advance the simulation (and the schedule) to instant `t`, ticking
    /// on the scheduler grid so completions are harvested — and new starts
    /// issued — within one [`TICK`] of happening.
    ///
    /// Cross-driver series equivalence is guaranteed for targets on the
    /// tick grid relative to the fleet epoch ([`run_to_completion`]
    /// always is); an off-grid target inserts one off-grid harvest, which
    /// can reveal a completion slightly earlier than the thread-backed
    /// driver's tick-granular replay would.
    ///
    /// [`run_to_completion`]: SimFleetMonitor::run_to_completion
    pub fn run_until(&mut self, t: TimeNs) {
        loop {
            self.install_ready();
            let now = self.sim.now();
            if now >= t {
                self.publish_engine_stats();
                self.fleet.observe(now);
                return;
            }
            // The next grid instant strictly after `now`, clamped to `t`.
            let t0 = self.fleet.scheduler().t0();
            let elapsed = (now - t0).as_nanos();
            let next_tick =
                t0 + TimeNs::from_nanos((elapsed / TICK.as_nanos() + 1) * TICK.as_nanos());
            self.sim.run_until(next_tick.min(t));
            self.harvest();
        }
    }

    /// Run until every path has reached the horizon and its last
    /// measurement finished (the clock may pass the horizon: a measurement
    /// started just before it is allowed to complete).
    pub fn run_to_completion(&mut self) {
        while !self.fleet.scheduler().is_done() {
            let t = self.sim.now() + TICK;
            self.run_until(t);
        }
    }

    /// The per-path series, in path order.
    pub fn series(&self) -> &[PathSeries] {
        self.fleet.series()
    }

    /// Consume the monitor, returning the per-path series.
    pub fn into_series(self) -> Vec<PathSeries> {
        self.fleet.into_series()
    }

    /// Measurements started so far across the fleet.
    pub fn measurements_started(&self) -> u64 {
        self.fleet.scheduler().started()
    }

    /// Number of event-queue shards the engine is running (1 = single
    /// queue).
    pub fn shards(&self) -> usize {
        self.sim.shards()
    }

    /// Why [`SimEngine::Auto`] could not shard this fleet's topology
    /// (`None` when sharded, or when single-queue was forced).
    pub fn shard_refusal(&self) -> Option<&ShardRefusal> {
        self.shard_refusal.as_ref()
    }

    /// The engine's aggregate counters (events, heap ops, front-slot
    /// hits, pool peak) — plain data straight from the simulator.
    pub fn engine_stats(&self) -> EngineStats {
        self.sim.engine_stats()
    }

    /// Borrow the simulator (link stats, utilization monitors, ...).
    pub fn sim(&self) -> &Simulator {
        &self.sim
    }

    /// Mutably borrow the simulator — e.g. to step cross traffic mid-run
    /// ([`simprobe::scenarios::step_link_load`]) between
    /// [`SimFleetMonitor::run_until`] calls.
    pub fn sim_mut(&mut self) -> &mut Simulator {
        &mut self.sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{Chain, ChainConfig, LinkConfig};
    use units::Rate;

    fn empty_chain(sim: &mut Simulator, mbps: f64) -> Chain {
        Chain::build(
            sim,
            &ChainConfig::symmetric(vec![
                LinkConfig::new(Rate::from_mbps(mbps + 2.0), TimeNs::from_millis(5)),
                LinkConfig::new(Rate::from_mbps(mbps), TimeNs::from_millis(5)),
            ]),
        )
    }

    #[test]
    fn two_unloaded_paths_measure_their_capacities() {
        let mut sim = Simulator::new(9);
        let chains = [empty_chain(&mut sim, 8.0), empty_chain(&mut sim, 16.0)];
        let paths = chains
            .into_iter()
            .enumerate()
            .map(|(i, chain)| SimPathSpec {
                label: format!("p{i}"),
                chain,
                cfg: SlopsConfig::default(),
            })
            .collect();
        let sched = ScheduleConfig {
            period: TimeNs::from_secs(10),
            jitter: TimeNs::from_secs(1),
            max_concurrent: 0,
            seed: 1,
        };
        let mut mon = SimFleetMonitor::new(
            sim,
            paths,
            &sched,
            &SeriesConfig::default(),
            TimeNs::from_secs(40),
        )
        .unwrap();
        mon.run_to_completion();
        for (i, want) in [(0usize, 8.0), (1, 16.0)] {
            let s = &mon.series()[i];
            assert!(s.len() >= 3, "path {i}: only {} samples", s.len());
            for r in s.samples() {
                assert!(
                    r.low.mbps() <= want && want <= r.high.mbps() + 0.5,
                    "path {i}: [{}, {}] should bracket {want}",
                    r.low,
                    r.high
                );
            }
        }
        assert!(mon.measurements_started() >= 6);
    }

    /// `n` unloaded two-hop paths of 8, 12, 16, … Mb/s, measured every
    /// 10 s, uncapped, with a hub attached.
    fn hub_fleet(n: usize, horizon: TimeNs) -> (SimFleetMonitor, FleetTelemetry) {
        let mut sim = Simulator::new(3);
        let paths = (0..n)
            .map(|i| SimPathSpec {
                label: format!("p{i}"),
                chain: empty_chain(&mut sim, 8.0 + 4.0 * i as f64),
                cfg: SlopsConfig::default(),
            })
            .collect();
        let sched = ScheduleConfig {
            period: TimeNs::from_secs(10),
            jitter: TimeNs::from_secs(2),
            max_concurrent: 0,
            seed: 4,
        };
        let mut mon =
            SimFleetMonitor::new(sim, paths, &sched, &SeriesConfig::default(), horizon).unwrap();
        let tele = FleetTelemetry::new();
        mon.attach_telemetry(&tele);
        (mon, tele)
    }

    /// The in-sim driver mirrors the scheduler gauges like the other two:
    /// a hub attached here reads the fleet's own start count.
    #[test]
    fn attached_hub_reads_the_scheduler_gauges() {
        let (mut mon, tele) = hub_fleet(2, TimeNs::from_secs(30));
        mon.run_to_completion();
        let (running, _, started, _) = tele.scheduler_snapshot();
        assert!(mon.measurements_started() >= 4);
        assert_eq!(started, mon.measurements_started() as i64);
        assert_eq!(running, 0, "nothing runs once the fleet is done");
        let text = tele.registry().render_prometheus();
        assert!(
            text.contains(&format!("scheduler_started {started}")),
            "{text}"
        );
    }

    /// The telemetry budget as an op count, on the in-sim driver: once
    /// every path has been measured, further estimates — and the
    /// per-slice engine and scheduler mirrors — take no registry lookup.
    #[test]
    fn steady_state_estimates_take_no_registry_lookups() {
        const N: usize = 8;
        let (mut mon, tele) = hub_fleet(N, TimeNs::from_secs(1_000));
        let measured_by =
            |mon: &SimFleetMonitor, k: usize| mon.series().iter().all(|s| s.len() >= k);
        while !measured_by(&mon, 1) {
            let t = mon.sim().now() + TICK;
            mon.run_until(t);
        }
        let steady = tele.registry().lookups();
        while !measured_by(&mon, 3) {
            let t = mon.sim().now() + TICK;
            mon.run_until(t);
        }
        assert_eq!(
            tele.registry().lookups(),
            steady,
            "estimates after the first wave looked metrics up"
        );
    }

    #[test]
    fn bad_config_rejected_up_front() {
        let mut sim = Simulator::new(9);
        let chain = empty_chain(&mut sim, 8.0);
        let mut cfg = SlopsConfig::default();
        cfg.fleet_fraction = 0.1;
        let err = SimFleetMonitor::new(
            sim,
            vec![SimPathSpec {
                label: "p0".into(),
                chain,
                cfg,
            }],
            &ScheduleConfig::default(),
            &SeriesConfig::default(),
            TimeNs::from_secs(10),
        );
        assert!(err.is_err());
    }
}

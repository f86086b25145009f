//! The fleet-scale engine benchmark: a 256-disjoint-path in-sim monitored
//! fleet driven through `SimFleetMonitor`, run once on the sharded engine
//! and once on the single-queue baseline.
//!
//! Wall-clock on a small shared host is noise (ARCHITECTURE.md §
//! Performance notes), so the numbers that matter are the engine's own op
//! counts, one greppable `fleet256 …` line per engine: events per
//! estimate, real heap ops per event, and the comparison-weight proxy
//! (Σ ceil(log2(depth)) per heap op) where the log(global) →
//! log(per-shard) win shows even when raw op counts converge. Each line
//! also carries the run's events per wall-clock second. Results are
//! committed as `docs/history/BENCH_9.json`.

use monitord::{ScheduleConfig, SeriesConfig, SimEngine, SimFleetMonitor, SimPathSpec};
use netsim::{EngineStats, Simulator};
use simprobe::scenarios::{build_disjoint_paths, LinkLoad, PathOpts};
use slops::SlopsConfig;
use units::{Rate, TimeNs};

const PATHS: usize = 256;
const SEED: u64 = 0xF1EE7;

/// Build and run the whole monitored fleet; returns (engine stats,
/// estimates harvested, shard count).
fn run_fleet(engine: SimEngine) -> (EngineStats, u64, usize) {
    let mut sim = Simulator::new(SEED);
    // 256 disjoint one-hop paths, capacities cycling 5/10/20 Mb/s, each
    // carrying modest Pareto cross traffic — small enough links that the
    // probe logic (not the cross traffic) dominates the event count.
    let loads: Vec<Vec<LinkLoad>> = (0..PATHS)
        .map(|i| {
            let cap = [5.0, 10.0, 20.0][i % 3];
            vec![LinkLoad::pareto(Rate::from_mbps(cap), 0.20, 2)]
        })
        .collect();
    let mut opts = PathOpts::default();
    opts.warmup = TimeNs::from_millis(500);
    let chains = build_disjoint_paths(&mut sim, &loads, &opts);
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
        period: TimeNs::from_secs(4),
        jitter: TimeNs::from_secs(2),
        max_concurrent: 0, // uncapped: all 256 paths measure concurrently
        seed: SEED,
    };
    let mut mon = SimFleetMonitor::with_engine(
        sim,
        specs,
        &sched,
        &SeriesConfig::default(),
        TimeNs::from_secs(8),
        engine,
    )
    .expect("default config is valid");
    mon.run_to_completion();
    let estimates: u64 = mon.series().iter().map(|s| s.len() as u64).sum();
    (mon.engine_stats(), estimates, mon.shards())
}

/// One instrumented, timed run per engine, printed as greppable `fleet256`
/// lines (the op-count record for docs/history/BENCH_9.json).
fn main() {
    let mut per_engine = Vec::new();
    for (name, engine) in [
        ("sharded", SimEngine::Auto),
        ("single-queue", SimEngine::SingleQueue),
    ] {
        let t = std::time::Instant::now();
        let (s, estimates, shards) = run_fleet(engine);
        let secs = t.elapsed().as_secs_f64();
        println!(
            "fleet256 {name}: shards={shards} events={} estimates={estimates} \
             events/estimate={:.0} heap_ops={} ({:.3}/event) cmp_weight/event={:.2} \
             front_hits={} max_depth={} pool_peak={} events/sec={:.0}",
            s.events_processed,
            s.events_processed as f64 / estimates.max(1) as f64,
            s.heap_ops(),
            s.heap_ops_per_event(),
            s.cmp_weight_per_event(),
            s.front_hits,
            s.heap_max_depth,
            s.pool_live_max,
            s.events_processed as f64 / secs,
        );
        per_engine.push(s);
    }
    let (sharded, single) = (per_engine[0], per_engine[1]);
    assert_eq!(
        sharded.events_processed, single.events_processed,
        "both engines must dispatch the same fleet"
    );
    println!(
        "fleet256 reduction: heap_ops/event {:.2}x cmp_weight/event {:.2}x max_depth {:.2}x",
        single.heap_ops_per_event() / sharded.heap_ops_per_event(),
        single.cmp_weight_per_event() / sharded.cmp_weight_per_event(),
        single.heap_max_depth as f64 / sharded.heap_max_depth as f64,
    );
}

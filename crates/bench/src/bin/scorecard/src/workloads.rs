//! The five workloads. Each `run_*` executes one **pass**: set up, drive
//! the stack until the budget is spent, and return what happened in plain
//! numbers. `report.rs` turns passes into metrics.

use crate::adapter::oracle::{OracleFleet, StopAfter};
use crate::adapter::simfleet::{SimFleet, TICK_NS};
use crate::adapter::{default_max_rate_bps, paper, EngineStats, Est, ProbeCounts};
use crate::metrics::Values;
use crate::procfs;
use crate::spans::Recorder;
use crate::stats::ratio;
use std::time::{Duration, Instant};

/// How long a pass runs.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// Until this much wall time has passed (checked between units).
    Wall(Duration),
    /// Exactly this many of the workload's deterministic progress units —
    /// rounds of the scenario grid, scheduler ticks, observed samples. A
    /// pass reports the units it did; replaying that count with the same
    /// seed repeats the pass exactly.
    Units(u64),
}

impl Budget {
    fn spent(&self, units_done: u64, since: Instant) -> bool {
        match *self {
            Budget::Wall(d) => since.elapsed() >= d,
            Budget::Units(n) => units_done >= n,
        }
    }
}

/// Everything one pass produced.
#[derive(Default)]
pub struct Pass {
    pub ests: Vec<Est>,
    pub failed: u64,
    pub counts: ProbeCounts,
    /// The highest rate the workload's tool configuration can probe at:
    /// no estimate may exceed it.
    pub max_rate_bps: f64,
    /// Progress units completed (see [`Budget::Units`]).
    pub units: u64,
    /// Wall seconds of each set-up performed.
    pub setup_s: Vec<f64>,
    /// Wall and process-CPU seconds of the run phase.
    pub run_wall_s: f64,
    pub run_cpu_s: f64,
    /// Per-layer numbers only this workload can read off its run.
    pub layer: Values,
    /// Failed correctness checks, in words.
    pub problems: Vec<String>,
    /// Spans of a traced pass.
    pub spans: Option<Recorder>,
}

/// Measures the run phase: wall time, and CPU time of the whole process.
struct RunClock {
    start: Instant,
    cpu_start: Option<f64>,
}

impl RunClock {
    fn start() -> RunClock {
        RunClock {
            start: Instant::now(),
            cpu_start: procfs::process_cpu_secs(),
        }
    }

    fn stop(self, pass: &mut Pass) {
        pass.run_wall_s = self.start.elapsed().as_secs_f64();
        match procfs::process_cpu_secs().zip(self.cpu_start) {
            Some((end, start)) => pass.run_cpu_s = end - start,
            None => pass
                .problems
                .push("cannot read /proc/self/stat: CPU time is not measured".into()),
        }
    }
}

/// An end-to-end run sets up several times and reports the median, so that
/// a set-up of microseconds reads as steadily as one of seconds: at least
/// [`MIN_SETUPS`], then more until [`SETUP_BUDGET`] is spent, at most the
/// workload's cap. Every set-up but the last is discarded; the last runs.
const MIN_SETUPS: usize = 3;
const SETUP_BUDGET: Duration = Duration::from_millis(250);

/// The cap for a set-up that leaves nothing behind once dropped.
const MAX_SETUPS: usize = 1000;

/// Build the workload's rig under a span named `name`, up to `max_setups`
/// times (see [`MIN_SETUPS`]; 1 = once), recording each build's wall time.
/// `None` (with the reason in `pass.problems`) when a build fails.
fn set_up<T>(
    max_setups: usize,
    rec: &mut Recorder,
    name: &'static str,
    pass: &mut Pass,
    mut build: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T, &mut Pass),
) -> Option<T> {
    let mut spent = Duration::ZERO;
    let mut built: Option<T> = None;
    loop {
        if let Some(old) = built.take() {
            discard(old, pass);
        }
        let span = rec.open(name, None);
        let fresh = build();
        rec.close(span);
        match fresh {
            Ok(rig) => built = Some(rig),
            Err(e) => {
                pass.problems.push(e);
                return None;
            }
        }
        let s = &rec.spans()[span as usize];
        let took = Duration::from_nanos(s.end_ns - s.start_ns);
        pass.setup_s.push(took.as_secs_f64());
        spent += took;
        let n = pass.setup_s.len();
        if n >= max_setups || (n >= MIN_SETUPS && spent >= SETUP_BUDGET) {
            return built;
        }
    }
}

/// SplitMix64 over the run seed and two indices: every simulator,
/// scheduler and oracle seed of a run derives from `--seed` alone.
pub fn derive_seed(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Add to `total` what the engine did between the snapshots `from` and
/// `to` (additive counters; high-water marks take the later snapshot's).
fn add_engine_delta(total: &mut EngineStats, from: &EngineStats, to: &EngineStats) {
    total.events_processed += to.events_processed - from.events_processed;
    total.heap_pushes += to.heap_pushes - from.heap_pushes;
    total.heap_pops += to.heap_pops - from.heap_pops;
    total.front_hits += to.front_hits - from.front_hits;
    total.heap_cmp_weight += to.heap_cmp_weight - from.heap_cmp_weight;
    total.heap_max_depth = total.heap_max_depth.max(to.heap_max_depth);
    total.pool_live_max = total.pool_live_max.max(to.pool_live_max);
    total.shards = total.shards.max(to.shards);
}

/// The engine's counters over the events of a run, as layer metrics.
fn engine_metrics(layer: &mut Values, run: &EngineStats, run_wall_s: f64, estimates: usize) {
    let events = run.events_processed as f64;
    layer.set("netsim.events_per_s", ratio(events, run_wall_s));
    layer.set("netsim.ns_per_event", ratio(run_wall_s * 1e9, events));
    layer.set(
        "netsim.events_per_estimate",
        ratio(events, estimates as f64),
    );
    layer.set("netsim.heap_ops_per_event", run.heap_ops_per_event());
    layer.set("netsim.cmp_weight_per_event", run.cmp_weight_per_event());
    // Every event is pushed once and popped once; the front slot serves
    // some of those 2·events queue operations without touching the heap.
    layer.set(
        "netsim.front_hit_share",
        ratio(
            run.front_hits as f64,
            run.front_hits as f64 + run.heap_ops() as f64,
        ),
    );
    layer.set("netsim.heap_max_depth", run.heap_max_depth as f64);
    layer.set("netsim.pool_peak", run.pool_live_max as f64);
    layer.set("netsim.shards", run.shards as f64);
}

// ---- paper_matrix ----------------------------------------------------------

/// Rounds of the six-scenario grid, each scenario built from a fresh seed
/// and measured once through the blocking `SimTransport`; sequential,
/// closed loop. One unit = one round.
pub fn run_paper_matrix(seed: u64, budget: Budget, traced: bool) -> Pass {
    let mut pass = Pass {
        max_rate_bps: default_max_rate_bps(),
        ..Pass::default()
    };
    let mut rec = Recorder::new();
    let clock = rec.epoch();
    // What the engines did while probing; warm-up events belong to `traffic`.
    let mut probing = EngineStats::default();
    let (mut warm_events, mut session_ns, mut transport_ns) = (0u64, 0u64, 0u64);
    let run = RunClock::start();
    while !budget.spent(pass.units, run.start) {
        for scenario in 0..paper::SCENARIOS.len() {
            let s = paper::run_session_on(
                scenario,
                derive_seed(seed, scenario as u64, pass.units),
                clock,
                traced,
            );
            pass.setup_s.push((s.build.1 - s.build.0) as f64 / 1e9);
            session_ns += s.session.1 - s.session.0;
            warm_events += s.warm.events_processed;
            add_engine_delta(&mut probing, &s.warm, &s.engine);
            pass.counts = pass.counts + s.counts;
            match s.est {
                Some(est) => pass.ests.push(est),
                None => pass.failed += 1,
            }
            if traced {
                rec.push("simprobe.build", s.build.0, s.build.1, None);
                let parent = rec.push("slops.session", s.session.0, s.session.1, None);
                for (start, end) in s.calls {
                    transport_ns += end - start;
                    rec.push("netsim.transport", start, end, Some(parent));
                }
            }
        }
        pass.units += 1;
    }
    run.stop(&mut pass);

    let sessions = pass.counts.sessions as f64;
    let build_s: f64 = pass.setup_s.iter().sum();
    engine_metrics(
        &mut pass.layer,
        &probing,
        session_ns as f64 / 1e9,
        pass.ests.len(),
    );
    pass.layer.set(
        "traffic.warmup_events_per_s",
        ratio(warm_events as f64, build_s),
    );
    pass.layer
        .set("simprobe.build_ns", ratio(build_s * 1e9, sessions));
    if traced {
        pass.layer.set(
            "slops.session_self_ns",
            ratio(rec.totals("slops.session").2 as f64, sessions),
        );
        pass.layer.set(
            "netsim.transport_ns_per_stream",
            ratio(transport_ns as f64, pass.counts.streams as f64),
        );
        pass.spans = Some(rec);
    }
    pass
}

// ---- fleet_disjoint / fleet_shared -----------------------------------------

/// Which in-sim fleet: disjoint paths (the engine shards 1:1) or paths
/// through one shared tight link (it must not).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FleetKind {
    Disjoint,
    Shared,
}

/// An in-sim monitored fleet advanced tick by tick on the scheduler's
/// grid; open loop (the scheduler starts measurements on its own
/// timeline). One unit = one 50 ms tick of simulated time.
pub fn run_sim_fleet(
    kind: FleetKind,
    seed: u64,
    budget: Budget,
    traced: bool,
    repeat_setup: bool,
) -> Pass {
    /// Ticks per `monitord.sim_fleet.run_until` span: one simulated second.
    const TICKS_PER_SPAN: u64 = 1_000_000_000 / TICK_NS;
    let mut pass = Pass {
        max_rate_bps: default_max_rate_bps(),
        ..Pass::default()
    };
    let mut rec = Recorder::new();
    let max_setups = if repeat_setup { MAX_SETUPS } else { 1 };
    let fleet = set_up(
        max_setups,
        &mut rec,
        "simprobe.build",
        &mut pass,
        || {
            Ok(match kind {
                FleetKind::Disjoint => SimFleet::disjoint(seed),
                FleetKind::Shared => SimFleet::shared(seed),
            })
        },
        |old, _| drop(old),
    );
    let mut fleet = fleet.expect("building an in-sim fleet cannot fail");
    let setup_wall_s = *pass.setup_s.last().expect("at least one set-up");
    let warm = fleet.engine();

    let run = RunClock::start();
    let mut span = None;
    let mut span_events = warm.events_processed;
    while !budget.spent(pass.units, run.start) {
        if traced && pass.units.is_multiple_of(TICKS_PER_SPAN) {
            span = Some(rec.open("monitord.sim_fleet.run_until", None));
        }
        fleet.tick(&mut pass.ests);
        pass.units += 1;
        if let Some(id) = span.filter(|_| pass.units.is_multiple_of(TICKS_PER_SPAN)) {
            rec.close(id);
            let events = fleet.engine().events_processed;
            rec.set_count(id, events - span_events);
            span_events = events;
            span = None;
        }
    }
    if let Some(id) = span {
        rec.close(id);
        rec.set_count(id, fleet.engine().events_processed - span_events);
    }
    run.stop(&mut pass);
    pass.counts = fleet.probe_counts();

    let want_shards = match kind {
        FleetKind::Disjoint => fleet.paths(),
        FleetKind::Shared => 1,
    };
    if fleet.shards() != want_shards {
        pass.problems.push(format!(
            "the engine runs {} shard(s); this fleet must run {want_shards}",
            fleet.shards()
        ));
    }
    let mut running = EngineStats::default();
    add_engine_delta(&mut running, &warm, &fleet.engine());
    engine_metrics(&mut pass.layer, &running, pass.run_wall_s, pass.ests.len());
    pass.layer.set(
        "traffic.warmup_events_per_s",
        ratio(warm.events_processed as f64, setup_wall_s),
    );
    pass.layer.set("simprobe.build_ns", setup_wall_s * 1e9);
    if traced {
        pass.spans = Some(rec);
    }
    pass
}

// ---- oracle_fleet ----------------------------------------------------------

/// 4096 synthetic paths under the thread-backed fleet driver on one
/// worker, every sample rendered to JSONL in memory; open loop on the
/// paths' virtual clocks. One unit = one observed measurement.
pub fn run_oracle_fleet(
    seed: u64,
    budget: Budget,
    traced: bool,
    repeat_setup: bool,
    with_hub: bool,
) -> Pass {
    let mut pass = Pass {
        max_rate_bps: default_max_rate_bps(),
        ..Pass::default()
    };
    let mut rec = Recorder::new();
    let clock = traced.then_some(rec.epoch());
    let max_setups = if repeat_setup { MAX_SETUPS } else { 1 };
    let fleet = set_up(
        max_setups,
        &mut rec,
        "monitord.fleet.build",
        &mut pass,
        || Ok(OracleFleet::build(seed, clock)),
        |old, _| drop(old),
    )
    .expect("building an oracle fleet cannot fail");

    let run = RunClock::start();
    let stop_after = match budget {
        Budget::Wall(d) => StopAfter::Deadline(run.start + d),
        Budget::Units(n) => StopAfter::Samples(n),
    };
    let span = rec.open("monitord.run_fleet", None);
    let out = fleet.run(stop_after, with_hub, traced);
    rec.close(span);
    run.stop(&mut pass);

    pass.units = out.samples_at_stop;
    pass.failed = out.failed;
    pass.counts = out.counts;
    let estimates = out.ests.len() as f64;
    pass.ests = out.ests;
    let layer = &mut pass.layer;
    layer.set("monitord.scheduler.overruns", out.scheduler_overruns as f64);
    layer.set(
        "monitord.scheduler.backlog_max",
        out.scheduler_backlog_max as f64,
    );
    layer.set("telemetry.render_ms_4096", out.render_ns as f64 / 1e6);
    layer.set("telemetry.render_bytes", out.render_bytes as f64);
    if traced {
        // The transport and observer intervals are far too many to keep
        // one by one (millions per run); they enter the span tree as one
        // aggregate child each, which is all self time needs.
        let run_start = rec.spans()[span as usize].start_ns;
        let t = rec.push(
            "slops.oracle_transport",
            run_start,
            run_start + out.transport_ns,
            Some(span),
        );
        rec.set_count(t, pass.counts.streams);
        let o = rec.push(
            "monitord.observer",
            run_start + out.transport_ns,
            run_start + out.transport_ns + out.observer_ns,
            Some(span),
        );
        rec.set_count(o, pass.ests.len() as u64);
        layer.set(
            "monitord.fleet_self_ns_per_estimate",
            ratio(rec.totals("monitord.run_fleet").2 as f64, estimates),
        );
        layer.set(
            "monitord.observer_ns_per_estimate",
            ratio(out.observer_ns as f64, estimates),
        );
        pass.spans = Some(rec);
    }
    pass
}

// ---- loopback_pair ---------------------------------------------------------

/// Two real UDP/TCP paths over 127.0.0.1, measured back to back by the
/// event-loop fleet driver on this thread against one evented receiver on
/// another; closed loop, wall clock. The budget is the fleet's horizon:
/// measurements started before it are allowed to finish.
#[cfg(unix)]
pub fn run_loopback_pair(seed: u64, budget: Budget, traced: bool, repeat_setup: bool) -> Pass {
    use crate::adapter::wire::{Rig, PATHS, RATE_CAP_MBPS};
    let mut pass = Pass {
        // On loopback the senders' pacing cap is the ceiling.
        max_rate_bps: RATE_CAP_MBPS * 1e6,
        ..Pass::default()
    };
    let mut rec = Recorder::new();
    let Budget::Wall(horizon) = budget else {
        pass.problems
            .push("loopback_pair runs on the wall clock; it has no unit budget".into());
        return pass;
    };
    // Every set-up leaves its dials in TIME_WAIT (hundreds per run slow
    // the kernel's port search for the runs that follow: 0.2 ms became
    // 1 ms), and a discarded receiver sits out its poll timeout first.
    const MAX_WIRE_SETUPS: usize = 25;
    let mut connect_ms = Vec::new();
    let rig = set_up(
        if repeat_setup { MAX_WIRE_SETUPS } else { 1 },
        &mut rec,
        "sockets.connect",
        &mut pass,
        || {
            Rig::start()
                .and_then(|rig| {
                    for _ in 0..PATHS {
                        connect_ms.push(rig.connect_once_ms()?);
                    }
                    Ok(rig)
                })
                .map_err(|e| format!("cannot set up the loopback rig: {e}"))
        },
        |old: Rig, pass| {
            if let Err(e) = old.shutdown() {
                pass.problems.push(e);
            }
        },
    );
    let Some(rig) = rig else {
        return pass;
    };

    let run = RunClock::start();
    let span = rec.open("monitord.async_fleet.run", None);
    let out = rig.run(seed, horizon);
    rec.close(span);
    run.stop(&mut pass);
    let out = match out {
        Ok(out) => out,
        Err(e) => {
            pass.problems.push(e);
            return pass;
        }
    };
    rec.set_count(span, out.paced_pkts);

    pass.units = out.ests.len() as u64 + out.failed;
    pass.failed = out.failed;
    pass.counts = out.counts;
    if out.drops_unknown_token + out.drops_collector_full > 0 {
        pass.problems.push(format!(
            "the receiver dropped datagrams: {} unknown token, {} collector full",
            out.drops_unknown_token, out.drops_collector_full
        ));
    }
    if out.demux_routed < out.paced_pkts {
        pass.problems.push(format!(
            "the receiver routed {} datagrams but the senders paced {}",
            out.demux_routed, out.paced_pkts
        ));
    }
    let pkts = out.paced_pkts as f64;
    let layer = &mut pass.layer;
    layer.set("sockets.paced_pkts", pkts);
    layer.set(
        "sockets.paced_within_128us_share",
        ratio(out.paced_on_time as f64, pkts),
    );
    match (out.tx_cpu_ns, out.rx_cpu_ns, out.tx_voluntary_switches) {
        (Some(tx), Some(rx), Some(switches)) => {
            layer.set("sockets.tx_cpu_us_per_pkt", ratio(tx as f64 / 1e3, pkts));
            layer.set("sockets.rx_cpu_us_per_pkt", ratio(rx as f64 / 1e3, pkts));
            layer.set(
                "sockets.vol_ctx_switches_per_pkt",
                ratio(switches as f64, pkts),
            );
        }
        _ => pass
            .problems
            .push("cannot read /proc/thread-self: per-thread CPU is not measured".into()),
    }
    layer.set("sockets.wakeups_per_pkt", ratio(out.wakeups as f64, pkts));
    layer.set("sockets.timer_lag_p50_ns", out.timer_lag_p50_ns as f64);
    layer.set("sockets.timer_lag_p99_ns", out.timer_lag_p99_ns as f64);
    layer.set("sockets.pacing_err_p50_ns", out.pacing_err_p50_ns as f64);
    layer.set("sockets.pacing_err_p99_ns", out.pacing_err_p99_ns as f64);
    layer.set(
        "sockets.rx_batch_mean",
        ratio(out.rx_batched_datagrams as f64, out.rx_batches as f64),
    );
    layer.set("sockets.demux_routed", out.demux_routed as f64);
    layer.set(
        "sockets.demux_drops",
        (out.drops_unknown_token + out.drops_collector_full + out.drops_dedup) as f64,
    );
    layer.set("sockets.silence_stops", out.silence_stops as f64);
    layer.set(
        "sockets.connect_ms_per_path",
        crate::stats::median(&connect_ms).unwrap_or(0.0),
    );
    pass.ests = out.ests;
    if traced {
        pass.spans = Some(rec);
    }
    pass
}

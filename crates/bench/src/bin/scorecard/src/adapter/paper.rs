//! The paper's Fig. 4 path, one blocking `slops::Session` per simulator.

use super::{EngineStats, Est, Metered, ProbeCounts, Tally};
use simprobe::{install_session, run_session, PaperPath, PaperPathConfig};
use slops::{Session, SlopsConfig, Termination};
use std::sync::Arc;
use std::time::Instant;
use traffic::SourceConfig;
use units::TimeNs;

/// The scenario grid: the paper's Fig. 5–7 axes, one point each.
pub const SCENARIOS: [&str; 6] = ["u20", "u60", "u80", "poisson", "hops3", "beta1"];

fn scenario_config(scenario: usize) -> PaperPathConfig {
    let mut cfg = PaperPathConfig::default();
    match SCENARIOS[scenario] {
        "u20" => cfg.tight_util = 0.20,
        "u60" => {} // the paper's default operating point
        "u80" => cfg.tight_util = 0.80,
        "poisson" => cfg.source_cfg = SourceConfig::paper_poisson(),
        "hops3" => cfg.hops = 3,
        "beta1" => cfg.set_tightness(1.0),
        other => unreachable!("unknown scenario {other}"),
    }
    cfg
}

/// One build-and-measure on a scenario, with everything the harness
/// records about it. Intervals are nanoseconds on the caller's `clock`.
pub struct PaperSession {
    /// `None` when the measurement failed.
    pub est: Option<Est>,
    pub counts: ProbeCounts,
    /// `PaperPath::build`: topology plus cross-traffic warm-up.
    pub build: (u64, u64),
    /// `Session::run`.
    pub session: (u64, u64),
    /// Every transport call inside the session (traced passes only).
    pub calls: Vec<(u64, u64)>,
    /// Engine counters after the build (cross traffic only — no probe has
    /// been sent yet) and at the end of the session.
    pub warm: EngineStats,
    pub engine: EngineStats,
}

/// Build scenario `scenario` from `seed` and run one default-configured
/// measurement over the blocking `SimTransport`.
pub fn run_session_on(scenario: usize, seed: u64, clock: Instant, traced: bool) -> PaperSession {
    let cfg = scenario_config(scenario);
    let now = || clock.elapsed().as_nanos() as u64;

    let build_start = now();
    let path = PaperPath::build(&cfg, seed);
    let build_end = now();
    let transport = path.into_transport();
    let warm = transport.sim().engine_stats();

    let tally = Arc::new(Tally::default());
    let mut metered = Metered::new(transport, Arc::clone(&tally), traced.then_some(clock));
    if traced {
        metered = metered.keeping_calls();
    }
    let session_start = now();
    let outcome = Session::new(SlopsConfig::default()).run(&mut metered);
    let session_end = now();

    let mut counts = ProbeCounts {
        sessions: 1,
        probe_pkts: tally.pkts(),
        probe_bytes: tally.bytes(),
        streams: tally.streams(),
        ..ProbeCounts::default()
    };
    let est = outcome.ok().map(|e| {
        counts.fleets = e.fleets.len() as u64;
        counts.grey_sessions = (e.termination == Termination::GreyResolution) as u64;
        Est {
            path: scenario as u32,
            started_ns: cfg.opts.warmup.as_nanos(),
            latency_ns: e.elapsed.as_nanos(),
            low_bps: e.low.bps(),
            high_bps: e.high.bps(),
            truth_bps: cfg.avail_bw().bps(),
        }
    });
    PaperSession {
        est,
        counts,
        build: (build_start, build_end),
        session: (session_start, session_end),
        calls: metered.take_calls(),
        warm,
        engine: metered.inner().sim().engine_stats(),
    }
}

/// The same default path and seed measured through the blocking shim and
/// through the in-sim `SessionApp`; returns `(shim_ns, app_ns)` of wall
/// time. The two drivers must agree on the estimate — if they do not, the
/// ratio compares different work and the caller reports the mismatch.
pub fn shim_and_app_wall_ns(seed: u64) -> Result<(u64, u64), String> {
    let cfg = PaperPathConfig::default();

    let mut shim = PaperPath::build(&cfg, seed).into_transport();
    let t = Instant::now();
    let via_shim = Session::new(SlopsConfig::default())
        .run(&mut shim)
        .map_err(|e| format!("blocking shim failed: {e}"))?;
    let shim_ns = t.elapsed().as_nanos() as u64;

    let transport = PaperPath::build(&cfg, seed).into_transport();
    let chain = transport.chain().clone();
    let mut sim = transport.into_sim();
    let t = Instant::now();
    let id = install_session(&mut sim, &chain, SlopsConfig::default())
        .map_err(|e| format!("in-sim install failed: {e}"))?;
    let via_app = run_session(&mut sim, id, TimeNs::from_secs(3600))
        .ok_or("in-sim session did not finish within an hour of simulated time")?;
    let app_ns = t.elapsed().as_nanos() as u64;

    if via_shim != via_app {
        return Err(format!(
            "shim and in-sim drivers disagree on seed {seed}: [{}, {}] vs [{}, {}]",
            via_shim.low, via_shim.high, via_app.low, via_app.high
        ));
    }
    Ok((shim_ns, app_ns))
}

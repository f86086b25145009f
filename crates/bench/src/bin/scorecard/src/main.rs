//! `scorecard` — the repo's benchmark: what an avail-bw monitor is *for*
//! (accuracy, time to estimate, intrusiveness, capacity) end to end, and
//! the cost of every layer underneath, on five workloads, from one
//! command. See `README.md` next to `Cargo.toml` for the glossary and
//! `BENCHMARK.json` at the repo root for the contract.
//!
//! ```text
//! scorecard --workload W --seed S --seconds N --trace 0|1   one run, one JSON line
//! scorecard [--seed S] [--seconds N]                        all five, both passes, one document
//! scorecard --check-determinism [--seed S]                  same seed, same work => same bits
//! ```

#![forbid(unsafe_code)]

mod adapter;
mod json;
mod metrics;
mod procfs;
mod report;
mod spans;
mod stats;
mod workloads;

use json::Json;
use metrics::{Values, VIRTUAL_TIME_WORKLOADS, WORKLOADS};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;
use workloads::{Budget, FleetKind, Pass};

const DEFAULT_SEED: u64 = 20020819;
const DEFAULT_SECONDS: u64 = 20;

const USAGE: &str = "usage: scorecard [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] \
                     [--trace-out FILE] [--check-determinism]\n\
                     workloads: paper_matrix fleet_disjoint fleet_shared oracle_fleet loopback_pair";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<PathBuf>,
    check_determinism: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        trace_out: None,
        check_determinism: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} wants a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload `{w}`\n{USAGE}"));
                }
                args.workload = Some(w.clone());
            }
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| format!("--seed wants an unsigned integer\n{USAGE}"))?;
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or_else(|| format!("--seconds wants a whole number in 1..=60\n{USAGE}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1\n{USAGE}")),
                };
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--check-determinism" => args.check_determinism = true,
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

/// One untraced or traced pass of `workload`.
fn run_pass(workload: &str, seed: u64, budget: Budget, traced: bool, repeat_setup: bool) -> Pass {
    match workload {
        "paper_matrix" => workloads::run_paper_matrix(seed, budget, traced),
        "fleet_disjoint" => {
            workloads::run_sim_fleet(FleetKind::Disjoint, seed, budget, traced, repeat_setup)
        }
        "fleet_shared" => {
            workloads::run_sim_fleet(FleetKind::Shared, seed, budget, traced, repeat_setup)
        }
        "oracle_fleet" => workloads::run_oracle_fleet(seed, budget, traced, repeat_setup, true),
        #[cfg(unix)]
        "loopback_pair" => workloads::run_loopback_pair(seed, budget, traced, repeat_setup),
        #[cfg(not(unix))]
        "loopback_pair" => {
            let mut pass = Pass::default();
            pass.problems
                .push("skipped: loopback_pair needs a Unix host (epoll event loop)".into());
            pass
        }
        other => unreachable!("workload `{other}` was validated at parse time"),
    }
}

/// What one run of one workload reports.
struct RunResult {
    attempted: u64,
    failed: u64,
    rows: Vec<(&'static str, &'static str, f64)>,
    problems: Vec<String>,
}

/// `--trace 0`: several set-ups, then one untraced pass for `seconds`.
fn run_end_to_end(workload: &str, seed: u64, seconds: u64) -> RunResult {
    let budget = Budget::Wall(Duration::from_secs(seconds));
    let mut pass = run_pass(workload, seed, budget, false, true);
    let mut problems = std::mem::take(&mut pass.problems);
    report::check_estimates(&pass.ests, pass.max_rate_bps, &mut problems);
    let values = report::end_to_end(&pass, &mut problems);
    let rows = report::in_catalog_order(&values, false, &mut problems);
    RunResult {
        attempted: pass.ests.len() as u64 + pass.failed,
        failed: pass.failed,
        rows,
        problems,
    }
}

/// `--trace 1`: an untraced pass, then the same work again with spans
/// recorded, then the fixed-count probes of the layers this workload
/// exercises. Tracing must not change a single estimate.
fn run_per_layer(workload: &str, seed: u64, seconds: u64, trace_out: Option<PathBuf>) -> RunResult {
    let virtual_time = VIRTUAL_TIME_WORKLOADS.contains(&workload);
    let mut problems = Vec::new();
    let mut values = Values::default();
    // The passes share the run's seconds; the probes add a second or two.
    let passes = if workload == "oracle_fleet" { 3 } else { 2 };
    let share = Duration::from_secs_f64(seconds as f64 * 0.9 / passes as f64);

    // The pass the numbers are read off and, on a virtual clock, its
    // traced replay. A wall-clock workload has one pass: its spans wrap
    // whole calls, and there is no second run of the same work to compare.
    let (mut reference, mut replay) = if virtual_time {
        let plain = run_pass(workload, seed, Budget::Wall(share), false, false);
        let traced = run_pass(workload, seed, Budget::Units(plain.units), true, false);
        (plain, Some(traced))
    } else {
        let whole = Duration::from_secs(seconds);
        (
            run_pass(workload, seed, Budget::Wall(whole), true, false),
            None,
        )
    };
    problems.append(&mut reference.problems);
    report::check_estimates(&reference.ests, reference.max_rate_bps, &mut problems);
    if reference.ests.is_empty() {
        problems.push("the run produced no estimate".into());
    }
    report::common_layers(&reference, &mut values);

    if let Some(traced) = &mut replay {
        problems.append(&mut traced.problems);
        if report::fingerprint(&reference.ests) != report::fingerprint(&traced.ests) {
            problems.push(format!(
                "tracing changed the estimates: {} untraced vs {} traced over {} unit(s)",
                reference.ests.len(),
                traced.ests.len(),
                reference.units
            ));
        }
        // Span-derived numbers exist only in the traced pass.
        for (name, value) in traced.layer.iter() {
            if values.get(name).is_none() {
                values.set(name, value);
            }
        }
        values.set(
            "bench.trace_overhead_share",
            stats::ratio(traced.run_wall_s, reference.run_wall_s) - 1.0,
        );
    }
    if let Some(rec) = &replay.as_ref().unwrap_or(&reference).spans {
        values.set("bench.spans", rec.spans().len() as f64);
        if let Err(e) = write_trace(rec, workload, trace_out) {
            problems.push(format!("cannot write the span file: {e}"));
        }
    }

    if workload == "oracle_fleet" {
        // The identical fleet without the telemetry hub: the share of the
        // run the always-on instrumentation costs.
        let units = Budget::Units(reference.units);
        let bare = workloads::run_oracle_fleet(seed, units, false, false, false);
        if report::fingerprint(&bare.ests) != report::fingerprint(&reference.ests) {
            problems.push("attaching telemetry changed the estimates".into());
        }
        values.set(
            "telemetry.sink_overhead_share",
            stats::ratio(reference.run_wall_s, bare.run_wall_s) - 1.0,
        );
    }
    layer_probes(workload, seed, &mut values, &mut problems);

    let rows = report::in_catalog_order(&values, true, &mut problems);
    RunResult {
        attempted: reference.ests.len() as u64 + reference.failed,
        failed: reference.failed,
        rows,
        problems,
    }
}

/// The fixed-count probes of the layers `workload` has on its path.
fn layer_probes(workload: &str, seed: u64, values: &mut Values, problems: &mut Vec<String>) {
    use adapter::probes;
    values.set(
        "slops.machine_ns_per_session",
        probes::machine_ns_per_session(),
    );
    values.set("slops.trend_ns_per_stream", probes::trend_ns_per_stream());
    if workload == "paper_matrix" {
        // Same path, same seed, both in-sim drivers: they must agree on
        // the estimate, and the ratio is what the event-driven one costs.
        let (mut shim, mut app) = (0u64, 0u64);
        for pair in 0..3 {
            match adapter::paper::shim_and_app_wall_ns(workloads::derive_seed(seed, 99, pair)) {
                Ok((s, a)) => {
                    shim += s;
                    app += a;
                }
                Err(e) => problems.push(e),
            }
        }
        values.set(
            "simprobe.app_over_shim_time_ratio",
            stats::ratio(app as f64, shim as f64),
        );
    }
    if workload == "oracle_fleet" {
        let (poll, complete) = probes::scheduler_ns();
        values.set("monitord.scheduler.poll_ns", poll);
        values.set("monitord.scheduler.on_complete_ns", complete);
        let (push, changes) = probes::store_ns();
        values.set("monitord.store.push_ns", push);
        values.set("monitord.store.changes_ns", changes);
        let (line, fleet_line) = probes::export_ns();
        values.set("monitord.export.sample_line_ns", line);
        values.set("monitord.export.fleet_jsonl_ns_per_line", fleet_line);
    }
    if workload == "oracle_fleet" || workload == "loopback_pair" {
        let (inc, observe) = probes::registry_primitive_ns();
        values.set("telemetry.counter_inc_ns", inc);
        values.set("telemetry.histogram_observe_ns", observe);
    }
    if workload == "loopback_pair" {
        let (encode, decode) = probes::probe_codec_ns();
        values.set("sockets.probe_encode_ns", encode);
        values.set("sockets.probe_decode_ns", decode);
        values.set("sockets.timerq_ns_per_op", probes::timerq_ns_per_op());
        for (name, scalar) in [
            ("sockets.udp_drain32_batched_ns", false),
            ("sockets.udp_drain32_scalar_ns", true),
        ] {
            match probes::udp_drain32_ns(scalar) {
                Ok(ns) => values.set(name, ns),
                Err(e) => problems.push(format!("the UDP drain probe failed: {e}")),
            }
        }
    }
}

/// Spans go next to the executable — inside the build directory, which
/// every checkout already ignores — unless `--trace-out` names a file.
fn write_trace(
    rec: &spans::Recorder,
    workload: &str,
    trace_out: Option<PathBuf>,
) -> std::io::Result<()> {
    let path = match trace_out {
        Some(p) => p,
        None => {
            std::env::current_exe()?.with_file_name(format!("scorecard-trace-{workload}.jsonl"))
        }
    };
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    rec.write_jsonl(&mut w, workload)?;
    w.flush()
}

fn result_json(r: &RunResult) -> Json {
    Json::obj([
        ("correct", Json::Bool(r.problems.is_empty())),
        ("attempted", Json::Num(r.attempted.max(1) as f64)),
        ("failed", Json::Num(r.failed as f64)),
        (
            "metrics",
            Json::obj(r.rows.iter().map(|&(name, unit, value)| {
                (
                    name,
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                )
            })),
        ),
    ])
}

/// Run one workload in this process and print its result as the last line
/// of standard output.
fn single(args: &Args, workload: &str) -> ExitCode {
    let result = if args.trace {
        run_per_layer(workload, args.seed, args.seconds, args.trace_out.clone())
    } else {
        run_end_to_end(workload, args.seed, args.seconds)
    };
    for p in &result.problems {
        eprintln!("scorecard: {workload}: {p}");
    }
    println!("{}", result_json(&result));
    if result.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every workload, each pass in a fresh child of this executable so
/// CPU and peak-memory counters start from zero, and print one document.
fn all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("scorecard: cannot find my own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut per_workload = Vec::new();
    for workload in WORKLOADS {
        let mut sections = vec![];
        for (section, trace) in [("end_to_end", "0"), ("per_layer", "1")] {
            eprintln!("scorecard: {workload} --trace {trace} …");
            let out = Command::new(&exe)
                .args(["--workload", workload, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .output();
            let parsed = out.map_err(|e| format!("cannot spawn: {e}")).and_then(|o| {
                std::io::stderr().write_all(&o.stderr).ok();
                let text = String::from_utf8_lossy(&o.stdout).into_owned();
                let last = text.lines().last().unwrap_or("").to_string();
                Json::parse(&last).map_err(|e| format!("bad result line: {e}"))
            });
            match parsed {
                Ok(doc) => {
                    ok &= doc.get("correct").and_then(Json::as_bool) == Some(true);
                    sections.push((section, doc));
                }
                Err(e) => {
                    eprintln!("scorecard: {workload} --trace {trace}: {e}");
                    ok = false;
                }
            }
        }
        per_workload.push((workload, Json::obj(sections)));
    }
    let doc = Json::obj([
        ("benchmark", Json::str("scorecard")),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds as f64)),
        ("correct", Json::Bool(ok)),
        ("workloads", Json::obj(per_workload)),
        // A benchmark definition claims no gain.
        ("claim", Json::Null),
    ]);
    println!("{doc}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Fixed work for the determinism check, in each workload's own units:
/// small, because the point is bit-identity, not a measurement.
fn determinism_units(workload: &str) -> u64 {
    match workload {
        "paper_matrix" => 2,     // rounds of six sessions
        "fleet_disjoint" => 400, // ticks = 20 s simulated
        "fleet_shared" => 2400,  // ticks = 120 s simulated
        "oracle_fleet" => 6000,  // observed measurements
        other => unreachable!("`{other}` has no virtual clock"),
    }
}

/// The values of `pass` that are functions of the seed and the work
/// alone: every end-to-end accuracy, latency and intrusiveness metric.
fn deterministic_values(pass: &Pass) -> Vec<(&'static str, u64)> {
    let mut problems = Vec::new();
    let v = report::end_to_end(pass, &mut problems);
    [
        "coverage_share",
        "mid_rel_err",
        "range_rho",
        "estimate_latency_s",
        "probe_pkts_per_estimate",
    ]
    .into_iter()
    .map(|name| (name, v.get(name).unwrap_or(f64::NAN).to_bits()))
    .collect()
}

/// Run the virtual-time workloads twice over the same fixed work and
/// require identical estimates and identical deterministic metrics.
fn check_determinism(args: &Args) -> ExitCode {
    let mut ok = true;
    for workload in VIRTUAL_TIME_WORKLOADS {
        let budget = Budget::Units(determinism_units(workload));
        let first = run_pass(workload, args.seed, budget, false, false);
        let second = run_pass(workload, args.seed, budget, false, false);
        let same_estimates = !first.ests.is_empty()
            && report::fingerprint(&first.ests) == report::fingerprint(&second.ests);
        let same_values = deterministic_values(&first) == deterministic_values(&second);
        println!(
            "{workload}: {} estimate(s), fingerprint {:016x}: {}",
            first.ests.len(),
            report::fingerprint(&first.ests),
            if same_estimates && same_values {
                "identical"
            } else {
                "DIFFERENT"
            }
        );
        ok &= same_estimates && same_values;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("scorecard: refusing to measure a debug build; run with --release");
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("scorecard: {e}");
            return ExitCode::from(2);
        }
    };
    if args.check_determinism {
        return check_determinism(&args);
    }
    match &args.workload {
        Some(workload) => single(&args, workload),
        None => all(&args),
    }
}

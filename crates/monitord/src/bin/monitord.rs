//! `monitord` — the multi-path avail-bw monitoring daemon over real
//! sockets.
//!
//! ```text
//! monitord [--metrics <addr>] <config-file>
//!                                 monitor the fleet described by the file
//! monitord --loopback <n> [horizon_s] [--metrics <addr>]
//!                                 self-test: monitor n in-process loopback
//!                                 receivers for horizon_s (default 8) s
//! ```
//!
//! Every path is multiplexed on **one** event-loop thread (epoll + timer
//! queue: hundreds of paths without hundreds of workers), with every
//! scheduling decision taken by the sans-IO scheduler. Linux only (epoll,
//! timerfd, kernel arrival stamps): elsewhere the daemon says so and exits
//! 2.
//!
//! The config format is documented in `monitord::config` (and in the
//! README's "Running monitord" section): `path <label> <host:port>` lines
//! naming `pathload_rcv` receivers — with optional per-path `key=value`
//! probe overrides — plus scheduling, series, probing, and output knobs.
//!
//! Output is JSON lines: one `sample` record per finished measurement and
//! one `change` record per flagged avail-bw shift, streamed as they
//! happen; one `summary` record per path when the horizon is reached.
//! Failed measurements are logged to stderr and counted in the summary. A
//! human-readable fleet digest also goes to stderr at the end, so piping
//! stdout to a file or `jq` stays clean.
//!
//! Receivers are multi-session, so any number of `path` directives may
//! name the same `pathload_rcv` address; `--loopback` exercises exactly
//! that, running all n paths against **one** shared in-process receiver.
//!
//! `--metrics <host:port>` (or the config's `metrics` directive; the flag
//! wins) serves a live Prometheus-text snapshot of the fleet's telemetry
//! registry for the whole run — pacing-error histograms, machine trace
//! counters, scheduler gauges, and (in loopback mode) the receiver's
//! demux counters. The same registry feeds periodic JSONL `telemetry`
//! records and the end-of-run stderr digest, so the three surfaces cannot
//! disagree.
//!
//! On SIGINT/SIGTERM the daemon shuts down gracefully: no new
//! measurements start, the one in flight completes and is recorded, the
//! per-path summaries for everything collected so far are flushed, and
//! the process exits 0.
//!
//! Exit status: 0 at the horizon, after a graceful shutdown, and for
//! `--help`; 1 on a runtime failure (an unreadable or invalid config, a
//! bind or dial error, a failed output sink); 2 on a usage error, with the
//! usage on stderr.

// The one unsafe block (signal(2) FFI in `install_signal_handlers`) is
// explicitly allowed where it appears; see docs/LINTS.md (AL003).
#![deny(unsafe_code)]

use std::process::exit;

const USAGE: &str = "\
usage: monitord [--metrics <addr>] <config-file>
       monitord --loopback <n-paths> [horizon-s] [--metrics <addr>]

Monitors N network paths by periodic pathload measurements against
pathload_rcv receivers, every path on one event-loop thread, emitting
JSONL sample/change/summary records to stdout (or the file named by the
config's `out`). --loopback runs a seconds-bounded self-test against an
in-process receiver.

--metrics <addr>  serve a live Prometheus-text snapshot of the fleet's
                  telemetry registry at http://<addr>/metrics (overrides
                  the config's `metrics` directive)";

/// What the command line asks for.
enum Mode {
    /// Monitor the fleet a config file describes.
    File(String),
    /// Self-test: `paths` loopback paths for `horizon_s` seconds.
    Loopback { paths: usize, horizon_s: f64 },
}

/// Extract a `--metrics <host:port>` flag (anywhere on the line) from the
/// argument list; the remaining arguments keep their order.
fn take_metrics_flag(args: &mut Vec<String>) -> Result<Option<String>, String> {
    let Some(pos) = args.iter().position(|a| a == "--metrics") else {
        return Ok(None);
    };
    if pos + 1 >= args.len() {
        return Err("--metrics wants a listen address, e.g. 127.0.0.1:9091".into());
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    Ok(Some(value))
}

/// Parse the command line into a mode and the `--metrics` flag; `None`
/// asks for the usage. Every error is a usage error (exit 2).
fn parse_args(mut args: Vec<String>) -> Result<Option<(Mode, Option<String>)>, String> {
    let metrics_flag = take_metrics_flag(&mut args)?;
    let mode = match args.first().map(String::as_str) {
        Some("--help") | Some("-h") => return Ok(None),
        Some("--loopback") => parse_loopback(&args[1..])?,
        Some(path) if args.len() == 1 => Mode::File(path.to_string()),
        None => return Err("a config file or --loopback is required".into()),
        Some(_) => return Err(format!("unexpected arguments {:?}", &args[1..])),
    };
    Ok(Some((mode, metrics_flag)))
}

/// `--loopback <n-paths> [horizon-s]`'s arguments.
fn parse_loopback(args: &[String]) -> Result<Mode, String> {
    const MAX_PATHS: usize = 512;
    if args.len() > 2 {
        return Err(format!("unexpected arguments {:?}", &args[2..]));
    }
    let paths: usize = args
        .first()
        .ok_or("--loopback wants a path count")?
        .parse()
        .ok()
        .filter(|&n| (1..=MAX_PATHS).contains(&n))
        .ok_or_else(|| format!("path count must be an integer in 1..={MAX_PATHS}"))?;
    let horizon_s: f64 = match args.get(1) {
        None => 8.0,
        Some(v) => v
            .parse()
            .ok()
            .filter(|&s| s > 0.0 && s <= 3600.0)
            .ok_or("horizon must be seconds in (0, 3600]")?,
    };
    Ok(Mode::Loopback { paths, horizon_s })
}

fn main() {
    match parse_args(std::env::args().skip(1).collect()) {
        Ok(Some((mode, metrics_flag))) => daemon::run(mode, metrics_flag),
        Ok(None) => println!("{USAGE}"),
        Err(msg) => {
            eprintln!("monitord: {msg}\n{USAGE}");
            exit(2);
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod daemon {
    /// Off Linux there is no event loop to run the fleet on.
    pub(super) fn run(_mode: super::Mode, _metrics_flag: Option<String>) {
        eprintln!("monitord requires Linux (epoll, timerfd, kernel arrival stamps)");
        std::process::exit(2);
    }
}

/// The daemon proper: signal handling, the two modes, the fleet run.
#[cfg(target_os = "linux")]
mod daemon {
    use super::Mode;
    use monitord::export::{change_line, fleet_summary, sample_line, summary_line, telemetry_line};
    use monitord::{
        run_socket_fleet_async_with_telemetry, DaemonConfig, FleetEvent, FleetTelemetry,
        ShutdownFlag, SocketPathSpec,
    };
    use std::fs;
    use std::io::{self, Write};
    use std::net::ToSocketAddrs;
    use std::process::exit;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::thread;
    use std::time::{Duration, Instant};
    use units::{Rate, TimeNs};

    /// Run `mode` to its end; a runtime failure exits 1.
    pub(super) fn run(mode: Mode, metrics_flag: Option<String>) {
        let stop = ShutdownFlag::new();
        install_signal_handlers(stop.clone());
        let result = match mode {
            Mode::File(path) => run_from_file(&path, metrics_flag, &stop),
            Mode::Loopback { paths, horizon_s } => {
                run_loopback(paths, horizon_s, metrics_flag, &stop)
            }
        };
        if let Err(msg) = result {
            eprintln!("monitord: {msg}");
            exit(1);
        }
    }

    /// Set by the (async-signal-safe) handler; bridged to the fleet's
    /// [`ShutdownFlag`] by a watcher thread.
    static SIGNALLED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        SIGNALLED.store(true, Ordering::SeqCst);
    }

    /// Install SIGINT/SIGTERM handlers that request a graceful fleet
    /// shutdown. Uses libc's `signal` directly (std links libc on Linux and
    /// exposes no signal API; an external crate would be this workspace's
    /// only dependency). The handler merely sets an atomic; a watcher thread
    /// forwards it to the cooperative flag.
    #[allow(unsafe_code)] // FFI onto signal(2) of the libc std links.
    fn install_signal_handlers(stop: ShutdownFlag) {
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        // SAFETY: `on_signal` is an async-signal-safe extern "C" fn (it only
        // stores to an atomic), installed once at startup before any fleet
        // thread exists; signal(2) itself takes no pointers.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
        thread::spawn(move || loop {
            if SIGNALLED.load(Ordering::SeqCst) {
                eprintln!("monitord: shutdown requested, letting in-flight measurements land");
                stop.request();
                return;
            }
            thread::sleep(Duration::from_millis(100));
        });
    }

    fn run_from_file(
        path: &str,
        metrics_flag: Option<String>,
        stop: &ShutdownFlag,
    ) -> Result<(), String> {
        let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let cfg = DaemonConfig::parse(&text).map_err(|e| e.to_string())?;
        let mut specs = Vec::with_capacity(cfg.paths.len());
        for p in &cfg.paths {
            let addr = p
                .addr
                .to_socket_addrs()
                .map_err(|e| format!("path {}: cannot resolve {}: {e}", p.label, p.addr))?
                .next()
                .ok_or_else(|| format!("path {}: {} resolves to nothing", p.label, p.addr))?;
            specs.push(SocketPathSpec {
                label: p.label.clone(),
                ctrl_addr: addr,
                cfg: cfg.probe_for(p),
                rate_cap: cfg.rate_cap_for(p),
            });
        }
        let metrics_addr = metrics_flag.or_else(|| cfg.metrics.clone());
        let telemetry = FleetTelemetry::new();
        monitor(&cfg, specs, &telemetry, metrics_addr.as_deref(), stop)
    }

    /// Self-test mode: spawn **one** in-process loopback receiver and monitor
    /// `n` paths against it concurrently — the multi-session receiver demuxes
    /// the sessions on one control port and one UDP socket — with gentle,
    /// seconds-scale settings. The "avail-bw" of loopback is meaningless (no
    /// FIFO bottleneck) — the point is the whole daemon stack running end to
    /// end on a real network stack, bounded in time.
    fn run_loopback(
        n: usize,
        horizon_s: f64,
        metrics_flag: Option<String>,
        stop: &ShutdownFlag,
    ) -> Result<(), String> {
        let mut cfg = DaemonConfig::default();
        cfg.horizon = TimeNs::from_secs_f64(horizon_s);
        cfg.schedule.period = TimeNs::from_secs(2);
        cfg.schedule.jitter = TimeNs::from_millis(200);
        // Loopback paths share the host, so concurrency is capped — but high
        // enough for every path to land a sample within the horizon.
        cfg.schedule.max_concurrent = (n / 4).clamp(2, 8);
        cfg.series.window = TimeNs::from_secs(4);
        cfg.rate_cap = Some(Rate::from_mbps(40.0));
        // Gentle probing so one measurement lasts ~a second on a shared box.
        cfg.probe.stream_len = 30;
        cfg.probe.fleet_len = 4;
        cfg.probe.min_period = TimeNs::from_millis(1);
        cfg.probe.resolution = Rate::from_mbps(8.0);
        cfg.probe.grey_resolution = Rate::from_mbps(16.0);
        cfg.probe.max_fleets = 6;

        // ONE shared receiver for the whole fleet: every path connects to the
        // same control address and becomes its own session, all on the
        // receiver's one event-loop thread, stopped once the fleet is done.
        // The receiver shares the fleet's registry, so a `--metrics` scrape of
        // the loopback run also exposes its demux/drop counters and its
        // `receiver_sessions` gauge.
        let telemetry = FleetTelemetry::new();
        let rx = pathload_net::EventedReceiver::bind("127.0.0.1:0".parse().unwrap())
            .map_err(|e| format!("cannot bind the loopback receiver: {e}"))?;
        rx.register_metrics(telemetry.registry());
        let server = rx.spawn();
        let ctrl_addr = server.ctrl_addr();
        let specs: Vec<SocketPathSpec> = (0..n)
            .map(|i| SocketPathSpec {
                label: format!("lo{i}"),
                ctrl_addr,
                cfg: cfg.probe.clone(),
                rate_cap: cfg.rate_cap,
            })
            .collect();
        eprintln!(
            "monitord: loopback self-test, {n} path(s) sharing one receiver \
         ({ctrl_addr}), {horizon_s} s horizon"
        );
        monitor(&cfg, specs, &telemetry, metrics_flag.as_deref(), stop)?;
        server.stop().map_err(|e| format!("receiver failed: {e}"))
    }

    /// How often the observer interleaves a JSONL `telemetry` record with
    /// the sample/change stream.
    const TELEMETRY_EVERY: Duration = Duration::from_secs(2);

    /// Run the fleet, streaming JSONL records to the configured sink. When
    /// `stop` is requested (SIGINT/SIGTERM), new starts cease, the in-flight
    /// measurements land, and the per-path summaries below still run — the
    /// data collected so far is flushed before the clean exit.
    fn monitor(
        cfg: &DaemonConfig,
        specs: Vec<SocketPathSpec>,
        telemetry: &FleetTelemetry,
        metrics_addr: Option<&str>,
        stop: &ShutdownFlag,
    ) -> Result<(), String> {
        // The scrape endpoint serves live snapshots of the same registry the
        // driver writes; the handle keeps it serving until the run ends.
        let _metrics_server = match metrics_addr {
            Some(addr) => {
                let srv = telemetry::MetricsServer::bind(addr, telemetry.registry().clone())
                    .map_err(|e| format!("cannot bind metrics endpoint {addr}: {e}"))?;
                eprintln!("monitord: metrics at http://{}/metrics", srv.local_addr());
                Some(srv)
            }
            None => None,
        };
        let mut sink: Box<dyn Write> = match &cfg.out {
            None => Box::new(io::stdout()),
            Some(path) => Box::new(io::BufWriter::new(
                fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?,
            )),
        };
        // A daemon whose sink is gone (closed pipe, full disk) cannot usefully
        // continue; bail out of the whole process from inside the observer.
        let mut emit = move |line: String| {
            if writeln!(sink, "{line}")
                .and_then(|()| sink.flush())
                .is_err()
            {
                eprintln!("monitord: output sink failed, stopping");
                exit(1);
            }
        };

        let mut last_telemetry = Instant::now();
        let observer = |ev: FleetEvent<'_>| {
            match ev {
                FleetEvent::Sample {
                    path,
                    label,
                    sample,
                } => emit(sample_line(path, label, &sample)),
                FleetEvent::Change {
                    path,
                    label,
                    change,
                } => emit(change_line(path, label, &change)),
                FleetEvent::Failed { path, label, error } => {
                    eprintln!("monitord: measurement {path} ({label}) failed: {error}");
                }
            }
            if last_telemetry.elapsed() >= TELEMETRY_EVERY {
                last_telemetry = Instant::now();
                emit(telemetry_line(telemetry));
            }
        };
        let series = run_socket_fleet_async_with_telemetry(
            specs,
            &cfg.schedule,
            &cfg.series,
            cfg.horizon,
            stop,
            Some(telemetry),
            observer,
        )
        .map_err(|e| e.to_string())?;

        if stop.is_requested() {
            eprintln!("monitord: stopped early; summaries cover the data collected so far");
        }
        for (p, s) in series.iter().enumerate() {
            emit(summary_line(p, s));
        }
        // One final telemetry record so the stream's last snapshot matches
        // the digest below — both read the same registry.
        emit(telemetry_line(telemetry));
        eprint!("{}", fleet_summary(&series));
        eprint!("{}", telemetry.digest());
        Ok(())
    }
}

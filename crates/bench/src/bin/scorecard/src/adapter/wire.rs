//! The wire stack on the host's loopback interface: real UDP probes and
//! TCP control between `monitord::run_socket_fleet_async_with_telemetry`
//! (one event-loop thread — the caller's) and one
//! `pathload_net::EventedReceiver` on a thread the harness spawns so it
//! can read that thread's own CPU time.
//!
//! Loopback is a host, not a link: there is no bottleneck, so the right
//! answer for the tool is its own pacing cap.

use super::{Est, PathProbeCounters, ProbeCounts};
use crate::procfs;
use monitord::{
    run_socket_fleet_async_with_telemetry, FleetEvent, FleetTelemetry, ScheduleConfig,
    SeriesConfig, ShutdownFlag, SocketPathSpec,
};
use pathload_net::{EventedReceiver, SocketTransport};
use slops::SlopsConfig;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use telemetry::Histogram;
use units::{Rate, TimeNs};

/// Two paths: with the receiver's thread that is one busy thread per
/// core of the two-core box the benchmark is sized for.
pub const PATHS: usize = 2;

/// The senders' pacing cap, and therefore the "truth" on loopback.
pub const RATE_CAP_MBPS: f64 = 40.0;

/// Pacing errors at or below this count as on time (a histogram bucket
/// bound: 2^17 ns).
pub const ON_TIME_NS: u64 = 1 << 17;

/// A receiver serving on its own thread, and the hub it reports into.
pub struct Rig {
    addr: SocketAddr,
    tele: FleetTelemetry,
    stop: Arc<AtomicBool>,
    /// Yields the receiver's result and its thread's on-CPU nanoseconds.
    server: JoinHandle<(io::Result<()>, Option<u64>)>,
}

#[derive(Debug, Default)]
pub struct WireRun {
    pub ests: Vec<Est>,
    pub failed: u64,
    pub counts: ProbeCounts,
    /// On-CPU nanoseconds of the fleet's event-loop thread during the run
    /// and of the receiver's thread over its life; `None` without `/proc`.
    pub tx_cpu_ns: Option<u64>,
    pub rx_cpu_ns: Option<u64>,
    pub tx_voluntary_switches: Option<u64>,
    /// Stream packets the senders paced (every pacing-error observation).
    pub paced_pkts: u64,
    pub paced_on_time: u64,
    pub pacing_err_p50_ns: u64,
    pub pacing_err_p99_ns: u64,
    pub wakeups: u64,
    pub timer_lag_p50_ns: u64,
    pub timer_lag_p99_ns: u64,
    pub rx_batches: u64,
    pub rx_batched_datagrams: u64,
    pub demux_routed: u64,
    pub drops_unknown_token: u64,
    pub drops_collector_full: u64,
    pub drops_dedup: u64,
    pub silence_stops: u64,
}

/// The default tool configuration, except that streams follow each other
/// as fast as the protocol allows: the 10 % average-load cap exists to be
/// polite to cross traffic, and loopback carries none. Without it a
/// measurement takes 0.7 s instead of 6 s, so a ten-second run lands
/// dozens of estimates instead of two, over the same packets per estimate.
fn probe_config() -> SlopsConfig {
    SlopsConfig {
        avg_load_factor: 1.0,
        ..SlopsConfig::default()
    }
}

fn localhost() -> SocketAddr {
    SocketAddr::from(([127, 0, 0, 1], 0))
}

impl Rig {
    /// Bind the receiver on an ephemeral loopback port and start serving.
    pub fn start() -> io::Result<Rig> {
        let mut rx = EventedReceiver::bind(localhost())?;
        let tele = FleetTelemetry::new();
        rx.register_metrics(tele.registry());
        let addr = rx.ctrl_addr();
        let stop = Arc::new(AtomicBool::new(false));
        let stop_rx = Arc::clone(&stop);
        let server = std::thread::spawn(move || {
            let served = rx.run(&stop_rx);
            (served, procfs::thread_cpu_ns())
        });
        Ok(Rig {
            addr,
            tele,
            stop,
            server,
        })
    }

    /// Wall milliseconds to dial one sender (TCP connect, `Hello`, UDP
    /// socket) and hang up again.
    pub fn connect_once_ms(&self) -> io::Result<f64> {
        let t = Instant::now();
        drop(SocketTransport::connect(self.addr)?);
        Ok(t.elapsed().as_secs_f64() * 1e3)
    }

    /// Measure both paths back to back for `horizon` of wall time (a
    /// measurement started before the horizon is allowed to finish), then
    /// stop the receiver and read everything the run left in the registry.
    pub fn run(self, seed: u64, horizon: Duration) -> Result<WireRun, String> {
        let labels: Vec<String> = (0..PATHS).map(|i| format!("lo{i}")).collect();
        let specs = labels
            .iter()
            .map(|label| SocketPathSpec {
                label: label.clone(),
                ctrl_addr: self.addr,
                cfg: probe_config(),
                rate_cap: Some(Rate::from_mbps(RATE_CAP_MBPS)),
            })
            .collect();
        let sched = ScheduleConfig {
            period: TimeNs::from_millis(100),
            jitter: TimeNs::ZERO,
            max_concurrent: 0,
            seed,
        };
        let reg = self.tele.registry().clone();
        let counters: Vec<PathProbeCounters> = labels
            .iter()
            .map(|l| PathProbeCounters::resolve(&reg, l))
            .collect();
        let pacing: Vec<Histogram> = labels
            .iter()
            .map(|l| self.tele.pacing_histogram(l))
            .collect();

        let mut out = WireRun::default();
        // Probe cost of the sessions that have finished, per path: read
        // when a path's sample arrives, before its next session starts.
        let mut settled = vec![ProbeCounts::default(); PATHS];
        let cpu_before = procfs::thread_cpu_ns();
        let switches_before = procfs::thread_voluntary_switches();
        let fleet = run_socket_fleet_async_with_telemetry(
            specs,
            &sched,
            &SeriesConfig::default(),
            TimeNs::from_nanos(horizon.as_nanos() as u64),
            &ShutdownFlag::new(),
            Some(&self.tele),
            |ev: FleetEvent<'_>| match ev {
                FleetEvent::Sample { path, sample, .. } => {
                    out.ests.push(Est {
                        path: path as u32,
                        started_ns: sample.started.as_nanos(),
                        latency_ns: sample.duration.as_nanos(),
                        low_bps: sample.low.bps(),
                        high_bps: sample.high.bps(),
                        truth_bps: RATE_CAP_MBPS * 1e6,
                    });
                    settled[path] = counters[path].read(&probe_config());
                }
                FleetEvent::Failed { .. } => out.failed += 1,
                FleetEvent::Change { .. } => {}
            },
        );
        out.tx_cpu_ns = procfs::thread_cpu_ns()
            .zip(cpu_before)
            .map(|(after, before)| after - before);
        out.tx_voluntary_switches = procfs::thread_voluntary_switches()
            .zip(switches_before)
            .map(|(after, before)| after - before);

        out.rx_cpu_ns = self.shutdown()?;
        fleet.map_err(|e| format!("the loopback fleet failed: {e}"))?;
        out.counts = settled.into_iter().sum();

        let mut buckets = vec![0u64; 65];
        for h in &pacing {
            for (sum, n) in buckets.iter_mut().zip(h.bucket_counts()) {
                *sum += n;
            }
        }
        out.paced_pkts = buckets.iter().sum();
        out.paced_on_time = buckets[..=ON_TIME_NS.trailing_zeros() as usize]
            .iter()
            .sum();
        out.pacing_err_p50_ns = bucket_quantile(&buckets, 0.50);
        out.pacing_err_p99_ns = bucket_quantile(&buckets, 0.99);

        let lag = reg.histogram("eventloop_timer_lag_ns", &[]);
        out.timer_lag_p50_ns = lag.quantile(0.50).unwrap_or(0);
        out.timer_lag_p99_ns = lag.quantile(0.99).unwrap_or(0);
        out.wakeups = reg.counter("eventloop_wakeups_total", &[]).get();
        let batch = reg.histogram("receiver_recv_batch_size", &[]);
        out.rx_batches = batch.count();
        out.rx_batched_datagrams = batch.sum();
        out.demux_routed = reg.counter("receiver_demux_routed_total", &[]).get();
        let drops = |reason| {
            reg.counter("receiver_demux_drops_total", &[("reason", reason)])
                .get()
        };
        out.drops_unknown_token = drops("unknown_token");
        out.drops_collector_full = drops("collector_full");
        out.drops_dedup = drops("dedup");
        out.silence_stops = reg
            .counter("receiver_collect_silence_stops_total", &[])
            .get();
        Ok(out)
    }

    /// Stop the receiver and join its thread; yields the thread's on-CPU
    /// nanoseconds (`None` without `/proc`).
    pub fn shutdown(self) -> Result<Option<u64>, String> {
        self.stop.store(true, Ordering::SeqCst);
        let (served, cpu_ns) = self
            .server
            .join()
            .map_err(|_| "the receiver thread panicked".to_string())?;
        served.map_err(|e| format!("the receiver failed: {e}"))?;
        Ok(cpu_ns)
    }
}

/// Upper bound of the `q`-quantile of merged `telemetry::Histogram`
/// buckets (bucket `i` holds values `<= 2^i`), 0 when empty — the same
/// rule as `Histogram::quantile`, over several histograms at once.
fn bucket_quantile(buckets: &[u64], q: f64) -> u64 {
    let count: u64 = buckets.iter().sum();
    if count == 0 {
        return 0;
    }
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0;
    for (i, n) in buckets.iter().enumerate() {
        seen += n;
        if seen >= rank {
            return if i >= 64 { u64::MAX } else { 1 << i };
        }
    }
    u64::MAX
}

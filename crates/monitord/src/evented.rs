//! The socket fleet driver (the `monitord` binary's): hundreds of socket
//! paths on **one thread**.
//!
//! [`run_socket_fleet_async_with_telemetry`] hosts N non-blocking
//! [`pathload_net::EventedSession`]s plus the sans-IO [`Fleet`] on a
//! single [`pathload_net::mux::EventLoop`]: every session's control TCP
//! and probe UDP sockets are registered with one epoll instance, and every
//! deadline a blocking stack would *sleep* on (scheduler start instants,
//! packet pacing, inter-stream idles) is a timer entry on the loop's
//! queue. No worker per in-flight measurement, so a daemon is not capped
//! at tens of paths.
//!
//! Both repo invariants hold by construction:
//!
//! * **estimation logic lives in the machine** — `EventedSession` is a
//!   pure command/event pump of `slops::SessionMachine` (see
//!   `docs/DRIVERS.md`);
//! * **scheduling policy lives in the scheduler** — the driver is a pump
//!   over the sans-IO [`Fleet`]: every start is taken from
//!   [`Fleet::next_start`] (the start instant becomes a timer entry) and
//!   every completion is handed back through [`Fleet::complete`] the
//!   moment the loop observes it. Completions arrive one at a time on an
//!   event loop, so the tick-grouped replay the batching thread driver
//!   needs (`docs/DRIVERS.md` gotchas) is satisfied trivially.
//!
//! Each monitored path is a [`SocketPathSpec`]: one
//! [`pathload_net::SocketTransport`] connected to a `pathload_rcv`
//! receiver near that path's far end. Receivers are session-multiplexing,
//! so paths whose far ends are co-located may all name the **same**
//! receiver address — each connection becomes its own session, demuxed by
//! the token in every probe packet. All transports of a fleet share
//! **one clock epoch** ([`pathload_net::clock::MonoClock::same_epoch`]):
//! the scheduler staggers starts across paths on a single timeline, so
//! the per-path `elapsed()` clocks must agree on what "now" means.
//!
//! This module holds only the substrate: one long-lived
//! [`EventedSession`] per path (its sender for the life of the
//! connection), the instant of each path's issued start, and the one
//! `dial`. The observer surface
//! ([`FleetEvent`]), shutdown ([`ShutdownFlag`]: pending starts are
//! cancelled, in-flight measurements land), series stores and JSONL
//! export are the fleet core's, shared with the other drivers.
//!
//! Like every wall-clock driver, the schedule is best effort: a start
//! instant may already be in the past when its timer pops (the measurement
//! then starts immediately), and the exact tick grid is not asserted.
//!
//! **Reconnect policy** (driver/scheduler plumbing, not estimation): when
//! a measurement fails with a *transport* error — the receiver died,
//! restarted, or the control channel broke — the path's sender is
//! dropped and the path is disconnected. The scheduler
//! keeps issuing the path's periodic starts as if nothing happened; each
//! start on a disconnected path calls `dial` first (fresh `Hello`,
//! fresh session token — a restarted receiver speaks to it like any new
//! sender) and measures on success. A failed re-dial counts as that
//! start's failure and the next scheduled start retries. Paths whose
//! receivers stay up never notice; nothing is fatal after the initial
//! fleet connect, which is the same `dial` of every path.

// Datapath module: a panicking branch here takes the whole fleet down,
// so `unwrap`/`expect` are denied outright (errors must travel as values).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::fleet::{Fleet, FleetEvent, ShutdownFlag};
use crate::metrics::FleetTelemetry;
use crate::scheduler::ScheduleConfig;
use crate::store::{PathSeries, SeriesConfig};
use pathload_net::clock::MonoClock;
use pathload_net::mux::{EventLoop, MuxEvent};
use pathload_net::{EventedSession, SessionTokens, SocketTransport};
use slops::{SlopsConfig, SlopsError, TransportError};
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;
use telemetry::{Histogram, TraceSink};
use units::{Rate, TimeNs};

/// One monitored path of a socket-backed fleet.
#[derive(Clone, Debug)]
pub struct SocketPathSpec {
    /// Label carried into the series and the export layer.
    pub label: String,
    /// Control address of the path's `pathload_rcv` receiver.
    pub ctrl_addr: SocketAddr,
    /// Measurement configuration for this path.
    pub cfg: SlopsConfig,
    /// Override of the transport's pacing rate cap (see
    /// [`SocketTransport::rate_cap`]); `None` keeps the default.
    pub rate_cap: Option<Rate>,
}

/// A path's trace sink and pacing histogram, from the fleet's hub.
type Instruments = (Arc<dyn TraceSink>, Histogram);

/// Connect path `p` to its receiver on the fleet's clock `epoch` (every
/// path shares it: the scheduler staggers starts on one timeline) and
/// return its sender, rate cap and instruments attached. Blocks for the
/// TCP connect and the `Hello` read, up to `tx::CTRL_TIMEOUT`.
fn dial(
    spec: &SocketPathSpec,
    p: usize,
    epoch: &MonoClock,
    instruments: Option<&Instruments>,
) -> Result<EventedSession, SlopsError> {
    let mut transport =
        SocketTransport::connect_with_clock(spec.ctrl_addr, epoch.same_epoch()).map_err(io_err)?;
    if let Some(cap) = spec.rate_cap {
        transport.rate_cap = cap;
    }
    if let Some((_, hist)) = instruments {
        transport.set_pacing_histogram(hist.clone());
    }
    let tokens = SessionTokens {
        ctrl: tok(TOK_CTRL, p),
        probe: tok(TOK_PROBE, p),
        timer: tok(TOK_TIMER, p),
    };
    let mut sender = EventedSession::new(transport, tokens);
    if let Some((sink, _)) = instruments {
        sender.set_trace_sink(Arc::clone(sink));
    }
    Ok(sender)
}

/// Upper bound on one `EventLoop::wait`, so the loop re-checks the
/// shutdown flag and the fleet's state even when nothing is happening.
const WAIT_SLICE: Duration = Duration::from_millis(50);

/// Token layout: kind in the top byte, the path index at the bottom. A
/// path's start timer is keyed by its token, so shutdown cancels it.
const TOK_CTRL: u64 = 1;
const TOK_PROBE: u64 = 2;
const TOK_TIMER: u64 = 3;
const TOK_START: u64 = 4;

fn tok(kind: u64, path: usize) -> u64 {
    (kind << 56) | path as u64
}

fn untok(token: u64) -> (u64, usize) {
    (token >> 56, (token & 0xFFFF_FFFF) as usize)
}

fn io_err(e: io::Error) -> SlopsError {
    SlopsError::Transport(TransportError::Io(e.to_string()))
}

/// Run a socket-backed monitoring fleet on one event-loop thread:
/// connect every path, then measure each periodically (staggered,
/// jittered, capped — see [`ScheduleConfig`]) until `horizon` of
/// wall-clock time has passed since the fleet connected, streaming a
/// [`FleetEvent`] per stored sample, failure, and flagged change.
///
/// Returns the per-path series in path order. Connection failures are
/// fatal; failures of individual measurements after that are counted on
/// the path's series and monitoring continues.
///
/// When `stop` is requested, the scheduler stops issuing starts, pending
/// (not yet begun) starts are cancelled without being measured, in-flight
/// measurements land and are recorded, and the series collected so far
/// are returned — the same contract as
/// [`run_fleet_with_telemetry`](crate::thread::run_fleet_with_telemetry).
/// With a [`FleetTelemetry`] hub, every session's machine trace is
/// forwarded to the hub's per-path sinks, per-packet pacing error goes to
/// the hub's `pacing_error_ns{path="…"}` histograms, and the event loop
/// reports its wakeup count, timer lag and learned spin window
/// (`eventloop_wakeups_total`, `eventloop_timer_lag_ns`,
/// `eventloop_spin_window_ns`).
pub fn run_socket_fleet_async_with_telemetry(
    specs: Vec<SocketPathSpec>,
    sched_cfg: &ScheduleConfig,
    series_cfg: &SeriesConfig,
    horizon: TimeNs,
    stop: &ShutdownFlag,
    telemetry: Option<&FleetTelemetry>,
    mut observer: impl FnMut(FleetEvent<'_>),
) -> Result<Vec<PathSeries>, SlopsError> {
    // Refuses an empty fleet too, before anything is dialled.
    Fleet::validate(specs.iter().map(|s| &s.cfg))?;
    let instruments: Option<Vec<Instruments>> = telemetry.map(|t| {
        specs
            .iter()
            .map(|s| (t.trace_sink(&s.label), t.pacing_histogram(&s.label)))
            .collect()
    });
    let instruments = |p: usize| instruments.as_ref().and_then(|i| i.get(p));
    let epoch = MonoClock::new();
    let now = || TimeNs::from_nanos(epoch.now_ns());
    // Each path's sender; `None` while its receiver is unreachable.
    let mut senders = Vec::with_capacity(specs.len());
    for (p, spec) in specs.iter().enumerate() {
        senders.push(Some(dial(spec, p, &epoch, instruments(p))?));
    }
    let mut lp = EventLoop::new(epoch.same_epoch()).map_err(io_err)?;
    if let Some(t) = telemetry {
        lp.set_metrics(
            t.registry().counter("eventloop_wakeups_total", &[]),
            t.registry().histogram("eventloop_timer_lag_ns", &[]),
            t.registry().gauge("eventloop_spin_window_ns", &[]),
        );
    }
    let mut fleet = Fleet::new(
        specs.iter().map(|s| (s.label.as_str(), &s.cfg)),
        now(),
        horizon,
        sched_cfg,
        series_cfg,
    )?;
    if let Some(t) = telemetry {
        fleet.attach_telemetry(t);
    }
    // The instant of each path's issued start, from `next_start` until
    // its measurement completes or the start is cancelled.
    let mut started: Vec<Option<TimeNs>> = vec![None; specs.len()];

    let mut events: Vec<MuxEvent> = Vec::new();
    loop {
        // Graceful shutdown: the fleet stops issuing starts; pending
        // (unstarted) ones, those whose timer is still armed, are
        // cancelled here, and active measurements run to completion.
        if fleet.apply_stop(stop) {
            for (p, at) in started.iter_mut().enumerate() {
                if lp.disarm_timer(tok(TOK_START, p)) {
                    *at = None;
                    fleet.cancel(p, now());
                }
            }
        }

        // Issue every start the fleet can decide: each becomes a timer
        // entry at its start instant (possibly already past — the timer
        // then pops on the next wait, i.e. start immediately).
        while let Some((p, at)) = fleet.next_start() {
            started[p] = Some(at);
            lp.arm_timer(at.as_nanos(), 0, tok(TOK_START, p));
        }

        fleet.observe(now());
        if fleet.scheduler().is_done() {
            break;
        }

        events.clear();
        lp.wait(&mut events, WAIT_SLICE).map_err(io_err)?;
        for ev in &events {
            let token = match *ev {
                MuxEvent::Io(r) => r.token,
                MuxEvent::Timer { token } => token,
            };
            let (kind, p) = untok(token);
            // A path with no start issued has nothing registered or armed.
            let Some(&Some(at)) = started.get(p) else {
                continue;
            };
            let outcome = if kind == TOK_START {
                // Receiver gone: the start stands, prefixed by a re-dial
                // whose failure is this start's.
                let sender = match &mut senders[p] {
                    Some(sender) => Ok(sender),
                    slot @ None => {
                        dial(&specs[p], p, &epoch, instruments(p)).map(|s| slot.insert(s))
                    }
                };
                match sender.and_then(|s| s.begin(&lp, specs[p].cfg.clone())) {
                    Ok(()) => continue,
                    Err(error) => Err(error),
                }
            } else {
                let Some(sender) = &mut senders[p] else {
                    continue;
                };
                sender.on_event(&mut lp, ev);
                match sender.take_outcome(&lp) {
                    Some(outcome) => outcome,
                    None => continue,
                }
            };
            started[p] = None;
            // A transport-level failure means the far end is gone or
            // restarted: the connection and its session token are
            // useless, so the path disconnects and its next start
            // re-dials. Any other failure keeps the connection.
            if matches!(outcome, Err(SlopsError::Transport(_))) {
                senders[p] = None;
            }
            fleet.complete(p, at, outcome, now(), &mut observer);
        }
    }
    Ok(fleet.into_series())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use pathload_net::EventedReceiver;
    use std::thread;
    use std::time::Instant;

    fn gentle_cfg() -> SlopsConfig {
        let mut cfg = SlopsConfig::default();
        cfg.stream_len = 20;
        cfg.fleet_len = 3;
        cfg.min_period = TimeNs::from_millis(1);
        cfg.resolution = Rate::from_mbps(10.0);
        cfg.grey_resolution = Rate::from_mbps(20.0);
        cfg.max_fleets = 4;
        cfg
    }

    fn spec(label: &str, ctrl_addr: SocketAddr) -> SocketPathSpec {
        SocketPathSpec {
            label: label.into(),
            ctrl_addr,
            cfg: gentle_cfg(),
            rate_cap: Some(Rate::from_mbps(30.0)),
        }
    }

    /// A fleet of no path is a configuration error, refused before
    /// anything is dialled, and in the words the thread driver uses.
    #[test]
    fn an_empty_fleet_is_refused_as_by_the_thread_driver() {
        let (sched, series) = (ScheduleConfig::default(), SeriesConfig::default());
        let horizon = TimeNs::from_secs(1);
        let stop = ShutdownFlag::new();
        let socket = run_socket_fleet_async_with_telemetry(
            Vec::new(),
            &sched,
            &series,
            horizon,
            &stop,
            None,
            |_| panic!("no path, no event"),
        );
        let thread = crate::thread::run_fleet_with_telemetry(
            Vec::new(),
            &sched,
            &series,
            horizon,
            1,
            &stop,
            None,
            |_| panic!("no path, no event"),
        );
        let (Err(socket), Err(thread)) = (socket, thread) else {
            panic!("an empty fleet ran");
        };
        assert!(matches!(socket, SlopsError::BadConfig(_)), "{socket}");
        assert_eq!(socket.to_string(), thread.to_string());
    }

    /// Two paths naming ONE receiver address dial two sessions of it (the
    /// receiver demuxes them by token), each with its rate cap, on the
    /// fleet's one clock epoch.
    #[test]
    fn loopback_pair_shares_one_receiver() {
        let rx = EventedReceiver::bind("127.0.0.1:0".parse().unwrap())
            .unwrap()
            .spawn();
        let epoch = MonoClock::new();
        let before = epoch.now_ns();
        let senders: Vec<EventedSession> = ["lo0", "lo1"]
            .iter()
            .enumerate()
            .map(|(p, l)| dial(&spec(l, rx.ctrl_addr()), p, &epoch, None).unwrap())
            .collect();
        let [t0, t1] = [senders[0].transport(), senders[1].transport()];
        assert_ne!(t0.session(), t1.session());
        for transport in [t0, t1] {
            assert_eq!(transport.rate_cap, Rate::from_mbps(30.0));
            let at = transport.elapsed().as_nanos();
            assert!(
                before <= at && at <= epoch.now_ns(),
                "not on the fleet's clock epoch"
            );
        }
        drop(senders);
        rx.stop().unwrap();
    }

    /// Two loopback paths sharing ONE receiver address, multiplexed on a
    /// single event-loop thread: every path gets at least one sample,
    /// nothing errors, and streamed events match the stored series.
    #[test]
    fn loopback_pair_on_one_event_loop_thread() {
        let rx = EventedReceiver::bind("127.0.0.1:0".parse().unwrap())
            .unwrap()
            .spawn();
        let addr = rx.ctrl_addr();
        let specs = (0..2).map(|i| spec(&format!("lo{i}"), addr)).collect();
        let sched = ScheduleConfig {
            period: TimeNs::from_secs(2),
            jitter: TimeNs::from_millis(100),
            max_concurrent: 1,
            seed: 1,
        };
        let mut samples = 0usize;
        let series = run_socket_fleet_async_with_telemetry(
            specs,
            &sched,
            &SeriesConfig::default(),
            TimeNs::from_secs(4),
            &ShutdownFlag::new(),
            None,
            |ev| {
                if matches!(ev, FleetEvent::Sample { .. }) {
                    samples += 1;
                }
            },
        )
        .unwrap();
        assert_eq!(series.len(), 2);
        for s in &series {
            assert!(!s.is_empty(), "{}: no samples", s.label());
            assert_eq!(s.errors(), 0, "{}: errored", s.label());
            for r in s.samples() {
                assert!(r.low.bps() <= r.high.bps());
            }
        }
        assert_eq!(samples, series.iter().map(|s| s.len()).sum::<usize>());
        rx.stop().unwrap();
    }

    /// A preset shutdown flag stops the fleet before any measurement.
    #[test]
    fn preset_shutdown_flag_stops_before_any_measurement() {
        let rx = EventedReceiver::bind("127.0.0.1:0".parse().unwrap())
            .unwrap()
            .spawn();
        let addr = rx.ctrl_addr();
        let stop = ShutdownFlag::new();
        stop.request();
        let specs = vec![SocketPathSpec {
            label: "lo".into(),
            ctrl_addr: addr,
            cfg: gentle_cfg(),
            rate_cap: None,
        }];
        let series = run_socket_fleet_async_with_telemetry(
            specs,
            &ScheduleConfig::default(),
            &SeriesConfig::default(),
            TimeNs::from_secs(600),
            &stop,
            None,
            |_| panic!("no event may fire after shutdown was requested"),
        )
        .unwrap();
        assert_eq!(series.len(), 1);
        assert!(series[0].is_empty(), "no starts issued");
        rx.stop().unwrap();
    }

    /// An unreachable receiver is a fatal connect error.
    #[test]
    fn unreachable_receiver_is_a_connect_error() {
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let specs = vec![SocketPathSpec {
            label: "dead".into(),
            ctrl_addr: dead,
            cfg: gentle_cfg(),
            rate_cap: None,
        }];
        let err = run_socket_fleet_async_with_telemetry(
            specs,
            &ScheduleConfig::default(),
            &SeriesConfig::default(),
            TimeNs::from_secs(1),
            &ShutdownFlag::new(),
            None,
            |_| {},
        );
        assert!(matches!(err, Err(SlopsError::Transport(_))));
    }

    /// A shutdown request cancels a start that is still waiting for its
    /// start instant: with path 1 staggered 5 s out and the flag raised
    /// at ~1.5 s, the fleet returns promptly (path 1 is never measured)
    /// instead of sleeping out the stagger and probing after the signal.
    #[test]
    fn shutdown_cancels_a_dispatched_but_unstarted_measurement() {
        let rx = EventedReceiver::bind("127.0.0.1:0".parse().unwrap())
            .unwrap()
            .spawn();
        let specs = ["lo0", "lo1"]
            .iter()
            .map(|l| spec(l, rx.ctrl_addr()))
            .collect();
        let sched = ScheduleConfig {
            period: TimeNs::from_secs(10), // stagger puts path 1 at +5 s
            jitter: TimeNs::ZERO,
            max_concurrent: 2,
            seed: 2,
        };
        let stop = ShutdownFlag::new();
        let signal = {
            let stop = stop.clone();
            thread::spawn(move || {
                thread::sleep(Duration::from_millis(1_500));
                stop.request();
            })
        };
        let begun = Instant::now();
        let series = run_socket_fleet_async_with_telemetry(
            specs,
            &sched,
            &SeriesConfig::default(),
            TimeNs::from_secs(60),
            &stop,
            None,
            |_| {},
        )
        .unwrap();
        let elapsed = begun.elapsed();
        signal.join().unwrap();
        rx.stop().unwrap();

        // Path 0 measured once (it started immediately); path 1's start
        // was cancelled while pending — no sample, no error.
        assert_eq!(series[0].len(), 1, "path 0 measures before the signal");
        assert_eq!(series[1].len(), 0, "path 1 must be cancelled, not measured");
        assert_eq!(series[0].errors() + series[1].errors(), 0);
        assert!(
            elapsed < Duration::from_millis(4_500),
            "shutdown waited out the stagger: {elapsed:?}"
        );
    }

    /// A shutdown request lets a measurement already begun land: the two
    /// paths start 10 ms apart, the flag is raised by the first sample,
    /// and the other path, mid-measurement then (its start timer popped,
    /// nothing left to disarm), still reports its sample.
    #[test]
    fn shutdown_lets_an_in_flight_measurement_land() {
        let rx = EventedReceiver::bind("127.0.0.1:0".parse().unwrap())
            .unwrap()
            .spawn();
        let specs = ["lo0", "lo1"]
            .iter()
            .map(|l| spec(l, rx.ctrl_addr()))
            .collect();
        let sched = ScheduleConfig {
            period: TimeNs::from_millis(20), // stagger puts path 1 at +10 ms
            jitter: TimeNs::ZERO,
            max_concurrent: 2,
            seed: 2,
        };
        let stop = ShutdownFlag::new();
        let series = run_socket_fleet_async_with_telemetry(
            specs,
            &sched,
            &SeriesConfig::default(),
            TimeNs::from_secs(60),
            &stop,
            None,
            |ev| {
                if matches!(ev, FleetEvent::Sample { .. }) {
                    stop.request();
                }
            },
        )
        .unwrap();
        rx.stop().unwrap();

        for s in &series {
            assert_eq!(s.len(), 1, "{}: the in-flight measurement", s.label());
            assert_eq!(s.errors(), 0, "{}: errored", s.label());
        }
    }
}

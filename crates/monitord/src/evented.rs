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
//! This module holds only the substrate: the paths' connections, the
//! per-path slot state machine, token generations and re-dial. The observer surface
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
//! restarted, or the control channel broke — the path's transport is
//! dropped and the slot parks as disconnected. The scheduler
//! keeps issuing the path's periodic starts as if nothing happened; each
//! start on a disconnected path re-dials the receiver's address first
//! (fresh `Hello`, fresh session token — a restarted receiver speaks to
//! it like any new sender) and measures on success. A failed re-dial
//! counts as that start's failure and the next scheduled start retries.
//! Paths whose receivers stay up never notice; nothing is fatal after
//! the initial fleet connect.

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

/// Connect one [`SocketTransport`] per path, all sharing a single clock
/// epoch. Returns the epoch clock (so an event loop can read the same
/// timeline) and the connected `(spec, transport)` pairs in path order.
fn connect_transports(
    specs: Vec<SocketPathSpec>,
) -> io::Result<(MonoClock, Vec<(SocketPathSpec, SocketTransport)>)> {
    let epoch = MonoClock::new();
    let mut out = Vec::with_capacity(specs.len());
    for spec in specs {
        let mut transport =
            SocketTransport::connect_with_clock(spec.ctrl_addr, epoch.same_epoch())?;
        if let Some(cap) = spec.rate_cap {
            transport.rate_cap = cap;
        }
        out.push((spec, transport));
    }
    Ok((epoch, out))
}

/// Upper bound on one `EventLoop::wait`, so the loop re-checks the
/// shutdown flag and the fleet's state even when nothing is happening.
const WAIT_SLICE: Duration = Duration::from_millis(50);

/// Token layout: kind in the top byte, a per-path generation in the
/// middle (timers cannot be cancelled, so a stale entry must never be
/// mistaken for a live session's), the path index at the bottom.
const TOK_CTRL: u64 = 1;
const TOK_PROBE: u64 = 2;
const TOK_TIMER: u64 = 3;
const TOK_START: u64 = 4;

fn tok(kind: u64, generation: u64, path: usize) -> u64 {
    (kind << 56) | ((generation & 0xFF_FFFF) << 32) | path as u64
}

fn untok(token: u64) -> (u64, u64, usize) {
    (
        token >> 56,
        (token >> 32) & 0xFF_FFFF,
        (token & 0xFFFF_FFFF) as usize,
    )
}

/// Where one path of the fleet currently is.
enum Slot {
    /// Connected, no measurement scheduled.
    Idle(SocketTransport),
    /// The scheduler issued a start at `at`; a timer entry is armed.
    Pending {
        transport: SocketTransport,
        at: TimeNs,
    },
    /// A measurement is in flight on the event loop.
    Active {
        session: Box<EventedSession>,
        at: TimeNs,
    },
    /// The path's transport died (receiver gone/restarted). The next
    /// scheduled start re-dials.
    Disconnected,
    /// The scheduler issued a start at `at` on a disconnected path; the
    /// armed timer re-dials before measuring.
    PendingRedial { at: TimeNs },
    /// Transient placeholder during transitions (never observed).
    Moving,
}

impl Slot {
    fn take(&mut self) -> Slot {
        std::mem::replace(self, Slot::Moving)
    }
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
    assert!(!specs.is_empty(), "a fleet needs at least one path");
    Fleet::validate(specs.iter().map(|s| &s.cfg))?;
    // Per-path instruments, built before the specs are consumed. A
    // re-dialled transport is a fresh protocol core, so the histogram is
    // attached at every session start, not once at connect.
    let instruments: Option<Vec<(Arc<dyn TraceSink>, Histogram)>> = telemetry.map(|t| {
        specs
            .iter()
            .map(|s| (t.trace_sink(&s.label), t.pacing_histogram(&s.label)))
            .collect()
    });
    let (epoch, connected) = connect_transports(specs).map_err(io_err)?;
    let mut lp = EventLoop::new(epoch.same_epoch()).map_err(io_err)?;
    if let Some(t) = telemetry {
        lp.set_metrics(
            t.registry().counter("eventloop_wakeups_total", &[]),
            t.registry().histogram("eventloop_timer_lag_ns", &[]),
            t.registry().gauge("eventloop_spin_window_ns", &[]),
        );
    }

    // The fleet epoch: the latest transport clock (all share one epoch).
    // The fleet is non-empty (asserted above), so `max` always yields;
    // ZERO is a dead fallback keeping the datapath panic-free.
    let t0 = connected
        .iter()
        .map(|(_, t)| t.elapsed())
        .max()
        .unwrap_or(TimeNs::ZERO);
    let n = connected.len();
    let mut fleet = Fleet::new(
        connected
            .iter()
            .map(|(spec, _)| (spec.label.as_str(), &spec.cfg)),
        t0,
        horizon,
        sched_cfg,
        series_cfg,
    )?;
    if let Some(t) = telemetry {
        fleet.attach_telemetry(t);
    }
    let mut cfgs: Vec<SlopsConfig> = Vec::with_capacity(n);
    let mut slots: Vec<Slot> = Vec::with_capacity(n);
    // Retained for re-dialing after a receiver restart.
    let mut addrs = Vec::with_capacity(n);
    let mut caps = Vec::with_capacity(n);
    for (spec, transport) in connected {
        addrs.push(spec.ctrl_addr);
        caps.push(spec.rate_cap);
        cfgs.push(spec.cfg);
        slots.push(Slot::Idle(transport));
    }
    // Bumped whenever a path's session or pending start retires, so the
    // lazily-cancelled timer entries of earlier lives are ignored.
    let mut generation: Vec<u64> = vec![0; n];

    let mut events: Vec<MuxEvent> = Vec::new();
    loop {
        // Graceful shutdown: the fleet stops issuing starts; pending
        // (unstarted) ones are cancelled here — their timers lazily, by
        // the generation bump — and active sessions run to completion.
        if fleet.apply_stop(stop) {
            let now = TimeNs::from_nanos(epoch.now_ns());
            for (p, slot) in slots.iter_mut().enumerate() {
                *slot = match slot.take() {
                    Slot::Pending { transport, .. } => Slot::Idle(transport),
                    Slot::PendingRedial { .. } => Slot::Disconnected,
                    other => {
                        *slot = other;
                        continue;
                    }
                };
                generation[p] += 1;
                fleet.cancel(p, now);
            }
        }

        // Issue every start the fleet can decide: each becomes a timer
        // entry at its start instant (possibly already past — the timer
        // then pops on the next wait, i.e. start immediately).
        while let Some((p, at)) = fleet.next_start() {
            match slots[p].take() {
                Slot::Idle(transport) => slots[p] = Slot::Pending { transport, at },
                // Receiver gone: the start stands, prefixed by a re-dial.
                Slot::Disconnected => slots[p] = Slot::PendingRedial { at },
                // The scheduler never starts a busy path; tolerate the
                // impossible (slot back, start skipped) rather than
                // panic mid-fleet.
                other => {
                    slots[p] = other;
                    continue;
                }
            }
            lp.arm_timer(at.as_nanos(), tok(TOK_START, generation[p], p));
        }

        fleet.observe(TimeNs::from_nanos(epoch.now_ns()));

        if fleet.scheduler().is_done()
            && slots
                .iter()
                .all(|s| matches!(s, Slot::Idle(_) | Slot::Disconnected))
        {
            break;
        }

        events.clear();
        lp.wait(&mut events, WAIT_SLICE).map_err(io_err)?;
        for &ev in &events {
            let token = match ev {
                MuxEvent::Io(r) => r.token,
                MuxEvent::Timer { token } => token,
            };
            let (kind, generation_tag, p) = untok(token);
            if p >= n || generation_tag != (generation[p] & 0xFF_FFFF) {
                continue; // stale timer or retired session
            }
            // A transport-level failure means the far end is gone or
            // restarted: the old control channel and session token are
            // useless, so the slot parks Disconnected and the next
            // scheduled start re-dials. Any other failure keeps the
            // connection.
            macro_rules! park {
                ($p:expr, $transport:expr, $error:expr) => {{
                    if matches!($error, SlopsError::Transport(_)) {
                        drop($transport);
                        slots[$p] = Slot::Disconnected;
                    } else {
                        slots[$p] = Slot::Idle($transport);
                    }
                }};
            }
            match kind {
                TOK_START => {
                    // Resolve the start's transport: either the held idle
                    // one, or a fresh re-dial of the path's receiver.
                    let (mut transport, at) = match slots[p].take() {
                        Slot::Pending { transport, at } => (transport, at),
                        Slot::PendingRedial { at } => {
                            match SocketTransport::connect_with_clock(addrs[p], epoch.same_epoch())
                            {
                                Ok(mut t) => {
                                    if let Some(cap) = caps[p] {
                                        t.rate_cap = cap;
                                    }
                                    (t, at)
                                }
                                Err(e) => {
                                    // Receiver still down: this start
                                    // fails, the next one retries.
                                    slots[p] = Slot::Disconnected;
                                    generation[p] += 1;
                                    let now = TimeNs::from_nanos(epoch.now_ns());
                                    fleet.complete(p, at, Err(io_err(e)), now, &mut observer);
                                    continue;
                                }
                            }
                        }
                        other => {
                            slots[p] = other; // cancelled or already begun
                            continue;
                        }
                    };
                    // Begin the measurement scheduled for this path.
                    let tokens = SessionTokens {
                        ctrl: tok(TOK_CTRL, generation[p], p),
                        probe: tok(TOK_PROBE, generation[p], p),
                        timer: tok(TOK_TIMER, generation[p], p),
                    };
                    if let Some(instruments) = &instruments {
                        transport.set_pacing_histogram(instruments[p].1.clone());
                    }
                    match EventedSession::new(transport, cfgs[p].clone(), tokens) {
                        Ok(mut session) => {
                            if let Some(instruments) = &instruments {
                                session.set_trace_sink(Arc::clone(&instruments[p].0));
                            }
                            match session.register(&lp) {
                                Ok(()) => {
                                    slots[p] = Slot::Active {
                                        session: Box::new(session),
                                        at,
                                    };
                                }
                                Err(e) => {
                                    let transport = session.abort(&lp);
                                    let finished = transport.elapsed();
                                    let error = io_err(e);
                                    park!(p, transport, error);
                                    generation[p] += 1;
                                    fleet.complete(p, at, Err(error), finished, &mut observer);
                                }
                            }
                        }
                        Err((transport, error)) => {
                            let finished = transport.elapsed();
                            park!(p, transport, error);
                            generation[p] += 1;
                            fleet.complete(p, at, Err(error), finished, &mut observer);
                        }
                    }
                }
                TOK_CTRL | TOK_PROBE | TOK_TIMER => match slots[p].take() {
                    Slot::Active { mut session, at } => {
                        session.on_event(&mut lp, &ev);
                        if session.is_finished() {
                            let (transport, outcome) = session.finish(&lp);
                            let finished = transport.elapsed();
                            match &outcome {
                                Err(error) => park!(p, transport, *error),
                                Ok(_) => slots[p] = Slot::Idle(transport),
                            }
                            generation[p] += 1;
                            fleet.complete(p, at, outcome, finished, &mut observer);
                        } else {
                            slots[p] = Slot::Active { session, at };
                        }
                    }
                    other => slots[p] = other,
                },
                _ => {}
            }
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

    /// Two paths naming ONE receiver address connect as two sessions of
    /// it (the receiver demuxes them by token), in path order, with their
    /// rate caps, on the fleet's one clock epoch.
    #[test]
    fn loopback_pair_shares_one_receiver() {
        let rx = EventedReceiver::bind("127.0.0.1:0".parse().unwrap())
            .unwrap()
            .spawn();
        let specs = ["lo0", "lo1"]
            .iter()
            .map(|l| spec(l, rx.ctrl_addr()))
            .collect();
        let (epoch, connected) = connect_transports(specs).unwrap();
        let before = epoch.now_ns();
        let labels: Vec<&str> = connected.iter().map(|(s, _)| s.label.as_str()).collect();
        assert_eq!(labels, ["lo0", "lo1"]);
        assert_ne!(connected[0].1.session(), connected[1].1.session());
        for (spec, transport) in &connected {
            assert_eq!(transport.rate_cap, Rate::from_mbps(30.0));
            let at = transport.elapsed().as_nanos();
            assert!(
                before <= at && at <= epoch.now_ns(),
                "{}: not on the fleet's clock epoch",
                spec.label
            );
        }
        drop(connected);
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
}

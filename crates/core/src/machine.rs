//! The sans-IO measurement state machine.
//!
//! [`SessionMachine`] is the full pathload control loop of §IV — ADR
//! initialization, fleets of periodic streams, grey-region bisection, the
//! ω / χ termination rules — with **all I/O and clock access removed**. It
//! communicates with the outside world through two channels:
//!
//! * [`SessionMachine::poll`] emits the next [`Command`] the driver must
//!   execute (send a train, send a stream, idle, or finish);
//! * [`SessionMachine::on_event`] consumes the [`Event`] produced by that
//!   command (train record, stream record, stream loss, or a clock tick
//!   after an idle).
//!
//! The machine is fully deterministic: the same event sequence always
//! produces the same command sequence and the same [`Estimate`]. That makes
//! every intermediate state unit-testable without a transport, and lets one
//! control loop serve radically different drivers:
//!
//! * the blocking [`crate::Session::run`] driver over any
//!   [`crate::transport::ProbeTransport`];
//! * an event-driven in-simulator driver (`simprobe::SessionApp`) where the
//!   measurement runs as a native discrete-event application alongside
//!   cross traffic and TCP flows;
//! * future async/socket drivers, which only need to map commands onto
//!   their I/O substrate and feed the results back.
//!
//! Protocol (strict alternation):
//!
//! ```text
//! poll() -> SendTrain ──────► on_event(TrainDone)
//! poll() -> SendStream ─────► on_event(StreamDone | StreamLost)
//! poll() -> Idle ───────────► on_event(Tick)
//! poll() -> Finish(estimate)            (terminal; poll stays Finish)
//! ```
//!
//! `poll` returns `None` while the machine is waiting for the event of an
//! already-issued command; feeding an event the machine is not waiting for
//! returns [`MachineError::UnexpectedEvent`] and leaves the state intact.

use crate::config::{InitialRate, SlopsConfig};
use crate::error::SlopsError;
use crate::fleet::{classify_fleet, FleetTrace};
use crate::ratesearch::RateSearch;
use crate::session::{Estimate, Termination};
use crate::stream::{stream_params, StreamRequest};
use crate::transport::{StreamRecord, TrainRecord};
use crate::trend::StreamClass;
use telemetry::TraceEvent;
use units::{Rate, TimeNs};

/// What the driver must do next.
#[derive(Clone, Debug)]
pub enum Command {
    /// Send a back-to-back packet train of `len` packets of `size` bytes
    /// (ADR initialization), then feed [`Event::TrainDone`].
    SendTrain {
        /// Number of packets in the train.
        len: u32,
        /// Packet size in bytes.
        size: u32,
    },
    /// Send one periodic probe stream, then feed [`Event::StreamDone`] (or
    /// [`Event::StreamLost`] if the stream produced no record at all).
    SendStream(StreamRequest),
    /// Let the path drain for the given duration, then feed
    /// [`Event::Tick`] with the driver's current clock reading.
    Idle(TimeNs),
    /// The measurement is complete. Terminal: every subsequent poll
    /// returns this again. The estimate's `elapsed` field is
    /// [`TimeNs::ZERO`]; drivers stamp it from their own clock.
    Finish(Box<Estimate>),
}

/// What happened in the outside world.
#[derive(Clone, Debug)]
pub enum Event {
    /// The packet train of [`Command::SendTrain`] completed.
    TrainDone(TrainRecord),
    /// The stream of [`Command::SendStream`] completed (possibly with
    /// losses; a record with zero samples is a fully lost stream).
    StreamDone(StreamRecord),
    /// The stream of [`Command::SendStream`] was lost outright (no record;
    /// equivalent to a record with every packet missing).
    StreamLost,
    /// The idle of [`Command::Idle`] elapsed; carries the driver clock.
    Tick(TimeNs),
}

impl Event {
    /// Short name for diagnostics.
    fn name(&self) -> &'static str {
        match self {
            Event::TrainDone(_) => "TrainDone",
            Event::StreamDone(_) => "StreamDone",
            Event::StreamLost => "StreamLost",
            Event::Tick(_) => "Tick",
        }
    }
}

/// Protocol violation by the driver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MachineError {
    /// An event arrived that the machine was not waiting for (e.g. a
    /// `StreamDone` while idling, or any event after `Finish`).
    UnexpectedEvent {
        /// Name of the offending event.
        event: &'static str,
        /// What the machine was doing at the time.
        state: &'static str,
    },
}

impl core::fmt::Display for MachineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MachineError::UnexpectedEvent { event, state } => {
                write!(f, "unexpected event {event} in state {state}")
            }
        }
    }
}

impl std::error::Error for MachineError {}

/// Progress of the fleet currently being probed.
#[derive(Clone, Debug)]
struct FleetState {
    /// Prototype request (per-stream requests override `stream_id`).
    proto: StreamRequest,
    /// Actual fleet rate realized by the prototype parameters.
    rate: Rate,
    /// Inter-stream pacing idle `max(RTT, (1/x − 1)·V)`.
    idle: TimeNs,
    /// Stream classifications so far, in send order.
    classes: Vec<StreamClass>,
    /// Per-stream loss fractions so far.
    losses: Vec<f64>,
}

/// Every phase name a [`TraceEvent::Phase`] transition can carry, for
/// pre-sizing label vocabularies (same strings as `State::name`).
pub const PHASE_NAMES: [&str; 8] = [
    "Start",
    "AwaitTrain",
    "FleetHead",
    "NextStream",
    "AwaitStream",
    "NeedIdle",
    "AwaitTick",
    "Done",
];

/// Where the machine is in the session protocol.
#[derive(Clone, Debug)]
enum State {
    /// Nothing issued yet.
    Start,
    /// `SendTrain` issued; waiting for `TrainDone`.
    AwaitTrain,
    /// Between fleets: pick the next rate or finish.
    FleetHead,
    /// Mid-fleet, ready to issue the next stream.
    NextStream,
    /// `SendStream` issued; waiting for `StreamDone` / `StreamLost`.
    AwaitStream,
    /// Stream processed; the pacing idle must be issued.
    NeedIdle,
    /// `Idle` issued; waiting for `Tick`.
    AwaitTick,
    /// Terminal.
    Done(Box<Estimate>),
}

impl State {
    fn name(&self) -> &'static str {
        match self {
            State::Start => "Start",
            State::AwaitTrain => "AwaitTrain",
            State::FleetHead => "FleetHead",
            State::NextStream => "NextStream",
            State::AwaitStream => "AwaitStream",
            State::NeedIdle => "NeedIdle",
            State::AwaitTick => "AwaitTick",
            State::Done(_) => "Done",
        }
    }
}

/// The sans-IO pathload session state machine. See the module docs.
#[derive(Clone, Debug)]
pub struct SessionMachine {
    cfg: SlopsConfig,
    rtt: TimeNs,
    /// Initial search ceiling: transport maximum capped by the tool's
    /// `MTU·8/T_min` maximum measurable rate.
    ceiling: Rate,
    search: Option<RateSearch>,
    fleets: Vec<FleetTrace>,
    fleet: Option<FleetState>,
    stream_id: u32,
    budget_exhausted: bool,
    state: State,
    /// Trace events minted since the last [`SessionMachine::drain_trace`].
    /// Plain data, no IO: drivers drain this after every `poll`/`on_event`
    /// and forward to their `TraceSink`. Bounded by the session itself
    /// (a handful of events per stream).
    trace: Vec<TraceEvent>,
}

impl SessionMachine {
    /// Create a machine for one measurement session.
    ///
    /// `rtt` is the driver's round-trip-time estimate (used for fleet
    /// pacing); `transport_max` is the highest stream rate the driver's
    /// transport can generate, if bounded. Validates the configuration.
    pub fn new(
        cfg: SlopsConfig,
        rtt: TimeNs,
        transport_max: Option<Rate>,
    ) -> Result<SessionMachine, SlopsError> {
        cfg.validate().map_err(SlopsError::BadConfig)?;
        let tool_max = cfg.max_rate();
        let ceiling = match transport_max {
            Some(m) => m.min(tool_max),
            None => tool_max,
        };
        Ok(SessionMachine {
            cfg,
            rtt,
            ceiling,
            search: None,
            fleets: Vec::new(),
            fleet: None,
            stream_id: 0,
            budget_exhausted: false,
            state: State::Start,
            trace: Vec::new(),
        })
    }

    /// Move to `to`, minting the [`TraceEvent::Phase`] transition.
    fn set_state(&mut self, to: State) {
        self.trace.push(TraceEvent::Phase {
            from: self.state.name(),
            to: to.name(),
        });
        self.state = to;
    }

    /// Drain the trace events accumulated since the last call.
    ///
    /// The machine only ever *appends* trace events; it is the driver's
    /// job to drain them (after each `poll` / `on_event`) and forward each
    /// one to its `telemetry::TraceSink`. Because the events are minted
    /// here — never in a driver — the trace is identical across drivers
    /// for the same event sequence. The buffer keeps its capacity, so a
    /// warmed-up machine mints without allocating; dropping the iterator
    /// discards whatever it did not yield.
    pub fn drain_trace(&mut self) -> std::vec::Drain<'_, TraceEvent> {
        self.trace.drain(..)
    }

    /// Trace events accumulated and not yet drained (tests, diagnostics).
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }

    /// The machine's configuration.
    pub fn config(&self) -> &SlopsConfig {
        &self.cfg
    }

    /// True once the machine has produced its estimate.
    pub fn is_finished(&self) -> bool {
        matches!(self.state, State::Done(_))
    }

    /// The final estimate, if the session has finished.
    pub fn estimate(&self) -> Option<&Estimate> {
        match &self.state {
            State::Done(est) => Some(est),
            _ => None,
        }
    }

    /// Fleets probed so far (the trace grows as the session runs).
    pub fn fleets_so_far(&self) -> &[FleetTrace] {
        &self.fleets
    }

    /// Next command for the driver, or `None` while the machine waits for
    /// the event of the previously issued command.
    pub fn poll(&mut self) -> Option<Command> {
        loop {
            match &self.state {
                State::Start => match self.cfg.initial {
                    InitialRate::Train { len, size } => {
                        self.set_state(State::AwaitTrain);
                        return Some(Command::SendTrain { len, size });
                    }
                    InitialRate::FixedMax(r) => {
                        self.init_search(r.min(self.ceiling));
                        self.set_state(State::FleetHead);
                    }
                },
                State::FleetHead => {
                    let search = self.search.as_ref().expect("search initialized");
                    match search.next_rate() {
                        None => {
                            self.finish();
                        }
                        Some(rate) => {
                            if self.fleets.len() as u32 >= self.cfg.max_fleets {
                                self.budget_exhausted = true;
                                self.finish();
                                continue;
                            }
                            let proto = stream_params(rate, self.stream_id, &self.cfg);
                            let v = proto.duration();
                            let idle = self.rtt.max(TimeNs::from_secs_f64(
                                v.secs_f64() * (1.0 / self.cfg.avg_load_factor - 1.0),
                            ));
                            self.fleet = Some(FleetState {
                                proto,
                                rate: proto.actual_rate(),
                                idle,
                                classes: Vec::with_capacity(self.cfg.fleet_len as usize),
                                losses: Vec::with_capacity(self.cfg.fleet_len as usize),
                            });
                            self.set_state(State::NextStream);
                        }
                    }
                }
                State::NextStream => {
                    let fleet = self.fleet.as_ref().expect("fleet in progress");
                    let mut req = fleet.proto;
                    req.stream_id = self.stream_id;
                    self.stream_id += 1;
                    self.set_state(State::AwaitStream);
                    return Some(Command::SendStream(req));
                }
                State::NeedIdle => {
                    let idle = self.fleet.as_ref().expect("fleet in progress").idle;
                    self.set_state(State::AwaitTick);
                    return Some(Command::Idle(idle));
                }
                State::AwaitTrain | State::AwaitStream | State::AwaitTick => return None,
                State::Done(est) => return Some(Command::Finish(est.clone())),
            }
        }
    }

    /// Feed the outcome of the last issued command.
    pub fn on_event(&mut self, event: Event) -> Result<(), MachineError> {
        match (&self.state, event) {
            (State::AwaitTrain, Event::TrainDone(rec)) => {
                // ADR ≥ A; pad 25% for dispersion noise (§III footnote 3).
                let rmax0 = match rec.dispersion_rate() {
                    Some(adr) => (adr * 1.25).min(self.ceiling),
                    None => self.ceiling,
                };
                self.init_search(rmax0);
                self.set_state(State::FleetHead);
                Ok(())
            }
            (State::AwaitStream, Event::StreamDone(rec)) => {
                self.absorb_stream(&rec);
                self.set_state(State::NeedIdle);
                Ok(())
            }
            (State::AwaitStream, Event::StreamLost) => {
                // A stream that produced no record is a fully lost stream.
                let fleet = self.fleet.as_mut().expect("fleet in progress");
                fleet.losses.push(1.0);
                fleet.classes.push(StreamClass::Unusable);
                let sent = fleet.proto.count;
                self.trace.push(TraceEvent::Stream {
                    id: u64::from(self.stream_id - 1),
                    sent,
                    received: 0,
                    verdict: StreamClass::Unusable.name(),
                    spacing_violations: 0,
                    spacing_discarded: false,
                });
                self.set_state(State::NeedIdle);
                Ok(())
            }
            (State::AwaitTick, Event::Tick(_now)) => {
                let fleet = self.fleet.as_ref().expect("fleet in progress");
                // Early abort: one stream with excessive loss kills the
                // fleet without sending the rest (§IV).
                let aborted = fleet
                    .losses
                    .last()
                    .is_some_and(|&l| l > self.cfg.loss_abort_stream);
                if aborted || fleet.losses.len() as u32 >= self.cfg.fleet_len {
                    self.close_fleet();
                    self.set_state(State::FleetHead);
                } else {
                    self.set_state(State::NextStream);
                }
                Ok(())
            }
            (state, event) => Err(MachineError::UnexpectedEvent {
                event: event.name(),
                state: state.name(),
            }),
        }
    }

    fn init_search(&mut self, rmax0: Rate) {
        self.search = Some(RateSearch::new(
            rmax0,
            self.cfg.resolution,
            self.cfg.grey_resolution,
            Some(self.ceiling),
        ));
    }

    /// Record a completed stream into the current fleet: loss accounting,
    /// sender-spacing validation, and trend classification.
    fn absorb_stream(&mut self, rec: &StreamRecord) {
        let fleet = self.fleet.as_mut().expect("fleet in progress");
        fleet.losses.push(rec.loss_fraction());
        // Use the per-stream request the driver saw: only `stream_id`
        // differs from the prototype, and validation ignores it.
        let req = fleet.proto;
        let spacing = crate::validation::check_spacing(rec, &req, self.cfg.spacing_tolerance);
        let spacing_discarded =
            !crate::validation::spacing_acceptable(&spacing, self.cfg.spacing_max_violations);
        let class = if spacing_discarded {
            // A stream whose sender could not hold the nominal spacing did
            // not probe at its nominal rate: discard it (§IV).
            StreamClass::Unusable
        } else {
            crate::trend::classify_stream(rec, &self.cfg)
        };
        fleet.classes.push(class);
        self.trace.push(TraceEvent::Stream {
            id: u64::from(self.stream_id - 1),
            sent: rec.sent,
            received: rec.samples.len() as u32,
            verdict: class.name(),
            spacing_violations: spacing.violations,
            spacing_discarded,
        });
    }

    /// Classify the finished fleet and record its verdict in the search.
    fn close_fleet(&mut self) {
        let fleet = self.fleet.take().expect("fleet in progress");
        let outcome = classify_fleet(&fleet.classes, &fleet.losses, &self.cfg);
        self.trace.push(TraceEvent::FleetVerdict {
            rate_bps: fleet.rate.bps().round() as u64,
            streams: fleet.classes.len() as u32,
            verdict: outcome.name(),
        });
        self.fleets.push(FleetTrace {
            rate: fleet.rate,
            stream_classes: fleet.classes,
            losses: fleet.losses,
            outcome,
        });
        self.search
            .as_mut()
            .expect("search initialized")
            .record(fleet.rate, outcome);
    }

    /// Assemble the final estimate and become terminal.
    fn finish(&mut self) {
        let search = self.search.as_ref().expect("search initialized");
        let (low, high) = search.bounds();
        let termination = if self.budget_exhausted {
            Termination::FleetBudget
        } else if search.saturated_at_ceiling() {
            Termination::TransportCeiling
        } else if search.grey_bounds().is_some() {
            Termination::GreyResolution
        } else {
            Termination::Resolution
        };
        let grey = search.grey_bounds();
        let fleets = self.fleets.len() as u32;
        let est = Estimate {
            low,
            high,
            grey,
            termination,
            fleets: std::mem::take(&mut self.fleets),
            elapsed: TimeNs::ZERO,
        };
        self.set_state(State::Done(Box::new(est)));
        self.trace.push(TraceEvent::SessionDone {
            low_bps: low.bps().round() as u64,
            high_bps: high.bps().round() as u64,
            termination: termination.name(),
            fleets,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> SessionMachine {
        SessionMachine::new(SlopsConfig::default(), TimeNs::from_millis(10), None).unwrap()
    }

    fn flat_record(req: &StreamRequest) -> StreamRecord {
        StreamRecord {
            sent: req.count,
            samples: (0..req.count)
                .map(|i| crate::transport::PacketSample {
                    idx: i,
                    send_offset: req.period * i as u64,
                    owd_ns: 1_000,
                })
                .collect(),
        }
    }

    fn ramp_record(req: &StreamRequest) -> StreamRecord {
        StreamRecord {
            sent: req.count,
            samples: (0..req.count)
                .map(|i| crate::transport::PacketSample {
                    idx: i,
                    send_offset: req.period * i as u64,
                    owd_ns: 1_000 + 10_000 * i as i64,
                })
                .collect(),
        }
    }

    fn train_record() -> TrainRecord {
        TrainRecord {
            sent: 48,
            received: 48,
            size: 1500,
            first_recv: TimeNs::ZERO,
            // 47 * 1500 B * 8 / 9.4ms ≈ 60 Mb/s ADR
            last_recv: TimeNs::from_micros(9_400),
        }
    }

    /// Drive the machine by hand against a perfect 40 Mb/s path.
    #[test]
    fn hand_stepped_session_brackets_oracle() {
        let mut m = machine();
        let mut polls = 0;
        let est = loop {
            polls += 1;
            assert!(polls < 100_000, "machine does not terminate");
            match m.poll().expect("machine never pends in this loop") {
                Command::SendTrain { .. } => {
                    m.on_event(Event::TrainDone(train_record())).unwrap();
                }
                Command::SendStream(req) => {
                    let rec = if req.actual_rate().mbps() > 40.0 {
                        ramp_record(&req)
                    } else {
                        flat_record(&req)
                    };
                    m.on_event(Event::StreamDone(rec)).unwrap();
                }
                Command::Idle(d) => {
                    assert!(d >= TimeNs::from_millis(10), "pacing below RTT");
                    m.on_event(Event::Tick(TimeNs::ZERO)).unwrap();
                }
                Command::Finish(est) => break *est,
            }
        };
        assert!(est.low.mbps() <= 40.0 && 40.0 <= est.high.mbps() + 1.0);
        assert_eq!(est.termination, Termination::Resolution);
        assert!(m.is_finished());
        assert!(m.estimate().is_some());
    }

    /// `PHASE_NAMES` is the published vocabulary of `Phase` trace labels:
    /// every transition a full session mints must use a listed name, and
    /// a full session visits every listed name.
    #[test]
    fn phase_names_pin_the_trace_vocabulary() {
        let mut m = machine();
        let mut trace = Vec::new();
        loop {
            let cmd = m.poll().expect("machine never pends in this loop");
            trace.extend(m.drain_trace());
            let done = matches!(cmd, Command::Finish(_));
            if !done {
                let ev = match cmd {
                    Command::SendTrain { .. } => Event::TrainDone(train_record()),
                    Command::SendStream(req) => {
                        Event::StreamDone(if req.actual_rate().mbps() > 40.0 {
                            ramp_record(&req)
                        } else {
                            flat_record(&req)
                        })
                    }
                    Command::Idle(_) => Event::Tick(TimeNs::ZERO),
                    Command::Finish(_) => unreachable!(),
                };
                m.on_event(ev).unwrap();
                trace.extend(m.drain_trace());
            } else {
                break;
            }
        }
        let mut seen = std::collections::BTreeSet::new();
        for e in &trace {
            if let TraceEvent::Phase { from, to } = e {
                assert!(PHASE_NAMES.contains(from), "unlisted phase {from:?}");
                assert!(PHASE_NAMES.contains(to), "unlisted phase {to:?}");
                seen.insert(*to);
            }
        }
        seen.insert("Start"); // the initial state is transitioned from, not to
        for name in PHASE_NAMES {
            assert!(seen.contains(name), "phase {name:?} never visited");
        }
    }

    #[test]
    fn poll_is_none_while_awaiting_an_event() {
        let mut m = machine();
        assert!(matches!(m.poll(), Some(Command::SendTrain { .. })));
        assert!(m.poll().is_none(), "second poll must pend");
        assert!(m.poll().is_none());
        m.on_event(Event::TrainDone(train_record())).unwrap();
        assert!(matches!(m.poll(), Some(Command::SendStream(_))));
        assert!(m.poll().is_none());
    }

    #[test]
    fn finish_is_idempotent() {
        let mut cfg = SlopsConfig::default();
        cfg.max_fleets = 0; // finish immediately after initialization
        cfg.initial = InitialRate::FixedMax(Rate::from_mbps(100.0));
        let mut m = SessionMachine::new(cfg, TimeNs::from_millis(1), None).unwrap();
        let Some(Command::Finish(a)) = m.poll() else {
            panic!("expected immediate finish");
        };
        let Some(Command::Finish(b)) = m.poll() else {
            panic!("finish must repeat");
        };
        assert_eq!(a.termination, b.termination);
        assert_eq!(a.termination, Termination::FleetBudget);
    }

    #[test]
    fn stream_done_while_idle_is_rejected() {
        let mut m = machine();
        // Nothing issued yet: every event is illegal.
        let err = m.on_event(Event::StreamDone(StreamRecord {
            sent: 0,
            samples: vec![],
        }));
        assert_eq!(
            err,
            Err(MachineError::UnexpectedEvent {
                event: "StreamDone",
                state: "Start",
            })
        );
        // Issue the train; a Tick is still illegal.
        assert!(matches!(m.poll(), Some(Command::SendTrain { .. })));
        let err = m.on_event(Event::Tick(TimeNs::ZERO));
        assert_eq!(
            err,
            Err(MachineError::UnexpectedEvent {
                event: "Tick",
                state: "AwaitTrain",
            })
        );
        // The machine state survives illegal events.
        m.on_event(Event::TrainDone(train_record())).unwrap();
        assert!(matches!(m.poll(), Some(Command::SendStream(_))));
    }

    #[test]
    fn train_done_after_finish_is_rejected() {
        let mut cfg = SlopsConfig::default();
        cfg.max_fleets = 0;
        cfg.initial = InitialRate::FixedMax(Rate::from_mbps(100.0));
        let mut m = SessionMachine::new(cfg, TimeNs::from_millis(1), None).unwrap();
        assert!(matches!(m.poll(), Some(Command::Finish(_))));
        let err = m.on_event(Event::TrainDone(train_record()));
        assert_eq!(
            err,
            Err(MachineError::UnexpectedEvent {
                event: "TrainDone",
                state: "Done",
            })
        );
    }

    #[test]
    fn stream_lost_counts_as_total_loss_and_aborts_the_fleet() {
        let mut m = machine();
        assert!(matches!(m.poll(), Some(Command::SendTrain { .. })));
        m.on_event(Event::TrainDone(train_record())).unwrap();
        let Some(Command::SendStream(_)) = m.poll() else {
            panic!("expected first stream");
        };
        m.on_event(Event::StreamLost).unwrap();
        // The pacing idle still happens after a lost stream.
        let Some(Command::Idle(_)) = m.poll() else {
            panic!("expected pacing idle");
        };
        m.on_event(Event::Tick(TimeNs::ZERO)).unwrap();
        // The fleet aborted after one stream: its trace is recorded and the
        // next command belongs to a new (lower-rate) fleet.
        assert_eq!(m.fleets_so_far().len(), 1);
        assert_eq!(
            m.fleets_so_far()[0].outcome,
            crate::fleet::FleetOutcome::AbortedLossy
        );
        assert_eq!(m.fleets_so_far()[0].losses, vec![1.0]);
    }

    /// The stream trace event carries the spacing check's bad-gap count
    /// and whether the check discarded the stream: a record whose sender
    /// missed 40 % of its gaps mints both and `unusable`, a clean one
    /// neither, and a lost one (no record, nothing inspected) neither.
    #[test]
    fn stream_events_count_the_bad_gaps_and_the_spacing_discard() {
        let mut m = machine();
        assert!(matches!(m.poll(), Some(Command::SendTrain { .. })));
        m.on_event(Event::TrainDone(train_record())).unwrap();
        let stream = |m: &mut SessionMachine, answer: &dyn Fn(&StreamRequest) -> Event| {
            let Some(Command::SendStream(req)) = m.poll() else {
                panic!("expected a stream");
            };
            m.on_event(answer(&req)).unwrap();
            let Some(Command::Idle(_)) = m.poll() else {
                panic!("expected the pacing idle");
            };
            m.on_event(Event::Tick(TimeNs::ZERO)).unwrap();
            m.drain_trace()
                .into_iter()
                .find_map(|e| match e {
                    TraceEvent::Stream {
                        verdict,
                        spacing_violations,
                        spacing_discarded,
                        ..
                    } => Some((verdict, spacing_violations, spacing_discarded)),
                    _ => None,
                })
                .expect("a stream event")
        };
        // Gap i (1..count) is two periods instead of one when i % 5 < 2:
        // 39 of 99 gaps, 39 % > the 30 % the check allows.
        let jittery = |req: &StreamRequest| {
            let mut rec = flat_record(req);
            let mut at = TimeNs::ZERO;
            for (i, s) in rec.samples.iter_mut().enumerate().skip(1) {
                at += req.period * if i % 5 < 2 { 2 } else { 1 };
                s.send_offset = at;
            }
            Event::StreamDone(rec)
        };
        assert_eq!(stream(&mut m, &jittery), ("unusable", 39, true));
        let clean = |req: &StreamRequest| Event::StreamDone(flat_record(req));
        let (verdict, violations, discarded) = stream(&mut m, &clean);
        assert_ne!(verdict, "unusable");
        assert_eq!((violations, discarded), (0, false));
        assert_eq!(
            stream(&mut m, &|_| Event::StreamLost),
            ("unusable", 0, false)
        );
    }

    #[test]
    fn bad_config_is_rejected_at_construction() {
        let mut cfg = SlopsConfig::default();
        cfg.fleet_fraction = 0.1;
        let err = SessionMachine::new(cfg, TimeNs::from_millis(1), None).unwrap_err();
        assert!(matches!(err, SlopsError::BadConfig(_)));
    }

    #[test]
    fn fixed_max_skips_the_train() {
        let mut cfg = SlopsConfig::default();
        cfg.initial = InitialRate::FixedMax(Rate::from_mbps(80.0));
        let mut m = SessionMachine::new(cfg, TimeNs::from_millis(1), None).unwrap();
        // First command is already a stream, at half the fixed bound.
        let Some(Command::SendStream(req)) = m.poll() else {
            panic!("expected a stream command");
        };
        assert!((req.actual_rate().mbps() - 40.0).abs() < 0.5);
    }

    #[test]
    fn transport_ceiling_caps_the_search() {
        let mut m = SessionMachine::new(
            SlopsConfig::default(),
            TimeNs::from_millis(1),
            Some(Rate::from_mbps(50.0)),
        )
        .unwrap();
        assert!(matches!(m.poll(), Some(Command::SendTrain { .. })));
        // A huge ADR is clamped to the 50 Mb/s transport ceiling.
        let rec = TrainRecord {
            sent: 48,
            received: 48,
            size: 1500,
            first_recv: TimeNs::ZERO,
            last_recv: TimeNs::from_micros(1_000), // ≈ 564 Mb/s
        };
        m.on_event(Event::TrainDone(rec)).unwrap();
        let Some(Command::SendStream(req)) = m.poll() else {
            panic!("expected a stream command");
        };
        assert!(
            req.actual_rate().mbps() <= 25.5,
            "first probe above ceiling/2"
        );
    }
}

//! Structured trace events and the sink drivers forward them to.
//!
//! The `slops::SessionMachine` appends [`TraceEvent`]s to an internal
//! buffer as it steps — plain data, no IO, fully deterministic. Drivers
//! drain that buffer after every `poll`/`on_event` and hand each event to
//! their [`TraceSink`]. Because the events are minted *inside* the
//! machine, a trace-equality test across two drivers checks exactly the
//! forwarding fidelity the layering contract demands: drivers relay
//! machine telemetry, they never synthesize it.
//!
//! Fields are primitive (`u64` bits per second, `&'static str` names) so
//! the events are `Eq`/`Hash`-friendly and this crate stays
//! dependency-free.

use std::sync::Mutex;

/// One structured trace event.
///
/// The first four variants are machine-level: minted by
/// `slops::SessionMachine`, byte-identical across drivers for the same
/// transport behavior. [`TraceEvent::TimerLag`] is driver-level: only
/// drivers that own timers (the evented event loop) emit it.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum TraceEvent {
    /// The session state machine moved between phases.
    Phase {
        /// State name the machine left.
        from: &'static str,
        /// State name the machine entered.
        to: &'static str,
    },
    /// A probe stream was absorbed (sent/received accounting plus the
    /// per-stream SLoPS verdict).
    Stream {
        /// Stream id within the session.
        id: u64,
        /// Packets the sender reported sending.
        sent: u32,
        /// Packets that survived to the receiver-side record.
        received: u32,
        /// Per-stream classification (`"increasing"`, `"grey"`, …).
        verdict: &'static str,
        /// Gaps between received neighbours that broke §IV's spacing
        /// tolerance (0 for a stream that produced no record).
        spacing_violations: u32,
        /// The spacing check discarded the stream (its verdict is then
        /// `"unusable"`): more of its gaps broke the tolerance than the
        /// check allows. A loss-discarded stream is `false`.
        spacing_discarded: bool,
    },
    /// A fleet of streams at one rate closed with a verdict.
    FleetVerdict {
        /// The fleet's probe rate in bits per second (rounded).
        rate_bps: u64,
        /// Streams that contributed (lost streams excluded).
        streams: u32,
        /// Fleet classification (`"increasing"`, `"non_increasing"`,
        /// `"grey"`).
        verdict: &'static str,
    },
    /// The session produced its final estimate.
    SessionDone {
        /// Low end of the avail-bw range, bits per second (rounded).
        low_bps: u64,
        /// High end of the avail-bw range, bits per second (rounded).
        high_bps: u64,
        /// Why the session stopped (`Termination` variant name).
        termination: &'static str,
        /// Fleets the rate search consumed.
        fleets: u32,
    },
    /// Driver-level: a timer fired `lag_ns` after its deadline.
    TimerLag {
        /// Observed lag between deadline and wakeup, nanoseconds.
        lag_ns: u64,
    },
}

impl TraceEvent {
    /// A short stable name for the event kind (JSONL `event` field,
    /// metric labels).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Phase { .. } => "phase",
            TraceEvent::Stream { .. } => "stream",
            TraceEvent::FleetVerdict { .. } => "fleet_verdict",
            TraceEvent::SessionDone { .. } => "session_done",
            TraceEvent::TimerLag { .. } => "timer_lag",
        }
    }
}

/// Where drivers deliver trace events.
///
/// Implementations must be cheap and non-blocking-ish: sinks are called
/// from driver loops between socket operations. `&self` because sinks are
/// shared across threads (e.g. one sink per fleet).
pub trait TraceSink: Send + Sync {
    /// Deliver one event.
    fn record(&self, event: &TraceEvent);
}

/// A sink that discards everything (the default when tracing is off).
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&self, _event: &TraceEvent) {}
}

/// A sink that collects events into a vector, for tests and equivalence
/// checks.
#[derive(Debug, Default)]
pub struct VecSink(Mutex<Vec<TraceEvent>>);

impl VecSink {
    /// An empty sink.
    pub fn new() -> VecSink {
        VecSink::default()
    }

    /// Take every event recorded so far, leaving the sink empty.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.0.lock().expect("sink poisoned"))
    }

    /// Copy of the events recorded so far.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.0.lock().expect("sink poisoned").clone()
    }
}

impl TraceSink for VecSink {
    fn record(&self, event: &TraceEvent) {
        self.0.lock().expect("sink poisoned").push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_sink_records_in_order() {
        let sink = VecSink::new();
        sink.record(&TraceEvent::Phase {
            from: "Start",
            to: "AwaitTrain",
        });
        sink.record(&TraceEvent::TimerLag { lag_ns: 42 });
        let got = sink.take();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].kind(), "phase");
        assert_eq!(got[1].kind(), "timer_lag");
        assert!(sink.take().is_empty());
    }
}

//! A counting (and, in traced passes, timing) decorator for any
//! `slops::ProbeTransport` — how the harness observes the boundary between
//! the session machine and the substrate under it without touching either.

use slops::{ProbeTransport, StreamRecord, StreamRequest, TrainRecord, TransportError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use units::{Rate, TimeNs};

/// Totals over every transport sharing the tally. Statistics only — they
/// publish no other data, hence `Relaxed` throughout.
#[derive(Debug, Default)]
pub struct Tally {
    streams: AtomicU64,
    pkts: AtomicU64,
    bytes: AtomicU64,
    busy_ns: AtomicU64,
}

impl Tally {
    pub fn streams(&self) -> u64 {
        self.streams.load(Ordering::Relaxed)
    }

    /// Probe packets handed to the transport (streams and trains).
    pub fn pkts(&self) -> u64 {
        self.pkts.load(Ordering::Relaxed)
    }

    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Wall nanoseconds spent inside transport calls (timed passes only).
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns.load(Ordering::Relaxed)
    }
}

/// Wraps a transport; counts what crosses it and, when given a clock,
/// times every call.
pub struct Metered<T> {
    inner: T,
    tally: Arc<Tally>,
    /// `Some` in traced passes: calls are timed against this epoch.
    clock: Option<Instant>,
    /// `(start, end)` of every timed call since the last
    /// [`Metered::take_calls`], when the caller asked to keep them.
    calls: Option<Vec<(u64, u64)>>,
}

impl<T: ProbeTransport> Metered<T> {
    pub fn new(inner: T, tally: Arc<Tally>, clock: Option<Instant>) -> Metered<T> {
        Metered {
            inner,
            tally,
            clock,
            calls: None,
        }
    }

    /// Also keep each timed call's interval, for per-call spans.
    pub fn keeping_calls(mut self) -> Metered<T> {
        self.calls = Some(Vec::new());
        self
    }

    pub fn inner(&self) -> &T {
        &self.inner
    }

    pub fn take_calls(&mut self) -> Vec<(u64, u64)> {
        self.calls.as_mut().map(std::mem::take).unwrap_or_default()
    }

    fn timed<R>(&mut self, call: impl FnOnce(&mut T) -> R) -> R {
        let Some(clock) = self.clock else {
            return call(&mut self.inner);
        };
        let start = clock.elapsed().as_nanos() as u64;
        let out = call(&mut self.inner);
        let end = clock.elapsed().as_nanos() as u64;
        self.tally.busy_ns.fetch_add(end - start, Ordering::Relaxed);
        if let Some(calls) = &mut self.calls {
            calls.push((start, end));
        }
        out
    }
}

impl<T: ProbeTransport> ProbeTransport for Metered<T> {
    fn send_stream(&mut self, req: &StreamRequest) -> Result<StreamRecord, TransportError> {
        self.tally.streams.fetch_add(1, Ordering::Relaxed);
        self.tally
            .pkts
            .fetch_add(req.count as u64, Ordering::Relaxed);
        self.tally
            .bytes
            .fetch_add(req.count as u64 * req.packet_size as u64, Ordering::Relaxed);
        self.timed(|t| t.send_stream(req))
    }

    fn send_train(&mut self, len: u32, size: u32) -> Result<TrainRecord, TransportError> {
        self.tally.pkts.fetch_add(len as u64, Ordering::Relaxed);
        self.tally
            .bytes
            .fetch_add(len as u64 * size as u64, Ordering::Relaxed);
        self.timed(|t| t.send_train(len, size))
    }

    fn rtt(&mut self) -> TimeNs {
        self.timed(|t| t.rtt())
    }

    fn idle(&mut self, dur: TimeNs) {
        self.timed(|t| t.idle(dur))
    }

    fn max_rate(&self) -> Option<Rate> {
        self.inner.max_rate()
    }

    fn elapsed(&self) -> TimeNs {
        self.inner.elapsed()
    }
}

//! Fleet-level telemetry: one shared [`Registry`] behind every driver,
//! the digest, and the scrape endpoint.
//!
//! [`FleetTelemetry`] is the daemon's single source of observability
//! truth: the per-path pacing-error histograms, the machine-minted trace
//! events mirrored into counters, the scheduler gauges, and the receiver
//! drop counters (loopback mode) all land in **one** registry. The
//! Prometheus scrape endpoint, the periodic JSONL `telemetry` record, and
//! the end-of-run stderr digest are all renderings of that registry, so
//! they cannot disagree.
//!
//! The layering contract extends to telemetry: **drivers forward trace
//! events, they never synthesize estimation telemetry**. Every
//! [`TraceEvent`] counted here was minted by the sans-IO
//! `slops::SessionMachine`; the driver's only role is relaying it to the
//! per-path [`TraceSink`] this module hands out. Scheduler gauges are
//! mirrored by the fleet core ([`crate::fleet::Fleet::observe`]) from the
//! sans-IO scheduler's deterministic accessors, so every fleet driver
//! reports identical values for identical schedules.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, OnceLock};
use telemetry::{Counter, Gauge, Histogram, Registry, TraceEvent, TraceSink};

/// The shared observability state of one monitoring fleet.
///
/// Create one per daemon run, pass it (by reference) to the
/// `*_with_telemetry` fleet drivers, and serve or print snapshots of
/// [`FleetTelemetry::registry`] wherever they are needed.
pub struct FleetTelemetry {
    registry: Registry,
    /// Pacing-error histograms handed out so far.
    pacing: Mutex<PacingList>,
    /// The four scheduler gauges, resolved on first use — not at
    /// construction, which stays as cheap as an empty registry — and
    /// never looked up again.
    scheduler: OnceLock<SchedulerGauges>,
}

/// The pacing histograms in hand-out order, so the digest can walk them
/// per path without a registry iterator, plus the labels already listed.
#[derive(Default)]
struct PacingList {
    order: Vec<(String, Histogram)>,
    listed: BTreeSet<String>,
}

/// Handles on `scheduler_{running,backlog,started,overruns}`, written by
/// the fleet core.
#[derive(Clone, Debug)]
pub(crate) struct SchedulerGauges {
    pub(crate) running: Gauge,
    pub(crate) backlog: Gauge,
    pub(crate) started: Gauge,
    pub(crate) overruns: Gauge,
}

impl Default for FleetTelemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl FleetTelemetry {
    /// A fresh telemetry hub with its own empty registry.
    pub fn new() -> FleetTelemetry {
        FleetTelemetry {
            registry: Registry::new(),
            pacing: Mutex::new(PacingList::default()),
            scheduler: OnceLock::new(),
        }
    }

    pub(crate) fn scheduler_gauges(&self) -> &SchedulerGauges {
        self.scheduler.get_or_init(|| SchedulerGauges {
            running: self.registry.gauge("scheduler_running", &[]),
            backlog: self.registry.gauge("scheduler_backlog", &[]),
            started: self.registry.gauge("scheduler_started", &[]),
            overruns: self.registry.gauge("scheduler_overruns", &[]),
        })
    }

    /// The underlying registry (clone it into a
    /// [`telemetry::MetricsServer`], render it, attach receiver counters).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The per-packet pacing-error histogram of path `label`
    /// (`pacing_error_ns{path="…"}`): how late each probe packet left
    /// relative to its periodic deadline.
    pub fn pacing_histogram(&self, label: &str) -> Histogram {
        let h = self
            .registry
            .histogram("pacing_error_ns", &[("path", label)]);
        let mut pacing = self.pacing.lock().expect("pacing list poisoned");
        if pacing.listed.insert(label.to_string()) {
            pacing.order.push((label.to_string(), h.clone()));
        }
        h
    }

    /// A [`TraceSink`] that mirrors path `label`'s machine-minted trace
    /// events into the registry (phase transitions, stream and fleet
    /// verdicts, session terminations, timer lag).
    pub fn trace_sink(&self, label: &str) -> Arc<dyn TraceSink> {
        Arc::new(RegistrySink::new(self.registry.clone(), label.to_string()))
    }

    /// Scheduler snapshot `(running, backlog, started, overruns)` as last
    /// mirrored, for the JSONL `telemetry` record.
    pub fn scheduler_snapshot(&self) -> (i64, i64, i64, i64) {
        let g = self.scheduler_gauges();
        (
            g.running.get(),
            g.backlog.get(),
            g.started.get(),
            g.overruns.get(),
        )
    }

    /// Per-path pacing quantiles `(label, p50_ns, p99_ns, packets)`, in
    /// the order the paths were instrumented. Paths that sent nothing yet
    /// are included with zero packets.
    pub fn pacing_quantiles(&self) -> Vec<(String, u64, u64, u64)> {
        self.pacing
            .lock()
            .expect("pacing list poisoned")
            .order
            .iter()
            .map(|(label, h)| {
                (
                    label.clone(),
                    h.quantile(0.5).unwrap_or(0),
                    h.quantile(0.99).unwrap_or(0),
                    h.count(),
                )
            })
            .collect()
    }

    /// The end-of-run stderr digest: per-path p50/p99 pacing error, read
    /// from the same registry handles the scrape endpoint serves.
    pub fn digest(&self) -> String {
        let mut out = String::new();
        for (label, p50, p99, packets) in self.pacing_quantiles() {
            out.push_str(&format!(
                "{label:<10} pacing error p50 <= {:>9} ns  p99 <= {:>9} ns  ({packets} packets)\n",
                p50, p99
            ));
        }
        let (running, backlog, started, overruns) = self.scheduler_snapshot();
        out.push_str(&format!(
            "scheduler  started {started}  overruns {overruns}  \
             running {running}  backlog {backlog}\n"
        ));
        out
    }
}

/// Mirrors machine-minted trace events into registry series, labeled by
/// path. Counting happens here, at the sink — the machine stays pure data
/// and the drivers stay relays.
///
/// The sink is on the measurement hot path (a session mints a trace
/// event per phase transition and per stream), so every counter for the
/// machine's fixed label vocabularies ([`slops::StreamClass::ALL`], …)
/// is resolved ONCE at construction; recording is a short
/// pointer-equality scan of a pre-built table plus one atomic increment,
/// with no registry lock or allocation. Unknown label values (a newer
/// machine than this sink) fall back to a registry lookup.
///
/// [`TraceEvent::Phase`] transitions are deliberately NOT mirrored:
/// they fire on every machine step (~4 per probe stream), their value
/// is in ordered traces (the driver-equivalence tests consume them via
/// [`telemetry::VecSink`]), and counting them would put a registry
/// operation on the machine's hottest path for a cumulative number with
/// no operational meaning — `streams_total` and `fleet_verdicts_total`
/// already aggregate the same progress at a useful granularity. This is
/// what keeps the instrumented machine within the benched <5% overhead
/// budget (`docs/history/BENCH_7.json`).
struct RegistrySink {
    registry: Registry,
    label: String,
    streams: Vec<(&'static str, Counter)>,
    /// `stream_spacing_violations_total`: bad gaps over every stream.
    spacing_violations: Counter,
    /// `streams_spacing_discarded_total`: `unusable` verdicts the spacing
    /// check gave (a subset of `streams_total{verdict="unusable"}`, the
    /// rest being losses).
    spacing_discarded: Counter,
    fleets: Vec<(&'static str, Counter)>,
    done: Vec<(&'static str, Counter)>,
    timer_lag: Histogram,
}

impl RegistrySink {
    fn new(registry: Registry, label: String) -> RegistrySink {
        let family = |name: &str, key: &str, values: &[&'static str]| {
            values
                .iter()
                .map(|v| {
                    (
                        *v,
                        registry.counter(name, &[("path", label.as_str()), (key, v)]),
                    )
                })
                .collect::<Vec<_>>()
        };
        RegistrySink {
            streams: family(
                "streams_total",
                "verdict",
                &slops::StreamClass::ALL.map(|c| c.name()),
            ),
            spacing_violations: registry.counter(
                "stream_spacing_violations_total",
                &[("path", label.as_str())],
            ),
            spacing_discarded: registry.counter(
                "streams_spacing_discarded_total",
                &[("path", label.as_str())],
            ),
            fleets: family(
                "fleet_verdicts_total",
                "verdict",
                &slops::FleetOutcome::ALL.map(|o| o.name()),
            ),
            done: family(
                "sessions_done_total",
                "termination",
                &slops::Termination::ALL.map(|t| t.name()),
            ),
            timer_lag: registry.histogram("machine_timer_lag_ns", &[("path", label.as_str())]),
            registry,
            label,
        }
    }

    /// Bump the pre-resolved counter for `value`, or fall back to a
    /// registry lookup for a label value this sink does not know.
    fn bump(&self, table: &[(&'static str, Counter)], name: &str, key: &str, value: &str) {
        // The &'static str labels come from single per-variant constants,
        // so the pointer-equality pass hits in practice; the content pass
        // keeps the scan correct if a value was ever re-materialized.
        for (v, c) in table {
            if std::ptr::eq(*v, value) {
                c.inc();
                return;
            }
        }
        for (v, c) in table {
            if *v == value {
                c.inc();
                return;
            }
        }
        self.registry
            .counter(name, &[("path", &self.label), (key, value)])
            .inc();
    }
}

impl TraceSink for RegistrySink {
    fn record(&self, event: &TraceEvent) {
        match event {
            // Not mirrored (see the type docs): machine-step frequency,
            // trace-level value only.
            TraceEvent::Phase { .. } => {}
            TraceEvent::Stream { verdict, .. } => {
                self.bump(&self.streams, "streams_total", "verdict", verdict);
            }
            TraceEvent::FleetVerdict { verdict, .. } => {
                self.bump(&self.fleets, "fleet_verdicts_total", "verdict", verdict);
            }
            TraceEvent::SessionDone { termination, .. } => {
                self.bump(
                    &self.done,
                    "sessions_done_total",
                    "termination",
                    termination,
                );
            }
            TraceEvent::TimerLag { lag_ns } => self.timer_lag.observe(*lag_ns),
        }
        // The spacing check's part of a stream event, in a `let` pattern:
        // archlint's line-based AL002 reads a multi-line match arm as a
        // construction.
        if let TraceEvent::Stream {
            spacing_violations,
            spacing_discarded,
            ..
        } = event
        {
            self.spacing_violations.add(u64::from(*spacing_violations));
            if *spacing_discarded {
                self.spacing_discarded.inc();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::Fleet;
    use crate::scheduler::ScheduleConfig;
    use crate::store::SeriesConfig;
    use slops::SlopsConfig;
    use units::TimeNs;

    #[test]
    fn trace_sink_mirrors_events_into_labeled_series() {
        let t = FleetTelemetry::new();
        let sink = t.trace_sink("atl-gru");
        sink.record(&TraceEvent::Phase {
            from: "adr_probe",
            to: "fleet",
        });
        sink.record(&TraceEvent::Stream {
            id: 0,
            sent: 100,
            received: 98,
            verdict: "increasing",
            spacing_violations: 3,
            spacing_discarded: false,
        });
        sink.record(&TraceEvent::FleetVerdict {
            rate_bps: 10_000_000,
            streams: 12,
            verdict: "above_avail_bw",
        });
        sink.record(&TraceEvent::SessionDone {
            low_bps: 1,
            high_bps: 2,
            termination: "resolution",
            fleets: 3,
        });
        sink.record(&TraceEvent::TimerLag { lag_ns: 1500 });
        let text = t.registry().render_prometheus();
        for needle in [
            "streams_total{path=\"atl-gru\",verdict=\"increasing\"} 1",
            "stream_spacing_violations_total{path=\"atl-gru\"} 3",
            "streams_spacing_discarded_total{path=\"atl-gru\"} 0",
            "fleet_verdicts_total{path=\"atl-gru\",verdict=\"above_avail_bw\"} 1",
            "sessions_done_total{path=\"atl-gru\",termination=\"resolution\"} 1",
            "machine_timer_lag_ns_count{path=\"atl-gru\"} 1",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        // Phase transitions stay trace-only (see RegistrySink docs).
        assert!(!text.contains("session_phase_transitions_total"), "{text}");
    }

    /// A verdict string that did not come from the pre-resolved
    /// vocabulary (e.g. a newer machine) still lands in the registry via
    /// the slow path — nothing is silently dropped.
    #[test]
    fn unknown_label_values_fall_back_to_the_registry() {
        let t = FleetTelemetry::new();
        let sink = t.trace_sink("p");
        sink.record(&TraceEvent::Stream {
            id: 0,
            sent: 1,
            received: 1,
            verdict: "from_the_future",
            spacing_violations: 0,
            spacing_discarded: false,
        });
        // The same value again exercises the content-equality pass with
        // a distinct allocation of the same label text.
        let owned = String::from("increasing");
        sink.record(&TraceEvent::Stream {
            id: 1,
            sent: 1,
            received: 1,
            verdict: Box::leak(owned.into_boxed_str()),
            spacing_violations: 0,
            spacing_discarded: false,
        });
        let text = t.registry().render_prometheus();
        assert!(
            text.contains("streams_total{path=\"p\",verdict=\"from_the_future\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("streams_total{path=\"p\",verdict=\"increasing\"} 1"),
            "{text}"
        );
    }

    /// Spacing discards are counted apart from losses: of three
    /// `unusable` streams — two the spacing check discarded, one lost —
    /// the discard counter holds two, while `streams_total` keeps all
    /// three and the violation counter sums every stream's bad gaps.
    #[test]
    fn spacing_discards_are_counted_apart_from_losses() {
        let t = FleetTelemetry::new();
        let sink = t.trace_sink("lo0");
        let stream =
            |id, received, verdict, spacing_violations, spacing_discarded| TraceEvent::Stream {
                id,
                sent: 100,
                received,
                verdict,
                spacing_violations,
                spacing_discarded,
            };
        sink.record(&stream(0, 100, "unusable", 40, true));
        sink.record(&stream(1, 0, "unusable", 0, false));
        sink.record(&stream(2, 100, "increasing", 5, false));
        sink.record(&stream(3, 90, "unusable", 31, true));
        let text = t.registry().render_prometheus();
        for needle in [
            "streams_total{path=\"lo0\",verdict=\"unusable\"} 3",
            "streams_spacing_discarded_total{path=\"lo0\"} 2",
            "stream_spacing_violations_total{path=\"lo0\"} 76",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn digest_and_scrape_read_the_same_state() {
        let t = FleetTelemetry::new();
        let h = t.pacing_histogram("lo0");
        h.observe(900);
        h.observe(1100);
        let cfg = SlopsConfig::default();
        let mut fleet = Fleet::new(
            [("lo0", &cfg), ("lo1", &cfg)],
            TimeNs::ZERO,
            TimeNs::from_secs(100),
            &ScheduleConfig::default(),
            &SeriesConfig::default(),
        )
        .unwrap();
        fleet.attach_telemetry(&t);
        let _ = fleet.next_start();
        fleet.observe(TimeNs::ZERO);
        let digest = t.digest();
        assert!(digest.contains("lo0"), "{digest}");
        assert!(digest.contains("(2 packets)"), "{digest}");
        assert!(digest.contains("started 1"), "{digest}");
        // The scrape endpoint serves the very same numbers.
        let text = t.registry().render_prometheus();
        assert!(
            text.contains("pacing_error_ns_count{path=\"lo0\"} 2"),
            "{text}"
        );
        assert!(text.contains("scheduler_started 1"), "{text}");
        // Re-requesting a path's histogram returns the same series, and
        // the digest lists paths in hand-out order, not label order.
        t.pacing_histogram("b1");
        t.pacing_histogram("lo0").observe(1);
        t.pacing_histogram("a2");
        let listed: Vec<(String, u64)> = t
            .pacing_quantiles()
            .into_iter()
            .map(|(label, _, _, packets)| (label, packets))
            .collect();
        assert_eq!(
            listed,
            [("lo0".into(), 3), ("b1".into(), 0), ("a2".into(), 0)]
        );
    }
}

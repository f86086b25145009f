//! Counters, gauges, log-scale histograms, and the [`Registry`] that
//! renders them in the Prometheus text exposition format.
//!
//! Handles are `Arc`-backed clones: instrument once at setup, then hand
//! the clone to the hot path. Increments and observations are single
//! relaxed atomic operations — no locks, no allocation. The registry's
//! mutex guards only registration and snapshot rendering (cold paths).

use std::collections::BTreeMap;
use std::fmt::{Display, Write};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing `u64` counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh counter at zero (not yet attached to any registry).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed gauge: a value that goes up and down (queue depths, active
/// session counts).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A fresh gauge at zero (not yet attached to any registry).
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Overwrite the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket `i` counts observations `v` with
/// `v <= 2^i` (cumulative style is applied at render time; storage is
/// per-bucket). Bucket 64 is the overflow / `+Inf` bucket.
const BUCKETS: usize = 65;

#[derive(Debug)]
struct HistogramInner {
    /// `buckets[i]` counts observations that landed in bucket `i`
    /// (non-cumulative; upper bound `2^i`).
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

/// A fixed-bucket log-scale histogram of `u64` samples (typically
/// nanoseconds). Bucket upper bounds are the powers of two `1, 2, 4, …,
/// 2^63`, plus an overflow bucket — fine enough for latency work (buckets
/// are a factor of 2 apart) and cheap enough for per-packet paths: one
/// `leading_zeros` and three relaxed atomic adds per observation.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// A fresh empty histogram (not yet attached to any registry).
    pub fn new() -> Histogram {
        Histogram(Arc::new(HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }))
    }

    /// The bucket index for value `v`: the smallest `i` with `v <= 2^i`.
    fn bucket_index(v: u64) -> usize {
        if v <= 1 {
            0
        } else {
            64 - (v - 1).leading_zeros() as usize
        }
    }

    /// The inclusive upper bound of bucket `i` (`u64::MAX` for the
    /// overflow bucket).
    fn bucket_bound(i: usize) -> u64 {
        if i >= 64 {
            u64::MAX
        } else {
            1u64 << i
        }
    }

    /// Record one sample.
    pub fn observe(&self, v: u64) {
        self.0.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total number of samples recorded.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (wraps only after ~1.8e19 total nanoseconds).
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// An upper bound on the `q`-quantile (0 ≤ q ≤ 1): the bound of the
    /// first bucket whose cumulative count reaches `q · count`. Returns
    /// `None` while the histogram is empty. The estimate is conservative
    /// by at most a factor of 2 (the bucket width).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for i in 0..BUCKETS {
            seen += self.0.buckets[i].load(Ordering::Relaxed);
            if seen >= rank {
                return Some(Self::bucket_bound(i));
            }
        }
        Some(u64::MAX)
    }

    /// Per-bucket counts (non-cumulative), for tests and custom rollups.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

/// A registered metric of any kind.
#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

type MetricKey = (String, Vec<(String, String)>);

#[derive(Default)]
struct Inner {
    metrics: BTreeMap<MetricKey, Metric>,
    /// Get-or-create calls served so far (see [`Registry::lookups`]).
    lookups: u64,
}

/// A clonable, thread-safe collection of named metrics.
///
/// `counter` / `gauge` / `histogram` are get-or-create: calling twice with
/// the same name and labels returns handles to the same underlying atomic,
/// so independent subsystems can share a series without coordination. The
/// `register_*` variants attach a handle that already exists (e.g. a
/// counter a receiver created at bind time, before any registry was in
/// sight).
#[derive(Clone, Default)]
pub struct Registry(Arc<Mutex<Inner>>);

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn key(name: &str, labels: &[(&str, &str)]) -> MetricKey {
        let mut l: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        l.sort();
        (name.to_string(), l)
    }

    /// The get-or-create entry for `name{labels}`, counted as one lookup.
    fn lookup(&self, name: &str, labels: &[(&str, &str)], new: fn() -> Metric) -> Metric {
        let mut inner = self.0.lock().expect("registry poisoned");
        inner.lookups += 1;
        inner
            .metrics
            .entry(Self::key(name, labels))
            .or_insert_with(new)
            .clone()
    }

    /// Get or create the counter `name{labels}`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.lookup(name, labels, || Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c,
            _ => panic!("metric {name} already registered with another type"),
        }
    }

    /// Get or create the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.lookup(name, labels, || Metric::Gauge(Gauge::new())) {
            Metric::Gauge(g) => g,
            _ => panic!("metric {name} already registered with another type"),
        }
    }

    /// Get or create the histogram `name{labels}`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.lookup(name, labels, || Metric::Histogram(Histogram::new())) {
            Metric::Histogram(h) => h,
            _ => panic!("metric {name} already registered with another type"),
        }
    }

    /// Get-or-create calls ([`Registry::counter`], [`Registry::gauge`],
    /// [`Registry::histogram`]) served since construction. Each takes the
    /// registry lock, allocates a key and searches every series, so a hot
    /// path holds handles instead; this count is how tests prove it does
    /// (a steady-state fleet adds none per estimate).
    pub fn lookups(&self) -> u64 {
        self.0.lock().expect("registry poisoned").lookups
    }

    /// Attach an existing counter under `name{labels}` (replacing any
    /// previous metric at that key).
    pub fn register_counter(&self, name: &str, labels: &[(&str, &str)], c: Counter) {
        let mut inner = self.0.lock().expect("registry poisoned");
        inner
            .metrics
            .insert(Self::key(name, labels), Metric::Counter(c));
    }

    /// Attach an existing gauge under `name{labels}`.
    pub fn register_gauge(&self, name: &str, labels: &[(&str, &str)], g: Gauge) {
        let mut inner = self.0.lock().expect("registry poisoned");
        inner
            .metrics
            .insert(Self::key(name, labels), Metric::Gauge(g));
    }

    /// Attach an existing histogram under `name{labels}`.
    pub fn register_histogram(&self, name: &str, labels: &[(&str, &str)], h: Histogram) {
        let mut inner = self.0.lock().expect("registry poisoned");
        inner
            .metrics
            .insert(Self::key(name, labels), Metric::Histogram(h));
    }

    /// Render every metric in the Prometheus text exposition format.
    ///
    /// Histograms render cumulative `_bucket{le="…"}` series up to the
    /// highest occupied bucket plus `+Inf`, the `_sum`/`_count` pair, and
    /// summary-style `{quantile="0.5"}` / `{quantile="0.99"}` lines so a
    /// human (or a CI grep) can read the tail without doing bucket math.
    pub fn render_prometheus(&self) -> String {
        let inner = self.0.lock().expect("registry poisoned");
        let mut out = String::new();
        let mut last_family = None;
        for ((name, labels), metric) in &inner.metrics {
            if last_family != Some(name) {
                let kind = match metric {
                    Metric::Counter(_) => "counter",
                    Metric::Gauge(_) => "gauge",
                    Metric::Histogram(_) => "histogram",
                };
                let _ = writeln!(out, "# TYPE {name} {kind}");
                last_family = Some(name);
            }
            match metric {
                Metric::Counter(c) => {
                    write_series(&mut out, name, "", labels, None);
                    let _ = writeln!(out, " {}", c.get());
                }
                Metric::Gauge(g) => {
                    write_series(&mut out, name, "", labels, None);
                    let _ = writeln!(out, " {}", g.get());
                }
                Metric::Histogram(h) => render_histogram(&mut out, name, labels, h),
            }
        }
        out
    }
}

/// Append `name` + `suffix` + `{k="v",…}` (the sorted labels, then
/// `extra`), or no braces at all when there is no label.
fn write_series(
    out: &mut String,
    name: &str,
    suffix: &str,
    labels: &[(String, String)],
    extra: Option<(&str, &dyn Display)>,
) {
    out.push_str(name);
    out.push_str(suffix);
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        push_escaped(out, v);
        out.push('"');
    }
    if let Some((k, v)) = extra {
        if !labels.is_empty() {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{v}\"");
    }
    out.push('}');
}

/// Append a label value with `\`, `"` and newline escaped.
fn push_escaped(out: &mut String, v: &str) {
    let mut rest = v;
    while let Some(i) = rest.find(['\\', '"', '\n']) {
        out.push_str(&rest[..i]);
        out.push_str(match rest.as_bytes()[i] {
            b'\\' => "\\\\",
            b'"' => "\\\"",
            _ => "\\n",
        });
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
}

fn render_histogram(out: &mut String, name: &str, labels: &[(String, String)], h: &Histogram) {
    let counts: [u64; BUCKETS] = std::array::from_fn(|i| h.0.buckets[i].load(Ordering::Relaxed));
    let top = counts
        .iter()
        .rposition(|&c| c > 0)
        .map_or(0, |i| (i + 1).min(64));
    let mut cum = 0u64;
    for (i, c) in counts.iter().enumerate().take(top) {
        cum += c;
        let le = Histogram::bucket_bound(i);
        write_series(out, name, "_bucket", labels, Some(("le", &le)));
        let _ = writeln!(out, " {cum}");
    }
    write_series(out, name, "_bucket", labels, Some(("le", &"+Inf")));
    let _ = writeln!(out, " {}", h.count());
    write_series(out, name, "_sum", labels, None);
    let _ = writeln!(out, " {}", h.sum());
    write_series(out, name, "_count", labels, None);
    let _ = writeln!(out, " {}", h.count());
    for (q, text) in [(0.5, "0.5"), (0.99, "0.99")] {
        if let Some(v) = h.quantile(q) {
            write_series(out, name, "", labels, Some(("quantile", &text)));
            let _ = writeln!(out, " {v}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counter_and_gauge_round_trip() {
        let reg = Registry::new();
        let c = reg.counter("sent_total", &[]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Get-or-create returns a handle to the same atomic.
        assert_eq!(reg.counter("sent_total", &[]).get(), 5);

        let g = reg.gauge("active", &[("driver", "async")]);
        g.set(3);
        g.add(-1);
        assert_eq!(g.get(), 2);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // Bucket i holds v with v <= 2^i and v > 2^(i-1): the boundary
        // value 2^i lands in bucket i, 2^i + 1 in bucket i + 1.
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 2);
        assert_eq!(Histogram::bucket_index(5), 3);
        for i in 1..64usize {
            let bound = 1u64 << i;
            assert_eq!(Histogram::bucket_index(bound), i, "2^{i} in bucket {i}");
            assert_eq!(
                Histogram::bucket_index(bound + 1),
                i + 1,
                "2^{i}+1 spills to bucket {}",
                i + 1
            );
        }
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
    }

    #[test]
    fn histogram_quantiles_are_bucket_bounds() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        for v in 1..=100u64 {
            h.observe(v);
        }
        // p50 of 1..=100 is 50, whose bucket bound is 64.
        assert_eq!(h.quantile(0.5), Some(64));
        // p99 is 99 → bucket bound 128.
        assert_eq!(h.quantile(0.99), Some(128));
        assert_eq!(h.quantile(1.0), Some(128));
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
    }

    #[test]
    fn histogram_concurrent_increments_lose_nothing() {
        let h = Histogram::new();
        let threads = 8;
        let per = 10_000u64;
        let mut joins = Vec::new();
        for t in 0..threads {
            let h = h.clone();
            joins.push(thread::spawn(move || {
                for i in 0..per {
                    h.observe(t * per + i);
                }
            }));
        }
        for j in joins {
            j.join().expect("worker panicked");
        }
        assert_eq!(h.count(), threads * per);
        let total: u64 = h.bucket_counts().iter().sum();
        assert_eq!(total, threads * per);
    }

    #[test]
    fn prometheus_rendering_shape() {
        let reg = Registry::new();
        reg.counter("drops_total", &[("reason", "dedup")]).add(2);
        reg.gauge("active_sessions", &[]).set(7);
        let h = reg.histogram("pacing_error_ns", &[("path", "a")]);
        h.observe(3);
        h.observe(1000);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE drops_total counter"), "{text}");
        assert!(text.contains("drops_total{reason=\"dedup\"} 2"), "{text}");
        assert!(text.contains("active_sessions 7"), "{text}");
        assert!(
            text.contains("pacing_error_ns_bucket{path=\"a\",le=\"4\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("pacing_error_ns_bucket{path=\"a\",le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("pacing_error_ns_sum{path=\"a\"} 1003"),
            "{text}"
        );
        assert!(
            text.contains("pacing_error_ns_count{path=\"a\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("pacing_error_ns{path=\"a\",quantile=\"0.99\"} 1024"),
            "{text}"
        );
    }

    /// The exposition text of a mixed registry, byte for byte: families in
    /// name order, sorted labels, escaped label values, a filled and an
    /// empty histogram, unlabelled series, a zero counter and a handle
    /// attached with `register_*`.
    #[test]
    fn prometheus_rendering_golden() {
        let reg = Registry::new();
        reg.counter("drops_total", &[("reason", "unknown_token")])
            .add(40);
        reg.counter("drops_total", &[("reason", "dedup")]).add(2);
        reg.counter("requests_total", &[]);
        reg.gauge("active_sessions", &[]).set(-3);
        reg.gauge("escaped", &[("path", "a\\b\"c\nd"), ("alpha", "z")])
            .set(7);
        let h = reg.histogram("pacing_error_ns", &[("path", "lo\"0")]);
        for v in [0, 1, 3, 1000] {
            h.observe(v);
        }
        reg.histogram("empty_ns", &[("path", "idle")]);
        reg.histogram("unlabelled_ns", &[]).observe(5);
        let c = Counter::new();
        c.add(9);
        reg.register_counter("pre_existing_total", &[("z", "1"), ("a", "2")], c);
        let want = r#"# TYPE active_sessions gauge
active_sessions -3
# TYPE drops_total counter
drops_total{reason="dedup"} 2
drops_total{reason="unknown_token"} 40
# TYPE empty_ns histogram
empty_ns_bucket{path="idle",le="+Inf"} 0
empty_ns_sum{path="idle"} 0
empty_ns_count{path="idle"} 0
# TYPE escaped gauge
escaped{alpha="z",path="a\\b\"c\nd"} 7
# TYPE pacing_error_ns histogram
pacing_error_ns_bucket{path="lo\"0",le="1"} 2
pacing_error_ns_bucket{path="lo\"0",le="2"} 2
pacing_error_ns_bucket{path="lo\"0",le="4"} 3
pacing_error_ns_bucket{path="lo\"0",le="8"} 3
pacing_error_ns_bucket{path="lo\"0",le="16"} 3
pacing_error_ns_bucket{path="lo\"0",le="32"} 3
pacing_error_ns_bucket{path="lo\"0",le="64"} 3
pacing_error_ns_bucket{path="lo\"0",le="128"} 3
pacing_error_ns_bucket{path="lo\"0",le="256"} 3
pacing_error_ns_bucket{path="lo\"0",le="512"} 3
pacing_error_ns_bucket{path="lo\"0",le="1024"} 4
pacing_error_ns_bucket{path="lo\"0",le="+Inf"} 4
pacing_error_ns_sum{path="lo\"0"} 1004
pacing_error_ns_count{path="lo\"0"} 4
pacing_error_ns{path="lo\"0",quantile="0.5"} 1
pacing_error_ns{path="lo\"0",quantile="0.99"} 1024
# TYPE pre_existing_total counter
pre_existing_total{a="2",z="1"} 9
# TYPE requests_total counter
requests_total 0
# TYPE unlabelled_ns histogram
unlabelled_ns_bucket{le="1"} 0
unlabelled_ns_bucket{le="2"} 0
unlabelled_ns_bucket{le="4"} 0
unlabelled_ns_bucket{le="8"} 1
unlabelled_ns_bucket{le="+Inf"} 1
unlabelled_ns_sum 5
unlabelled_ns_count 1
unlabelled_ns{quantile="0.5"} 8
unlabelled_ns{quantile="0.99"} 8
"#;
        assert_eq!(reg.render_prometheus(), want);
    }

    #[test]
    fn lookups_count_get_or_create_calls_only() {
        let reg = Registry::new();
        assert_eq!(reg.lookups(), 0);
        let c = reg.counter("a_total", &[]);
        reg.counter("a_total", &[]);
        reg.gauge("g", &[("k", "v")]);
        reg.histogram("h_ns", &[]);
        assert_eq!(reg.lookups(), 4, "hits and misses both count");
        reg.register_counter("b_total", &[], Counter::new());
        c.inc();
        reg.render_prometheus();
        assert_eq!(reg.lookups(), 4, "attaching, updating, rendering do not");
    }

    #[test]
    fn registered_handles_share_state() {
        let reg = Registry::new();
        let c = Counter::new();
        c.add(9);
        reg.register_counter("pre_existing_total", &[], c.clone());
        c.inc();
        assert!(reg.render_prometheus().contains("pre_existing_total 10"));
    }
}

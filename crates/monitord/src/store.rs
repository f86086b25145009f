//! Per-path bounded time-series stores.
//!
//! A daemon that measures many paths for days cannot keep every estimate's
//! per-fleet trace: each path gets a **ring buffer** of compact
//! [`RangeSample`]s. Aggregation — eq. 11 window averages, tumbling
//! windowed ranges, §VI variation statistics, the change-point flag —
//! lives in [`slops::series`].

use slops::series::{
    self, change_points, ranges_overlap, windowed_ranges, RangeSample, SeriesStats, WindowedRange,
};
use std::collections::VecDeque;
use units::{Rate, TimeNs};

/// Store knobs shared by every path of a fleet.
#[derive(Clone, Debug)]
pub struct SeriesConfig {
    /// Samples retained per path; older ones are evicted (0 = unbounded).
    pub capacity: usize,
    /// Tumbling-window length for [`PathSeries::windows`] and the change
    /// detector (the paper compares against 5-minute MRTG windows; short
    /// experiments use shorter windows).
    pub window: TimeNs,
}

impl Default for SeriesConfig {
    fn default() -> Self {
        SeriesConfig {
            capacity: 4096,
            window: TimeNs::from_secs(300),
        }
    }
}

/// Direction of a detected avail-bw change.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChangeDirection {
    /// The avail-bw range moved up.
    Up,
    /// The avail-bw range moved down (e.g. a cross-traffic step; the SLA
    /// alarm case).
    Down,
}

/// A flagged change: two consecutive windowed ranges stopped overlapping.
#[derive(Clone, Copy, Debug)]
pub struct ChangeEvent {
    /// Start of the window in which the change surfaced.
    pub at: TimeNs,
    /// The window before the change.
    pub before: WindowedRange,
    /// The window after the change.
    pub after: WindowedRange,
    /// Which way the range moved.
    pub direction: ChangeDirection,
}

/// Tracks which flagged changes of a path have already been streamed, so
/// a live consumer sees each change exactly once.
///
/// [`PathSeries::changes`] is recomputed from the retained samples, and
/// ring-buffer eviction can *shrink* it (dropped leading windows take
/// their changes with them) — so "how many have I seen" is not a usable
/// cursor. Change instants are, because they are monotonic per path:
/// windows fill in sample-start order, so every newly visible change is
/// at a strictly later window boundary than all previously visible ones.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChangeCursor {
    /// Instant of the latest change handed out.
    last_at: TimeNs,
}

impl ChangeCursor {
    /// A cursor that has seen nothing.
    pub fn new() -> ChangeCursor {
        ChangeCursor::default()
    }

    /// The not-yet-seen suffix of `changes` (which [`PathSeries::changes`]
    /// returns sorted by instant), advancing the cursor past it.
    pub fn fresh<'a>(&mut self, changes: &'a [ChangeEvent]) -> &'a [ChangeEvent] {
        let start = changes.partition_point(|c| c.at <= self.last_at);
        let fresh = &changes[start..];
        if let Some(last) = fresh.last() {
            self.last_at = last.at;
        }
        fresh
    }
}

/// A bounded avail-bw time series for one monitored path.
#[derive(Clone, Debug)]
pub struct PathSeries {
    label: String,
    window: TimeNs,
    origin: TimeNs,
    capacity: usize,
    samples: VecDeque<RangeSample>,
    evicted: u64,
    errors: u64,
}

impl PathSeries {
    /// Create an empty series; `origin` anchors the window grid (use the
    /// fleet's `t0` so all paths' windows align).
    pub fn new(label: impl Into<String>, cfg: &SeriesConfig, origin: TimeNs) -> PathSeries {
        PathSeries {
            label: label.into(),
            window: cfg.window,
            origin,
            capacity: cfg.capacity,
            samples: VecDeque::new(),
            evicted: 0,
            errors: 0,
        }
    }

    /// The path's label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Append a sample (measurements arrive in start order per path);
    /// evicts the oldest sample when the ring is full.
    pub fn push(&mut self, s: RangeSample) {
        if let Some(last) = self.samples.back() {
            debug_assert!(s.started >= last.started, "samples must arrive in order");
        }
        if self.capacity > 0 && self.samples.len() == self.capacity {
            self.samples.pop_front();
            self.evicted += 1;
        }
        self.samples.push_back(s);
    }

    /// Count a failed measurement (the sample is lost, the series goes on).
    pub fn record_error(&mut self) {
        self.errors += 1;
    }

    /// Retained samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &RangeSample> {
        self.samples.iter()
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Samples evicted by the ring bound so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Failed measurements so far.
    pub fn errors(&self) -> u64 {
        self.errors
    }

    /// The most recent sample.
    pub fn latest(&self) -> Option<&RangeSample> {
        self.samples.back()
    }

    /// Duration-weighted midpoint average over `[from, to)` (eq. 11).
    pub fn window_average(&self, from: TimeNs, to: TimeNs) -> Rate {
        series::window_average(self.samples.iter(), from, to)
    }

    /// The retained variation envelope `[min low, max high]`.
    pub fn envelope(&self) -> Option<(Rate, Rate)> {
        series::envelope(self.samples.iter())
    }

    /// §VI width/variation statistics over the retained samples.
    pub fn stats(&self) -> SeriesStats {
        SeriesStats::of(self.samples.iter())
    }

    /// Tumbling windowed ranges (length from [`SeriesConfig::window`],
    /// grid anchored at the series origin). Empty windows are skipped.
    ///
    /// Only **complete** windows are returned: once the ring bound has
    /// evicted samples, the window containing the oldest retained sample
    /// may be missing evicted ones — its envelope would narrow
    /// retroactively and the change detector would flag shifts that never
    /// happened — so that window is dropped too.
    pub fn windows(&self) -> Vec<WindowedRange> {
        let contiguous: Vec<RangeSample> = self.samples.iter().copied().collect();
        let mut windows = windowed_ranges(&contiguous, self.origin, self.window);
        if self.evicted > 0 {
            if let Some(first) = contiguous.first() {
                windows.retain(|w| w.from > first.started);
            }
        }
        windows
    }

    /// Flagged changes: consecutive windowed ranges that stopped
    /// overlapping, with the direction the range moved.
    pub fn changes(&self) -> Vec<ChangeEvent> {
        let windows = self.windows();
        change_points(&windows)
            .into_iter()
            .map(|i| {
                let (before, after) = (windows[i - 1], windows[i]);
                debug_assert!(!ranges_overlap(before.range(), after.range()));
                let direction = if after.low.bps() > before.high.bps() {
                    ChangeDirection::Up
                } else {
                    ChangeDirection::Down
                };
                ChangeEvent {
                    at: after.from,
                    before,
                    after,
                    direction,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(start_s: u64, lo: f64, hi: f64) -> RangeSample {
        RangeSample {
            started: TimeNs::from_secs(start_s),
            duration: TimeNs::from_secs(2),
            low: Rate::from_mbps(lo),
            high: Rate::from_mbps(hi),
        }
    }

    fn series(capacity: usize, window_s: u64) -> PathSeries {
        PathSeries::new(
            "p0",
            &SeriesConfig {
                capacity,
                window: TimeNs::from_secs(window_s),
            },
            TimeNs::ZERO,
        )
    }

    #[test]
    fn ring_bound_evicts_oldest() {
        let mut s = series(3, 60);
        for i in 0..5 {
            s.push(sample(i * 10, 4.0, 5.0));
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.evicted(), 2);
        let first = s.samples().next().unwrap();
        assert_eq!(first.started, TimeNs::from_secs(20));
        assert_eq!(s.latest().unwrap().started, TimeNs::from_secs(40));
    }

    #[test]
    fn zero_capacity_is_unbounded() {
        let mut s = series(0, 60);
        for i in 0..100 {
            s.push(sample(i, 4.0, 5.0));
        }
        assert_eq!(s.len(), 100);
        assert_eq!(s.evicted(), 0);
    }

    #[test]
    fn change_detector_flags_a_step_down() {
        let mut s = series(0, 30);
        // Two stable windows at [7, 9], then two at [3, 4].
        for i in 0..6 {
            s.push(sample(i * 10, 7.0, 9.0));
        }
        for i in 6..12 {
            s.push(sample(i * 10, 3.0, 4.0));
        }
        let changes = s.changes();
        assert_eq!(changes.len(), 1, "one step, one flag: {changes:?}");
        assert_eq!(changes[0].direction, ChangeDirection::Down);
        assert_eq!(changes[0].at, TimeNs::from_secs(60));
        // A stable series flags nothing.
        let mut stable = series(0, 30);
        for i in 0..12 {
            stable.push(sample(i * 10, 3.8, 4.4));
        }
        assert!(stable.changes().is_empty());
    }

    #[test]
    fn eviction_never_fabricates_changes() {
        // Window [0, 30) holds ranges [3, 5] and [7, 9] (envelope [3, 9]);
        // window [30, 60) holds [3, 4] — overlapping, so no change.
        let mut s = series(3, 30);
        s.push(sample(0, 3.0, 5.0));
        s.push(sample(10, 7.0, 9.0));
        s.push(sample(30, 3.0, 4.0));
        assert!(s.changes().is_empty());
        // The ring evicts the [3, 5] sample. The first window's *retained*
        // envelope narrows to [7, 9], which would fake a Down change —
        // instead the now-incomplete window is dropped entirely.
        s.push(sample(40, 3.0, 4.0));
        assert_eq!(s.evicted(), 1);
        let windows = s.windows();
        assert_eq!(windows.len(), 1, "incomplete window must be dropped");
        assert_eq!(windows[0].from, TimeNs::from_secs(30));
        assert!(s.changes().is_empty());
    }

    /// Regression: a count-based "changes already streamed" cursor goes
    /// permanently silent once eviction shrinks `changes()`; the
    /// instant-based [`ChangeCursor`] must keep emitting.
    #[test]
    fn change_cursor_survives_eviction_shrinking_the_list() {
        let mut s = series(5, 30);
        let mut cursor = ChangeCursor::new();
        // Window [0, 30) at [7, 9], window [30, 60) at [3, 4]: change A.
        s.push(sample(0, 7.0, 9.0));
        s.push(sample(10, 7.0, 9.0));
        s.push(sample(30, 3.0, 4.0));
        s.push(sample(40, 3.0, 4.0));
        let fresh: Vec<ChangeEvent> = cursor.fresh(&s.changes()).to_vec();
        assert_eq!(fresh.len(), 1, "change A must stream");
        assert_eq!(fresh[0].at, TimeNs::from_secs(30));
        // Nothing new on re-poll.
        assert!(cursor.fresh(&s.changes()).is_empty());
        // More [3, 4] samples evict the first window: changes() shrinks
        // to empty (A's windows are gone).
        s.push(sample(60, 3.0, 4.0));
        s.push(sample(70, 3.0, 4.0));
        assert!(s.changes().is_empty(), "A must vanish with its windows");
        assert!(cursor.fresh(&s.changes()).is_empty());
        // A step back up creates change B — at index 0 of the (rebuilt)
        // list, i.e. *below* where a count cursor would resume.
        s.push(sample(90, 8.0, 10.0));
        let changes = s.changes();
        let fresh = cursor.fresh(&changes);
        assert_eq!(fresh.len(), 1, "change B must still stream: {changes:?}");
        assert_eq!(fresh[0].at, TimeNs::from_secs(90));
        assert_eq!(fresh[0].direction, ChangeDirection::Up);
    }

    #[test]
    fn stats_and_averages_delegate_to_core() {
        let mut s = series(0, 60);
        s.push(sample(0, 3.0, 5.0));
        s.push(sample(10, 3.0, 5.0));
        let st = s.stats();
        assert_eq!(st.count, 2);
        assert!((st.mean_midpoint.mbps() - 4.0).abs() < 1e-9);
        let avg = s.window_average(TimeNs::ZERO, TimeNs::from_secs(60));
        assert!((avg.mbps() - 4.0).abs() < 1e-9);
        assert_eq!(s.envelope().unwrap().0.mbps(), 3.0);
        s.record_error();
        assert_eq!(s.errors(), 1);
    }
}

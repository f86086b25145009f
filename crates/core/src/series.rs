//! Reusable avail-bw time-series aggregation (§VI dynamics).
//!
//! A monitoring deployment — the `monitord` fleet daemon, on one path or
//! many — produces a sequence of `[R_min, R_max]` ranges per path. This
//! module holds the aggregation that every consumer of such a sequence
//! needs, independent of how the samples are stored (a plain `Vec`, a
//! bounded ring buffer, ...):
//!
//! * [`RangeSample`] — one measurement reduced to its range (the per-fleet
//!   trace dropped, so a long-running store stays small);
//! * [`window_average`] — the duration-weighted midpoint average of eq. 11,
//!   comparable to an MRTG reading;
//! * [`windowed_ranges`] — tumbling-window aggregation: per window the
//!   sample count, the range envelope, and the eq. 11 average;
//! * [`change_points`] — the §VI-motivated change flag: consecutive
//!   windowed ranges that stop overlapping signal an avail-bw shift larger
//!   than the measurement variation;
//! * [`SeriesStats`] — range-width and relative-variation (eq. 12)
//!   statistics over a whole series, the quantities behind Figs. 11–14.

use crate::metrics::relative_variation;
use crate::session::Estimate;
use units::stats::percentile;
use units::{Rate, TimeNs};

/// One avail-bw measurement reduced to its reported range.
///
/// This is the compact form a long-running monitor retains: the start
/// instant and duration (the weights of eq. 11) and the `[low, high]`
/// range, without the per-fleet trace an [`Estimate`] carries.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RangeSample {
    /// Transport/simulation time when the measurement started.
    pub started: TimeNs,
    /// Measurement duration.
    pub duration: TimeNs,
    /// Lower end of the reported range.
    pub low: Rate,
    /// Upper end of the reported range.
    pub high: Rate,
}

impl RangeSample {
    /// Reduce a finished [`Estimate`] to its range, stamped with the
    /// instant the measurement started.
    pub fn from_estimate(started: TimeNs, est: &Estimate) -> RangeSample {
        RangeSample {
            started,
            duration: est.elapsed,
            low: est.low,
            high: est.high,
        }
    }

    /// Midpoint of the range.
    pub fn midpoint(&self) -> Rate {
        self.low.midpoint(self.high)
    }

    /// Relative variation ρ of the range (eq. 12).
    pub fn relative_variation(&self) -> f64 {
        relative_variation(self.low, self.high)
    }

    /// The instant the measurement finished.
    pub fn end(&self) -> TimeNs {
        self.started + self.duration
    }
}

/// Duration-weighted average of the range midpoints of the samples that
/// *started* in `[from, to)` (eq. 11) — the number comparable to an MRTG
/// window. [`Rate::ZERO`] when the window holds no (positive-duration)
/// samples.
pub fn window_average<'a, I>(samples: I, from: TimeNs, to: TimeNs) -> Rate
where
    I: IntoIterator<Item = &'a RangeSample>,
{
    let mut weight = 0.0;
    let mut sum = 0.0;
    for s in samples {
        if s.started >= from && s.started < to {
            let w = s.duration.secs_f64();
            weight += w;
            sum += w * s.midpoint().bps();
        }
    }
    if weight <= 0.0 {
        Rate::ZERO
    } else {
        Rate::from_bps(sum / weight)
    }
}

/// The widest range observed: `[min low, max high]` — the avail-bw
/// variation envelope of the series. `None` for an empty series.
pub fn envelope<'a, I>(samples: I) -> Option<(Rate, Rate)>
where
    I: IntoIterator<Item = &'a RangeSample>,
{
    let mut out: Option<(Rate, Rate)> = None;
    for s in samples {
        out = Some(match out {
            None => (s.low, s.high),
            Some((lo, hi)) => (lo.min(s.low), hi.max(s.high)),
        });
    }
    out
}

/// Do two avail-bw ranges overlap (shared closed-interval intersection)?
pub fn ranges_overlap(a: (Rate, Rate), b: (Rate, Rate)) -> bool {
    a.0.bps() <= b.1.bps() && b.0.bps() <= a.1.bps()
}

/// One tumbling window of an aggregated series.
#[derive(Clone, Copy, Debug)]
pub struct WindowedRange {
    /// Window start (inclusive).
    pub from: TimeNs,
    /// Window end (exclusive).
    pub to: TimeNs,
    /// Measurements that started inside the window.
    pub samples: usize,
    /// Envelope low over the window's samples.
    pub low: Rate,
    /// Envelope high over the window's samples.
    pub high: Rate,
    /// Duration-weighted midpoint average (eq. 11).
    pub average: Rate,
}

impl WindowedRange {
    /// The window's range as a pair.
    pub fn range(&self) -> (Rate, Rate) {
        (self.low, self.high)
    }
}

/// Aggregate `samples` (sorted by start time) into consecutive tumbling
/// windows of length `window`, the first window starting at `origin`.
/// Windows containing no samples are skipped; `window` must be non-zero.
pub fn windowed_ranges(
    samples: &[RangeSample],
    origin: TimeNs,
    window: TimeNs,
) -> Vec<WindowedRange> {
    assert!(!window.is_zero(), "aggregation window must be non-zero");
    let mut out = Vec::new();
    let mut i = 0;
    while i < samples.len() {
        let s = &samples[i];
        if s.started < origin {
            i += 1;
            continue;
        }
        // The window this sample falls into.
        let k = (s.started - origin).as_nanos() / window.as_nanos();
        let from = origin + window * k;
        let to = from + window;
        let mut j = i;
        while j < samples.len() && samples[j].started < to {
            j += 1;
        }
        let slice = &samples[i..j];
        let (low, high) = envelope(slice).expect("window slice is non-empty");
        out.push(WindowedRange {
            from,
            to,
            samples: slice.len(),
            low,
            high,
            average: window_average(slice, from, to),
        });
        i = j;
    }
    out
}

/// Indices `i > 0` of windows whose range does **not** overlap the
/// preceding window's range — the simple change-point flag: the avail-bw
/// moved by more than the measured variation between two windows.
pub fn change_points(windows: &[WindowedRange]) -> Vec<usize> {
    windows
        .windows(2)
        .enumerate()
        .filter(|(_, w)| !ranges_overlap(w[0].range(), w[1].range()))
        .map(|(i, _)| i + 1)
        .collect()
}

/// Range-width and relative-variation statistics of a series (§VI).
#[derive(Clone, Copy, Debug, Default)]
pub struct SeriesStats {
    /// Number of samples.
    pub count: usize,
    /// Mean range width `R_max − R_min`.
    pub mean_width: Rate,
    /// Mean range midpoint.
    pub mean_midpoint: Rate,
    /// Mean relative variation ρ (eq. 12).
    pub mean_rho: f64,
    /// 75th-percentile relative variation (the paper's Fig. 11 summary).
    pub p75_rho: f64,
}

impl SeriesStats {
    /// Compute the statistics; all-zero for an empty series.
    pub fn of<'a, I>(samples: I) -> SeriesStats
    where
        I: IntoIterator<Item = &'a RangeSample>,
    {
        let mut count = 0usize;
        let mut width = 0.0;
        let mut mid = 0.0;
        let mut rhos = Vec::new();
        for s in samples {
            count += 1;
            width += (s.high.bps() - s.low.bps()).max(0.0);
            mid += s.midpoint().bps();
            rhos.push(s.relative_variation());
        }
        if count == 0 {
            return SeriesStats::default();
        }
        let n = count as f64;
        SeriesStats {
            count,
            mean_width: Rate::from_bps(width / n),
            mean_midpoint: Rate::from_bps(mid / n),
            mean_rho: rhos.iter().sum::<f64>() / n,
            p75_rho: percentile(&rhos, 75.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(start_s: u64, dur_s: u64, lo: f64, hi: f64) -> RangeSample {
        RangeSample {
            started: TimeNs::from_secs(start_s),
            duration: TimeNs::from_secs(dur_s),
            low: Rate::from_mbps(lo),
            high: Rate::from_mbps(hi),
        }
    }

    #[test]
    fn window_average_weights_by_duration() {
        let s = [sample(0, 10, 2.0, 4.0), sample(10, 30, 6.0, 8.0)];
        // (10*3 + 30*7)/40 = 6
        let avg = window_average(&s, TimeNs::ZERO, TimeNs::from_secs(100));
        assert!((avg.mbps() - 6.0).abs() < 1e-9);
        // Empty window, empty series, zero-duration samples.
        assert!(window_average(&s, TimeNs::from_secs(50), TimeNs::from_secs(60)).is_zero());
        assert!(window_average([].iter(), TimeNs::ZERO, TimeNs::MAX).is_zero());
        let zero = [sample(0, 0, 2.0, 4.0)];
        assert!(window_average(&zero, TimeNs::ZERO, TimeNs::MAX).is_zero());
    }

    #[test]
    fn envelope_is_the_union() {
        let s = [sample(0, 1, 3.0, 5.0), sample(1, 1, 2.0, 4.0)];
        let (lo, hi) = envelope(&s).unwrap();
        assert_eq!(lo.mbps(), 2.0);
        assert_eq!(hi.mbps(), 5.0);
        assert!(envelope([].iter()).is_none());
    }

    #[test]
    fn overlap_is_closed_interval() {
        let r = |a: f64, b: f64| (Rate::from_mbps(a), Rate::from_mbps(b));
        assert!(ranges_overlap(r(2.0, 4.0), r(4.0, 6.0))); // touching counts
        assert!(ranges_overlap(r(2.0, 6.0), r(3.0, 4.0))); // containment
        assert!(!ranges_overlap(r(2.0, 3.0), r(5.0, 6.0)));
        assert!(!ranges_overlap(r(5.0, 6.0), r(2.0, 3.0)));
    }

    #[test]
    fn windowed_ranges_tumble_and_skip_empty() {
        let s = [
            sample(5, 2, 7.0, 9.0),
            sample(20, 2, 7.5, 8.5),
            // nothing in [30, 60)
            sample(65, 2, 3.0, 4.0),
            sample(80, 2, 3.5, 4.5),
        ];
        let w = windowed_ranges(&s, TimeNs::ZERO, TimeNs::from_secs(30));
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].from, TimeNs::ZERO);
        assert_eq!(w[0].samples, 2);
        assert_eq!(w[0].low.mbps(), 7.0);
        assert_eq!(w[0].high.mbps(), 9.0);
        assert_eq!(w[1].from, TimeNs::from_secs(60));
        assert_eq!(w[1].samples, 2);
        // The step from [7,9] to [3,4.5] is flagged.
        assert_eq!(change_points(&w), vec![1]);
    }

    #[test]
    fn stable_series_has_no_change_points() {
        let s: Vec<RangeSample> = (0..10).map(|i| sample(i * 10, 2, 3.8, 4.4)).collect();
        let w = windowed_ranges(&s, TimeNs::ZERO, TimeNs::from_secs(30));
        assert!(w.len() >= 3);
        assert!(change_points(&w).is_empty());
    }

    #[test]
    fn stats_summarize_widths_and_rho() {
        let s = [sample(0, 1, 3.0, 5.0), sample(1, 1, 3.0, 5.0)];
        let st = SeriesStats::of(&s);
        assert_eq!(st.count, 2);
        assert!((st.mean_width.mbps() - 2.0).abs() < 1e-9);
        assert!((st.mean_midpoint.mbps() - 4.0).abs() < 1e-9);
        assert!((st.mean_rho - 0.5).abs() < 1e-9);
        let empty = SeriesStats::of([].iter());
        assert_eq!(empty.count, 0);
        assert!(empty.mean_width.is_zero());
    }
}

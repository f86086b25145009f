//! MRTG-style windowed utilization monitoring.
//!
//! Real MRTG polls router interface byte counters and reports 5-minute
//! average utilization; the paper uses those graphs as ground truth for the
//! verification experiments (Fig. 10) and the TCP experiments (Figs. 15–17).
//! [`UtilMonitor`] reproduces that: per-window transmitted-byte counters from
//! which average utilization and avail-bw are derived, including the 6 Mb/s
//! reading quantization of the paper's Fig. 10 graphs.

use units::{Rate, TimeNs};

/// Windowed byte counter attached to every link.
#[derive(Debug, Clone)]
pub struct UtilMonitor {
    window: TimeNs,
    /// bytes[i] = bytes transmitted in window i (window i covers
    /// `[i*window, (i+1)*window)`); windows with no traffic stay 0.
    bytes: Vec<u64>,
    /// The window the last record went to, and the instants it spans:
    /// records come in time order, so most land there without a division.
    current: usize,
    current_span: (u64, u64),
}

impl UtilMonitor {
    pub(crate) fn new(window: TimeNs) -> UtilMonitor {
        assert!(!window.is_zero(), "monitor window must be positive");
        UtilMonitor {
            window,
            bytes: Vec::new(),
            current: 0,
            current_span: (0, 0),
        }
    }

    /// The configured window length.
    pub fn window(&self) -> TimeNs {
        self.window
    }

    pub(crate) fn record(&mut self, now: TimeNs, bytes: u64) {
        let t = now.as_nanos();
        let (start, end) = self.current_span;
        if t < start || t >= end {
            let w = self.window.as_nanos();
            let idx = t / w;
            self.current = idx as usize;
            self.current_span = (idx * w, (idx * w).saturating_add(w));
            if self.current >= self.bytes.len() {
                self.bytes.resize(self.current + 1, 0);
            }
        }
        self.bytes[self.current] += bytes;
    }

    /// Number of windows observed so far (including zero-traffic gaps).
    pub fn num_windows(&self) -> usize {
        self.bytes.len()
    }

    /// Bytes transmitted in window `idx` (0 if beyond the observed range).
    pub fn bytes_in_window(&self, idx: usize) -> u64 {
        self.bytes.get(idx).copied().unwrap_or(0)
    }

    /// Average transmission rate in window `idx`.
    pub fn rate_in_window(&self, idx: usize) -> Rate {
        Rate::from_transfer(self.bytes_in_window(idx), self.window)
    }

    /// Average utilization of a link with the given capacity in window `idx`.
    pub fn util_in_window(&self, idx: usize, capacity: Rate) -> f64 {
        if capacity.is_zero() {
            0.0
        } else {
            self.rate_in_window(idx).bps() / capacity.bps()
        }
    }

    /// Average available bandwidth `C (1 - u)` in window `idx` (eq. 2).
    pub fn avail_bw_in_window(&self, idx: usize, capacity: Rate) -> Rate {
        capacity - self.rate_in_window(idx)
    }

    /// Average rate over an arbitrary interval, reading whole windows that
    /// overlap `[from, to)` (coarse, like reading an MRTG graph).
    pub fn avg_rate(&self, from: TimeNs, to: TimeNs) -> Rate {
        if to <= from {
            return Rate::ZERO;
        }
        let w = self.window.as_nanos();
        let first = (from.as_nanos() / w) as usize;
        let last = ((to.as_nanos().saturating_sub(1)) / w) as usize;
        let total: u64 = (first..=last).map(|i| self.bytes_in_window(i)).sum();
        let span = TimeNs::from_nanos((last - first + 1) as u64 * w);
        Rate::from_transfer(total, span)
    }

    /// An MRTG *reading* of avail-bw for window `idx`: the true window
    /// average quantized to a band of the given width, as when reading
    /// values off a low-resolution graph. The paper's Fig. 10 uses 6 Mb/s
    /// bands. Returns `(low, high)` of the band, clamped to `[0, capacity]`.
    pub fn mrtg_reading(&self, idx: usize, capacity: Rate, band: Rate) -> (Rate, Rate) {
        let a = self.avail_bw_in_window(idx, capacity);
        if band.is_zero() {
            return (a, a);
        }
        let k = (a.bps() / band.bps()).floor();
        let lo = Rate::from_bps((k * band.bps()).max(0.0));
        let hi = lo + band;
        (lo, hi.min(capacity))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_correct_windows() {
        let mut m = UtilMonitor::new(TimeNs::from_secs(1));
        m.record(TimeNs::from_millis(100), 1000);
        m.record(TimeNs::from_millis(900), 500);
        m.record(TimeNs::from_millis(2500), 300); // window 2, window 1 empty
        assert_eq!(m.num_windows(), 3);
        assert_eq!(m.bytes_in_window(0), 1500);
        assert_eq!(m.bytes_in_window(1), 0);
        assert_eq!(m.bytes_in_window(2), 300);
        assert_eq!(m.bytes_in_window(99), 0);
    }

    #[test]
    fn window_rate_and_util() {
        let mut m = UtilMonitor::new(TimeNs::from_secs(1));
        // 125_000 bytes in 1 s = 1 Mb/s
        m.record(TimeNs::from_millis(10), 125_000);
        assert!((m.rate_in_window(0).mbps() - 1.0).abs() < 1e-9);
        let cap = Rate::from_mbps(10.0);
        assert!((m.util_in_window(0, cap) - 0.1).abs() < 1e-9);
        assert!((m.avail_bw_in_window(0, cap).mbps() - 9.0).abs() < 1e-9);
    }

    #[test]
    fn avg_rate_spans_windows() {
        let mut m = UtilMonitor::new(TimeNs::from_secs(1));
        m.record(TimeNs::from_millis(500), 125_000); // 1 Mb/s in w0
        m.record(TimeNs::from_millis(1500), 375_000); // 3 Mb/s in w1
        let avg = m.avg_rate(TimeNs::ZERO, TimeNs::from_secs(2));
        assert!((avg.mbps() - 2.0).abs() < 1e-9);
        assert!(m
            .avg_rate(TimeNs::from_secs(2), TimeNs::from_secs(2))
            .is_zero());
    }

    #[test]
    fn mrtg_reading_quantizes_to_band() {
        let mut m = UtilMonitor::new(TimeNs::from_secs(1));
        // util 0.26 of 100 Mb/s => avail 74 Mb/s
        m.record(TimeNs::from_millis(1), 3_250_000);
        let (lo, hi) = m.mrtg_reading(0, Rate::from_mbps(100.0), Rate::from_mbps(6.0));
        assert!((lo.mbps() - 72.0).abs() < 1e-9);
        assert!((hi.mbps() - 78.0).abs() < 1e-9);
        assert!(lo.mbps() <= 74.0 && 74.0 <= hi.mbps());
    }
}

//! The increasing-trend statistics (§IV, eqs. 8–9) and stream
//! classification.
//!
//! * **PCT** (pairwise comparison test): the fraction of consecutive group
//!   medians that strictly increase. Independent OWDs → ≈ 0.5; strong
//!   increasing trend → 1.
//! * **PDT** (pairwise difference test): the start-to-end change normalized
//!   by the total absolute variation. Independent → ≈ 0; strong trend → 1.
//!
//! Each statistic renders a three-way verdict — increasing above its upper
//! threshold, non-increasing below its lower threshold, **ambiguous**
//! between — and the released pathload combines them: agreement wins, a
//! lone verdict beats an ambiguous one, a conflict is ambiguous. Ambiguous
//! streams vote for neither side of the fleet decision; this is what keeps
//! a trendless-but-noisy stream from randomly flipping the binary search
//! (with Γ = 10 groups a *single* PCT threshold near 0.5 would misclassify
//! about half of all such streams).
//!
//! Streams whose sample count is too small to form group medians are
//! **unusable** (excessive loss) and handled by the fleet loss rules.

use crate::config::{SlopsConfig, TrendMode};
use crate::owd::with_group_medians;
use crate::transport::StreamRecord;

/// Classification of one stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamClass {
    /// Type I: OWDs show an increasing trend (stream rate > avail-bw).
    Increasing,
    /// Type N: no increasing trend (stream rate < avail-bw).
    NonIncreasing,
    /// The statistics disagree or sit between their thresholds.
    Ambiguous,
    /// Too few usable samples to decide (heavy loss or sender failure).
    Unusable,
}

impl StreamClass {
    /// Every classification, for pre-sizing label vocabularies.
    pub const ALL: [StreamClass; 4] = [
        StreamClass::Increasing,
        StreamClass::NonIncreasing,
        StreamClass::Ambiguous,
        StreamClass::Unusable,
    ];

    /// Stable snake_case name (trace events, JSONL, metric labels).
    pub fn name(self) -> &'static str {
        match self {
            StreamClass::Increasing => "increasing",
            StreamClass::NonIncreasing => "non_increasing",
            StreamClass::Ambiguous => "ambiguous",
            StreamClass::Unusable => "unusable",
        }
    }
}

/// Three-way verdict of a single statistic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    Inc,
    Non,
    Ambiguous,
}

/// PCT metric over group medians (eq. 8). `None` when fewer than 2 groups.
pub fn pct_metric(medians: &[f64]) -> Option<f64> {
    if medians.len() < 2 {
        return None;
    }
    let pairs = medians.len() - 1;
    let increasing = medians.windows(2).filter(|w| w[1] > w[0]).count();
    Some(increasing as f64 / pairs as f64)
}

/// PDT metric over group medians (eq. 9). `None` when fewer than 2 groups
/// or when the series is perfectly flat (no variation to normalize by).
pub fn pdt_metric(medians: &[f64]) -> Option<f64> {
    if medians.len() < 2 {
        return None;
    }
    let total_variation: f64 = medians.windows(2).map(|w| (w[1] - w[0]).abs()).sum();
    if total_variation == 0.0 {
        return None;
    }
    let net = medians[medians.len() - 1] - medians[0];
    Some(net / total_variation)
}

fn verdict(value: Option<f64>, inc_thr: f64, dec_thr: f64) -> Option<Verdict> {
    value.map(|v| {
        if v > inc_thr {
            Verdict::Inc
        } else if v < dec_thr {
            Verdict::Non
        } else {
            Verdict::Ambiguous
        }
    })
}

/// Classify a stream from its receiver record (loss handling happens at the
/// fleet level; this only answers "does the OWD series trend upward?").
pub fn classify_stream(rec: &StreamRecord, cfg: &SlopsConfig) -> StreamClass {
    with_group_medians(
        &rec.samples,
        |s| s.owd_ns,
        |medians| classify_medians(medians, cfg),
    )
}

/// Classify from precomputed group medians.
pub fn classify_medians(medians: &[f64], cfg: &SlopsConfig) -> StreamClass {
    if medians.len() < 2 {
        return StreamClass::Unusable;
    }
    let pct = verdict(pct_metric(medians), cfg.pct_inc, cfg.pct_dec);
    // A perfectly flat series has no PDT but is trivially non-increasing.
    let pdt = verdict(pdt_metric(medians), cfg.pdt_inc, cfg.pdt_dec).or(Some(Verdict::Non));
    let combined = match cfg.trend_mode {
        TrendMode::PctOnly => pct.unwrap_or(Verdict::Non),
        TrendMode::PdtOnly => pdt.unwrap_or(Verdict::Non),
        TrendMode::Both => match (pct.unwrap_or(Verdict::Ambiguous), pdt.unwrap()) {
            (a, b) if a == b => a,
            (Verdict::Ambiguous, b) => b,
            (a, Verdict::Ambiguous) => a,
            _ => Verdict::Ambiguous, // direct conflict
        },
    };
    match combined {
        Verdict::Inc => StreamClass::Increasing,
        Verdict::Non => StreamClass::NonIncreasing,
        Verdict::Ambiguous => StreamClass::Ambiguous,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::PacketSample;
    use units::TimeNs;

    fn cfg() -> SlopsConfig {
        SlopsConfig::default()
    }

    #[test]
    fn pct_extremes() {
        let inc: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let dec: Vec<f64> = (0..10).map(|i| -(i as f64)).collect();
        assert_eq!(pct_metric(&inc), Some(1.0));
        assert_eq!(pct_metric(&dec), Some(0.0));
        assert_eq!(pct_metric(&[1.0]), None);
    }

    #[test]
    fn pct_alternating_is_half() {
        let alt: Vec<f64> = (0..11)
            .map(|i| if i % 2 == 0 { 0.0 } else { 1.0 })
            .collect();
        let v = pct_metric(&alt).unwrap();
        assert!((v - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pdt_extremes() {
        let inc: Vec<f64> = (0..10).map(|i| i as f64).collect();
        assert_eq!(pdt_metric(&inc), Some(1.0));
        let dec: Vec<f64> = (0..10).map(|i| -(i as f64)).collect();
        assert_eq!(pdt_metric(&dec), Some(-1.0));
        let flat = vec![5.0; 10];
        assert_eq!(pdt_metric(&flat), None);
        // Alternating: net 0 => PDT 0.
        let alt: Vec<f64> = (0..11)
            .map(|i| if i % 2 == 0 { 0.0 } else { 1.0 })
            .collect();
        assert_eq!(pdt_metric(&alt), Some(0.0));
    }

    #[test]
    fn pdt_bounds() {
        // |PDT| <= 1 by the triangle inequality, for any series.
        let series = [3.0, -1.0, 4.0, 1.0, -5.0, 9.0, 2.0, -6.0];
        let v = pdt_metric(&series).unwrap();
        assert!((-1.0..=1.0).contains(&v));
    }

    fn record_from_owds(owds: &[i64]) -> StreamRecord {
        StreamRecord {
            sent: owds.len() as u32,
            samples: owds
                .iter()
                .enumerate()
                .map(|(i, &owd)| PacketSample {
                    idx: i as u32,
                    send_offset: TimeNs::from_micros(100 * i as u64),
                    owd_ns: owd,
                })
                .collect(),
        }
    }

    #[test]
    fn classify_clear_ramp_as_increasing() {
        let owds: Vec<i64> = (0..100).map(|i| 1000 + i * 500).collect();
        assert_eq!(
            classify_stream(&record_from_owds(&owds), &cfg()),
            StreamClass::Increasing
        );
    }

    #[test]
    fn classify_flat_noise_as_non_increasing() {
        // Trendless periodic jitter: PCT ~ 0.5 is ambiguous at best, PDT ~ 0
        // votes non-increasing; the combination must not say increasing.
        let pattern: [i64; 5] = [0, 2000, -1000, 1000, -2000];
        let owds: Vec<i64> = (0..100)
            .map(|i: i64| 50_000 + pattern[(i % 5) as usize])
            .collect();
        let got = classify_stream(&record_from_owds(&owds), &cfg());
        assert_ne!(got, StreamClass::Increasing);
    }

    #[test]
    fn classify_constant_series_as_non_increasing() {
        let owds = vec![42_000i64; 100];
        assert_eq!(
            classify_stream(&record_from_owds(&owds), &cfg()),
            StreamClass::NonIncreasing
        );
    }

    #[test]
    fn classify_decreasing_ramp_as_non_increasing() {
        let owds: Vec<i64> = (0..100).map(|i| 1_000_000 - i * 500).collect();
        assert_eq!(
            classify_stream(&record_from_owds(&owds), &cfg()),
            StreamClass::NonIncreasing
        );
    }

    #[test]
    fn classify_tiny_stream_as_unusable() {
        let owds = vec![1i64, 2, 3];
        assert_eq!(
            classify_stream(&record_from_owds(&owds), &cfg()),
            StreamClass::Unusable
        );
    }

    #[test]
    fn marginal_pct_with_no_net_change_is_not_increasing() {
        // The failure mode that motivates the dual thresholds: 5 of 9
        // median pairs increase (PCT = 0.556) but the series ends where it
        // started. A single 0.55 threshold would call this increasing.
        let medians = vec![0.0, 10.0, 5.0, 15.0, 8.0, 18.0, 9.0, 19.0, 2.0, 3.0];
        let pct = pct_metric(&medians).unwrap();
        assert!((pct - 5.0 / 9.0).abs() < 1e-12);
        let pdt = pdt_metric(&medians).unwrap();
        assert!(pdt.abs() < 0.1);
        let got = classify_medians(&medians, &cfg());
        assert_ne!(got, StreamClass::Increasing);
    }

    #[test]
    fn conflicting_statistics_are_ambiguous() {
        // Mostly small rises (PCT high) with one crash so the net change is
        // strongly negative (PDT < dec): direct conflict.
        let medians = vec![0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, -200.0];
        assert!(pct_metric(&medians).unwrap() > 0.66);
        assert!(pdt_metric(&medians).unwrap() < 0.45);
        assert_eq!(classify_medians(&medians, &cfg()), StreamClass::Ambiguous);
    }

    #[test]
    fn trend_modes_differ_on_crafted_series() {
        // Rises in many small steps but ends where it started: PCT sees
        // "mostly increasing", PDT sees no net change.
        let medians: Vec<f64> = vec![0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 0.0];
        let mut c = cfg();
        c.trend_mode = TrendMode::PctOnly;
        assert_eq!(classify_medians(&medians, &c), StreamClass::Increasing);
        c.trend_mode = TrendMode::PdtOnly;
        assert_eq!(classify_medians(&medians, &c), StreamClass::NonIncreasing);
        c.trend_mode = TrendMode::Both; // conflict
        assert_eq!(classify_medians(&medians, &c), StreamClass::Ambiguous);
    }

    #[test]
    fn single_mode_ambiguous_band() {
        let mut c = cfg();
        c.trend_mode = TrendMode::PctOnly;
        // 7 of 9 pairs increasing: decisively above the 0.66 threshold.
        let medians = vec![0.0, 1.0, 2.0, 3.0, 2.0, 4.0, 5.0, 6.0, 5.5, 7.0];
        let pct = pct_metric(&medians).unwrap();
        assert!(pct > 0.66);
        assert_eq!(classify_medians(&medians, &c), StreamClass::Increasing);
        // And a PCT in the ambiguous band (5/9 = 0.556) abstains.
        let medians = vec![0.0, 10.0, 5.0, 15.0, 8.0, 18.0, 9.0, 19.0, 2.0, 30.0];
        let pct = pct_metric(&medians).unwrap();
        assert!(pct > 0.54 && pct < 0.66, "pct = {pct}");
        assert_eq!(classify_medians(&medians, &c), StreamClass::Ambiguous);
    }
}

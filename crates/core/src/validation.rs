//! Sender-spacing validation (§IV "Stream Parameters", last sentence):
//! the receiver checks the spacing with which packets *actually left* the
//! sender, using the sender timestamps, to detect context switches and
//! other rate deviations. A stream whose realized spacing deviates too
//! much did not probe at its nominal rate and must not be classified.
//!
//! The simulator's injected streams are perfectly periodic; this exists
//! for the real-socket transport, where the OS can preempt the sender
//! mid-stream, and for any future transport with imperfect pacing.

use crate::stream::StreamRequest;
use crate::transport::StreamRecord;

/// Result of validating a stream's realized send spacing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpacingReport {
    /// Packets whose gap to their predecessor deviated from the nominal
    /// period by more than the tolerance.
    pub violations: u32,
    /// Gaps inspected (received packets with a received predecessor).
    pub inspected: u32,
    /// Largest relative deviation observed, `|gap − T| / T`.
    pub worst_deviation: f64,
}

impl SpacingReport {
    /// Fraction of inspected gaps that violated the tolerance.
    pub fn violation_fraction(&self) -> f64 {
        if self.inspected == 0 {
            0.0
        } else {
            self.violations as f64 / self.inspected as f64
        }
    }
}

/// Every integer up to this converts to `f64` exactly.
const EXACT_F64: u64 = 1 << 53;

/// Check the realized send offsets of `rec` against the nominal period of
/// `req`. `tolerance` is the allowed relative deviation per gap (the real
/// tool used a few tens of percent; context switches produce multi-period
/// gaps that exceed any sane tolerance).
pub fn check_spacing(rec: &StreamRecord, req: &StreamRequest, tolerance: f64) -> SpacingReport {
    assert!(tolerance > 0.0);
    let period = req.period.as_nanos();
    let nominal = period as f64;
    let mut violations = 0;
    let mut inspected = 0;
    let mut worst: f64 = 0.0;
    for pair in rec.samples.windows(2) {
        // Only adjacent indices give a single-period gap.
        if pair[1].idx != pair[0].idx + 1 {
            continue;
        }
        inspected += 1;
        let (from, to) = (
            pair[0].send_offset.as_nanos(),
            pair[1].send_offset.as_nanos(),
        );
        // A gap of exactly one period (always, on a virtual clock) has
        // deviation exactly 0: nothing to record. Below 2^53 both offsets
        // are exact in f64, so the float path would compute that same 0.
        if to.checked_sub(from) == Some(period) && to <= EXACT_F64 {
            continue;
        }
        let gap = to as f64 - from as f64;
        let dev = (gap - nominal).abs() / nominal;
        worst = worst.max(dev);
        if dev > tolerance {
            violations += 1;
        }
    }
    SpacingReport {
        violations,
        inspected,
        worst_deviation: worst,
    }
}

/// Is the stream usable for trend classification? The tool discards
/// streams where more than `max_fraction` of the gaps were off.
pub fn spacing_acceptable(report: &SpacingReport, max_fraction: f64) -> bool {
    report.violation_fraction() <= max_fraction
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SlopsConfig;
    use crate::stream::stream_params;
    use crate::transport::PacketSample;
    use units::{Rate, TimeNs};

    fn record_with_offsets(offsets_us: &[u64]) -> StreamRecord {
        StreamRecord {
            sent: offsets_us.len() as u32,
            samples: offsets_us
                .iter()
                .enumerate()
                .map(|(i, us)| PacketSample {
                    idx: i as u32,
                    send_offset: TimeNs::from_micros(*us),
                    owd_ns: 0,
                })
                .collect(),
        }
    }

    fn req_100us() -> StreamRequest {
        // 40 Mb/s => T = 100 µs exactly.
        stream_params(Rate::from_mbps(40.0), 0, &SlopsConfig::default())
    }

    #[test]
    fn perfect_spacing_passes() {
        let offsets: Vec<u64> = (0..50).map(|i| i * 100).collect();
        let rep = check_spacing(&record_with_offsets(&offsets), &req_100us(), 0.2);
        assert_eq!(rep.violations, 0);
        assert_eq!(rep.inspected, 49);
        assert!(spacing_acceptable(&rep, 0.1));
    }

    #[test]
    fn context_switch_gap_is_flagged() {
        // One 2 ms stall in the middle: a classic scheduler preemption.
        let mut offsets: Vec<u64> = (0..50).map(|i| i * 100).collect();
        for o in offsets.iter_mut().skip(25) {
            *o += 2_000;
        }
        let rep = check_spacing(&record_with_offsets(&offsets), &req_100us(), 0.2);
        assert_eq!(rep.violations, 1);
        assert!(rep.worst_deviation > 10.0);
        assert!(spacing_acceptable(&rep, 0.1)); // one bad gap of 49 is fine
    }

    #[test]
    fn persistent_jitter_fails_the_stream() {
        // Alternating 40/160 µs gaps: every gap is 60% off.
        let mut offsets = vec![0u64];
        for i in 0..49 {
            let gap = if i % 2 == 0 { 40 } else { 160 };
            offsets.push(offsets.last().unwrap() + gap);
        }
        let rep = check_spacing(&record_with_offsets(&offsets), &req_100us(), 0.2);
        assert!(rep.violation_fraction() > 0.9);
        assert!(!spacing_acceptable(&rep, 0.5));
    }

    #[test]
    fn lost_packets_skip_their_gaps() {
        // Packets 0, 1, 5, 6: only gaps (0,1) and (5,6) are inspected.
        let rec = StreamRecord {
            sent: 10,
            samples: [0u32, 1, 5, 6]
                .iter()
                .map(|&i| PacketSample {
                    idx: i,
                    send_offset: TimeNs::from_micros(i as u64 * 100),
                    owd_ns: 0,
                })
                .collect(),
        };
        let rep = check_spacing(&rec, &req_100us(), 0.2);
        assert_eq!(rep.inspected, 2);
        assert_eq!(rep.violations, 0);
    }

    /// `check_spacing` without the exact-gap fast path: every gap through
    /// the float division.
    fn float_reference(rec: &StreamRecord, req: &StreamRequest, tolerance: f64) -> SpacingReport {
        let nominal = req.period.as_nanos() as f64;
        let (mut violations, mut inspected, mut worst) = (0, 0, 0.0f64);
        for pair in rec.samples.windows(2) {
            if pair[1].idx != pair[0].idx + 1 {
                continue;
            }
            let gap = pair[1].send_offset.as_nanos() as f64 - pair[0].send_offset.as_nanos() as f64;
            let dev = (gap - nominal).abs() / nominal;
            worst = worst.max(dev);
            inspected += 1;
            if dev > tolerance {
                violations += 1;
            }
        }
        SpacingReport {
            violations,
            inspected,
            worst_deviation: worst,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Exact-period gaps, gaps one nanosecond off, arbitrary gaps, lost
        /// packets, and offsets from zero up past 2^53 (where f64 stops
        /// being exact and the fast path must step aside).
        #[test]
        fn fast_path_matches_the_float_path(
            period_ns in 0u64..2_000_000,
            base in 0usize..6,
            shift in 0u64..300_000_000,
            gaps in proptest::collection::vec((0u8..8, 0u64..4_000_000), 0..120),
            tolerance in 0.01f64..2.0,
        ) {
            let req = StreamRequest {
                stream_id: 0,
                packet_size: 1000,
                period: TimeNs::from_nanos(period_ns),
                count: gaps.len() as u32 + 1,
            };
            // Streams starting at zero, mid-range, and just below, at
            // and past the 2^53 limit of exact f64 integers.
            let bases = [0, 1 << 20, 1 << 52, 1 << 53, 1 << 54, 1 << 62];
            let mut offset = bases[base] - shift.min(bases[base]);
            let mut idx = 0u32;
            let sample = |idx, offset| PacketSample {
                idx,
                send_offset: TimeNs::from_nanos(offset),
                owd_ns: 0,
            };
            let mut samples = vec![sample(idx, offset)];
            for &(kind, raw) in &gaps {
                let gap = match kind {
                    0..=3 => period_ns,
                    4 => period_ns + 1,
                    5 => period_ns.saturating_sub(1),
                    _ => raw,
                };
                // A lost packet: the next sample skips an index.
                idx += if kind == 7 { 2 } else { 1 };
                offset += gap;
                samples.push(sample(idx, offset));
            }
            let rec = StreamRecord { sent: idx + 1, samples };
            let got = check_spacing(&rec, &req, tolerance);
            let want = float_reference(&rec, &req, tolerance);
            proptest::prop_assert_eq!(got.violations, want.violations);
            proptest::prop_assert_eq!(got.inspected, want.inspected);
            proptest::prop_assert_eq!(got.worst_deviation.to_bits(), want.worst_deviation.to_bits());
        }
    }

    #[test]
    fn fast_path_steps_aside_where_f64_rounds() {
        // Past 2^53 an exact one-period gap can read as off in f64: the
        // report must be the float path's, not a silent 0.
        let period = 100_001u64;
        let from = (1u64 << 60) + 1;
        let rec = StreamRecord {
            sent: 2,
            samples: [from, from + period]
                .iter()
                .enumerate()
                .map(|(i, &ns)| PacketSample {
                    idx: i as u32,
                    send_offset: TimeNs::from_nanos(ns),
                    owd_ns: 0,
                })
                .collect(),
        };
        let req = StreamRequest {
            stream_id: 0,
            packet_size: 1000,
            period: TimeNs::from_nanos(period),
            count: 2,
        };
        let got = check_spacing(&rec, &req, 0.2);
        let want = float_reference(&rec, &req, 0.2);
        assert_ne!(want.worst_deviation, 0.0, "the float path rounds here");
        assert_eq!(got, want);
    }

    #[test]
    fn empty_stream_is_trivially_acceptable() {
        let rec = StreamRecord {
            sent: 10,
            samples: vec![],
        };
        let rep = check_spacing(&rec, &req_100us(), 0.2);
        assert_eq!(rep.inspected, 0);
        assert_eq!(rep.violation_fraction(), 0.0);
        assert!(spacing_acceptable(&rep, 0.0));
    }
}

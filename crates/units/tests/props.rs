//! Property tests for the unit types and statistics helpers.

use proptest::prelude::*;
use units::{percentile, round_u64, Rate, Summary, TimeNs};

proptest! {
    /// Rate::tx_time and Rate::bytes_in are inverse within rounding.
    #[test]
    fn tx_time_bytes_roundtrip(mbps in 0.1f64..10_000.0, bytes in 1u32..100_000) {
        let r = Rate::from_mbps(mbps);
        let d = r.tx_time(bytes);
        let back = r.bytes_in(d);
        // One byte of slack for ns rounding.
        prop_assert!((back as i64 - bytes as i64).abs() <= 1, "{bytes} -> {back}");
    }

    /// from_transfer inverts bytes_in for non-trivial durations.
    #[test]
    fn transfer_rate_roundtrip(mbps in 0.1f64..1_000.0, ms in 1u64..100_000) {
        let r = Rate::from_mbps(mbps);
        let d = TimeNs::from_millis(ms);
        let b = r.bytes_in(d);
        prop_assume!(b > 100);
        let r2 = Rate::from_transfer(b, d);
        prop_assert!((r.bps() - r2.bps()).abs() / r.bps() < 0.01);
    }

    /// Time arithmetic is consistent: (a + b) - b == a.
    #[test]
    fn time_add_sub_inverse(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
        let ta = TimeNs::from_nanos(a);
        let tb = TimeNs::from_nanos(b);
        prop_assert_eq!((ta + tb) - tb, ta);
        prop_assert_eq!(ta.max(tb).min(ta.min(tb)), ta.min(tb));
    }

    /// Percentiles are monotone in p and bounded by min/max.
    #[test]
    fn percentile_monotone_and_bounded(
        xs in prop::collection::vec(-1e9f64..1e9, 1..200),
        p1 in 0.0f64..100.0,
        p2 in 0.0f64..100.0,
    ) {
        let (lo, hi) = (p1.min(p2), p1.max(p2));
        let vlo = percentile(&xs, lo);
        let vhi = percentile(&xs, hi);
        prop_assert!(vlo <= vhi + 1e-9);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(min - 1e-9 <= vlo && vhi <= max + 1e-9);
    }

    /// Summary invariants: min <= p50 <= p75 <= p95 <= max, mean within
    /// [min, max].
    #[test]
    fn summary_invariants(xs in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let s = Summary::of(&xs);
        prop_assert!(s.min <= s.p50 + 1e-9);
        prop_assert!(s.p50 <= s.p75 + 1e-9);
        prop_assert!(s.p75 <= s.p95 + 1e-9);
        prop_assert!(s.p95 <= s.max + 1e-9);
        prop_assert!(s.min - 1e-9 <= s.mean && s.mean <= s.max + 1e-9);
        prop_assert_eq!(s.n, xs.len());
    }

    /// The integer rounding on the simulator's per-packet path agrees with
    /// `f64::round` at random magnitudes: any mantissa, any exponent from
    /// far below 1 to past `u64::MAX`, including the fraction-free range.
    #[test]
    fn round_u64_matches_libm_round(mantissa in any::<u64>(), exp in -70i32..70) {
        let x = (mantissa >> 11) as f64 * 2f64.powi(exp - 53);
        prop_assert_eq!(round_u64(x), x.round() as u64, "x = {:e}", x);
        // ...and right around the halfway points of that magnitude.
        let h = x.trunc() + 0.5;
        for y in [h, f64::from_bits(h.to_bits() - 1), f64::from_bits(h.to_bits() + 1)] {
            prop_assert_eq!(round_u64(y), y.round() as u64, "y = {:e}", y);
        }
    }
}

/// The edges a naive `(x + 0.5) as u64` gets wrong, and the ones the cast
/// saturates at.
#[test]
fn round_u64_edge_cases() {
    let p52 = (1u64 << 52) as f64;
    let p53 = (1u64 << 53) as f64;
    for x in [
        0.0,
        0.49999999999999994, // largest double below one half
        0.5,
        1.5,
        2.5,
        p52 - 1.0,
        p52 - 0.5,
        p52,
        p52 + 1.0, // odd, and x + 0.5 is not representable
        p53,
        p53 + 2.0,
        u64::MAX as f64,
        1e300,
        f64::INFINITY,
        -0.4,
        -2.5,
        f64::NAN,
    ] {
        assert_eq!(round_u64(x), x.round() as u64, "x = {x:e}");
    }
    assert_eq!(round_u64(0.49999999999999994), 0);
    assert_eq!(round_u64(p52 + 1.0), (1 << 52) + 1);
}

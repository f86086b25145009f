//! Tool configuration: every knob of §IV with the paper's defaults.

use units::{Rate, TimeNs};

/// Which trend statistics decide a stream's type.
///
/// Each statistic classifies a stream as increasing (above its `*_inc`
/// threshold), non-increasing (below its `*_dec` threshold), or ambiguous
/// (between). `Both` combines them the way the released pathload does:
/// agreement wins, a lone verdict beats an ambiguous one, conflicts are
/// ambiguous. Fig. 9 studies PDT-only detection; the ablation benches use
/// all three modes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrendMode {
    /// Combine PCT and PDT (tool default).
    Both,
    /// Use only the pairwise comparison test.
    PctOnly,
    /// Use only the pairwise difference test.
    PdtOnly,
}

/// How the session picks its initial rate bounds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum InitialRate {
    /// Send a packet train first; its dispersion rate (ADR ≥ avail-bw) padded
    /// by 25 % becomes the initial upper bound — pathload's documented
    /// initialization ("a better way to initialize R", §III footnote 3).
    Train {
        /// Number of packets in the train.
        len: u32,
        /// Packet size in bytes.
        size: u32,
    },
    /// Start from a fixed upper bound `R_max^0`.
    FixedMax(Rate),
}

/// Configuration of a SLoPS/pathload measurement session.
///
/// Defaults are the paper's (§IV–§V). Where the scanned paper text lost a
/// value, it is taken from the companion PAM'02 pathload paper; where the
/// paper's value would misbehave, from the released pathload tool ("tool
/// default" on the field; [`pct_dec`](Self::pct_dec) says why).
#[derive(Clone, Debug)]
pub struct SlopsConfig {
    /// Stream length K in packets (default 100).
    pub stream_len: u32,
    /// Fleet length N in streams (default 12).
    pub fleet_len: u32,
    /// Minimum packet period T the sender can pace reliably (default 100 µs).
    pub min_period: TimeNs,
    /// Minimum probe packet size L_min in bytes (default 200, to bound the
    /// relative weight of layer-2 headers, §IV).
    pub min_packet: u32,
    /// Path MTU in bytes (default 1500). Max measurable rate = MTU·8/T_min.
    pub mtu: u32,
    /// PCT increasing threshold: S_PCT above this is an increasing verdict
    /// (tool default 0.66, i.e. more than six of nine group-median pairs
    /// increasing when Γ = 10).
    pub pct_inc: f64,
    /// PCT non-increasing threshold: S_PCT below this is a non-increasing
    /// verdict; between the two the PCT is ambiguous (tool default 0.54).
    ///
    /// The ToN paper's prose quotes a single 0.55 threshold; with Γ = 10
    /// that would classify ≈ half of all trendless streams as increasing
    /// (5 of 9 pairs increase with probability ~0.5 for symmetric noise),
    /// so we implement the released tool's dual-threshold rule.
    pub pct_dec: f64,
    /// PDT increasing threshold (tool default 0.55).
    pub pdt_inc: f64,
    /// PDT non-increasing threshold (tool default 0.45).
    pub pdt_dec: f64,
    /// Which statistics decide stream type (default [`TrendMode::Both`]).
    pub trend_mode: TrendMode,
    /// Fleet fraction f: a fleet is "increasing" when ≥ f·N streams are
    /// type I, "non-increasing" when ≥ f·N are type N (default 0.7).
    pub fleet_fraction: f64,
    /// Avail-bw estimation resolution ω (default 1 Mb/s).
    pub resolution: Rate,
    /// Grey-region resolution χ (default 2 Mb/s; must be ≥ ω for the
    /// termination guarantees of §VI to hold).
    pub grey_resolution: Rate,
    /// Abort a fleet if one stream loses more than this fraction (default
    /// 0.10, "excessive losses").
    pub loss_abort_stream: f64,
    /// "Moderate loss" per-stream fraction (default 0.03).
    pub loss_moderate: f64,
    /// Abort the fleet if more than this fraction of its streams see
    /// moderate losses (default 0.5).
    pub moderate_fraction: f64,
    /// Cap on the session's average probing load as a fraction of the fleet
    /// rate: inter-stream idle ≥ (1/x − 1)·V (default 0.1 ⇒ idle ≥ 9 V).
    pub avg_load_factor: f64,
    /// Initial rate bounds (default: 48-packet, MTU-sized train).
    pub initial: InitialRate,
    /// Safety cap on the number of fleets per session (default 64).
    pub max_fleets: u32,
    /// Sender-spacing validation: allowed relative deviation of each
    /// realized inter-packet gap from the nominal period (default 0.3).
    /// Context switches at the sender produce multi-period gaps.
    pub spacing_tolerance: f64,
    /// A stream is unusable if more than this fraction of its gaps violate
    /// the tolerance (default 0.3).
    pub spacing_max_violations: f64,
}

impl Default for SlopsConfig {
    fn default() -> Self {
        SlopsConfig {
            stream_len: 100,
            fleet_len: 12,
            min_period: TimeNs::from_micros(100),
            min_packet: 200,
            mtu: units::MTU,
            pct_inc: 0.66,
            pct_dec: 0.54,
            pdt_inc: 0.55,
            pdt_dec: 0.45,
            trend_mode: TrendMode::Both,
            fleet_fraction: 0.7,
            resolution: Rate::from_mbps(1.0),
            grey_resolution: Rate::from_mbps(2.0),
            loss_abort_stream: 0.10,
            loss_moderate: 0.03,
            moderate_fraction: 0.5,
            avg_load_factor: 0.1,
            initial: InitialRate::Train {
                len: 48,
                size: units::MTU,
            },
            max_fleets: 64,
            spacing_tolerance: 0.3,
            spacing_max_violations: 0.3,
        }
    }
}

impl SlopsConfig {
    /// Maximum rate the tool can generate: MTU-sized packets at the minimum
    /// period (§IV: "the maximum avail-bw that it can measure").
    pub fn max_rate(&self) -> Rate {
        Rate::from_bps(self.mtu as f64 * 8.0 / self.min_period.secs_f64())
    }

    /// Validate the parameter ranges; returns a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.stream_len < 9 {
            return Err("stream_len must be at least 9 (need Γ ≥ 3 groups)".into());
        }
        if self.fleet_len == 0 {
            return Err("fleet_len must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.pct_inc) || !(0.0..=1.0).contains(&self.pct_dec) {
            return Err("PCT thresholds must be in [0, 1]".into());
        }
        if self.pct_dec > self.pct_inc {
            return Err("pct_dec must not exceed pct_inc".into());
        }
        if !(-1.0..=1.0).contains(&self.pdt_inc) || !(-1.0..=1.0).contains(&self.pdt_dec) {
            return Err("PDT thresholds must be in [-1, 1]".into());
        }
        if self.pdt_dec > self.pdt_inc {
            return Err("pdt_dec must not exceed pdt_inc".into());
        }
        if !(0.5..=1.0).contains(&self.fleet_fraction) {
            return Err("fleet_fraction must be in [0.5, 1]".into());
        }
        if self.min_packet > self.mtu {
            return Err("min_packet exceeds the MTU".into());
        }
        if self.min_period.is_zero() {
            return Err("min_period must be positive".into());
        }
        if self.resolution.bps() <= 0.0 || self.grey_resolution.bps() < self.resolution.bps() {
            return Err("need 0 < resolution ω ≤ grey_resolution χ".into());
        }
        if !(0.01..=1.0).contains(&self.avg_load_factor) {
            return Err("avg_load_factor must be in [0.01, 1]".into());
        }
        if !(self.spacing_tolerance.is_finite() && self.spacing_tolerance > 0.0) {
            return Err("spacing_tolerance must be finite and positive".into());
        }
        if !(0.0..=1.0).contains(&self.spacing_max_violations) {
            return Err("spacing_max_violations must be in [0, 1]".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid_and_match_paper() {
        let c = SlopsConfig::default();
        c.validate().unwrap();
        assert_eq!(c.stream_len, 100);
        assert_eq!(c.fleet_len, 12);
        assert_eq!(c.pct_inc, 0.66);
        assert_eq!(c.pct_dec, 0.54);
        assert_eq!(c.pdt_inc, 0.55);
        assert_eq!(c.pdt_dec, 0.45);
        assert_eq!(c.fleet_fraction, 0.7);
        // MTU/Tmin = 1500*8 / 100us = 120 Mb/s
        assert!((c.max_rate().mbps() - 120.0).abs() < 1e-9);
    }

    #[test]
    fn validation_rejects_bad_values() {
        let mut c = SlopsConfig::default();
        c.stream_len = 4;
        assert!(c.validate().is_err());

        let mut c = SlopsConfig::default();
        c.fleet_fraction = 0.3;
        assert!(c.validate().is_err());

        let mut c = SlopsConfig::default();
        c.min_packet = 9000;
        assert!(c.validate().is_err());

        let mut c = SlopsConfig::default();
        c.grey_resolution = Rate::from_kbps(100.0); // < ω
        assert!(c.validate().is_err());

        let mut c = SlopsConfig::default();
        c.pdt_inc = 2.0;
        assert!(c.validate().is_err());

        let mut c = SlopsConfig::default();
        c.pct_dec = 0.9; // above pct_inc
        assert!(c.validate().is_err());

        // check_spacing asserts a positive tolerance: refused up front.
        for tolerance in [0.0, -0.3, f64::NAN, f64::INFINITY] {
            let mut c = SlopsConfig::default();
            c.spacing_tolerance = tolerance;
            assert!(c.validate().is_err(), "spacing_tolerance {tolerance}");
        }
        for share in [-0.1, 1.5, f64::NAN] {
            let mut c = SlopsConfig::default();
            c.spacing_max_violations = share;
            assert!(c.validate().is_err(), "spacing_max_violations {share}");
        }
    }
}

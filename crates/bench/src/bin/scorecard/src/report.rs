//! From passes to the named metrics of `metrics.rs`, plus the checks every
//! run's output must pass before a number is believed.

use crate::adapter::Est;
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::stats::{self, ratio};
use crate::workloads::Pass;

/// FNV-1a over every (path, start, low, high), in the order the run
/// delivered them: two passes with equal fingerprints produced the same
/// estimates bit for bit.
pub fn fingerprint(ests: &[Est]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for e in ests {
        eat(e.path as u64);
        eat(e.started_ns);
        eat(e.low_bps.to_bits());
        eat(e.high_bps.to_bits());
    }
    h
}

/// Every estimate must be a range the tool could have produced:
/// `0 ≤ low ≤ high ≤ max_rate` with `high > 0`. (`low = 0` is a real
/// answer: on a heavily loaded path the rate search may never see a
/// non-increasing fleet, and the tool then reports "at most `high`".)
pub fn check_estimates(ests: &[Est], max_rate_bps: f64, problems: &mut Vec<String>) {
    let bad = |e: &&Est| {
        !(e.low_bps >= 0.0
            && e.low_bps <= e.high_bps
            && e.high_bps > 0.0
            && e.high_bps <= max_rate_bps)
    };
    let n_bad = ests.iter().filter(bad).count();
    if let Some(e) = ests.iter().find(bad) {
        problems.push(format!(
            "{n_bad} estimate(s) outside 0 <= low <= high <= {max_rate_bps} b/s, \
             first on path {}: [{}, {}]",
            e.path, e.low_bps, e.high_bps
        ));
    }
}

fn mid(e: &Est) -> f64 {
    (e.low_bps + e.high_bps) / 2.0
}

/// The end-to-end metrics of one untraced pass.
pub fn end_to_end(pass: &Pass, problems: &mut Vec<String>) -> Values {
    let mut v = Values::default();
    let ests = &pass.ests;
    let attempted = ests.len() as f64 + pass.failed as f64;
    if ests.is_empty() {
        problems.push("the run produced no estimate".into());
        return v;
    }
    let n = ests.len() as f64;
    let covered = ests
        .iter()
        .filter(|e| e.low_bps <= e.truth_bps && e.truth_bps <= e.high_bps)
        .count();
    let per_est = |f: &dyn Fn(&Est) -> f64| -> f64 {
        stats::trimmed_mean(&ests.iter().map(f).collect::<Vec<_>>()).expect("non-empty")
    };
    v.set("setup_s", stats::median(&pass.setup_s).unwrap_or(0.0));
    // A failed measurement covers nothing.
    v.set("coverage_share", covered as f64 / attempted);
    v.set(
        "mid_rel_err",
        per_est(&|e| (mid(e) - e.truth_bps).abs() / e.truth_bps),
    );
    v.set("range_rho", per_est(&|e| (e.high_bps - e.low_bps) / mid(e)));
    v.set(
        "estimate_latency_s",
        per_est(&|e| e.latency_ns as f64 / 1e9),
    );
    v.set("probe_pkts_per_estimate", pass.counts.probe_pkts as f64 / n);
    v.set("estimates_per_s", ratio(n, pass.run_wall_s));
    v.set("cpu_ms_per_estimate", pass.run_cpu_s * 1e3 / n);
    match crate::procfs::peak_rss_mb() {
        Some(mb) => v.set("peak_rss_mb", mb),
        None => problems.push("cannot read /proc/self/status: peak RSS is not measured".into()),
    }
    v
}

/// The per-layer metrics any pass supports: the estimator's own counts
/// and the run's bookkeeping. Workload-specific ones are already in
/// `pass.layer`.
pub fn common_layers(pass: &Pass, out: &mut Values) {
    let n = pass.ests.len() as f64;
    let sessions = pass.counts.sessions as f64;
    out.set("bench.estimates", n);
    out.set(
        "bench.failed_share",
        ratio(pass.failed as f64, n + pass.failed as f64),
    );
    let latencies: Vec<f64> = pass
        .ests
        .iter()
        .map(|e| e.latency_ns as f64 / 1e9)
        .collect();
    if let Some(s) = stats::summarize(&latencies) {
        out.set("bench.estimate_latency_median_s", s.median);
        out.set("bench.estimate_latency_tail_s", s.tail);
        out.set("bench.estimate_latency_tail_pct", s.tail_pct);
    }
    out.set(
        "slops.fleets_per_estimate",
        ratio(pass.counts.fleets as f64, sessions),
    );
    out.set(
        "slops.streams_per_estimate",
        ratio(pass.counts.streams as f64, sessions),
    );
    out.set(
        "slops.grey_share",
        ratio(pass.counts.grey_sessions as f64, sessions),
    );
    out.set(
        "slops.probe_bytes_per_estimate",
        ratio(pass.counts.probe_bytes as f64, sessions),
    );
    for (name, value) in pass.layer.iter() {
        out.set(name, value);
    }
}

/// Lay `values` out in catalog order for printing. End-to-end metrics
/// must all be present, finite and non-zero; a per-layer metric that was
/// not measured in this workload reads 0. A name outside the catalog is a
/// bug in the harness.
pub fn in_catalog_order(
    values: &Values,
    per_layer: bool,
    problems: &mut Vec<String>,
) -> Vec<(&'static str, &'static str, f64)> {
    let catalog: &[_] = if per_layer { &PER_LAYER } else { &END_TO_END };
    for (name, _) in values.iter() {
        if !catalog.iter().any(|d| d.name == name) {
            problems.push(format!("metric `{name}` is not in the catalog"));
        }
    }
    catalog
        .iter()
        .map(|d| {
            let value = values.get(d.name);
            match value {
                Some(x) if !x.is_finite() => {
                    problems.push(format!("metric `{}` is not finite", d.name));
                }
                Some(x) if !per_layer && x == 0.0 => {
                    problems.push(format!("end-to-end metric `{}` is 0", d.name));
                }
                None if !per_layer => {
                    problems.push(format!("end-to-end metric `{}` is missing", d.name));
                }
                _ => {}
            }
            (
                d.name,
                d.unit,
                value.filter(|x| x.is_finite()).unwrap_or(0.0),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est(low: f64, high: f64) -> Est {
        Est {
            path: 3,
            started_ns: 7,
            latency_ns: 9,
            low_bps: low,
            high_bps: high,
            truth_bps: 4e6,
        }
    }

    #[test]
    fn a_bad_estimate_fails_the_check() {
        let mut problems = Vec::new();
        check_estimates(
            &[est(3e6, 5e6), est(1e6, 120e6), est(0.0, 4e6)],
            120e6,
            &mut problems,
        );
        assert!(problems.is_empty(), "{problems:?}");
        for bad in [
            est(-1.0, 5e6),     // a negative rate
            est(0.0, 0.0),      // an empty answer
            est(6e6, 5e6),      // low above high
            est(3e6, 121e6),    // beyond what the tool can probe
            est(f64::NAN, 5e6), // not a number at all
        ] {
            let mut problems = Vec::new();
            check_estimates(&[est(3e6, 5e6), bad], 120e6, &mut problems);
            assert_eq!(problems.len(), 1, "{bad:?}");
            assert!(problems[0].contains("path 3"), "{problems:?}");
        }
    }

    #[test]
    fn fingerprint_sees_every_field_and_the_order() {
        let a = [est(3e6, 5e6), est(4e6, 6e6)];
        let base = fingerprint(&a);
        assert_eq!(base, fingerprint(&a.clone()));
        assert_ne!(base, fingerprint(&[a[1], a[0]]));
        let mut b = a;
        b[1].high_bps = 6e6 + 1.0;
        assert_ne!(base, fingerprint(&b));
        b = a;
        b[0].path = 4;
        assert_ne!(base, fingerprint(&b));
        b = a;
        b[0].started_ns = 8;
        assert_ne!(base, fingerprint(&b));
        // Latency and truth are not part of the identity of an estimate.
        b = a;
        b[0].latency_ns = 10;
        assert_eq!(base, fingerprint(&b));
    }

    #[test]
    fn catalog_order_flags_missing_zero_and_unknown_metrics() {
        let mut v = Values::default();
        for d in END_TO_END {
            v.set(d.name, 1.5);
        }
        let mut problems = Vec::new();
        let rows = in_catalog_order(&v, false, &mut problems);
        assert!(problems.is_empty(), "{problems:?}");
        assert_eq!(rows.len(), END_TO_END.len());
        assert_eq!(rows[0], ("setup_s", "s", 1.5));

        v.set("coverage_share", 0.0);
        v.set("made_up", 1.0);
        let mut problems = Vec::new();
        in_catalog_order(&v, false, &mut problems);
        assert_eq!(problems.len(), 2, "{problems:?}");

        // Per-layer: unmeasured reads 0 and is no problem.
        let mut problems = Vec::new();
        let rows = in_catalog_order(&Values::default(), true, &mut problems);
        assert!(problems.is_empty());
        assert!(rows.iter().all(|r| r.2 == 0.0));
        assert_eq!(rows.len(), PER_LAYER.len());
    }
}

//! Ablations beyond the paper: which design choices of
//! pathload actually matter?
//!
//! 1. **Trend detection mode** — PCT-only vs PDT-only vs the combined rule.
//! 2. **Median-of-groups robustness** — classify on raw OWDs (Γ = K) vs
//!    the √K group medians, with and without an outlier burst.
//! 3. **Fleet pacing** — the `idle ≥ 9·V` rule: how much does the probing
//!    footprint on the tight link change if the tool skips pacing?

use crate::figs::common::{emit, repeated_runs};
use crate::report::{section, Table};
use crate::RunOpts;
use simprobe::scenarios::{PaperPath, PaperPathConfig};
use slops::owd::group_medians;
use slops::{classify_medians, Session, SlopsConfig, StreamClass, TrendMode};

/// Run all ablations and return the report.
pub fn run(opts: &RunOpts) -> String {
    let mut out = section("Ablations: trend mode, median-of-groups, fleet pacing");
    out.push_str(&trend_mode_ablation(opts));
    out.push_str(&median_robustness_ablation());
    out.push_str(&pacing_ablation(opts));
    emit(out)
}

fn trend_mode_ablation(opts: &RunOpts) -> String {
    let mut tab = Table::new(&[
        "trend mode",
        "avg R_lo",
        "avg R_hi",
        "center",
        "|center-A|/A",
    ]);
    for (i, (label, mode)) in [
        ("both (tool)", TrendMode::Both),
        ("PCT only", TrendMode::PctOnly),
        ("PDT only", TrendMode::PdtOnly),
    ]
    .into_iter()
    .enumerate()
    {
        let path_cfg = PaperPathConfig::default(); // A = 4
        let mut scfg = SlopsConfig::default();
        scfg.trend_mode = mode;
        let res = repeated_runs(&path_cfg, &scfg, opts, 2000 + i);
        tab.row(&[
            label.to_string(),
            format!("{:.2}", res.avg_low()),
            format!("{:.2}", res.avg_high()),
            format!("{:.2}", res.center()),
            format!("{:.2}", (res.center() - 4.0).abs() / 4.0),
        ]);
    }
    format!(
        "\n-- trend detection mode (A = 4 Mb/s) --\n{}",
        tab.render()
    )
}

fn median_robustness_ablation() -> String {
    // A clean upward ramp with a burst of outliers in the middle
    // (receiver context switch): group medians must absorb it; raw-OWD
    // pairwise statistics must not.
    let cfg = SlopsConfig::default();
    let mut owds: Vec<i64> = (0..100).map(|i| i * 2_000).collect();
    for o in owds.iter_mut().skip(47).take(6) {
        *o += 3_000_000; // 3 ms spike burst
    }
    let medians = group_medians(&owds);
    let with_groups = classify_medians(&medians, &cfg);
    let raw: Vec<f64> = owds.iter().map(|&x| x as f64).collect();
    let without_groups = classify_medians(&raw, &cfg);
    let mut tab = Table::new(&["preprocessing", "verdict on ramp + 3ms outlier burst"]);
    tab.row(&["sqrt(K) group medians".into(), format!("{with_groups:?}")]);
    tab.row(&[
        "raw OWDs (no grouping)".into(),
        format!("{without_groups:?}"),
    ]);
    let note = if with_groups == StreamClass::Increasing
        && without_groups != StreamClass::Increasing
    {
        "group medians preserve the trend through the outlier burst; raw pairwise stats lose it\n"
    } else {
        "see verdicts above\n"
    };
    format!(
        "\n-- median-of-groups robustness --\n{}{}",
        tab.render(),
        note
    )
}

fn pacing_ablation(opts: &RunOpts) -> String {
    // Measure the probing footprint on the tight link with the paper's
    // pacing (avg load <= 10% of R) vs an unpaced tool (idle = RTT only).
    let mut tab = Table::new(&[
        "pacing",
        "avg probe load",
        "measurement time",
        "range (Mb/s)",
    ]);
    let mut footprints = Vec::new();
    for (i, (label, factor)) in [
        ("idle >= 9V (paper)", 0.1f64),
        ("no pacing (idle = RTT)", 0.999),
    ]
    .into_iter()
    .enumerate()
    {
        let path_cfg = PaperPathConfig::default();
        let mut scfg = SlopsConfig::default();
        scfg.avg_load_factor = factor;
        let mut t = PaperPath::build(&path_cfg, opts.run_seed(2100, i)).into_transport();
        let tight = t.chain().forward[2];
        let bytes_before = t.sim().link(tight).stats.tx_bytes;
        let elapsed_before = t.sim().now();
        let est = Session::new(scfg).run(&mut t).expect("session");
        let dur = t.sim().now() - elapsed_before;
        // Total bytes include cross traffic; subtract the cross-traffic
        // expectation (6 Mb/s) to approximate the probe footprint.
        let total = (t.sim().link(tight).stats.tx_bytes - bytes_before) as f64;
        let cross = 6e6 / 8.0 * dur.secs_f64();
        footprints.push(((total - cross).max(0.0), dur, est));
        let (fp, dur, est) = footprints.last().unwrap();
        let load = units::Rate::from_transfer(*fp as u64, *dur);
        tab.row(&[
            label.to_string(),
            format!("{load}"),
            format!("{dur}"),
            format!("[{:.2}, {:.2}]", est.low.mbps(), est.high.mbps()),
        ]);
    }
    format!(
        "\n-- fleet pacing (probe footprint on the tight link) --\n{}",
        tab.render()
    )
}

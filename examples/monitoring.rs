//! Continuous avail-bw monitoring and SLA checking — the §I applications
//! (SLA verification, server selection) driven by repeated pathload runs,
//! here one path under the `monitord` fleet scheduler.
//!
//! ```text
//! cargo run --release --example monitoring
//! ```

use availbw::monitord::{
    run_fleet_with_telemetry, ScheduleConfig, SeriesConfig, ShutdownFlag, ThreadPathSpec,
};
use availbw::simprobe::scenarios::{PaperPath, PaperPathConfig};
use availbw::slops::SlopsConfig;
use availbw::units::{Rate, TimeNs};

fn main() {
    // A path whose tight link is 10 Mb/s at 60% load: A = 4 Mb/s.
    let cfg = PaperPathConfig::default();
    let path = ThreadPathSpec {
        label: "paper".into(),
        cfg: SlopsConfig::default(),
        transport: Box::new(PaperPath::build(&cfg, 2024).into_transport()),
    };

    // Monitor for 5 simulated minutes, one measurement starting every
    // 22 s (a measurement takes ~20 s here; an overrun pushes the next
    // start back rather than overlapping).
    let deadline = TimeNs::from_secs(300);
    let sched = ScheduleConfig {
        period: TimeNs::from_secs(22),
        jitter: TimeNs::ZERO,
        max_concurrent: 1,
        seed: 0,
    };
    let series = run_fleet_with_telemetry(
        vec![path],
        &sched,
        &SeriesConfig::default(),
        deadline,
        1,
        &ShutdownFlag::new(),
        None,
        |_| {},
    )
    .expect("the default SlopsConfig is valid");
    let series = &series[0];
    if series.errors() > 0 {
        eprintln!("{} measurement(s) failed", series.errors());
    }
    println!("collected {} measurements over {}:", series.len(), deadline);
    for s in series.samples() {
        println!(
            "  t={:>8}  [{:5.2}, {:5.2}] Mb/s  ({})",
            s.started,
            s.low.mbps(),
            s.high.mbps(),
            s.duration,
        );
    }
    let avg = series.window_average(TimeNs::ZERO, deadline);
    let (lo, hi) = series.envelope().expect("non-empty series");
    println!("\nwindow average (eq. 11): {avg}   envelope: [{lo}, {hi}]");
    for floor in [2.0, 4.0, 6.0] {
        // The share of samples whose range midpoint met the floor.
        let met = series
            .samples()
            .filter(|s| s.midpoint().bps() >= Rate::from_mbps(floor).bps())
            .count();
        println!(
            "SLA 'avail-bw >= {floor} Mb/s' compliance: {:.0}%",
            met as f64 / series.len() as f64 * 100.0
        );
    }
}

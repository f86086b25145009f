//! Figure 10: verification against MRTG. Twelve independent runs on the
//! 155 Mb/s-tight / 100 Mb/s-narrow path; in each run pathload is executed
//! consecutively for one monitor window and its duration-weighted average
//! (eq. 11) is compared against the MRTG reading of the tight link
//! (quantized to 6 Mb/s bands, like reading the paper's graphs).

use crate::figs::common::emit;
use crate::report::{section, Table};
use crate::RunOpts;
use simprobe::scenarios::verification_path_with_window;
use slops::{weighted_average, ProbeTransport, Session, SlopsConfig};
use units::{Rate, TimeNs};

/// Run the experiment and return the report.
pub fn run(opts: &RunOpts) -> String {
    let window = opts.phase; // 5 min full, shorter in quick mode
    let mut out = section(&format!(
        "Figure 10: pathload vs MRTG, 12 runs ({}-windows, 6 Mb/s reading bands)",
        window
    ));
    let mut tab = Table::new(&[
        "run",
        "u_t",
        "MRTG band (Mb/s)",
        "pathload wavg",
        "inside band?",
        "probe-corrected band",
        "inside?",
    ]);
    let mut inside = 0;
    let mut inside_corrected = 0;
    let runs = 12;
    for run in 0..runs {
        // Different load per run, sweeping the utilization range the paper
        // observed on this path.
        let u = 0.35 + 0.40 * (run as f64 / (runs - 1) as f64);
        let seed = opts.run_seed(500, run);
        let (mut t, tight) = verification_path_with_window(u, seed, window);
        // Consume warm-up so the MRTG window we compare against is the one
        // the measurement runs in.
        let window_start = t.elapsed();
        let widx = (window_start.as_nanos() / window.as_nanos() + 1) as usize;
        let wstart = TimeNs::from_nanos(widx as u64 * window.as_nanos());
        t.idle(wstart - window_start);

        // Run pathload consecutively until the window ends. The MRTG
        // counter sees pathload's own probe bytes too; at the default 10%
        // duty cycle that is a ~6 Mb/s footprint when probing near
        // 70 Mb/s — larger than the 6 Mb/s reading band itself. Cap the
        // average probing load at 2% for this experiment so the footprint
        // stays within the band (~1.4 Mb/s near 70 Mb/s).
        let mut scfg = SlopsConfig::default();
        scfg.avg_load_factor = 0.02;
        let session = Session::new(scfg);
        let mut runs_in_window: Vec<(TimeNs, Rate, Rate)> = Vec::new();
        let wend = wstart + window;
        while t.elapsed() < wend {
            let before = t.elapsed();
            match session.run(&mut t) {
                Ok(est) => {
                    let dur = t.elapsed() - before;
                    runs_in_window.push((dur, est.low, est.high));
                }
                Err(e) => {
                    eprintln!("run {run}: {e}");
                    break;
                }
            }
        }
        // Let the monitor finish the window, then read it.
        if t.elapsed() < wend {
            t.idle(wend - t.elapsed());
        }
        t.idle(TimeNs::from_millis(1));
        let wavg = weighted_average(&runs_in_window);
        // At light backbone load the narrow 100 Mb/s egress, not the OC-3,
        // is the tight link (the paper's own point about this path): read
        // the MRTG graph of whichever link actually has less avail-bw.
        let narrow = t.chain().forward[2];
        let reading_of = |id| {
            let l = t.sim().link(id);
            l.monitor()
                .mrtg_reading(widx, l.capacity(), Rate::from_mbps(6.0))
        };
        let (tlo, thi) = reading_of(tight);
        let (nlo, nhi) = reading_of(narrow);
        let (lo, hi) = if tlo.bps() + thi.bps() <= nlo.bps() + nhi.bps() {
            (tlo, thi)
        } else {
            (nlo, nhi)
        };
        let ok = lo.bps() <= wavg.bps() && wavg.bps() <= hi.bps();
        inside += usize::from(ok);
        // MRTG counts pathload's own probe bytes as utilization; the
        // corrected band discounts that known footprint. The transport is
        // fresh per run and only probes inside this window, so the total
        // is exactly the window's footprint.
        let footprint = Rate::from_transfer(t.probe_bytes_sent(), window);
        let (clo, chi) = (footprint + lo, footprint + hi);
        let cok = clo.bps() <= wavg.bps() && wavg.bps() <= chi.bps();
        inside_corrected += usize::from(cok);
        tab.row(&[
            format!("{}", run + 1),
            format!("{:.0}%", u * 100.0),
            format!("[{:.0}, {:.0}]", lo.mbps(), hi.mbps()),
            format!("{:.1}", wavg.mbps()),
            if ok { "yes" } else { "no" }.to_string(),
            format!("[{:.0}, {:.0}]", clo.mbps(), chi.mbps()),
            if cok { "yes" } else { "no" }.to_string(),
        ]);
    }
    out.push_str(&tab.render());
    out.push_str(&format!(
        "\n{inside}/{runs} runs inside the raw MRTG band; {inside_corrected}/{runs} inside the\n\
         probe-corrected band (MRTG counts pathload's own bytes as load).\n\
         paper shape: 10/12 inside, the misses marginal. (Note: the tight link\n\
         is NOT the narrow link on this path — 155 vs 100 Mb/s.)\n"
    ));
    emit(out)
}

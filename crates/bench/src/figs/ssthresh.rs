//! Extension: the §I application of avail-bw estimation — tuning TCP's
//! initial ssthresh (Allman & Paxson 1999, discussed in §II). A pathload
//! estimate sets ssthresh to the estimated bandwidth-delay product; the
//! connection then exits slow start at the right size instead of
//! overshooting the bottleneck queue, avoiding the early multiplicative
//! loss cut on short transfers.

use crate::figs::common::emit;
use crate::report::{section, Table};
use crate::RunOpts;
use netsim::app::CountingSink;
use netsim::{Chain, ChainConfig, LinkConfig, Simulator};
use simprobe::SimTransport;
use slops::{Session, SlopsConfig};
use tcpsim::{TcpConnection, TcpSenderConfig};
use traffic::{attach_sources, SourceConfig};
use units::stats::mean;
use units::{Rate, TimeNs};

/// Transfer sizes for the comparison (short transfers feel slow start the
/// most).
const SIZES: [u64; 3] = [100_000, 500_000, 2_000_000];

fn build_path(seed: u64) -> (Simulator, Chain) {
    let mut sim = Simulator::new(seed);
    // 20 Mb/s tight link, 40 ms prop (BDP ~ 200 kB), small-ish buffer so
    // slow-start overshoot actually hurts.
    let chain = Chain::build(
        &mut sim,
        &ChainConfig::symmetric(vec![
            LinkConfig::new(Rate::from_mbps(100.0), TimeNs::from_millis(5)),
            LinkConfig::new(Rate::from_mbps(20.0), TimeNs::from_millis(40))
                .with_queue_limit(100 * 1024),
            LinkConfig::new(Rate::from_mbps(100.0), TimeNs::from_millis(5)),
        ]),
    );
    let sink = sim.add_app(Box::new(CountingSink::default()));
    let route = chain.hop_route(&sim, 1, sink);
    attach_sources(
        &mut sim,
        route,
        Rate::from_mbps(8.0),
        10,
        &SourceConfig::paper_pareto(),
    );
    sim.run_until(TimeNs::from_secs(2));
    (sim, chain)
}

/// Completion time of one transfer with the given initial ssthresh.
fn transfer_time(seed: u64, size: u64, ssthresh: Option<u64>) -> f64 {
    let (mut sim, chain) = build_path(seed);
    let mut cfg = TcpSenderConfig::greedy(1);
    cfg.limit = Some(size);
    cfg.initial_ssthresh = ssthresh;
    let start = sim.now();
    let conn = TcpConnection::start_at(&mut sim, &chain, cfg, start);
    // Step until delivered.
    let deadline = start + TimeNs::from_secs(120);
    while conn.delivered(&sim) < size && sim.now() < deadline {
        let t = sim.now() + TimeNs::from_millis(50);
        sim.run_until(t);
    }
    (sim.now() - start).secs_f64()
}

/// Run the experiment and return the report.
pub fn run(opts: &RunOpts) -> String {
    let mut out =
        section("Extension: ssthresh from an avail-bw estimate (Allman & Paxson, paper SSI/SSII)");
    // First, measure the path once with pathload.
    let (sim, chain) = build_path(opts.seed ^ 0x55);
    let mut transport = SimTransport::new(sim, chain);
    let est = Session::new(SlopsConfig::default())
        .run(&mut transport)
        .expect("measurement");
    let a = est.midpoint();
    // BDP at the measured avail-bw and the path's base RTT (~100 ms).
    let rtt = 0.1;
    let bdp = (a.bps() * rtt / 8.0) as u64;
    out.push_str(&format!(
        "pathload estimate: [{:.2}, {:.2}] Mb/s; ssthresh := midpoint * RTT = {} kB\n\n",
        est.low.mbps(),
        est.high.mbps(),
        bdp / 1024
    ));

    let mut tab = Table::new(&[
        "transfer",
        "default ssthresh (s)",
        "tuned ssthresh (s)",
        "speedup",
    ]);
    let runs = opts.runs.clamp(3, 8);
    for (si, size) in SIZES.iter().enumerate() {
        let mut default_times = Vec::new();
        let mut tuned_times = Vec::new();
        for run in 0..runs {
            let seed = opts.run_seed(4000 + si, run);
            default_times.push(transfer_time(seed, *size, None));
            tuned_times.push(transfer_time(seed, *size, Some(bdp)));
        }
        let (d, t) = (mean(&default_times), mean(&tuned_times));
        tab.row(&[
            format!("{} kB", size / 1000),
            format!("{d:.2}"),
            format!("{t:.2}"),
            format!("{:.2}x", d / t.max(1e-9)),
        ]);
    }
    out.push_str(&tab.render());
    out.push_str(
        "\nexpected shape: short transfers complete faster (or no slower) with\n\
         ssthresh set from the avail-bw estimate, because slow start hands\n\
         off before overflowing the bottleneck queue.\n",
    );
    emit(out)
}

//! The §VII/§VIII experiment world: an 8.2 Mb/s tight link carrying a mix
//! of reactive TCP transfers and UDP cross traffic, a pinger, and hooks
//! for either a greedy BTC connection (Figs. 15–16) or pathload
//! (Figs. 17–18).
//!
//! Background TCP flows arrive by a Poisson process with Pareto-distributed
//! sizes (mice and elephants), pre-scheduled for the whole experiment so
//! the load process is independent of what the foreground tool does —
//! the flows themselves, of course, *react* to it, which is exactly the
//! effect the paper measures.

use netsim::app::CountingSink;
use netsim::{
    AppId, Chain, ChainConfig, EchoReflector, FlowId, LinkConfig, LinkId, Pinger, PingerConfig,
    Simulator,
};
use simprobe::SimTransport;
use tcpsim::{TcpConnection, TcpSenderConfig};
use traffic::{attach_sources, SourceConfig};
use units::{Rate, TimeNs};

/// Tight-link capacity of the experiment (paper: 8.2 Mb/s).
pub const TIGHT_CAPACITY_MBPS: f64 = 8.2;

/// The built world.
pub struct BtcWorld {
    /// The simulator.
    pub sim: Simulator,
    /// The probe/traffic path.
    pub chain: Chain,
    /// The tight link (for MRTG monitoring).
    pub tight: LinkId,
    /// The RTT prober.
    pub pinger: AppId,
    /// The background TCP connections, in arrival order.
    pub background: Vec<TcpConnection>,
}

/// Build the world. `ping_period` is 1 s for Fig. 16 and 100 ms for
/// Fig. 18; `monitor_window` should equal the experiment's phase length so
/// each phase is one MRTG reading.
pub fn build_btc_world(
    seed: u64,
    total: TimeNs,
    ping_period: TimeNs,
    monitor_window: TimeNs,
) -> BtcWorld {
    let mut sim = Simulator::new(seed);
    let mk = |mbps: f64, delay_ms: u64, queue: u64| {
        LinkConfig::new(Rate::from_mbps(mbps), TimeNs::from_millis(delay_ms))
            .with_queue_limit(queue)
            .with_monitor_window(monitor_window)
    };
    // Access and egress are fast and lightly buffered-enough; the tight
    // link gets the paper's ~180 kB drop-tail buffer (the RTT inflation in
    // Fig. 16 implies ~170 kB of queueing at 8.2 Mb/s).
    let chain = Chain::build(
        &mut sim,
        &ChainConfig::symmetric(vec![
            mk(100.0, 5, 1024 * 1024),
            mk(TIGHT_CAPACITY_MBPS, 20, 180 * 1024),
            mk(100.0, 5, 1024 * 1024),
        ]),
    );
    let tight = chain.forward[1];

    // UDP cross traffic: 1.5 Mb/s of Pareto renewal traffic on the tight
    // hop only (unreactive component of the load).
    let cross_sink = sim.add_app(Box::new(CountingSink::default()));
    let tight_route = chain.hop_route(&sim, 1, cross_sink);
    attach_sources(
        &mut sim,
        tight_route,
        Rate::from_mbps(1.5),
        6,
        &SourceConfig::paper_pareto(),
    );

    // Background TCP, two populations — finite transfers alone catch up
    // once a greedy connection leaves, so what it takes for good (§VII)
    // shows in the window-limited ones:
    //
    // (a) A queue of finite transfers (Poisson arrivals, Pareto sizes,
    //     ~3 Mb/s offered): elastic but work-conserving — they slow down
    //     under pressure and catch up later.
    // (b) A few persistent *window-limited* flows (~1.4 Mb/s aggregate):
    //     their throughput is rwnd/RTT, so when a greedy connection fills
    //     the tight-link buffer and inflates RTT, their demand drops —
    //     this is the bandwidth a BTC connection permanently steals
    //     (paper §VII: "the increased RTTs and losses reduce the
    //     throughput of other TCP flows").
    //
    // Together with 1.5 Mb/s of UDP the tight link idles near 25%,
    // leaving ~2 Mb/s available — the regime of the paper's Fig. 15.
    let offered = Rate::from_mbps(3.3);
    let mean_size_bytes = 120_000.0;
    let lambda = offered.bps() / (mean_size_bytes * 8.0); // flows per second
    let mut rng = sim.rng();
    let mut t = 0.0f64;
    let mut background = Vec::new();
    let mut conn_id = 1000u32;
    loop {
        t += rng.exponential(1.0 / lambda);
        let start = TimeNs::from_secs_f64(t);
        if start >= total {
            break;
        }
        let size = rng
            .pareto_mean(1.5, mean_size_bytes)
            .clamp(5_000.0, 600_000.0) as u64;
        let mut cfg = TcpSenderConfig::greedy(conn_id);
        cfg.limit = Some(size);
        conn_id += 1;
        background.push(TcpConnection::start_at(&mut sim, &chain, cfg, start));
    }
    for k in 0..4 {
        let mut cfg = TcpSenderConfig::greedy(100 + k);
        cfg.rwnd = Some(2 * tcpsim::MSS as u64); // ~0.35 Mb/s at the base RTT
        background.push(TcpConnection::start_at(
            &mut sim,
            &chain,
            cfg,
            TimeNs::from_millis(200 * k as u64),
        ));
    }

    // RTT prober: echo reflector at the far end, pinger at the near end.
    let pinger = sim.add_app(Box::new(Pinger::new(
        PingerConfig {
            period: ping_period,
            size: 64,
            stop_at: total,
            flow: FlowId(0x5049_0000),
        },
        // Placeholder; patched below once the reflector exists.
        sim.route(&[], AppId(0)),
    )));
    let reflector_route = chain.reverse_route(&sim, pinger);
    let reflector = sim.add_app(Box::new(EchoReflector::new(
        reflector_route,
        64,
        FlowId(0x5049_0001),
    )));
    let fwd = chain.forward_route(&sim, reflector);
    sim.app_mut::<Pinger>(pinger).set_route(fwd);
    sim.schedule_timer(pinger, TimeNs::ZERO, 0);

    BtcWorld {
        sim,
        chain,
        tight,
        pinger,
        background,
    }
}

impl BtcWorld {
    /// Wrap the world into a probe transport (consumes it; the pinger and
    /// background traffic keep running inside).
    pub fn into_transport(self) -> (SimTransport, LinkId, AppId) {
        let t = SimTransport::new(self.sim, self.chain);
        (t, self.tight, self.pinger)
    }

    /// MRTG avail-bw reading of the tight link for the monitor window
    /// starting at `window_start`.
    pub fn avail_in_window(&self, window_start: TimeNs) -> Rate {
        let link = self.sim.link(self.tight);
        let idx = (window_start.as_nanos() / link.monitor().window().as_nanos()) as usize;
        link.monitor().avail_bw_in_window(idx, link.capacity())
    }
}

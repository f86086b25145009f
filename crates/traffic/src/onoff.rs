//! Pareto ON/OFF sources.
//!
//! Aggregating many Pareto ON/OFF sources yields long-range-dependent
//! (self-similar-like) traffic (Willinger et al.). The statistical-
//! multiplexing experiment (§VI-B, Fig. 12) models paths whose tight links
//! carry different numbers of simultaneous flows: more sources at the same
//! total utilization produce a smoother aggregate, hence less variable
//! avail-bw.

use crate::source::place;
use netsim::{ArrivalProcess, FlowId, Prng, RouteSpec, Simulator};
use std::sync::Arc;
use units::{Rate, TimeNs};

/// Configuration of one Pareto ON/OFF source.
#[derive(Clone, Debug)]
pub struct OnOffConfig {
    /// Mean ON-period duration (seconds).
    pub mean_on_secs: f64,
    /// Mean OFF-period duration (seconds).
    pub mean_off_secs: f64,
    /// Pareto shape for both period distributions (1 < α < 2 for LRD).
    pub alpha: f64,
    /// Transmission rate while ON (packets evenly spaced).
    pub peak_rate: Rate,
    /// Packet size while ON.
    pub packet_size: u32,
}

impl OnOffConfig {
    /// Long-run average rate: `peak * on / (on + off)`.
    pub fn avg_rate(&self) -> Rate {
        self.peak_rate * (self.mean_on_secs / (self.mean_on_secs + self.mean_off_secs))
    }

    /// A source with the given average rate using a 1:3 ON:OFF duty cycle,
    /// 500 ms mean ON period, α = 1.5, 1000-byte packets — a burst profile
    /// that produces visibly bursty aggregates at low multiplexing.
    pub fn with_avg_rate(avg: Rate) -> OnOffConfig {
        let mean_on_secs = 0.5;
        let mean_off_secs = 1.5;
        let duty = mean_on_secs / (mean_on_secs + mean_off_secs);
        OnOffConfig {
            mean_on_secs,
            mean_off_secs,
            alpha: 1.5,
            peak_rate: avg / duty,
            packet_size: 1000,
        }
    }
}

/// What an on/off source's next firing is.
#[derive(Clone, Copy, Debug)]
enum Next {
    /// An ON period begins: draw its length.
    StartOn,
    /// A packet is due, if the ON period has not run out by then.
    Packet,
}

/// The draws of one Pareto ON/OFF source, as an arrival process: a firing
/// either starts an ON period (sends nothing, fires again at once), sends
/// a packet (fires again one packet time later), or — the ON period over —
/// sends nothing and sleeps through a drawn OFF period.
#[derive(Debug)]
pub struct OnOffArrivals {
    packet_size: u32,
    packet_gap: TimeNs,
    /// Pareto scales of the ON and OFF period lengths and `1 / alpha`,
    /// worked out once ([`Prng::pareto`]).
    on_xm: f64,
    off_xm: f64,
    inv_alpha: f64,
    rng: Prng,
    on_until: TimeNs,
    next: Next,
}

impl OnOffArrivals {
    /// A source that starts an ON period at its first firing.
    pub fn new(cfg: &OnOffConfig, rng: Prng) -> OnOffArrivals {
        assert!(cfg.peak_rate.bps() > 0.0 && cfg.alpha > 1.0);
        OnOffArrivals {
            packet_size: cfg.packet_size,
            packet_gap: cfg.peak_rate.tx_time(cfg.packet_size),
            on_xm: Prng::pareto_scale(cfg.alpha, cfg.mean_on_secs),
            off_xm: Prng::pareto_scale(cfg.alpha, cfg.mean_off_secs),
            inv_alpha: 1.0 / cfg.alpha,
            rng,
            on_until: TimeNs::ZERO,
            next: Next::StartOn,
        }
    }
}

impl ArrivalProcess for OnOffArrivals {
    fn fire(&mut self, at: TimeNs) -> (Option<u32>, TimeNs) {
        match self.next {
            Next::StartOn => {
                let on = self.rng.pareto(self.on_xm, self.inv_alpha);
                self.on_until = at + TimeNs::from_secs_f64(on);
                self.next = Next::Packet;
                (None, at)
            }
            Next::Packet if at < self.on_until => (Some(self.packet_size), at + self.packet_gap),
            Next::Packet => {
                let off = self.rng.pareto(self.off_xm, self.inv_alpha);
                self.next = Next::StartOn;
                (None, at + TimeNs::from_secs_f64(off))
            }
        }
    }
}

/// Attach `n` ON/OFF sources with the given aggregate average rate.
/// Start times are staggered uniformly over one mean ON+OFF cycle.
pub fn attach_onoff_sources(sim: &mut Simulator, route: Arc<RouteSpec>, aggregate: Rate, n: usize) {
    assert!(n > 0);
    let per_source = aggregate / n as f64;
    let cfg = OnOffConfig::with_avg_rate(per_source);
    let cycle = TimeNs::from_secs_f64(cfg.mean_on_secs + cfg.mean_off_secs);
    for i in 0..n {
        let mut rng = sim.rng();
        let start = TimeNs::from_nanos(rng.below(cycle.as_nanos().max(1)));
        let arrivals = OnOffArrivals::new(&cfg, rng);
        let first_at = sim.now() + start;
        let flow = FlowId(0x4F4E_0000 + i as u32);
        place(sim, Box::new(arrivals), &route, flow, first_at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::app::CountingSink;
    use netsim::LinkConfig;

    #[test]
    fn avg_rate_formula() {
        let cfg = OnOffConfig::with_avg_rate(Rate::from_mbps(2.0));
        assert!((cfg.avg_rate().mbps() - 2.0).abs() < 1e-9);
        assert!((cfg.peak_rate.mbps() - 8.0).abs() < 1e-9); // 25% duty cycle
    }

    fn run_onoff(n: usize, secs: u64, seed: u64) -> f64 {
        let mut sim = Simulator::new(seed);
        let link = sim.add_link(LinkConfig::new(
            Rate::from_mbps(100.0),
            TimeNs::from_millis(1),
        ));
        let sink = sim.add_app(Box::new(CountingSink::default()));
        let route = sim.route(&[link], sink);
        attach_onoff_sources(&mut sim, route, Rate::from_mbps(6.0), n);
        sim.run_until(TimeNs::from_secs(secs));
        sim.link(link).stats.utilization(TimeNs::from_secs(secs)) * 100.0
    }

    #[test]
    fn aggregate_hits_target_rate() {
        let got = run_onoff(20, 120, 5);
        assert!((got - 6.0).abs() < 0.9, "got {got} Mb/s, want ~6");
    }

    #[test]
    fn fewer_sources_make_burstier_aggregate() {
        // Compare the variance of per-100ms delivered bytes for 2 vs 50
        // sources at the same aggregate rate.
        let variance = |n: usize| {
            let mut sim = Simulator::new(77);
            let link = sim.add_link(
                LinkConfig::new(Rate::from_mbps(100.0), TimeNs::from_millis(1))
                    .with_monitor_window(TimeNs::from_millis(100)),
            );
            let sink = sim.add_app(Box::new(CountingSink::default()));
            let route = sim.route(&[link], sink);
            attach_onoff_sources(&mut sim, route, Rate::from_mbps(6.0), n);
            sim.run_until(TimeNs::from_secs(60));
            let mon = sim.link(link).monitor();
            let xs: Vec<f64> = (0..mon.num_windows())
                .map(|i| mon.bytes_in_window(i) as f64)
                .collect();
            let m = units::mean(&xs);
            xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
        };
        let v_few = variance(2);
        let v_many = variance(50);
        assert!(
            v_few > 3.0 * v_many,
            "expected burstier with 2 sources: {v_few} vs {v_many}"
        );
    }
}

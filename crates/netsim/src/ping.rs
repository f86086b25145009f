//! A `ping`-like round-trip-time prober.
//!
//! The paper uses 1-second (Fig. 16) and 100-millisecond (Fig. 18) ping
//! series to show that a greedy TCP connection inflates path RTT while
//! pathload does not. [`Pinger`] sends periodic echo requests along a
//! forward route to an [`EchoReflector`], which bounces them back along a
//! reverse route; RTT samples and losses are recorded.

use crate::app::{App, Ctx};
use crate::packet::{FlowId, Packet, Payload, RouteSpec};
use std::sync::Arc;
use units::{Summary, TimeNs};

/// Reflects echo requests back along a configured reverse route.
pub struct EchoReflector {
    reply_route: Arc<RouteSpec>,
    reply_size: u32,
    flow: FlowId,
}

impl EchoReflector {
    /// Create a reflector replying along `reply_route` with `reply_size`
    /// byte packets of flow `flow`.
    pub fn new(reply_route: Arc<RouteSpec>, reply_size: u32, flow: FlowId) -> EchoReflector {
        EchoReflector {
            reply_route,
            reply_size,
            flow,
        }
    }
}

impl App for EchoReflector {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        if let Payload::Ping {
            reply: false,
            seq,
            sent_at,
        } = pkt.payload
        {
            let reply = Packet::with_payload(
                self.reply_size,
                self.flow,
                seq,
                self.reply_route.clone(),
                Payload::Ping {
                    reply: true,
                    seq,
                    sent_at,
                },
            );
            ctx.send(reply);
        }
    }
}

/// Configuration of a [`Pinger`].
#[derive(Clone, Debug)]
pub struct PingerConfig {
    /// Probe period (1 s in Fig. 16, 100 ms in Fig. 18).
    pub period: TimeNs,
    /// Echo-request size in bytes (64 B like classic ping).
    pub size: u32,
    /// Stop sending at this absolute time.
    pub stop_at: TimeNs,
    /// Flow id for the request direction.
    pub flow: FlowId,
}

impl Default for PingerConfig {
    fn default() -> Self {
        PingerConfig {
            period: TimeNs::from_secs(1),
            size: 64,
            stop_at: TimeNs::MAX,
            flow: FlowId(u32::MAX),
        }
    }
}

/// One RTT sample.
#[derive(Clone, Copy, Debug)]
pub struct PingSample {
    /// When the echo request was sent.
    pub sent_at: TimeNs,
    /// Round-trip time, or `None` if no reply arrived (loss).
    pub rtt: Option<TimeNs>,
}

/// Periodic RTT prober.
pub struct Pinger {
    cfg: PingerConfig,
    route: Arc<RouteSpec>,
    /// One entry per request sent, indexed by sequence number.
    pub samples: Vec<PingSample>,
}

impl Pinger {
    /// Create a pinger probing along `route` (must end at an
    /// [`EchoReflector`]). Kick it off with
    /// `sim.schedule_timer(pinger_id, start, 0)`.
    pub fn new(cfg: PingerConfig, route: Arc<RouteSpec>) -> Pinger {
        Pinger {
            cfg,
            route,
            samples: Vec::new(),
        }
    }

    /// Replace the probe route (useful when the reflector must be created
    /// after the pinger, so the final route is only known later).
    pub fn set_route(&mut self, route: Arc<RouteSpec>) {
        self.route = route;
    }

    /// Number of requests with no reply (so far).
    pub fn losses(&self) -> usize {
        self.samples.iter().filter(|s| s.rtt.is_none()).count()
    }

    /// Summary statistics of observed RTTs between `from` and `to`.
    pub fn stats_between(&self, from: TimeNs, to: TimeNs) -> PingStats {
        let rtts: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.sent_at >= from && s.sent_at < to)
            .filter_map(|s| s.rtt.map(|r| r.millis_f64()))
            .collect();
        let lost = self
            .samples
            .iter()
            .filter(|s| s.sent_at >= from && s.sent_at < to && s.rtt.is_none())
            .count();
        PingStats {
            rtt_ms: Summary::of(&rtts),
            lost,
        }
    }
}

/// Summary of a ping series over an interval.
#[derive(Debug, Clone, Copy)]
pub struct PingStats {
    /// RTT summary in milliseconds.
    pub rtt_ms: Summary,
    /// Requests that never got a reply in the interval.
    pub lost: usize,
}

impl App for Pinger {
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        let now = ctx.now();
        if now > self.cfg.stop_at {
            return;
        }
        let seq = self.samples.len() as u64;
        self.samples.push(PingSample {
            sent_at: now,
            rtt: None,
        });
        let pkt = Packet::with_payload(
            self.cfg.size,
            self.cfg.flow,
            seq,
            self.route.clone(),
            Payload::Ping {
                reply: false,
                seq,
                sent_at: now,
            },
        );
        ctx.send(pkt);
        ctx.timer_in(self.cfg.period, 0);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        if let Payload::Ping {
            reply: true,
            seq,
            sent_at,
        } = pkt.payload
        {
            if let Some(sample) = self.samples.get_mut(seq as usize) {
                debug_assert_eq!(sample.sent_at, sent_at);
                sample.rtt = Some(ctx.now() - sent_at);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::AppId;
    use crate::link::LinkConfig;
    use crate::sim::Simulator;
    use crate::topology::{Chain, ChainConfig};
    use units::Rate;

    fn ping_setup(drop_prob: f64) -> (Simulator, AppId) {
        let mut sim = Simulator::new(11);
        let mut lc = LinkConfig::new(Rate::from_mbps(10.0), TimeNs::from_millis(10));
        lc.drop_prob = drop_prob;
        let chain = Chain::build(
            &mut sim,
            &ChainConfig {
                forward: vec![lc],
                reverse: Some(vec![LinkConfig::new(
                    Rate::from_mbps(10.0),
                    TimeNs::from_millis(10),
                )]),
            },
        );
        // Create apps: ids must exist before routes reference them, so
        // allocate pinger first with a placeholder route? Instead: build
        // reflector route after pinger exists.
        let pinger_id = sim.add_app(Box::new(Pinger::new(
            PingerConfig {
                period: TimeNs::from_millis(100),
                size: 64,
                stop_at: TimeNs::from_secs(1),
                flow: FlowId(100),
            },
            Arc::new(RouteSpec {
                links: vec![],
                dst: AppId(0),
            }), // replaced below
        )));
        let reflector_route = chain.reverse_route(&sim, pinger_id);
        let reflector_id = sim.add_app(Box::new(EchoReflector::new(
            reflector_route,
            64,
            FlowId(101),
        )));
        let fwd = chain.forward_route(&sim, reflector_id);
        sim.app_mut::<Pinger>(pinger_id).route = fwd;
        sim.schedule_timer(pinger_id, TimeNs::ZERO, 0);
        (sim, pinger_id)
    }

    #[test]
    fn measures_base_rtt_on_empty_path() {
        let (mut sim, pinger_id) = ping_setup(0.0);
        sim.run_until_idle(TimeNs::from_secs(5));
        let p = sim.app::<Pinger>(pinger_id);
        assert!(p.samples.len() >= 10);
        assert_eq!(p.losses(), 0);
        // RTT = 2 * (51.2 us tx + 10 ms prop) ~ 20.1 ms
        for s in &p.samples {
            let rtt = s.rtt.expect("no loss expected");
            assert_eq!(
                rtt,
                TimeNs::from_micros(2 * (10_000 + 51)) + TimeNs::from_nanos(400)
            );
        }
    }

    #[test]
    fn counts_losses_under_fault_injection() {
        let (mut sim, pinger_id) = ping_setup(0.5);
        sim.run_until_idle(TimeNs::from_secs(5));
        let p = sim.app::<Pinger>(pinger_id);
        assert!(p.losses() > 0, "expected some losses at 50% drop");
        let stats = p.stats_between(TimeNs::ZERO, TimeNs::from_secs(2));
        assert_eq!(stats.lost + stats.rtt_ms.n, p.samples.len());
    }
}

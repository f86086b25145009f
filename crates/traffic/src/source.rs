//! Renewal cross-traffic sources, and where a source lives: in the link it
//! crosses when that is all it crosses, else behind a timer.

use crate::interarrival::{Gaps, Interarrival};
use crate::sizes::SizeDist;
use netsim::{App, AppId, ArrivalProcess, Ctx, FlowId, Packet, Prng, RouteSpec, Simulator};
use std::sync::Arc;
use units::{Rate, TimeNs};

/// Configuration shared by a group of renewal sources.
#[derive(Clone, Debug)]
pub struct SourceConfig {
    /// Interarrival model.
    pub interarrival: Interarrival,
    /// Packet-size distribution.
    pub sizes: SizeDist,
    /// Sources start at a random offset in `[0, start_jitter)` to avoid
    /// phase synchronization between sources.
    pub start_jitter: TimeNs,
}

impl SourceConfig {
    /// Paper default: Pareto α = 1.9 interarrivals, paper size mix.
    pub fn paper_pareto() -> SourceConfig {
        SourceConfig {
            interarrival: Interarrival::PARETO_PAPER,
            sizes: SizeDist::paper_mix(),
            start_jitter: TimeNs::from_millis(100),
        }
    }

    /// Poisson arrivals with the paper size mix.
    pub fn paper_poisson() -> SourceConfig {
        SourceConfig {
            interarrival: Interarrival::Exponential,
            sizes: SizeDist::paper_mix(),
            start_jitter: TimeNs::from_millis(100),
        }
    }

    /// Constant-spacing, fixed-size traffic (fluid-like).
    pub fn cbr(packet_size: u32) -> SourceConfig {
        SourceConfig {
            interarrival: Interarrival::Constant,
            sizes: SizeDist::Fixed(packet_size),
            start_jitter: TimeNs::from_millis(100),
        }
    }

    /// One source's start offset in `[0, start_jitter)`: the first draw
    /// from its RNG stream.
    pub fn start_offset(&self, rng: &mut Prng) -> TimeNs {
        if self.start_jitter.is_zero() {
            TimeNs::ZERO
        } else {
            TimeNs::from_nanos(rng.below(self.start_jitter.as_nanos()))
        }
    }
}

/// Draws a [`RenewalArrivals`] makes ahead, per refill.
const BLOCK: usize = 8;

/// The draws of one renewal source: a packet size and an interarrival
/// time per packet, so the long-run average rate equals `rate`. Owns its
/// `Prng`; whoever hosts it — a link ([`netsim::Simulator::attach_arrivals`])
/// or a timer-driven [`CrossTrafficSource`] — sees the same sequence.
///
/// The draws are made eight at a time, in one loop: the uniforms first,
/// in the order one-at-a-time draws take them from the `Prng` (size, then
/// gap, per packet), then their inversions, which do not depend on one
/// another, so the `powf` / `ln` of a block overlap instead of queueing
/// behind each other, and a size mix is picked by selects. Nobody else
/// draws from a source's `Prng`, so drawing ahead changes no value.
#[derive(Debug)]
pub struct RenewalArrivals {
    sizes: SizeDist,
    /// `sizes.total_weight()`, summed once instead of per draw.
    total_weight: f64,
    gaps: Gaps,
    rng: Prng,
    /// Sizes and gaps (ns) drawn ahead; `next` is the first not yet sent.
    block_sizes: [u32; BLOCK],
    block_gaps: [u64; BLOCK],
    next: usize,
}

impl RenewalArrivals {
    /// A source of `cfg`'s model averaging `rate`.
    pub fn new(cfg: &SourceConfig, rate: Rate, rng: Prng) -> RenewalArrivals {
        assert!(rate.bps() > 0.0, "source rate must be positive");
        let mean_gap_secs = cfg.sizes.mean() * 8.0 / rate.bps();
        RenewalArrivals {
            sizes: cfg.sizes.clone(),
            total_weight: cfg.sizes.total_weight(),
            gaps: cfg.interarrival.gaps(mean_gap_secs),
            rng,
            block_sizes: [0; BLOCK],
            block_gaps: [0; BLOCK],
            next: BLOCK,
        }
    }

    /// Draw the next [`BLOCK`] packets. Out of line, so that the other
    /// firings of a block stay a load and an add.
    #[inline(never)]
    fn refill(&mut self) {
        let (size_draws, gap_draws) = (self.sizes.draws(), self.gaps.draws());
        let mut size_u = [0.0; BLOCK];
        let mut gap_u = [0.0; BLOCK];
        for (su, gu) in size_u.iter_mut().zip(&mut gap_u) {
            if size_draws {
                *su = self.rng.f64();
            }
            if gap_draws {
                *gu = self.rng.f64();
            }
        }
        for (size, u) in self.block_sizes.iter_mut().zip(size_u) {
            *size = self.sizes.at(u, self.total_weight);
        }
        for (gap, u) in self.block_gaps.iter_mut().zip(gap_u) {
            *gap = TimeNs::from_secs_f64(self.gaps.at(u)).as_nanos();
        }
        self.next = 0;
    }
}

impl ArrivalProcess for RenewalArrivals {
    /// Every firing sends: the size is drawn first, then the gap.
    fn fire(&mut self, at: TimeNs) -> (Option<u32>, TimeNs) {
        if self.next == BLOCK {
            self.refill();
        }
        let i = self.next;
        self.next += 1;
        let gap = TimeNs::from_nanos(self.block_gaps[i]);
        (Some(self.block_sizes[i]), at + gap)
    }
}

/// An arrival process hosted as an [`App`]: one timer per firing, one
/// packet per send. This is what a link cannot own — a multi-hop route, or
/// a destination that is more than a counter — and the reference the
/// attached form is tested against (`tests/attached_arrivals.rs`).
pub struct CrossTrafficSource {
    arrivals: Box<dyn ArrivalProcess>,
    route: Arc<RouteSpec>,
    flow: FlowId,
    next_seq: u64,
}

impl CrossTrafficSource {
    /// Add a timer-driven source to `sim`, first firing at `first_at`.
    pub fn install(
        sim: &mut Simulator,
        arrivals: Box<dyn ArrivalProcess>,
        route: Arc<RouteSpec>,
        flow: FlowId,
        first_at: TimeNs,
    ) -> AppId {
        let id = sim.add_app(Box::new(CrossTrafficSource {
            arrivals,
            route: route.clone(),
            flow,
            next_seq: 0,
        }));
        // Sources are pure senders (never a route destination), so anchor
        // them to their route's component for the shard planner.
        sim.bind_app(id, &route);
        sim.schedule_timer(id, first_at, 0);
        id
    }
}

impl App for CrossTrafficSource {
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        let (size, next) = self.arrivals.fire(ctx.now());
        if let Some(size) = size {
            let pkt = Packet::new(size, self.flow, self.next_seq, self.route.clone());
            self.next_seq += 1;
            ctx.send(pkt);
        }
        ctx.timer_at(next, 0);
    }
}

/// Put one source on `route`, first firing at `first_at`. A route that is
/// exactly one link into a counting sink hands the process to that link
/// (no events); anything else gets a timer-driven [`CrossTrafficSource`].
pub(crate) fn place(
    sim: &mut Simulator,
    arrivals: Box<dyn ArrivalProcess>,
    route: &Arc<RouteSpec>,
    flow: FlowId,
    first_at: TimeNs,
) {
    match route.links[..] {
        [link] if sim.is_counting_sink(route.dst) => {
            sim.attach_arrivals(link, route.dst, arrivals, first_at);
        }
        _ => {
            CrossTrafficSource::install(sim, arrivals, route.clone(), flow, first_at);
        }
    }
}

/// Attach `n` sources with aggregate average rate `aggregate` to `route`,
/// splitting the rate evenly. Each source gets its own RNG stream and a
/// random start offset.
pub fn attach_sources(
    sim: &mut Simulator,
    route: Arc<RouteSpec>,
    aggregate: Rate,
    n: usize,
    cfg: &SourceConfig,
) {
    assert!(n > 0, "need at least one source");
    let per_source = aggregate / n as f64;
    for i in 0..n {
        let mut rng = sim.rng();
        let start = cfg.start_offset(&mut rng);
        let arrivals = RenewalArrivals::new(cfg, per_source, rng);
        let flow = FlowId(0x4352_0000 + i as u32); // 'CR' prefix for cross traffic
        let first_at = sim.now() + start;
        place(sim, Box::new(arrivals), &route, flow, first_at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::app::CountingSink;
    use netsim::LinkConfig;
    use std::sync::Mutex;

    fn run_sources(cfg: SourceConfig, aggregate_mbps: f64, n: usize, secs: u64) -> (f64, u64) {
        let mut sim = Simulator::new(1234);
        let link = sim.add_link(LinkConfig::new(
            Rate::from_mbps(100.0),
            TimeNs::from_millis(1),
        ));
        let sink = sim.add_app(Box::new(CountingSink::default()));
        let route = sim.route(&[link], sink);
        attach_sources(&mut sim, route, Rate::from_mbps(aggregate_mbps), n, &cfg);
        sim.run_until(TimeNs::from_secs(secs));
        let elapsed = TimeNs::from_secs(secs);
        let util = sim.link(link).stats.utilization(elapsed);
        (util * 100.0, sim.app::<CountingSink>(sink).packets)
    }

    #[test]
    fn poisson_sources_hit_target_rate() {
        let (util_mbps, pkts) = run_sources(SourceConfig::paper_poisson(), 6.0, 10, 30);
        assert!((util_mbps - 6.0).abs() < 0.3, "got {util_mbps} Mb/s");
        assert!(pkts > 10_000);
    }

    #[test]
    fn pareto_sources_hit_target_rate() {
        let (util_mbps, _) = run_sources(SourceConfig::paper_pareto(), 6.0, 10, 60);
        assert!((util_mbps - 6.0).abs() < 0.6, "got {util_mbps} Mb/s");
    }

    #[test]
    fn cbr_source_is_exact() {
        let mut cfg = SourceConfig::cbr(1000);
        cfg.start_jitter = TimeNs::ZERO; // no ramp-in bias
        let (util_mbps, _) = run_sources(cfg, 8.0, 1, 10);
        assert!((util_mbps - 8.0).abs() < 0.05, "got {util_mbps} Mb/s");
    }

    #[test]
    fn sources_are_reproducible() {
        let a = run_sources(SourceConfig::paper_pareto(), 4.0, 5, 10);
        let b = run_sources(SourceConfig::paper_pareto(), 4.0, 5, 10);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_panics() {
        let _ = RenewalArrivals::new(&SourceConfig::paper_poisson(), Rate::ZERO, Prng::new(1));
    }

    /// A route of exactly one link into a counting sink hands its sources
    /// to the link; a second hop, or a sink that records, keeps them
    /// behind timers. Same packets either way.
    #[test]
    fn placement_follows_the_route() {
        use netsim::app::RecordingSink;
        let run = |hops: usize, counting: bool| {
            let mut sim = Simulator::new(5);
            let links: Vec<_> = (0..hops)
                .map(|_| {
                    sim.add_link(LinkConfig::new(
                        Rate::from_mbps(100.0),
                        TimeNs::from_millis(1),
                    ))
                })
                .collect();
            let sink = if counting {
                sim.add_app(Box::new(CountingSink::default()))
            } else {
                sim.add_app(Box::new(RecordingSink::default()))
            };
            let route = sim.route(&links, sink);
            let cfg = SourceConfig::paper_pareto();
            attach_sources(&mut sim, route, Rate::from_mbps(6.0), 3, &cfg);
            sim.run_until(TimeNs::from_secs(2));
            let stats = sim.engine_stats();
            let sent = sim.link(links[0]).stats.tx_packets;
            (stats.events_processed, stats.attached_arrivals, sent)
        };
        let (events, attached, sent) = run(1, true);
        assert!(sent > 1000);
        assert_eq!((events, attached >= sent), (0, true));
        // Timer-driven: a timer per packet and a delivery per packet that
        // has got there, and the same packets on the first link.
        for (hops, counting) in [(1, false), (2, true)] {
            let (events, attached, sent_by_timer) = run(hops, counting);
            assert_eq!(attached, 0);
            assert!(events > 2 * sent_by_timer - 20, "{events} events");
            assert_eq!(sent_by_timer, sent);
        }
    }

    /// The loop invariants hoisted out of the per-arrival draw — the
    /// Pareto scale and `1 / alpha`, the size mix's weight total — and the
    /// block draws (uniforms first, inversions after, sizes by selects)
    /// change no bit: against the functions as they were, one draw at a
    /// time and recomputing all three every time, for every interarrival
    /// model × size distribution, across many block boundaries (a million
    /// draws of the paper's default).
    #[test]
    fn cached_draws_are_bit_identical_to_the_uncached_functions() {
        fn pareto_uncached(rng: &mut Prng, alpha: f64, mean: f64) -> f64 {
            let xm = if alpha > 1.0 {
                mean * (alpha - 1.0) / alpha
            } else {
                mean
            };
            let u = 1.0 - rng.f64();
            xm / u.powf(1.0 / alpha)
        }
        fn gap_uncached(model: Interarrival, rng: &mut Prng, mean: f64) -> f64 {
            match model {
                Interarrival::Pareto { alpha } => pareto_uncached(rng, alpha, mean),
                Interarrival::Exponential => -mean * (1.0 - rng.f64()).ln(),
                Interarrival::Constant => mean,
            }
        }
        fn size_uncached(sizes: &SizeDist, rng: &mut Prng) -> u32 {
            let items = match sizes {
                SizeDist::Fixed(s) => return *s,
                SizeDist::Discrete(items) => items,
            };
            let total: f64 = items.iter().map(|(_, w)| *w).sum();
            let mut x = rng.f64() * total;
            for (s, w) in items {
                if x < *w {
                    return *s;
                }
                x -= *w;
            }
            items.last().unwrap().0
        }
        let rate = Rate::from_mbps(0.6);
        for interarrival in [
            Interarrival::PARETO_PAPER,
            Interarrival::Exponential,
            Interarrival::Constant,
        ] {
            for sizes in [
                SizeDist::paper_mix(),
                SizeDist::Fixed(576),
                SizeDist::Discrete(vec![(100, 2.0), (1500, 1.0)]),
            ] {
                let cfg = SourceConfig {
                    interarrival,
                    sizes,
                    start_jitter: TimeNs::ZERO,
                };
                let default = interarrival == Interarrival::PARETO_PAPER
                    && cfg.sizes == SizeDist::paper_mix();
                let draws = if default { 1_000_000 } else { 40 * BLOCK + 3 };
                let mean_gap = cfg.sizes.mean() * 8.0 / rate.bps();
                let mut blocked = RenewalArrivals::new(&cfg, rate, Prng::new(0xB175));
                let mut rng = Prng::new(0xB175);
                let mut at = TimeNs::ZERO;
                for i in 0..draws {
                    let size = size_uncached(&cfg.sizes, &mut rng);
                    let gap = gap_uncached(interarrival, &mut rng, mean_gap);
                    let next = at + TimeNs::from_secs_f64(gap);
                    let got = blocked.fire(at);
                    assert_eq!(
                        got,
                        (Some(size), next),
                        "{interarrival:?} {:?} draw {i}",
                        cfg.sizes
                    );
                    at = next;
                }
            }
        }
        // The on/off periods use the same two invariants per mean, and
        // alpha ≤ 1 takes the other branch of the scale.
        let mut a = Prng::new(7);
        let mut b = Prng::new(7);
        for (alpha, mean) in [(1.5, 0.5), (1.5, 1.5), (0.8, 2.0)] {
            let (xm, inv_alpha) = (Prng::pareto_scale(alpha, mean), 1.0 / alpha);
            for _ in 0..100_000 {
                let want = pareto_uncached(&mut b, alpha, mean);
                assert_eq!(a.pareto(xm, inv_alpha).to_bits(), want.to_bits());
            }
        }
    }

    /// Every firing's instant and what it sent.
    type FiringLog = Arc<Mutex<Vec<(TimeNs, Option<u32>)>>>;

    /// Logs every firing of the process it wraps.
    #[derive(Debug)]
    struct Logged<P>(P, FiringLog);

    impl<P: ArrivalProcess> ArrivalProcess for Logged<P> {
        fn fire(&mut self, at: TimeNs) -> (Option<u32>, TimeNs) {
            let fired = self.0.fire(at);
            self.1.lock().unwrap().push((at, fired.0));
            fired
        }
    }

    /// A source behind a timer and its twin owned by a link draw ahead in
    /// the same blocks and send the same packets at the same instants;
    /// the link and the sink see the same traffic.
    #[test]
    fn timer_hosted_and_link_attached_twins_send_alike() {
        let run = |attached: bool| {
            let mut sim = Simulator::new(11);
            let link = sim.add_link(LinkConfig::new(
                Rate::from_mbps(10.0),
                TimeNs::from_millis(1),
            ));
            let sink = sim.add_app(Box::new(CountingSink::default()));
            let route = sim.route(&[link], sink);
            let cfgs = [
                SourceConfig::paper_pareto(),
                SourceConfig::paper_poisson(),
                SourceConfig::cbr(441),
            ];
            let logs: Vec<FiringLog> = cfgs.iter().map(|_| Arc::default()).collect();
            for (i, (cfg, log)) in cfgs.iter().zip(&logs).enumerate() {
                let source = RenewalArrivals::new(cfg, Rate::from_mbps(2.5), Prng::new(i as u64));
                let logged = Box::new(Logged(source, Arc::clone(log)));
                let first_at = TimeNs::from_micros(i as u64 * 10);
                if attached {
                    sim.attach_arrivals(link, sink, logged, first_at);
                } else {
                    CrossTrafficSource::install(
                        &mut sim,
                        logged,
                        route.clone(),
                        FlowId(0),
                        first_at,
                    );
                }
            }
            sim.run_until(TimeNs::from_secs(5));
            let stats = sim.link(link).stats.clone();
            let logs: Vec<_> = logs.iter().map(|l| l.lock().unwrap().clone()).collect();
            let counted = sim.app::<CountingSink>(sink);
            let seen = (stats.tx_packets, stats.tx_bytes, stats.busy_ns);
            (logs, seen, counted.packets, counted.bytes)
        };
        let (timer, attached) = (run(false), run(true));
        assert!(timer.0.iter().all(|log| log.len() > 10 * BLOCK));
        assert_eq!(timer, attached);
    }
}

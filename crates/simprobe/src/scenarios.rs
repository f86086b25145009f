//! Builders for every topology in the paper's evaluation.
//!
//! All scenarios are chains (paper Fig. 4): probe traffic traverses every
//! hop; cross traffic enters and exits at each hop. The tight link sits in
//! the middle. Ground-truth avail-bw is `min_i C_i (1 − u_i)` by
//! construction (eq. 3).

use crate::transport::SimTransport;
use netsim::app::CountingSink;
use netsim::{Chain, ChainConfig, LinkConfig, LinkId, Simulator};
use traffic::{attach_onoff_sources, attach_sources, SourceConfig};
use units::{Rate, TimeNs};

/// How a link's cross traffic is generated.
#[derive(Clone, Debug)]
pub enum TrafficModel {
    /// Independent renewal sources (Poisson / Pareto / CBR interarrivals).
    Renewal(SourceConfig),
    /// Pareto ON/OFF sources (statistical-multiplexing experiments).
    ParetoOnOff,
}

/// Load specification of one hop.
#[derive(Clone, Debug)]
pub struct LinkLoad {
    /// Link capacity.
    pub capacity: Rate,
    /// Target long-run utilization from cross traffic, in `[0, 1)`.
    pub util: f64,
    /// Number of independent cross-traffic sources (paper: 10 per hop).
    pub n_sources: usize,
    /// Traffic model.
    pub model: TrafficModel,
}

impl LinkLoad {
    /// Renewal-model load with the paper's Pareto cross traffic.
    pub fn pareto(capacity: Rate, util: f64, n_sources: usize) -> LinkLoad {
        LinkLoad {
            capacity,
            util,
            n_sources,
            model: TrafficModel::Renewal(SourceConfig::paper_pareto()),
        }
    }

    /// This link's average available bandwidth `C(1 − u)`.
    pub fn avail(&self) -> Rate {
        self.capacity * (1.0 - self.util)
    }
}

/// Non-load options of a scenario.
#[derive(Clone, Debug)]
pub struct PathOpts {
    /// Propagation delay per hop (paper: 50 ms end-to-end over H hops).
    pub prop_per_hop: TimeNs,
    /// Utilization-monitor window for every link.
    pub monitor_window: TimeNs,
    /// Cross-traffic warm-up simulated before the transport is handed out.
    pub warmup: TimeNs,
    /// Drop-tail queue limit per link, bytes.
    pub queue_limit: u64,
}

impl Default for PathOpts {
    fn default() -> Self {
        PathOpts {
            prop_per_hop: TimeNs::from_millis(10),
            monitor_window: TimeNs::from_secs(300),
            warmup: TimeNs::from_secs(2),
            queue_limit: 8 * 1024 * 1024,
        }
    }
}

/// The end-to-end average avail-bw implied by a load vector (eq. 3).
pub fn path_avail_bw(loads: &[LinkLoad]) -> Rate {
    loads
        .iter()
        .map(LinkLoad::avail)
        .reduce(Rate::min)
        .expect("non-empty path")
}

/// Build one loaded chain **inside an existing simulator**: links, cross
/// traffic per hop, and a cross-traffic sink — no warm-up, no transport.
/// Link names get `name_prefix` prepended so multi-path simulations stay
/// readable. The multi-path builders and [`build_loaded_path`] share this.
pub fn attach_loaded_chain(
    sim: &mut Simulator,
    loads: &[LinkLoad],
    opts: &PathOpts,
    name_prefix: &str,
) -> Chain {
    assert!(!loads.is_empty());
    let forward: Vec<LinkConfig> = loads
        .iter()
        .enumerate()
        .map(|(i, l)| {
            LinkConfig::new(l.capacity, opts.prop_per_hop)
                .with_queue_limit(opts.queue_limit)
                .with_monitor_window(opts.monitor_window)
                .with_name(format!("{name_prefix}hop{i}"))
        })
        .collect();
    let chain = Chain::build(sim, &ChainConfig::symmetric(forward));
    // Declare the whole chain — forward and reverse directions — one
    // component for the shard planner. Routes alone would leave unloaded
    // hops and the (initially route-less) reverse direction unplaced.
    let all_links: Vec<LinkId> = chain
        .forward
        .iter()
        .chain(chain.reverse.iter())
        .copied()
        .collect();
    sim.bind_links(&all_links);
    let cross_sink = sim.add_app(Box::new(CountingSink::default()));
    // Anchor the sink to the chain even when every hop is unloaded.
    sim.bind_app(
        cross_sink,
        &netsim::RouteSpec {
            links: vec![chain.forward[0]],
            dst: cross_sink,
        },
    );
    for (hop, load) in loads.iter().enumerate() {
        if load.util <= 0.0 {
            continue;
        }
        let rate = load.capacity * load.util;
        let route = chain.hop_route(sim, hop, cross_sink);
        match &load.model {
            TrafficModel::Renewal(cfg) => {
                attach_sources(sim, route, rate, load.n_sources, cfg);
            }
            TrafficModel::ParetoOnOff => {
                attach_onoff_sources(sim, route, rate, load.n_sources);
            }
        }
    }
    chain
}

/// Build a loaded chain and return its probe transport.
///
/// The reverse path mirrors the forward capacities but carries no cross
/// traffic (the paper's experiments only load the forward direction).
pub fn build_loaded_path(loads: &[LinkLoad], opts: &PathOpts, seed: u64) -> SimTransport {
    let mut sim = Simulator::new(seed);
    let chain = attach_loaded_chain(&mut sim, loads, opts, "");
    let mut t = SimTransport::new(sim, chain);
    t.sim_mut().run_until(opts.warmup);
    t
}

/// Build `paths.len()` **disjoint** loaded chains inside one simulator —
/// the multi-path monitoring substrate: one in-sim measurement session per
/// chain, all under a single event loop. Applies `opts.warmup` once after
/// all paths are built. Path `i`'s links are named `p{i}hop{j}`.
pub fn build_disjoint_paths(
    sim: &mut Simulator,
    paths: &[Vec<LinkLoad>],
    opts: &PathOpts,
) -> Vec<Chain> {
    let chains: Vec<Chain> = paths
        .iter()
        .enumerate()
        .map(|(i, loads)| attach_loaded_chain(sim, loads, opts, &format!("p{i}")))
        .collect();
    let warm_until = sim.now() + opts.warmup;
    sim.run_until(warm_until);
    chains
}

/// A set of paths sharing one **tight link** (§VI cross-traffic dynamics):
/// path `i` is `access_i → tight → egress_i`. All cross traffic rides the
/// tight link, so concurrent probe streams on different paths interfere
/// there — exactly the self-interference a monitoring scheduler's
/// concurrency cap exists to avoid.
pub struct SharedTightLink {
    /// One chain per path; every `forward[1]` is the same tight link.
    pub chains: Vec<Chain>,
    /// The shared tight link.
    pub tight: LinkId,
    /// Sink of the tight-link cross traffic (reusable for load steps).
    pub cross_sink: netsim::AppId,
}

/// Configuration for [`shared_tight_link`].
#[derive(Clone, Debug)]
pub struct SharedTightLinkConfig {
    /// Number of paths through the tight link.
    pub paths: usize,
    /// The shared tight link's capacity, load and traffic model.
    pub tight: LinkLoad,
    /// Capacity of each path's private access/egress links.
    pub edge_capacity: Rate,
    /// Propagation delay per hop.
    pub prop_per_hop: TimeNs,
    /// Warm-up simulated after construction.
    pub warmup: TimeNs,
}

impl Default for SharedTightLinkConfig {
    fn default() -> Self {
        SharedTightLinkConfig {
            paths: 2,
            tight: LinkLoad::pareto(Rate::from_mbps(10.0), 0.20, 10),
            edge_capacity: Rate::from_mbps(100.0),
            prop_per_hop: TimeNs::from_millis(10),
            warmup: TimeNs::from_secs(2),
        }
    }
}

/// Build the shared-tight-link topology inside `sim` and warm it up.
pub fn shared_tight_link(sim: &mut Simulator, cfg: &SharedTightLinkConfig) -> SharedTightLink {
    assert!(cfg.paths > 0, "need at least one path");
    let edge = |name: String| LinkConfig::new(cfg.edge_capacity, cfg.prop_per_hop).with_name(name);
    let tight = sim.add_link(
        LinkConfig::new(cfg.tight.capacity, cfg.prop_per_hop).with_name("tight".to_string()),
    );
    let mut chains = Vec::with_capacity(cfg.paths);
    for i in 0..cfg.paths {
        let access = sim.add_link(edge(format!("p{i}access")));
        let egress = sim.add_link(edge(format!("p{i}egress")));
        // Private mirrored reverse path (control/ACK direction; unloaded).
        let rev: Vec<LinkId> = [
            edge(format!("p{i}rev0")),
            LinkConfig::new(cfg.tight.capacity, cfg.prop_per_hop).with_name(format!("p{i}rev1")),
            edge(format!("p{i}rev2")),
        ]
        .into_iter()
        .map(|lc| sim.add_link(lc))
        .collect();
        let chain = Chain {
            forward: vec![access, tight, egress],
            reverse: rev,
        };
        // Bind each chain's links into one component; because every
        // forward direction crosses `tight`, the whole topology collapses
        // to a single component and the shard planner refuses — the
        // intended fallback for shared-link fleets.
        let all_links: Vec<LinkId> = chain
            .forward
            .iter()
            .chain(chain.reverse.iter())
            .copied()
            .collect();
        sim.bind_links(&all_links);
        chains.push(chain);
    }
    let cross_sink = sim.add_app(Box::new(CountingSink::default()));
    if cfg.tight.util > 0.0 {
        let rate = cfg.tight.capacity * cfg.tight.util;
        let route = sim.route(&[tight], cross_sink);
        match &cfg.tight.model {
            TrafficModel::Renewal(src) => {
                attach_sources(sim, route, rate, cfg.tight.n_sources, src);
            }
            TrafficModel::ParetoOnOff => {
                attach_onoff_sources(sim, route, rate, cfg.tight.n_sources);
            }
        }
    }
    let warm_until = sim.now() + cfg.warmup;
    sim.run_until(warm_until);
    SharedTightLink {
        chains,
        tight,
        cross_sink,
    }
}

/// Step a link's load **mid-run** by attaching `n_sources` additional
/// renewal sources totalling `extra_rate`, sinking into `sink` — the §VI
/// scenario where the avail-bw shifts under a running monitor. Works on
/// any link of any topology ([`SharedTightLink`] exposes `tight` and
/// `cross_sink` for exactly this).
pub fn step_link_load(
    sim: &mut Simulator,
    link: LinkId,
    sink: netsim::AppId,
    extra_rate: Rate,
    n_sources: usize,
    src: &SourceConfig,
) {
    let route = sim.route(&[link], sink);
    attach_sources(sim, route, extra_rate, n_sources, src);
}

/// Configuration of the paper's default simulation topology (Fig. 4):
/// H hops, tight link in the middle, identical nontight links elsewhere.
///
/// Defaults (§V-A): H = 5, C_t = 10 Mb/s, u_t = 60 %, C_nt = 40 Mb/s,
/// u_nt = 20 %, 10 Pareto (α = 1.9) sources per hop with the 40/550/1500 B
/// size mix. Where the scanned §V-A text is illegible, the values are the
/// ones consistent with what the paper quotes of this path: A = 4 Mb/s
/// under Pareto traffic (Fig. 5's discussion), with nontight links far
/// from tight (A_nt = 32 Mb/s).
#[derive(Clone, Debug)]
pub struct PaperPathConfig {
    /// Number of hops H.
    pub hops: usize,
    /// Tight-link capacity C_t.
    pub tight_capacity: Rate,
    /// Tight-link utilization u_t.
    pub tight_util: f64,
    /// Nontight-link capacity C_nt.
    pub nontight_capacity: Rate,
    /// Nontight-link utilization u_nt.
    pub nontight_util: f64,
    /// Cross-traffic sources per hop.
    pub sources_per_link: usize,
    /// Cross-traffic model for every hop.
    pub source_cfg: SourceConfig,
    /// Non-load options.
    pub opts: PathOpts,
}

impl Default for PaperPathConfig {
    fn default() -> Self {
        PaperPathConfig {
            hops: 5,
            tight_capacity: Rate::from_mbps(10.0),
            tight_util: 0.60,
            nontight_capacity: Rate::from_mbps(40.0),
            nontight_util: 0.20,
            sources_per_link: 10,
            source_cfg: SourceConfig::paper_pareto(),
            opts: PathOpts::default(),
        }
    }
}

impl PaperPathConfig {
    /// The end-to-end average avail-bw (the tight link's, by construction
    /// as long as the tightness factor β < 1).
    pub fn avail_bw(&self) -> Rate {
        self.tight_avail().min(self.nontight_avail())
    }

    /// Tight-link avail-bw `A_t = C_t (1 − u_t)`.
    pub fn tight_avail(&self) -> Rate {
        self.tight_capacity * (1.0 - self.tight_util)
    }

    /// Nontight-link avail-bw `A_nt = C_nt (1 − u_nt)`.
    pub fn nontight_avail(&self) -> Rate {
        self.nontight_capacity * (1.0 - self.nontight_util)
    }

    /// The path tightness factor β = A_t / A_nt (eq. 10).
    pub fn tightness(&self) -> f64 {
        self.tight_avail().bps() / self.nontight_avail().bps()
    }

    /// Set the nontight capacity so the tightness factor becomes β while
    /// keeping `nontight_util` fixed: `C_nt = A_t / (β (1 − u_nt))`.
    /// β = 1 makes every link a tight link (Fig. 7).
    pub fn set_tightness(&mut self, beta: f64) {
        assert!(beta > 0.0 && beta <= 1.0);
        let a_nt = self.tight_avail().bps() / beta;
        self.nontight_capacity = Rate::from_bps(a_nt / (1.0 - self.nontight_util));
    }

    /// The per-hop load vector this configuration describes.
    pub fn loads(&self) -> Vec<LinkLoad> {
        let tight_hop = self.hops / 2;
        (0..self.hops)
            .map(|h| {
                let (cap, util) = if h == tight_hop {
                    (self.tight_capacity, self.tight_util)
                } else {
                    (self.nontight_capacity, self.nontight_util)
                };
                LinkLoad {
                    capacity: cap,
                    util,
                    n_sources: self.sources_per_link,
                    model: TrafficModel::Renewal(self.source_cfg.clone()),
                }
            })
            .collect()
    }
}

/// The paper's Fig. 4 topology, built and warmed up.
pub struct PaperPath {
    transport: SimTransport,
    /// The tight link's id (for MRTG-style monitoring).
    pub tight_link: LinkId,
}

impl PaperPath {
    /// Build the topology with the given seed.
    pub fn build(cfg: &PaperPathConfig, seed: u64) -> PaperPath {
        let mut opts = cfg.opts.clone();
        // 50 ms end-to-end propagation split across hops (paper §V-A).
        opts.prop_per_hop =
            TimeNs::from_nanos(TimeNs::from_millis(50).as_nanos() / cfg.hops as u64);
        let transport = build_loaded_path(&cfg.loads(), &opts, seed);
        let tight_link = transport.chain().forward[cfg.hops / 2];
        PaperPath {
            transport,
            tight_link,
        }
    }

    /// Consume, returning the probe transport.
    pub fn into_transport(self) -> SimTransport {
        self.transport
    }
}

/// The Fig. 10 verification path: a lightly loaded access link, a 155 Mb/s
/// POS backbone link carrying the interesting load (the **tight** link),
/// and a 100 Mb/s Fast-Ethernet egress (the **narrow** link).
///
/// Returns the transport and the tight link's id.
pub fn verification_path(tight_util: f64, seed: u64) -> (SimTransport, LinkId) {
    verification_path_with_window(tight_util, seed, TimeNs::from_secs(300))
}

/// [`verification_path`] with an explicit MRTG monitor window (the Fig. 10
/// harness shortens it in quick mode so one window fits the run).
pub fn verification_path_with_window(
    tight_util: f64,
    seed: u64,
    monitor_window: TimeNs,
) -> (SimTransport, LinkId) {
    // Backbone-grade statistical multiplexing: a real OC-3 aggregates
    // thousands of flows and is close to Poisson at the 10 ms timescale of
    // one probe stream. With heavy-tailed (alpha = 1.9) renewal sources the
    // short-timescale utilization stays right-skewed, and SLoPS — which
    // converges to the *median* of the short-timescale avail-bw — then
    // sits systematically above the MRTG *mean* (the paper's discussion
    // of the averaging timescale tau, in action).
    let poisson = |c: f64, u: f64, n: usize| LinkLoad {
        capacity: Rate::from_mbps(c),
        util: u,
        n_sources: n,
        model: TrafficModel::Renewal(SourceConfig::paper_poisson()),
    };
    let loads = vec![
        poisson(622.0, 0.05, 100),
        poisson(155.0, tight_util, 180),
        poisson(100.0, 0.05, 30),
    ];
    let opts = PathOpts {
        prop_per_hop: TimeNs::from_millis(12), // ~70 ms RTT, a wide-area path
        monitor_window,
        ..PathOpts::default()
    };
    let t = build_loaded_path(&loads, &opts, seed);
    let tight = t.chain().forward[1];
    (t, tight)
}

/// A path whose **reverse** direction is congested while the forward
/// direction is lightly loaded. SLoPS measures one-way delays, so its
/// estimate must track the forward avail-bw and ignore the reverse
/// congestion entirely — where any RTT-based method would collapse.
/// Returns the transport; the forward avail-bw is
/// `fwd_capacity·(1 − fwd_util)`.
pub fn reverse_loaded_path(
    fwd_capacity: Rate,
    fwd_util: f64,
    rev_util: f64,
    seed: u64,
) -> SimTransport {
    let mut sim = Simulator::new(seed);
    let mk = |name: &str| {
        LinkConfig::new(fwd_capacity, TimeNs::from_millis(10)).with_name(name.to_string())
    };
    let chain = Chain::build(
        &mut sim,
        &ChainConfig {
            forward: vec![mk("fwd0"), mk("fwd1")],
            reverse: Some(vec![mk("rev0"), mk("rev1")]),
        },
    );
    let sink = sim.add_app(Box::new(CountingSink::default()));
    // Forward load on hop 1.
    if fwd_util > 0.0 {
        let route = chain.hop_route(&sim, 1, sink);
        attach_sources(
            &mut sim,
            route,
            fwd_capacity * fwd_util,
            10,
            &SourceConfig::paper_pareto(),
        );
    }
    // Heavy load on the reverse hop 0 (the ACK/control direction).
    if rev_util > 0.0 {
        let route = sim.route(&[chain.reverse[0]], sink);
        attach_sources(
            &mut sim,
            route,
            fwd_capacity * rev_util,
            10,
            &SourceConfig::paper_pareto(),
        );
    }
    let mut t = SimTransport::new(sim, chain);
    t.sim_mut().run_until(TimeNs::from_secs(2));
    t
}

/// The Fig. 12 statistical-multiplexing paths: one bottleneck at the given
/// capacity and utilization, fed by `n_sources` Pareto ON/OFF sources, with
/// a fast, lightly loaded link on either side.
pub fn multiplexing_path(capacity: Rate, util: f64, n_sources: usize, seed: u64) -> SimTransport {
    let loads = vec![
        LinkLoad::pareto(Rate::from_mbps(622.0), 0.05, 40),
        LinkLoad {
            capacity,
            util,
            n_sources,
            model: TrafficModel::ParetoOnOff,
        },
        LinkLoad::pareto(Rate::from_mbps(622.0), 0.05, 40),
    ];
    let opts = PathOpts {
        warmup: TimeNs::from_secs(5), // ON/OFF aggregates converge slower
        ..PathOpts::default()
    };
    build_loaded_path(&loads, &opts, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_paper() {
        let cfg = PaperPathConfig::default();
        assert_eq!(cfg.hops, 5);
        assert!((cfg.avail_bw().mbps() - 4.0).abs() < 1e-9);
        assert!((cfg.nontight_avail().mbps() - 32.0).abs() < 1e-9);
        assert!((cfg.tightness() - 0.125).abs() < 1e-9);
    }

    #[test]
    fn set_tightness_solves_for_nontight_capacity() {
        let mut cfg = PaperPathConfig::default();
        cfg.set_tightness(0.5);
        assert!((cfg.nontight_avail().mbps() - 8.0).abs() < 1e-9);
        assert!((cfg.tightness() - 0.5).abs() < 1e-9);
        cfg.set_tightness(1.0);
        // All links now have A = 4 Mb/s.
        assert!((cfg.nontight_avail().mbps() - 4.0).abs() < 1e-9);
        assert!((path_avail_bw(&cfg.loads()).mbps() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn loads_place_tight_link_in_the_middle() {
        let cfg = PaperPathConfig::default();
        let loads = cfg.loads();
        assert_eq!(loads.len(), 5);
        assert_eq!(loads[2].capacity.mbps(), 10.0);
        for (i, l) in loads.iter().enumerate() {
            if i != 2 {
                assert_eq!(l.capacity.mbps(), 40.0);
            }
        }
        assert!((path_avail_bw(&loads).mbps() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn built_path_carries_configured_load() {
        use slops::ProbeTransport;
        let cfg = PaperPathConfig::default();
        let path = PaperPath::build(&cfg, 99);
        let mut t = path.into_transport();
        // Run 20 s and check the tight link's utilization.
        t.idle(TimeNs::from_secs(20));
        let sim = t.sim();
        let tight = sim.link(t.chain().forward[2]);
        let util = tight.stats.utilization(t.elapsed());
        assert!(
            (util - 0.60).abs() < 0.05,
            "tight-link utilization {util}, want ~0.60"
        );
    }

    #[test]
    fn disjoint_paths_are_independent_and_loaded() {
        use slops::ProbeTransport;
        let mut sim = Simulator::new(11);
        let paths = vec![
            vec![LinkLoad::pareto(Rate::from_mbps(10.0), 0.4, 5); 2],
            vec![LinkLoad::pareto(Rate::from_mbps(20.0), 0.2, 5); 2],
        ];
        let opts = PathOpts::default();
        let chains = build_disjoint_paths(&mut sim, &paths, &opts);
        assert_eq!(chains.len(), 2);
        // No link is shared between the two paths.
        for a in chains[0].forward.iter().chain(&chains[0].reverse) {
            assert!(!chains[1].forward.contains(a) && !chains[1].reverse.contains(a));
        }
        // Each path carries its own configured load.
        sim.run_until(sim.now() + TimeNs::from_secs(20));
        let elapsed = sim.now();
        let u0 = sim.link(chains[0].forward[0]).stats.utilization(elapsed);
        let u1 = sim.link(chains[1].forward[0]).stats.utilization(elapsed);
        assert!((u0 - 0.4).abs() < 0.08, "path 0 util {u0}");
        assert!((u1 - 0.2).abs() < 0.08, "path 1 util {u1}");
        // The refactor kept the single-path builder byte-compatible.
        let mut t = build_loaded_path(&paths[0], &opts, 3);
        t.idle(TimeNs::from_secs(5));
        assert!(t.elapsed() >= TimeNs::from_secs(5));
    }

    #[test]
    fn shared_tight_link_shares_exactly_one_link() {
        let mut sim = Simulator::new(12);
        let cfg = SharedTightLinkConfig {
            paths: 3,
            ..SharedTightLinkConfig::default()
        };
        let shared = shared_tight_link(&mut sim, &cfg);
        assert_eq!(shared.chains.len(), 3);
        for c in &shared.chains {
            assert_eq!(c.forward[1], shared.tight);
        }
        // Private edges are not shared across paths.
        for (i, a) in shared.chains.iter().enumerate() {
            for b in shared.chains.iter().skip(i + 1) {
                assert_ne!(a.forward[0], b.forward[0]);
                assert_ne!(a.forward[2], b.forward[2]);
            }
        }
        // The tight link carries ~20% load; a mid-run step raises it.
        sim.run_until(sim.now() + TimeNs::from_secs(20));
        let u = sim.link(shared.tight).stats.utilization(sim.now());
        assert!((u - 0.20).abs() < 0.06, "tight util {u}");
        step_link_load(
            &mut sim,
            shared.tight,
            shared.cross_sink,
            Rate::from_mbps(4.0),
            5,
            &SourceConfig::paper_pareto(),
        );
        let t_step = sim.now();
        sim.run_until(t_step + TimeNs::from_secs(20));
        let win = sim.link(shared.tight).stats.utilization(sim.now());
        assert!(win > 0.30, "stepped util {win} should exceed 30%");
    }

    #[test]
    fn verification_path_has_distinct_tight_and_narrow() {
        let (t, tight) = verification_path(0.52, 1);
        let sim = t.sim();
        assert_eq!(sim.link(tight).capacity().mbps(), 155.0);
        // Narrow link is the 100 Mb/s one.
        let narrowest = t
            .chain()
            .forward
            .iter()
            .map(|l| sim.link(*l).capacity().mbps())
            .fold(f64::INFINITY, f64::min);
        assert_eq!(narrowest, 100.0);
    }
}

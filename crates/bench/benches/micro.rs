//! Micro-benchmarks of the hot paths: trend statistics, OWD
//! preprocessing, the simulator's event loop, a link pulling its cross
//! traffic, the PRNG, and the rate search.
//! `cargo bench -p availbw-bench --bench micro` prints one mean per
//! iteration for each.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Time `routine` until a fixed 200 ms budget is spent, at least once, and
/// print the mean iteration.
fn bench<O>(name: &str, mut routine: impl FnMut() -> O) {
    bench_batched(name, || (), |()| routine());
}

/// [`bench`] on a fresh input from `setup` per iteration, setup untimed.
fn bench_batched<I, O>(name: &str, mut setup: impl FnMut() -> I, mut routine: impl FnMut(I) -> O) {
    let (start, mut spent, mut n) = (Instant::now(), Duration::ZERO, 0u32);
    while n == 0 || start.elapsed() < Duration::from_millis(200) {
        let input = setup();
        let t0 = Instant::now();
        black_box(routine(input));
        spent += t0.elapsed();
        n += 1;
    }
    let per_iter = spent / n;
    println!("{name:<40} {per_iter:>12.2?}/iter ({n} iters)");
}

fn bench_trend_stats() {
    let owds: Vec<i64> = (0..100).map(|i| 1000 + i * 37 + (i % 7) * 1000).collect();
    bench("group_medians_k100", || {
        slops::owd::group_medians(black_box(&owds))
    });
    let medians = slops::owd::group_medians(&owds);
    bench("pct_metric", || slops::pct_metric(black_box(&medians)));
    bench("pdt_metric", || slops::pdt_metric(black_box(&medians)));
    let cfg = slops::SlopsConfig::default();
    bench("classify_medians", || {
        slops::classify_medians(black_box(&medians), &cfg)
    });
}

fn bench_prng() {
    let mut rng = netsim::Prng::new(1);
    bench("prng_next_u64", || rng.next_u64());
    let mut rng = netsim::Prng::new(1);
    bench("prng_pareto", || rng.pareto_mean(1.9, 0.005));
}

fn bench_event_loop() {
    use netsim::app::CountingSink;
    use netsim::{FlowId, LinkConfig, Packet, Simulator};
    use units::{Rate, TimeNs};
    // Throughput of the engine: one link, 10k packets, run to completion.
    bench_batched(
        "engine_10k_packets_one_link",
        || {
            let mut sim = Simulator::new(1);
            let l = sim.add_link(LinkConfig::new(
                Rate::from_mbps(1000.0),
                TimeNs::from_micros(10),
            ));
            let sink = sim.add_app(Box::new(CountingSink::default()));
            let route = sim.route(&[l], sink);
            for i in 0..10_000u64 {
                sim.inject(
                    Packet::new(500, FlowId(1), i, route.clone()),
                    TimeNs::from_nanos(i * 100),
                );
            }
            sim
        },
        |mut sim| {
            sim.run_until_idle(TimeNs::from_secs(10));
            sim.events_processed()
        },
    );
}

/// A link pulling its one-hop cross traffic, with nothing else running:
/// 60 s of the default `PaperPath` (five hops, ten Pareto sources each, no
/// probe) after its warm-up, as ns per attached arrival — next to the same
/// path on CBR sources of the paper mix's mean size, whose draws, merge
/// order and queue states never vary: the floor a branch-light chain of
/// draw → merge → FIFO can approach. The Pareto figure is then split: the
/// draws alone (every source fired round-robin, no link), and draws plus
/// merge (the same sources attached but silent, so no packet reaches a
/// FIFO: the pull loop, its call per firing and the loser tree); the FIFO
/// is what is left.
fn bench_link_pull() {
    use netsim::{ArrivalProcess, LinkConfig, Prng, Simulator};
    use simprobe::scenarios::{PaperPath, PaperPathConfig};
    use std::time::Instant;
    use traffic::{RenewalArrivals, SourceConfig};
    use units::TimeNs;
    const SPAN: TimeNs = TimeNs::from_secs(60);

    /// Best of three timings of `run`, as ns per unit of what it returns.
    fn ns_per(mut run: impl FnMut() -> (std::time::Duration, u64)) -> f64 {
        (0..3)
            .map(|_| {
                let (spent, n) = run();
                spent.as_nanos() as f64 / n as f64
            })
            .fold(f64::INFINITY, f64::min)
    }
    /// A source that draws as it would, but sends nothing.
    #[derive(Debug)]
    struct Silent(RenewalArrivals);
    impl ArrivalProcess for Silent {
        fn fire(&mut self, at: TimeNs) -> (Option<u32>, TimeNs) {
            (None, self.0.fire(at).1)
        }
    }

    let mut totals = Vec::new();
    for (name, source_cfg) in [
        ("pareto", SourceConfig::paper_pareto()),
        ("cbr", SourceConfig::cbr(441)),
    ] {
        let cfg = PaperPathConfig {
            source_cfg,
            ..PaperPathConfig::default()
        };
        let build = || PaperPath::build(&cfg, 7).into_transport().into_sim();
        let ns = ns_per(|| {
            let mut sim = build();
            let before = sim.engine_stats().attached_arrivals;
            let until = sim.now() + SPAN;
            let t0 = Instant::now();
            sim.run_until(until);
            (t0.elapsed(), sim.engine_stats().attached_arrivals - before)
        });
        println!("link_pull_paper_path {name:<6} {ns:>6.1} ns per attached arrival (best of 3)");
        totals.push(ns);
        bench_batched(
            &format!("link_pull_paper_path_{name}_60s"),
            build,
            |mut sim| {
                let until = sim.now() + SPAN;
                sim.run_until(until);
                sim.engine_stats().attached_arrivals
            },
        );
    }

    // The split, on the default path's sources (same rates, same seeds).
    let cfg = PaperPathConfig::default();
    let sources = || -> Vec<Vec<RenewalArrivals>> {
        let seeds = Prng::new(7);
        (cfg.loads().iter().enumerate())
            .map(|(hop, load)| {
                let rate = load.capacity * load.util / load.n_sources as f64;
                (0..load.n_sources)
                    .map(|i| {
                        let rng = seeds.derive((hop * load.n_sources + i) as u64);
                        RenewalArrivals::new(&cfg.source_cfg, rate, rng)
                    })
                    .collect()
            })
            .collect()
    };
    let draw = ns_per(|| {
        let mut all: Vec<RenewalArrivals> = sources().into_iter().flatten().collect();
        let fires = 13_000u64;
        let t0 = Instant::now();
        for source in &mut all {
            let mut at = TimeNs::ZERO;
            for _ in 0..fires {
                at = source.fire(at).1;
            }
            black_box(at);
        }
        (t0.elapsed(), fires * all.len() as u64)
    });
    let first_at = |i: usize| TimeNs::from_micros(7_919 * i as u64);
    // Firings through the span, counted by replaying the draws untimed.
    let firings: u64 = (sources().into_iter())
        .flat_map(|hop| hop.into_iter().enumerate())
        .map(|(i, mut source)| {
            let (mut at, mut n) = (first_at(i), 0);
            while at <= SPAN {
                at = source.fire(at).1;
                n += 1;
            }
            n
        })
        .sum();
    let draw_merge = ns_per(|| {
        let mut sim = Simulator::new(7);
        let sink = sim.add_app(Box::new(netsim::app::CountingSink::default()));
        for (load, hop) in cfg.loads().iter().zip(sources()) {
            let link = sim.add_link(LinkConfig::new(load.capacity, TimeNs::from_millis(10)));
            sim.route(&[link], sink);
            for (i, source) in hop.into_iter().enumerate() {
                sim.attach_arrivals(link, sink, Box::new(Silent(source)), first_at(i));
            }
        }
        let t0 = Instant::now();
        sim.run_until(SPAN);
        (t0.elapsed(), firings)
    });
    println!(
        "link_pull_paper_path split  draw {draw:.1} + merge {:.1} + FIFO {:.1} ns \
         (Pareto total {:.1}, CBR floor {:.1})",
        draw_merge - draw,
        totals[0] - draw_merge,
        totals[0],
        totals[1],
    );
}

fn bench_rate_search() {
    use slops::{FleetOutcome, RateSearch};
    use units::Rate;
    bench("rate_search_full_convergence", || {
        let mut s = RateSearch::new(
            Rate::from_mbps(120.0),
            Rate::from_mbps(1.0),
            Rate::from_mbps(1.5),
            None,
        );
        while let Some(r) = s.next_rate() {
            let outcome = if r.mbps() > 47.3 {
                FleetOutcome::AboveAvailBw
            } else {
                FleetOutcome::BelowAvailBw
            };
            s.record(r, outcome);
        }
        s.bounds()
    });
}

fn bench_fluid() {
    use fluid::{FluidLink, FluidPath};
    use units::Rate;
    let path = FluidPath::new(
        (0..10)
            .map(|i| {
                FluidLink::new(
                    Rate::from_mbps(100.0 - i as f64),
                    Rate::from_mbps(50.0 - i as f64),
                )
            })
            .collect(),
    );
    bench("fluid_owds_k100_h10", || {
        path.owds(Rate::from_mbps(60.0), 500, 100)
    });
}

fn main() {
    bench_trend_stats();
    bench_prng();
    bench_event_loop();
    bench_link_pull();
    bench_rate_search();
    bench_fluid();
}

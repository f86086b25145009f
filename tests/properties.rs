//! Property-based tests (proptest) on the core invariants, spanning
//! crates: trend statistics, the rate search, the session over the oracle
//! transport, the fluid model, and the simulator's FIFO discipline.

use availbw::fluid::{FluidLink, FluidPath};
use availbw::slops::testutil::OracleTransport;
use availbw::slops::{pct_metric, pdt_metric, FleetOutcome, RateSearch, Session, SlopsConfig};
use availbw::units::Rate;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// PCT is always a fraction in [0, 1]; PDT always in [-1, 1].
    #[test]
    fn trend_metrics_stay_in_range(medians in prop::collection::vec(-1e9f64..1e9, 2..40)) {
        let pct = pct_metric(&medians).unwrap();
        prop_assert!((0.0..=1.0).contains(&pct));
        if let Some(pdt) = pdt_metric(&medians) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&pdt));
        }
    }

    /// Strictly increasing medians always give the extreme statistics.
    #[test]
    fn monotone_series_maximizes_both_metrics(
        start in -1e6f64..1e6,
        steps in prop::collection::vec(1e-3f64..1e6, 3..30),
    ) {
        let mut medians = vec![start];
        for s in &steps {
            medians.push(medians.last().unwrap() + s);
        }
        prop_assert_eq!(pct_metric(&medians).unwrap(), 1.0);
        prop_assert!((pdt_metric(&medians).unwrap() - 1.0).abs() < 1e-9);
    }

    /// The grey-aware bisection always terminates against an arbitrary
    /// (even adversarial) verdict sequence, keeps its bounds ordered, and
    /// never needs more than a modest number of fleets.
    #[test]
    fn rate_search_always_terminates(verdicts in prop::collection::vec(0u8..4, 0..64)) {
        let mut s = RateSearch::new(
            Rate::from_mbps(120.0),
            Rate::from_mbps(1.0),
            Rate::from_mbps(1.5),
            Some(Rate::from_mbps(120.0)),
        );
        let mut i = 0;
        let mut fleets = 0;
        while let Some(r) = s.next_rate() {
            fleets += 1;
            prop_assert!(fleets <= 256, "runaway search");
            let outcome = match verdicts.get(i).copied().unwrap_or(0) % 4 {
                0 => FleetOutcome::AboveAvailBw,
                1 => FleetOutcome::BelowAvailBw,
                2 => FleetOutcome::Grey,
                _ => FleetOutcome::AbortedLossy,
            };
            i += 1;
            s.record(r, outcome);
            let (lo, hi) = s.bounds();
            prop_assert!(lo.bps() <= hi.bps() + 1e-6);
            if let Some((glo, ghi)) = s.grey_bounds() {
                prop_assert!(lo.bps() <= glo.bps() + 1e-6);
                prop_assert!(glo.bps() <= ghi.bps() + 1e-6);
                prop_assert!(ghi.bps() <= hi.bps() + 1e-6);
            }
        }
    }

    /// Against a truthful oracle with arbitrary avail-bw, the binary
    /// search brackets it within resolution.
    #[test]
    fn rate_search_brackets_truthful_oracle(a_mbps in 2.0f64..110.0) {
        let mut s = RateSearch::new(
            Rate::from_mbps(120.0),
            Rate::from_mbps(1.0),
            Rate::from_mbps(1.5),
            None,
        );
        while let Some(r) = s.next_rate() {
            let outcome = if r.mbps() > a_mbps {
                FleetOutcome::AboveAvailBw
            } else {
                FleetOutcome::BelowAvailBw
            };
            s.record(r, outcome);
        }
        let (lo, hi) = s.bounds();
        prop_assert!(lo.mbps() <= a_mbps && a_mbps <= hi.mbps());
        prop_assert!((hi - lo).mbps() <= 1.0 + 1e-9);
    }

    /// The full session over the synthetic oracle brackets the avail-bw
    /// for arbitrary avail-bw, clock offset, and mild loss.
    #[test]
    fn session_brackets_oracle_avail_bw(
        a_mbps in 5.0f64..100.0,
        offset in -1_000_000_000i64..1_000_000_000,
        seed in 0u64..1000,
    ) {
        let mut t = OracleTransport::new(Rate::from_mbps(a_mbps), seed);
        t.clock_offset_ns = offset;
        let est = Session::new(SlopsConfig::default()).run(&mut t).unwrap();
        prop_assert!(
            est.low.mbps() <= a_mbps + 1.5 && a_mbps - 1.5 <= est.high.mbps(),
            "A={} reported [{}, {}]", a_mbps, est.low, est.high
        );
    }

    /// Fluid model: exit rate never exceeds entry rate, never drops below
    /// the path avail-bw when probing above it, and the OWD slope is
    /// positive exactly when R > A.
    #[test]
    fn fluid_rate_recursion_invariants(
        caps in prop::collection::vec(1.0f64..1000.0, 1..8),
        utils in prop::collection::vec(0.0f64..0.95, 8),
        r_mbps in 0.5f64..500.0,
    ) {
        let links: Vec<FluidLink> = caps
            .iter()
            .zip(&utils)
            .map(|(c, u)| FluidLink::new(Rate::from_mbps(*c), Rate::from_mbps(c * (1.0 - u))))
            .collect();
        let path = FluidPath::new(links);
        let r = Rate::from_mbps(r_mbps);
        let a = path.avail_bw();
        let out = path.exit_rate(r);
        prop_assert!(out.bps() <= r.bps() + 1e-6);
        if r.bps() > a.bps() {
            prop_assert!(out.bps() >= a.bps() - 1e-6, "exit {} < avail {}", out, a);
            prop_assert!(path.owd_slope(r, 1000) > 0.0);
        } else {
            prop_assert!((out.bps() - r.bps()).abs() < 1e-6);
            prop_assert_eq!(path.owd_slope(r, 1000), 0.0);
        }
        // Rates along the path are non-increasing hop over hop.
        let rates = path.rates_along(r);
        for w in rates.windows(2) {
            prop_assert!(w[1].bps() <= w[0].bps() + 1e-6);
        }
    }

    /// Simulator FIFO discipline: same-flow packets injected in order are
    /// delivered in order, whatever the sizes and spacings.
    #[test]
    fn simulator_preserves_per_flow_fifo(
        sizes in prop::collection::vec(40u32..1500, 2..50),
        gaps_us in prop::collection::vec(0u64..500, 50),
    ) {
        use availbw::netsim::app::RecordingSink;
        use availbw::netsim::{FlowId, LinkConfig, Packet, Simulator};
        use availbw::units::TimeNs;
        let mut sim = Simulator::new(9);
        let l1 = sim.add_link(LinkConfig::new(Rate::from_mbps(10.0), TimeNs::from_millis(1)));
        let l2 = sim.add_link(LinkConfig::new(Rate::from_mbps(7.0), TimeNs::from_millis(2)));
        let sink = sim.add_app(Box::new(RecordingSink::default()));
        let route = sim.route(&[l1, l2], sink);
        let mut t = TimeNs::ZERO;
        for (i, size) in sizes.iter().enumerate() {
            t += TimeNs::from_micros(gaps_us[i % gaps_us.len()]);
            sim.inject(Packet::new(*size, FlowId(1), i as u64, route.clone()), t);
        }
        sim.run_until_idle(TimeNs::from_secs(60));
        let rec = &sim.app::<RecordingSink>(sink).records;
        prop_assert_eq!(rec.len(), sizes.len());
        for (i, r) in rec.iter().enumerate() {
            prop_assert_eq!(r.seq, i as u64);
        }
        for w in rec.windows(2) {
            prop_assert!(w[0].recv_at <= w[1].recv_at);
        }
    }
}

/// What the model believes about one armed timer entry.
#[cfg(target_os = "linux")]
struct ModelEntry {
    deadline: u64,
    token: u64,
    cancelled: bool,
    popped: bool,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Model-based check of `mux::TimerQueue`'s generation cancellation
    /// under random arm/cancel/pop interleavings (the structure the
    /// evented receiver hangs every silence window on): a cancelled entry
    /// is never popped, a cancel never kills an entry armed *later* under
    /// the same (reused) generation, pops within one drain never invert
    /// deadlines, nothing expired-and-live is left behind by a drain, and
    /// the queue drains to empty. `mux` is Linux-only, like every socket
    /// module.
    #[cfg(target_os = "linux")]
    #[test]
    fn timer_queue_generations_never_pop_cancelled_entries(
        ops in prop::collection::vec((0u8..3, 0u64..1_000, 1u64..8), 1..200),
    ) {
        use availbw::pathload_net::mux::TimerQueue;
        let mut q = TimerQueue::new();
        let mut model: Vec<(u64, ModelEntry)> = Vec::new(); // (generation, entry)
        let mut now = 0u64;
        let mut next_token = 0u64;
        for &(op, value, generation) in &ops {
            match op {
                // Arm at an absolute deadline (possibly already past).
                0 => {
                    next_token += 1;
                    q.arm_with_generation(value, next_token, generation);
                    model.push((generation, ModelEntry {
                        deadline: value,
                        token: next_token,
                        cancelled: false,
                        popped: false,
                    }));
                }
                // Cancel a generation: everything armed under it so far
                // dies; entries armed under it LATER must survive.
                1 => {
                    q.cancel_generation(generation);
                    for (g, e) in model.iter_mut() {
                        if *g == generation && !e.popped {
                            e.cancelled = true;
                        }
                    }
                }
                // Advance time and drain everything expired.
                _ => {
                    now += value;
                    let mut last_deadline = 0u64;
                    while let Some((token, deadline)) = q.pop_expired_at(now) {
                        prop_assert!(deadline <= now, "popped an unexpired entry");
                        prop_assert!(
                            deadline >= last_deadline,
                            "pops inverted deadlines within a drain"
                        );
                        last_deadline = deadline;
                        let (_, entry) = model
                            .iter_mut()
                            .find(|(_, e)| e.token == token)
                            .expect("popped a token that was never armed");
                        prop_assert!(!entry.popped, "entry popped twice");
                        prop_assert!(!entry.cancelled, "popped a cancelled entry");
                        prop_assert_eq!(entry.deadline, deadline, "deadline mangled");
                        entry.popped = true;
                    }
                    // The drain is exhaustive: nothing live and expired remains.
                    for (_, e) in &model {
                        prop_assert!(
                            e.popped || e.cancelled || e.deadline > now,
                            "drain left a live expired entry behind"
                        );
                    }
                }
            }
        }
        // Final drain: every surviving (non-cancelled) entry pops, the
        // cancelled ones are reaped, and the queue ends empty.
        while let Some((token, _)) = q.pop_expired_at(u64::MAX) {
            let (_, entry) = model
                .iter_mut()
                .find(|(_, e)| e.token == token)
                .expect("popped a token that was never armed");
            prop_assert!(!entry.popped && !entry.cancelled);
            entry.popped = true;
        }
        prop_assert!(q.is_empty(), "queue did not drain to empty");
        for (_, e) in &model {
            prop_assert!(e.popped || e.cancelled, "a live entry was lost");
        }
    }
}

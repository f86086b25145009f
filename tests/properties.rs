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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Model-based check of `pacing::TimerQueue` (the one keyed queue
    /// every event loop's deadlines share) against a model holding one
    /// `(deadline, allowance, arming order)` per key, under random arms,
    /// re-arms (as armed, later, and back to an earlier deadline),
    /// disarms, peeks and advances of time: no entry pops before its deadline,
    /// live entries pop in (deadline, arming order) whatever their
    /// allowance, so a key re-armed earlier never fires twice and a re-arm
    /// as armed keeps its tie place; `disarm` says whether the key was
    /// live; the head reports its own allowance; a drain leaves no expired
    /// entry behind; the heap holds at most `2 × live + 1` entries after
    /// every step; and the queue drains to empty.
    #[test]
    fn timer_queue_pops_in_deadline_then_arming_order(
        ops in prop::collection::vec((0u8..7, 0u64..1_000, 0u8..4, 0u64..8), 1..200),
    ) {
        use availbw::pathload_net::pacing::TimerQueue;
        use std::collections::BTreeMap;
        let mut q = TimerQueue::new();
        // Each live key's (deadline, allowance, arming order).
        let mut model: BTreeMap<u64, (u64, u64, u64)> = BTreeMap::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        // The model's earliest live `(deadline, arming order, key, allowance)`.
        let head = |model: &BTreeMap<u64, (u64, u64, u64)>| {
            model.iter().map(|(&k, &(d, a, s))| (d, s, k, a)).min()
        };
        for &(op, value, kind, key) in &ops {
            let allowance = [0, 15_000, value * 100, 300_000][usize::from(kind)];
            let armed = model.get(&key).copied();
            // The (deadline, allowance) a re-arm asks for: as armed, later,
            // or back to an earlier deadline (a fresh arm if the key is not
            // live); `None` for the steps that arm nothing.
            let arm = match (op, armed) {
                // Arm at an absolute deadline (possibly already past).
                (0, _) | (1..=3, None) => Some((value, allowance)),
                (1, Some((d, a, _))) => Some((d, a)),
                (2, Some((d, a, _))) => Some((d + value + 1, a)),
                (3, Some((d, a, _))) => Some((d.saturating_sub(value + 1), a)),
                _ => None,
            };
            if let Some((deadline, allowance)) = arm {
                q.arm_within(deadline, allowance, key);
                if armed.is_none_or(|(d, a, _)| (d, a) != (deadline, allowance)) {
                    seq += 1;
                    model.insert(key, (deadline, allowance, seq));
                }
            } else if op == 4 {
                prop_assert_eq!(q.disarm(key), model.remove(&key).is_some(), "disarm's answer");
            } else if op == 5 {
                // Advance time and pop everything expired, as a loop's turn
                // does: no peek between pops, so a pop meets the stale
                // entries that arms and disarms left at the head.
                now += value;
                while let Some(token) = q.pop_expired(now) {
                    let (deadline, _, first, _) = head(&model).expect("popped from an empty queue");
                    prop_assert!(deadline <= now, "popped an unexpired entry");
                    prop_assert_eq!(token, first, "not the earliest live (deadline, arming order) entry");
                    model.remove(&token);
                }
                prop_assert_eq!(q.next_entry(), head(&model).map(|(d, _, _, a)| (d, a)));
                prop_assert!(
                    model.values().all(|&(d, _, _)| d > now),
                    "a drain left an expired entry behind"
                );
            } else {
                // Peek, as a loop's plan does, past what arms and disarms
                // left at the head.
                prop_assert_eq!(q.next_entry(), head(&model).map(|(d, _, _, a)| (d, a)));
            }
            prop_assert_eq!(q.pending(), model.len(), "live entries");
            prop_assert!(
                q.held() <= 2 * q.pending() + 1,
                "{} heap entries for {} live",
                q.held(),
                q.pending()
            );
        }
        // Final drain: every live entry pops once, and the queue ends empty.
        while let Some(token) = q.pop_expired(u64::MAX) {
            prop_assert!(model.remove(&token).is_some(), "popped a key not live");
        }
        prop_assert!(q.next_entry().is_none() && model.is_empty(), "queue did not drain to empty");
        prop_assert_eq!(q.held(), 0);
    }

    /// The spin window learns in bounded steps: whatever a loop measures
    /// — sleeps that woke on time, late, or `u64::MAX` late, deadlines
    /// spun without a sleep — the window stays in `MIN_NS..=MAX_NS` and
    /// one sample moves it by at most one step: up by `UP / STEP` of
    /// itself (9/64, ~14 %), down by `1 / STEP`. So a stall widens it no
    /// more than any late wake-up does: from the floor it takes 13 stalls
    /// in a row to reach a 100 µs stream's spacing.
    #[test]
    fn spin_window_moves_one_bounded_step_per_sample(
        samples in prop::collection::vec((0u8..4, any::<u64>()), 1..400),
    ) {
        use availbw::pathload_net::pacing::SpinWindow;
        const STALLS_TO_THE_SPACING: u32 = 13;
        let (floor, cap) = (SpinWindow::MIN_NS, SpinWindow::MAX_NS);
        let mut w = SpinWindow::new();
        for &(kind, x) in &samples {
            let before = w.ns();
            match kind {
                0 => w.spun(),
                1 => w.slept(u64::MAX),
                2 => w.slept(x % 100_000),
                _ => w.slept(x),
            }
            let after = w.ns();
            prop_assert!((floor..=cap).contains(&after), "window {} out of bounds", after);
            prop_assert!(
                after <= before + before * SpinWindow::UP / SpinWindow::STEP
                    && after >= before - before / SpinWindow::STEP,
                "one sample moved the window from {} to {} ns", before, after
            );
        }
        while w.ns() > floor {
            w.spun();
        }
        let mut stalls = 0;
        while w.ns() < 100_000 {
            w.slept(u64::MAX);
            stalls += 1;
        }
        prop_assert_eq!(stalls, STALLS_TO_THE_SPACING);
    }

    /// Model-based check of `pacing::TimerPlan`, paced and sleep-only, on
    /// one random script of arms (deadlines from now on, allowances from
    /// exact to past the widest window), loop turns, oversleeps and I/O,
    /// carried out as an event loop carries out the plan: no timer is due
    /// before its deadline; due timers come out in (deadline, arming
    /// order); the spin never ends after the earliest pending deadline; a
    /// sleep-only plan never spins; the window stays within its bounds.
    #[test]
    fn timer_plan_never_fires_early_and_never_spins_past_the_head(
        ops in prop::collection::vec((0u8..4, 0u64..2_000_000, 0u8..4), 1..300),
    ) {
        use availbw::pathload_net::pacing::{SpinWindow, TimerPlan};
        for sleep_only in [false, true] {
            let mut plan = if sleep_only { TimerPlan::sleep_only() } else { TimerPlan::paced() };
            // (deadline, token = arming order), not yet due.
            let mut pending: Vec<(u64, u64)> = Vec::new();
            let (mut now, mut next_token) = (0u64, 0u64);
            for &(op, value, kind) in &ops {
                if op == 0 {
                    next_token += 1;
                    let allowance = [0, 15_000, 150_000, 1_000_000][usize::from(kind)];
                    plan.arm(now + value / 2, allowance, next_token);
                    pending.push((now + value / 2, next_token));
                    continue;
                }
                // One loop turn. The sleep ends late by a draw from the
                // script; with nothing pending it ends at the host's
                // longest wait; I/O may end it 1 ns before the earliest
                // deadline, before the spin.
                let wait = plan.plan(now);
                let head = pending.iter().map(|&(d, _)| d).min();
                prop_assert!(
                    wait.spin_until.is_none_or(|s| head.is_some_and(|h| s <= h)),
                    "the spin ends after the earliest deadline"
                );
                let io = op == 2;
                let by_timer = match wait.sleep_until {
                    Some(at) if head.is_none() => {
                        prop_assert_eq!(at, u64::MAX);
                        now += value;
                        false
                    }
                    Some(at) if io => {
                        now = now.max(head.unwrap_or(now).saturating_sub(1));
                        now >= at
                    }
                    Some(at) => {
                        now = now.max(at) + value / [1, 10, 100, 1_000][usize::from(kind)];
                        true
                    }
                    None => false,
                };
                if let Some(until) = plan.woke(now, by_timer, io) {
                    prop_assert!(!sleep_only, "a sleep-only plan spun");
                    prop_assert!(head.is_some_and(|h| until <= h), "spun past the head");
                    now = now.max(until);
                }
                for (token, lag) in plan.due(now) {
                    let first = pending.iter().copied().min_by_key(|&(d, t)| (d, t));
                    let (deadline, t) = first.expect("a token never armed");
                    prop_assert_eq!(token, t, "not the earliest (deadline, arming order) timer");
                    prop_assert!(deadline <= now, "timer {} due before its deadline", token);
                    prop_assert_eq!(lag, now - deadline);
                    pending.retain(|&(_, t)| t != token);
                }
                prop_assert!(pending.iter().all(|&(d, _)| d > now), "a due timer left behind");
                prop_assert!(
                    (SpinWindow::MIN_NS..=SpinWindow::MAX_NS).contains(&plan.wake_error_ns()),
                    "window out of bounds"
                );
            }
        }
    }
}

//! The fleet scheduler: staggered, capped measurement starts on a
//! deterministic tick grid.
//!
//! The scheduler is **sans-IO**, like the session machine underneath it:
//! it never reads a clock and never touches a transport. Drivers ask it
//! what to do ([`Scheduler::poll`]) and tell it what happened
//! ([`Scheduler::on_complete`]); every decision is a pure function of the
//! configuration and the completion times fed back. Because start instants
//! are quantized to the [`TICK`] grid, the event-driven in-sim driver and
//! the thread-backed blocking driver — which observe completions at
//! different granularities — still issue byte-identical schedules, which is
//! what the driver-equivalence test in `tests/fleet_monitoring.rs` pins.
//!
//! Policy:
//!
//! * path `i`'s first measurement is due at
//!   `t0 + i·period/N + U[0, jitter)` — staggered so a fleet of N paths
//!   spreads its probing instead of phase-locking;
//! * each later measurement is due `period` after the previous one
//!   *started* (an overrunning measurement pushes the schedule back rather
//!   than bursting to catch up);
//! * at most `max_concurrent` measurements run at once — concurrent probe
//!   streams self-interfere on shared links (§IV: pathload's own load is
//!   capped per path; a fleet must cap across paths too);
//! * a start is issued at `max(due, own previous completion, earliest free
//!   slot)`, rounded **up** to the tick grid;
//! * no measurement starts at or after the horizon.
//!
//! Bookkeeping does not grow with the fleet: the idle paths are kept
//! ordered by `(due, path)` and the free slots by their free instant, so
//! [`Scheduler::poll`] and [`Scheduler::on_complete`] cost O(log N),
//! [`Scheduler::running`] and [`Scheduler::is_done`] O(1), and
//! [`Scheduler::backlog`] O(log N + backlog) — the fleet drivers call them
//! around every completion (thread driver) or every wake-up (event loop).

use netsim::Prng;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};
use units::TimeNs;

/// Scheduling decisions are quantized to this grid (anchored at the
/// scheduler's `t0`). Coarse enough that any driver can observe a
/// completion within one tick; fine enough to be irrelevant against
/// measurement periods of seconds.
pub const TICK: TimeNs = TimeNs::from_millis(50);

/// Index of a monitored path within a fleet.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PathId(pub u32);

/// Fleet scheduling knobs.
#[derive(Clone, Debug)]
pub struct ScheduleConfig {
    /// Target start-to-start spacing of consecutive measurements on one
    /// path. Zero means back-to-back.
    pub period: TimeNs,
    /// Uniform random addition in `[0, jitter)` to each path's initial
    /// offset (drawn once per path from `seed`), so restarts of the same
    /// fleet don't phase-align with other periodic load.
    pub jitter: TimeNs,
    /// Maximum measurements in flight at once; `0` means unlimited.
    pub max_concurrent: usize,
    /// Seed of the jitter draw.
    pub seed: u64,
}

impl Default for ScheduleConfig {
    fn default() -> Self {
        ScheduleConfig {
            period: TimeNs::from_secs(30),
            jitter: TimeNs::from_secs(2),
            max_concurrent: 0,
            seed: 0x6D6F_6E64, // "mond"
        }
    }
}

/// What a driver should do next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Poll {
    /// Start a measurement on `path` at instant `at` (on the tick grid,
    /// never before the knowledge that produced it).
    Start {
        /// The path to measure.
        path: PathId,
        /// The start instant.
        at: TimeNs,
    },
    /// Nothing can start until a running measurement completes; drive the
    /// substrate forward and report completions.
    Blocked,
    /// Every path has reached the horizon and nothing is running.
    Done,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PathState {
    Idle,
    Running,
    Finished,
}

/// The sans-IO fleet scheduler. See the module docs for the policy.
#[derive(Debug)]
pub struct Scheduler {
    t0: TimeNs,
    horizon: TimeNs,
    period: TimeNs,
    /// Next due start per path.
    due: Vec<TimeNs>,
    state: Vec<PathState>,
    /// Completion time of each path's latest measurement (`t0` initially).
    own_free: Vec<TimeNs>,
    /// The idle paths, ordered by `(due, path)`: the next start is the
    /// first entry (ties go to the lowest path id).
    idle: BTreeSet<(TimeNs, u32)>,
    /// The instants the free concurrency slots freed up, earliest on top.
    /// Slots are interchangeable: only how many are free, and since when,
    /// decides a start.
    free_slots: BinaryHeap<Reverse<TimeNs>>,
    /// How many paths are running now, and how many have finished for
    /// good (the fleet is done when all of them have).
    running: usize,
    finished: usize,
    /// Measurements started so far (for reporting).
    started: u64,
    /// Measurements that completed past their successor's due instant
    /// (the run was longer than the period and pushed its own schedule).
    overruns: u64,
}

impl Scheduler {
    /// Create a scheduler for `n_paths` paths. Measurements are scheduled
    /// from `t0` and no start is issued at or after `horizon`.
    pub fn new(n_paths: usize, t0: TimeNs, horizon: TimeNs, cfg: &ScheduleConfig) -> Scheduler {
        assert!(n_paths > 0, "a fleet needs at least one path");
        let mut rng = Prng::new(cfg.seed);
        let due: Vec<TimeNs> = (0..n_paths)
            .map(|i| {
                let stagger = TimeNs::from_nanos(cfg.period.as_nanos() * i as u64 / n_paths as u64);
                let jitter = if cfg.jitter.is_zero() {
                    TimeNs::ZERO
                } else {
                    TimeNs::from_nanos(rng.below(cfg.jitter.as_nanos()))
                };
                t0 + stagger + jitter
            })
            .collect();
        // `collect` sorts, then bulk-builds the set in O(N).
        let idle = due.iter().zip(0u32..).map(|(&d, p)| (d, p)).collect();
        let slots = if cfg.max_concurrent == 0 {
            n_paths
        } else {
            cfg.max_concurrent.min(n_paths)
        };
        Scheduler {
            t0,
            horizon,
            period: cfg.period,
            due,
            state: vec![PathState::Idle; n_paths],
            own_free: vec![t0; n_paths],
            idle,
            free_slots: vec![Reverse(t0); slots].into(),
            running: 0,
            finished: 0,
            started: 0,
            overruns: 0,
        }
    }

    /// Retire idle path `p` (already removed from `idle`) for good.
    fn finish(&mut self, p: usize) {
        self.state[p] = PathState::Finished;
        self.finished += 1;
    }

    /// Round `t` **up** to the tick grid anchored at `t0`: the instant at
    /// which a driver ticking on the grid learns of an event at `t`.
    /// Drivers that batch completions must group them by this boundary
    /// (feed one group, re-poll, feed the next) to stay byte-identical
    /// with a driver that observes completions tick by tick.
    pub fn tick_boundary(&self, t: TimeNs) -> TimeNs {
        if t <= self.t0 {
            return self.t0;
        }
        let d = (t - self.t0).as_nanos();
        let tick = TICK.as_nanos();
        self.t0 + TimeNs::from_nanos(d.div_ceil(tick) * tick)
    }

    /// Ask for the next action. Returns each pending [`Poll::Start`]
    /// exactly once; drivers call this in a loop until it yields
    /// [`Poll::Blocked`] (drive the substrate, feed completions, retry) or
    /// [`Poll::Done`].
    pub fn poll(&mut self) -> Poll {
        loop {
            // The idle path with the earliest due start (ties: lowest id).
            let Some(&(due, id)) = self.idle.first() else {
                return if self.running > 0 {
                    Poll::Blocked
                } else {
                    Poll::Done
                };
            };
            let path = id as usize;
            if due >= self.horizon {
                self.idle.pop_first();
                self.finish(path);
                continue;
            }
            // The earliest-freeing free slot.
            let Some(&Reverse(slot_free)) = self.free_slots.peek() else {
                return Poll::Blocked; // all slots occupied
            };
            let at = self.tick_boundary(due.max(self.own_free[path]).max(slot_free));
            self.idle.pop_first();
            if at >= self.horizon {
                self.finish(path);
                continue;
            }
            self.free_slots.pop();
            self.state[path] = PathState::Running;
            self.running += 1;
            self.due[path] = at + self.period;
            self.started += 1;
            return Poll::Start {
                path: PathId(id),
                at,
            };
        }
    }

    /// Report that `path`'s running measurement finished at `finished_at`.
    pub fn on_complete(&mut self, path: PathId, finished_at: TimeNs) {
        let p = path.0 as usize;
        assert_eq!(
            self.state[p],
            PathState::Running,
            "completion for a path that is not running"
        );
        self.free_slots.push(Reverse(finished_at));
        self.own_free[p] = finished_at;
        self.state[p] = PathState::Idle;
        self.running -= 1;
        self.idle.insert((self.due[p], path.0));
        // `due[p]` was advanced to start + period at issue time; finishing
        // past it means this run alone delayed the path's next start.
        if finished_at > self.due[p] {
            self.overruns += 1;
        }
    }

    /// Stop issuing new starts (graceful shutdown): the horizon collapses
    /// to `t0`, so every idle path is finished immediately and a path that
    /// completes later finishes on its next `poll`. Measurements already
    /// running are **not** interrupted — drivers let them complete and
    /// still report them via [`Scheduler::on_complete`], so the data
    /// collected so far stays intact.
    pub fn shutdown(&mut self) {
        self.horizon = self.t0;
        for (_, p) in std::mem::take(&mut self.idle) {
            self.finish(p as usize);
        }
    }

    /// True once every path has reached the horizon and nothing runs.
    pub fn is_done(&self) -> bool {
        self.finished == self.state.len()
    }

    /// Measurements started so far.
    pub fn started(&self) -> u64 {
        self.started
    }

    /// Measurements currently running (the fleet's active-session count).
    /// Deterministic — a pure function of the completions fed back — so
    /// every driver mirrors the very same value into its gauges.
    pub fn running(&self) -> usize {
        self.running
    }

    /// Idle paths whose next start is due at or before `now` — the depth
    /// of the wait queue a driver would see if it polled at `now` (paths
    /// held back by the concurrency cap or their own previous run).
    pub fn backlog(&self, now: TimeNs) -> usize {
        self.idle.range(..=(now, u32::MAX)).count()
    }

    /// Completions observed so far that landed past the path's next due
    /// start (the measurement ran longer than the period).
    pub fn overruns(&self) -> u64 {
        self.overruns
    }

    /// The scheduling epoch `t0`.
    pub fn t0(&self) -> TimeNs {
        self.t0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(period_s: u64, jitter_s: u64, cap: usize) -> ScheduleConfig {
        ScheduleConfig {
            period: TimeNs::from_secs(period_s),
            jitter: TimeNs::from_secs(jitter_s),
            max_concurrent: cap,
            seed: 42,
        }
    }

    /// Run the schedule to completion assuming every measurement takes
    /// `dur`; returns (path, at) in issue order.
    fn drain(mut s: Scheduler, dur: TimeNs) -> Vec<(u32, TimeNs)> {
        let mut out = Vec::new();
        loop {
            match s.poll() {
                Poll::Start { path, at } => {
                    out.push((path.0, at));
                    s.on_complete(path, at + dur);
                }
                Poll::Blocked => unreachable!("completions are fed synchronously"),
                Poll::Done => break,
            }
        }
        out
    }

    #[test]
    fn staggers_initial_offsets() {
        let s = Scheduler::new(4, TimeNs::ZERO, TimeNs::from_secs(100), &cfg(40, 0, 0));
        // Without jitter, offsets are i * period / N.
        assert_eq!(
            s.due,
            vec![
                TimeNs::ZERO,
                TimeNs::from_secs(10),
                TimeNs::from_secs(20),
                TimeNs::from_secs(30),
            ]
        );
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let mk = || Scheduler::new(8, TimeNs::ZERO, TimeNs::from_secs(1000), &cfg(40, 5, 0));
        let (a, b) = (mk(), mk());
        assert_eq!(a.due, b.due, "same seed, same offsets");
        for (i, d) in a.due.iter().enumerate() {
            let base = TimeNs::from_secs(5 * i as u64);
            assert!(*d >= base && *d < base + TimeNs::from_secs(5));
        }
    }

    #[test]
    fn periodic_starts_on_the_tick_grid() {
        let s = Scheduler::new(2, TimeNs::ZERO, TimeNs::from_secs(100), &cfg(20, 3, 0));
        let starts = drain(s, TimeNs::from_secs(4));
        assert!(starts.len() >= 8, "got {} starts", starts.len());
        for (_, at) in &starts {
            assert_eq!(at.as_nanos() % TICK.as_nanos(), 0, "{at} off-grid");
            assert!(*at < TimeNs::from_secs(100));
        }
        // Per path, consecutive starts are >= period apart (quantized up).
        for p in 0..2u32 {
            let mine: Vec<TimeNs> = starts
                .iter()
                .filter(|(q, _)| *q == p)
                .map(|&(_, a)| a)
                .collect();
            for w in mine.windows(2) {
                assert!(w[1] - w[0] >= TimeNs::from_secs(20));
            }
        }
    }

    #[test]
    fn concurrency_cap_serializes_overlapping_runs() {
        // 3 paths due at once, cap 1, runs of 10 s: strictly sequential.
        let s = Scheduler::new(3, TimeNs::ZERO, TimeNs::from_secs(25), &cfg(0, 0, 1));
        let mut s = s;
        let mut intervals: Vec<(TimeNs, TimeNs)> = Vec::new();
        loop {
            match s.poll() {
                Poll::Start { path, at } => {
                    let end = at + TimeNs::from_secs(10);
                    intervals.push((at, end));
                    s.on_complete(path, end);
                }
                Poll::Blocked => unreachable!(),
                Poll::Done => break,
            }
        }
        for w in intervals.windows(2) {
            assert!(w[1].0 >= w[0].1, "overlap: {w:?}");
        }
    }

    #[test]
    fn overrunning_path_never_overlaps_itself() {
        // Period 5 s but runs take 12 s: starts are 12+ s apart, no burst.
        let s = Scheduler::new(1, TimeNs::ZERO, TimeNs::from_secs(60), &cfg(5, 0, 0));
        let starts = drain(s, TimeNs::from_secs(12));
        assert!(starts.len() >= 4);
        for w in starts.windows(2) {
            assert!(w[1].1 - w[0].1 >= TimeNs::from_secs(12));
        }
    }

    #[test]
    fn horizon_stops_the_fleet() {
        let s = Scheduler::new(2, TimeNs::ZERO, TimeNs::from_secs(30), &cfg(10, 0, 0));
        let starts = drain(s, TimeNs::from_secs(1));
        assert!(starts.iter().all(|(_, at)| *at < TimeNs::from_secs(30)));
        // 2 paths * 3 periods within [0, 30).
        assert_eq!(starts.len(), 6);
    }

    #[test]
    fn shutdown_before_any_start_is_done_immediately() {
        let mut s = Scheduler::new(
            3,
            TimeNs::from_secs(5),
            TimeNs::from_secs(100),
            &cfg(10, 1, 0),
        );
        s.shutdown();
        assert_eq!(s.poll(), Poll::Done);
        assert!(s.is_done());
        assert_eq!(s.started(), 0);
    }

    #[test]
    fn shutdown_lets_running_measurements_complete() {
        let mut s = Scheduler::new(2, TimeNs::ZERO, TimeNs::from_secs(100), &cfg(10, 0, 1));
        let Poll::Start { path, at } = s.poll() else {
            panic!("expected a start")
        };
        s.shutdown();
        // The running measurement is not interrupted: the scheduler waits
        // for its completion, then finishes without issuing new starts.
        assert_eq!(s.poll(), Poll::Blocked);
        assert!(!s.is_done());
        s.on_complete(path, at + TimeNs::from_secs(3));
        assert_eq!(s.poll(), Poll::Done);
        assert!(s.is_done());
        assert_eq!(s.started(), 1, "no start may be issued after shutdown");
    }

    /// The telemetry accessors (`running`, `backlog`, `overruns`) are pure
    /// functions of the fed-back completions, so thread and async drivers
    /// mirror identical gauge values.
    #[test]
    fn telemetry_accessors_track_the_schedule() {
        let mut s = Scheduler::new(3, TimeNs::ZERO, TimeNs::from_secs(100), &cfg(10, 0, 1));
        assert_eq!(s.running(), 0);
        assert_eq!(s.backlog(TimeNs::ZERO), 1, "path 0 is due at t0");
        assert_eq!(s.backlog(TimeNs::from_secs(7)), 3, "all staggers passed");
        let Poll::Start { path, at } = s.poll() else {
            panic!("expected a start")
        };
        assert_eq!(s.running(), 1);
        assert_eq!(s.poll(), Poll::Blocked, "cap 1 holds the rest back");
        // Finish after the path's next due instant (period 10 s, run 12 s):
        // one overrun.
        assert_eq!(s.overruns(), 0);
        s.on_complete(path, at + TimeNs::from_secs(12));
        assert_eq!(s.running(), 0);
        assert_eq!(s.overruns(), 1);
        // A short run is not an overrun.
        let Poll::Start { path, at } = s.poll() else {
            panic!("expected a start")
        };
        s.on_complete(path, at + TimeNs::from_secs(2));
        assert_eq!(s.overruns(), 1);
    }

    #[test]
    fn blocked_when_capped_done_when_finished() {
        let mut s = Scheduler::new(2, TimeNs::ZERO, TimeNs::from_secs(10), &cfg(8, 0, 1));
        let Poll::Start { path, at } = s.poll() else {
            panic!("expected a start")
        };
        assert_eq!(s.poll(), Poll::Blocked, "cap 1: second path must wait");
        s.on_complete(path, at + TimeNs::from_secs(2));
        assert!(matches!(s.poll(), Poll::Start { .. }));
        assert!(!s.is_done());
    }

    /// The scan-based scheduler the ordered sets replaced: every query
    /// walks all paths and slots. Kept as the reference the real one must
    /// match decision for decision.
    struct ScanScheduler {
        t0: TimeNs,
        horizon: TimeNs,
        period: TimeNs,
        due: Vec<TimeNs>,
        state: Vec<PathState>,
        own_free: Vec<TimeNs>,
        slots: Vec<Option<TimeNs>>,
        slot_of: Vec<usize>,
        started: u64,
        overruns: u64,
    }

    impl ScanScheduler {
        fn new(n_paths: usize, t0: TimeNs, horizon: TimeNs, cfg: &ScheduleConfig) -> Self {
            let mut rng = Prng::new(cfg.seed);
            let due = (0..n_paths)
                .map(|i| {
                    let stagger =
                        TimeNs::from_nanos(cfg.period.as_nanos() * i as u64 / n_paths as u64);
                    let jitter = if cfg.jitter.is_zero() {
                        TimeNs::ZERO
                    } else {
                        TimeNs::from_nanos(rng.below(cfg.jitter.as_nanos()))
                    };
                    t0 + stagger + jitter
                })
                .collect();
            let slots = if cfg.max_concurrent == 0 {
                n_paths
            } else {
                cfg.max_concurrent.min(n_paths)
            };
            ScanScheduler {
                t0,
                horizon,
                period: cfg.period,
                due,
                state: vec![PathState::Idle; n_paths],
                own_free: vec![t0; n_paths],
                slots: vec![Some(t0); slots],
                slot_of: vec![usize::MAX; n_paths],
                started: 0,
                overruns: 0,
            }
        }

        fn tick_boundary(&self, t: TimeNs) -> TimeNs {
            if t <= self.t0 {
                return self.t0;
            }
            let d = (t - self.t0).as_nanos();
            let tick = TICK.as_nanos();
            self.t0 + TimeNs::from_nanos(d.div_ceil(tick) * tick)
        }

        fn poll(&mut self) -> Poll {
            loop {
                let Some(path) = (0..self.due.len())
                    .filter(|&p| self.state[p] == PathState::Idle)
                    .min_by_key(|&p| (self.due[p], p))
                else {
                    return if self.state.contains(&PathState::Running) {
                        Poll::Blocked
                    } else {
                        Poll::Done
                    };
                };
                if self.due[path] >= self.horizon {
                    self.state[path] = PathState::Finished;
                    continue;
                }
                let Some(slot) = (0..self.slots.len())
                    .filter(|&s| self.slots[s].is_some())
                    .min_by_key(|&s| self.slots[s])
                else {
                    return Poll::Blocked;
                };
                let slot_free = self.slots[slot].expect("slot is free");
                let at = self.tick_boundary(self.due[path].max(self.own_free[path]).max(slot_free));
                if at >= self.horizon {
                    self.state[path] = PathState::Finished;
                    continue;
                }
                self.slots[slot] = None;
                self.slot_of[path] = slot;
                self.state[path] = PathState::Running;
                self.due[path] = at + self.period;
                self.started += 1;
                return Poll::Start {
                    path: PathId(path as u32),
                    at,
                };
            }
        }

        fn on_complete(&mut self, path: PathId, finished_at: TimeNs) {
            let p = path.0 as usize;
            assert_eq!(self.state[p], PathState::Running);
            self.slots[self.slot_of[p]] = Some(finished_at);
            self.slot_of[p] = usize::MAX;
            self.own_free[p] = finished_at;
            self.state[p] = PathState::Idle;
            if finished_at > self.due[p] {
                self.overruns += 1;
            }
        }

        fn shutdown(&mut self) {
            self.horizon = self.t0;
            for s in &mut self.state {
                if *s == PathState::Idle {
                    *s = PathState::Finished;
                }
            }
        }

        fn is_done(&self) -> bool {
            self.state.iter().all(|s| *s == PathState::Finished)
        }

        fn running(&self) -> usize {
            self.state
                .iter()
                .filter(|s| **s == PathState::Running)
                .count()
        }

        fn backlog(&self, now: TimeNs) -> usize {
            (0..self.due.len())
                .filter(|&p| self.state[p] == PathState::Idle && self.due[p] <= now)
                .count()
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// Random fleets (1–300 paths, any period and jitter, caps from
        /// unlimited to N) driven by random interleavings of polls and
        /// completions — in any order, some overrunning their period —
        /// with a shutdown at a random step: both schedulers issue the
        /// same `Poll` sequence and report the same accessors throughout.
        #[test]
        fn ordered_sets_match_the_scan_reference(
            n in 1usize..301,
            period_ms in 0u64..20_000,
            jitter_ms in 0u64..5_000,
            cap_draw in 0usize..302,
            horizon_s in 1u64..120,
            seed in proptest::any::<u64>(),
        ) {
            let cfg = ScheduleConfig {
                period: TimeNs::from_millis(period_ms),
                jitter: TimeNs::from_millis(jitter_ms),
                max_concurrent: cap_draw % (n + 1),
                seed,
            };
            let t0 = TimeNs::from_millis(seed % 10_000);
            let horizon = t0 + TimeNs::from_secs(horizon_s);
            let mut fast = Scheduler::new(n, t0, horizon, &cfg);
            let mut scan = ScanScheduler::new(n, t0, horizon, &cfg);
            let mut rng = Prng::new(seed ^ 0x5EED);
            let shutdown_at = rng.below(8 * n as u64 + 64);
            let mut running: Vec<(PathId, TimeNs)> = Vec::new();
            let mut latest = t0;
            for step in 0.. {
                if step == shutdown_at {
                    fast.shutdown();
                    scan.shutdown();
                }
                if running.is_empty() || rng.below(3) > 0 {
                    let got = fast.poll();
                    proptest::prop_assert_eq!(got, scan.poll(), "step {}", step);
                    match got {
                        Poll::Start { path, at } => running.push((path, at)),
                        Poll::Done => break,
                        Poll::Blocked => {}
                    }
                }
                // Complete some running measurement (any of them, not
                // necessarily the earliest), 0 to 2 periods + 3 s long.
                if !running.is_empty() && rng.below(2) == 0 {
                    let (path, at) = running.swap_remove(rng.below(running.len() as u64) as usize);
                    let long = 2 * period_ms + 3_000;
                    let done = at + TimeNs::from_millis(rng.below(long));
                    latest = latest.max(done);
                    fast.on_complete(path, done);
                    scan.on_complete(path, done);
                }
                let probe = t0 + TimeNs::from_millis(rng.below(horizon_s * 1_000 + 5_000));
                for now in [t0, latest, probe] {
                    proptest::prop_assert_eq!(fast.backlog(now), scan.backlog(now), "step {}", step);
                }
                proptest::prop_assert_eq!(fast.running(), scan.running(), "step {}", step);
                proptest::prop_assert_eq!(fast.started(), scan.started);
                proptest::prop_assert_eq!(fast.overruns(), scan.overruns);
                proptest::prop_assert_eq!(fast.is_done(), scan.is_done(), "step {}", step);
            }
            proptest::prop_assert!(fast.is_done() && scan.is_done());
        }
    }
}

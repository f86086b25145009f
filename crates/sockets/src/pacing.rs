//! Absolute-deadline timers: when an event loop sleeps, spins and fires.
//!
//! Periodic streams are defined by *absolute* send deadlines `t0 + i·T`;
//! sleeping for relative intervals accumulates drift and context-switch
//! error. A userspace sleep also wakes late by an amount the program does
//! not choose (timer slack, scheduler latency, a busy host), so a pacer
//! sleeps until shortly before the deadline and spins the remainder.
//! [`SpinWindow`] is how late a sleep wakes (a high quantile of it),
//! learned in bounded steps. A deadline may carry a *lateness allowance*:
//! how late its packet may leave without §IV's spacing check minding. The
//! spin covers only the part of the wake-up error the allowance does not
//! ([`spin_start`]), so a deadline fires within its allowance, and one
//! without an allowance on the deadline to the sub-µs; the spin — the
//! part that costs CPU — is never longer than the wake-up error.
//!
//! [`TimerPlan`] is that policy for one loop's deadlines, sans-IO: it
//! answers in values, and `mux::EventLoop` carries the answers out with
//! epoll, a timerfd and a spin loop. (Why an own loop, not an async
//! runtime: ARCHITECTURE.md § Performance notes.)

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Where a pacer's sleep toward `deadline_ns` ends and its spin begins:
/// one `window_ns` of wake-up error before the deadline, less the part of
/// it the deadline's `allowance_ns` absorbs. A window inside the
/// allowance is slept to the deadline itself; an allowance of 0 spins the
/// whole window.
pub const fn spin_start(deadline_ns: u64, window_ns: u64, allowance_ns: u64) -> u64 {
    deadline_ns.saturating_sub(window_ns.saturating_sub(allowance_ns))
}

/// How long before a deadline a pacer stops sleeping and starts spinning.
///
/// Pure arithmetic over the pacer's own measurements; there is no knob.
/// The window tracks a high quantile of how late the loop's sleeps wake,
/// in bounded steps of a [`STEP`](SpinWindow::STEP)th of itself: a sleep
/// that woke past the window raises it by [`UP`](SpinWindow::UP) steps,
/// any other lowers it by one, so it settles where about one sleep in
/// `UP + 1` wakes past it (p90). A deadline served without a sleep
/// ([`SpinWindow::spun`]) lowers it by one step too, since a window wider
/// than the deadline spacing would otherwise never sleep again, and so
/// never learn. A stall — a preempted sleep, however long — is one step
/// up like any late wake-up: the spin cannot undo a wake-up that has
/// already come late, so a window widened to cover stalls would only
/// spin whole gaps for nothing. The window starts at
/// [`MAX_NS`](SpinWindow::MAX_NS), so the first deadlines are as safe as
/// a fixed window, and stays within
/// [`MIN_NS`](SpinWindow::MIN_NS)`..=`[`MAX_NS`](SpinWindow::MAX_NS).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpinWindow {
    ns: u64,
}

impl SpinWindow {
    /// The starting window and its cap: beyond the ordinary wake-up error
    /// of a sleep on a commodity Linux host (`nanosleep` under the default
    /// 50 µs timer slack wakes ~55 µs late; the loop's timerfd 248 µs late
    /// at p99 for 20 µs–1 ms sleeps on a 2-vCPU VM beside two busy loops,
    /// `testdata/wakeups_busy.txt`).
    pub const MAX_NS: u64 = 300_000;
    /// The floor: about what one timerfd wake-up costs at the median
    /// (13–17 µs late for 20–100 µs sleeps on the idle 2-vCPU VM of
    /// `testdata/wakeups_idle.txt`). Where sleeps wake that steadily the
    /// window's quantile sits on it (the busy fixture's 100 µs sleeps). A
    /// fixed 10 µs window put the pacing-error p99 in the 32 µs bucket,
    /// beside the 30 % spacing tolerance of a 100 µs stream.
    pub const MIN_NS: u64 = 20_000;
    /// One step is `1/STEP` of the window. Fed each fixture's 100 µs
    /// sleeps four times round (the last three counted), a 64th leaves
    /// 104 ‰ (idle) and 20 ‰ (busy, at the floor) of them past the window
    /// for a mean window of 36.7 and 20.3 µs; a 16th, 120 ‰ and 20 ‰ for
    /// 38.7 and 20.8 µs: a coarser step swings wider around the same
    /// quantile.
    pub const STEP: u64 = 64;
    /// A late sleep raises the window by this many steps, an ordinary one
    /// lowers it by one: the window settles where `1/(UP + 1)` of the
    /// sleeps wake past it.
    pub const UP: u64 = 9;

    /// A window at its starting width, [`SpinWindow::MAX_NS`].
    pub const fn new() -> SpinWindow {
        SpinWindow {
            ns: SpinWindow::MAX_NS,
        }
    }

    /// The current window in nanoseconds.
    pub const fn ns(&self) -> u64 {
        self.ns
    }

    /// A sleep meant to end `window` before a deadline ended
    /// `oversleep_ns` after it was meant to.
    pub fn slept(&mut self, oversleep_ns: u64) {
        self.step(oversleep_ns > self.ns, SpinWindow::STEP);
    }

    /// A deadline was spun down without a sleep: the window was wider
    /// than the time left to it.
    pub fn spun(&mut self) {
        self.step(false, SpinWindow::STEP);
    }

    /// [`UP`](SpinWindow::UP) steps of `1/step` of the window up when
    /// `late`, one down otherwise.
    fn step(&mut self, late: bool, step: u64) {
        let ns = match late {
            true => self.ns + self.ns * SpinWindow::UP / step,
            false => self.ns - self.ns / step,
        };
        self.ns = ns.clamp(SpinWindow::MIN_NS, SpinWindow::MAX_NS);
    }
}

impl Default for SpinWindow {
    fn default() -> Self {
        SpinWindow::new()
    }
}

/// One queued timer: `(deadline, seq, token, allowance)`, ordered by
/// deadline, then arming order.
type Entry = (u64, u64, u64, u64);

/// A queue of one-shot deadline timers on a nanosecond timeline: entries
/// are `(deadline, token)`, ties expire in arming order, and an entry's
/// lateness allowance ([`TimerQueue::arm_within`]) is only stored. Nothing
/// is cancelled: a host ignores a token it no longer wants when it fires,
/// which keeps the queue a plain heap.
#[derive(Debug, Default)]
pub struct TimerQueue {
    heap: BinaryHeap<Reverse<Entry>>,
    seq: u64,
}

impl TimerQueue {
    /// An empty queue.
    pub fn new() -> TimerQueue {
        TimerQueue::default()
    }

    /// Arm a one-shot timer for `deadline_ns` carrying `token`, with no
    /// lateness allowance.
    pub fn arm(&mut self, deadline_ns: u64, token: u64) {
        self.arm_within(deadline_ns, 0, token);
    }

    /// Arm a timer for `deadline_ns` carrying `token` that may fire up to
    /// `allowance_ns` late ([`TimerQueue::next_entry`] reports it; expiry
    /// is still at the deadline).
    pub fn arm_within(&mut self, deadline_ns: u64, allowance_ns: u64, token: u64) {
        self.seq += 1;
        self.heap
            .push(Reverse((deadline_ns, self.seq, token, allowance_ns)));
    }

    /// The earliest pending `(deadline, allowance)`.
    pub fn next_entry(&self) -> Option<(u64, u64)> {
        self.heap.peek().map(|Reverse((d, _, _, s))| (*d, *s))
    }

    /// Pop the earliest timer's token if it has expired by `now_ns`.
    pub fn pop_expired(&mut self, now_ns: u64) -> Option<u64> {
        let &Reverse((deadline, _, token, _)) = self.heap.peek()?;
        if deadline > now_ns {
            return None;
        }
        let _ = self.heap.pop();
        Some(token)
    }
}

/// One turn of an event loop, as [`TimerPlan::plan`] answers it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Wait {
    /// Sleep in the poll until this instant, the loop's timer set for it
    /// (`u64::MAX`: no timer pending), unless I/O or the host's longest
    /// wait comes first. `None`: only collect the I/O that is ready.
    pub sleep_until: Option<u64>,
    /// The earliest deadline, to spin down once [`TimerPlan::woke`] says
    /// the spin began (`None`: nothing to spin for).
    pub spin_until: Option<u64>,
}

/// One event loop's timer policy: its [`TimerQueue`], its [`SpinWindow`]
/// and its kind, fixed by the constructor. A [`paced`](TimerPlan::paced)
/// plan spins what each deadline's allowance (at most
/// [`SpinWindow::MAX_NS`]) leaves of the wake-up error; a
/// [`sleep_only`](TimerPlan::sleep_only) one sleeps to every deadline,
/// each meaning "not before", and never spins.
///
/// A loop turn is [`plan`](TimerPlan::plan), the poll,
/// [`woke`](TimerPlan::woke), then [`due`](TimerPlan::due); nothing is due
/// before its deadline. The sleep is planned for the earliest deadline
/// only: on a paced plan a timer due `gap` after one with the wider
/// allowance `a` may fire up to `a − gap` late, past its own allowance,
/// when that one fires within its own.
#[derive(Debug)]
pub struct TimerPlan {
    queue: TimerQueue,
    window: SpinWindow,
    /// Every deadline is slept to, never spun for.
    sleep_only: bool,
    /// The last [`TimerPlan::plan`], which [`TimerPlan::woke`] judges.
    last: Wait,
}

impl TimerPlan {
    /// A paced plan: a sender's or a fleet's.
    pub fn paced() -> TimerPlan {
        TimerPlan {
            queue: TimerQueue::new(),
            window: SpinWindow::new(),
            sleep_only: false,
            last: Wait::default(),
        }
    }

    /// A sleep-only plan: a receiver's.
    pub fn sleep_only() -> TimerPlan {
        TimerPlan {
            sleep_only: true,
            ..TimerPlan::paced()
        }
    }

    /// Arm a timer at `deadline_ns` carrying `token` that may fire up to
    /// `allowance_ns` late; a sleep-only plan ignores the allowance.
    pub fn arm(&mut self, deadline_ns: u64, allowance_ns: u64, token: u64) {
        let allowance = if self.sleep_only {
            u64::MAX
        } else {
            allowance_ns.min(SpinWindow::MAX_NS)
        };
        self.queue.arm_within(deadline_ns, allowance, token);
    }

    /// The turn starting at `now_ns`: sleep to the earliest deadline's
    /// spin start, or, inside the window already, spin without a sleep.
    pub fn plan(&mut self, now_ns: u64) -> Wait {
        let (sleep_until, spin_until) = match self.queue.next_entry() {
            None => (Some(u64::MAX), None),
            Some((deadline, _)) if deadline <= now_ns => (None, None),
            Some((deadline, allowance)) => {
                let at = spin_start(deadline, self.window.ns(), allowance);
                let sleep = (at > now_ns).then_some(at);
                (sleep, (at < deadline).then_some(deadline))
            }
        };
        self.last = Wait {
            sleep_until,
            spin_until,
        };
        self.last
    }

    /// The poll returned at `now_ns`, woken by the loop's timer or not,
    /// with host I/O or not. The window learns from the sleep that ended
    /// (or the spin about to start without one); the answer is how far
    /// to spin — nowhere when I/O came first or the spin has not begun.
    pub fn woke(&mut self, now_ns: u64, by_timer: bool, io: bool) -> Option<u64> {
        let spin = self.last.spin_until.filter(|_| !io);
        match self.last.sleep_until {
            Some(at) => {
                if by_timer {
                    self.window.slept(now_ns.saturating_sub(at));
                }
                spin.filter(|_| now_ns >= at)
            }
            None => {
                if spin.is_some() {
                    self.window.spun();
                }
                spin
            }
        }
    }

    /// The timers due by `now_ns` as `(token, lag past the deadline)`,
    /// earliest deadline first, ties in arming order.
    pub fn due(&mut self, now_ns: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
        std::iter::from_fn(move || {
            let (deadline, _) = self.queue.next_entry()?;
            let token = self.queue.pop_expired(now_ns)?;
            Some((token, now_ns - deadline))
        })
    }

    /// How late the plan's sleeps wake, as learned: the spin window.
    pub fn wake_error_ns(&self) -> u64 {
        self.window.ns()
    }

    /// Pending timer count.
    pub fn pending(&self) -> usize {
        self.queue.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_queue_orders_by_deadline_then_arming_order() {
        let mut q = TimerQueue::new();
        q.arm(300, 3);
        q.arm(100, 1);
        q.arm(100, 2);
        q.arm_within(200, 15_000, 9);
        assert_eq!(q.next_entry(), Some((100, 0)));
        assert_eq!(q.pop_expired(99), None, "not yet expired");
        assert_eq!(q.pop_expired(100), Some(1), "ties fire in arming order");
        assert_eq!(q.pop_expired(100), Some(2));
        assert_eq!(q.pop_expired(100), None);
        assert_eq!(q.next_entry(), Some((200, 15_000)), "the head's allowance");
        assert_eq!(q.pop_expired(1_000), Some(9));
        assert_eq!(q.pop_expired(1_000), Some(3));
        assert_eq!(q.next_entry(), None);
    }

    /// The sleep lengths a wake-up trace samples, round-robin.
    const TRACE_SLEEPS_US: [u64; 6] = [20, 50, 100, 200, 500, 1_000];

    /// The nearest-rank `p`-th percentile of sorted `xs`.
    fn percentile(xs: &[u64], p: usize) -> u64 {
        xs[(xs.len() * p).div_ceil(100).max(1) - 1]
    }

    /// The header line a trace states its own distribution on.
    fn trace_stats(oversleeps: &[u64]) -> String {
        let mut xs = oversleeps.to_vec();
        xs.sort_unstable();
        format!(
            "# samples {} p50 {} ns p99 {} ns max {} ns",
            xs.len(),
            percentile(&xs, 50),
            percentile(&xs, 99),
            percentile(&xs, 100)
        )
    }

    /// Re-record the wake-up traces the replay tests read
    /// (`crates/sockets/testdata/wakeups_{idle,busy}.txt`): how late a
    /// sleep-only `mux::EventLoop` wakes past its timer's deadline, for
    /// sleeps of 20 µs to 1 ms taken round-robin, once as the host is and
    /// once beside two busy-loop shells this test starts. Run it on an
    /// otherwise idle host:
    /// `cargo test -p pathload-net --lib -- --ignored record_wakeup_traces`.
    #[cfg(target_os = "linux")]
    #[test]
    #[ignore = "re-records the checked-in wake-up traces"]
    fn record_wakeup_traces() {
        use crate::clock::MonoClock;
        use crate::mux::EventLoop;
        use std::time::Duration;
        const ROUNDS: usize = 250;
        let host = std::fs::read_to_string("/proc/cpuinfo")
            .map(|c| c.matches("processor\t").count())
            .unwrap_or(0);
        for (name, busy) in [("idle", 0), ("busy", 2)] {
            let mut shells: Vec<_> = (0..busy)
                .map(|_| {
                    std::process::Command::new("sh")
                        .args(["-c", "while :; do :; done"])
                        .spawn()
                        .expect("a busy-loop shell")
                })
                .collect();
            let clock = MonoClock::new();
            let mut lp = EventLoop::sleep_only(clock.clone()).unwrap();
            let (mut lines, mut oversleeps, mut out) = (Vec::new(), Vec::new(), Vec::new());
            for _ in 0..ROUNDS {
                for us in TRACE_SLEEPS_US {
                    let deadline = clock.now_ns() + us * 1_000;
                    lp.arm_timer(deadline, 0);
                    out.clear();
                    while out.is_empty() {
                        lp.wait(&mut out, Duration::from_millis(50)).unwrap();
                    }
                    let late = clock.now_ns() - deadline;
                    oversleeps.push(late);
                    lines.push(format!("{us} {late}"));
                }
            }
            for shell in &mut shells {
                let _ = shell.kill();
                let _ = shell.wait();
            }
            let load = match busy {
                0 => "nothing else running".to_string(),
                n => format!("{n} busy-loop shells (`while :; do :; done`) running"),
            };
            let text = format!(
                "# How late a sleep-only mux::EventLoop woke past its timer's deadline\n\
                 # (epoll + timerfd), for sleeps of 20 us to 1 ms taken round-robin, on a\n\
                 # {host}-vCPU Linux VM with {load}. Recorded by\n\
                 # `cargo test -p pathload-net --lib -- --ignored record_wakeup_traces`.\n\
                 {}\n\
                 # sleep_us oversleep_ns\n{}\n",
                trace_stats(&oversleeps),
                lines.join("\n")
            );
            let path = format!("{}/testdata/wakeups_{name}.txt", env!("CARGO_MANIFEST_DIR"));
            std::fs::write(path, text).unwrap();
        }
    }

    #[test]
    fn the_spin_covers_only_what_the_allowance_does_not() {
        // (deadline, window, allowance) → where the spin starts.
        for (window, allowance, start, case) in [
            (
                10_000,
                15_000,
                1_000_000,
                "window inside the allowance: sleep to d",
            ),
            (
                15_000,
                15_000,
                1_000_000,
                "window equal to the allowance: sleep to d",
            ),
            (
                50_000,
                15_000,
                965_000,
                "wider window: spin window − allowance",
            ),
            (50_000, 0, 950_000, "no allowance: spin the whole window"),
            (SpinWindow::MAX_NS, 0, 700_000, "the starting window, exact"),
        ] {
            assert_eq!(spin_start(1_000_000, window, allowance), start, "{case}");
        }
        assert_eq!(spin_start(5_000, 50_000, 15_000), 0, "saturates at 0");
    }

    #[test]
    fn the_window_starts_at_its_cap_and_waits_for_a_sample() {
        assert_eq!(SpinWindow::new().ns(), 300_000);
        // A paced loop that wakes with nothing armed, or for I/O before
        // its spin began, has measured nothing: the window stays put.
        let mut plan = TimerPlan::paced();
        let _ = plan.plan(0);
        assert_eq!(plan.woke(1_000_000, false, false), None);
        plan.arm(10_000_000, 0, 1);
        let _ = plan.plan(2_000_000);
        assert_eq!(plan.woke(3_000_000, false, true), None);
        assert_eq!(plan.wake_error_ns(), SpinWindow::MAX_NS);
        // The first sample moves it, one step.
        assert_eq!(fed(1, 0).ns(), 300_000 - 300_000 / SpinWindow::STEP);
    }

    /// A window fed `n` sleeps of `oversleep_ns` each.
    fn fed(n: usize, oversleep_ns: u64) -> SpinWindow {
        let mut w = SpinWindow::new();
        for _ in 0..n {
            w.slept(oversleep_ns);
        }
        w
    }

    #[test]
    fn small_oversleeps_shrink_it_to_the_floor() {
        let mut w = SpinWindow::new();
        let mut last = w.ns();
        for _ in 0..400 {
            w.slept(6_000);
            assert!(w.ns() <= last, "a small oversleep widened the window");
            last = w.ns();
        }
        assert_eq!(w.ns(), SpinWindow::MIN_NS);
        // Gradually, a step of a 64th at a time: 173 sleeps from the cap.
        assert_eq!(fed(172, 6_000).ns(), 20_017);
        assert_eq!(fed(173, 6_000).ns(), SpinWindow::MIN_NS);
    }

    /// A steady oversleep: the window closes in on it and then swings
    /// within a step of it, one sleep in about ten waking past it.
    #[test]
    fn it_shrinks_toward_the_measured_oversleep() {
        let mut w = fed(400, 40_000);
        assert_eq!(w.ns(), 39_658);
        let (mut lo, mut hi, mut late) = (u64::MAX, 0, 0);
        for _ in 0..1_000 {
            late += u64::from(40_000 > w.ns());
            w.slept(40_000);
            (lo, hi) = (lo.min(w.ns()), hi.max(w.ns()));
        }
        assert_eq!((lo, hi, late), (39_380, 45_619, 107));
    }

    #[test]
    fn one_late_wake_up_widens_it_at_once() {
        let mut w = fed(400, 5_000);
        assert_eq!(w.ns(), SpinWindow::MIN_NS);
        w.slept(35_000); // past the 20 µs window: late, up one step
        assert_eq!(w.ns(), 20_000 + 20_000 * 9 / 64);
        w.slept(1_000_000); // a preempted sleep: one step as well
        assert_eq!(w.ns(), 22_812 + 22_812 * 9 / 64);
        w.slept(u64::MAX);
        assert_eq!(w.ns(), 29_677);
    }

    /// A window wider than a 100 µs stream's spacing sleeps through none
    /// of its gaps: the spun deadlines alone bring it below the spacing.
    #[test]
    fn deadlines_spun_without_a_sleep_relax_it_too() {
        let mut w = SpinWindow::new();
        let mut spins = 0;
        while w.ns() >= 100_000 {
            let before = w.ns();
            w.spun();
            assert_eq!(w.ns(), before - before / SpinWindow::STEP);
            spins += 1;
        }
        assert_eq!((spins, w.ns()), (70, 99_644));
    }

    #[test]
    fn a_preempted_sleep_does_not_strand_it_wide() {
        let mut w = fed(400, 5_000);
        w.slept(1_000_000); // preempted for a millisecond
        assert!(w.ns() < 2 * SpinWindow::MIN_NS, "stranded at {} ns", w.ns());
        // Nine ordinary sleeps, or spun deadlines, take it back to the
        // floor.
        for _ in 0..9 {
            w.spun();
        }
        assert_eq!(w.ns(), SpinWindow::MIN_NS);
    }

    /// A first sleep that overshoots the starting window leaves the
    /// window at its cap, wider than a 100 µs stream's spacing, so only
    /// spun deadlines follow; they bring it below that spacing in the
    /// same 70, however late the sleep was. The first sleep that is not
    /// late then lowers it one step more.
    #[test]
    fn a_late_first_sleep_does_not_strand_it_at_the_cap() {
        for oversleep in [SpinWindow::MAX_NS + 1, 1_000_000, 50_000_000, u64::MAX] {
            let mut w = SpinWindow::new();
            w.slept(oversleep);
            assert_eq!(w.ns(), SpinWindow::MAX_NS, "late by {oversleep} ns");
            let mut spins = 0;
            while w.ns() >= 100_000 {
                w.spun();
                spins += 1;
            }
            assert_eq!(spins, 70, "after {oversleep} ns");
            w.slept(30_000);
            assert_eq!(w.ns(), 99_644 - 99_644 / 64, "after {oversleep} ns");
        }
    }

    #[test]
    fn it_never_leaves_its_bounds() {
        let mut w = SpinWindow::new();
        // A deterministic mix of tiny, typical, late and absurd samples.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            match x % 4 {
                0 => w.slept(x % 1_000),
                1 => w.slept(x % 50_000),
                2 => w.slept(x),
                _ => w.spun(),
            }
            assert!((SpinWindow::MIN_NS..=SpinWindow::MAX_NS).contains(&w.ns()));
        }
        for _ in 0..40 {
            w.slept(u64::MAX);
        }
        assert_eq!(w.ns(), SpinWindow::MAX_NS);
        for _ in 0..400 {
            w.slept(0);
        }
        assert_eq!(w.ns(), SpinWindow::MIN_NS);
    }

    // ---- replay of recorded wake-ups --------------------------------------

    const IDLE: &str = include_str!("../testdata/wakeups_idle.txt");
    const BUSY: &str = include_str!("../testdata/wakeups_busy.txt");

    /// A recorded wake-up trace (`record_wakeup_traces`).
    struct Trace {
        /// `(sleep_ns, oversleep_ns)` in recorded order.
        samples: Vec<(u64, u64)>,
        /// How many samples of each sleep length the replay has used.
        used: [usize; TRACE_SLEEPS_US.len()],
        /// The oversleep the next sleep takes instead of a recorded one.
        late_next: Option<u64>,
    }

    impl Trace {
        fn parse(text: &str) -> Trace {
            let samples = text
                .lines()
                .filter(|l| !l.starts_with('#'))
                .map(|l| {
                    let (sleep, late) = l.split_once(' ').expect("`sleep_us oversleep_ns`");
                    (sleep.parse::<u64>().unwrap() * 1_000, late.parse().unwrap())
                })
                .collect();
            Trace {
                samples,
                used: [0; TRACE_SLEEPS_US.len()],
                late_next: None,
            }
        }

        /// The oversleeps of sleeps of `sleep_us` (all when `None`).
        fn oversleeps(&self, sleep_us: Option<u64>) -> Vec<u64> {
            let sleep_ns = sleep_us.map(|us| us * 1_000);
            let of = |s: &u64| sleep_ns.is_none_or(|ns| ns == *s);
            self.samples
                .iter()
                .filter(|(s, _)| of(s))
                .map(|&(_, x)| x)
                .collect()
        }

        /// How late a sleep of `sleep_ns` wakes: the next recorded
        /// oversleep of the nearest sampled length, round and round.
        fn oversleep(&mut self, sleep_ns: u64) -> u64 {
            if let Some(late) = self.late_next.take() {
                return late;
            }
            let (i, us) = TRACE_SLEEPS_US
                .iter()
                .enumerate()
                .min_by_key(|&(_, &us)| (us * 1_000).abs_diff(sleep_ns))
                .unwrap();
            let xs = self.oversleeps(Some(*us));
            self.used[i] += 1;
            xs[(self.used[i] - 1) % xs.len()]
        }
    }

    /// A train of timers: every `period`, one timer per `(offset,
    /// allowance)`, each period's armed as the last of the one before
    /// fires — as a session arms its next deadline when one pops.
    struct Train<'a> {
        periods: u64,
        period: u64,
        arms: &'a [(u64, u64)],
    }

    /// What the replay of a [`Train`] did.
    #[derive(Debug, Default)]
    struct Run {
        /// Virtual time from the first arm to the last fire.
        wall_ns: u64,
        /// How much of it the loop spun.
        spin_ns: u64,
        /// Loop turns (`mux::EventLoop::wait` calls).
        turns: u64,
        /// Timers fired.
        timers: u64,
        /// Fires past their allowance.
        late: u64,
        /// Each fire's lag past its deadline, in deadline order.
        lags: Vec<u64>,
        /// The window after each fire.
        windows: Vec<u64>,
    }

    impl Run {
        /// Spun share of the wall time, in parts per million.
        fn spin_ppm(&self) -> u64 {
            self.spin_ns * 1_000_000 / self.wall_ns
        }

        /// The window when the train was over.
        fn window_ns(&self) -> u64 {
            *self.windows.last().unwrap()
        }
    }

    /// Serve `train` through `plan` from `start` on a virtual clock whose
    /// sleeps end as late as `trace` says, carrying out each [`Wait`] as
    /// `mux::EventLoop::wait` does, with no I/O: what is due goes out,
    /// the sleep ends at `sleep_until` plus an oversleep, the spin runs to
    /// what [`TimerPlan::woke`] answers, and what is due goes out. Every
    /// timer must fire in deadline order and never before its deadline.
    fn replay(plan: &mut TimerPlan, trace: &mut Trace, train: &Train, start: u64) -> Run {
        let t0 = start + 1_000_000;
        let per = train.arms.len() as u64;
        let deadline =
            |token: u64| t0 + token / per * train.period + train.arms[(token % per) as usize].0;
        let mut run = Run::default();
        let arm_period = |plan: &mut TimerPlan, k: u64| {
            for (j, &(_, allowance)) in train.arms.iter().enumerate() {
                let token = k * per + j as u64;
                plan.arm(deadline(token), allowance, token);
            }
        };
        let fire = |plan: &mut TimerPlan, run: &mut Run, now: u64| {
            let due: Vec<_> = plan.due(now).collect();
            for (token, lag) in due {
                assert_eq!(token, run.timers, "timers fire in deadline order");
                assert!(now >= deadline(token), "timer {token} fired early");
                assert_eq!(lag, now - deadline(token), "timer {token}'s lag");
                run.late += u64::from(lag > train.arms[(token % per) as usize].1);
                run.lags.push(lag);
                run.windows.push(plan.wake_error_ns());
                run.timers += 1;
                if run.timers.is_multiple_of(per) && run.timers < train.periods * per {
                    arm_period(plan, run.timers / per);
                }
            }
        };
        arm_period(plan, 0);
        let mut now = start;
        while run.timers < train.periods * per {
            run.turns += 1;
            let wait = plan.plan(now);
            fire(plan, &mut run, now);
            if let Some(at) = wait.sleep_until {
                assert!(at < u64::MAX, "a train always has a timer pending");
                // The loop's timer fires no sooner than 1 ns out.
                now = now.max(at) + trace.oversleep(at.saturating_sub(now));
            }
            if let Some(until) = plan.woke(now, wait.sleep_until.is_some(), false) {
                run.spin_ns += until.saturating_sub(now);
                now = now.max(until);
            }
            fire(plan, &mut run, now);
        }
        run.wall_ns = now - start;
        run
    }

    /// A train of `periods` timers `period` apart, one per `arms` entry
    /// each period.
    fn train(periods: u64, period: u64, arms: &[(u64, u64)]) -> Train<'_> {
        Train {
            periods,
            period,
            arms,
        }
    }

    /// Replay `train` on a fresh `plan` over each fixture: idle, busy.
    fn on_both(plan: fn() -> TimerPlan, train: &Train) -> [Run; 2] {
        [IDLE, BUSY].map(|text| replay(&mut plan(), &mut Trace::parse(text), train, 0))
    }

    #[test]
    fn each_trace_states_its_own_distribution() {
        for text in [IDLE, BUSY] {
            let stated = text.lines().find(|l| l.starts_with("# samples")).unwrap();
            assert_eq!(stated, trace_stats(&Trace::parse(text).oversleeps(None)));
        }
    }

    /// A 100 µs pacing train armed exact, a deadline at a time. Per
    /// fixture, `(spun share ppm, loop turns, late fires, window at the
    /// end)` for 400 timers.
    #[test]
    fn timers_never_fire_early_and_the_loop_sleeps() {
        let [idle, busy] = on_both(TimerPlan::paced, &train(400, 100_000, &[(0, 0)]));
        for run in [&idle, &busy] {
            // The loop sleeps through most of the train: under 70 % of
            // the wall time spun, the bound the live test held it to.
            assert!(run.spin_ppm() < 700_000, "spun: {run:?}");
            // About one loop turn serves each timer (a very late wake-up
            // serves several in one).
            assert!(2 * run.turns <= 3 * run.timers, "turns: {run:?}");
            // The window learned from the wake-ups: it ends the train below
            // its starting cap.
            assert!(run.window_ns() < SpinWindow::MAX_NS, "nothing learned");
        }
        let got = [&idle, &busy].map(|r| (r.spin_ppm(), r.turns, r.late, r.window_ns()));
        assert_eq!(
            got,
            [(373_414, 388, 54, 51_547), (338_865, 399, 10, 20_000)]
        );
    }

    /// A 1 ms train armed with a 150 µs allowance (a 1 ms stream's under
    /// the default spacing tolerance) against the same train armed exact:
    /// the allowance absorbs the wake-up error the exact train spins out.
    /// Per fixture, `(spun ppm within, spun ppm exact, late within, late
    /// exact)` for 100 timers.
    #[test]
    fn timers_with_an_allowance_never_fire_early_and_spin_less() {
        let within = on_both(TimerPlan::paced, &train(100, 1_000_000, &[(0, 150_000)]));
        let exact = on_both(TimerPlan::paced, &train(100, 1_000_000, &[(0, 0)]));
        let got = [0, 1].map(|i| {
            let (w, e) = (&within[i], &exact[i]);
            (w.spin_ppm(), e.spin_ppm(), w.late, e.late)
        });
        for (w, e) in within.iter().zip(&exact) {
            assert!(w.spin_ns < e.spin_ns, "within {w:?}\nexact {e:?}");
        }
        assert_eq!(got, [(54_783, 180_877, 17, 13), (30_330, 181_445, 4, 5)]);
    }

    /// Sleep-only timers 1 ms apart: never spun for, one loop turn each,
    /// and their oversleeps train the window. Per fixture, `(ns spun, loop
    /// turns, window at the end)` for 20 timers.
    #[test]
    fn sleep_only_timers_never_fire_early_and_never_spin() {
        let runs = on_both(
            TimerPlan::sleep_only,
            &train(20, 1_000_000, &[(0, u64::MAX)]),
        );
        for run in &runs {
            assert!(run.window_ns() < SpinWindow::MAX_NS, "nothing learned");
        }
        let got = runs.each_ref().map(|r| (r.spin_ns, r.turns, r.window_ns()));
        assert_eq!(got, [(0, 20, 257_733), (0, 20, 253_706)]);
    }

    /// The live case: a 100 µs stream's deadlines armed with the default
    /// 15 µs allowance (`tx::Due::Paced` at a 0.3 spacing tolerance). Per
    /// fixture, `(spun share ppm, late fires)` for 2 000 timers. The rule
    /// before the window moved in bounded steps — widen to twice a late
    /// wake-up, relax toward twice a smoothed oversleep — read (567 503,
    /// 323) idle and (268 868, 46) busy; the spin must stay at a third of
    /// that or less.
    #[test]
    fn a_paced_100us_stream_spins_little_and_fires_within_its_allowance() {
        let runs = on_both(TimerPlan::paced, &train(2_000, 100_000, &[(0, 15_000)]));
        for (run, before) in runs.iter().zip([567_503, 268_868]) {
            assert!(3 * run.spin_ppm() <= before, "spun: {run:?}");
        }
        let got = runs.each_ref().map(|r| (r.spin_ppm(), r.late));
        assert_eq!(got, [(110_051, 407), (47_257, 63)]);
    }

    /// One wake-up as late as the worst a fixture recorded (9.7 ms idle,
    /// 5.1 ms busy), in a 100 µs exact train: the window moves one step,
    /// nowhere near the spacing, so the deadlines after it are slept
    /// toward, not spun in full. Per fixture, after 200 timers of warm-up:
    /// `(window before the stall, window after it, widest over the next
    /// 200 timers)`.
    #[test]
    fn the_worst_recorded_stall_never_widens_it_to_the_spacing() {
        let spacing = 100_000;
        let got = [IDLE, BUSY].map(|text| {
            let (mut plan, mut trace) = (TimerPlan::paced(), Trace::parse(text));
            let warm = replay(&mut plan, &mut trace, &train(200, spacing, &[(0, 0)]), 0);
            trace.late_next = trace.oversleeps(None).into_iter().max();
            let after = replay(
                &mut plan,
                &mut trace,
                &train(200, spacing, &[(0, 0)]),
                warm.wall_ns,
            );
            let widest = after.windows.iter().copied().max().unwrap();
            assert!(widest < spacing, "widened to {widest} ns");
            (warm.window_ns(), after.windows[0], widest)
        });
        assert_eq!(got, [(47_942, 54_683, 54_683), (20_000, 22_812, 22_943)]);
    }

    /// A timer armed exact 10 µs behind one with a 150 µs allowance: when
    /// the sleep for the first ends inside its allowance and past the
    /// second's deadline, both fire on that wake-up, so the second is late
    /// by up to 150 − 10 µs — the bound ARCHITECTURE.md states — while the
    /// first fires within its allowance. Per fixture, over 100 such pairs
    /// 1 ms apart: `(pairs where the first fired within its allowance, how
    /// many of those fired the second late, its worst lag then)`.
    #[test]
    fn a_timer_behind_a_wider_allowance_fires_within_that_allowance() {
        let (a, gap) = (150_000, 10_000);
        let runs = on_both(
            TimerPlan::paced,
            &train(100, 1_000_000, &[(0, a), (gap, 0)]),
        );
        let got = runs.each_ref().map(|r| {
            let on_time: Vec<_> = r.lags.chunks(2).filter(|p| p[0] <= a).collect();
            let late: Vec<_> = on_time.iter().map(|p| p[1]).filter(|&l| l > 0).collect();
            (on_time.len(), late.len(), late.iter().copied().max())
        });
        // Within the bound: 132.9 and 46.7 µs, against 150 − 10 = 140 µs.
        assert_eq!(got, [(83, 49, Some(132_853)), (95, 63, Some(46_680))]);
    }

    /// The numbers the doc comments of [`SpinWindow`]'s constants quote,
    /// computed from the fixtures.
    #[test]
    fn the_window_constants_match_the_recorded_wake_ups() {
        let (idle, busy) = (Trace::parse(IDLE), Trace::parse(BUSY));
        let pct = |mut xs: Vec<u64>, p| {
            xs.sort_unstable();
            percentile(&xs, p)
        };
        // `MAX_NS`: the busy fixture's p99 over every sleep length.
        assert_eq!(pct(busy.oversleeps(None), 99), 248_080);
        // `MIN_NS`: the idle fixture's p50 and p99 for 20–100 µs sleeps.
        let short = [20, 50, 100].map(|us| {
            let xs = idle.oversleeps(Some(us));
            (pct(xs.clone(), 50), pct(xs, 99))
        });
        assert_eq!(
            short,
            [(13_141, 1_370_229), (14_210, 342_167), (16_818, 365_596)]
        );
        // `STEP`: a window fed each fixture's 100 µs sleeps (a 100 µs
        // stream's) four times round in recorded order, in steps of a 64th
        // or a 16th — past the first round, `(sleeps that woke past it per
        // mille, its mean in ns)`.
        let stepped = |trace: &Trace, step| {
            let xs = trace.oversleeps(Some(100));
            let (mut w, mut late, mut sum) = (SpinWindow::new(), 0, 0);
            for (i, &x) in xs.iter().cycle().take(4 * xs.len()).enumerate() {
                if i >= xs.len() {
                    late += u64::from(x > w.ns());
                    sum += w.ns();
                }
                w.step(x > w.ns(), step);
            }
            let n = 3 * xs.len() as u64;
            (late * 1_000 / n, sum / n)
        };
        let got = [&idle, &busy].map(|t| [stepped(t, SpinWindow::STEP), stepped(t, 16)]);
        assert_eq!(
            got,
            [[(104, 36_659), (120, 38_679)], [(20, 20_276), (20, 20_835)]]
        );
    }
}

//! Absolute-deadline packet pacing: sleep to shortly before the deadline,
//! spin the rest.
//!
//! Periodic streams are defined by *absolute* send deadlines `t0 + i·T`;
//! sleeping for relative intervals accumulates drift and context-switch
//! error. A userspace sleep also wakes late by an amount the program does
//! not choose (timer slack, scheduler latency, a busy host), so the pacer
//! — `mux::EventLoop::wait`, sleeping in epoll on a timerfd for every
//! deadline its loop holds — sleeps until shortly before the deadline and
//! spins the remainder. [`SpinWindow`] is how late a sleep wakes, learned
//! from the oversleep the pacer measures. A deadline may carry a
//! *lateness allowance*: how late its packet may leave without §IV's
//! spacing check minding. The spin covers only the part of
//! the wake-up error the allowance does not ([`spin_start`]), so a
//! deadline fires within its allowance, and one without an allowance on
//! the deadline to the sub-µs; the spin — the part that costs CPU — is
//! never longer than the wake-up error. (Why an own loop, not an async
//! runtime: ARCHITECTURE.md § Performance notes.)

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
/// The window starts at [`SpinWindow::MAX_NS`], at most the worst
/// ordinary wake-up error of a commodity Linux host, so the first
/// deadlines are as safe as a fixed window. Every sleep then reports its
/// oversleep ([`SpinWindow::slept`]): one that overshoots the window (a
/// late wake-up) widens it at once to twice that oversleep; any other
/// joins the smoothed oversleep, and the window moves a sixteenth of the
/// way toward twice that — as it also does for a deadline served without
/// a sleep ([`SpinWindow::spun`]), since a window wider than the deadline
/// spacing would otherwise never sleep again, and so never learn. Until
/// a sleep that was not late is measured, a late one gives the spun
/// deadlines after it the floor to relax toward, so a late first wake-up
/// cannot strand the window at its cap. It stays within
/// [`MIN_NS`](SpinWindow::MIN_NS)`..=`[`MAX_NS`](SpinWindow::MAX_NS).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpinWindow {
    ns: u64,
    /// Smoothed oversleep of the sleeps measured so far, late ones left
    /// out (`None`: none yet).
    oversleep_ns: Option<u64>,
    /// A sleep woke late: with no smoothed oversleep yet, the window
    /// relaxes toward the floor (`false`: nothing to shrink toward).
    woke_late: bool,
}

impl SpinWindow {
    /// The starting window and its cap: beyond the ordinary wake-up error
    /// of a sleep on a commodity Linux host (`nanosleep` under the default
    /// 50 µs timer slack wakes ~55 µs late, a timerfd ~90 µs late at p99
    /// for sub-ms sleeps on a busy 2-vCPU VM).
    pub const MAX_NS: u64 = 300_000;
    /// The floor: what one timerfd wake-up costs, tail included (5–7 µs
    /// late at the median, 9–37 µs at p99 for 20–100 µs sleeps on a
    /// 2-vCPU VM). Narrower windows leave the tail to the packets — a
    /// fixed 10 µs window put the pacing-error p99 in the 32 µs bucket,
    /// beside the 30 % spacing tolerance of a 100 µs stream.
    pub const MIN_NS: u64 = 20_000;
    /// The window closes `1/RELAX` of its distance to the target per
    /// deadline: slowly enough that a widening outlives the burst of late
    /// wake-ups that caused it. Replayed over the oversleeps of
    /// millisecond sleeps on a 2-vCPU VM (~20 µs at the median, ~90 µs at
    /// p99), a quarter per deadline left 5 % of wake-ups late and a
    /// sixteenth 2.7 %, for ~2 µs more spin per 80 µs sleep.
    const RELAX: u64 = 16;

    /// A window at its starting width, [`SpinWindow::MAX_NS`].
    pub const fn new() -> SpinWindow {
        SpinWindow {
            ns: SpinWindow::MAX_NS,
            oversleep_ns: None,
            woke_late: false,
        }
    }

    /// The current window in nanoseconds.
    pub const fn ns(&self) -> u64 {
        self.ns
    }

    /// A sleep meant to end `window` before a deadline ended
    /// `oversleep_ns` after it was meant to.
    pub fn slept(&mut self, oversleep_ns: u64) {
        if oversleep_ns >= self.ns {
            // Late: the spin did not cover this wake-up. Widen at once,
            // and keep the outlier out of the smoothed oversleep: a
            // preempted sleep would hold the target wide, and a window
            // wider than the deadline spacing takes no samples to undo it.
            self.ns = oversleep_ns
                .saturating_mul(2)
                .clamp(SpinWindow::MIN_NS, SpinWindow::MAX_NS);
            self.woke_late = true;
            return;
        }
        self.oversleep_ns = Some(match self.oversleep_ns {
            Some(s) if oversleep_ns >= s => s + (oversleep_ns - s) / 8,
            Some(s) => s - (s - oversleep_ns) / 8,
            None => oversleep_ns,
        });
        self.relax();
    }

    /// A deadline was spun down without a sleep: the window was wider
    /// than the time left to it.
    pub fn spun(&mut self) {
        self.relax();
    }

    /// Part of the way toward twice the smoothed oversleep (the floor
    /// while only late sleeps were measured), when that is narrower than
    /// the window (growth comes only from late wake-ups).
    fn relax(&mut self) {
        let target = match self.oversleep_ns {
            Some(s) => s
                .saturating_mul(2)
                .clamp(SpinWindow::MIN_NS, SpinWindow::MAX_NS),
            None if self.woke_late => SpinWindow::MIN_NS,
            None => return,
        };
        if target < self.ns {
            self.ns -= (self.ns - target).div_ceil(SpinWindow::RELAX);
        }
    }
}

impl Default for SpinWindow {
    fn default() -> Self {
        SpinWindow::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut w = SpinWindow::new();
        assert_eq!(w.ns(), 300_000);
        for _ in 0..100 {
            w.spun();
        }
        assert_eq!(
            w.ns(),
            SpinWindow::MAX_NS,
            "nothing measured to shrink toward"
        );
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
        // Gradually, not in one step.
        assert_eq!(
            fed(1, 6_000).ns(),
            300_000 - (300_000 - 20_000) / SpinWindow::RELAX
        );
    }

    #[test]
    fn it_shrinks_toward_twice_the_measured_oversleep() {
        assert_eq!(fed(400, 40_000).ns(), 80_000);
    }

    #[test]
    fn one_late_wake_up_widens_it_at_once() {
        let mut w = fed(400, 5_000);
        assert_eq!(w.ns(), SpinWindow::MIN_NS);
        w.slept(35_000); // past the 20 µs window: late
        assert_eq!(w.ns(), 70_000);
        w.slept(1_000_000); // a preempted sleep: capped
        assert_eq!(w.ns(), SpinWindow::MAX_NS);
    }

    #[test]
    fn deadlines_spun_without_a_sleep_relax_it_too() {
        let mut w = fed(400, 5_000);
        w.slept(60_000); // late: 120 µs, wider than a 100 µs stream's spacing
        assert_eq!(w.ns(), 120_000);
        let mut spins = 0;
        while w.ns() > 90_000 {
            w.spun();
            spins += 1;
        }
        assert!(spins <= 6, "{spins} deadlines spun before sleeping again");
    }

    #[test]
    fn a_preempted_sleep_does_not_strand_it_wide() {
        let mut w = fed(400, 5_000);
        w.slept(1_000_000); // preempted for a millisecond
        assert_eq!(w.ns(), SpinWindow::MAX_NS);
        // Too wide for any 100 µs gap to be slept: only spun deadlines
        // follow, and they bring it back to the typical oversleep's.
        for _ in 0..48 {
            w.spun();
        }
        assert!(w.ns() < 2 * SpinWindow::MIN_NS, "stranded at {} ns", w.ns());
    }

    /// A first sleep that overshoots the starting window leaves the
    /// window at its cap, wider than a 100 µs stream's spacing, so only
    /// spun deadlines follow; they bring it below that spacing within a
    /// few dozen, however late the sleep was. The first sleep that is
    /// not late is then taken at its own value.
    #[test]
    fn a_late_first_sleep_does_not_strand_it_at_the_cap() {
        for oversleep in [SpinWindow::MAX_NS, 1_000_000, 50_000_000, u64::MAX] {
            let mut w = SpinWindow::new();
            w.slept(oversleep);
            assert_eq!(w.ns(), SpinWindow::MAX_NS, "late by {oversleep} ns");
            let mut spins = 0;
            while w.ns() >= 100_000 {
                w.spun();
                spins += 1;
                assert!(
                    spins <= 48,
                    "stranded at {} ns after {oversleep} ns",
                    w.ns()
                );
            }
            w.slept(30_000);
            assert_eq!(w.oversleep_ns, Some(30_000), "after {oversleep} ns");
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
        w.slept(0);
        w.slept(u64::MAX);
        assert_eq!(w.ns(), SpinWindow::MAX_NS);
    }
}

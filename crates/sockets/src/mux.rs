//! The readiness event loop: epoll plus a deadline timer queue.
//!
//! This is the substrate of the sender's pump and the receiver: one
//! thread, one epoll instance, hundreds of registered sockets, and the
//! pacing deadlines of every stream the loop's sessions send.
//! [`EventLoop`] hands the caller a stream of [`MuxEvent`]s — I/O readiness keyed by the
//! registration token, and expired timers keyed by the token they were
//! armed with.
//!
//! The poller is epoll, called directly through the C library that `std`
//! already links on Linux — the workspace's no-new-deps rule applies to an
//! async executor exactly as it does to a config framework, and a
//! measurement tool needs none of an executor's machinery: no tasks, no
//! wakers, just readiness and deadlines.
//!
//! When to sleep, spin and fire is [`TimerPlan`]'s answer, not the
//! loop's: the loop reads the clock, sets a `timerfd` (registered in its
//! own poller under a token no host sees, since `epoll_wait` takes whole
//! milliseconds) for the instant the plan names, polls, spins to the
//! deadline the plan names, and hands out what the plan says is due.
//! Nothing is cancelled: a host ignores a timer it no longer wants when
//! it fires.

// Datapath module: a panicking branch here takes the whole fleet down,
// so `unwrap`/`expect` are denied outright (errors must travel as values).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::clock::MonoClock;
use crate::pacing::TimerPlan;
pub use crate::pacing::TimerQueue;
use std::io;
use std::os::fd::RawFd;
use std::time::Duration;
use telemetry::{Counter, Gauge, Histogram};

/// What a registered file descriptor wants to be woken for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd becomes readable.
    pub readable: bool,
    /// Wake when the fd becomes writable.
    pub writable: bool,
}

impl Interest {
    /// Readable only.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Writable only.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Readable and writable.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
    /// Registered but dormant (errors/hangups are still reported).
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };
}

/// One I/O readiness notification.
#[derive(Clone, Copy, Debug)]
pub struct IoReady {
    /// The token the fd was registered with.
    pub token: u64,
    /// The fd is readable (or in an error/hangup state).
    pub readable: bool,
    /// The fd is writable (or in an error/hangup state).
    pub writable: bool,
}

/// One event out of the loop: readiness or an expired timer.
#[derive(Clone, Copy, Debug)]
pub enum MuxEvent {
    /// A registered fd became ready.
    Io(IoReady),
    /// A timer armed with [`EventLoop::arm_timer`] expired.
    Timer {
        /// The token the timer was armed with.
        token: u64,
    },
}

#[allow(unsafe_code)] // FFI onto the epoll and timerfd syscalls of the libc std links.
mod sys {
    use std::ffi::c_long;
    use std::io;
    use std::os::fd::RawFd;

    // `struct epoll_event` is packed on x86-64 (the kernel ABI predates
    // the alignment rules) and naturally aligned elsewhere.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;

    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0x80000;
    const CLOCK_MONOTONIC: i32 = 1;
    const TFD_CLOEXEC: i32 = 0x80000;

    // `struct timespec` / `struct itimerspec`: `time_t` is a C long on
    // every Linux ABI std targets without 64-bit-time opt-ins.
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    #[repr(C)]
    struct Itimerspec {
        it_interval: Timespec,
        it_value: Timespec,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn timerfd_create(clockid: i32, flags: i32) -> i32;
        fn timerfd_settime(
            fd: i32,
            flags: i32,
            new_value: *const Itimerspec,
            old_value: *mut Itimerspec,
        ) -> i32;
        fn close(fd: i32) -> i32;
    }

    pub fn create() -> io::Result<i32> {
        // SAFETY: epoll_create1 takes no pointers; the flags value is the
        // kernel's own constant and the return is checked below.
        match unsafe { epoll_create1(EPOLL_CLOEXEC) } {
            -1 => Err(io::Error::last_os_error()),
            fd => Ok(fd),
        }
    }

    pub fn ctl(epfd: i32, op: i32, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data };
        // SAFETY: `ev` is a live, initialized EpollEvent for the whole
        // call; the kernel only reads it (and only during the call).
        match unsafe { epoll_ctl(epfd, op, fd, &mut ev) } {
            0 => Ok(()),
            _ => Err(io::Error::last_os_error()),
        }
    }

    pub fn wait(epfd: i32, buf: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            // SAFETY: the out-pointer and capacity come from the same
            // live `buf` slice; the kernel writes at most `buf.len()`
            // entries, each plain-old-data.
            let n = unsafe { epoll_wait(epfd, buf.as_mut_ptr(), buf.len() as i32, timeout_ms) };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }

    /// A one-shot timer on `CLOCK_MONOTONIC` (the clock `Instant`, and so
    /// `MonoClock`, reads), created disarmed.
    pub fn timer_create() -> io::Result<i32> {
        // SAFETY: timerfd_create takes no pointers; both arguments are the
        // kernel's own constants and the return is checked below.
        match unsafe { timerfd_create(CLOCK_MONOTONIC, TFD_CLOEXEC) } {
            -1 => Err(io::Error::last_os_error()),
            fd => Ok(fd),
        }
    }

    /// Arm timer `fd` to expire once, `after_ns` (> 0) from now. A pending
    /// expiry is cleared, so the fd stops polling readable until the new
    /// one.
    pub fn timer_set(fd: i32, after_ns: u64) -> io::Result<()> {
        let secs = c_long::try_from(after_ns / 1_000_000_000).unwrap_or(c_long::MAX);
        // Below 10^9, so it fits every C long.
        let nanos = (after_ns % 1_000_000_000) as c_long;
        let spec = Itimerspec {
            it_interval: Timespec {
                tv_sec: 0,
                tv_nsec: 0,
            },
            it_value: Timespec {
                tv_sec: secs,
                tv_nsec: nanos,
            },
        };
        // SAFETY: `spec` is a live, initialized itimerspec for the whole
        // call and the kernel only reads it; a null `old_value` is allowed
        // (the previous setting is not wanted).
        match unsafe { timerfd_settime(fd, 0, &spec, std::ptr::null_mut()) } {
            0 => Ok(()),
            _ => Err(io::Error::last_os_error()),
        }
    }

    pub fn close_fd(fd: i32) {
        // SAFETY: no pointers; the caller owns `fd` (the Poller's epoll
        // fd or the WakeTimer's timerfd, each closed exactly once on drop).
        unsafe {
            close(fd);
        }
    }
}

/// A readiness poller over epoll, the [`EventLoop`]'s. Register fds with
/// a `u64` token; `wait` reports which tokens became ready. Error/hangup
/// conditions are reported as both readable and writable, so handlers
/// attempt the I/O and surface the real `io::Error`.
#[derive(Debug)]
struct Poller {
    epfd: i32,
}

impl Poller {
    /// A fresh epoll instance.
    fn new() -> io::Result<Poller> {
        Ok(Poller {
            epfd: sys::create()?,
        })
    }

    fn events_of(interest: Interest) -> u32 {
        let mut ev = 0;
        if interest.readable {
            ev |= sys::EPOLLIN;
        }
        if interest.writable {
            ev |= sys::EPOLLOUT;
        }
        ev
    }

    /// Register `fd` under `token`, change its interest (and/or token),
    /// or remove it: `op` is `sys::EPOLL_CTL_{ADD,MOD,DEL}`.
    fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        sys::ctl(self.epfd, op, fd, Self::events_of(interest), token)
    }

    /// Wait up to `timeout` and append the hosts' readiness to `out`;
    /// true when the loop's own timer ([`WAKE_TOKEN`]) was ready.
    fn wait(&self, out: &mut Vec<MuxEvent>, timeout: Duration) -> io::Result<bool> {
        let timeout_ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
        let mut buf = [sys::EpollEvent { events: 0, data: 0 }; 64];
        let n = sys::wait(self.epfd, &mut buf, timeout_ms)?;
        let mut woke = false;
        // `wait` contracts n <= buf.len(); `take` keeps the bound out of
        // the panic path.
        for ev in buf.iter().take(n) {
            let (bits, token) = (ev.events, ev.data);
            if token == WAKE_TOKEN {
                woke = true;
                continue;
            }
            let err = bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0;
            out.push(MuxEvent::Io(IoReady {
                token,
                readable: bits & sys::EPOLLIN != 0 || err,
                writable: bits & sys::EPOLLOUT != 0 || err,
            }));
        }
        Ok(woke)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        sys::close_fd(self.epfd);
    }
}

/// The event loop's sleep: a one-shot timerfd, registered in the loop's
/// own poller, that ends an epoll sleep at a nanosecond instant.
#[derive(Debug)]
struct WakeTimer {
    fd: RawFd,
    /// The loop-clock instant the timer is armed for (`None`: never armed).
    armed: Option<u64>,
}

impl WakeTimer {
    fn new() -> io::Result<WakeTimer> {
        Ok(WakeTimer {
            fd: sys::timer_create()?,
            armed: None,
        })
    }

    /// Arm for loop-clock instant `at`, `now` being the loop clock's
    /// reading. A syscall only when `at` changed: the armed instant has
    /// not passed while it is still the one asked for.
    fn arm(&mut self, at: u64, now: u64) -> io::Result<()> {
        if self.armed != Some(at) {
            sys::timer_set(self.fd, at.saturating_sub(now).max(1))?;
            self.armed = Some(at);
        }
        Ok(())
    }
}

impl Drop for WakeTimer {
    fn drop(&mut self) {
        sys::close_fd(self.fd);
    }
}

/// The token the loop registers its [`WakeTimer`] under; never handed to
/// a host, and refused when a host asks for it.
const WAKE_TOKEN: u64 = u64::MAX;

/// The event loop: an epoll poller and a [`TimerPlan`] on one
/// [`MonoClock`].
///
/// One instance multiplexes a whole fleet: every session's control TCP and
/// probe UDP sockets are registered here, every pacing deadline and
/// scheduler start instant is a timer entry, and the host drains
/// [`EventLoop::wait`] in a loop, routing each [`MuxEvent`] by token.
#[derive(Debug)]
pub struct EventLoop {
    poller: Poller,
    /// Every deadline, and when to sleep, spin and fire for them.
    timers: TimerPlan,
    clock: MonoClock,
    /// The sleep, registered in `poller` under [`WAKE_TOKEN`].
    wake: WakeTimer,
    /// Where [`EventLoop::set_metrics`] records (`None`: nowhere).
    metrics: Option<(Counter, Histogram, Gauge)>,
}

impl EventLoop {
    /// A paced loop ([`TimerPlan::paced`]), a sender's or a fleet's, on
    /// `clock` (the fleet's shared epoch: deadlines and `TimeNs` agree).
    pub fn new(clock: MonoClock) -> io::Result<EventLoop> {
        let poller = Poller::new()?;
        let wake = WakeTimer::new()?;
        poller.ctl(sys::EPOLL_CTL_ADD, wake.fd, WAKE_TOKEN, Interest::READ)?;
        Ok(EventLoop {
            poller,
            timers: TimerPlan::paced(),
            clock,
            wake,
            metrics: None,
        })
    }

    /// A sleep-only loop — a receiver's, its timers fired not before
    /// their deadlines and never spun for ([`TimerPlan::sleep_only`]).
    pub fn sleep_only(clock: MonoClock) -> io::Result<EventLoop> {
        Ok(EventLoop {
            timers: TimerPlan::sleep_only(),
            ..EventLoop::new(clock)?
        })
    }

    /// Record loop wakeups, timer lag (a timer's deadline to the `wait`
    /// that delivered it) and the spin window into the given handles
    /// (register the same handles in a `telemetry::Registry` to expose
    /// them).
    pub fn set_metrics(&mut self, wakeups: Counter, timer_lag: Histogram, spin_window: Gauge) {
        self.metrics = Some((wakeups, timer_lag, spin_window));
        self.publish_window();
    }

    fn publish_window(&self) {
        if let Some((_, _, g)) = &self.metrics {
            g.set(i64::try_from(self.timers.wake_error_ns()).unwrap_or(i64::MAX));
        }
    }

    /// Register `fd` under `token`. Token `u64::MAX` is the loop's own
    /// and refused with `InvalidInput`.
    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        host_token(token)?;
        self.poller.ctl(sys::EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Change a registered fd's interest (token `u64::MAX` refused, as by
    /// [`EventLoop::register`]).
    pub fn set_interest(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        host_token(token)?;
        self.poller.ctl(sys::EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Remove a registered fd.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.poller.ctl(sys::EPOLL_CTL_DEL, fd, 0, Interest::NONE)
    }

    /// Arm a one-shot timer at `deadline_ns` on the loop's clock, with no
    /// lateness allowance. Timers are never cancelled: ignore the token
    /// when it no longer matters.
    pub fn arm_timer(&mut self, deadline_ns: u64, token: u64) {
        self.timers.arm(deadline_ns, 0, token);
    }

    /// Arm a timer at `deadline_ns` that may fire up to `allowance_ns`
    /// late ([`TimerPlan::arm`]), as [`EventLoop::arm_timer`] otherwise.
    pub fn arm_timer_within(&mut self, deadline_ns: u64, allowance_ns: u64, token: u64) {
        self.timers.arm(deadline_ns, allowance_ns, token);
    }

    /// How late the loop's sleeps wake, as learned from them: arm a timer
    /// on a sleep-only loop this much early to have it fire by its instant.
    pub fn wake_error_ns(&self) -> u64 {
        self.timers.wake_error_ns()
    }

    /// Pending timer count (diagnostics).
    pub fn timers_pending(&self) -> usize {
        self.timers.pending()
    }

    /// Wait for the next batch of events and append them to `out`:
    /// expired timers (earliest first) and I/O readiness. Blocks at most
    /// `max_wait` even with no timers pending, so hosts can re-check
    /// shutdown flags. May return with `out` empty (timeout); never
    /// returns I/O the caller didn't register or timers it didn't arm,
    /// and never a timer before its deadline. How long it sleeps and
    /// spins is the [`TimerPlan`]'s answer.
    pub fn wait(&mut self, out: &mut Vec<MuxEvent>, max_wait: Duration) -> io::Result<()> {
        if let Some((c, _, _)) = &self.metrics {
            c.inc();
        }
        let now = self.clock.now_ns();
        let plan = self.timers.plan(now);
        // What is due already goes out ahead of the I/O.
        self.fire(now, out);
        let timeout = match plan.sleep_until {
            Some(at) => {
                self.wake.arm(at, self.clock.now_ns())?;
                max_wait
            }
            // A timer is due or its spin began: still collect the ready
            // I/O, so a treadmill of timers cannot starve the sockets.
            None => Duration::ZERO,
        };
        let before = out.len();
        let by_timer = self.poller.wait(out, timeout)?;
        let io = out.len() > before;
        if let Some(until) = self.timers.woke(self.clock.now_ns(), by_timer, io) {
            while self.clock.now_ns() < until {
                std::hint::spin_loop();
            }
        }
        self.publish_window();
        let now = self.clock.now_ns();
        self.fire(now, out);
        Ok(())
    }

    /// Append the timers due by `now`, recording their lag.
    fn fire(&mut self, now: u64, out: &mut Vec<MuxEvent>) {
        for (token, lag) in self.timers.due(now) {
            if let Some((_, h, _)) = &self.metrics {
                h.observe(lag);
            }
            out.push(MuxEvent::Timer { token });
        }
    }
}

/// Refuse the loop's own token to a host.
fn host_token(token: u64) -> io::Result<()> {
    if token == WAKE_TOKEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "token u64::MAX is reserved for the event loop's own timer",
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    /// Tests that drive the kernel: epoll, the timerfd, real sockets.
    mod linux {
        use super::super::*;
        use std::io::Write;
        use std::net::{TcpListener, TcpStream};
        use std::os::fd::AsRawFd;

        #[test]
        fn poller_reports_readability_by_token() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let mut tx = TcpStream::connect(addr).unwrap();
            let (rx, _) = listener.accept().unwrap();
            rx.set_nonblocking(true).unwrap();

            let poller = Poller::new().unwrap();
            poller
                .ctl(sys::EPOLL_CTL_ADD, rx.as_raw_fd(), 77, Interest::READ)
                .unwrap();

            let mut out = Vec::new();
            poller.wait(&mut out, Duration::from_millis(20)).unwrap();
            assert!(out.is_empty(), "nothing written yet");

            tx.write_all(b"ping").unwrap();
            let mut out = Vec::new();
            poller.wait(&mut out, Duration::from_secs(2)).unwrap();
            assert!(
                matches!(out[..], [MuxEvent::Io(r)] if r.token == 77 && r.readable),
                "{out:?}"
            );
        }

        #[test]
        fn poller_interest_can_be_modified_and_removed() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let mut tx = TcpStream::connect(addr).unwrap();
            let (rx, _) = listener.accept().unwrap();
            rx.set_nonblocking(true).unwrap();

            let poller = Poller::new().unwrap();
            poller
                .ctl(sys::EPOLL_CTL_ADD, rx.as_raw_fd(), 1, Interest::NONE)
                .unwrap();
            tx.write_all(b"x").unwrap();
            let mut out = Vec::new();
            poller.wait(&mut out, Duration::from_millis(20)).unwrap();
            assert!(out.is_empty(), "dormant interest must not wake");

            poller
                .ctl(sys::EPOLL_CTL_MOD, rx.as_raw_fd(), 2, Interest::READ)
                .unwrap();
            let mut out = Vec::new();
            poller.wait(&mut out, Duration::from_secs(2)).unwrap();
            assert!(
                matches!(out[..], [MuxEvent::Io(r)] if r.token == 2),
                "the token travels with the modify: {out:?}"
            );

            poller
                .ctl(sys::EPOLL_CTL_DEL, rx.as_raw_fd(), 0, Interest::NONE)
                .unwrap();
            let mut out = Vec::new();
            poller.wait(&mut out, Duration::from_millis(20)).unwrap();
            assert!(out.is_empty(), "removed fd must not wake");
        }

        #[test]
        fn event_loop_fires_timers_near_their_deadlines() {
            let _timed = crate::timing_test_lock();
            let clock = MonoClock::new();
            let mut lp = EventLoop::new(clock.clone()).unwrap();
            let t0 = clock.now_ns();
            lp.arm_timer(t0 + 2_000_000, 1); // 2 ms
            lp.arm_timer(t0 + 4_000_000, 2); // 4 ms
            let mut fired = Vec::new();
            while fired.len() < 2 {
                let mut out = Vec::new();
                lp.wait(&mut out, Duration::from_millis(50)).unwrap();
                for ev in out {
                    if let MuxEvent::Timer { token } = ev {
                        fired.push((token, clock.now_ns()));
                    }
                }
            }
            assert_eq!(fired[0].0, 1);
            assert_eq!(fired[1].0, 2);
            for (token, at) in &fired {
                let deadline = t0 + 2_000_000 * *token;
                assert!(*at >= deadline, "timer {token} fired early");
                assert!(
                    *at - deadline < 20_000_000,
                    "timer {token} fired {} ns late",
                    *at - deadline
                );
            }
        }

        #[test]
        fn event_loop_interleaves_timers_and_io() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let mut tx = TcpStream::connect(addr).unwrap();
            let (rx, _) = listener.accept().unwrap();
            rx.set_nonblocking(true).unwrap();

            let clock = MonoClock::new();
            let mut lp = EventLoop::new(clock.clone()).unwrap();
            lp.register(rx.as_raw_fd(), 10, Interest::READ).unwrap();
            lp.arm_timer(clock.now_ns() + 3_000_000, 20);
            tx.write_all(b"now").unwrap();

            let (mut saw_io, mut saw_timer) = (false, false);
            let deadline = std::time::Instant::now() + Duration::from_secs(2);
            while (!saw_io || !saw_timer) && std::time::Instant::now() < deadline {
                let mut out = Vec::new();
                lp.wait(&mut out, Duration::from_millis(50)).unwrap();
                for ev in out {
                    match ev {
                        MuxEvent::Io(r) => {
                            assert_eq!(r.token, 10);
                            saw_io = true;
                        }
                        MuxEvent::Timer { token } => {
                            assert_eq!(token, 20);
                            saw_timer = true;
                        }
                    }
                }
            }
            assert!(saw_io && saw_timer);
        }

        /// Expired timers come out earliest first whatever their
        /// allowance, ties in arming order, on either kind of loop.
        #[test]
        fn pacing_and_sleep_only_timers_fire_in_one_deadline_order() {
            let clock = MonoClock::new();
            let fired = |mut lp: EventLoop| {
                // Deadlines a few ns after the epoch: all expired at the wait.
                lp.arm_timer_within(4, 15_000, 40);
                lp.arm_timer(3, 30);
                lp.arm_timer_within(2, 150_000, 20);
                lp.arm_timer(2, 21);
                lp.arm_timer_within(1, 15_000, 10);
                let mut out = Vec::new();
                lp.wait(&mut out, Duration::ZERO).unwrap();
                out.iter()
                    .map(|ev| match *ev {
                        MuxEvent::Timer { token } => token,
                        MuxEvent::Io(r) => panic!("unexpected I/O on {}", r.token),
                    })
                    .collect::<Vec<_>>()
            };
            let paced = EventLoop::new(clock.clone()).unwrap();
            assert_eq!(fired(paced), [10, 20, 21, 30, 40], "paced");
            let sleep_only = EventLoop::sleep_only(clock).unwrap();
            assert_eq!(fired(sleep_only), [10, 20, 21, 30, 40], "sleep-only");
        }

        /// Trains served on the kernel's epoll and timerfd — 100 µs apart
        /// exact, 1 ms apart with a 150 µs allowance, and 1 ms apart on a
        /// sleep-only loop — armed a deadline at a time as a session arms
        /// them: every timer fires in deadline order and never before its
        /// deadline. How much the loop spins and how often it wakes are
        /// the replay's to pin (`pacing::tests`), with no host in the loop.
        #[test]
        fn timers_never_fire_early_or_out_of_order() {
            let _timed = crate::timing_test_lock();
            for (timers, period, allowance, sleep_only) in [
                (400, 100_000, 0, false),
                (100, 1_000_000, 150_000, false),
                (20, 1_000_000, 0, true),
            ] {
                let clock = MonoClock::new();
                let mut lp = match sleep_only {
                    true => EventLoop::sleep_only(clock.clone()).unwrap(),
                    false => EventLoop::new(clock.clone()).unwrap(),
                };
                let t0 = clock.now_ns() + 1_000_000;
                lp.arm_timer_within(t0, allowance, 0);
                let (mut fired, mut out) = (0, Vec::new());
                while fired < timers {
                    out.clear();
                    lp.wait(&mut out, Duration::from_millis(50)).unwrap();
                    let now = clock.now_ns();
                    for ev in &out {
                        let MuxEvent::Timer { token } = *ev else {
                            panic!("the loop's own timer surfaced as {ev:?}");
                        };
                        assert_eq!(token, fired, "timers fire in deadline order");
                        assert!(now >= t0 + token * period, "timer {token} fired early");
                        fired += 1;
                        lp.arm_timer_within(t0 + fired * period, allowance, fired);
                    }
                }
            }
        }

        /// A host cannot claim the loop's token, the timerfd is armed for
        /// `deadline − window`, and dropping the loop closes it.
        #[test]
        fn the_loops_own_timer_stays_private_and_closes_with_the_loop() {
            let clock = MonoClock::new();
            let mut lp = EventLoop::new(clock.clone()).unwrap();
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let fd = listener.as_raw_fd();
            let refused = lp.register(fd, WAKE_TOKEN, Interest::READ).unwrap_err();
            assert_eq!(refused.kind(), io::ErrorKind::InvalidInput);
            lp.register(fd, 1, Interest::READ).unwrap();
            let refused = lp.set_interest(fd, WAKE_TOKEN, Interest::READ);
            assert_eq!(refused.unwrap_err().kind(), io::ErrorKind::InvalidInput);

            // A deadline 123 456 s out: distinctive in the timer's fdinfo,
            // so a reused fd number cannot pass for it.
            const FAR_S: u64 = 123_456;
            lp.arm_timer(clock.now_ns() + FAR_S * 1_000_000_000, 9);
            let mut out = Vec::new();
            lp.wait(&mut out, Duration::ZERO).unwrap();
            assert!(out.is_empty());
            let timer = lp.wake.fd;
            let armed_secs = || {
                let info = std::fs::read_to_string(format!("/proc/self/fdinfo/{timer}")).ok()?;
                let value = info.lines().find_map(|l| l.strip_prefix("it_value: ("))?;
                value.split(',').next()?.trim().parse::<u64>().ok()
            };
            let secs = armed_secs().expect("the loop's timerfd is armed");
            assert!((FAR_S - 1..FAR_S).contains(&secs), "armed for {secs} s");
            drop(lp);
            assert!(
                armed_secs().is_none_or(|s| !(FAR_S - 1..FAR_S).contains(&s)),
                "the timerfd outlived its loop"
            );
        }
    }
}

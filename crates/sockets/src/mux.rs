//! The readiness event loop: epoll plus a deadline timer queue.
//!
//! This is the substrate of the sender's pump and the receiver: one
//! thread, one epoll instance, hundreds of registered sockets, and a
//! [`TimerQueue`] whose entries are the pacing deadlines of every stream
//! the loop's sessions send. [`EventLoop`] combines the two and
//! hands the caller a stream of [`MuxEvent`]s — I/O readiness keyed by the
//! registration token, and expired timers keyed by the token they were
//! armed with.
//!
//! The poller is epoll, called directly through the C library that `std`
//! already links on Linux — the workspace's no-new-deps rule applies to an
//! async executor exactly as it does to a config framework, and a
//! measurement tool needs none of an executor's machinery: no tasks, no
//! wakers, just readiness and deadlines. The module is Linux-only (its
//! `mod` declaration is gated on `target_os = "linux"`), and so are the
//! three binaries built on it.
//!
//! Timer precision: probe periods go down to 100 µs and the receiver
//! rejects a stream whose spacing drifts by 30 %, but `epoll_wait` takes
//! whole milliseconds. The loop therefore owns a `timerfd`, registered in
//! its own poller under a token no host sees, and [`EventLoop::wait`]
//! sleeps in epoll until that timer ends the sleep one spin window before
//! the earliest deadline, then spins the remainder — sleep-then-spin
//! pacing (`crate::pacing`), applied to a whole fleet's merged deadline
//! queue instead of one blocking thread per stream. The timer is
//! re-armed only when `deadline − window` changes. The window is a
//! [`SpinWindow`] learned from how late the timerfd actually wakes the
//! loop (a few µs on an idle host), so the spin — the CPU a pacing loop
//! burns — covers the wake-up error and no more, and a timer still never
//! fires before its deadline.
//!
//! Not every deadline is a pacing deadline. A receiver's socket drain or
//! stop-rule tick needs "not before", not "exactly at", so
//! [`EventLoop::arm_sleep_timer`] arms a *sleep-only* timer: the timerfd
//! is set for the deadline itself and the loop never spins for it — it
//! fires at the deadline plus the wake-up error, at the cost of one
//! sleep. Its oversleep trains the same window, so
//! [`EventLoop::wake_error_ns`] tells a host how early to arm a
//! sleep-only timer that must not wake late.

// Datapath module: a panicking branch here takes the whole fleet down,
// so `unwrap`/`expect` are denied outright (errors must travel as values).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::clock::MonoClock;
use crate::pacing::SpinWindow;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
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

    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
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

    pub fn ctl(
        epfd: i32,
        op_add_mod_del: i32,
        fd: RawFd,
        events: u32,
        data: u64,
    ) -> io::Result<()> {
        let mut ev = EpollEvent { events, data };
        let op = match op_add_mod_del {
            0 => EPOLL_CTL_ADD,
            1 => EPOLL_CTL_MOD,
            _ => EPOLL_CTL_DEL,
        };
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

    /// Arm timer `fd` to expire once, `after_ns` from now; 0 disarms it.
    /// Either way a pending expiry is cleared, so the fd stops polling
    /// readable until the new expiry.
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

    /// Register `fd` under `token` with the given interest.
    fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        sys::ctl(self.epfd, 0, fd, Self::events_of(interest), token)
    }

    /// Change a registered fd's interest (and/or token).
    fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        sys::ctl(self.epfd, 1, fd, Self::events_of(interest), token)
    }

    /// Remove a registered fd.
    fn remove(&self, fd: RawFd) -> io::Result<()> {
        sys::ctl(self.epfd, 2, fd, 0, 0)
    }

    /// Wait up to `timeout` (`None` = forever) and append readiness
    /// notifications to `out`. Returns how many were appended.
    fn wait(&self, out: &mut Vec<IoReady>, timeout: Option<Duration>) -> io::Result<usize> {
        let timeout_ms = match timeout {
            None => -1,
            Some(d) => i32::try_from(d.as_millis()).unwrap_or(i32::MAX),
        };
        let mut buf = [sys::EpollEvent { events: 0, data: 0 }; 64];
        let n = sys::wait(self.epfd, &mut buf, timeout_ms)?;
        // `wait` contracts n <= buf.len(); `take` keeps the bound out of
        // the panic path.
        for ev in buf.iter().take(n) {
            let bits = ev.events;
            let err = bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0;
            out.push(IoReady {
                token: ev.data,
                readable: bits & sys::EPOLLIN != 0 || err,
                writable: bits & sys::EPOLLOUT != 0 || err,
            });
        }
        Ok(n)
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
    /// The loop-clock instant the timer is armed for (`None`: disarmed).
    armed: Option<u64>,
}

impl WakeTimer {
    fn new() -> io::Result<WakeTimer> {
        Ok(WakeTimer {
            fd: sys::timer_create()?,
            armed: None,
        })
    }

    /// Arm for loop-clock instant `at` (`None`: disarm), `now` being the
    /// loop clock's reading. A syscall only when `at` changed: the armed
    /// instant has not passed while it is still the one asked for.
    fn arm(&mut self, at: Option<u64>, now: u64) -> io::Result<()> {
        if at != self.armed {
            sys::timer_set(self.fd, at.map_or(0, |at| at.saturating_sub(now).max(1)))?;
            self.armed = at;
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

/// A queue of one-shot deadline timers on a [`MonoClock`] timeline.
///
/// Entries are `(deadline, token)`; ties expire in arming order. Entries
/// may optionally carry a nonzero *generation* ([`TimerQueue::arm_with_generation`]):
/// [`TimerQueue::cancel_generation`] then cancels every entry of that
/// generation armed so far, without touching entries armed afterwards —
/// so a generation number can be reused across a session's lifetime.
/// Cancelled entries are reaped lazily as pops walk past them; the
/// bookkeeping (per-generation live counts and a cancel horizon) is
/// dropped as soon as a generation has no entries left in the heap, so
/// memory stays bounded by the number of pending entries.
///
/// Plain [`TimerQueue::arm`] entries have generation 0 and cannot be
/// cancelled — callers that stop caring simply ignore the token when it
/// fires (lazy cancellation), which keeps the pacing hot path free of
/// hash-map traffic.
#[derive(Debug, Default)]
pub struct TimerQueue {
    heap: BinaryHeap<Reverse<(u64, u64, u64, u64)>>,
    seq: u64,
    /// generation → number of its entries still in the heap.
    live: HashMap<u64, u64>,
    /// generation → cancel horizon: entries with `seq <= horizon` are
    /// cancelled; entries armed later (larger seq) are not.
    cancelled: HashMap<u64, u64>,
}

impl TimerQueue {
    /// An empty queue.
    pub fn new() -> TimerQueue {
        TimerQueue::default()
    }

    /// Arm a one-shot timer for `deadline_ns` (clock nanoseconds) carrying
    /// `token`. The entry has generation 0: it cannot be cancelled.
    pub fn arm(&mut self, deadline_ns: u64, token: u64) {
        self.arm_with_generation(deadline_ns, token, 0);
    }

    /// Arm a one-shot timer carrying `token` under `generation` (nonzero
    /// to make it cancellable via [`TimerQueue::cancel_generation`];
    /// generation 0 is the uncancellable default of [`TimerQueue::arm`]).
    pub fn arm_with_generation(&mut self, deadline_ns: u64, token: u64, generation: u64) {
        self.seq += 1;
        if generation != 0 {
            *self.live.entry(generation).or_insert(0) += 1;
        }
        self.heap
            .push(Reverse((deadline_ns, self.seq, token, generation)));
    }

    /// Cancel every entry of `generation` armed so far. Entries armed
    /// *after* this call under the same generation are unaffected. A
    /// no-op for generation 0 or a generation with nothing pending.
    pub fn cancel_generation(&mut self, generation: u64) {
        if generation != 0 && self.live.contains_key(&generation) {
            self.cancelled.insert(generation, self.seq);
        }
    }

    /// The earliest pending deadline, if any. Conservative: a
    /// not-yet-reaped cancelled entry may be reported (waking early is
    /// harmless; the pop then skips it).
    pub fn next_deadline(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((d, _, _, _))| *d)
    }

    /// Pop the earliest timer if it has expired by `now_ns`.
    pub fn pop_expired(&mut self, now_ns: u64) -> Option<u64> {
        self.pop_expired_at(now_ns).map(|(token, _)| token)
    }

    /// Like [`TimerQueue::pop_expired`], but also reports the deadline the
    /// timer was armed for — the event loop uses `now − deadline` as its
    /// timer-lag sample. Cancelled entries are reaped silently on the way.
    pub fn pop_expired_at(&mut self, now_ns: u64) -> Option<(u64, u64)> {
        // Entries are Copy tuples, so peek-then-pop folds into one
        // panic-free `while let` over the heap head.
        while let Some(&Reverse((deadline, seq, token, generation))) = self.heap.peek() {
            if deadline > now_ns {
                return None;
            }
            let _ = self.heap.pop();
            if generation != 0 && !self.reap(seq, generation) {
                continue; // cancelled: skip silently
            }
            return Some((token, deadline));
        }
        None
    }

    /// Reap cancelled entries off the head of the heap, so
    /// [`TimerQueue::next_deadline`] reports a live one.
    fn reap_cancelled_head(&mut self) {
        while let Some(&Reverse((_, seq, _, generation))) = self.heap.peek() {
            let cancelled = self
                .cancelled
                .get(&generation)
                .is_some_and(|&horizon| seq <= horizon);
            if !cancelled {
                return;
            }
            let _ = self.heap.pop();
            self.reap(seq, generation);
        }
    }

    /// Bookkeeping for a popped entry of a nonzero generation. Returns
    /// false when the entry was cancelled.
    fn reap(&mut self, seq: u64, generation: u64) -> bool {
        let alive = self
            .cancelled
            .get(&generation)
            .is_none_or(|&horizon| seq > horizon);
        if let Some(count) = self.live.get_mut(&generation) {
            *count -= 1;
            if *count == 0 {
                self.live.remove(&generation);
                self.cancelled.remove(&generation);
            }
        }
        alive
    }

    /// Number of entries still in the heap (cancelled entries count until
    /// a pop walks past them).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no entries remain in the heap.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// The event loop: an epoll poller and two [`TimerQueue`]s on one
/// [`MonoClock`].
///
/// One instance multiplexes a whole fleet: every session's control TCP and
/// probe UDP sockets are registered here, every pacing deadline and
/// scheduler start instant is a timer entry, and the host drains
/// [`EventLoop::wait`] in a loop, routing each [`MuxEvent`] by token.
#[derive(Debug)]
pub struct EventLoop {
    poller: Poller,
    /// Deadlines served on time: slept to one window early, spun the rest.
    timers: TimerQueue,
    /// Sleep-only deadlines ([`EventLoop::arm_sleep_timer`]): never spun.
    naps: TimerQueue,
    clock: MonoClock,
    /// The sleep, registered in `poller` under [`WAKE_TOKEN`].
    wake: WakeTimer,
    /// How long before the earliest deadline the sleep ends and the spin
    /// begins, learned from the wake-ups.
    window: SpinWindow,
    /// One poll's readiness, kept across calls to spare the allocator.
    ready: Vec<IoReady>,
    /// Calls of [`EventLoop::wait`] (`None`: not recorded).
    wakeups: Option<Counter>,
    /// Nanoseconds between a timer's deadline and the wakeup that
    /// delivered it (`None`: not recorded).
    timer_lag: Option<Histogram>,
    /// The current spin window in nanoseconds (`None`: not recorded).
    spin_window: Option<Gauge>,
}

impl EventLoop {
    /// A fresh loop reading time from `clock` (the fleet's shared epoch,
    /// so timer deadlines and `TimeNs` instants agree).
    pub fn new(clock: MonoClock) -> io::Result<EventLoop> {
        let poller = Poller::new()?;
        let wake = WakeTimer::new()?;
        poller.add(wake.fd, WAKE_TOKEN, Interest::READ)?;
        Ok(EventLoop {
            poller,
            timers: TimerQueue::new(),
            naps: TimerQueue::new(),
            clock,
            wake,
            window: SpinWindow::new(),
            ready: Vec::new(),
            wakeups: None,
            timer_lag: None,
            spin_window: None,
        })
    }

    /// Record loop wakeups, timer lag and the spin window into the given
    /// metric handles (register the same handles in a
    /// `telemetry::Registry` to expose them). Timer lag is the gap between
    /// a timer's armed deadline and the `wait` wakeup that delivered it;
    /// the spin window is how long before a deadline the loop stops
    /// sleeping.
    pub fn set_metrics(&mut self, wakeups: Counter, timer_lag: Histogram, spin_window: Gauge) {
        self.wakeups = Some(wakeups);
        self.timer_lag = Some(timer_lag);
        self.spin_window = Some(spin_window);
        self.publish_window();
    }

    fn publish_window(&self) {
        if let Some(g) = &self.spin_window {
            g.set(i64::try_from(self.window.ns()).unwrap_or(i64::MAX));
        }
    }

    /// Pop every timer of either queue expired by `now`, earliest deadline
    /// first (a pacing timer before a sleep-only one on a tie), recording
    /// lag; true if any fired.
    fn drain_expired(&mut self, now: u64, out: &mut Vec<MuxEvent>) -> bool {
        let before = out.len();
        loop {
            self.timers.reap_cancelled_head();
            self.naps.reap_cancelled_head();
            let queue = match (self.timers.next_deadline(), self.naps.next_deadline()) {
                (Some(pacing), Some(nap)) if nap < pacing => &mut self.naps,
                (None, Some(_)) => &mut self.naps,
                _ => &mut self.timers,
            };
            let Some((token, deadline)) = queue.pop_expired_at(now) else {
                break;
            };
            if let Some(h) = &self.timer_lag {
                h.observe(now.saturating_sub(deadline));
            }
            out.push(MuxEvent::Timer { token });
        }
        out.len() > before
    }

    /// The loop's clock (shared epoch).
    pub fn clock(&self) -> &MonoClock {
        &self.clock
    }

    /// Register `fd` under `token`. Token `u64::MAX` is the loop's own
    /// and refused with `InvalidInput`.
    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        host_token(token)?;
        self.poller.add(fd, token, interest)
    }

    /// Change a registered fd's interest (token `u64::MAX` refused, as by
    /// [`EventLoop::register`]).
    pub fn set_interest(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        host_token(token)?;
        self.poller.modify(fd, token, interest)
    }

    /// Remove a registered fd.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.poller.remove(fd)
    }

    /// Arm a one-shot timer at `deadline_ns` on the loop's clock. The
    /// entry is uncancellable (generation 0): ignore the token when it no
    /// longer matters.
    pub fn arm_timer(&mut self, deadline_ns: u64, token: u64) {
        self.timers.arm(deadline_ns, token);
    }

    /// Arm a *sleep-only* one-shot timer at `deadline_ns`: it never fires
    /// early, and the loop sleeps to the deadline itself instead of
    /// spinning the wake-up error away, so it fires up to
    /// [`EventLoop::wake_error_ns`] late. For deadlines that mean "not
    /// before" — a socket drain, a stop-rule tick, a backoff. A nonzero
    /// `generation` makes the entry cancellable via
    /// [`EventLoop::cancel_timer_generation`] (0: not cancellable).
    pub fn arm_sleep_timer(&mut self, deadline_ns: u64, token: u64, generation: u64) {
        self.naps
            .arm_with_generation(deadline_ns, token, generation);
    }

    /// How late the loop's sleeps wake, as learned from them: the spin
    /// window. Arm a sleep-only timer this much early to have it fire by
    /// its instant.
    pub fn wake_error_ns(&self) -> u64 {
        self.window.ns()
    }

    /// Cancel every sleep-only timer armed so far under `generation` (see
    /// [`TimerQueue::cancel_generation`]); pacing timers are armed
    /// uncancellable.
    pub fn cancel_timer_generation(&mut self, generation: u64) {
        self.naps.cancel_generation(generation);
    }

    /// Pending timer count (diagnostics).
    pub fn timers_pending(&self) -> usize {
        self.timers.len() + self.naps.len()
    }

    /// Wait for the next batch of events and append them to `out`:
    /// expired timers (earliest first, pacing and sleep-only ones merged)
    /// and I/O readiness. Blocks at most
    /// `max_wait` even with no timers pending, so hosts can re-check
    /// shutdown flags. May return with `out` empty (timeout); never
    /// returns I/O the caller didn't register or timers it didn't arm,
    /// and never a timer before its deadline.
    ///
    /// The sleep ends one spin window before the earliest deadline (the
    /// loop's timerfd); the rest is spun, so timers fire on their
    /// deadline to the sub-µs while the CPU is spent only on the wake-up
    /// error. A sleep-only timer ends the sleep at its deadline and is
    /// never spun for. See the module docs.
    pub fn wait(&mut self, out: &mut Vec<MuxEvent>, max_wait: Duration) -> io::Result<()> {
        if let Some(c) = &self.wakeups {
            c.inc();
        }
        let now = self.clock.now_ns();
        // Already-expired timers: deliver without sleeping (but still
        // collect instantly-ready I/O so a busy timer treadmill cannot
        // starve socket readiness).
        if self.drain_expired(now, out) {
            self.poll(out, Duration::ZERO)?;
            return Ok(());
        }

        let deadline = self.timers.next_deadline();
        // Where the spin toward the next pacing deadline starts.
        let spin_at = deadline.map(|d| d.saturating_sub(self.window.ns()));
        let wake = [spin_at, self.naps.next_deadline()]
            .into_iter()
            .flatten()
            .min();
        // Inside the window already: no sleep, only instantly-ready I/O.
        let sleep = wake.is_none_or(|at| at > now);
        let timeout = if sleep {
            self.wake.arm(wake, self.clock.now_ns())?;
            max_wait
        } else {
            Duration::ZERO
        };
        let before = out.len();
        let woke = self.poll(out, timeout)?;
        let now = self.clock.now_ns();
        if let Some(at) = wake.filter(|_| sleep && woke) {
            self.window.slept(now.saturating_sub(at));
            self.publish_window();
        }
        if out.len() > before {
            // Deliver timers that expired while we slept, too.
            self.drain_expired(now, out);
            return Ok(());
        }

        // No I/O. Past the spin instant (the timer fired for it, or the
        // deadline was inside the window): spin the deadline down, then
        // deliver. A sleep-only timer's wake-up spins nothing.
        if let (Some(d), Some(at)) = (deadline, spin_at) {
            if now >= at {
                if !sleep {
                    self.window.spun();
                    self.publish_window();
                }
                while self.clock.now_ns() < d {
                    std::hint::spin_loop();
                }
            }
        }
        let now = self.clock.now_ns();
        self.drain_expired(now, out);
        Ok(())
    }

    /// Poll for up to `timeout` and append the hosts' readiness to `out`.
    /// True when the loop's own timer was among the ready fds.
    fn poll(&mut self, out: &mut Vec<MuxEvent>, timeout: Duration) -> io::Result<bool> {
        self.ready.clear();
        self.poller.wait(&mut self.ready, Some(timeout))?;
        let mut woke = false;
        for r in self.ready.drain(..) {
            if r.token == WAKE_TOKEN {
                woke = true;
            } else {
                out.push(MuxEvent::Io(r));
            }
        }
        Ok(woke)
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
    use super::*;

    #[test]
    fn timer_queue_orders_by_deadline_then_arming_order() {
        let mut q = TimerQueue::new();
        q.arm(300, 3);
        q.arm(100, 1);
        q.arm(100, 2);
        q.arm(200, 9);
        assert_eq!(q.next_deadline(), Some(100));
        assert_eq!(q.pop_expired(99), None, "not yet expired");
        assert_eq!(q.pop_expired(100), Some(1), "ties fire in arming order");
        assert_eq!(q.pop_expired(100), Some(2));
        assert_eq!(q.pop_expired(100), None);
        assert_eq!(q.pop_expired(1_000), Some(9));
        assert_eq!(q.pop_expired(1_000), Some(3));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_generation_skips_pending_entries_but_not_later_arms() {
        let mut q = TimerQueue::new();
        q.arm_with_generation(100, 1, 7);
        q.arm_with_generation(200, 2, 7);
        q.arm_with_generation(150, 3, 8);
        q.cancel_generation(7);
        // Generation reuse: armed after the cancel, so it survives.
        q.arm_with_generation(300, 4, 7);
        assert_eq!(q.pop_expired(1_000), Some(3), "gen 8 untouched");
        assert_eq!(q.pop_expired(1_000), Some(4), "post-cancel arm fires");
        assert_eq!(q.pop_expired(1_000), None);
        assert!(q.is_empty(), "cancelled entries reaped by the pops");
    }

    #[test]
    fn cancel_generation_zero_is_a_no_op() {
        let mut q = TimerQueue::new();
        q.arm(50, 1);
        q.cancel_generation(0);
        assert_eq!(q.pop_expired(60), Some(1));
    }

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
            poller.add(rx.as_raw_fd(), 77, Interest::READ).unwrap();

            let mut out = Vec::new();
            poller
                .wait(&mut out, Some(Duration::from_millis(20)))
                .unwrap();
            assert!(out.is_empty(), "nothing written yet");

            tx.write_all(b"ping").unwrap();
            let mut out = Vec::new();
            poller.wait(&mut out, Some(Duration::from_secs(2))).unwrap();
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].token, 77);
            assert!(out[0].readable);
        }

        #[test]
        fn poller_interest_can_be_modified_and_removed() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let mut tx = TcpStream::connect(addr).unwrap();
            let (rx, _) = listener.accept().unwrap();
            rx.set_nonblocking(true).unwrap();

            let poller = Poller::new().unwrap();
            poller.add(rx.as_raw_fd(), 1, Interest::NONE).unwrap();
            tx.write_all(b"x").unwrap();
            let mut out = Vec::new();
            poller
                .wait(&mut out, Some(Duration::from_millis(20)))
                .unwrap();
            assert!(out.is_empty(), "dormant interest must not wake");

            poller.modify(rx.as_raw_fd(), 2, Interest::READ).unwrap();
            let mut out = Vec::new();
            poller.wait(&mut out, Some(Duration::from_secs(2))).unwrap();
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].token, 2, "token travels with the modify");

            poller.remove(rx.as_raw_fd()).unwrap();
            let mut out = Vec::new();
            poller
                .wait(&mut out, Some(Duration::from_millis(20)))
                .unwrap();
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

        /// Expired timers come out earliest first whichever queue holds
        /// them, and a cancelled sleep-only head fires neither itself nor
        /// out of order with the entries behind it.
        #[test]
        fn pacing_and_sleep_only_timers_fire_in_one_deadline_order() {
            let clock = MonoClock::new();
            let mut lp = EventLoop::new(clock.clone()).unwrap();
            // Deadlines a few ns after the epoch: all expired at the wait.
            lp.arm_sleep_timer(1, 99, 8);
            lp.cancel_timer_generation(8);
            lp.arm_sleep_timer(4, 40, 0);
            lp.arm_timer(3, 30);
            lp.arm_sleep_timer(2, 20, 0);
            lp.arm_sleep_timer(1, 10, 0);
            let mut out = Vec::new();
            lp.wait(&mut out, Duration::ZERO).unwrap();
            let fired: Vec<_> = out
                .iter()
                .map(|ev| match *ev {
                    MuxEvent::Timer { token } => token,
                    MuxEvent::Io(r) => panic!("unexpected I/O on {}", r.token),
                })
                .collect();
            assert_eq!(fired, [10, 20, 30, 40]);
        }

        /// On-CPU nanoseconds of the calling thread, from procfs.
        fn thread_cpu_ns() -> u64 {
            let stat = std::fs::read_to_string("/proc/thread-self/schedstat")
                .expect("procfs exposes the thread's schedstat");
            let first = stat.split_whitespace().next().expect("a cpu-time field");
            first.parse().expect("nanoseconds")
        }

        /// What [`serve_train`] measured.
        struct Train {
            wakeups_per_timer: f64,
            cpu_ns: u64,
            wall_ns: u64,
            /// The wake-error estimate when the train was over.
            window_ns: u64,
        }

        /// Arm `timers` deadlines `period` apart after a 1 ms lead-in, a
        /// deadline at a time as a session arms them (sleep-only ones when
        /// `sleep_only`), and serve them: every timer fires in order and
        /// at or after its deadline, about one `wait` serves each, and
        /// the wake-error estimate learns from the wake-ups.
        fn serve_train(timers: u64, period: u64, sleep_only: bool) -> Train {
            let clock = MonoClock::new();
            let mut lp = EventLoop::new(clock.clone()).unwrap();
            let (wakeups, window) = (Counter::new(), Gauge::new());
            lp.set_metrics(wakeups.clone(), Histogram::new(), window.clone());
            assert_eq!(window.get(), SpinWindow::MAX_NS as i64);
            let arm = |lp: &mut EventLoop, at, token| match sleep_only {
                true => lp.arm_sleep_timer(at, token, 0),
                false => lp.arm_timer(at, token),
            };

            let t0 = clock.now_ns() + 1_000_000;
            arm(&mut lp, t0, 0);
            let (cpu0, wall0) = (thread_cpu_ns(), clock.now_ns());
            let mut fired = 0;
            let mut out = Vec::new();
            while fired < timers {
                out.clear();
                lp.wait(&mut out, Duration::from_millis(50)).unwrap();
                let now = clock.now_ns();
                for ev in &out {
                    match *ev {
                        MuxEvent::Timer { token } => {
                            assert_eq!(token, fired, "timers fire in deadline order");
                            let deadline = t0 + token * period;
                            assert!(now >= deadline, "timer {token} fired early");
                            fired += 1;
                            if fired < timers {
                                arm(&mut lp, t0 + fired * period, fired);
                            }
                        }
                        MuxEvent::Io(r) => panic!("the loop's own timer surfaced as {}", r.token),
                    }
                }
            }
            let run = Train {
                cpu_ns: thread_cpu_ns() - cpu0,
                wall_ns: clock.now_ns() - wall0,
                wakeups_per_timer: wakeups.get() as f64 / timers as f64,
                window_ns: lp.wake_error_ns(),
            };
            let per_timer = run.wakeups_per_timer;
            assert!(per_timer <= 1.5, "{per_timer:.2} wake-ups per timer");
            assert!(run.window_ns < SpinWindow::MAX_NS, "nothing learned");
            run
        }

        /// Serve `serve_train(timers, period, sleep_only)` until its CPU
        /// time passes `cpu_ok`, at most three times. The CPU share is a
        /// ratio to wall time, so a test thread preempting the loop can
        /// spoil one run, not three in a row; everything `serve_train`
        /// asserts holds on every run.
        fn cpu_within_three_tries(
            timers: u64,
            period: u64,
            sleep_only: bool,
            cpu_ok: impl Fn(&Train) -> bool,
        ) {
            let _timed = crate::timing_test_lock();
            let mut misses = Vec::new();
            for _ in 0..3 {
                let run = serve_train(timers, period, sleep_only);
                if cpu_ok(&run) {
                    return;
                }
                misses.push((run.cpu_ns, run.wall_ns));
            }
            panic!("on the CPU for (cpu, wall) {misses:?} ns");
        }

        /// A 100 µs-period pacing train: every timer fires at or after its
        /// deadline, about one `wait` serves each, the spin window learns
        /// from the wake-ups, and the thread sleeps through most of the
        /// train instead of spinning it.
        #[test]
        fn timers_never_fire_early_and_the_loop_sleeps() {
            cpu_within_three_tries(400, 100_000, false, |run| {
                (run.cpu_ns as f64) < 0.7 * run.wall_ns as f64
            });
        }

        /// Sleep-only timers never fire early and are never spun for: the
        /// loop's CPU stays at the cost of its wake-ups even while the spin
        /// window is at its 300 µs start (a pacing timer would spin most of
        /// it each time), and their oversleeps train the wake-error
        /// estimate.
        #[test]
        fn sleep_only_timers_never_fire_early_and_never_spin() {
            const TIMERS: u64 = 20;
            cpu_within_three_tries(TIMERS, 1_000_000, true, |run| run.cpu_ns < TIMERS * 75_000);
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

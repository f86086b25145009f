//! Absorbing a probe stream costs the trend test and nothing else: once a
//! machine is warm, one mid-fleet stream cycle — `StreamDone` → `NeedIdle`
//! → `Idle` → `Tick` → `NextStream`, with the trace drained after every
//! step as a driver does — allocates nothing. An exact count, like the
//! simulator's events-per-packet gates, so it can be gated in tier-1
//! instead of read off a wall clock.

use slops::machine::{Command, Event, SessionMachine};
use slops::testutil::OracleTransport;
use slops::{ProbeTransport, SlopsConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use units::{Rate, TimeNs};

/// The system allocator, counting the calls made on threads that opted in.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: the allocator can run while thread-locals are torn down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counting touches only const-initialised thread-locals,
// which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: `ptr` came from `System`; the caller upholds the contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made on this thread while `f` runs.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let r = f();
    COUNTING.with(|on| on.set(false));
    (ALLOCS.with(Cell::get), r)
}

#[test]
fn a_mid_fleet_stream_allocates_nothing() {
    let cfg = SlopsConfig::default();
    let fleet_len = cfg.fleet_len as usize;
    let mut t = OracleTransport::new(Rate::from_mbps(47.0), 11);
    let mut m = SessionMachine::new(cfg, t.rtt(), t.max_rate()).expect("default config");
    // Drive the session into its second fleet, a few streams deep, so the
    // trace buffer has reached its working size.
    let mut in_fleet = 0usize;
    let req = loop {
        let cmd = m.poll().expect("the loop answers every command");
        m.drain_trace();
        let event = match cmd {
            Command::SendTrain { len, size } => Event::TrainDone(t.send_train(len, size).unwrap()),
            Command::SendStream(req) => {
                in_fleet += 1;
                if m.fleets_so_far().len() == 1 && in_fleet == 4 {
                    break req;
                }
                Event::StreamDone(t.send_stream(&req).unwrap())
            }
            Command::Idle(dur) => {
                t.idle(dur);
                Event::Tick(t.elapsed())
            }
            Command::Finish(_) => panic!("the session ended before its second fleet"),
        };
        let fleets = m.fleets_so_far().len();
        m.on_event(event).unwrap();
        m.drain_trace();
        if m.fleets_so_far().len() != fleets {
            in_fleet = 0;
        }
    };
    assert!(fleet_len > 5, "the cycle must stay inside the fleet");
    let rec = t.send_stream(&req).unwrap();
    assert_eq!(rec.samples.len(), req.count as usize, "a lossless stream");
    let now = t.elapsed() + TimeNs::from_millis(5);

    let (allocs, next) = allocations_in(|| {
        m.on_event(Event::StreamDone(rec)).unwrap();
        m.drain_trace();
        let idle = m.poll();
        m.drain_trace();
        assert!(matches!(idle, Some(Command::Idle(_))), "{idle:?}");
        m.on_event(Event::Tick(now)).unwrap();
        m.drain_trace();
        let next = m.poll();
        m.drain_trace();
        next
    });
    assert!(
        matches!(next, Some(Command::SendStream(_))),
        "still mid-fleet: {next:?}"
    );
    assert_eq!(
        allocs, 0,
        "a warm machine allocated while absorbing a stream"
    );
}

//! The real-socket pathload, end to end over loopback: the same
//! `slops::SessionMachine` that runs over the simulator drives real
//! UDP/TCP sockets, pumped by `pathload_snd`'s one-session host.

// The sender's and the receiver's event loops are Linux-only (epoll).
#![cfg(target_os = "linux")]

use availbw::pathload_net::clock::MonoClock;
use availbw::pathload_net::mux::{EventLoop, MuxEvent};
use availbw::pathload_net::{
    EventedReceiver, EventedReceiverHandle, EventedSession, SessionTokens, SocketTransport,
};
use availbw::slops::{Estimate, SlopsConfig};
use availbw::units::{Rate, TimeNs};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

fn receiver() -> EventedReceiverHandle {
    EventedReceiver::bind("127.0.0.1:0".parse().unwrap())
        .unwrap()
        .spawn()
}

fn gentle_cfg() -> SlopsConfig {
    let mut cfg = SlopsConfig::default();
    cfg.stream_len = 30;
    cfg.fleet_len = 4;
    cfg.min_period = TimeNs::from_millis(1);
    cfg.resolution = Rate::from_mbps(8.0);
    cfg.grey_resolution = Rate::from_mbps(16.0);
    cfg.max_fleets = 8;
    cfg
}

/// One measurement toward `addr` on the one-session host.
fn measure(addr: SocketAddr) -> Estimate {
    let mut t = SocketTransport::connect(addr).unwrap();
    t.rate_cap = Rate::from_mbps(40.0);
    let mut sender = EventedSession::new(t, SessionTokens::default());
    sender.run_alone(gentle_cfg()).expect("session")
}

/// Loopback has no bottleneck; the estimate is meaningless but the
/// protocol must complete with sane outputs.
fn assert_sane(est: &Estimate) {
    assert!(est.low.bps() <= est.high.bps());
    assert!(!est.fleets.is_empty());
}

#[test]
fn full_session_runs_over_loopback() {
    let rx = receiver();
    let est = measure(rx.ctrl_addr());
    assert_sane(&est);
    assert!(
        est.elapsed > TimeNs::ZERO,
        "elapsed must be wall-clock stamped"
    );
    rx.stop().unwrap();
}

/// The machine contract over real sockets, one event-loop wait at a
/// time: while a command is in flight the machine's own `poll()` pends —
/// the wire-level extension of `tests/driver_equivalence.rs`'s
/// hand-stepped contract test.
#[test]
fn hand_stepped_machine_runs_over_loopback_sockets() {
    let rx = receiver();
    let clock = MonoClock::new();
    let mut t = SocketTransport::connect_with_clock(rx.ctrl_addr(), clock.same_epoch()).unwrap();
    t.rate_cap = Rate::from_mbps(40.0);
    let tokens = SessionTokens {
        ctrl: 1,
        probe: 2,
        timer: 3,
    };
    let mut sender = EventedSession::new(t, tokens);
    let mut lp = EventLoop::new(clock).unwrap();
    sender.begin(&lp, gentle_cfg()).unwrap();
    let started = Instant::now();
    let mut events: Vec<MuxEvent> = Vec::new();
    let mut in_flight = 0;
    let outcome = loop {
        if let Some(outcome) = sender.take_outcome(&lp) {
            break outcome;
        }
        assert!(started.elapsed() < Duration::from_secs(30), "no outcome");
        if sender.command_in_flight() {
            in_flight += 1;
            let machine = sender.machine_mut().expect("built before commands");
            assert!(machine.poll().is_none(), "machine must pend mid-command");
        }
        events.clear();
        lp.wait(&mut events, Duration::from_millis(50)).unwrap();
        for ev in &events {
            sender.on_event(&mut lp, ev);
        }
    };
    assert!(in_flight > 0, "no command was ever seen in flight");
    assert_sane(&outcome.expect("session"));
    drop(sender); // says `Bye`
    rx.stop().unwrap();
}

/// Two senders, one after the other, each a session of its own at the
/// receiver.
#[test]
fn receiver_serves_two_sessions_sequentially() {
    let rx = receiver();
    let addr = rx.ctrl_addr();
    for _ in 0..2 {
        assert_sane(&measure(addr));
    }
    rx.stop().unwrap();
}

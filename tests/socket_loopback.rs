//! The real-socket pathload, end to end over loopback: the same
//! `slops::Session` that drives the simulator drives real UDP/TCP sockets.

// The receiver's event loop is Linux-only (epoll).
#![cfg(target_os = "linux")]

use availbw::pathload_net::{EventedReceiver, EventedReceiverHandle, SocketTransport};
use availbw::slops::machine::{Command, Event, SessionMachine};
use availbw::slops::{ProbeTransport, Session, SlopsConfig};
use availbw::units::{Rate, TimeNs};

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

#[test]
fn full_session_runs_over_loopback() {
    let rx = receiver();
    let addr = rx.ctrl_addr();
    let mut t = SocketTransport::connect(addr).unwrap();
    t.rate_cap = Rate::from_mbps(40.0);
    let est = Session::new(gentle_cfg()).run(&mut t).expect("session");
    // Loopback has no bottleneck; the estimate is meaningless but the
    // protocol must complete with sane outputs.
    assert!(est.low.bps() <= est.high.bps());
    assert!(!est.fleets.is_empty());
    assert!(
        est.elapsed > TimeNs::ZERO,
        "elapsed must be wall-clock stamped"
    );
    drop(t);
    rx.stop().unwrap();
}

/// Hand-step the sans-IO machine command by command over real sockets,
/// through nothing but `ProbeTransport` calls, checking the strict
/// poll/event alternation at every step — the wire-level extension of
/// `tests/driver_equivalence.rs`'s hand-stepped contract test.
#[test]
fn hand_stepped_machine_runs_over_loopback_sockets() {
    let rx = receiver();
    let addr = rx.ctrl_addr();
    let mut t = SocketTransport::connect(addr).unwrap();
    t.rate_cap = Rate::from_mbps(40.0);
    let (rtt, max_rate) = (t.rtt(), t.max_rate());
    let mut machine = SessionMachine::new(gentle_cfg(), rtt, max_rate).unwrap();
    let est = loop {
        let cmd = machine.poll().expect("no command pending at loop head");
        assert!(
            matches!(cmd, Command::Finish(_)) || machine.poll().is_none(),
            "machine must pend while {cmd:?} executes"
        );
        let event = match cmd {
            Command::SendTrain { len, size } => Event::TrainDone(t.send_train(len, size).unwrap()),
            Command::SendStream(req) => Event::StreamDone(t.send_stream(&req).unwrap()),
            Command::Idle(dur) => {
                t.idle(dur);
                Event::Tick(t.elapsed())
            }
            Command::Finish(est) => break *est,
        };
        machine.on_event(event).expect("event answers the command");
    };
    assert!(machine.is_finished());
    assert!(est.low.bps() <= est.high.bps());
    assert!(!est.fleets.is_empty());
    drop(t);
    rx.stop().unwrap();
}

#[test]
fn receiver_serves_two_sessions_sequentially() {
    let rx = receiver();
    let addr = rx.ctrl_addr();
    use availbw::slops::ProbeTransport as _;
    for _ in 0..2 {
        let mut t = SocketTransport::connect(addr).unwrap();
        let rec = t.send_train(10, 600).unwrap();
        assert!(rec.received >= 8);
        drop(t);
    }
    rx.stop().unwrap();
}

#[test]
fn rtt_and_idle_behave() {
    let rx = receiver();
    let addr = rx.ctrl_addr();
    let mut t = SocketTransport::connect(addr).unwrap();
    let rtt = availbw::slops::ProbeTransport::rtt(&mut t);
    assert!(rtt < TimeNs::from_millis(100), "loopback RTT {rtt}");
    let before = availbw::slops::ProbeTransport::elapsed(&t);
    availbw::slops::ProbeTransport::idle(&mut t, TimeNs::from_millis(20));
    let after = availbw::slops::ProbeTransport::elapsed(&t);
    assert!(after - before >= TimeNs::from_millis(19));
    drop(t);
    rx.stop().unwrap();
}

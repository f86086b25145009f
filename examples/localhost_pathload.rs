//! Run the *real-socket* pathload against a receiver thread over loopback
//! (Linux: the receiver is an epoll event loop).
//!
//! The estimate itself is not meaningful on loopback (there is no FIFO
//! bottleneck; the "avail-bw" is whatever the kernel schedules), but this
//! demonstrates the full sender/receiver protocol — UDP probe streams, TCP
//! control channel, pacing, timestamping — end to end on a real network
//! stack, with the very same `slops::SessionMachine` that runs on the
//! simulator, hosted the way `pathload_snd` hosts it.
//!
//! ```text
//! cargo run --release --example localhost_pathload
//! ```

#[cfg(not(target_os = "linux"))]
fn main() {
    eprintln!("localhost_pathload requires Linux (epoll, timerfd, kernel arrival stamps)");
    std::process::exit(2);
}

#[cfg(target_os = "linux")]
fn main() {
    use availbw::pathload_net::{EventedReceiver, EventedSession, SocketTransport};
    use availbw::slops::SlopsConfig;
    use availbw::units::{Rate, TimeNs};

    let rx = EventedReceiver::bind("127.0.0.1:0".parse().unwrap())
        .expect("bind receiver")
        .spawn();
    let addr = rx.ctrl_addr();
    println!("receiver listening on {addr}");

    let mut transport = SocketTransport::connect(addr).expect("connect");
    // Keep the probing gentle: short streams, 0.5 ms period floor, coarse
    // resolution, and a ceiling well below loopback line rate so the run
    // finishes in a few seconds.
    let mut cfg = SlopsConfig::default();
    cfg.stream_len = 50;
    cfg.fleet_len = 6;
    cfg.min_period = TimeNs::from_micros(500);
    cfg.resolution = Rate::from_mbps(5.0);
    cfg.grey_resolution = Rate::from_mbps(10.0);
    transport.rate_cap = Rate::from_mbps(60.0);

    let mut sender = EventedSession::new(transport, Default::default());
    match sender.run_alone(cfg) {
        Ok(est) => {
            println!(
                "loopback 'avail-bw' range: [{:.1}, {:.1}] Mb/s ({} fleets, {:?})",
                est.low.mbps(),
                est.high.mbps(),
                est.fleets.len(),
                est.termination
            );
            println!("(loopback has no FIFO bottleneck; the point is the protocol ran)");
        }
        Err(e) => println!("measurement failed: {e}"),
    }
    drop(sender); // sends Bye
    rx.stop().expect("receiver thread");
}

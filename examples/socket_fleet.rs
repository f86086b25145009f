//! A socket-backed monitoring fleet over loopback: what the `monitord`
//! binary does, as a library call.
//!
//! Three paths, all against ONE in-process `pathload_rcv` receiver (the
//! multi-session receiver demuxes them by session token), monitored by
//! the socket fleet driver on one event-loop thread — real UDP probe
//! streams, real TCP control channels, one long-lived connection per
//! path, all sender clocks on one shared epoch — with the JSONL records a
//! daemon would emit streamed to stdout as measurements finish. Linux
//! only (epoll).
//!
//! Loopback has no FIFO bottleneck, so the "avail-bw" numbers are not
//! meaningful; the point is the deployable stack end to end. Runs for
//! about ten seconds.
//!
//! ```text
//! cargo run --release --example socket_fleet
//! ```

#[cfg(not(target_os = "linux"))]
fn main() {
    eprintln!("socket_fleet requires Linux (epoll, timerfd, kernel arrival stamps)");
    std::process::exit(2);
}

#[cfg(target_os = "linux")]
fn main() {
    use availbw::monitord::export::{change_line, fleet_summary, sample_line, summary_line};
    use availbw::monitord::{
        run_socket_fleet_async_with_telemetry, FleetEvent, ScheduleConfig, SeriesConfig,
        ShutdownFlag, SocketPathSpec,
    };
    use availbw::pathload_net::EventedReceiver;
    use availbw::slops::SlopsConfig;
    use availbw::units::{Rate, TimeNs};

    // Gentle probing: ~1 s per measurement on a shared machine.
    let mut probe = SlopsConfig::default();
    probe.stream_len = 30;
    probe.fleet_len = 4;
    probe.min_period = TimeNs::from_millis(1);
    probe.resolution = Rate::from_mbps(8.0);
    probe.grey_resolution = Rate::from_mbps(16.0);
    probe.max_fleets = 6;

    const N: usize = 3;
    let rx = EventedReceiver::bind("127.0.0.1:0".parse().unwrap())
        .expect("bind receiver")
        .spawn();
    let addr = rx.ctrl_addr();
    eprintln!("shared receiver for {N} paths on {addr}");
    let specs: Vec<SocketPathSpec> = (0..N)
        .map(|i| SocketPathSpec {
            label: format!("lo{i}"),
            ctrl_addr: addr,
            cfg: probe.clone(),
            rate_cap: Some(Rate::from_mbps(40.0)),
        })
        .collect();

    let sched = ScheduleConfig {
        period: TimeNs::from_secs(2),
        jitter: TimeNs::from_millis(200),
        max_concurrent: 1, // loopback paths share the host
        seed: 7,
    };
    let series = run_socket_fleet_async_with_telemetry(
        specs,
        &sched,
        &SeriesConfig::default(),
        TimeNs::from_secs(8),
        &ShutdownFlag::new(), // run to the horizon
        None,                 // no telemetry hub
        |ev| match ev {
            FleetEvent::Sample {
                path,
                label,
                sample,
            } => println!("{}", sample_line(path, label, &sample)),
            FleetEvent::Change {
                path,
                label,
                change,
            } => println!("{}", change_line(path, label, &change)),
            FleetEvent::Failed { path, label, error } => {
                eprintln!("measurement {path} ({label}) failed: {error}")
            }
        },
    )
    .expect("fleet run");

    for (p, s) in series.iter().enumerate() {
        println!("{}", summary_line(p, s));
    }
    eprint!("\n{}", fleet_summary(&series));
    rx.stop().expect("receiver");
}

//! The socket paths of a monitoring fleet: what the socket fleet driver
//! ([`crate::evented`]) connects to.
//!
//! Each monitored path is one [`pathload_net::SocketTransport`] connected
//! to a `pathload_rcv` receiver near that path's far end. Receivers are
//! session-multiplexing, so paths whose far ends are co-located may all
//! name the **same** receiver address — each connection becomes its own
//! session, demuxed by the token in every probe packet. All transports
//! of a fleet share **one clock epoch** ([`pathload_net::clock::MonoClock::same_epoch`]):
//! the scheduler staggers starts across paths on a single timeline, so the
//! per-path `elapsed()` clocks must agree on what "now" means.

use pathload_net::clock::MonoClock;
use pathload_net::SocketTransport;
use slops::SlopsConfig;
use std::io;
use std::net::SocketAddr;
use units::Rate;

/// One monitored path of a socket-backed fleet.
#[derive(Clone, Debug)]
pub struct SocketPathSpec {
    /// Label carried into the series and the export layer.
    pub label: String,
    /// Control address of the path's `pathload_rcv` receiver.
    pub ctrl_addr: SocketAddr,
    /// Measurement configuration for this path.
    pub cfg: SlopsConfig,
    /// Override of the transport's pacing rate cap (see
    /// [`SocketTransport::rate_cap`]); `None` keeps the default.
    pub rate_cap: Option<Rate>,
}

/// Connect one [`SocketTransport`] per path, all sharing a single clock
/// epoch. Returns the epoch clock (so an event loop can read the same
/// timeline) and the connected `(spec, transport)` pairs in path order.
#[cfg_attr(not(unix), allow(dead_code))]
pub(crate) fn connect_transports(
    specs: Vec<SocketPathSpec>,
) -> io::Result<(MonoClock, Vec<(SocketPathSpec, SocketTransport)>)> {
    let epoch = MonoClock::new();
    let mut out = Vec::with_capacity(specs.len());
    for spec in specs {
        let mut transport =
            SocketTransport::connect_with_clock(spec.ctrl_addr, epoch.same_epoch())?;
        if let Some(cap) = spec.rate_cap {
            transport.rate_cap = cap;
        }
        out.push((spec, transport));
    }
    Ok((epoch, out))
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use crate::evented::run_socket_fleet_async_with_telemetry;
    use crate::fleet::ShutdownFlag;
    use crate::scheduler::ScheduleConfig;
    use crate::store::SeriesConfig;
    use pathload_net::EventedReceiver;
    use std::thread;
    use std::time::{Duration, Instant};
    use units::TimeNs;

    fn spec(label: &str, ctrl_addr: SocketAddr) -> SocketPathSpec {
        let mut cfg = SlopsConfig::default();
        cfg.stream_len = 20;
        cfg.fleet_len = 3;
        cfg.min_period = TimeNs::from_millis(1);
        cfg.resolution = Rate::from_mbps(10.0);
        cfg.grey_resolution = Rate::from_mbps(20.0);
        cfg.max_fleets = 4;
        SocketPathSpec {
            label: label.into(),
            ctrl_addr,
            cfg,
            rate_cap: Some(Rate::from_mbps(30.0)),
        }
    }

    /// Two paths naming ONE receiver address connect as two sessions of
    /// it (the receiver demuxes them by token), in path order, with their
    /// rate caps, on the fleet's one clock epoch.
    #[test]
    fn loopback_pair_shares_one_receiver() {
        let rx = EventedReceiver::bind("127.0.0.1:0".parse().unwrap())
            .unwrap()
            .spawn();
        let specs = ["lo0", "lo1"]
            .iter()
            .map(|l| spec(l, rx.ctrl_addr()))
            .collect();
        let (epoch, connected) = connect_transports(specs).unwrap();
        let before = epoch.now_ns();
        let labels: Vec<&str> = connected.iter().map(|(s, _)| s.label.as_str()).collect();
        assert_eq!(labels, ["lo0", "lo1"]);
        assert_ne!(connected[0].1.session(), connected[1].1.session());
        for (spec, transport) in &connected {
            assert_eq!(transport.rate_cap, Rate::from_mbps(30.0));
            let at = transport.elapsed().as_nanos();
            assert!(
                before <= at && at <= epoch.now_ns(),
                "{}: not on the fleet's clock epoch",
                spec.label
            );
        }
        drop(connected);
        rx.stop().unwrap();
    }

    /// A shutdown request cancels a start that is still waiting for its
    /// start instant: with path 1 staggered 5 s out and the flag raised
    /// at ~1.5 s, the fleet returns promptly (path 1 is never measured)
    /// instead of sleeping out the stagger and probing after the signal.
    #[test]
    fn shutdown_cancels_a_dispatched_but_unstarted_measurement() {
        let rx = EventedReceiver::bind("127.0.0.1:0".parse().unwrap())
            .unwrap()
            .spawn();
        let specs = ["lo0", "lo1"]
            .iter()
            .map(|l| spec(l, rx.ctrl_addr()))
            .collect();
        let sched = ScheduleConfig {
            period: TimeNs::from_secs(10), // stagger puts path 1 at +5 s
            jitter: TimeNs::ZERO,
            max_concurrent: 2,
            seed: 2,
        };
        let stop = ShutdownFlag::new();
        let signal = {
            let stop = stop.clone();
            thread::spawn(move || {
                thread::sleep(Duration::from_millis(1_500));
                stop.request();
            })
        };
        let begun = Instant::now();
        let series = run_socket_fleet_async_with_telemetry(
            specs,
            &sched,
            &SeriesConfig::default(),
            TimeNs::from_secs(60),
            &stop,
            None,
            |_| {},
        )
        .unwrap();
        let elapsed = begun.elapsed();
        signal.join().unwrap();
        rx.stop().unwrap();

        // Path 0 measured once (it started immediately); path 1's start
        // was cancelled while pending — no sample, no error.
        assert_eq!(series[0].len(), 1, "path 0 measures before the signal");
        assert_eq!(series[1].len(), 0, "path 1 must be cancelled, not measured");
        assert_eq!(series[0].errors() + series[1].errors(), 0);
        assert!(
            elapsed < Duration::from_millis(4_500),
            "shutdown waited out the stagger: {elapsed:?}"
        );
    }

    /// A receiver that is not there is a connect error.
    #[test]
    fn unreachable_receiver_is_a_connect_error() {
        // Bind-and-drop to get a port that is almost surely closed.
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        assert!(connect_transports(vec![spec("dead", dead)]).is_err());
    }
}

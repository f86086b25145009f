//! `pathload_snd <receiver-addr> [resolution-mbps]` — run one avail-bw
//! measurement against a running `pathload_rcv` and print the range.
//!
//! Example: `pathload_snd 192.0.2.7:9100 1.0`
//!
//! The measurement runs on one `EventedSession` over a private event
//! loop. Exit status: 0 with a range printed, 1 when the receiver cannot
//! be reached or the measurement fails, 2 on a usage error. Linux only
//! (epoll, timerfd, kernel arrival stamps): elsewhere it says so and
//! exits 2.

use slops::SlopsConfig;
use std::net::SocketAddr;
use std::process::exit;
use units::Rate;

fn main() {
    let mut args = std::env::args().skip(1);
    let (Some(addr), res, None) = (args.next(), args.next(), args.next()) else {
        eprintln!("usage: pathload_snd <receiver-addr> [resolution-mbps]");
        exit(2);
    };
    let addr: SocketAddr = match addr.parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bad receiver address {addr:?}: {e}");
            exit(2);
        }
    };
    let mut cfg = SlopsConfig::default();
    if let Some(res) = res {
        match res.parse::<f64>() {
            Ok(mbps) if mbps > 0.0 => {
                cfg.resolution = Rate::from_mbps(mbps);
                cfg.grey_resolution = Rate::from_mbps(2.0 * mbps);
            }
            _ => {
                eprintln!("bad resolution {res:?} (want Mb/s as a positive number)");
                exit(2);
            }
        }
    }
    measure(addr, cfg);
}

/// Run one measurement toward `addr` and print it (exit 1 on failure).
#[cfg(target_os = "linux")]
fn measure(addr: SocketAddr, cfg: SlopsConfig) {
    use pathload_net::{EventedSession, SocketTransport};
    let mut sender = match SocketTransport::connect(addr) {
        Ok(t) => EventedSession::new(t, Default::default()),
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            exit(1);
        }
    };
    println!("pathload_snd: measuring toward {addr} ...");
    let outcome = sender.run_alone(cfg);
    drop(sender); // says `Bye`
    match outcome {
        Ok(est) => {
            println!(
                "avail-bw range: [{:.2}, {:.2}] Mb/s  (midpoint {:.2} Mb/s)",
                est.low.mbps(),
                est.high.mbps(),
                est.midpoint().mbps()
            );
            if let Some((glo, ghi)) = est.grey {
                println!(
                    "grey region:    [{:.2}, {:.2}] Mb/s",
                    glo.mbps(),
                    ghi.mbps()
                );
            }
            println!(
                "fleets: {}   termination: {:?}   elapsed: {}",
                est.fleets.len(),
                est.termination,
                est.elapsed
            );
        }
        Err(e) => {
            eprintln!("measurement failed: {e}");
            exit(1);
        }
    }
}

#[cfg(not(target_os = "linux"))]
fn measure(_addr: SocketAddr, _cfg: SlopsConfig) {
    eprintln!("pathload_snd requires Linux (epoll, timerfd, kernel arrival stamps)");
    exit(2);
}

//! `pathload_rcv <listen-addr>` — the pathload receiver daemon.
//!
//! Example: `pathload_rcv 0.0.0.0:9100`
//!
//! One daemon serves any number of concurrent senders: each control
//! connection becomes an independent session, and the shared UDP probe
//! socket is demuxed by the session token minted at `Hello`. A whole
//! `monitord` fleet can therefore point every path at this one address.
//! The sessions are hosted on one event-loop thread with a
//! `recvmmsg`-batched probe datapath stamped by the kernel.
//!
//! Linux only: on other Unix hosts the receiver's event loop fails to
//! start with `Unsupported` (exit 1), and elsewhere the binary exits 2.

use std::net::SocketAddr;
use std::process::exit;

fn main() {
    let mut args = std::env::args().skip(1);
    let (Some(addr), None) = (args.next(), args.next()) else {
        eprintln!("usage: pathload_rcv <listen-addr>   (e.g. 0.0.0.0:9100)");
        exit(2);
    };
    let addr: SocketAddr = match addr.parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bad listen address {addr:?}: {e}");
            exit(2);
        }
    };
    serve(addr);
}

/// Serve on the one-thread receiver; never returns.
#[cfg(unix)]
fn serve(addr: SocketAddr) {
    use std::sync::atomic::AtomicBool;
    let mut rx = match pathload_net::EventedReceiver::bind(addr) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            exit(1);
        }
    };
    println!(
        "pathload_rcv: control on {} (multi-session: any number of senders)",
        rx.ctrl_addr()
    );
    static RUN_FOREVER: AtomicBool = AtomicBool::new(false);
    match rx.run(&RUN_FOREVER) {
        Ok(()) => exit(0),
        Err(e) => {
            eprintln!("fatal: {e}");
            exit(1);
        }
    }
}

#[cfg(not(unix))]
fn serve(_addr: SocketAddr) {
    eprintln!("pathload_rcv requires an epoll event loop (Linux)");
    exit(2);
}

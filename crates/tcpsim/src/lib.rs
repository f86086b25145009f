//! # tcpsim — TCP Reno over netsim
//!
//! A segment-level TCP Reno implementation for the paper's §VII
//! experiments: the relation between avail-bw and the throughput of a
//! greedy bulk-transfer-capacity (BTC) connection, and the damage such a
//! connection does to path delays and competing traffic (Figs. 15–16).
//!
//! Implemented: slow start, congestion avoidance, fast retransmit after
//! three duplicate ACKs, Reno fast recovery, RTO with Jacobson/Karn
//! estimation and exponential backoff, cumulative ACKs with out-of-order
//! buffering at the receiver, and timestamp echo for unambiguous RTT
//! samples.
//!
//! Simplifications: no handshake or FIN teardown (connections start
//! established — the experiments study steady state), no delayed ACKs,
//! unbounded receiver window (the BTC definition: only the network limits
//! the transfer), no SACK (Reno, as in the paper's 2002-era stacks).
//!
//! ```
//! use netsim::{ChainConfig, LinkConfig, Simulator, Chain};
//! use tcpsim::TcpConnection;
//! use units::{Rate, TimeNs};
//!
//! let mut sim = Simulator::new(7);
//! let chain = Chain::build(&mut sim, &ChainConfig::symmetric(vec![
//!     LinkConfig::new(Rate::from_mbps(8.0), TimeNs::from_millis(20))
//!         .with_queue_limit(64 * 1024), // a realistic router buffer
//! ]));
//! let conn = TcpConnection::greedy(&mut sim, &chain, 1);
//! sim.run_until(TimeNs::from_secs(30));
//! let tput = conn.throughput(&sim, TimeNs::from_secs(5), TimeNs::from_secs(30));
//! // A lone greedy connection saturates the 8 Mb/s link.
//! assert!(tput.mbps() > 7.0, "got {tput}");
//! ```

#![forbid(unsafe_code)]

pub mod conn;
pub mod receiver;
pub mod rtt;
pub mod sender;

pub use conn::TcpConnection;
pub use receiver::TcpReceiver;
pub use rtt::RttEstimator;
pub use sender::{TcpSender, TcpSenderConfig};

/// Maximum segment size used by all connections (Ethernet MTU minus
/// 40 bytes of IP+TCP header).
pub const MSS: u32 = 1460;

/// Wire overhead per segment (IP + TCP headers).
pub const HEADER: u32 = 40;

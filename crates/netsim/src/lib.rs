//! # netsim — deterministic discrete-event packet network simulator
//!
//! A store-and-forward packet simulator in the spirit of NS-2, purpose-built
//! to reproduce the evaluation environment of Jain & Dovrolis (SIGCOMM 2002):
//! chains of FIFO drop-tail links with configurable capacity, propagation
//! delay and buffering, crossed by stochastic traffic, and probed by
//! applications (periodic UDP-like streams, packet trains, ping, TCP).
//!
//! Design points:
//!
//! * **Deterministic**: event queues ordered by `(time, seq)`; all
//!   randomness flows from seeded [`rng::Prng`] instances. Two runs with the
//!   same seeds produce identical event sequences. Fleets of disjoint paths
//!   can shard the queue per connected component
//!   ([`Simulator::try_shard`]) without changing any per-path observable —
//!   see [`sim`]'s module docs for the sharding model.
//! * **Source routing**: packets carry an `Arc<RouteSpec>` (list of link ids
//!   plus destination application). The paper's topologies are fixed chains,
//!   so routing tables would be dead weight.
//! * **Output-queue link model**: each unidirectional [`link::Link`] is a
//!   transmission server plus a byte-bounded drop-tail FIFO; propagation
//!   delay is added after transmission completes — exactly the model used in
//!   the paper's Appendix.
//! * **Applications** are boxed state machines ([`app::App`]) dispatched by
//!   id; they can send packets and arm timers re-entrantly through
//!   [`app::Ctx`].
//! * **One-hop cross traffic costs no events**: a source that enters and
//!   exits at one link, into a sink that only counts, is an
//!   [`link::ArrivalProcess`] the link owns and pulls
//!   ([`Simulator::attach_arrivals`]).
//! * **Built-in measurement**: per-link counters and MRTG-style windowed
//!   utilization ([`monitor::UtilMonitor`]), a ping prober ([`ping`]), and
//!   fault injection (random loss) for failure testing.
//!
//! ```
//! use netsim::{LinkConfig, Simulator};
//! use units::{Rate, TimeNs};
//!
//! let mut sim = Simulator::new(1);
//! let l = sim.add_link(LinkConfig::new(Rate::from_mbps(10.0), TimeNs::from_millis(5)));
//! let sink = sim.add_app(Box::new(netsim::app::CountingSink::default()));
//! let route = sim.route(&[l], sink);
//! sim.inject(netsim::Packet::new(1500, netsim::FlowId(1), 0, route), units::TimeNs::ZERO);
//! sim.run_until_idle(TimeNs::from_secs(1));
//! // 1500 B at 10 Mb/s = 1.2 ms transmission + 5 ms propagation
//! assert_eq!(sim.now(), TimeNs::from_micros(6200));
//! ```

#![forbid(unsafe_code)]

pub mod app;
pub mod event;
pub mod link;
pub mod monitor;
pub mod packet;
pub mod ping;
pub mod pool;
pub mod red;
pub mod rng;
pub mod shard;
pub mod sim;
pub mod topology;
mod tournament;

pub use app::{App, AppId, Ctx};
pub use link::{ArrivalProcess, Link, LinkConfig, LinkId, LinkStats};
pub use packet::{FlowId, Packet, Payload, RouteSpec, TcpFlags, TcpHeader};
pub use ping::{EchoReflector, PingStats, Pinger, PingerConfig};
pub use pool::PacketSlot;
pub use red::{RedConfig, RedState};
pub use rng::Prng;
pub use shard::ShardRefusal;
pub use sim::{EngineStats, Simulator};
pub use topology::{Chain, ChainConfig};

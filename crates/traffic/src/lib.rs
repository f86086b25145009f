//! # traffic — stochastic cross-traffic generators for netsim
//!
//! Implements the cross-traffic models used in the paper's evaluation
//! (§V-A): renewal packet sources with exponential or Pareto (α = 1.9,
//! infinite variance) interarrivals, the 40/550/1500-byte packet-size mix,
//! constant-bit-rate sources, and Pareto ON/OFF sources whose aggregate
//! models different degrees of statistical multiplexing (§VI-B).
//!
//! Every source is an [`netsim::ArrivalProcess`] over its own seeded PRNG,
//! so experiments are exactly reproducible. A source whose route is one
//! link into a counting sink — the paper's "enters and exits at each hop"
//! — is owned by that link and costs no events; any other route gets the
//! same process behind a timer ([`CrossTrafficSource`]).
//!
//! ```
//! use netsim::{LinkConfig, Simulator};
//! use traffic::{attach_sources, Interarrival, SizeDist, SourceConfig};
//! use units::{Rate, TimeNs};
//!
//! let mut sim = Simulator::new(42);
//! let link = sim.add_link(LinkConfig::new(Rate::from_mbps(10.0), TimeNs::from_millis(1)));
//! let sink = sim.add_app(Box::new(netsim::app::CountingSink::default()));
//! let route = sim.route(&[link], sink);
//! // 10 Pareto sources carrying 6 Mb/s aggregate (60% utilization).
//! attach_sources(&mut sim, route, Rate::from_mbps(6.0), 10, &SourceConfig::paper_pareto());
//! sim.run_until(TimeNs::from_secs(30));
//! let util = sim.link(link).stats.utilization(TimeNs::from_secs(30));
//! assert!((util - 0.6).abs() < 0.05);
//! ```

#![forbid(unsafe_code)]

pub mod interarrival;
pub mod onoff;
pub mod sizes;
pub mod source;

pub use interarrival::{Gaps, Interarrival};
pub use onoff::{attach_onoff_sources, OnOffArrivals, OnOffConfig};
pub use sizes::SizeDist;
pub use source::{attach_sources, CrossTrafficSource, RenewalArrivals, SourceConfig};

//! The simulation engine: event loop, link forwarding, app dispatch — and
//! the sharded event queues that make fleet-scale simulations cheap.
//!
//! # Events per packet
//!
//! | packet | dispatched events |
//! |---|---|
//! | from a link's attached one-hop source | **0** |
//! | sent by an app at the current instant, one hop | 2 (`Timer`, `Deliver`) |
//! | injected from outside, k hops | k + 1 (k × `ArriveAtLink`, `Deliver`) |
//!
//! A FIFO link fixes a packet's departure the moment it arrives (see
//! [`crate::link`]), so the engine never schedules a "transmission done"
//! event: an arrival at a link schedules the *next* arrival (or the
//! delivery) one propagation delay after the departure the link returns.
//! An app that sends at the current instant skips the first arrival event
//! too — its first-hop arrival runs inside the send unless an arrival at
//! that same link is already due at this very instant
//! (`SimCore::arrives_inline`). Pop order, and with it every observable,
//! is exactly what queueing the arrival would have produced.
//!
//! A source whose whole route is one link into a [`CountingSink`] needs no
//! events at all ([`Simulator::attach_arrivals`]): the link pulls its
//! arrivals when it is next looked at and the sink is credited in bulk.
//! The same-instant order is the link's to define and is written down
//! there: an event arrival at `t` precedes an attached arrival at `t`;
//! attached arrivals at one instant fire in arming order. What is left in
//! the queues is probe packets × hops, TCP segments, multi-hop cross flows
//! and app timers.
//!
//! Links pull and credit lazily, so every public entry point that advances
//! the clock ends by settling all links — and through them the counting
//! sinks — to it.
//!
//! # Sharding model
//!
//! A fleet of disjoint paths needs no total event order: events on path A
//! never causally affect path B. The engine therefore partitions the
//! topology into connected components (tracked by [`crate::shard`]'s
//! union-find as routes and binds are created) and, on
//! [`Simulator::try_shard`], gives each component its own event queue.
//! Shards are drained round-robin per time slice ([`Simulator::run_until`]),
//! so a fleet of N disjoint paths pays N *small* heap operations where the
//! single queue paid one *global* one — the win is O(log total) →
//! O(log per-path), measured in op counts ([`EngineStats`]) because this
//! is a single-core engine.
//!
//! Sharding never changes results where it is allowed to engage:
//!
//! * **Refusal**: topologies whose links form one component (e.g. every
//!   path crosses a shared tight link) refuse to shard
//!   ([`ShardRefusal::SingleComponent`]) and stay on the always-correct
//!   single queue. So do topologies with apps the planner cannot anchor.
//! * **Bit identity**: on a sharded run, per-component event order is the
//!   single-queue order restricted to that component (the freeze splits
//!   the pending queue in pop order; per-shard sequence numbers preserve
//!   relative order from then on), so every per-path observable —
//!   estimates, traces, link stats — is bit-identical to the single-queue
//!   engine. Only the interleaving *between* independent components (and
//!   the unobserved global packet-id assignment order) differs.
//! * **Collapse**: if the topology changes mid-run in a way that connects
//!   two shards (a new cross-shard route) or produces events the plan
//!   cannot place, the engine deterministically folds all shards back
//!   into one queue at the next API boundary and keeps going —
//!   correctness never depends on the partition staying valid.

use crate::app::{App, AppId, CountingSink, Ctx};
use crate::event::{Event, EventKind, EventQueue, QueueStats};
use crate::link::{ArrivalProcess, Link, LinkConfig, LinkId};
use crate::packet::{Packet, RouteSpec};
use crate::pool::{PacketPool, PacketSlot};
use crate::rng::Prng;
use crate::shard::{ShardRefusal, TopoMap, SHARD_NONE};
use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::Arc;
use units::TimeNs;

/// One event-queue shard: a queue plus its own clock (the time of the last
/// event it dispatched; all shard clocks are aligned at run boundaries).
#[derive(Debug)]
struct Shard {
    queue: EventQueue,
    now: TimeNs,
}

/// Aggregated engine counters: throughput, heap-op, and pool metrics.
///
/// Plain data — netsim is sans-IO, so drivers (e.g. the monitord in-sim
/// fleet driver) drain this into their own telemetry registries, mirroring
/// the session machine's `drain_trace()` idiom.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events dispatched since construction.
    pub events_processed: u64,
    /// Real `BinaryHeap` pushes across all queues (front-slot placements
    /// excluded).
    pub heap_pushes: u64,
    /// Real `BinaryHeap` pops across all queues (front-slot serves
    /// excluded).
    pub heap_pops: u64,
    /// Pushes and pops served by the one-element front slot, bypassing
    /// the heap entirely.
    pub front_hits: u64,
    /// Sum over heap ops of ceil(log2(depth)): a comparison-cost proxy
    /// that captures the log(global) → log(shard) win sharding buys even
    /// when the raw op count is unchanged.
    pub heap_cmp_weight: u64,
    /// Deepest any single event queue got (front slot included).
    pub heap_max_depth: usize,
    /// Number of event-queue shards (1 = the single-queue engine).
    pub shards: usize,
    /// High-water mark of simultaneously in-flight pooled packets.
    pub pool_live_max: usize,
    /// Packets that links pulled from their attached arrival processes:
    /// arrivals (and deliveries) that cost no event at all.
    pub attached_arrivals: u64,
}

impl EngineStats {
    /// Total real heap operations (pushes + pops).
    pub fn heap_ops(&self) -> u64 {
        self.heap_pushes + self.heap_pops
    }

    /// Real heap operations per dispatched event (0 when idle).
    pub fn heap_ops_per_event(&self) -> f64 {
        if self.events_processed == 0 {
            0.0
        } else {
            self.heap_ops() as f64 / self.events_processed as f64
        }
    }

    /// Heap comparison weight per dispatched event (0 when idle).
    pub fn cmp_weight_per_event(&self) -> f64 {
        if self.events_processed == 0 {
            0.0
        } else {
            self.heap_cmp_weight as f64 / self.events_processed as f64
        }
    }
}

/// Engine state shared with applications through [`Ctx`]: clock, event
/// queues, links, and the packet pool. Kept separate from the app table so
/// apps can be dispatched with `&mut SimCore` without aliasing themselves.
#[derive(Debug)]
pub struct SimCore {
    pub(crate) now: TimeNs,
    shards: Vec<Shard>,
    /// Owning shard per link (parallel to `links`; all zeros when the
    /// engine runs a single queue).
    link_shard: Vec<u32>,
    /// Owning shard per app id.
    app_shard: Vec<u32>,
    /// Shard currently dispatching (valid while `in_dispatch`).
    current_shard: u32,
    in_dispatch: bool,
    /// An in-dispatch push crossed into another shard this pass: the
    /// round-robin loop must rescan before declaring the slice done.
    rescan: bool,
    pub(crate) links: Vec<Link>,
    /// Per link (parallel to `links`): the times of its pending
    /// `ArriveAtLink` events, ascending — which is also their dispatch
    /// order. Lets a send at `now` know in O(1) whether it would overtake
    /// an arrival already due at this instant.
    arrivals_due: Vec<VecDeque<TimeNs>>,
    pool: PacketPool,
    /// Union-find topology map. In a `RefCell` because
    /// [`Simulator::route`] takes `&self` but must record the union; the
    /// hot event path never touches it (it reads the materialized
    /// `link_shard` / `app_shard` tables instead).
    topo: RefCell<TopoMap>,
    /// Counters absorbed from queues retired by freeze/collapse.
    carried: QueueStats,
    next_pkt_id: u64,
    events_processed: u64,
}

impl SimCore {
    /// The shard an event belongs to. Only meaningful input reaches here:
    /// the public API sanitizes external pushes, and in-dispatch pushes
    /// are covered by the closure invariant (see [`SimCore::push`]).
    fn target_shard(&self, kind: &EventKind) -> u32 {
        if self.shards.len() <= 1 {
            return 0;
        }
        match kind {
            EventKind::ArriveAtLink { link, .. } => self
                .link_shard
                .get(link.0 as usize)
                .copied()
                .unwrap_or(SHARD_NONE),
            EventKind::Deliver { app, .. } | EventKind::Timer { app, .. } => self
                .app_shard
                .get(app.0 as usize)
                .copied()
                .unwrap_or(SHARD_NONE),
        }
    }

    fn push(&mut self, time: TimeNs, kind: EventKind) {
        let s = self.target_shard(&kind);
        assert!(
            s != SHARD_NONE,
            "event targets a node outside every shard (route it, or bind it, \
             before scheduling into it)"
        );
        let s = s as usize;
        if self.in_dispatch && s as u32 != self.current_shard {
            // A cross-shard push (an app sending on a route that spans
            // components). Sound only if it lands in the target shard's
            // future; the round-robin pass rescans to pick it up.
            assert!(
                time >= self.shards[s].now,
                "cross-shard event into the past: the topology violated the \
                 shard closure invariant (bind routes before sharding)"
            );
            self.rescan = true;
        }
        self.shards[s].queue.push(time, kind);
    }

    /// Inject a packet at `at` (≥ now): stamps id and `sent_at`, parks it
    /// in the pool, then schedules its arrival at the first link of its
    /// route (or direct delivery for an empty route). An app sending at
    /// the current instant skips the queue when that cannot reorder
    /// anything (see `SimCore::arrives_inline`).
    pub(crate) fn inject(&mut self, mut pkt: Packet, at: TimeNs) {
        assert!(at >= self.now, "cannot inject into the past");
        pkt.id = self.next_pkt_id;
        self.next_pkt_id += 1;
        pkt.sent_at = at;
        pkt.hop = 0;
        let first = pkt.next_link();
        let app = pkt.route.dst;
        let slot = self.pool.insert(pkt);
        match first {
            Some(link) if self.arrives_inline(link, at) => self.arrive(link, slot, at),
            Some(link) => self.push_arrival(at, link, slot),
            None => self.push(at, EventKind::Deliver { app, slot }),
        }
    }

    /// Schedule an `ArriveAtLink`, keeping the link's due list in step.
    fn push_arrival(&mut self, at: TimeNs, link: LinkId, slot: PacketSlot) {
        let due = &mut self.arrivals_due[link.0 as usize];
        due.insert(due.partition_point(|&t| t <= at), at);
        self.push(at, EventKind::ArriveAtLink { link, slot });
    }

    /// Whether a send at `at` may run its first-hop arrival right now
    /// instead of queueing a same-instant `ArriveAtLink`. That event would
    /// carry the newest sequence number, i.e. pop after every event
    /// already pending at this instant; of those, only an arrival at the
    /// same link can tell the difference (anything else that reaches the
    /// link at this instant does so by sending, after us either way). So
    /// the shortcut is exact unless such an arrival is due — a property
    /// of the link alone, hence independent of how the engine is sharded
    /// — and the dispatching shard owns the link.
    fn arrives_inline(&self, link: LinkId, at: TimeNs) -> bool {
        self.in_dispatch
            && at == self.now
            && self.link_shard.get(link.0 as usize) == Some(&self.current_shard)
            && self.arrivals_due[link.0 as usize].front() != Some(&at)
    }

    /// The packet parked in `slot` reaches the tail of `link` at `now`.
    /// The link fixes its departure on the spot, so the next hop (or the
    /// delivery) is scheduled here, one propagation delay after it; a
    /// dropped packet frees its slot.
    fn arrive(&mut self, link: LinkId, slot: PacketSlot, now: TimeNs) {
        let Some(pkt) = self.pool.get_mut(slot) else {
            debug_assert!(false, "arrival event with an empty packet slot");
            return;
        };
        let l = &mut self.links[link.0 as usize];
        let Some(depart) = l.on_arrival(pkt.size, now) else {
            self.pool.take(slot);
            return;
        };
        pkt.hop += 1;
        let at = depart + l.prop_delay();
        match pkt.next_link() {
            Some(next) => self.push_arrival(at, next, slot),
            None => {
                let app = pkt.route.dst;
                self.push(at, EventKind::Deliver { app, slot });
            }
        }
    }

    pub(crate) fn schedule_timer(&mut self, app: AppId, at: TimeNs, token: u64) {
        assert!(at >= self.now, "cannot arm a timer in the past");
        self.push(at, EventKind::Timer { app, token });
    }
}

/// The discrete-event simulator. See the crate docs for an overview and
/// the module docs for the sharding model.
pub struct Simulator {
    core: SimCore,
    apps: Vec<Option<Box<dyn App>>>,
    /// Apps retired with [`Simulator::remove_app`]: their slots are `None`
    /// and events still addressed to them are silently dropped.
    retired: Vec<bool>,
    master_rng: Prng,
    rng_streams_taken: u64,
}

impl Simulator {
    /// Create a simulator; `seed` roots all randomness (links, and any
    /// [`Prng`] handed out by [`Simulator::rng`]). Starts on the
    /// single-queue engine; see [`Simulator::try_shard`].
    pub fn new(seed: u64) -> Simulator {
        Simulator {
            core: SimCore {
                now: TimeNs::ZERO,
                shards: vec![Shard {
                    queue: EventQueue::default(),
                    now: TimeNs::ZERO,
                }],
                link_shard: Vec::new(),
                app_shard: Vec::new(),
                current_shard: 0,
                in_dispatch: false,
                rescan: false,
                links: Vec::new(),
                arrivals_due: Vec::new(),
                pool: PacketPool::default(),
                topo: RefCell::new(TopoMap::default()),
                carried: QueueStats::default(),
                next_pkt_id: 0,
                events_processed: 0,
            },
            apps: Vec::new(),
            retired: Vec::new(),
            master_rng: Prng::new(seed),
            rng_streams_taken: 0,
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> TimeNs {
        self.core.now
    }

    /// Total events processed so far (engine throughput metric).
    pub fn events_processed(&self) -> u64 {
        self.core.events_processed
    }

    /// Aggregated engine counters: events, heap ops (per queue shard),
    /// front-slot hits, pool high-water mark. Plain data for drivers to
    /// drain into their telemetry.
    pub fn engine_stats(&self) -> EngineStats {
        let mut q = self.core.carried;
        for s in &self.core.shards {
            q.absorb(s.queue.stats());
        }
        EngineStats {
            events_processed: self.core.events_processed,
            heap_pushes: q.heap_pushes,
            heap_pops: q.heap_pops,
            front_hits: q.front_hits,
            heap_cmp_weight: q.cmp_weight,
            heap_max_depth: q.max_depth,
            shards: self.core.shards.len(),
            pool_live_max: self.core.pool.live_max(),
            attached_arrivals: (self.core.links.iter()).map(Link::attached_arrivals).sum(),
        }
    }

    /// Number of event-queue shards (1 = single-queue engine).
    pub fn shards(&self) -> usize {
        self.core.shards.len()
    }

    fn is_sharded(&self) -> bool {
        self.core.shards.len() > 1
    }

    /// Derive a fresh deterministic RNG (for traffic sources etc.).
    pub fn rng(&mut self) -> Prng {
        self.rng_streams_taken += 1;
        self.master_rng.derive(0xABCD_0000 + self.rng_streams_taken)
    }

    /// Add a link; returns its id.
    pub fn add_link(&mut self, cfg: LinkConfig) -> LinkId {
        let id = LinkId(self.core.links.len() as u32);
        let rng = self.master_rng.derive(0x11_0000 + id.0 as u64);
        self.core.links.push(Link::new(cfg, rng));
        self.core.arrivals_due.push(VecDeque::new());
        self.core.topo.get_mut().add_link();
        // Post-freeze links start outside every shard until a route or
        // bind places them (or forces a collapse).
        let shard = if self.is_sharded() { SHARD_NONE } else { 0 };
        self.core.link_shard.push(shard);
        id
    }

    /// Access a link (stats, monitor, queue state).
    pub fn link(&self, id: LinkId) -> &Link {
        &self.core.links[id.0 as usize]
    }

    /// Number of links.
    pub fn num_links(&self) -> usize {
        self.core.links.len()
    }

    /// Add an application; returns its id.
    pub fn add_app(&mut self, app: Box<dyn App>) -> AppId {
        let id = AppId(self.apps.len() as u32);
        self.apps.push(Some(app));
        self.retired.push(false);
        self.core.topo.get_mut().add_app();
        let shard = if self.is_sharded() { SHARD_NONE } else { 0 };
        self.core.app_shard.push(shard);
        id
    }

    /// Permanently retire an application, returning it for final
    /// inspection. Events still addressed to it — packets in flight, armed
    /// timers, in whichever shard owns them — are dropped on delivery,
    /// like traffic to a host that went away. Long-running experiments
    /// (the monitoring daemon installs a fresh session app per
    /// measurement) use this to keep the app table from accumulating
    /// finished sessions.
    ///
    /// Panics if the app is currently being dispatched or was already
    /// removed.
    pub fn remove_app(&mut self, id: AppId) -> Box<dyn App> {
        let app = self.apps[id.0 as usize]
            .take()
            .expect("app already removed or being dispatched");
        self.retired[id.0 as usize] = true;
        app
    }

    /// Downcast an application to its concrete type (panics on mismatch —
    /// that is always an experiment-code bug).
    pub fn app<T: App>(&self, id: AppId) -> &T {
        let app = self.apps[id.0 as usize]
            .as_ref()
            .expect("app is being dispatched or was removed");
        let any: &dyn Any = app.as_ref();
        any.downcast_ref::<T>().expect("app type mismatch")
    }

    /// Mutable variant of [`Simulator::app`].
    pub fn app_mut<T: App>(&mut self, id: AppId) -> &mut T {
        let app = self.apps[id.0 as usize]
            .as_mut()
            .expect("app is being dispatched or was removed");
        let any: &mut dyn Any = app.as_mut();
        any.downcast_mut::<T>().expect("app type mismatch")
    }

    /// Whether `app` is a plain [`CountingSink`]: a destination nobody
    /// can observe between run boundaries, so deliveries to it may be
    /// credited in bulk ([`Simulator::attach_arrivals`]).
    pub fn is_counting_sink(&self, app: AppId) -> bool {
        self.apps[app.0 as usize].as_ref().is_some_and(|a| {
            let any: &dyn Any = a.as_ref();
            any.is::<CountingSink>()
        })
    }

    /// Hand `link` a one-hop source to own: `process` first fires at
    /// `first_at` (≥ now), its packets cross `link` alone and are counted
    /// by `sink`, which must be a [`CountingSink`]. No event is ever
    /// scheduled for them — see [`crate::link`] for how the link pulls
    /// them and the tie rules — and the sink reads exactly at every run
    /// boundary.
    pub fn attach_arrivals(
        &mut self,
        link: LinkId,
        sink: AppId,
        process: Box<dyn ArrivalProcess>,
        first_at: TimeNs,
    ) {
        assert!(first_at >= self.core.now, "cannot attach into the past");
        assert!(
            self.is_counting_sink(sink),
            "attached arrivals must end in a CountingSink"
        );
        self.core.links[link.0 as usize].attach(process, sink, first_at);
    }

    /// Build a route over the given links ending at `dst`. Also records
    /// the connectivity for the shard planner: the route's links and its
    /// destination join one component.
    pub fn route(&self, links: &[LinkId], dst: AppId) -> Arc<RouteSpec> {
        for l in links {
            assert!(
                (l.0 as usize) < self.core.links.len(),
                "route references unknown link {l:?}"
            );
        }
        self.core.topo.borrow_mut().union_route(links, dst);
        Arc::new(RouteSpec {
            links: links.to_vec(),
            dst,
        })
    }

    /// Declare that these links belong to one component even though no
    /// single route spans them (e.g. a chain's forward and reverse
    /// directions). Required before [`Simulator::try_shard`] can place
    /// route-less links.
    pub fn bind_links(&mut self, links: &[LinkId]) {
        for l in links {
            assert!(
                (l.0 as usize) < self.core.links.len(),
                "bind references unknown link {l:?}"
            );
        }
        self.core.topo.get_mut().union_links(links);
        self.sync_topology();
    }

    /// Anchor an app to the component of the route it sends on. Pure
    /// senders (cross-traffic sources) are never route *destinations*, so
    /// without a bind the shard planner cannot prove where their packets
    /// and timers go and refuses to shard.
    pub fn bind_app(&mut self, app: AppId, route: &RouteSpec) {
        assert!((app.0 as usize) < self.apps.len(), "bind of unknown app");
        self.core
            .topo
            .get_mut()
            .union_app_route(app, &route.links, route.dst);
        self.sync_topology();
    }

    /// Partition the event queue by connected component. Returns the
    /// number of shards, or the reason the topology cannot be partitioned
    /// (in which case the single-queue engine keeps running — a refusal
    /// is a fallback, not a failure). Pending events are redistributed to
    /// their owning shards in pop order, which preserves per-component
    /// event order exactly (the bit-identity contract).
    pub fn try_shard(&mut self) -> Result<usize, ShardRefusal> {
        self.sync_topology();
        if self.is_sharded() {
            return Ok(self.core.shards.len());
        }
        let (link_shard, app_shard, count) = self.core.topo.get_mut().freeze()?;
        let now = self.core.now;
        let old = self
            .core
            .shards
            .pop()
            .expect("engine always has at least one shard");
        let (events, stats) = old.queue.into_events();
        self.core.carried.absorb(&stats);
        self.core.shards = (0..count)
            .map(|_| Shard {
                queue: EventQueue::default(),
                now,
            })
            .collect();
        self.core.link_shard = link_shard;
        self.core.app_shard = app_shard;
        for ev in events {
            let s = self.core.target_shard(&ev.kind);
            assert!(s != SHARD_NONE, "freeze left a pending event unplaced");
            self.core.shards[s as usize].queue.seed(ev.time, ev.kind);
        }
        Ok(count)
    }

    /// Fold every shard back into one queue, deterministically: pending
    /// events merge in `(time, shard, seq)` order. The topology map keeps
    /// accumulating, so a later [`Simulator::try_shard`] may re-partition.
    fn collapse(&mut self) {
        let shards = std::mem::take(&mut self.core.shards);
        let mut all: Vec<(TimeNs, usize, u64, EventKind)> = Vec::new();
        for (i, s) in shards.into_iter().enumerate() {
            let (evs, stats) = s.queue.into_events();
            self.core.carried.absorb(&stats);
            for ev in evs {
                all.push((ev.time, i, ev.seq, ev.kind));
            }
        }
        all.sort_by_key(|&(t, i, q, _)| (t, i, q));
        let mut queue = EventQueue::default();
        for (t, _, _, kind) in all {
            queue.seed(t, kind);
        }
        self.core.shards = vec![Shard {
            queue,
            now: self.core.now,
        }];
        for s in &mut self.core.link_shard {
            *s = 0;
        }
        for s in &mut self.core.app_shard {
            *s = 0;
        }
        self.core.topo.get_mut().unfreeze();
    }

    /// Apply pending topology-map changes before touching the queues:
    /// collapse if a post-freeze union made the partition unsound,
    /// re-materialize the shard tables if it merely grew.
    fn sync_topology(&mut self) {
        let (frozen, dirty, collapse) = {
            let t = self.core.topo.borrow();
            (t.frozen, t.dirty, t.collapse_pending)
        };
        if collapse {
            self.collapse();
        } else if frozen && dirty {
            let (link_shard, app_shard) = self.core.topo.get_mut().materialize();
            self.core.link_shard = link_shard;
            self.core.app_shard = app_shard;
        }
    }

    /// Collapse if routing this route's first hop (or destination) would
    /// hit a node outside every shard.
    fn ensure_route_placed(&mut self, route: &RouteSpec) {
        if !self.is_sharded() {
            return;
        }
        self.core
            .topo
            .get_mut()
            .union_route(&route.links, route.dst);
        self.sync_topology();
        if !self.is_sharded() {
            return;
        }
        let target = match route.links.first() {
            Some(l) => self
                .core
                .link_shard
                .get(l.0 as usize)
                .copied()
                .unwrap_or(SHARD_NONE),
            None => self
                .core
                .app_shard
                .get(route.dst.0 as usize)
                .copied()
                .unwrap_or(SHARD_NONE),
        };
        if target == SHARD_NONE {
            // A component born after the freeze: no shard can own it.
            self.core.topo.get_mut().collapse_pending = true;
            self.sync_topology();
        }
    }

    /// Inject a packet from outside the simulation at an absolute time
    /// (≥ now). Used by probe transports to realize perfectly periodic
    /// streams. On a sharded engine the route is first recorded with the
    /// planner (a route that spans shards or lands outside every shard
    /// collapses the engine back to one queue first).
    pub fn inject(&mut self, pkt: Packet, at: TimeNs) {
        self.ensure_route_placed(&pkt.route);
        self.core.inject(pkt, at);
    }

    /// Arm an application timer at an absolute time. Used to kick off
    /// apps. On a sharded engine an app no shard owns (added after the
    /// freeze, never routed) collapses the engine back to one queue
    /// first.
    pub fn schedule_timer(&mut self, app: AppId, at: TimeNs, token: u64) {
        if self.is_sharded() {
            self.sync_topology();
            if self.is_sharded()
                && self
                    .core
                    .app_shard
                    .get(app.0 as usize)
                    .copied()
                    .unwrap_or(SHARD_NONE)
                    == SHARD_NONE
            {
                self.core.topo.get_mut().collapse_pending = true;
                self.sync_topology();
            }
        }
        self.core.schedule_timer(app, at, token);
    }

    /// Pop and dispatch the next event of shard `s`. The global clock
    /// tracks the event being dispatched (apps observe their own shard's
    /// time through [`Ctx::now`]); shard clocks are re-aligned at run
    /// boundaries.
    fn step_shard(&mut self, s: usize) -> bool {
        let Some(ev) = self.core.shards[s].queue.pop() else {
            return false;
        };
        debug_assert!(
            ev.time >= self.core.shards[s].now,
            "shard queue went backwards"
        );
        self.core.now = ev.time;
        self.core.shards[s].now = ev.time;
        self.core.events_processed += 1;
        self.core.in_dispatch = true;
        self.core.current_shard = s as u32;
        self.dispatch(ev);
        self.core.in_dispatch = false;
        true
    }

    /// Process a single event — the globally earliest pending one (ties
    /// broken by shard index, then scheduling order). Returns false if
    /// every queue is empty.
    pub fn step(&mut self) -> bool {
        self.sync_topology();
        let next = self
            .core
            .shards
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.queue.peek_time().map(|t| (t, i)))
            .min();
        let stepped = next.is_some_and(|(_, i)| self.step_shard(i));
        self.settle_links();
        stepped
    }

    /// Bring every link's counters, monitor and occupancy up to the
    /// clock: links pull their attached arrivals and retire completed
    /// transmissions lazily (on their next event arrival), so every public
    /// entry point that advances the clock ends here and neither
    /// [`Simulator::link`] nor a counting sink ever shows a stale reading.
    fn settle_links(&mut self) {
        let now = self.core.now;
        for l in &mut self.core.links {
            l.settle(now);
            for (sink, credit) in l.take_credits() {
                // A sink that was removed has gone away like any host:
                // what was addressed to it is dropped.
                if let Some(app) = &mut self.apps[sink.0 as usize] {
                    let any: &mut dyn Any = app.as_mut();
                    if let Some(sink) = any.downcast_mut::<CountingSink>() {
                        sink.credit(credit);
                    }
                }
            }
        }
    }

    fn dispatch(&mut self, ev: Event) {
        match ev.kind {
            EventKind::ArriveAtLink { link, slot } => {
                let due = self.core.arrivals_due[link.0 as usize].pop_front();
                debug_assert_eq!(due, Some(ev.time), "due list out of step");
                self.core.arrive(link, slot, ev.time);
            }
            EventKind::Deliver { app, slot } => {
                let Some(pkt) = self.core.pool.take(slot) else {
                    debug_assert!(false, "delivery event with an empty packet slot");
                    return;
                };
                self.with_app(app, |a, ctx| a.on_packet(ctx, pkt));
            }
            EventKind::Timer { app, token } => {
                self.with_app(app, |a, ctx| a.on_timer(ctx, token));
            }
        }
    }

    fn with_app<F: FnOnce(&mut Box<dyn App>, &mut Ctx<'_>)>(&mut self, id: AppId, f: F) {
        if self.retired[id.0 as usize] {
            return; // stale event for a removed app: drop it
        }
        let slot = &mut self.apps[id.0 as usize];
        let mut app = slot.take().expect("re-entrant dispatch of the same app");
        let mut ctx = Ctx {
            core: &mut self.core,
            id,
        };
        f(&mut app, &mut ctx);
        self.apps[id.0 as usize] = Some(app);
    }

    /// Drain every shard's events at ≤ `t`, round-robin, rescanning while
    /// cross-shard pushes land new work in the slice. Returns whether any
    /// event was processed.
    fn drain_until(&mut self, t: TimeNs) -> bool {
        let mut any = false;
        loop {
            self.core.rescan = false;
            let mut progressed = false;
            for s in 0..self.core.shards.len() {
                while self.core.shards[s]
                    .queue
                    .peek_time()
                    .is_some_and(|next| next <= t)
                {
                    self.step_shard(s);
                    progressed = true;
                }
            }
            any |= progressed;
            if !progressed || !self.core.rescan {
                return any;
            }
        }
    }

    /// Run until the clock reaches `t` (processing every event at ≤ t on
    /// every shard), then set all clocks to exactly `t`.
    pub fn run_until(&mut self, t: TimeNs) {
        self.sync_topology();
        self.drain_until(t);
        debug_assert!(self.core.shards.iter().all(|s| s.now <= t));
        for s in &mut self.core.shards {
            s.now = t;
        }
        self.core.now = t;
        self.settle_links();
    }

    /// Run until every event queue drains or the clock would pass
    /// `limit`; returns true if the queues drained. The clock is left at
    /// the last processed event; events beyond `limit` stay pending.
    ///
    /// "Idle" means no pending *events*. Attached arrival processes
    /// ([`Simulator::attach_arrivals`]) never keep a simulator busy: they
    /// go on for ever and nothing waits on them, so the links are settled
    /// to the clock the run stops at — every attached arrival up to it has
    /// happened and is counted — and no further.
    pub fn run_until_idle(&mut self, limit: TimeNs) -> bool {
        self.sync_topology();
        self.drain_until(limit);
        let max_now = self
            .core
            .shards
            .iter()
            .map(|s| s.now)
            .max()
            .unwrap_or(self.core.now);
        self.core.now = self.core.now.max(max_now);
        for s in &mut self.core.shards {
            s.now = self.core.now;
        }
        self.settle_links();
        self.core.shards.iter().all(|s| s.queue.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{CountingSink, RecordingSink};
    use crate::packet::FlowId;
    use units::Rate;

    fn two_link_sim() -> (Simulator, LinkId, LinkId, AppId) {
        let mut sim = Simulator::new(7);
        let l0 = sim.add_link(LinkConfig::new(
            Rate::from_mbps(8.0),
            TimeNs::from_millis(1),
        ));
        let l1 = sim.add_link(LinkConfig::new(
            Rate::from_mbps(4.0),
            TimeNs::from_millis(2),
        ));
        let sink = sim.add_app(Box::new(RecordingSink::default()));
        (sim, l0, l1, sink)
    }

    #[test]
    fn single_packet_end_to_end_latency() {
        let (mut sim, l0, l1, sink) = two_link_sim();
        let route = sim.route(&[l0, l1], sink);
        // 1000 B: tx l0 = 1 ms, prop 1 ms, tx l1 = 2 ms, prop 2 ms => 6 ms
        sim.inject(Packet::new(1000, FlowId(1), 0, route), TimeNs::ZERO);
        assert!(sim.run_until_idle(TimeNs::from_secs(1)));
        let rec = &sim.app::<RecordingSink>(sink).records;
        assert_eq!(rec.len(), 1);
        assert_eq!(rec[0].recv_at, TimeNs::from_millis(6));
        assert_eq!(rec[0].sent_at, TimeNs::ZERO);
    }

    #[test]
    fn fifo_order_is_preserved_within_a_flow() {
        let (mut sim, l0, l1, sink) = two_link_sim();
        let route = sim.route(&[l0, l1], sink);
        for i in 0..50 {
            sim.inject(
                Packet::new(500, FlowId(1), i, route.clone()),
                TimeNs::from_micros(10 * i),
            );
        }
        assert!(sim.run_until_idle(TimeNs::from_secs(10)));
        let rec = &sim.app::<RecordingSink>(sink).records;
        assert_eq!(rec.len(), 50);
        for (i, r) in rec.iter().enumerate() {
            assert_eq!(r.seq, i as u64, "reordering detected");
        }
        // Back-to-back arrivals at the second (slower) link are spaced by
        // its transmission time (4 Mb/s, 500 B => 1 ms).
        for w in rec.windows(2) {
            assert!(w[1].recv_at - w[0].recv_at >= TimeNs::from_millis(1));
        }
    }

    #[test]
    fn queueing_delay_builds_under_burst() {
        let mut sim = Simulator::new(1);
        let l = sim.add_link(LinkConfig::new(Rate::from_mbps(8.0), TimeNs::ZERO));
        let sink = sim.add_app(Box::new(RecordingSink::default()));
        let route = sim.route(&[l], sink);
        // 10 packets of 1000 B injected simultaneously: tx time 1 ms each.
        for i in 0..10 {
            sim.inject(Packet::new(1000, FlowId(1), i, route.clone()), TimeNs::ZERO);
        }
        assert!(sim.run_until_idle(TimeNs::from_secs(1)));
        let rec = &sim.app::<RecordingSink>(sink).records;
        for (i, r) in rec.iter().enumerate() {
            assert_eq!(r.recv_at, TimeNs::from_millis(i as u64 + 1));
        }
        let stats = &sim.link(l).stats;
        assert_eq!(stats.tx_packets, 10);
        assert_eq!(stats.max_queue_bytes, 9000);
    }

    #[test]
    fn run_until_advances_clock_without_events() {
        let mut sim = Simulator::new(1);
        sim.run_until(TimeNs::from_secs(5));
        assert_eq!(sim.now(), TimeNs::from_secs(5));
    }

    #[test]
    fn empty_route_delivers_locally() {
        let mut sim = Simulator::new(1);
        let sink = sim.add_app(Box::new(CountingSink::default()));
        let route = sim.route(&[], sink);
        sim.inject(
            Packet::new(100, FlowId(1), 0, route),
            TimeNs::from_millis(3),
        );
        assert!(sim.run_until_idle(TimeNs::from_secs(1)));
        let s = sim.app::<CountingSink>(sink);
        assert_eq!(s.packets, 1);
        assert_eq!(s.last_arrival, TimeNs::from_millis(3));
    }

    #[test]
    fn removed_apps_drop_stale_events() {
        let mut sim = Simulator::new(1);
        let l = sim.add_link(LinkConfig::new(
            Rate::from_mbps(8.0),
            TimeNs::from_millis(1),
        ));
        let sink = sim.add_app(Box::new(CountingSink::default()));
        let route = sim.route(&[l], sink);
        // One packet in flight and one timer armed for the sink...
        sim.inject(Packet::new(1000, FlowId(1), 0, route), TimeNs::ZERO);
        sim.schedule_timer(sink, TimeNs::from_millis(5), 7);
        // ...then the sink goes away before either is delivered.
        let gone = sim.remove_app(sink);
        let any: &dyn Any = gone.as_ref();
        assert_eq!(any.downcast_ref::<CountingSink>().unwrap().packets, 0);
        // Both events drain without panicking and without effect.
        assert!(sim.run_until_idle(TimeNs::from_secs(1)));
        // The slot stays retired: a fresh app gets a fresh id.
        let other = sim.add_app(Box::new(CountingSink::default()));
        assert_ne!(other, sink);
    }

    #[test]
    #[should_panic(expected = "already removed")]
    fn double_remove_panics() {
        let mut sim = Simulator::new(1);
        let sink = sim.add_app(Box::new(CountingSink::default()));
        let _ = sim.remove_app(sink);
        let _ = sim.remove_app(sink);
    }

    #[test]
    #[should_panic(expected = "cannot inject into the past")]
    fn injecting_into_the_past_panics() {
        let mut sim = Simulator::new(1);
        let sink = sim.add_app(Box::new(CountingSink::default()));
        let route = sim.route(&[], sink);
        sim.run_until(TimeNs::from_secs(1));
        sim.inject(Packet::new(100, FlowId(1), 0, route), TimeNs::ZERO);
    }

    struct PingPong {
        peer_route: Option<Arc<RouteSpec>>,
        bounces_left: u32,
        pub received: u32,
    }

    impl App for PingPong {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
            self.received += 1;
            if self.bounces_left > 0 {
                self.bounces_left -= 1;
                let route = self.peer_route.clone().unwrap();
                ctx.send(Packet::new(pkt.size, pkt.flow, pkt.seq + 1, route));
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            let route = self.peer_route.clone().unwrap();
            ctx.send(Packet::new(100, FlowId(9), 0, route));
        }
    }

    #[test]
    fn apps_can_send_re_entrantly() {
        let mut sim = Simulator::new(1);
        let l_ab = sim.add_link(LinkConfig::new(Rate::from_mbps(8.0), TimeNs::ZERO));
        let l_ba = sim.add_link(LinkConfig::new(Rate::from_mbps(8.0), TimeNs::ZERO));
        let a = sim.add_app(Box::new(PingPong {
            peer_route: None,
            bounces_left: 5,
            received: 0,
        }));
        let b = sim.add_app(Box::new(PingPong {
            peer_route: None,
            bounces_left: 5,
            received: 0,
        }));
        let to_b = sim.route(&[l_ab], b);
        let to_a = sim.route(&[l_ba], a);
        sim.app_mut::<PingPong>(a).peer_route = Some(to_b);
        sim.app_mut::<PingPong>(b).peer_route = Some(to_a);
        sim.schedule_timer(a, TimeNs::ZERO, 0);
        assert!(sim.run_until_idle(TimeNs::from_secs(1)));
        let ra = sim.app::<PingPong>(a).received;
        let rb = sim.app::<PingPong>(b).received;
        // a sends 1; total bounces: b replies 5, a replies 5 => a gets 5, b gets 6.
        assert_eq!(rb, 6);
        assert_eq!(ra, 5);
    }

    // --- sharding ----------------------------------------------------

    /// Two disjoint one-link paths, each with a sink.
    fn disjoint_sim() -> (Simulator, [Arc<RouteSpec>; 2], [AppId; 2]) {
        let mut sim = Simulator::new(3);
        let l0 = sim.add_link(LinkConfig::new(
            Rate::from_mbps(8.0),
            TimeNs::from_millis(1),
        ));
        let l1 = sim.add_link(LinkConfig::new(
            Rate::from_mbps(8.0),
            TimeNs::from_millis(1),
        ));
        let s0 = sim.add_app(Box::new(RecordingSink::default()));
        let s1 = sim.add_app(Box::new(RecordingSink::default()));
        let r0 = sim.route(&[l0], s0);
        let r1 = sim.route(&[l1], s1);
        (sim, [r0, r1], [s0, s1])
    }

    #[test]
    fn disjoint_paths_shard_and_deliver_identically() {
        let run = |shard: bool| {
            let (mut sim, routes, sinks) = disjoint_sim();
            if shard {
                assert_eq!(sim.try_shard().unwrap(), 2);
                assert_eq!(sim.shards(), 2);
            }
            for i in 0..20u64 {
                sim.inject(
                    Packet::new(500, FlowId(0), i, routes[0].clone()),
                    TimeNs::from_micros(100 * i),
                );
                sim.inject(
                    Packet::new(700, FlowId(1), i, routes[1].clone()),
                    TimeNs::from_micros(130 * i),
                );
            }
            assert!(sim.run_until_idle(TimeNs::from_secs(1)));
            let recs = |id| {
                sim.app::<RecordingSink>(id)
                    .records
                    .iter()
                    .map(|r| (r.seq, r.sent_at, r.recv_at, r.size))
                    .collect::<Vec<_>>()
            };
            (recs(sinks[0]), recs(sinks[1]), sim.now())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn try_shard_refuses_single_component() {
        let (mut sim, _, sinks) = two_link_sim_with_shared_route();
        let err = sim.try_shard().unwrap_err();
        assert_eq!(err, ShardRefusal::SingleComponent);
        assert_eq!(sim.shards(), 1);
        // The refused engine still runs fine.
        sim.schedule_timer(sinks[0], TimeNs::from_millis(1), 0);
        assert!(sim.run_until_idle(TimeNs::from_secs(1)));
    }

    /// Two sinks whose routes cross the same link.
    fn two_link_sim_with_shared_route() -> (Simulator, [Arc<RouteSpec>; 2], [AppId; 2]) {
        let mut sim = Simulator::new(5);
        let shared = sim.add_link(LinkConfig::new(
            Rate::from_mbps(8.0),
            TimeNs::from_millis(1),
        ));
        let l0 = sim.add_link(LinkConfig::new(
            Rate::from_mbps(8.0),
            TimeNs::from_millis(1),
        ));
        let l1 = sim.add_link(LinkConfig::new(
            Rate::from_mbps(8.0),
            TimeNs::from_millis(1),
        ));
        let s0 = sim.add_app(Box::new(RecordingSink::default()));
        let s1 = sim.add_app(Box::new(RecordingSink::default()));
        let r0 = sim.route(&[l0, shared], s0);
        let r1 = sim.route(&[l1, shared], s1);
        (sim, [r0, r1], [s0, s1])
    }

    #[test]
    fn pending_events_survive_the_freeze() {
        let (mut sim, routes, sinks) = disjoint_sim();
        // Events queued before the freeze...
        for i in 0..5u64 {
            sim.inject(
                Packet::new(500, FlowId(0), i, routes[0].clone()),
                TimeNs::from_micros(100 * i),
            );
            sim.inject(
                Packet::new(500, FlowId(1), i, routes[1].clone()),
                TimeNs::from_micros(100 * i),
            );
        }
        assert_eq!(sim.try_shard().unwrap(), 2);
        // ...land on the right shards and deliver.
        assert!(sim.run_until_idle(TimeNs::from_secs(1)));
        assert_eq!(sim.app::<RecordingSink>(sinks[0]).records.len(), 5);
        assert_eq!(sim.app::<RecordingSink>(sinks[1]).records.len(), 5);
    }

    #[test]
    fn cross_shard_route_collapses_deterministically() {
        let (mut sim, routes, sinks) = disjoint_sim();
        assert_eq!(sim.try_shard().unwrap(), 2);
        sim.inject(
            Packet::new(500, FlowId(0), 0, routes[0].clone()),
            TimeNs::ZERO,
        );
        // A new route that spans both components: the engine must fold
        // back to one queue and still deliver everything.
        let l0 = routes[0].links[0];
        let l1 = routes[1].links[0];
        let spanning = sim.route(&[l0, l1], sinks[1]);
        sim.inject(Packet::new(500, FlowId(7), 9, spanning), TimeNs::ZERO);
        assert_eq!(sim.shards(), 1, "engine collapsed to the single queue");
        assert!(sim.run_until_idle(TimeNs::from_secs(1)));
        assert_eq!(sim.app::<RecordingSink>(sinks[0]).records.len(), 1);
        assert_eq!(sim.app::<RecordingSink>(sinks[1]).records.len(), 1);
    }

    #[test]
    fn post_freeze_app_on_existing_shard_keeps_sharding() {
        let (mut sim, routes, _) = disjoint_sim();
        assert_eq!(sim.try_shard().unwrap(), 2);
        // A fresh app routed within component 1 (the mid-run load-step /
        // session-install pattern).
        let sink = sim.add_app(Box::new(CountingSink::default()));
        let route = sim.route(&[routes[1].links[0]], sink);
        sim.inject(Packet::new(400, FlowId(3), 0, route), sim.now());
        assert!(sim.run_until_idle(TimeNs::from_secs(1)));
        assert_eq!(sim.shards(), 2, "same-shard growth must not collapse");
        assert_eq!(sim.app::<CountingSink>(sink).packets, 1);
    }

    #[test]
    fn unplaced_timer_collapses_instead_of_panicking() {
        let (mut sim, _, _) = disjoint_sim();
        assert_eq!(sim.try_shard().unwrap(), 2);
        // An app added after the freeze with no route at all.
        let orphan = sim.add_app(Box::new(CountingSink::default()));
        sim.schedule_timer(orphan, TimeNs::from_millis(1), 0);
        assert_eq!(sim.shards(), 1);
        assert!(sim.run_until_idle(TimeNs::from_secs(1)));
    }

    #[test]
    fn engine_stats_count_heap_and_front_ops() {
        let (mut sim, routes, _) = disjoint_sim();
        for i in 0..10u64 {
            sim.inject(
                Packet::new(500, FlowId(0), i, routes[0].clone()),
                TimeNs::from_micros(100 * i),
            );
        }
        assert!(sim.run_until_idle(TimeNs::from_secs(1)));
        let s = sim.engine_stats();
        assert_eq!(s.shards, 1);
        // An injected k-hop packet costs k + 1 dispatched events: one
        // arrival per link plus the delivery. Here k = 1.
        assert_eq!(s.events_processed, 20, "2 events per one-hop packet");
        assert!(s.front_hits > 0, "front slot must see traffic");
        assert!(s.pool_live_max >= 1);
        // Conservation: everything pushed was popped (queues drained).
        assert_eq!(s.heap_pushes, s.heap_pops);
    }

    /// Sends one packet per timer, `left` times, `gap` apart.
    struct Source {
        route: Arc<RouteSpec>,
        left: u32,
        gap: TimeNs,
    }

    impl App for Source {
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            ctx.send(Packet::new(500, FlowId(1), 0, self.route.clone()));
            self.left -= 1;
            if self.left > 0 {
                ctx.timer_in(self.gap, 0);
            }
        }
    }

    /// Sends `size` bytes every `gap`, for ever: the attached counterpart
    /// of `Source`.
    #[derive(Debug)]
    struct Every {
        gap: TimeNs,
        size: u32,
    }

    impl ArrivalProcess for Every {
        fn fire(&mut self, at: TimeNs) -> (Option<u32>, TimeNs) {
            (Some(self.size), at + self.gap)
        }
    }

    /// The op-count gate for the engine's headline claims: an attached
    /// one-hop source costs no events at all, an app-sent one-hop packet
    /// is two dispatched events (`Timer` + `Deliver`), an injected k-hop
    /// packet is k + 1 — on either engine.
    #[test]
    fn events_per_packet_are_exact() {
        // Attached one-hop source: 0 events.
        for shard in [false, true] {
            let (mut sim, routes, _) = disjoint_sim();
            let link = routes[0].links[0];
            let sink = sim.add_app(Box::new(CountingSink::default()));
            sim.route(&[link], sink);
            let every = Every {
                gap: TimeNs::from_micros(700),
                size: 500,
            };
            sim.attach_arrivals(link, sink, Box::new(every), TimeNs::ZERO);
            if shard {
                assert_eq!(sim.try_shard().unwrap(), 2);
            }
            // The hundredth is sent at the boundary: 0.5 ms to transmit,
            // 1 ms to propagate, so 99 are out and 97 have arrived.
            sim.run_until(TimeNs::from_micros(700 * 99));
            assert_eq!(sim.events_processed(), 0);
            assert_eq!(sim.engine_stats().attached_arrivals, 100);
            assert_eq!(sim.link(link).stats.tx_packets, 99);
            assert_eq!(sim.app::<CountingSink>(sink).packets, 97);
        }

        // App-sent, one hop.
        for shard in [false, true] {
            let (mut sim, routes, _) = disjoint_sim();
            let src = sim.add_app(Box::new(Source {
                route: routes[0].clone(),
                left: 100,
                gap: TimeNs::from_micros(700),
            }));
            sim.bind_app(src, &routes[0]);
            if shard {
                assert_eq!(sim.try_shard().unwrap(), 2);
            }
            sim.schedule_timer(src, TimeNs::ZERO, 0);
            assert!(sim.run_until_idle(TimeNs::from_secs(1)));
            assert_eq!(sim.events_processed(), 2 * 100);
            assert_eq!(sim.link(routes[0].links[0]).stats.tx_packets, 100);
        }

        // Injected, k = 2 hops, queueing at the second (slower) link.
        let (mut sim, l0, l1, sink) = two_link_sim();
        let route = sim.route(&[l0, l1], sink);
        for i in 0..100 {
            let at = TimeNs::from_micros(10 * i);
            sim.inject(Packet::new(500, FlowId(1), i, route.clone()), at);
        }
        assert!(sim.run_until_idle(TimeNs::from_secs(1)));
        assert_eq!(sim.events_processed(), 3 * 100);
        assert_eq!(sim.app::<RecordingSink>(sink).records.len(), 100);
    }

    /// The op-count gate for the merge of a link's attached processes:
    /// exactly ⌈log₂ n⌉ key comparisons per firing, whatever the keys —
    /// not a heap's data-dependent sift, not a scan's n − 1.
    #[test]
    fn merge_compares_per_arrival_are_exact() {
        for (n, depth) in [(1u64, 0), (2, 1), (10, 4), (100, 7)] {
            let mut sim = Simulator::new(3);
            let link = sim.add_link(LinkConfig::new(
                Rate::from_mbps(100.0),
                TimeNs::from_millis(1),
            ));
            let sink = sim.add_app(Box::new(CountingSink::default()));
            sim.route(&[link], sink);
            for i in 0..n {
                let every = Every {
                    gap: TimeNs::from_micros(700 + 13 * i),
                    size: 100,
                };
                sim.attach_arrivals(link, sink, Box::new(every), TimeNs::from_nanos(i));
            }
            sim.run_until(TimeNs::from_millis(70));
            let fired = sim.engine_stats().attached_arrivals;
            assert!(fired >= 50 * n, "{fired} firings of {n} processes");
            assert_eq!(
                sim.link(link).merge_compares(),
                depth * fired,
                "{n} processes"
            );
        }
    }

    /// A send at `now` must not overtake an arrival already pending at
    /// `now` on the same link; any other same-instant event leaves the
    /// inline shortcut open.
    #[test]
    fn inline_send_keeps_same_instant_fifo_order() {
        let mut sim = Simulator::new(1);
        let l = sim.add_link(LinkConfig::new(Rate::from_mbps(8.0), TimeNs::ZERO));
        let sink = sim.add_app(Box::new(RecordingSink::default()));
        let route = sim.route(&[l], sink);
        let src = sim.add_app(Box::new(Source {
            route: route.clone(),
            left: 1,
            gap: TimeNs::ZERO,
        }));
        let t = TimeNs::from_millis(1);
        // Scheduling order at `t`: the timer, then an external arrival.
        // The timer's own send is scheduled last, so it queues behind.
        sim.schedule_timer(src, t, 0);
        sim.inject(Packet::new(500, FlowId(7), 0, route), t);
        assert!(sim.run_until_idle(TimeNs::from_secs(1)));
        let flows: Vec<u32> = (sim.app::<RecordingSink>(sink).records.iter())
            .map(|r| r.flow.0)
            .collect();
        assert_eq!(flows, vec![7, 1]);
        // Timer, pushed arrival x 2, delivery x 2: nothing went inline.
        assert_eq!(sim.events_processed(), 5);

        // An unrelated timer pending at the same instant changes nothing:
        // the send still goes inline (timer x 2 + delivery).
        let mut sim = Simulator::new(1);
        let l = sim.add_link(LinkConfig::new(Rate::from_mbps(8.0), TimeNs::ZERO));
        let sink = sim.add_app(Box::new(CountingSink::default()));
        let route = sim.route(&[l], sink);
        let src = sim.add_app(Box::new(Source {
            route,
            left: 1,
            gap: TimeNs::ZERO,
        }));
        sim.schedule_timer(src, t, 0);
        sim.schedule_timer(sink, t, 0);
        assert!(sim.run_until_idle(TimeNs::from_secs(1)));
        assert_eq!(sim.events_processed(), 3);
    }

    /// Stopping the clock mid-transmission and mid-queue: counters,
    /// occupancy and the monitor count only transmissions completed by
    /// the boundary, exactly as an event-per-departure engine shows them.
    #[test]
    fn run_until_boundary_counts_only_completed_transmissions() {
        let mut sim = Simulator::new(1);
        let l = sim.add_link(
            LinkConfig::new(Rate::from_mbps(8.0), TimeNs::from_millis(5))
                .with_monitor_window(TimeNs::from_millis(2)),
        );
        let sink = sim.add_app(Box::new(CountingSink::default()));
        let route = sim.route(&[l], sink);
        // Three 1000 B packets at t = 0: departures at 1, 2 and 3 ms.
        for i in 0..3 {
            sim.inject(Packet::new(1000, FlowId(1), i, route.clone()), TimeNs::ZERO);
        }
        let read = |sim: &Simulator| {
            let link = sim.link(l);
            (
                link.stats.tx_packets,
                link.stats.busy_ns,
                link.backlog_bytes(),
                link.queue_bytes(),
                link.queue_len(),
                link.monitor().bytes_in_window(0),
                link.monitor().bytes_in_window(1),
            )
        };
        // Mid-transmission of the first, two waiting.
        sim.run_until(TimeNs::from_micros(500));
        assert_eq!(read(&sim), (0, 0, 3000, 2000, 2, 0, 0));
        // One nanosecond before the first departure: unchanged.
        sim.run_until(TimeNs::from_nanos(999_999));
        assert_eq!(read(&sim), (0, 0, 3000, 2000, 2, 0, 0));
        // At the departure instant it counts, stamped at 1 ms (window 0).
        sim.run_until(TimeNs::from_millis(1));
        assert_eq!(read(&sim), (1, 1_000_000, 2000, 1000, 1, 1000, 0));
        // Mid-queue: the second left at 2 ms (window 1), the third is in
        // service, and nothing has been delivered yet (5 ms propagation).
        sim.run_until(TimeNs::from_micros(2500));
        assert_eq!(read(&sim), (2, 2_000_000, 1000, 0, 0, 1000, 1000));
        assert_eq!(sim.app::<CountingSink>(sink).packets, 0);
        sim.run_until(TimeNs::from_millis(3));
        assert_eq!(read(&sim), (3, 3_000_000, 0, 0, 0, 1000, 2000));
    }

    /// Attached deliveries are counted exactly at any boundary — mid-
    /// transmission, mid-propagation, at the delivery instant — through
    /// every entry point that moves the clock, alongside deliveries that
    /// did come by event.
    #[test]
    fn attached_deliveries_read_exactly_at_every_boundary() {
        let ms = TimeNs::from_millis(1);
        let mut sim = Simulator::new(1);
        // 1000 B = 1 ms of transmission, 5 ms of propagation.
        let l = sim.add_link(LinkConfig::new(Rate::from_mbps(8.0), ms * 5));
        let sink = sim.add_app(Box::new(CountingSink::default()));
        let route = sim.route(&[l], sink);
        // Sent at 0, 2, 4, ... ms: delivered at 6, 8, 10, ... ms.
        let every = Every {
            gap: ms * 2,
            size: 1000,
        };
        sim.attach_arrivals(l, sink, Box::new(every), TimeNs::ZERO);
        let read = |sim: &Simulator| {
            let s = sim.app::<CountingSink>(sink);
            (s.packets, s.bytes, s.last_arrival)
        };
        sim.run_until(TimeNs::from_micros(500)); // mid-transmission
        assert_eq!(read(&sim), (0, 0, TimeNs::ZERO));
        assert_eq!(sim.link(l).backlog_bytes(), 1000);
        sim.run_until(ms * 6 - TimeNs::from_nanos(1)); // mid-propagation
        assert_eq!(read(&sim), (0, 0, TimeNs::ZERO));
        assert_eq!(sim.link(l).stats.tx_packets, 3);
        sim.run_until(ms * 6);
        assert_eq!(read(&sim), (1, 1000, ms * 6));
        // An event delivery in between (sent at 6.5 ms behind the packet
        // in service, so out at 8 ms and delivered at 13 ms); `step` and
        // `run_until_idle` are boundaries too.
        sim.inject(
            Packet::new(1000, FlowId(1), 0, route),
            TimeNs::from_micros(6500),
        );
        assert!(sim.step()); // the arrival, at 6.5 ms
        assert_eq!(read(&sim), (1, 1000, ms * 6));
        assert!(sim.run_until_idle(TimeNs::from_secs(1))); // the delivery
        assert_eq!(sim.now(), ms * 13);
        // Attached packets sent at 0..=6 ms made it by 13 ms (the one sent
        // at 8 ms queued behind the event packet: out at 10, there at 15).
        assert_eq!(read(&sim), (5, 5000, ms * 13));
        assert_eq!(sim.events_processed(), 2);
        // A removed sink drops what is addressed to it, like any host.
        let _ = sim.remove_app(sink);
        sim.run_until(ms * 40);
        assert_eq!(sim.link(l).stats.drops_overflow, 0);
    }

    /// "Idle" is about events: attached processes never keep the
    /// simulator busy, and the links are settled to the clock it stops at.
    #[test]
    fn run_until_idle_ignores_attached_processes() {
        let ms = TimeNs::from_millis(1);
        let mut sim = Simulator::new(1);
        let l = sim.add_link(LinkConfig::new(Rate::from_mbps(8.0), ms));
        let sink = sim.add_app(Box::new(CountingSink::default()));
        let probe_sink = sim.add_app(Box::new(RecordingSink::default()));
        let probe_route = sim.route(&[l], probe_sink);
        let every = Every {
            gap: ms * 2,
            size: 1000,
        };
        sim.attach_arrivals(l, sink, Box::new(every), TimeNs::ZERO);
        // Nothing pending: idle at once, the clock does not move.
        assert!(sim.run_until_idle(TimeNs::from_secs(1)));
        assert_eq!(sim.now(), TimeNs::ZERO);
        assert_eq!(
            sim.link(l).backlog_bytes(),
            1000,
            "the arrival at 0 happened"
        );
        // One event packet at 10.5 ms, behind the attached packet sent at
        // 10 ms: out at 12 ms, delivered at 13 ms — and that is where the
        // run stops, not at the limit.
        sim.inject(
            Packet::new(1000, FlowId(1), 0, probe_route),
            TimeNs::from_micros(10_500),
        );
        assert!(sim.run_until_idle(TimeNs::from_secs(1)));
        assert_eq!(sim.now(), ms * 13);
        assert_eq!(
            sim.app::<RecordingSink>(probe_sink).records[0].recv_at,
            ms * 13
        );
        // Settled to that clock: attached arrivals at 0..=12 ms, the last
        // of them out at 13 ms with the event packet's eight in all, and
        // in propagation.
        assert_eq!(sim.engine_stats().attached_arrivals, 7);
        assert_eq!(sim.link(l).stats.tx_packets, 8);
        assert_eq!(sim.app::<CountingSink>(sink).packets, 6);
        // A limit short of a pending event: not idle.
        sim.schedule_timer(sink, ms * 50, 0);
        assert!(!sim.run_until_idle(ms * 20));
    }
}

//! The indexed simulation engine.
//!
//! [`Driver`] owns the scheduling state for a set of [`Endpoint`]s over a
//! [`NetWorld`] and advances virtual time without ever scanning the whole
//! endpoint population per event:
//!
//! * **registry** — endpoints are keyed by [`NodeId`] once per endpoint
//!   set (rebuilt only if the set changes between runs), so arrival
//!   dispatch is a single hash lookup;
//! * **timer index** — every endpoint's `poll_at()` lives in a
//!   hierarchical [`TimerWheel`]: re-arming cancels the old entry and
//!   inserts the new one, both O(1), so there are no stale entries to
//!   skip and no per-op heap traversal (the generation-counter
//!   lazy-invalidation scheme this replaced is described in DESIGN.md);
//! * **dirty set** — only endpoints that just received a packet or just
//!   polled are re-queried for `poll_at()`; everything else is passive
//!   and cannot have moved its own timer;
//! * **no staging** — arrivals go from the world's arrival FIFOs
//!   straight into `handle_packet`, and endpoint output is drained into
//!   one buffer owned by the driver, so the hot loop neither allocates
//!   nor copies a packet it does not have to;
//! * **windowed telemetry** — per-event counts are plain integers,
//!   published to the registry when [`Driver::run_to`] returns: exact at
//!   every window boundary, at most one window stale in between.
//!
//! The engine preserves the exact event order of the original
//! scan-per-event loop: arrivals dispatch in the world's merge order
//! (time, then FIFO by send), due endpoints poll in endpoint-slice order,
//! and the clock never runs backwards. Invariants are documented in
//! `DESIGN.md` §Engine.

use crate::fault::{EndpointFault, FaultAction, FaultPlan};
use crate::packet::PacketKind;
use crate::topology::NodeId;
use crate::world::{Endpoint, NetWorld};
use cellbricks_sim::{SimTime, TimerId, TimerWheel};
use cellbricks_telemetry as telemetry;

/// Dense `NodeId → endpoint index` lookup (see [`Driver::node_map`]).
#[inline]
fn endpoint_index(map: &[Option<u32>], node: NodeId) -> Option<usize> {
    map.get(node.0).copied().flatten().map(|i| i as usize)
}

/// The earlier of two optional instants, in scalar compares (an array
/// `min` stores words and reloads vectors: a store-forwarding stall).
#[inline]
pub(crate) fn earlier(a: Option<SimTime>, b: Option<SimTime>) -> Option<SimTime> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, None) => a,
        (None, b) => b,
    }
}

/// Fault-injection telemetry handles, registered lazily on the first
/// applied fault so no-fault runs leave the metrics snapshot untouched.
struct FaultMetrics {
    link_outage: telemetry::Counter,
    burst_window: telemetry::Counter,
    endpoint_crash: telemetry::Counter,
    endpoint_unavailable: telemetry::Counter,
}

impl FaultMetrics {
    fn register() -> Self {
        Self {
            link_outage: telemetry::counter("fault.link_outage"),
            burst_window: telemetry::counter("fault.burst_window"),
            endpoint_crash: telemetry::counter("fault.endpoint_crash"),
            endpoint_unavailable: telemetry::counter("fault.endpoint_unavailable"),
        }
    }
}

/// Scheduler telemetry handles, registered once per [`Driver`]. The
/// event counters and the depth gauge are published once per window
/// (see [`Driver::publish_telemetry`]); the wall-clock service timers
/// sample 1 event in 32, and only while telemetry is enabled.
struct EngineMetrics {
    ev_arrival: telemetry::Counter,
    ev_poll: telemetry::Counter,
    svc_tcp: telemetry::Histogram,
    svc_udp: telemetry::Histogram,
    svc_control: telemetry::Histogram,
    svc_poll: telemetry::Histogram,
    q_depth: telemetry::Gauge,
    arena_cap: telemetry::Gauge,
    arena_occ: telemetry::Gauge,
    arena_bytes: telemetry::Gauge,
}

impl EngineMetrics {
    fn register() -> Self {
        Self {
            ev_arrival: telemetry::counter("sim.scheduler.events.arrival"),
            ev_poll: telemetry::counter("sim.scheduler.events.poll"),
            svc_tcp: telemetry::histogram("sim.scheduler.service_ns.tcp"),
            svc_udp: telemetry::histogram("sim.scheduler.service_ns.udp"),
            svc_control: telemetry::histogram("sim.scheduler.service_ns.control"),
            svc_poll: telemetry::histogram("sim.scheduler.service_ns.poll"),
            q_depth: telemetry::gauge("sim.scheduler.ready_events"),
            arena_cap: telemetry::gauge("sim.arena.engine.capacity"),
            arena_occ: telemetry::gauge("sim.arena.engine.occupancy"),
            arena_bytes: telemetry::gauge("sim.arena.engine.bytes_peak"),
        }
    }
}

/// The reusable simulation engine: registry, timer index, dirty set and
/// scratch buffers. Create one per simulation (or per segmented run) and
/// call [`run_to`](Driver::run_to) repeatedly with a monotone horizon.
pub struct Driver {
    /// Registered endpoint nodes, in endpoint-slice order.
    nodes: Vec<NodeId>,
    /// NodeId → endpoint index, built when the endpoint set is first
    /// seen. `NodeId`s are dense topology indices, so this is a direct
    /// table rather than a hash map — arrival dispatch is one bounds
    /// check + one load per packet.
    node_map: Vec<Option<u32>>,
    /// The `poll_at` instant currently indexed per endpoint (None: no
    /// live wheel entry).
    scheduled: Vec<Option<SimTime>>,
    /// Live wheel handle per endpoint, for O(1) cancel on re-arm.
    timer_ids: Vec<Option<TimerId>>,
    /// Timer index over endpoint indices.
    timers: TimerWheel<usize>,
    dirty: Vec<bool>,
    dirty_list: Vec<usize>,
    /// Endpoints due at the current instant (sorted to slice order).
    due: Vec<usize>,
    /// Reusable endpoint-output buffer.
    out: Vec<crate::packet::Packet>,
    /// The floor of the next run window (the previous window's end).
    clock: SimTime,
    /// Event ordinal for service-time sampling (see
    /// [`sample_service_time`](Self::sample_service_time)).
    svc_tick: u64,
    /// Scripted faults still to apply (empty by default).
    faults: FaultPlan,
    metrics: EngineMetrics,
    fault_metrics: Option<FaultMetrics>,
    /// Events dispatched since the last publish.
    ev_arrival: u64,
    ev_poll: u64,
    /// Arrivals dispatched in the latest instant that had any, and the
    /// most in one instant since the last publish.
    q_depth: i64,
    q_depth_peak: i64,
    /// Last value this driver contributed to the shared
    /// `sim.scheduler.ready_events` gauge. Every `Driver` in the process
    /// shares one gauge (the registry is keyed by name), so each publishes
    /// deltas against its own last value and the gauge reads as the sum
    /// across drivers — a plain `set` would clobber another driver's.
    q_depth_last: i64,
    /// Same delta scheme for the `sim.arena.engine.*` gauges.
    arena_last: (i64, i64, i64),
}

impl Default for Driver {
    fn default() -> Self {
        Self::new()
    }
}

impl Driver {
    /// An engine whose clock starts at time zero.
    #[must_use]
    pub fn new() -> Self {
        Self::starting_at(SimTime::ZERO)
    }

    /// An engine whose clock starts at `from` (events and "as soon as
    /// possible" polls due earlier are processed at `from`).
    #[must_use]
    pub fn starting_at(from: SimTime) -> Self {
        Self {
            nodes: Vec::new(),
            node_map: Vec::new(),
            scheduled: Vec::new(),
            timer_ids: Vec::new(),
            timers: TimerWheel::new(),
            dirty: Vec::new(),
            dirty_list: Vec::new(),
            due: Vec::new(),
            out: Vec::new(),
            clock: from,
            svc_tick: 0,
            faults: FaultPlan::new(),
            metrics: EngineMetrics::register(),
            fault_metrics: None,
            ev_arrival: 0,
            ev_poll: 0,
            q_depth: 0,
            q_depth_peak: 0,
            q_depth_last: 0,
            arena_last: (0, 0, 0),
        }
    }

    /// Install `plan`, replacing any previous one. Due actions are
    /// applied at the head of each instant — before that instant's
    /// arrivals dispatch — so a fault at time *t* affects traffic sent at
    /// *t* (packets already in flight still arrive).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// Number of scheduled fault actions not yet applied.
    #[must_use]
    pub fn pending_faults(&self) -> usize {
        self.faults.len()
    }

    /// (Re)build the registry if the endpoint set changed, and mark every
    /// endpoint dirty: the caller may have mutated endpoints (started
    /// flows, armed timers) since the previous window.
    ///
    /// # Panics
    /// Panics if two endpoints share a node.
    fn sync_registry(&mut self, endpoints: &[&mut dyn Endpoint]) {
        let unchanged = self.nodes.len() == endpoints.len()
            && self
                .nodes
                .iter()
                .zip(endpoints.iter())
                .all(|(n, e)| *n == e.node());
        if !unchanged {
            self.nodes.clear();
            self.nodes.extend(endpoints.iter().map(|e| e.node()));
            self.node_map.clear();
            let table = self.nodes.iter().map(|n| n.0).max().map_or(0, |m| m + 1);
            self.node_map.resize(table, None);
            for (i, n) in self.nodes.iter().enumerate() {
                assert!(
                    self.node_map[n.0].replace(i as u32).is_none(),
                    "two endpoints share a node"
                );
            }
            self.scheduled.clear();
            self.scheduled.resize(endpoints.len(), None);
            self.timer_ids.clear();
            self.timer_ids.resize(endpoints.len(), None);
            self.timers.clear();
            self.dirty.clear();
            self.dirty.resize(endpoints.len(), false);
            self.dirty_list.clear();
            if telemetry::is_enabled() {
                self.publish_arena_stats();
            }
        }
        for i in 0..endpoints.len() {
            self.mark_dirty(i);
        }
    }

    /// Publish the engine's dense per-endpoint tables (the registry,
    /// timer index and dirty set — the NodeId-keyed "engine arena") to
    /// the `sim.arena.engine.*` gauges, as deltas against this driver's
    /// previous contribution so the drivers of one process sum instead of
    /// clobber.
    fn publish_arena_stats(&mut self) {
        let cap = (self.node_map.capacity()
            + self.scheduled.capacity()
            + self.timer_ids.capacity()
            + self.dirty.capacity()) as i64;
        let occ = (self.nodes.len() * 4) as i64;
        let bytes = (self.nodes.capacity() * std::mem::size_of::<NodeId>()
            + self.node_map.capacity() * std::mem::size_of::<Option<u32>>()
            + self.scheduled.capacity() * std::mem::size_of::<Option<SimTime>>()
            + self.timer_ids.capacity() * std::mem::size_of::<Option<TimerId>>()
            + self.dirty.capacity()) as i64;
        let (lc, lo, lb) = self.arena_last;
        self.metrics.arena_cap.add(cap - lc);
        self.metrics.arena_occ.add(occ - lo);
        self.metrics.arena_bytes.add(bytes - lb);
        self.arena_last = (cap, occ, bytes);
    }

    fn mark_dirty(&mut self, i: usize) {
        if !self.dirty[i] {
            self.dirty[i] = true;
            self.dirty_list.push(i);
        }
    }

    /// Start a service-time measurement for 1 event in 32, by event
    /// ordinal. Unsampled timing (two `Instant::now` calls per event)
    /// was a measurable slice of the steady-state event budget; a
    /// deterministic sparse sample keeps the `service_ns` percentiles
    /// honest at a fraction of the instrumentation cost. (1-in-8
    /// originally; widened to 1-in-32 when the clock reads showed up
    /// again in the million-UE steady-state profile.)
    #[inline]
    fn sample_service_time(&mut self, timed: bool) -> Option<std::time::Instant> {
        let tick = self.svc_tick;
        self.svc_tick = tick.wrapping_add(1);
        (timed && tick & 31 == 0).then(std::time::Instant::now)
    }

    /// Re-query `poll_at` for every dirty endpoint and update the timer
    /// index. An unchanged instant keeps its live wheel entry; a changed
    /// one cancels the old entry and inserts the new instant, both O(1).
    fn flush_dirty(&mut self, endpoints: &[&mut dyn Endpoint]) {
        while let Some(i) = self.dirty_list.pop() {
            self.dirty[i] = false;
            let want = endpoints[i].poll_at();
            if want != self.scheduled[i] {
                if let Some(id) = self.timer_ids[i].take() {
                    self.timers.cancel(id);
                }
                if let Some(t) = want {
                    self.timer_ids[i] = Some(self.timers.insert(t, i));
                }
                self.scheduled[i] = want;
            }
        }
    }

    /// The earliest pending timer. Every wheel entry is live — cancel is
    /// eager — so there is no stale-entry skip loop here or in
    /// [`pop_due_timer`](Self::pop_due_timer).
    fn peek_timer(&mut self) -> Option<SimTime> {
        self.timers.peek_time()
    }

    /// Pop the endpoint of the earliest timer due at or before `now`.
    fn pop_due_timer(&mut self, now: SimTime) -> Option<usize> {
        let (_, i) = self.timers.pop_due(now)?;
        self.scheduled[i] = None;
        self.timer_ids[i] = None;
        Some(i)
    }

    /// Drive `endpoints` over `world` until no event remains at or before
    /// `until`, starting from this engine's clock. Returns the time of
    /// the last processed event, and advances the clock to `until` so
    /// segmented runs chain exactly like repeated [`run_between`] calls.
    ///
    /// # Panics
    /// Panics if endpoints livelock (an endpoint keeps reporting a due
    /// `poll_at` without making progress) or two endpoints share a node.
    pub fn run_to(
        &mut self,
        world: &mut NetWorld,
        endpoints: &mut [&mut dyn Endpoint],
        until: SimTime,
    ) -> SimTime {
        self.sync_registry(endpoints);
        let mut last = self.clock;
        let mut same_instant_iters = 0u64;

        loop {
            self.flush_dirty(endpoints);
            let next_net = world.next_arrival_at();
            let next_poll = self.peek_timer();
            let next_fault = self.faults.next_at();
            let Some(candidate) = earlier(earlier(next_net, next_poll), next_fault) else {
                break;
            };
            if candidate > until {
                break;
            }
            // Endpoints may report "as soon as possible" with a past
            // instant (e.g. staged output); the clock never runs
            // backwards.
            let now = candidate.max(last);
            if now == last {
                same_instant_iters += 1;
                assert!(same_instant_iters < 1_000_000, "endpoint livelock at {now}");
            } else {
                same_instant_iters = 0;
                last = now;
            }

            if next_fault.is_some_and(|t| t <= now) {
                while let Some((_, action)) = self.faults.pop_due(now) {
                    self.apply_fault(now, world, endpoints, action);
                }
            }

            let timed = telemetry::is_enabled();
            // Skip whole phases that cannot have work: a timer-wheel
            // drain is not free (it may re-file a bucket), and in steady
            // state most iterations carry exactly one arrival or one poll.
            let had_arrivals = next_net.is_some_and(|t| t <= now);
            if had_arrivals {
                self.dispatch_arrivals(now, world, endpoints, timed);
            }
            if had_arrivals || next_poll.is_some_and(|t| t <= now) {
                // Index the timers re-armed by the packets just handled,
                // then wake everything due now, in endpoint-slice order.
                self.flush_dirty(endpoints);
                self.due.clear();
                while let Some(i) = self.pop_due_timer(now) {
                    self.due.push(i);
                }
                self.due.sort_unstable();
                for k in 0..self.due.len() {
                    let i = self.due[k];
                    self.ev_poll += 1;
                    let t0 = self.sample_service_time(timed);
                    endpoints[i].poll(now, &mut self.out);
                    if let Some(t0) = t0 {
                        self.metrics.svc_poll.record(t0.elapsed().as_nanos() as u64);
                    }
                    let from = endpoints[i].node();
                    for p in self.out.drain(..) {
                        world.send(now, from, p);
                    }
                    self.mark_dirty(i);
                }
            }
        }
        self.clock = self.clock.max(until);
        self.publish_telemetry();
        world.publish_telemetry();
        last
    }

    /// Publish this window's event counts and arrival depth. The depth
    /// goes out as a delta against this driver's last contribution, with
    /// the window's peak: every driver in the process shares the gauge,
    /// so deltas sum where a `set` would clobber.
    fn publish_telemetry(&mut self) {
        self.metrics
            .ev_arrival
            .add(std::mem::take(&mut self.ev_arrival));
        self.metrics.ev_poll.add(std::mem::take(&mut self.ev_poll));
        if telemetry::is_enabled() {
            self.metrics.q_depth.add_with_peak(
                self.q_depth - self.q_depth_last,
                self.q_depth_peak - self.q_depth_last,
            );
            self.q_depth_last = self.q_depth;
        }
        self.q_depth_peak = self.q_depth;
    }

    /// Dispatch every arrival due at `now` (the arrival half of one
    /// [`run_to`](Self::run_to) iteration), each handed from the world
    /// to its endpoint without an intermediate copy.
    fn dispatch_arrivals(
        &mut self,
        now: SimTime,
        world: &mut NetWorld,
        endpoints: &mut [&mut dyn Endpoint],
        timed: bool,
    ) {
        world.begin_arrivals();
        let mut depth = 0;
        while let Some((_, node, pkt)) = world.next_arrival(now) {
            depth += 1;
            if let Some(i) = endpoint_index(&self.node_map, node) {
                self.ev_arrival += 1;
                let t0 = self.sample_service_time(timed);
                let svc = match &pkt.kind {
                    PacketKind::Tcp(_) => &self.metrics.svc_tcp,
                    PacketKind::Udp { .. } => &self.metrics.svc_udp,
                    PacketKind::Control(_) => &self.metrics.svc_control,
                };
                endpoints[i].handle_packet(now, pkt, &mut self.out);
                if let Some(t0) = t0 {
                    svc.record(t0.elapsed().as_nanos() as u64);
                }
                let from = endpoints[i].node();
                for p in self.out.drain(..) {
                    world.send(now, from, p);
                }
                self.mark_dirty(i);
            }
            // Packets delivered to nodes with no endpoint vanish (a
            // misconfigured topology shows up in link stats).
        }
        self.q_depth = depth;
        self.q_depth_peak = self.q_depth_peak.max(depth);
    }

    /// Apply one due fault action: link faults go to the world, endpoint
    /// faults dispatch through the registry to
    /// [`Endpoint::inject_fault`]. A fault addressed to a node with no
    /// registered endpoint is ignored (same policy as stray arrivals).
    fn apply_fault(
        &mut self,
        now: SimTime,
        world: &mut NetWorld,
        endpoints: &mut [&mut dyn Endpoint],
        action: FaultAction,
    ) {
        let m = self
            .fault_metrics
            .get_or_insert_with(FaultMetrics::register);
        match action {
            FaultAction::LinkOutage { link, until } => {
                m.link_outage.inc();
                world.set_outage(link, until);
            }
            FaultAction::SetBurstLoss { link, model } => {
                if model.is_some() {
                    m.burst_window.inc();
                }
                world.set_burst_loss(link, model);
            }
            FaultAction::Endpoint { node, fault } => {
                if let Some(i) = endpoint_index(&self.node_map, node) {
                    match fault {
                        EndpointFault::CrashRestart { .. } => m.endpoint_crash.inc(),
                        EndpointFault::Unavailable { .. } => m.endpoint_unavailable.inc(),
                    }
                    endpoints[i].inject_fault(now, &fault);
                    self.mark_dirty(i);
                }
            }
        }
    }
}

/// Drive `endpoints` over `world` from time zero until no event remains
/// at or before `until`. Returns the time of the last processed event.
/// One-shot convenience over [`Driver`]; for segmented runs keep a
/// `Driver` and call [`Driver::run_to`] repeatedly.
pub fn run_until(
    world: &mut NetWorld,
    endpoints: &mut [&mut dyn Endpoint],
    until: SimTime,
) -> SimTime {
    Driver::new().run_to(world, endpoints, until)
}

/// Drive `endpoints` over `world` until no event remains at or before
/// `until`, with the clock starting at `from`. One-shot convenience over
/// [`Driver::starting_at`].
///
/// # Panics
/// Panics if endpoints livelock (an endpoint keeps reporting a due
/// `poll_at` without making progress).
pub fn run_between(
    world: &mut NetWorld,
    endpoints: &mut [&mut dyn Endpoint],
    from: SimTime,
    until: SimTime,
) -> SimTime {
    Driver::starting_at(from).run_to(world, endpoints, until)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::packet::Packet;
    use crate::topology::Topology;
    use bytes::Bytes;
    use cellbricks_sim::{SimDuration, SimRng};
    use std::net::Ipv4Addr;

    const IP_A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const IP_B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    /// Sends one packet to `dst` every `interval`; records receptions.
    struct Periodic {
        node: NodeId,
        dst: Ipv4Addr,
        next: SimTime,
        interval: SimDuration,
        sent: u32,
        limit: u32,
        received: Vec<SimTime>,
    }

    impl Endpoint for Periodic {
        fn node(&self) -> NodeId {
            self.node
        }
        fn handle_packet(&mut self, now: SimTime, _pkt: Packet, _out: &mut Vec<Packet>) {
            self.received.push(now);
        }
        fn poll_at(&self) -> Option<SimTime> {
            (self.sent < self.limit).then_some(self.next)
        }
        fn poll(&mut self, now: SimTime, out: &mut Vec<Packet>) {
            while self.sent < self.limit && self.next <= now {
                out.push(Packet::control(IP_A, self.dst, Bytes::from_static(b"p")));
                self.sent += 1;
                self.next += self.interval;
            }
        }
    }

    fn two_node_world() -> (NetWorld, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let l = t.add_symmetric_link(a, b, LinkConfig::delay_only(SimDuration::from_millis(1)));
        t.add_default_route(a, l);
        t.add_default_route(b, l);
        (NetWorld::new(t, SimRng::new(1)), a, b)
    }

    fn periodic(node: NodeId, dst: Ipv4Addr, limit: u32) -> Periodic {
        Periodic {
            node,
            dst,
            next: SimTime::from_millis(10),
            interval: SimDuration::from_millis(10),
            sent: 0,
            limit,
            received: Vec::new(),
        }
    }

    #[test]
    fn segmented_run_matches_single_run() {
        let run = |segments: &[u64]| -> Vec<SimTime> {
            let (mut world, a, b) = two_node_world();
            let mut pa = periodic(a, IP_B, 50);
            let mut pb = periodic(b, IP_A, 0);
            let mut driver = Driver::new();
            for &s in segments {
                driver.run_to(&mut world, &mut [&mut pa, &mut pb], SimTime::from_millis(s));
            }
            pb.received.clone()
        };
        let single = run(&[1_000]);
        let segmented = run(&[3, 17, 200, 201, 550, 1_000]);
        assert_eq!(single.len(), 50);
        assert_eq!(single, segmented);
    }

    #[test]
    fn rearmed_timer_invalidates_stale_entry() {
        let (mut world, a, b) = two_node_world();
        let mut pa = periodic(a, IP_B, 3);
        let mut pb = periodic(b, IP_A, 0);
        let mut driver = Driver::new();
        driver.run_to(
            &mut world,
            &mut [&mut pa, &mut pb],
            SimTime::from_millis(15),
        );
        // Re-arm pa's timer earlier than its indexed 20 ms entry; the
        // driver must honour the new instant, not the stale one.
        pa.next = SimTime::from_millis(16);
        driver.run_to(
            &mut world,
            &mut [&mut pa, &mut pb],
            SimTime::from_millis(18),
        );
        assert_eq!(pa.sent, 2);
        driver.run_to(&mut world, &mut [&mut pa, &mut pb], SimTime::from_secs(1));
        assert_eq!(pa.sent, 3);
        assert_eq!(
            pb.received,
            vec![
                SimTime::from_millis(11),
                SimTime::from_millis(17),
                SimTime::from_millis(27),
            ]
        );
    }

    #[test]
    fn registry_rebuilds_when_endpoint_set_changes() {
        let (mut world, a, b) = two_node_world();
        let mut driver = Driver::new();
        {
            let mut pa = periodic(a, IP_B, 1);
            let mut pb = periodic(b, IP_A, 0);
            driver.run_to(&mut world, &mut [&mut pa, &mut pb], SimTime::from_secs(1));
            assert_eq!(pb.received.len(), 1);
        }
        // A different endpoint set on the same driver: sender now at b.
        let mut pa = periodic(a, IP_B, 0);
        let mut pb = periodic(b, IP_A, 2);
        pb.next = SimTime::from_secs(2);
        driver.run_to(&mut world, &mut [&mut pb, &mut pa], SimTime::from_secs(3));
        assert_eq!(pa.received.len(), 2);
    }

    #[test]
    fn fault_plan_outage_drops_in_window() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let l = t.add_symmetric_link(a, b, LinkConfig::delay_only(SimDuration::from_millis(1)));
        t.add_default_route(a, l);
        t.add_default_route(b, l);
        let mut world = NetWorld::new(t, SimRng::new(1));
        // Sends at 10, 20, 30, 40, 50 ms; outage covers [15, 25) ms.
        let mut pa = periodic(a, IP_B, 5);
        let mut pb = periodic(b, IP_A, 0);
        let mut driver = Driver::new();
        let mut plan = FaultPlan::new();
        plan.link_outage(l, SimTime::from_millis(15), SimDuration::from_millis(10));
        driver.set_fault_plan(plan);
        assert_eq!(driver.pending_faults(), 1);
        driver.run_to(&mut world, &mut [&mut pa, &mut pb], SimTime::from_secs(1));
        assert_eq!(driver.pending_faults(), 0);
        assert_eq!(pb.received.len(), 4);
        assert_eq!(world.link_stats(l).ab_dropped, 1);
    }

    /// Probe recording delivered endpoint faults.
    struct FaultProbe {
        node: NodeId,
        hits: Vec<(SimTime, EndpointFault)>,
    }

    impl Endpoint for FaultProbe {
        fn node(&self) -> NodeId {
            self.node
        }
        fn handle_packet(&mut self, _now: SimTime, _pkt: Packet, _out: &mut Vec<Packet>) {}
        fn poll_at(&self) -> Option<SimTime> {
            None
        }
        fn poll(&mut self, _now: SimTime, _out: &mut Vec<Packet>) {}
        fn inject_fault(&mut self, now: SimTime, fault: &EndpointFault) {
            self.hits.push((now, *fault));
        }
    }

    #[test]
    fn endpoint_fault_dispatches_even_without_other_events() {
        let (mut world, a, b) = two_node_world();
        let mut pa = FaultProbe {
            node: a,
            hits: vec![],
        };
        let mut pb = periodic(b, IP_A, 0);
        let mut driver = Driver::new();
        let mut plan = FaultPlan::new();
        plan.crash_restart(a, SimTime::from_millis(700), SimDuration::from_millis(50));
        plan.unavailable(b, SimTime::from_millis(800), SimDuration::from_millis(10));
        driver.set_fault_plan(plan);
        driver.run_to(&mut world, &mut [&mut pa, &mut pb], SimTime::from_secs(1));
        assert_eq!(
            pa.hits,
            vec![(
                SimTime::from_millis(700),
                EndpointFault::CrashRestart {
                    restart_at: SimTime::from_millis(750)
                }
            )]
        );
        // The fault for b targets an endpoint that ignores it (default
        // impl on Periodic): delivery must not panic or stall the run.
        assert_eq!(driver.pending_faults(), 0);
    }

    type EventLog = std::rc::Rc<std::cell::RefCell<Vec<(SimTime, &'static str, &'static str)>>>;

    /// Logs `(time, name, what)` for every poll and reception; pings
    /// `peer` on each of its `polls` timer shots (all due at 10 ms) and
    /// answers each reception in `replies`.
    struct Scripted {
        node: NodeId,
        name: &'static str,
        peer: Ipv4Addr,
        polls: u32,
        replies: u32,
        log: EventLog,
    }

    impl Endpoint for Scripted {
        fn node(&self) -> NodeId {
            self.node
        }
        fn handle_packet(&mut self, now: SimTime, _pkt: Packet, out: &mut Vec<Packet>) {
            self.log.borrow_mut().push((now, self.name, "recv"));
            if self.replies > 0 {
                self.replies -= 1;
                out.push(Packet::control(IP_A, self.peer, Bytes::from_static(b"r")));
            }
        }
        fn poll_at(&self) -> Option<SimTime> {
            (self.polls > 0).then_some(SimTime::from_millis(10))
        }
        fn poll(&mut self, now: SimTime, out: &mut Vec<Packet>) {
            self.log.borrow_mut().push((now, self.name, "poll"));
            self.polls -= 1;
            if self.replies == 0 {
                out.push(Packet::control(IP_A, self.peer, Bytes::from_static(b"p")));
            }
        }
    }

    /// A zero-latency send made while an instant's arrivals are being
    /// dispatched is due at that same instant, but waits for the next
    /// round: the timers due now run first. Pinned as a literal: every
    /// committed figure was produced under this order.
    #[test]
    fn zero_latency_reply_waits_behind_same_instant_timers() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        let l = t.add_symmetric_link(a, b, LinkConfig::delay_only(SimDuration::ZERO));
        t.add_default_route(a, l);
        t.add_default_route(b, l);
        let mut world = NetWorld::new(t, SimRng::new(1));
        let log = EventLog::default();
        let scripted = |node, name, peer, polls, replies| Scripted {
            node,
            name,
            peer,
            polls,
            replies,
            log: log.clone(),
        };
        // a pings b once; b answers during dispatch; c (no links: its
        // pings find no route) ticks twice at the same instant.
        let mut ea = scripted(a, "a", IP_B, 1, 0);
        let mut eb = scripted(b, "b", IP_A, 0, 1);
        let mut ec = scripted(c, "c", IP_B, 2, 0);
        Driver::new().run_to(
            &mut world,
            &mut [&mut ea, &mut eb, &mut ec],
            SimTime::from_secs(1),
        );
        let at = SimTime::from_millis(10);
        assert_eq!(
            *log.borrow(),
            vec![
                (at, "a", "poll"),
                (at, "c", "poll"),
                (at, "b", "recv"),
                (at, "c", "poll"),
                (at, "a", "recv"),
            ]
        );
    }

    #[test]
    fn wrappers_drive_to_completion() {
        let (mut world, a, b) = two_node_world();
        let mut pa = periodic(a, IP_B, 4);
        let mut pb = periodic(b, IP_A, 0);
        let last = run_until(&mut world, &mut [&mut pa, &mut pb], SimTime::from_secs(1));
        assert_eq!(pb.received.len(), 4);
        assert_eq!(last, SimTime::from_millis(41));
        let mut pc = periodic(a, IP_B, 5);
        pc.next = SimTime::from_secs(2);
        run_between(
            &mut world,
            &mut [&mut pc, &mut pb],
            SimTime::from_secs(1),
            SimTime::from_secs(3),
        );
        assert_eq!(pb.received.len(), 9);
    }
}

//! The network substrate.
//!
//! [`NetWorld`] is a pure packet mover over a [`Topology`]: endpoints hand
//! it packets, it applies link service (latency, shaping, loss, outages)
//! and delivers them to the far-end node at the right virtual time.
//! Protocol logic lives in [`Endpoint`] implementations — hosts, routers,
//! gateways — driven by the [`crate::engine::Driver`] engine.
//!
//! A link direction delivers in the order it accepts (see
//! `Direction::offer`), and a delay-only one at exactly `now + latency`,
//! so in-flight packets need no sorting: every delay-only direction of
//! one configuration shares that configuration's FIFO, each shaped
//! direction queues its own, and dispatch merges the heads of the
//! non-empty ones (see `Arrivals`).

use crate::fault::{BurstLoss, EndpointFault};
use crate::link::{DropCause, Offer, Shaper};
use crate::packet::Packet;
use crate::topology::{LinkId, NodeId, Topology};
use cellbricks_sim::{SimRng, SimTime};
use cellbricks_telemetry as telemetry;
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::collections::VecDeque;

/// A protocol participant attached to a topology node.
///
/// Endpoints are passive (smoltcp-style): the driver pushes received
/// packets in via [`handle_packet`](Endpoint::handle_packet), asks when
/// the endpoint next needs the clock via [`poll_at`](Endpoint::poll_at),
/// and ticks it via [`poll`](Endpoint::poll). Outgoing packets are pushed
/// into `out` and routed from the endpoint's node.
pub trait Endpoint {
    /// The topology node this endpoint is attached to.
    fn node(&self) -> NodeId;
    /// A packet arrived at this node.
    fn handle_packet(&mut self, now: SimTime, pkt: Packet, out: &mut Vec<Packet>);
    /// The earliest instant this endpoint needs to run (timers).
    fn poll_at(&self) -> Option<SimTime>;
    /// Run timers due at `now`.
    fn poll(&mut self, now: SimTime, out: &mut Vec<Packet>);
    /// A scripted fault hits this endpoint (see
    /// [`FaultPlan`](crate::fault::FaultPlan)). The default implementation
    /// ignores it — infrastructure endpoints opt in by overriding.
    fn inject_fault(&mut self, _now: SimTime, _fault: &EndpointFault) {}
}

/// End of a cell list (a FIFO, the freelist).
const NIL: u32 = u32::MAX;

/// Tags a FIFO id as a delay-only configuration's shared FIFO; an
/// untagged id is a shaped direction's own, `(link << 1) | d` (`d` = 1
/// for b→a).
const SHARED: u32 = 1 << 31;

/// Where a sent packet is filed: the shared FIFO of its delay-only
/// configuration, or its shaped direction's own FIFO, whose tail the
/// `Direction` keeps.
enum Fifo<'a> {
    Shared(u32),
    Own { dir: u32, tail: &'a mut u32 },
}

/// One in-flight packet: a cell of the shared arrival slab, linked into
/// the FIFO that carries it.
struct Cell {
    at: SimTime,
    /// Append stamp: the merge tie-break at equal `at`. A cell stamped at
    /// or after the open round's mark was sent during that round.
    stamp: u64,
    /// The next cell of the same FIFO, or of the freelist.
    next: u32,
    /// The FIFO this cell is in: `SHARED | config`, or a direction id.
    fifo: u32,
    /// The destination node, so dispatch reads no `Link`.
    node: NodeId,
    pkt: Option<Packet>,
}

// The 128-byte rule (DESIGN §5): a packet's one slot moves inline.
const _: () = assert!(std::mem::size_of::<Cell>() == 128);

/// A non-empty FIFO's head cell in the merge index, ordered by
/// `(at, stamp)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Head {
    at: SimTime,
    stamp: u64,
    cell: u32,
}

/// In-flight packets as FIFOs: one slab of `Cell`s, a tail per
/// delay-only configuration (`shared`, indexed by the interned config),
/// a tail per shaped direction in its `Direction` (`fifo_tail`), and a
/// binary heap over the head of every non-empty FIFO, merged on
/// `(time, append stamp)` — time, then FIFO by send. Storage grows with
/// packets in flight and configurations, not with directions: a
/// direction owns no cell and no heap entry of its own unless it is
/// shaped and has something in flight.
struct Arrivals {
    cells: Vec<Cell>,
    /// Freelist head, chained through `Cell::next`.
    free: u32,
    heads: BinaryHeap<Reverse<Head>>,
    /// Tail of each delay-only configuration's FIFO; grown on first use.
    shared: Vec<u32>,
    /// The next append stamp, and its value when the open round began.
    stamp: u64,
    mark: u64,
}

impl Arrivals {
    fn new() -> Self {
        Self {
            cells: Vec::new(),
            free: NIL,
            heads: BinaryHeap::new(),
            shared: Vec::new(),
            stamp: 0,
            mark: 0,
        }
    }

    /// Queue `pkt` for `node`, due at `at`, behind the tail of `fifo`.
    #[inline]
    fn append(&mut self, fifo: Fifo<'_>, node: NodeId, at: SimTime, pkt: Packet) {
        let (fifo, tail) = match fifo {
            Fifo::Shared(config) => {
                let i = config as usize;
                if i >= self.shared.len() {
                    self.shared.resize(i + 1, NIL);
                }
                (SHARED | config, &mut self.shared[i])
            }
            Fifo::Own { dir, tail } => (dir, tail),
        };
        let stamp = self.stamp;
        self.stamp += 1;
        let cell = if self.free == NIL {
            let c = u32::try_from(self.cells.len()).expect("arrival slab overflow");
            self.cells.push(Cell {
                at,
                stamp,
                next: NIL,
                fifo,
                node,
                pkt: Some(pkt),
            });
            c
        } else {
            // Field by field, so the packet is copied once.
            let c = self.free;
            let cell = &mut self.cells[c as usize];
            self.free = cell.next;
            (cell.at, cell.stamp, cell.next, cell.fifo, cell.node) = (at, stamp, NIL, fifo, node);
            cell.pkt = Some(pkt);
            c
        };
        if *tail == NIL {
            self.heads.push(Reverse(Head { at, stamp, cell }));
        } else {
            let last = &mut self.cells[*tail as usize];
            debug_assert!(at >= last.at, "arrival FIFO {fifo:#x} out of order");
            last.next = cell;
        }
        *tail = cell;
    }
}

/// Per-link delivery/drop counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Packets delivered a→b.
    pub ab_delivered: u64,
    /// Packets dropped a→b.
    pub ab_dropped: u64,
    /// Packets delivered b→a.
    pub ba_delivered: u64,
    /// Packets dropped b→a.
    pub ba_dropped: u64,
    /// Packets the a→b token-bucket policer delayed.
    pub ab_policer_hits: u64,
    /// Packets the b→a token-bucket policer delayed.
    pub ba_policer_hits: u64,
}

/// Telemetry handles for the packet-moving path, registered once per
/// [`NetWorld`]. The per-packet ones are fed from a [`Tally`] once per
/// window; only drops and policer hits record as they happen.
struct WorldMetrics {
    sent: telemetry::Counter,
    delivered: telemetry::Counter,
    delivered_bytes: telemetry::Counter,
    no_route: telemetry::Counter,
    drop_outage: telemetry::Counter,
    drop_loss: telemetry::Counter,
    drop_burst: telemetry::Counter,
    drop_queue_cap: telemetry::Counter,
    drop_policer: telemetry::Counter,
    policer_hits: telemetry::Counter,
    in_flight: telemetry::Gauge,
}

impl WorldMetrics {
    fn register() -> Self {
        Self {
            sent: telemetry::counter("net.world.packets_sent"),
            delivered: telemetry::counter("net.link.delivered"),
            delivered_bytes: telemetry::counter("net.link.delivered_bytes"),
            no_route: telemetry::counter("net.world.no_route_drops"),
            drop_outage: telemetry::counter("net.link.drops.outage"),
            drop_loss: telemetry::counter("net.link.drops.loss"),
            drop_burst: telemetry::counter("net.link.drops.burst"),
            drop_queue_cap: telemetry::counter("net.link.drops.queue_cap"),
            drop_policer: telemetry::counter("net.link.drops.policer"),
            policer_hits: telemetry::counter("net.link.policer_hits"),
            in_flight: telemetry::gauge("net.world.packets_in_flight"),
        }
    }
}

/// Per-packet counts since the last [`NetWorld::publish_telemetry`], in
/// plain integers so `send` and arrival dispatch execute no atomic.
#[derive(Default)]
struct Tally {
    sent: u64,
    delivered: u64,
    delivered_bytes: u64,
    /// Net change of packets queued in this world's arrival FIFOs, and
    /// the highest that running change has stood.
    in_flight: i64,
    in_flight_peak: i64,
}

impl Tally {
    fn queued(&mut self) {
        self.in_flight += 1;
        self.in_flight_peak = self.in_flight_peak.max(self.in_flight);
    }
}

/// The network: topology plus in-flight packets.
pub struct NetWorld {
    topology: Topology,
    /// In-flight deliveries. The slab freelist recycles cells, so the
    /// steady-state delivery path allocates nothing.
    arrivals: Arrivals,
    rng: SimRng,
    /// Packets dropped because no route matched.
    pub no_route_drops: u64,
    metrics: WorldMetrics,
    tally: Tally,
}

impl Drop for NetWorld {
    /// A world driven by hand (no [`crate::engine::Driver`]) still
    /// publishes what it counted.
    fn drop(&mut self) {
        self.publish_telemetry();
    }
}

impl NetWorld {
    /// Wrap a topology; `rng` drives loss decisions.
    #[must_use]
    pub fn new(topology: Topology, rng: SimRng) -> Self {
        Self {
            topology,
            arrivals: Arrivals::new(),
            rng,
            no_route_drops: 0,
            metrics: WorldMetrics::register(),
            tally: Tally::default(),
        }
    }

    /// Publish the per-packet tallies to the registry and zero them.
    /// [`Driver`](crate::engine::Driver) calls this whenever it returns,
    /// so every value read at a `run_to` boundary is exact;
    /// in between, the registry is at most one window behind. Whether
    /// recording is on is decided here, not when the packet moved.
    pub fn publish_telemetry(&mut self) {
        let t = std::mem::take(&mut self.tally);
        self.metrics.sent.add(t.sent);
        self.metrics.delivered.add(t.delivered);
        self.metrics.delivered_bytes.add(t.delivered_bytes);
        self.metrics
            .in_flight
            .add_with_peak(t.in_flight, t.in_flight_peak);
    }

    /// Mutable topology access (e.g. to install routes mid-run).
    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.topology
    }

    /// Send `pkt` from `from`: routes one hop and schedules the arrival.
    ///
    /// `now` must not decrease from one call to the next on one world,
    /// as the engine's clock does not. Every delay-only direction of one
    /// configuration files into one FIFO at `now + latency`, so only a
    /// monotone `now` keeps that FIFO sorted (a debug build asserts it).
    pub fn send(&mut self, now: SimTime, from: NodeId, pkt: Packet) {
        self.tally.sent += 1;
        let Some(link) = self.topology.route(from, pkt.dst) else {
            self.no_route_drops += 1;
            self.metrics.no_route.inc();
            return;
        };
        let size = pkt.wire_size();
        let l = &mut self.topology.links[link.0];
        let is_ba = l.a != from;
        let (dir, to) = if is_ba {
            (&mut l.ba, l.a)
        } else {
            (&mut l.ab, l.b)
        };
        let cfg = &self.topology.configs[dir.config as usize];
        // Loss samples come from the world RNG in the exact order the
        // figure-replay gate pins. Links without a burst model consume
        // exactly one sample per send, so installing one elsewhere never
        // perturbs this link's stream.
        let draw = self.rng.unit();
        let burst_draw = cfg.burst.is_some().then(|| self.rng.unit());
        let policer_before = dir.policer_hits;
        let offer = dir.offer(cfg, now, size, draw, burst_draw);
        if dir.policer_hits != policer_before {
            self.metrics.policer_hits.inc();
        }
        match offer {
            Offer::Deliver(at) => {
                self.tally.delivered += 1;
                self.tally.delivered_bytes += u64::from(size);
                // A delay-only direction delivers at exactly `now +
                // latency`, so one configuration's directions share a FIFO.
                let fifo = if matches!(cfg.shaper, Shaper::None) {
                    Fifo::Shared(dir.config)
                } else {
                    Fifo::Own {
                        dir: (link.0 as u32) << 1 | u32::from(is_ba),
                        tail: &mut dir.fifo_tail,
                    }
                };
                self.arrivals.append(fifo, to, at, pkt);
                self.tally.queued();
            }
            Offer::Drop(cause) => {
                match cause {
                    DropCause::Outage => self.metrics.drop_outage.inc(),
                    DropCause::Loss => self.metrics.drop_loss.inc(),
                    DropCause::Burst => self.metrics.drop_burst.inc(),
                    DropCause::QueueCap => self.metrics.drop_queue_cap.inc(),
                    DropCause::Policer => self.metrics.drop_policer.inc(),
                }
                telemetry::trace_instant("net.drop", "net", now.as_nanos());
            }
        }
    }

    /// The instant of the next pending arrival.
    #[inline]
    #[must_use]
    pub fn next_arrival_at(&self) -> Option<SimTime> {
        self.arrivals.heads.peek().map(|h| h.0.at)
    }

    /// Open a round of arrivals; follow with
    /// [`next_arrival`](Self::next_arrival) until it returns `None`.
    #[inline]
    pub(crate) fn begin_arrivals(&mut self) {
        self.arrivals.mark = self.arrivals.stamp;
    }

    /// The next arrival due at or before `now` in the open round, in
    /// merge-key order, moved straight out of its slab cell; `None`
    /// closes the round.
    ///
    /// A packet sent during the round (its stamp at or past the mark)
    /// ends the round even if due: a zero-latency reply to an arrival
    /// waits for the next round, behind the timers due now. It was sent
    /// at `now`, so it is due no earlier, and its stamp is newer than
    /// every cell queued before the round: every older due head sorts
    /// ahead of it.
    #[inline]
    pub(crate) fn next_arrival(&mut self, now: SimTime) -> Option<(SimTime, NodeId, Packet)> {
        let q = &mut self.arrivals;
        let mut top = q.heads.peek_mut()?;
        let head = top.0;
        if head.at > now || head.stamp >= q.mark {
            return None;
        }
        let cell = &mut q.cells[head.cell as usize];
        let (fifo, node, next) = (cell.fifo, cell.node, cell.next);
        cell.next = q.free;
        q.free = head.cell;
        if next == NIL {
            if fifo & SHARED != 0 {
                q.shared[(fifo & !SHARED) as usize] = NIL;
            } else {
                let l = &mut self.topology.links[(fifo >> 1) as usize];
                let d = if fifo & 1 == 0 { &mut l.ab } else { &mut l.ba };
                d.fifo_tail = NIL;
            }
            PeekMut::pop(top);
        } else {
            let n = &q.cells[next as usize];
            top.0 = Head {
                at: n.at,
                stamp: n.stamp,
                cell: next,
            };
        }
        self.tally.in_flight -= 1;
        // The packet moves last, straight from the slab to the caller.
        let pkt = q.cells[head.cell as usize].pkt.take();
        Some((head.at, node, pkt.expect("queued cell without a packet")))
    }

    /// Pop all arrivals due at or before `now`, appending them to `out`
    /// in dispatch order (for callers that drive a world by hand).
    pub fn drain_arrivals_into(&mut self, now: SimTime, out: &mut Vec<(SimTime, NodeId, Packet)>) {
        self.begin_arrivals();
        out.extend(std::iter::from_fn(|| self.next_arrival(now)));
    }

    /// Blackhole both directions of `link` until `until` (radio outage
    /// during a handover). Packets already in flight still arrive.
    pub fn set_outage(&mut self, link: LinkId, until: SimTime) {
        let l = &mut self.topology.links[link.0];
        l.ab.outage_until = until;
        l.ba.outage_until = until;
    }

    /// Install (`Some`) or remove (`None`) a Gilbert–Elliott burst-loss
    /// model on both directions of `link`; the chains restart good.
    pub fn set_burst_loss(&mut self, link: LinkId, model: Option<BurstLoss>) {
        self.topology.set_burst_loss(link, model);
    }

    /// Delivery/drop counters for `link`.
    #[must_use]
    pub fn link_stats(&self, link: LinkId) -> LinkStats {
        let l = &self.topology.links[link.0];
        LinkStats {
            ab_delivered: l.ab.delivered,
            ab_dropped: l.ab.dropped,
            ba_delivered: l.ba.delivered,
            ba_dropped: l.ba.dropped,
            ab_policer_hits: l.ab.policer_hits,
            ba_policer_hits: l.ba.policer_hits,
        }
    }
}

/// A store-and-forward router: re-emits every received packet (the
/// topology's route tables decide the next hop). An optional per-packet
/// processing delay models middlebox forwarding cost.
pub struct Router {
    node: NodeId,
    delay: cellbricks_sim::SimDuration,
    /// Packets waiting out their processing delay. A FIFO: the delay is
    /// constant and the clock monotone, so release instants never
    /// decrease.
    pending: VecDeque<(SimTime, Packet)>,
}

impl Router {
    /// A router at `node` with the given per-packet processing delay.
    #[must_use]
    pub fn new(node: NodeId, delay: cellbricks_sim::SimDuration) -> Self {
        Self {
            node,
            delay,
            pending: VecDeque::new(),
        }
    }
}

impl Endpoint for Router {
    fn node(&self) -> NodeId {
        self.node
    }

    fn handle_packet(&mut self, now: SimTime, pkt: Packet, out: &mut Vec<Packet>) {
        if self.delay == cellbricks_sim::SimDuration::ZERO {
            out.push(pkt);
        } else {
            let at = now + self.delay;
            debug_assert!(self.pending.back().is_none_or(|(last, _)| *last <= at));
            self.pending.push_back((at, pkt));
        }
    }

    fn poll_at(&self) -> Option<SimTime> {
        self.pending.front().map(|(at, _)| *at)
    }

    fn poll(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        let due = self.pending.partition_point(|(at, _)| *at <= now);
        out.extend(self.pending.drain(..due).map(|(_, pkt)| pkt));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Driver;
    use crate::link::LinkConfig;
    use crate::packet::{Packet, PacketKind};
    use bytes::Bytes;
    use cellbricks_sim::SimDuration;
    use std::net::Ipv4Addr;

    const IP_A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const IP_C: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);

    /// Test endpoint: records receptions; can send one packet at start.
    struct Probe {
        node: NodeId,
        send_at: Option<(SimTime, Packet)>,
        received: Vec<(SimTime, Packet)>,
    }

    impl Endpoint for Probe {
        fn node(&self) -> NodeId {
            self.node
        }
        fn handle_packet(&mut self, now: SimTime, pkt: Packet, _out: &mut Vec<Packet>) {
            self.received.push((now, pkt));
        }
        fn poll_at(&self) -> Option<SimTime> {
            self.send_at.as_ref().map(|(t, _)| *t)
        }
        fn poll(&mut self, _now: SimTime, out: &mut Vec<Packet>) {
            if let Some((_, pkt)) = self.send_at.take() {
                out.push(pkt);
            }
        }
    }

    fn control(src: Ipv4Addr, dst: Ipv4Addr) -> Packet {
        Packet::control(src, dst, Bytes::from_static(b"x"))
    }

    #[test]
    fn two_hop_delivery_through_router() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let r = t.add_node("router");
        let c = t.add_node("c");
        let l_ar = t.add_symmetric_link(a, r, LinkConfig::delay_only(SimDuration::from_millis(5)));
        let l_rc = t.add_symmetric_link(r, c, LinkConfig::delay_only(SimDuration::from_millis(7)));
        t.add_default_route(a, l_ar);
        t.add_route(r, IP_C, 32, l_rc);
        t.add_default_route(c, l_rc);

        let mut world = NetWorld::new(t, SimRng::new(1));
        let mut pa = Probe {
            node: a,
            send_at: Some((SimTime::from_secs(1), control(IP_A, IP_C))),
            received: vec![],
        };
        let mut router = Router::new(r, SimDuration::ZERO);
        let mut pc = Probe {
            node: c,
            send_at: None,
            received: vec![],
        };
        Driver::new().run_to(
            &mut world,
            &mut [&mut pa, &mut router, &mut pc],
            SimTime::from_secs(10),
        );
        assert_eq!(pc.received.len(), 1);
        let (at, pkt) = &pc.received[0];
        assert_eq!(*at, SimTime::from_secs(1) + SimDuration::from_millis(12));
        assert!(matches!(pkt.kind, PacketKind::Control(_)));
    }

    #[test]
    fn router_processing_delay_adds_up() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let r = t.add_node("router");
        let c = t.add_node("c");
        let l_ar = t.add_symmetric_link(a, r, LinkConfig::delay_only(SimDuration::from_millis(1)));
        let l_rc = t.add_symmetric_link(r, c, LinkConfig::delay_only(SimDuration::from_millis(1)));
        t.add_default_route(a, l_ar);
        t.add_route(r, IP_C, 32, l_rc);
        t.add_default_route(c, l_rc);

        let mut world = NetWorld::new(t, SimRng::new(1));
        let mut pa = Probe {
            node: a,
            send_at: Some((SimTime::ZERO, control(IP_A, IP_C))),
            received: vec![],
        };
        let mut router = Router::new(r, SimDuration::from_millis(3));
        let mut pc = Probe {
            node: c,
            send_at: None,
            received: vec![],
        };
        Driver::new().run_to(
            &mut world,
            &mut [&mut pa, &mut router, &mut pc],
            SimTime::from_secs(1),
        );
        assert_eq!(pc.received[0].0, SimTime::from_nanos(5_000_000));
    }

    #[test]
    fn no_route_counts_drop() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        t.add_symmetric_link(a, b, LinkConfig::delay_only(SimDuration::from_millis(1)));
        // No routes installed at all.
        let mut world = NetWorld::new(t, SimRng::new(1));
        world.send(SimTime::ZERO, a, control(IP_A, IP_C));
        assert_eq!(world.no_route_drops, 1);
        assert!(world.next_arrival_at().is_none());
    }

    #[test]
    fn outage_blackholes_new_sends() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let l = t.add_symmetric_link(a, b, LinkConfig::delay_only(SimDuration::from_millis(1)));
        t.add_default_route(a, l);
        t.add_default_route(b, l);
        let mut world = NetWorld::new(t, SimRng::new(1));
        world.set_outage(l, SimTime::from_secs(5));
        world.send(SimTime::from_secs(1), a, control(IP_A, IP_C));
        assert!(world.next_arrival_at().is_none());
        world.send(SimTime::from_secs(6), a, control(IP_A, IP_C));
        assert!(world.next_arrival_at().is_some());
        let stats = world.link_stats(l);
        assert_eq!(stats.ab_dropped, 1);
        assert_eq!(stats.ab_delivered, 1);
    }

    #[test]
    fn lossy_link_drops_fraction() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let l = t.add_symmetric_link(
            a,
            b,
            LinkConfig::delay_only(SimDuration::from_millis(1)).with_loss(0.3),
        );
        t.add_default_route(a, l);
        let mut world = NetWorld::new(t, SimRng::new(42));
        for _ in 0..2000 {
            world.send(SimTime::ZERO, a, control(IP_A, IP_C));
        }
        let stats = world.link_stats(l);
        let loss = stats.ab_dropped as f64 / 2000.0;
        assert!((loss - 0.3).abs() < 0.05, "loss {loss}");
    }

    impl NetWorld {
        /// Entries in the merge heap: one per non-empty FIFO.
        fn merge_heads(&self) -> usize {
            self.arrivals.heads.len()
        }
    }

    /// A hub with `n` leaves, each on its own link of one delay-only
    /// configuration and routed to the hub by default.
    fn star(n: usize, latency: SimDuration) -> (NetWorld, Vec<NodeId>) {
        let mut t = Topology::new();
        let hub = t.add_node("hub");
        let leaves = (0..n)
            .map(|_| {
                let leaf = t.add_node("leaf");
                let link = t.add_symmetric_link(leaf, hub, LinkConfig::delay_only(latency));
                t.add_default_route(leaf, link);
                leaf
            })
            .collect();
        (NetWorld::new(t, SimRng::new(1)), leaves)
    }

    #[test]
    fn one_delay_only_config_is_one_merge_head() {
        let (mut world, leaves) = star(1_000, SimDuration::from_millis(5));
        let sent_at = |i: usize| SimTime::ZERO + SimDuration::from_micros(i as u64);
        let pkt = |i: usize| Packet::control(IP_A, IP_C, Bytes::from(i.to_le_bytes().to_vec()));
        for (i, &leaf) in leaves.iter().enumerate() {
            world.send(sent_at(i), leaf, pkt(i));
        }
        // 1 000 directions with a packet each in flight, one FIFO.
        assert_eq!(world.merge_heads(), 1);
        let mut landed = Vec::new();
        world.drain_arrivals_into(SimTime::from_secs(1), &mut landed);
        let hub = NodeId(0);
        let want: Vec<_> = (0..leaves.len())
            .map(|i| (sent_at(i) + SimDuration::from_millis(5), hub, pkt(i)))
            .collect();
        assert_eq!(landed, want);
        assert_eq!(world.merge_heads(), 0);
    }

    /// Two directions of one delay-only configuration share a FIFO, so
    /// a send at an earlier `now` than the last one breaks its order.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "out of order")]
    fn send_with_decreasing_now_is_caught() {
        let (mut world, leaves) = star(2, SimDuration::from_millis(1));
        world.send(SimTime::from_millis(2), leaves[0], control(IP_A, IP_C));
        world.send(SimTime::from_millis(1), leaves[1], control(IP_A, IP_C));
    }

    #[test]
    #[should_panic(expected = "share a node")]
    fn duplicate_endpoint_nodes_rejected() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let mut world = NetWorld::new(t, SimRng::new(1));
        let mut p1 = Probe {
            node: a,
            send_at: None,
            received: vec![],
        };
        let mut p2 = Probe {
            node: a,
            send_at: None,
            received: vec![],
        };
        Driver::new().run_to(&mut world, &mut [&mut p1, &mut p2], SimTime::from_secs(1));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::link::{LinkConfig, RateSchedule, Shaper};
    use bytes::Bytes;
    use cellbricks_sim::{EventQueue, SimDuration};
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::net::Ipv4Addr;

    const NODES: usize = 5;

    fn ip(node: usize) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, node as u8)
    }

    /// A direction of kind delay-only, zero-latency, fixed-rate or token
    /// bucket, optionally lossy.
    fn config(kind: u8, latency_us: u64, lossy: bool) -> LinkConfig {
        let latency = SimDuration::from_micros(latency_us);
        let cfg = match kind % 4 {
            0 => LinkConfig::delay_only(latency),
            1 => LinkConfig::delay_only(SimDuration::ZERO),
            2 => LinkConfig::fixed_rate(latency, 2e6, SimDuration::from_millis(30)),
            _ => LinkConfig {
                shaper: Shaper::TokenBucket {
                    schedule: RateSchedule::Constant(1e6),
                    burst_bytes: 3_000.0,
                },
                queue_cap: SimDuration::from_millis(50),
                ..LinkConfig::delay_only(latency)
            },
        };
        if lossy {
            cfg.with_loss(0.2)
        } else {
            cfg
        }
    }

    /// Any latency, or one of three, so that many delay-only directions
    /// share a configuration (and with it a FIFO).
    fn latency_us() -> impl Strategy<Value = u64> {
        prop_oneof![0u64..3_000, (0usize..3).prop_map(|i| [0, 500, 1_500][i])]
    }

    type LinkSpec = (usize, usize, u8, u8, u64, bool);

    /// Link `a`–`b`, which becomes both ends' default route and their
    /// host route to each other (the newest link wins).
    fn add_link(t: &mut Topology, (a, b, ka, kb, lat, lossy): LinkSpec) -> Option<LinkId> {
        (a != b).then(|| {
            let (ab, ba) = (config(ka, lat, lossy), config(kb, lat / 2, lossy));
            let l = t.add_link(NodeId(a), NodeId(b), ab, ba);
            for (from, to) in [(a, b), (b, a)] {
                t.add_default_route(NodeId(from), l);
                t.add_route(NodeId(from), ip(to), 32, l);
            }
            l
        })
    }

    /// The reference: the same link service on a copy of the topology
    /// and of the RNG, every delivery filed in one `EventQueue` — time,
    /// then insertion.
    struct Reference {
        topo: Topology,
        rng: SimRng,
        q: EventQueue<(NodeId, Packet)>,
    }

    impl Reference {
        fn send(&mut self, now: SimTime, from: NodeId, pkt: Packet) {
            let Some(link) = self.topo.route(from, pkt.dst) else {
                return;
            };
            let l = &mut self.topo.links[link.0];
            let (dir, peer) = if l.a == from {
                (&mut l.ab, l.b)
            } else {
                (&mut l.ba, l.a)
            };
            let cfg = &self.topo.configs[dir.config as usize];
            let draw = self.rng.unit();
            let burst = cfg.burst.is_some().then(|| self.rng.unit());
            if let Offer::Deliver(at) = dir.offer(cfg, now, pkt.wire_size(), draw, burst) {
                self.q.push(at, (peer, pkt));
            }
        }

        fn drain(&mut self, now: SimTime) -> Vec<(SimTime, NodeId, Packet)> {
            std::iter::from_fn(|| self.q.pop_due(now))
                .map(|(at, (node, pkt))| (at, node, pkt))
                .collect()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random small worlds — delay-only, zero-latency, fixed-rate and
        /// token-bucket directions, some lossy, many delay-only ones
        /// sharing a configuration — under sends at
        /// nondecreasing instants (half of them at the same instant as the
        /// previous op) interleaved with `drain_arrivals_into`, outage
        /// windows, burst-loss windows and links added mid-run: the FIFO
        /// world dispatches exactly the reference's `(at, node, pkt)`.
        #[test]
        fn prop_fifo_dispatch_matches_event_queue(
            links in vec((0..NODES, 0..NODES, 0u8..4, 0u8..4, latency_us(), any::<bool>()), 1..8),
            ops in vec((0u8..8, 0..NODES, 0..NODES, 0u64..2_000), 1..200),
            seed in any::<u64>(),
        ) {
            let mut t = Topology::new();
            for i in 0..NODES {
                t.add_node(&format!("n{i}"));
            }
            let mut ids: Vec<LinkId> = links.iter().filter_map(|&s| add_link(&mut t, s)).collect();
            let mut reference = Reference {
                topo: t.clone(),
                rng: SimRng::new(seed),
                q: EventQueue::new(),
            };
            let mut world = NetWorld::new(t, SimRng::new(seed));
            let (mut now, mut sent, mut got) = (SimTime::ZERO, 0u64, Vec::new());
            for (op, x, y, dt) in ops {
                now += SimDuration::from_micros(if dt < 1_000 { 0 } else { dt });
                match op {
                    0..=4 => {
                        let payload = Bytes::from(sent.to_le_bytes().to_vec());
                        let pkt = Packet::control(ip(x), ip(y), payload);
                        sent += 1;
                        reference.send(now, NodeId(x), pkt.clone());
                        world.send(now, NodeId(x), pkt);
                    }
                    5 => {
                        got.clear();
                        world.drain_arrivals_into(now, &mut got);
                        prop_assert_eq!(&got, &reference.drain(now));
                    }
                    6 if !ids.is_empty() => {
                        let link = ids[x % ids.len()];
                        let until = now + SimDuration::from_micros(10 * dt);
                        world.set_outage(link, until);
                        let l = &mut reference.topo.links[link.0];
                        (l.ab.outage_until, l.ba.outage_until) = (until, until);
                    }
                    7 if dt % 2 == 0 => {
                        let spec = (x, y, (dt >> 1) as u8, (dt >> 3) as u8, dt, dt % 3 == 0);
                        if let Some(l) = add_link(world.topology_mut(), spec) {
                            prop_assert_eq!(add_link(&mut reference.topo, spec), Some(l));
                            ids.push(l);
                        }
                    }
                    7 if !ids.is_empty() => {
                        let link = ids[x % ids.len()];
                        let model = (y % 2 == 0).then_some(BurstLoss {
                            p_enter: 0.3,
                            p_exit: 0.4,
                            loss_good: 0.05,
                            loss_bad: 0.8,
                        });
                        world.set_burst_loss(link, model);
                        reference.topo.set_burst_loss(link, model);
                    }
                    _ => {}
                }
            }
            let end = now + SimDuration::from_secs(10);
            got.clear();
            world.drain_arrivals_into(end, &mut got);
            prop_assert_eq!(&got, &reference.drain(end));
            prop_assert!(world.next_arrival_at().is_none() && reference.q.is_empty());
        }
    }
}

//! The network substrate.
//!
//! [`NetWorld`] is a pure packet mover over a [`Topology`]: endpoints hand
//! it packets, it applies link service (latency, shaping, loss, outages)
//! and delivers them to the far-end node at the right virtual time.
//! Protocol logic lives in [`Endpoint`] implementations — hosts, routers,
//! gateways — driven by the [`crate::engine::Driver`] engine.

use crate::fault::{BurstLoss, EndpointFault};
use crate::link::{DropCause, Offer};
use crate::packet::Packet;
use crate::shard::{mix, ShardPlan};
use crate::topology::{LinkId, NodeId, Topology};
use cellbricks_sim::{EventQueue, SimRng, SimTime, TimerWheel};
use cellbricks_telemetry as telemetry;
use std::sync::Arc;

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

pub(crate) struct Arrival {
    pub(crate) node: NodeId,
    pub(crate) pkt: Packet,
    /// Canonical stream key `(link << 1) | direction` — the total order
    /// over same-instant arrivals in sharded mode. 0 in legacy mode
    /// (where wheel FIFO order is the contract).
    key: u32,
    /// Per-stream insertion sequence (sharded mode; 0 in legacy mode).
    seq: u64,
}

// What the arrival wheel hands out must stay inside the 128 bytes LLVM
// copies inline (see the assertion on `Packet`).
const _: () = assert!(std::mem::size_of::<(SimTime, Arrival)>() <= 128);

/// A packet bound for a node another shard owns, carried from the source
/// shard's [`NetWorld`] to the destination shard at the conservative
/// sync barrier (see [`crate::shard`]).
pub struct CrossPacket {
    dst_shard: u32,
    at: SimTime,
    node: NodeId,
    key: u32,
    seq: u64,
    pkt: Packet,
}

impl CrossPacket {
    /// The shard that owns the destination node.
    #[must_use]
    pub fn dst_shard(&self) -> usize {
        self.dst_shard as usize
    }

    /// The arrival instant at the destination node.
    #[must_use]
    pub fn arrives_at(&self) -> SimTime {
        self.at
    }
}

/// Sharded-mode state of a [`NetWorld`] slice (absent on the legacy
/// single-world path, which the figure-replay gate pins byte-for-byte).
///
/// Determinism across shard counts hinges on two ideas here:
/// * every link **direction** gets its own RNG stream, seeded from
///   `(stream_seed, link, dir)` — a direction is only ever exercised by
///   the shard owning its source node, so the sample sequence any
///   direction sees is the same no matter how nodes are partitioned;
/// * every delivered packet is tagged `(key, seq)` = (direction, per-
///   direction insertion ordinal), and arrivals dispatch in
///   `(time, key, seq)` order — a total order independent of which shard
///   produced the packet or when it crossed the barrier.
struct ShardState {
    /// This world's shard index.
    shard: u32,
    /// Owning shard per node, indexed by dense `NodeId`.
    node_shard: Arc<Vec<u32>>,
    /// One RNG per link direction, indexed `[link][dir]`.
    dir_rngs: Vec<[SimRng; 2]>,
    /// Per-direction delivery ordinals, indexed `[link][dir]`.
    dir_seq: Vec<[u64; 2]>,
    /// Deliveries bound for other shards, awaiting the barrier.
    outbox: Vec<CrossPacket>,
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
    /// Net change of packets in this world's wheel, and the highest that
    /// running change has stood.
    in_flight: i64,
    in_flight_peak: i64,
}

impl Tally {
    fn entered_wheel(&mut self) {
        self.in_flight += 1;
        self.in_flight_peak = self.in_flight_peak.max(self.in_flight);
    }
}

/// The network: topology plus in-flight packets.
pub struct NetWorld {
    topology: Topology,
    /// In-flight deliveries, indexed by arrival instant. A [`TimerWheel`]
    /// rather than an [`EventQueue`]: the slab freelist recycles queue
    /// entries, so the steady-state delivery path allocates nothing.
    arrivals: TimerWheel<Arrival>,
    rng: SimRng,
    /// Packets dropped because no route matched.
    pub no_route_drops: u64,
    metrics: WorldMetrics,
    tally: Tally,
    /// Sharded-mode state; `None` on the legacy single-world path.
    shard: Option<Box<ShardState>>,
    /// Wheel insertion mark of the instant being dispatched (legacy mode).
    arrival_mark: u64,
    /// The instant's arrivals in reverse canonical order (sharded mode).
    drain_scratch: Vec<(SimTime, Arrival)>,
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
            arrivals: TimerWheel::new(),
            rng,
            no_route_drops: 0,
            metrics: WorldMetrics::register(),
            tally: Tally::default(),
            shard: None,
            arrival_mark: 0,
            drain_scratch: Vec::new(),
        }
    }

    /// Publish the per-packet tallies to the registry and zero them.
    /// [`Driver`](crate::engine::Driver) calls this whenever it returns,
    /// so every value read at a `run_to`/`run_window` boundary is exact;
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

    /// Split this world into one slice per shard of `plan`.
    ///
    /// Each slice clones the topology and carries its own arrival
    /// wheel; loss/burst decisions switch from the world RNG to
    /// per-link-direction streams seeded from `stream_seed`, which is
    /// what makes results bit-identical for
    /// any shard count (including 1). Sharded results therefore differ
    /// from the legacy path's — the legacy RNG stream is pinned by the
    /// figure-replay gate and is not touched.
    ///
    /// # Panics
    /// Panics if packets are already in flight (split before traffic).
    #[must_use]
    pub fn into_shards(mut self, plan: &ShardPlan, stream_seed: u64) -> Vec<NetWorld> {
        assert!(
            self.arrivals.is_empty(),
            "into_shards with packets in flight"
        );
        let node_shard = plan.node_shard_arc();
        assert_eq!(
            node_shard.len(),
            self.topology.node_count(),
            "shard plan built for a different topology"
        );
        let links = self.topology.link_count();
        let topo = std::mem::take(&mut self.topology);
        (0..plan.shards())
            .map(|s| {
                let dir_rngs = (0..links)
                    .map(|l| {
                        let l = l as u64;
                        [
                            SimRng::new(mix(stream_seed, l << 1)),
                            SimRng::new(mix(stream_seed, (l << 1) | 1)),
                        ]
                    })
                    .collect();
                NetWorld {
                    topology: topo.clone_for_shard(),
                    arrivals: TimerWheel::new(),
                    // Unused by sharded sends; kept so the API surface
                    // (e.g. future per-shard jitter) has a stream.
                    rng: SimRng::new(mix(stream_seed, 0x5eed_0000 | s as u64)),
                    no_route_drops: 0,
                    metrics: WorldMetrics::register(),
                    tally: Tally::default(),
                    shard: Some(Box::new(ShardState {
                        shard: s as u32,
                        node_shard: node_shard.clone(),
                        dir_rngs,
                        dir_seq: vec![[0; 2]; links],
                        outbox: Vec::new(),
                    })),
                    arrival_mark: 0,
                    drain_scratch: Vec::new(),
                }
            })
            .collect()
    }

    /// This world's shard index (`None` on the legacy path).
    #[must_use]
    pub fn shard_id(&self) -> Option<usize> {
        self.shard.as_ref().map(|s| s.shard as usize)
    }

    /// The topology (routes may be inspected but links carry state).
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Mutable topology access (e.g. to install routes mid-run).
    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.topology
    }

    /// Send `pkt` from `from`: routes one hop and schedules the arrival.
    pub fn send(&mut self, now: SimTime, from: NodeId, pkt: Packet) {
        self.tally.sent += 1;
        let Some(link) = self.topology.route(from, pkt.dst) else {
            self.no_route_drops += 1;
            self.metrics.no_route.inc();
            return;
        };
        let peer = self.topology.peer(link, from);
        let size = pkt.wire_size();
        // Loss samples: legacy mode draws from the world RNG in the exact
        // order the figure-replay gate pins; sharded mode draws from the
        // per-direction stream so the sequence a direction sees does not
        // depend on the partition (see [`ShardState`]).
        let dir_is_ba = {
            let l = &self.topology.links[link.0];
            l.a != from
        };
        let (draw, burst_draw) = {
            let l = &self.topology.links[link.0];
            let dir = if dir_is_ba { &l.ba } else { &l.ab };
            let has_burst = dir.burst_installed();
            let r = match &mut self.shard {
                Some(sh) => &mut sh.dir_rngs[link.0][usize::from(dir_is_ba)],
                None => &mut self.rng,
            };
            let draw = r.unit();
            // Links without a burst model consume exactly one sample per
            // send, so installing one elsewhere never perturbs this
            // link's stream.
            (draw, has_burst.then(|| r.unit()))
        };
        let l = &mut self.topology.links[link.0];
        let dir = if dir_is_ba { &mut l.ba } else { &mut l.ab };
        let policer_before = dir.policer_hits;
        let offer = dir.offer(now, size, draw, burst_draw);
        if dir.policer_hits != policer_before {
            self.metrics.policer_hits.inc();
        }
        match offer {
            Offer::Deliver(at) => {
                self.tally.delivered += 1;
                self.tally.delivered_bytes += u64::from(size);
                let (key, seq, remote) = match &mut self.shard {
                    Some(sh) => {
                        let d = usize::from(dir_is_ba);
                        let seq = sh.dir_seq[link.0][d];
                        sh.dir_seq[link.0][d] += 1;
                        let key = (link.0 as u32) << 1 | d as u32;
                        let dst = sh.node_shard[peer.0];
                        (key, seq, (dst != sh.shard).then_some(dst))
                    }
                    None => (0, 0, None),
                };
                if let Some(dst_shard) = remote {
                    // Bound for another shard: park it in the outbox for
                    // the barrier exchange instead of the local wheel.
                    self.shard.as_mut().unwrap().outbox.push(CrossPacket {
                        dst_shard,
                        at,
                        node: peer,
                        key,
                        seq,
                        pkt,
                    });
                } else {
                    self.arrivals.insert(
                        at,
                        Arrival {
                            node: peer,
                            pkt,
                            key,
                            seq,
                        },
                    );
                    self.tally.entered_wheel();
                }
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

    /// The instant of the next pending arrival. `&mut` because peeking
    /// may advance the wheel's internal scan position.
    #[inline]
    pub fn next_arrival_at(&mut self) -> Option<SimTime> {
        self.arrivals.peek_time()
    }

    /// Start handing out the arrivals due at or before `now`; follow
    /// with [`next_arrival`](Self::next_arrival) until it returns `None`.
    ///
    /// Legacy mode hands them out straight from the wheel in its (time,
    /// FIFO) pop order, up to the insertion mark taken here: a packet
    /// sent at zero latency while the instant is being dispatched is due
    /// too, but belongs to the next round. Sharded mode re-sorts the due
    /// batch into the canonical `(time, direction key, per-direction
    /// seq)` order — a total order that does not depend on wheel
    /// insertion order, and therefore not on which barrier window a
    /// cross-shard packet was injected in.
    #[inline]
    pub(crate) fn begin_arrivals(&mut self, now: SimTime) {
        if self.shard.is_some() {
            debug_assert!(self.drain_scratch.is_empty());
            while let Some(due) = self.arrivals.pop_due(now) {
                self.drain_scratch.push(due);
            }
            self.drain_scratch
                .sort_unstable_by_key(|(at, a)| std::cmp::Reverse((*at, a.key, a.seq)));
        } else {
            self.arrival_mark = self.arrivals.mark();
        }
    }

    /// The next arrival of the round [`begin_arrivals`](Self::begin_arrivals)
    /// opened at `now`, as the wheel hands it out: re-packing it here
    /// would copy the packet once more.
    #[inline]
    pub(crate) fn next_arrival(&mut self, now: SimTime) -> Option<(SimTime, Arrival)> {
        let due = if self.shard.is_some() {
            self.drain_scratch.pop()
        } else {
            self.arrivals.pop_due_before(now, self.arrival_mark)
        };
        self.tally.in_flight -= i64::from(due.is_some());
        due
    }

    /// Pop all arrivals due at or before `now`, appending them to `out`
    /// in dispatch order (for callers that drive a world by hand).
    pub fn drain_arrivals_into(&mut self, now: SimTime, out: &mut Vec<(SimTime, NodeId, Packet)>) {
        self.begin_arrivals(now);
        out.extend(
            std::iter::from_fn(|| self.next_arrival(now)).map(|(at, a)| (at, a.node, a.pkt)),
        );
    }

    /// Move this shard's pending cross-shard deliveries into `out`
    /// (called by the barrier loop after each window). No-op in legacy
    /// mode.
    pub fn drain_outbox_into(&mut self, out: &mut Vec<CrossPacket>) {
        if let Some(sh) = &mut self.shard {
            out.append(&mut sh.outbox);
        }
    }

    /// Accept cross-shard deliveries produced by other shards' worlds.
    /// Arrival instants are conservatively in the future (≥ the barrier
    /// horizon); the canonical drain order makes the wheel insertion
    /// order here irrelevant.
    ///
    /// # Panics
    /// Panics if called on a legacy (non-sharded) world or handed a
    /// packet owned by a different shard.
    pub fn inject_cross(&mut self, batch: impl IntoIterator<Item = CrossPacket>) {
        let sh = self.shard.as_ref().expect("inject_cross on legacy world");
        let shard = sh.shard;
        for m in batch {
            assert_eq!(m.dst_shard, shard, "cross packet routed to wrong shard");
            self.arrivals.insert(
                m.at,
                Arrival {
                    node: m.node,
                    pkt: m.pkt,
                    key: m.key,
                    seq: m.seq,
                },
            );
            self.tally.entered_wheel();
        }
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
        let l = &mut self.topology.links[link.0];
        l.ab.set_burst_loss(model);
        l.ba.set_burst_loss(model);
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
    /// Packets waiting out their processing delay.
    pending: EventQueue<Packet>,
}

impl Router {
    /// A router at `node` with the given per-packet processing delay.
    #[must_use]
    pub fn new(node: NodeId, delay: cellbricks_sim::SimDuration) -> Self {
        Self {
            node,
            delay,
            pending: EventQueue::new(),
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
            self.pending.push(now + self.delay, pkt);
        }
    }

    fn poll_at(&self) -> Option<SimTime> {
        self.pending.peek_time()
    }

    fn poll(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        while let Some((_, pkt)) = self.pending.pop_due(now) {
            out.push(pkt);
        }
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

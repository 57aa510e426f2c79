//! The engine's telemetry contract: `Driver` and `NetWorld` count their
//! per-event metrics in plain integers and publish them when a window
//! ends, so the registry is *exact* at every `run_to` boundary (and at most one window stale in between). Every expected
//! value below is computed by hand from the traffic pattern.

use bytes::Bytes;
use cellbricks_net::{Driver, Endpoint, LinkConfig, NetWorld, NodeId, Packet, Topology};
use cellbricks_sim::{SimDuration, SimRng, SimTime};
use cellbricks_telemetry as telemetry;
use std::net::Ipv4Addr;

const IP_A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const IP_B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

const COUNTERS: [&str; 5] = [
    "net.world.packets_sent",
    "net.link.delivered",
    "net.link.delivered_bytes",
    "sim.scheduler.events.arrival",
    "sim.scheduler.events.poll",
];

fn counters() -> [u64; 5] {
    COUNTERS.map(|name| telemetry::counter(name).get())
}

/// `(value, max)` of `net.world.packets_in_flight`.
fn in_flight() -> (i64, i64) {
    let g = telemetry::gauge("net.world.packets_in_flight");
    (g.get(), g.max())
}

/// The registry is process-global and this file's tests run on parallel
/// threads: each takes the lock, then starts from a zeroed registry.
fn exclusive_registry() -> std::sync::MutexGuard<'static, ()> {
    static IN_USE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let guard = IN_USE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    telemetry::enable();
    telemetry::global().reset();
    guard
}

fn packet(src: Ipv4Addr, dst: Ipv4Addr) -> Packet {
    Packet::control(src, dst, Bytes::from_static(b"p"))
}

/// Sends `burst` packets to `dst` every `interval` from `next` on, up to
/// `limit` bursts; counts receptions.
struct Sender {
    node: NodeId,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    next: SimTime,
    interval: SimDuration,
    burst: u32,
    limit: u32,
    received: u64,
}

impl Sender {
    fn new(node: NodeId, src: Ipv4Addr, dst: Ipv4Addr, burst: u32, limit: u32) -> Self {
        Self {
            node,
            src,
            dst,
            next: SimTime::from_millis(10),
            interval: SimDuration::from_millis(10),
            burst,
            limit,
            received: 0,
        }
    }
}

impl Endpoint for Sender {
    fn node(&self) -> NodeId {
        self.node
    }
    fn handle_packet(&mut self, _now: SimTime, _pkt: Packet, _out: &mut Vec<Packet>) {
        self.received += 1;
    }
    fn poll_at(&self) -> Option<SimTime> {
        (self.limit > 0).then_some(self.next)
    }
    fn poll(&mut self, _now: SimTime, out: &mut Vec<Packet>) {
        out.extend((0..self.burst).map(|_| packet(self.src, self.dst)));
        self.limit -= 1;
        self.next += self.interval;
    }
}

/// Nodes `a` and `b` joined by a lossless link.
fn two_node_world(latency: SimDuration) -> (NetWorld, NodeId, NodeId) {
    let mut t = Topology::new();
    let a = t.add_node("a");
    let b = t.add_node("b");
    let l = t.add_symmetric_link(a, b, LinkConfig::delay_only(latency));
    t.add_default_route(a, l);
    t.add_default_route(b, l);
    (NetWorld::new(t, SimRng::new(1)), a, b)
}

#[test]
fn six_metrics_are_exact_after_every_uneven_segment() {
    let _registry = exclusive_registry();
    let size = u64::from(packet(IP_A, IP_B).wire_size());
    let (mut world, a, b) = two_node_world(SimDuration::from_millis(1));
    // One packet at 10, 20, … 500 ms; each lands 1 ms later.
    let mut pa = Sender::new(a, IP_A, IP_B, 1, 50);
    let mut pb = Sender::new(b, IP_B, IP_A, 1, 0);
    let mut driver = Driver::new();
    for until_ms in [3u64, 17, 200, 201, 550, 1_000] {
        driver.run_to(
            &mut world,
            &mut [&mut pa, &mut pb],
            SimTime::from_millis(until_ms),
        );
        let sent = (until_ms / 10).min(50);
        let landed = ((until_ms - 1) / 10).min(50);
        assert_eq!(
            counters(),
            [sent, sent, sent * size, landed, sent],
            "counters after run_to({until_ms} ms)"
        );
        let peak = i64::from(until_ms >= 10);
        assert_eq!(
            in_flight(),
            ((sent - landed) as i64, peak),
            "packets_in_flight after run_to({until_ms} ms)"
        );
    }
    assert_eq!(pb.received, 50);
}

#[test]
fn burst_inside_one_window_leaves_value_zero_and_max_k() {
    let _registry = exclusive_registry();
    const K: u32 = 7;
    let (mut world, a, b) = two_node_world(SimDuration::from_millis(1));
    let mut pa = Sender::new(a, IP_A, IP_B, K, 1);
    let mut pb = Sender::new(b, IP_B, IP_A, 1, 0);
    Driver::new().run_to(&mut world, &mut [&mut pa, &mut pb], SimTime::from_secs(1));
    assert_eq!(pb.received, u64::from(K));
    // Sent and landed between two publishes: the value never left 0 at a
    // boundary, yet the high-water mark is the true peak.
    assert_eq!(in_flight(), (0, i64::from(K)));
}

#[test]
fn two_way_totals_are_exact() {
    let _registry = exclusive_registry();
    // 20 packets each way over a 5 ms link, both ends chatting.
    let (mut world, a, b) = two_node_world(SimDuration::from_millis(5));
    let mut pa = Sender::new(a, IP_A, IP_B, 1, 20);
    let mut pb = Sender::new(b, IP_B, IP_A, 1, 20);
    Driver::new().run_to(&mut world, &mut [&mut pa, &mut pb], SimTime::from_secs(1));
    let size = u64::from(packet(IP_A, IP_B).wire_size());
    assert_eq!(counters(), [40, 40, 40 * size, 40, 40]);
    assert_eq!(in_flight(), (0, 2));
    assert_eq!((pa.received, pb.received), (20, 20));
}

#[test]
fn world_without_a_driver_publishes_on_drop() {
    let _registry = exclusive_registry();
    let size = u64::from(packet(IP_A, IP_B).wire_size());
    let (mut world, a, _) = two_node_world(SimDuration::from_millis(1));
    for _ in 0..3 {
        world.send(SimTime::ZERO, a, packet(IP_A, IP_B));
    }
    let mut landed = Vec::new();
    world.drain_arrivals_into(SimTime::from_millis(1), &mut landed);
    assert_eq!(landed.len(), 3);
    world.send(SimTime::from_millis(1), a, packet(IP_A, IP_B));
    drop(world);
    assert_eq!(counters(), [4, 4, 4 * size, 0, 0]);
    assert_eq!(in_flight(), (1, 3));

    // Whether recording is on is sampled at publish time: a tally
    // published while the registry is off is discarded.
    let (mut world, a, _) = two_node_world(SimDuration::from_millis(1));
    world.send(SimTime::ZERO, a, packet(IP_A, IP_B));
    telemetry::disable();
    drop(world);
    telemetry::enable();
    assert_eq!(counters(), [4, 4, 4 * size, 0, 0]);
}

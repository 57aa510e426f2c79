//! Allocation guards for paths that must not touch the allocator.
//!
//! Linking `cellbricks-bench` installs its counting global allocator.
//! The counters are process-wide, so every check lives in this file's
//! single test: nothing else runs in the process while a phase is open.

use bytes::Bytes;
use cellbricks_bench::alloc_count::Phase;
use cellbricks_net::{
    Driver, Endpoint, EndpointAddr, LinkConfig, NetWorld, NodeId, Packet, PacketKind, Topology,
};
use cellbricks_sim::{SimDuration, SimRng, SimTime};
use cellbricks_transport::Host;
use std::cell::Cell;
use std::net::Ipv4Addr;

const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const SERVER_IP: Ipv4Addr = Ipv4Addr::new(1, 1, 1, 1);

/// Hand every staged packet of `a` to `b` and back until both are quiet
/// (a zero-delay wire), staging through the caller's buffer; `impair`
/// may drop or reorder each batch in place before it is delivered.
fn exchange(
    now: SimTime,
    a: &mut Host,
    b: &mut Host,
    wire: &mut Vec<Packet>,
    impair: &mut impl FnMut(&mut Vec<Packet>),
) {
    loop {
        a.drain_out(wire);
        impair(wire);
        let a_quiet = wire.is_empty();
        for p in wire.drain(..) {
            b.handle_packet(now, p);
        }
        b.drain_out(wire);
        impair(wire);
        if a_quiet && wire.is_empty() {
            break;
        }
        for p in wire.drain(..) {
            a.handle_packet(now, p);
        }
    }
}

/// `Host::flush` on a host with an MPTCP connection, once its buffers
/// have grown: sockets emit straight into the host's out-buffer. Run
/// over a clean wire, then over one that drops every 13th packet (data
/// and ACKs) and reverses each batch, so the receiver's out-of-order
/// queue and the sender's SACK scoreboard fill and drain every round:
/// once grown, they drain in place. (`BTreeMap` scoreboards took ≈ 1 000
/// allocations over the same 50 rounds.)
fn steady_state_mptcp_flush_allocates_nothing(lossy: bool) {
    let mut client = Host::new(NodeId(0), Some(CLIENT_IP));
    let mut server = Host::new(NodeId(1), Some(SERVER_IP));
    let mut wire = Vec::new();
    let mut sent = 0u32;
    let sack_bearing = Cell::new(0usize);
    let mut impair = |wire: &mut Vec<Packet>| {
        if lossy {
            wire.retain(|_| {
                sent += 1;
                !sent.is_multiple_of(13)
            });
            wire.reverse();
        }
        let with_sack = |p: &&Packet| matches!(&p.kind, PacketKind::Tcp(s) if s.sack_len() > 0);
        sack_bearing.set(sack_bearing.get() + wire.iter().filter(with_sack).count());
    };
    server.mp_listen(5001);
    let mut now = SimTime::ZERO;
    client.mp_connect(now, EndpointAddr::new(SERVER_IP, 5001));
    exchange(now, &mut client, &mut server, &mut wire, &mut |_| {});
    let conn = server.take_accepted_mp()[0];
    let mut round = |server: &mut Host, client: &mut Host, now: &mut SimTime| {
        *now += SimDuration::from_millis(10);
        server.mp_write(*now, conn, 100_000);
        exchange(*now, client, server, &mut wire, &mut impair);
    };
    for _ in 0..50 {
        round(&mut server, &mut client, &mut now);
    }
    let before = server.mp(conn).data_acked();
    sack_bearing.set(0);
    let phase = Phase::start();
    for _ in 0..50 {
        round(&mut server, &mut client, &mut now);
    }
    let (allocs, _) = phase.finish();
    // A clean wire delivers each round's write within the round.
    let acked = server.mp(conn).data_acked() - before;
    assert!(
        acked > 0 && (lossy || acked == 5_000_000),
        "{acked} bytes acked"
    );
    // A SACK block on the wire is a non-empty receive queue behind it.
    let sacks = sack_bearing.get();
    assert_eq!(sacks > 0, lossy, "{sacks} segments carried SACK blocks");
    assert_eq!(allocs, 0, "steady-state MPTCP flush reached the allocator");
}

/// 100 000 leaf nodes with one default route each: a node's name and its
/// only route live in the topology's shared storage, so adding the nodes
/// costs a logarithmic number of buffer growths and adding the routes
/// costs nothing at all.
fn leaf_nodes_and_their_routes_own_no_allocation() {
    const N: usize = 100_000;
    let mut t = Topology::new();
    let hub = t.add_node("hub");
    let nodes = Phase::start();
    let leaves: Vec<NodeId> = (0..N).map(|_| t.add_node("leaf")).collect();
    let (node_allocs, _) = nodes.finish();
    assert!(node_allocs < 150, "{node_allocs} allocations for {N} nodes");
    let cfg = LinkConfig::delay_only(SimDuration::from_micros(500));
    let links: Vec<_> = (leaves.iter())
        .map(|&leaf| t.add_symmetric_link(leaf, hub, cfg.clone()))
        .collect();
    let routes = Phase::start();
    for (&leaf, &link) in leaves.iter().zip(&links) {
        t.add_default_route(leaf, link);
    }
    let (route_allocs, _) = routes.finish();
    assert_eq!(route_allocs, 0, "a leaf's only route took an allocation");
    assert_eq!(t.route(leaves[N - 1], SERVER_IP), Some(links[N - 1]));
}

/// 100 000 leaf directions, each with at most one packet in flight:
/// leaf `i` sends at `i` µs over a 500 µs link, so about 500 are in
/// flight at once. The arrival FIFOs' storage follows that, not the
/// number of directions (a queue per direction would allocate for each
/// of them), and once it has grown, a pass allocates nothing.
fn arrival_storage_tracks_packets_in_flight_not_directions() {
    const N: usize = 100_000;
    let mut t = Topology::new();
    let hub = t.add_node("hub");
    let cfg = LinkConfig::delay_only(SimDuration::from_micros(500));
    let leaves: Vec<NodeId> = (0..N)
        .map(|_| {
            let leaf = t.add_node("leaf");
            let link = t.add_symmetric_link(leaf, hub, cfg.clone());
            t.add_default_route(leaf, link);
            leaf
        })
        .collect();
    let mut world = NetWorld::new(t, SimRng::new(1));
    let mut landed = Vec::new();
    let mut pass = |t0: SimTime| {
        let mut delivered = 0;
        let mut drain = |world: &mut NetWorld, now| {
            world.drain_arrivals_into(now, &mut landed);
            delivered += landed.len();
            landed.clear();
        };
        for (i, &leaf) in leaves.iter().enumerate() {
            let now = t0 + SimDuration::from_micros(i as u64);
            drain(&mut world, now);
            let pkt = Packet::control(CLIENT_IP, SERVER_IP, Bytes::from_static(b"x"));
            world.send(now, leaf, pkt);
        }
        drain(&mut world, t0 + SimDuration::from_secs(1));
        assert_eq!(delivered, N);
    };
    let cold = Phase::start();
    pass(SimTime::ZERO);
    let (cold_allocs, cold_bytes) = cold.finish();
    assert!(
        cold_allocs < 64 && cold_bytes < 1 << 20,
        "{cold_allocs} allocations, {cold_bytes} bytes for ≈ 500 in flight over {N} directions"
    );
    let warm = Phase::start();
    pass(SimTime::from_secs(2));
    let (warm_allocs, _) = warm.finish();
    assert_eq!(
        warm_allocs, 0,
        "the warm arrival path reached the allocator"
    );
}

/// An endpoint of the engine guard: from `wake` on it sends to
/// `SERVER_IP` every 100 µs (an idle endpoint's `wake` is never
/// reached; a sink has none), and it counts what it receives.
struct Probe {
    node: NodeId,
    wake: Option<SimTime>,
    received: u64,
}

fn probe(node: NodeId, wake: Option<SimTime>) -> Probe {
    Probe {
        node,
        wake,
        received: 0,
    }
}

impl Endpoint for Probe {
    fn node(&self) -> NodeId {
        self.node
    }
    fn handle_packet(&mut self, _now: SimTime, _pkt: Packet, _out: &mut Vec<Packet>) {
        self.received += 1;
    }
    fn poll_at(&self) -> Option<SimTime> {
        self.wake
    }
    fn poll(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        while let Some(at) = self.wake.filter(|&at| at <= now) {
            let tick = Bytes::from_static(b"t");
            out.push(Packet::control(CLIENT_IP, SERVER_IP, tick));
            self.wake = Some(at + SimDuration::from_micros(100));
        }
    }
}

/// The engine at steady state: one `Driver` over 1 000 idle endpoints,
/// each next due about an hour out at its own instant (as attached UEs'
/// report timers are), and a 100 µs ticker → sink pair over a 50 µs
/// link, run in 10 s windows. After one warm window, a window delivers
/// its 100 000 ticks through the arrival FIFOs, the timer wheel and the
/// output buffer with at most 11 allocations (a handful of buffer
/// growths, not one per event).
fn steady_state_engine_window_allocates_almost_nothing() {
    const N: u64 = 1_000;
    let mut t = Topology::new();
    let (tick, sink) = (t.add_node("tick"), t.add_node("sink"));
    let cfg = LinkConfig::delay_only(SimDuration::from_micros(50));
    let link = t.add_symmetric_link(tick, sink, cfg);
    t.add_default_route(tick, link);
    let mut idle: Vec<Probe> = (0..N)
        .map(|i| {
            let wake = SimTime::from_secs(3_600) + SimDuration::from_millis(i);
            probe(t.add_node("idle"), Some(wake))
        })
        .collect();
    let mut world = NetWorld::new(t, SimRng::new(1));
    let mut ticker = probe(tick, Some(SimTime::ZERO));
    let mut sink = probe(sink, None);
    let mut driver = Driver::new();
    for window in 1..=2 {
        let before = sink.received;
        let mut endpoints: Vec<&mut dyn Endpoint> = vec![&mut ticker, &mut sink];
        endpoints.extend(idle.iter_mut().map(|e| e as &mut dyn Endpoint));
        let phase = Phase::start();
        driver.run_to(&mut world, &mut endpoints, SimTime::from_secs(10 * window));
        let (allocs, _) = phase.finish();
        drop(endpoints);
        if window == 2 {
            assert_eq!(sink.received - before, 100_000, "ticks delivered");
            assert!(
                allocs <= 11,
                "{allocs} allocations in a warm 10 s engine window"
            );
        }
    }
}

/// The counter itself: an allocation counts with its bytes, a
/// deallocation does not count.
fn counter_counts_allocations_not_deallocations() {
    let phase = Phase::start();
    // Kept observable, or an optimized build elides the allocation.
    let v: Vec<u8> = std::hint::black_box(Vec::with_capacity(4096));
    let (count, bytes) = phase.finish();
    assert!(count >= 1, "allocation not counted");
    assert!(bytes >= 4096, "bytes not counted: {bytes}");
    let phase = Phase::start();
    drop(v);
    assert_eq!(phase.finish().0, 0, "dealloc must not count");
}

#[test]
fn hot_paths_stay_off_the_allocator() {
    counter_counts_allocations_not_deallocations();
    steady_state_mptcp_flush_allocates_nothing(false);
    steady_state_mptcp_flush_allocates_nothing(true);
    leaf_nodes_and_their_routes_own_no_allocation();
    arrival_storage_tracks_packets_in_flight_not_directions();
    steady_state_engine_window_allocates_almost_nothing();
}

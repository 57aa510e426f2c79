//! Allocation guards for two paths that must not touch the allocator.
//!
//! Linking `cellbricks-bench` installs its counting global allocator.
//! The counters are process-wide, so both checks live in this file's
//! single test: nothing else runs in the process while a phase is open.

use cellbricks_bench::alloc_count::Phase;
use cellbricks_net::{EndpointAddr, LinkConfig, NodeId, Packet, Topology};
use cellbricks_sim::{SimDuration, SimTime};
use cellbricks_transport::Host;
use std::net::Ipv4Addr;

const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const SERVER_IP: Ipv4Addr = Ipv4Addr::new(1, 1, 1, 1);

/// Hand every staged packet of `a` to `b` and back until both are quiet
/// (a zero-delay, lossless wire), staging through the caller's buffer.
fn exchange(now: SimTime, a: &mut Host, b: &mut Host, wire: &mut Vec<Packet>) {
    loop {
        a.drain_out(wire);
        let a_quiet = wire.is_empty();
        for p in wire.drain(..) {
            b.handle_packet(now, p);
        }
        b.drain_out(wire);
        if a_quiet && wire.is_empty() {
            break;
        }
        for p in wire.drain(..) {
            a.handle_packet(now, p);
        }
    }
}

/// `Host::flush` on a host with an MPTCP connection, once its buffers
/// have grown: sockets emit straight into the host's out-buffer.
fn steady_state_mptcp_flush_allocates_nothing() {
    let mut client = Host::new(NodeId(0), Some(CLIENT_IP));
    let mut server = Host::new(NodeId(1), Some(SERVER_IP));
    let mut wire = Vec::new();
    server.mp_listen(5001);
    let mut now = SimTime::ZERO;
    client.mp_connect(now, EndpointAddr::new(SERVER_IP, 5001));
    exchange(now, &mut client, &mut server, &mut wire);
    let conn = server.take_accepted_mp()[0];
    let mut round = |server: &mut Host, client: &mut Host, now: &mut SimTime| {
        *now += SimDuration::from_millis(10);
        server.mp_write(*now, conn, 100_000);
        exchange(*now, client, server, &mut wire);
    };
    for _ in 0..50 {
        round(&mut server, &mut client, &mut now);
    }
    let before = server.mp(conn).data_acked();
    let phase = Phase::start();
    for _ in 0..50 {
        round(&mut server, &mut client, &mut now);
    }
    let (allocs, _) = phase.finish();
    assert_eq!(server.mp(conn).data_acked() - before, 5_000_000);
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

#[test]
fn hot_paths_stay_off_the_allocator() {
    steady_state_mptcp_flush_allocates_nothing();
    leaf_nodes_and_their_routes_own_no_allocation();
}

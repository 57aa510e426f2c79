//! A smoltcp-style simulated host: one interface (whose address can be
//! invalidated and reassigned — the CellBricks detach/attach cycle),
//! socket demux, TCP/MPTCP/UDP sockets and listeners.

use crate::mptcp::{MpConfig, MpConn};
use crate::tcp::{Tcp, TcpConfig};
use bytes::Bytes;
use cellbricks_net::{Endpoint, EndpointAddr, MpSignal, NodeId, Packet, PacketKind, TcpSegment};
use cellbricks_sim::SimTime;
use std::collections::VecDeque;
use std::net::Ipv4Addr;

/// Handle to a plain TCP socket on a [`Host`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct SockId(usize);

/// Handle to an MPTCP connection on a [`Host`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct MpId(usize);

/// Handle to a UDP socket on a [`Host`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct UdpId(usize);

struct UdpSock {
    port: u16,
    rx: VecDeque<(SimTime, EndpointAddr, Bytes, u32)>,
}

/// A simulated host attached to a topology node.
///
/// The host is passive: the owner (an application endpoint) calls
/// [`handle_packet`](Host::handle_packet) for arrivals, [`poll`](Host::poll)
/// for timers, and [`drain_out`](Host::drain_out) to collect outgoing
/// packets. Packets whose source address no longer matches the interface
/// are dropped at transmission, exactly like a kernel whose address was
/// deconfigured.
pub struct Host {
    node: NodeId,
    addr: Option<Ipv4Addr>,
    tcp_cfg: TcpConfig,
    mp_cfg: MpConfig,
    tcps: Vec<Option<Tcp>>,
    mps: Vec<Option<MpConn>>,
    udps: Vec<UdpSock>,
    tcp_listen: Vec<u16>,
    mp_listen: Vec<u16>,
    accepted_tcp: Vec<SockId>,
    accepted_mp: Vec<MpId>,
    out: Vec<Packet>,
    next_port: u16,
    next_token: u64,
    /// Packets dropped because their source address was stale.
    pub stale_src_drops: u64,
}

impl Host {
    /// Create a host on `node`, optionally with an initial address.
    #[must_use]
    pub fn new(node: NodeId, addr: Option<Ipv4Addr>) -> Self {
        Self::with_configs(node, addr, TcpConfig::default(), MpConfig::default())
    }

    /// Create a host with explicit transport configurations.
    #[must_use]
    pub fn with_configs(
        node: NodeId,
        addr: Option<Ipv4Addr>,
        tcp_cfg: TcpConfig,
        mp_cfg: MpConfig,
    ) -> Self {
        Self {
            node,
            addr,
            tcp_cfg,
            mp_cfg,
            tcps: Vec::new(),
            mps: Vec::new(),
            udps: Vec::new(),
            tcp_listen: Vec::new(),
            mp_listen: Vec::new(),
            accepted_tcp: Vec::new(),
            accepted_mp: Vec::new(),
            out: Vec::new(),
            next_port: 49_152,
            next_token: (node.0 as u64) << 32,
            stale_src_drops: 0,
        }
    }

    /// The topology node this host sits on.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The current interface address.
    #[must_use]
    pub fn addr(&self) -> Option<Ipv4Addr> {
        self.addr
    }

    /// Invalidate the interface address (bTelco detach): MPTCP
    /// connections start their address workers; plain TCP sockets stall.
    pub fn invalidate_addr(&mut self, now: SimTime) {
        self.addr = None;
        for mp in self.mps.iter_mut().flatten() {
            mp.on_addr_invalidated(now);
        }
        self.flush(now);
    }

    /// Assign a (new) interface address (bTelco attach complete).
    pub fn assign_addr(&mut self, now: SimTime, addr: Ipv4Addr) {
        self.addr = Some(addr);
        // Plain-TCP sockets bound to this address survive a re-attach
        // that hands back the same IP (a bTelco crash+restart resets its
        // pool, so this is common) — but the radio path they learned on
        // is gone. Reset congestion control so no CUBIC epoch/w_max or
        // BBR estimate from the old attachment leaks onto the new one.
        // MPTCP subflows are rebuilt from scratch on re-attach and start
        // with fresh CC state by construction.
        for tcp in self.tcps.iter_mut().flatten() {
            if tcp.local.ip == addr && tcp.is_established() {
                tcp.reset_cc();
            }
        }
        for mp in self.mps.iter_mut().flatten() {
            mp.on_addr_assigned(now, addr);
        }
        self.flush(now);
    }

    fn alloc_port(&mut self) -> u16 {
        let p = self.next_port;
        self.next_port = if self.next_port == u16::MAX {
            49_152
        } else {
            self.next_port + 1
        };
        p
    }

    // ----- TCP -----

    /// Open a plain TCP connection to `remote`.
    ///
    /// # Panics
    /// Panics if the host has no address.
    pub fn tcp_connect(&mut self, now: SimTime, remote: EndpointAddr) -> SockId {
        let local = EndpointAddr::new(self.addr.expect("host has no address"), self.alloc_port());
        let tcp = Tcp::connect(self.tcp_cfg.clone(), local, remote, now, None);
        self.tcps.push(Some(tcp));
        let id = SockId(self.tcps.len() - 1);
        self.flush(now);
        id
    }

    /// Listen for plain TCP connections on `port`.
    pub fn tcp_listen(&mut self, port: u16) {
        self.tcp_listen.push(port);
    }

    /// Connections accepted since the last call.
    pub fn take_accepted_tcp(&mut self) -> Vec<SockId> {
        std::mem::take(&mut self.accepted_tcp)
    }

    /// Access a TCP socket.
    ///
    /// # Panics
    /// Panics if the socket was closed and removed.
    #[must_use]
    pub fn tcp(&self, id: SockId) -> &Tcp {
        self.tcps[id.0].as_ref().expect("socket gone")
    }

    /// Mutable access to a TCP socket (call [`Host::flush`] afterwards or
    /// use the convenience mutators below).
    pub fn tcp_mut(&mut self, id: SockId) -> &mut Tcp {
        self.tcps[id.0].as_mut().expect("socket gone")
    }

    /// Write app data and flush.
    pub fn tcp_write(&mut self, now: SimTime, id: SockId, bytes: u64) {
        self.tcp_mut(id).write(bytes);
        self.flush(now);
    }

    /// Switch to bulk mode and flush.
    pub fn tcp_set_bulk(&mut self, now: SimTime, id: SockId) {
        self.tcp_mut(id).set_bulk();
        self.flush(now);
    }

    // ----- MPTCP -----

    /// Open an MPTCP connection to `remote`.
    ///
    /// # Panics
    /// Panics if the host has no address.
    pub fn mp_connect(&mut self, now: SimTime, remote: EndpointAddr) -> MpId {
        let local = EndpointAddr::new(self.addr.expect("host has no address"), self.alloc_port());
        let token = self.next_token;
        self.next_token += 1;
        let conn = MpConn::connect(self.mp_cfg.clone(), token, local, remote, now);
        self.mps.push(Some(conn));
        let id = MpId(self.mps.len() - 1);
        self.flush(now);
        id
    }

    /// Listen for MPTCP connections on `port`.
    pub fn mp_listen(&mut self, port: u16) {
        self.mp_listen.push(port);
    }

    /// MPTCP connections accepted since the last call.
    pub fn take_accepted_mp(&mut self) -> Vec<MpId> {
        std::mem::take(&mut self.accepted_mp)
    }

    /// Access an MPTCP connection.
    ///
    /// # Panics
    /// Panics if the connection was removed.
    #[must_use]
    pub fn mp(&self, id: MpId) -> &MpConn {
        self.mps[id.0].as_ref().expect("connection gone")
    }

    /// Mutable access to an MPTCP connection.
    pub fn mp_mut(&mut self, id: MpId) -> &mut MpConn {
        self.mps[id.0].as_mut().expect("connection gone")
    }

    /// Write app data and flush.
    pub fn mp_write(&mut self, now: SimTime, id: MpId, bytes: u64) {
        self.mp_mut(id).write(bytes);
        self.flush(now);
    }

    /// Switch to bulk mode and flush.
    pub fn mp_set_bulk(&mut self, now: SimTime, id: MpId) {
        self.mp_mut(id).set_bulk();
        self.flush(now);
    }

    // ----- UDP -----

    /// Bind a UDP socket to `port`.
    pub fn udp_bind(&mut self, port: u16) -> UdpId {
        self.udps.push(UdpSock {
            port,
            rx: VecDeque::new(),
        });
        UdpId(self.udps.len() - 1)
    }

    /// Send a UDP datagram with real payload bytes.
    pub fn udp_send(&mut self, id: UdpId, to: EndpointAddr, payload: Bytes) {
        let Some(addr) = self.addr else {
            self.stale_src_drops += 1;
            return;
        };
        let from = EndpointAddr::new(addr, self.udps[id.0].port);
        self.out.push(Packet::udp(from, to, payload));
    }

    /// Send a UDP datagram with real payload bytes plus content-free
    /// padding (e.g. a QUIC header followed by stream bytes).
    pub fn udp_send_padded(&mut self, id: UdpId, to: EndpointAddr, payload: Bytes, padding: u32) {
        let Some(addr) = self.addr else {
            self.stale_src_drops += 1;
            return;
        };
        let from = EndpointAddr::new(addr, self.udps[id.0].port);
        let mut pkt = Packet::udp(from, to, payload);
        if let PacketKind::Udp { padding: p, .. } = &mut pkt.kind {
            *p = padding;
        }
        self.out.push(pkt);
    }

    /// Drain received datagrams: `(arrival, peer, payload, padding)`.
    pub fn udp_recv(&mut self, id: UdpId) -> Vec<(SimTime, EndpointAddr, Bytes, u32)> {
        self.udps[id.0].rx.drain(..).collect()
    }

    // ----- Packet I/O -----

    /// Feed an arriving packet into the stack.
    pub fn handle_packet(&mut self, now: SimTime, pkt: Packet) {
        // Address check: packets to a stale/foreign address die here,
        // exactly like the paper's emulation (old-IP subflow traffic is
        // discarded once the container's address moved on).
        if self.addr != Some(pkt.dst) {
            return;
        }
        match &pkt.kind {
            PacketKind::Tcp(seg) => self.dispatch_tcp(now, pkt.src, seg),
            PacketKind::Udp {
                src_port,
                dst_port,
                payload,
                padding,
            } => {
                if let Some(sock) = self.udps.iter_mut().find(|s| s.port == *dst_port) {
                    sock.rx.push_back((
                        now,
                        EndpointAddr::new(pkt.src, *src_port),
                        payload.clone(),
                        *padding,
                    ));
                }
            }
            PacketKind::Control(_) => {} // Not a host-plane payload.
        }
        self.flush(now);
    }

    fn dispatch_tcp(&mut self, now: SimTime, src: Ipv4Addr, seg: &TcpSegment) {
        // 1. Existing MPTCP subflows.
        for mp in self.mps.iter_mut().flatten() {
            if let Some(idx) = mp.match_subflow(src, seg) {
                mp.on_segment(now, idx, seg);
                return;
            }
        }
        // 2. Existing plain TCP sockets.
        for tcp in self.tcps.iter_mut().flatten() {
            if tcp.local.port == seg.dst_port
                && tcp.remote.ip == src
                && tcp.remote.port == seg.src_port
            {
                tcp.on_segment(now, seg);
                return;
            }
        }
        // 3. New subflow joining an existing MPTCP connection.
        if seg.flags.syn() && !seg.flags.ack() {
            if let Some(MpSignal::Join { token }) = seg.mp() {
                let local = EndpointAddr::new(self.addr.expect("checked above"), seg.dst_port);
                let remote = EndpointAddr::new(src, seg.src_port);
                if let Some(mp) = self.mps.iter_mut().flatten().find(|m| m.token == token) {
                    mp.accept_join(local, remote, seg, now);
                }
                return;
            }
            // 4. New MPTCP connection on a listener.
            if let Some(MpSignal::Capable { token }) = seg.mp() {
                if self.mp_listen.contains(&seg.dst_port) {
                    let local = EndpointAddr::new(self.addr.expect("checked above"), seg.dst_port);
                    let remote = EndpointAddr::new(src, seg.src_port);
                    let conn = MpConn::accept(self.mp_cfg.clone(), token, local, remote, seg, now);
                    self.mps.push(Some(conn));
                    self.accepted_mp.push(MpId(self.mps.len() - 1));
                }
                return;
            }
            // 5. New plain TCP connection on a listener.
            if self.tcp_listen.contains(&seg.dst_port) {
                let local = EndpointAddr::new(self.addr.expect("checked above"), seg.dst_port);
                let remote = EndpointAddr::new(src, seg.src_port);
                let tcp = Tcp::accept(self.tcp_cfg.clone(), local, remote, seg, now);
                self.tcps.push(Some(tcp));
                self.accepted_tcp.push(SockId(self.tcps.len() - 1));
            }
        }
    }

    /// Run all sockets' emitters, enforcing source-address validity.
    pub fn flush(&mut self, now: SimTime) {
        if self.tcps.is_empty() && self.mps.is_empty() {
            return;
        }
        // Sockets emit straight into `out`; what this call appended is
        // then compacted in place, dropping stale-source packets.
        let first = self.out.len();
        for tcp in self.tcps.iter_mut().flatten() {
            tcp.poll(now, &mut self.out);
        }
        for mp in self.mps.iter_mut().flatten() {
            mp.poll(now, &mut self.out);
        }
        let mut kept = first;
        for i in first..self.out.len() {
            if self.addr == Some(self.out[i].src) {
                if kept != i {
                    self.out.swap(kept, i); // Only once something was dropped.
                }
                kept += 1;
            } else {
                self.stale_src_drops += 1;
            }
        }
        self.out.truncate(kept);
    }

    /// Run timers due at `now`.
    pub fn poll(&mut self, now: SimTime) {
        self.flush(now);
    }

    /// Earliest timer deadline across all sockets. If packets are staged
    /// for transmission, reports "as soon as possible" (`SimTime::ZERO`)
    /// so the driver drains them on its next iteration.
    #[must_use]
    pub fn poll_at(&self) -> Option<SimTime> {
        if !self.out.is_empty() {
            return Some(SimTime::ZERO);
        }
        // Socket-free hosts (every idle mega-scale UE) answer without
        // touching the socket tables at all.
        if self.tcps.is_empty() && self.mps.is_empty() {
            return None;
        }
        let tcp_min = self.tcps.iter().flatten().filter_map(|t| t.poll_at()).min();
        let mp_min = self.mps.iter().flatten().filter_map(|m| m.poll_at()).min();
        match (tcp_min, mp_min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, None) => a,
            (None, b) => b,
        }
    }

    /// Move staged outgoing packets into `out`.
    pub fn drain_out(&mut self, out: &mut Vec<Packet>) {
        out.append(&mut self.out);
    }
}

/// A host alone on its node (a server, say) is an engine endpoint.
impl Endpoint for Host {
    fn node(&self) -> NodeId {
        self.node
    }
    fn handle_packet(&mut self, now: SimTime, pkt: Packet, out: &mut Vec<Packet>) {
        Host::handle_packet(self, now, pkt);
        self.drain_out(out);
    }
    fn poll_at(&self) -> Option<SimTime> {
        Host::poll_at(self)
    }
    fn poll(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        Host::poll(self, now);
        self.drain_out(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellbricks_net::{Driver, LinkConfig, NetWorld, Topology};
    use cellbricks_sim::{SimDuration, SimRng};

    const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const SERVER_IP: Ipv4Addr = Ipv4Addr::new(1, 1, 1, 1);

    /// Minimal endpoint wrapper for tests.
    struct HostEp {
        host: Host,
    }

    impl Endpoint for HostEp {
        fn node(&self) -> NodeId {
            self.host.node()
        }
        fn handle_packet(&mut self, now: SimTime, pkt: Packet, out: &mut Vec<Packet>) {
            self.host.handle_packet(now, pkt);
            self.host.drain_out(out);
        }
        fn poll_at(&self) -> Option<SimTime> {
            self.host.poll_at()
        }
        fn poll(&mut self, now: SimTime, out: &mut Vec<Packet>) {
            self.host.poll(now);
            self.host.drain_out(out);
        }
    }

    fn two_host_world() -> (NetWorld, HostEp, HostEp) {
        let mut t = Topology::new();
        let a = t.add_node("client");
        let b = t.add_node("server");
        let l = t.add_symmetric_link(a, b, LinkConfig::delay_only(SimDuration::from_millis(10)));
        t.add_default_route(a, l);
        t.add_default_route(b, l);
        let world = NetWorld::new(t, SimRng::new(7));
        let client = HostEp {
            host: Host::new(a, Some(CLIENT_IP)),
        };
        let server = HostEp {
            host: Host::new(b, Some(SERVER_IP)),
        };
        (world, client, server)
    }

    #[test]
    fn tcp_end_to_end_over_netsim() {
        let (mut world, mut client, mut server) = two_host_world();
        server.host.tcp_listen(80);
        let sock = client
            .host
            .tcp_connect(SimTime::ZERO, EndpointAddr::new(SERVER_IP, 80));
        client.host.tcp_write(SimTime::ZERO, sock, 50_000);
        Driver::new().run_to(
            &mut world,
            &mut [&mut client, &mut server],
            SimTime::from_secs(10),
        );
        let accepted = server.host.take_accepted_tcp();
        assert_eq!(accepted.len(), 1);
        assert_eq!(server.host.tcp_mut(accepted[0]).take_delivered(), 50_000);
        assert!(client.host.tcp(sock).is_established());
    }

    #[test]
    fn mptcp_end_to_end_over_netsim() {
        let (mut world, mut client, mut server) = two_host_world();
        server.host.mp_listen(5001);
        let conn = client
            .host
            .mp_connect(SimTime::ZERO, EndpointAddr::new(SERVER_IP, 5001));
        let mut driver = Driver::new();
        driver.run_to(
            &mut world,
            &mut [&mut client, &mut server],
            SimTime::from_millis(200),
        );
        let accepted = server.host.take_accepted_mp();
        assert_eq!(accepted.len(), 1);
        // Server pushes 200 kB downlink.
        server
            .host
            .mp_write(SimTime::from_millis(200), accepted[0], 200_000);
        driver.run_to(
            &mut world,
            &mut [&mut client, &mut server],
            SimTime::from_secs(10),
        );
        assert_eq!(client.host.mp_mut(conn).take_delivered(), 200_000);
    }

    #[test]
    fn udp_round_trip() {
        let (mut world, mut client, mut server) = two_host_world();
        let cs = client.host.udp_bind(9000);
        let ss = server.host.udp_bind(7);
        client.host.udp_send(
            cs,
            EndpointAddr::new(SERVER_IP, 7),
            Bytes::from_static(b"ping"),
        );
        Driver::new().run_to(
            &mut world,
            &mut [&mut client, &mut server],
            SimTime::from_secs(1),
        );
        let got = server.host.udp_recv(ss);
        assert_eq!(got.len(), 1);
        assert_eq!(&got[0].2[..], b"ping");
        assert_eq!(got[0].1, EndpointAddr::new(CLIENT_IP, 9000));
        assert_eq!(got[0].0, SimTime::from_millis(10));
    }

    #[test]
    fn stale_source_packets_dropped() {
        let (_world, mut client, _server) = two_host_world();
        let sock = client
            .host
            .tcp_connect(SimTime::ZERO, EndpointAddr::new(SERVER_IP, 80));
        // Change the address; the SYN retransmission must be suppressed.
        client
            .host
            .assign_addr(SimTime::ZERO, Ipv4Addr::new(10, 9, 9, 9));
        let mut out = Vec::new();
        client.host.drain_out(&mut out);
        out.clear();
        // Fire the SYN RTO.
        let t = client.host.poll_at().unwrap();
        client.host.poll(t);
        client.host.drain_out(&mut out);
        assert!(out.is_empty(), "stale-source SYN must not escape");
        assert!(client.host.stale_src_drops > 0);
        let _ = sock;
    }

    #[test]
    fn packets_to_foreign_address_ignored() {
        let (_world, mut client, _server) = two_host_world();
        let mut seg = TcpSegment::new(1, 2, cellbricks_net::TcpFlags::SYN);
        seg.window = 1000;
        client.host.tcp_listen(2);
        // Addressed to an IP this host doesn't own.
        client.host.handle_packet(
            SimTime::ZERO,
            Packet::tcp(SERVER_IP, Ipv4Addr::new(9, 9, 9, 9), seg),
        );
        assert!(client.host.take_accepted_tcp().is_empty());
    }

    #[test]
    fn mptcp_survives_ip_change_over_netsim() {
        let (mut world, mut client, mut server) = two_host_world();
        // Route for the client's post-handover prefix.
        server.host.mp_listen(5001);
        let conn = client
            .host
            .mp_connect(SimTime::ZERO, EndpointAddr::new(SERVER_IP, 5001));
        let mut driver = Driver::new();
        driver.run_to(
            &mut world,
            &mut [&mut client, &mut server],
            SimTime::from_millis(200),
        );
        let server_conn = server.host.take_accepted_mp()[0];
        server
            .host
            .mp_set_bulk(SimTime::from_millis(200), server_conn);
        driver.run_to(
            &mut world,
            &mut [&mut client, &mut server],
            SimTime::from_secs(2),
        );
        let before = client.host.mp(conn).data_received();
        assert!(before > 0);

        // Handover: invalidate, wait 32 ms, assign new address.
        let t0 = SimTime::from_secs(2);
        client.host.invalidate_addr(t0);
        driver.run_to(
            &mut world,
            &mut [&mut client, &mut server],
            t0 + SimDuration::from_millis(32),
        );
        client.host.assign_addr(
            t0 + SimDuration::from_millis(32),
            Ipv4Addr::new(10, 0, 0, 2),
        );
        driver.run_to(
            &mut world,
            &mut [&mut client, &mut server],
            SimTime::from_secs(6),
        );
        let after = client.host.mp(conn).data_received();
        assert!(
            after > before + 500_000,
            "resumed after IP change: {before} -> {after}"
        );
    }

    /// Hand every staged packet of `a` to `b` and back until both are
    /// quiet: a zero-delay, lossless wire between two hosts.
    fn exchange(now: SimTime, a: &mut Host, b: &mut Host) {
        let mut wire = Vec::new();
        loop {
            a.drain_out(&mut wire);
            let a_quiet = wire.is_empty();
            for p in wire.drain(..) {
                b.handle_packet(now, p);
            }
            b.drain_out(&mut wire);
            if a_quiet && wire.is_empty() {
                break;
            }
            for p in wire.drain(..) {
                a.handle_packet(now, p);
            }
        }
    }

    /// A server host whose every socket has something to send at
    /// [`BUSY_AT`]: one plain TCP socket with 3 000 fresh bytes, and an
    /// MPTCP connection with two live subflows — the first retransmits
    /// (its 5 000 bytes were lost and its RTO is due), the second, joined
    /// from a new client port, carries 4 000 fresh bytes.
    fn busy_server() -> Host {
        let t0 = SimTime::ZERO;
        let rejoin_at_once = MpConfig {
            address_worker_wait: SimDuration::ZERO,
            ..MpConfig::default()
        };
        let mut client = Host::with_configs(
            NodeId(0),
            Some(CLIENT_IP),
            TcpConfig::default(),
            rejoin_at_once,
        );
        let mut server = Host::new(NodeId(1), Some(SERVER_IP));
        server.tcp_listen(80);
        server.mp_listen(5001);
        client.tcp_connect(t0, EndpointAddr::new(SERVER_IP, 80));
        client.mp_connect(t0, EndpointAddr::new(SERVER_IP, 5001));
        exchange(t0, &mut client, &mut server);
        let sock = server.take_accepted_tcp()[0];
        let conn = server.take_accepted_mp()[0];
        server.mp_write(t0, conn, 5_000);
        server.drain_out(&mut Vec::new()); // Lost on the radio.

        // The client re-attaches and is handed the same address back: its
        // old subflow dies without a REMOVE_ADDR, so the server keeps both.
        let t1 = SimTime::from_millis(500);
        client.invalidate_addr(t1);
        client.assign_addr(t1, CLIENT_IP);
        exchange(t1, &mut client, &mut server);
        assert_eq!(server.mp(conn).alive_subflows(), 2);
        assert_eq!(server.mp(conn).data_acked(), 5_000);

        server.tcp_mut(sock).write(3_000);
        server.mp_mut(conn).write(4_000);
        server
    }

    /// The first subflow's retransmission timer: 1 s after its data left.
    const BUSY_AT: SimTime = SimTime::from_secs(1);

    fn tcp_tuples(out: &[Packet]) -> Vec<(Ipv4Addr, Ipv4Addr, u16, u16, u64)> {
        out.iter()
            .map(|p| match &p.kind {
                PacketKind::Tcp(seg) => (p.src, p.dst, seg.src_port, seg.dst_port, seg.seq),
                other => panic!("not TCP: {other:?}"),
            })
            .collect()
    }

    #[test]
    fn flush_emission_order_is_pinned() {
        let mut server = busy_server();
        server.flush(BUSY_AT);
        let mut out = Vec::new();
        server.drain_out(&mut out);
        // Plain sockets in table order, then MPTCP connections, each
        // socket's segments in `poll` order (literal taken at 539a931,
        // before `flush` emitted in place).
        let to = |src_port, dst_port, seq| (SERVER_IP, CLIENT_IP, src_port, dst_port, seq);
        assert_eq!(
            tcp_tuples(&out),
            vec![
                to(80, 49152, 1),
                to(80, 49152, 1461),
                to(80, 49152, 2921),
                to(5001, 49153, 1),
                to(5001, 49154, 5001),
                to(5001, 49154, 6461),
                to(5001, 49154, 7921),
            ]
        );
        assert_eq!(server.stale_src_drops, 0);
    }

    #[test]
    fn stale_subflow_segments_counted_one_by_one() {
        // The address moves under live sockets: each of the seven
        // segments pinned above is counted, and none escapes.
        let mut server = busy_server();
        server.assign_addr(SimTime::from_millis(900), Ipv4Addr::new(1, 1, 1, 2));
        server.flush(BUSY_AT);
        assert_eq!(server.stale_src_drops, 7);
        let mut out = Vec::new();
        server.drain_out(&mut out);
        assert!(out.is_empty(), "stale-source segments escaped: {out:?}");

        // `invalidate_addr` first: MPTCP aborts its old-address subflows
        // (they fall silent), the plain socket keeps trying and is
        // counted, and only the new address's join SYN gets out — behind
        // a datagram staged earlier, which compaction must not touch.
        let mut client = Host::new(NodeId(0), Some(CLIENT_IP));
        let server_ep = EndpointAddr::new(SERVER_IP, 80);
        client.tcp_connect(SimTime::ZERO, server_ep);
        client.mp_connect(SimTime::ZERO, server_ep);
        client.drain_out(&mut out);
        out.clear();
        let new_ip = Ipv4Addr::new(10, 0, 0, 2);
        client.invalidate_addr(SimTime::ZERO);
        client.assign_addr(SimTime::ZERO, new_ip);
        assert_eq!(client.stale_src_drops, 0, "nothing was due yet");
        let udp = client.udp_bind(9000);
        let at = SimTime::from_secs(1); // The SYN timers; the join worker was due at 0.5 s.
        client.udp_send(udp, server_ep, Bytes::from_static(b"media"));
        client.poll(at);
        assert_eq!(client.stale_src_drops, 1, "the plain socket's SYN retry");
        client.drain_out(&mut out);
        assert_eq!(out.len(), 2);
        assert!(matches!(out[0].kind, PacketKind::Udp { .. }));
        assert_eq!(
            tcp_tuples(&out[1..]),
            vec![(new_ip, SERVER_IP, 49154, 80, 0)]
        );
    }
}

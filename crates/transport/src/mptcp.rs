//! MPTCP: multipath TCP connections over [`Tcp`] subflows.
//!
//! Implements the subset of RFC 6824 the CellBricks mobility story needs
//! (paper §4.2 and Fig. 4): a connection is identified by a token;
//! subflows attach with `MP_JOIN`; payload carries DSS data-sequence
//! mappings; `REMOVE_ADDR` withdraws a dead address. Mobility is
//! break-before-make: on address invalidation the stack waits out the
//! mainline kernel's `address_worker` delay (hard-coded to 500 ms in
//! Linux — [`MpConfig::address_worker_wait`] here, the knob Fig. 9
//! sweeps), then opens a new subflow from the new address and re-injects
//! unacknowledged data on it.
//!
//! Simplification (documented in the crate root): at most one subflow is
//! *active* for sending at a time, and each subflow carries a contiguous
//! data-level byte range starting at its activation snapshot. This models
//! CellBricks' sequential bTelco switching exactly, but not concurrent
//! multipath striping.

use crate::ranges::RangeSet;
use crate::tcp::{Tcp, TcpConfig};
use cellbricks_net::{EndpointAddr, MpSignal, Packet, TcpSegment};
use cellbricks_sim::{SimDuration, SimTime};
use cellbricks_telemetry as telemetry;
use std::net::Ipv4Addr;

/// MPTCP tuning parameters.
#[derive(Clone, Debug)]
pub struct MpConfig {
    /// Subflow TCP parameters.
    pub tcp: TcpConfig,
    /// Delay between an address event and corrective action — mainline
    /// Linux hard-codes 500 ms in `mptcp_fullmesh.c::address_worker`.
    pub address_worker_wait: SimDuration,
    /// Tear the connection down if no address appears for this long
    /// (paper: "a predefined timeout (default to 60s)").
    pub address_timeout: SimDuration,
}

impl Default for MpConfig {
    fn default() -> Self {
        Self {
            tcp: TcpConfig::default(),
            address_worker_wait: SimDuration::from_millis(500),
            address_timeout: SimDuration::from_secs(60),
        }
    }
}

/// One subflow of an MPTCP connection.
struct Subflow {
    tcp: Tcp,
    /// Still usable (not aborted / removed).
    alive: bool,
    /// Receives the sender's data stream (at most one at a time).
    active_sender: bool,
    /// Subflow-level in-order bytes already mapped into the data stream.
    rx_mapped: u64,
    /// Peer's data-level base for this subflow (from the first DSS).
    peer_data_base: Option<u64>,
}

/// An MPTCP connection endpoint.
pub struct MpConn {
    cfg: MpConfig,
    /// Connection token (identifies the connection to `MP_JOIN`s).
    pub token: u64,
    /// The stable remote endpoint (the server's address).
    pub remote: EndpointAddr,
    is_initiator: bool,
    subflows: Vec<Subflow>,

    // Data-level sender state.
    /// Total data bytes written by the app (None = unbounded bulk).
    data_written: Option<u64>,
    data_snd_una: u64,

    // Data-level receiver state.
    data_rcv_nxt: u64,
    data_ooo: RangeSet,
    data_delivered_unread: u64,

    // Client-side address management.
    local_addr: Option<Ipv4Addr>,
    /// When the address worker should take corrective action.
    worker_due: Option<SimTime>,
    /// When the address disappeared (for the 60 s teardown).
    addr_lost_at: Option<SimTime>,
    /// Address to withdraw via REMOVE_ADDR once the new subflow is up.
    remove_addr_pending: Option<Ipv4Addr>,
    next_local_port: u16,
    dead: bool,

    /// Count of subflows ever created (join attempts), for diagnostics.
    pub subflows_created: u32,
}

impl MpConn {
    /// Active open from `local`; emits `MP_CAPABLE` on the first subflow.
    #[must_use]
    pub fn connect(
        cfg: MpConfig,
        token: u64,
        local: EndpointAddr,
        remote: EndpointAddr,
        now: SimTime,
    ) -> MpConn {
        let tcp = Tcp::connect(
            cfg.tcp.clone(),
            local,
            remote,
            now,
            Some(MpSignal::Capable { token }),
        );
        let mut conn = MpConn::new(cfg, token, remote, true, Some(local.ip));
        conn.next_local_port = local.port + 1;
        conn.push_subflow(tcp);
        conn
    }

    /// Passive open: accept an `MP_CAPABLE` SYN.
    #[must_use]
    pub fn accept(
        cfg: MpConfig,
        token: u64,
        local: EndpointAddr,
        remote: EndpointAddr,
        syn: &TcpSegment,
        now: SimTime,
    ) -> MpConn {
        let tcp = Tcp::accept(cfg.tcp.clone(), local, remote, syn, now);
        let mut conn = MpConn::new(cfg, token, remote, false, Some(local.ip));
        conn.push_subflow(tcp);
        conn
    }

    fn new(
        cfg: MpConfig,
        token: u64,
        remote: EndpointAddr,
        is_initiator: bool,
        local_addr: Option<Ipv4Addr>,
    ) -> MpConn {
        MpConn {
            cfg,
            token,
            remote,
            is_initiator,
            subflows: Vec::new(),
            data_written: Some(0),
            data_snd_una: 0,
            data_rcv_nxt: 0,
            data_ooo: RangeSet::default(),
            data_delivered_unread: 0,
            local_addr,
            worker_due: None,
            addr_lost_at: None,
            remove_addr_pending: None,
            next_local_port: 50_000,
            dead: false,
            subflows_created: 0,
        }
    }

    fn push_subflow(&mut self, tcp: Tcp) -> usize {
        telemetry::counter("transport.mptcp.subflows_created").inc();
        self.subflows.push(Subflow {
            tcp,
            alive: true,
            active_sender: false,
            rx_mapped: 0,
            peer_data_base: None,
        });
        self.subflows_created += 1;
        self.subflows.len() - 1
    }

    /// Accept an `MP_JOIN` SYN for this connection (listener side).
    pub fn accept_join(
        &mut self,
        local: EndpointAddr,
        remote: EndpointAddr,
        syn: &TcpSegment,
        now: SimTime,
    ) {
        let tcp = Tcp::accept(self.cfg.tcp.clone(), local, remote, syn, now);
        self.push_subflow(tcp);
    }

    // ----- Application surface -----

    /// Queue `bytes` more application data.
    pub fn write(&mut self, bytes: u64) {
        if let Some(total) = &mut self.data_written {
            *total += bytes;
        }
        if let Some(i) = self.active_sender_index() {
            self.subflows[i].tcp.write(bytes);
        }
    }

    /// Unbounded data source (iperf-style).
    pub fn set_bulk(&mut self) {
        self.data_written = None;
        if let Some(i) = self.active_sender_index() {
            self.subflows[i].tcp.set_bulk();
        }
    }

    /// Take the count of newly delivered in-order data bytes.
    pub fn take_delivered(&mut self) -> u64 {
        std::mem::take(&mut self.data_delivered_unread)
    }

    /// Cumulative data-level bytes acknowledged by the peer.
    #[must_use]
    pub fn data_acked(&self) -> u64 {
        self.data_snd_una
    }

    /// Cumulative in-order data bytes received.
    #[must_use]
    pub fn data_received(&self) -> u64 {
        self.data_rcv_nxt
    }

    /// True once any subflow is established.
    #[must_use]
    pub fn is_established(&self) -> bool {
        self.subflows
            .iter()
            .any(|s| s.alive && s.tcp.is_established())
    }

    /// True once the connection is unrecoverable (address timeout).
    #[must_use]
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Number of currently alive subflows.
    #[must_use]
    pub fn alive_subflows(&self) -> usize {
        self.subflows.iter().filter(|s| s.alive).count()
    }

    fn active_sender_index(&self) -> Option<usize> {
        self.subflows
            .iter()
            .position(|s| s.alive && s.active_sender)
    }

    // ----- Address events (client side) -----

    /// The interface address was invalidated (detach from the old bTelco).
    pub fn on_addr_invalidated(&mut self, now: SimTime) {
        if self.dead {
            return;
        }
        telemetry::counter("transport.mptcp.addr_invalidated").inc();
        telemetry::trace_instant("mptcp.addr_invalidated", "mptcp", now.as_nanos());
        let old = self.local_addr.take();
        if let Some(old) = old {
            self.remove_addr_pending = Some(old);
        }
        self.addr_lost_at = Some(now);
        self.worker_due = Some(now + self.cfg.address_worker_wait);
        for sf in &mut self.subflows {
            if sf.alive {
                sf.alive = false;
                sf.tcp.abort();
            }
        }
    }

    /// A new interface address was assigned (attach to the new bTelco).
    pub fn on_addr_assigned(&mut self, now: SimTime, addr: Ipv4Addr) {
        if self.dead {
            return;
        }
        self.local_addr = Some(addr);
        self.addr_lost_at = None;
        // Same address re-assigned (e.g. re-attach after a bTelco
        // restart): withdrawing it via REMOVE_ADDR would make the peer
        // kill the very subflow the recovery join is about to establish.
        if self.remove_addr_pending == Some(addr) {
            self.remove_addr_pending = None;
        }
        if let Some(due) = self.worker_due {
            if now >= due {
                self.start_join(now);
            }
            // Else: the worker fires at `due` via poll().
        }
    }

    fn start_join(&mut self, now: SimTime) {
        self.worker_due = None;
        let Some(addr) = self.local_addr else { return };
        // A join after an address change is the "subflow switch" of the
        // paper's sequential bTelco handover (Fig. 8).
        telemetry::counter("transport.mptcp.subflow_switches").inc();
        telemetry::trace_instant("mptcp.subflow_switch", "mptcp", now.as_nanos());
        let port = self.next_local_port;
        self.next_local_port = self.next_local_port.wrapping_add(1).max(50_000);
        let tcp = Tcp::connect(
            self.cfg.tcp.clone(),
            EndpointAddr::new(addr, port),
            self.remote,
            now,
            Some(MpSignal::Join { token: self.token }),
        );
        self.push_subflow(tcp);
    }

    // ----- Segment input -----

    /// Find the subflow matching an incoming segment.
    #[must_use]
    pub fn match_subflow(&self, src: Ipv4Addr, seg: &TcpSegment) -> Option<usize> {
        self.subflows.iter().position(|s| {
            s.tcp.local.port == seg.dst_port
                && s.tcp.remote.ip == src
                && s.tcp.remote.port == seg.src_port
        })
    }

    /// Process a segment for subflow `idx`; follow with [`MpConn::poll`].
    pub fn on_segment(&mut self, now: SimTime, idx: usize, seg: &TcpSegment) {
        if self.dead {
            return;
        }
        // Learn the peer's data base for this subflow from the first DSS.
        if let (Some(data_seq), None) = (seg.data_seq(), self.subflows[idx].peer_data_base) {
            // Payload byte at subflow seq `seg.seq` is data byte `data_seq`;
            // subflow app bytes start at seq 1.
            self.subflows[idx].peer_data_base = Some(data_seq - (seg.seq - 1));
        }

        let was_established = self.subflows[idx].tcp.is_established();
        let ev = self.subflows[idx].tcp.on_segment(now, seg);

        // Data-level cumulative ACK.
        if let Some(dack) = ev.data_ack {
            self.data_snd_una = self.data_snd_una.max(dack);
        }

        // Map newly in-order subflow bytes into the data stream.
        if ev.delivered > 0 {
            if let Some(base) = self.subflows[idx].peer_data_base {
                let start = base + self.subflows[idx].rx_mapped;
                let end = start + ev.delivered;
                self.subflows[idx].rx_mapped += ev.delivered;
                self.on_data_range(start, end);
            }
        }

        // REMOVE_ADDR: peer withdrew an address — kill matching subflows.
        if let Some(MpSignal::RemoveAddr { addr }) = seg.mp() {
            for sf in &mut self.subflows {
                if sf.alive && sf.tcp.remote.ip == addr {
                    sf.alive = false;
                    sf.tcp.abort();
                }
            }
        }

        // A subflow just became established: it becomes the active sender.
        if !was_established && self.subflows[idx].tcp.is_established() {
            self.activate_sender(idx);
            // Client side: withdraw the dead address on the fresh subflow.
            if self.is_initiator {
                if let Some(old) = self.remove_addr_pending.take() {
                    self.subflows[idx].tcp.pending_mp = Some(MpSignal::RemoveAddr { addr: old });
                }
            }
        }

        // Reap subflows that aborted from retransmission failure.
        for sf in &mut self.subflows {
            if sf.alive && sf.tcp.is_aborted() {
                sf.alive = false;
            }
        }
    }

    /// Make subflow `idx` the (sole) active sender: snapshot its data base
    /// and feed it the outstanding tail of the data stream.
    fn activate_sender(&mut self, idx: usize) {
        for (i, sf) in self.subflows.iter_mut().enumerate() {
            if i != idx {
                sf.active_sender = false;
            }
        }
        let sf = &mut self.subflows[idx];
        if sf.active_sender {
            return;
        }
        sf.active_sender = true;
        sf.tcp.data_base = Some(self.data_snd_una);
        match self.data_written {
            None => sf.tcp.set_bulk(),
            Some(total) => sf.tcp.write(total - self.data_snd_una),
        }
        sf.tcp.data_ack_out = Some(self.data_rcv_nxt);
    }

    fn on_data_range(&mut self, start: u64, end: u64) {
        if end <= self.data_rcv_nxt {
            return;
        }
        let before = self.data_rcv_nxt;
        if start <= self.data_rcv_nxt {
            self.data_rcv_nxt = self.data_ooo.absorb(end);
        } else {
            self.data_ooo.insert_max(start, end);
        }
        self.data_delivered_unread += self.data_rcv_nxt - before;
        // Piggyback the data ACK on every alive subflow's next segment.
        for sf in &mut self.subflows {
            if sf.alive {
                sf.tcp.data_ack_out = Some(self.data_rcv_nxt);
            }
        }
    }

    // ----- Output / timers -----

    /// Emit all due packets.
    pub fn poll(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        if self.dead {
            return;
        }
        // Address worker.
        if let Some(due) = self.worker_due {
            if now >= due {
                if self.local_addr.is_some() {
                    self.start_join(now);
                } else if let Some(lost) = self.addr_lost_at {
                    if now.since(lost) >= self.cfg.address_timeout {
                        // Paper: "If the timeout is reached, the MPTCP
                        // connection will be torn down."
                        self.dead = true;
                        for sf in &mut self.subflows {
                            sf.tcp.abort();
                            sf.alive = false;
                        }
                        return;
                    }
                }
            }
        }
        for sf in &mut self.subflows {
            if !sf.alive && sf.tcp.poll_at().is_none() {
                continue;
            }
            sf.tcp.poll(now, out);
        }
    }

    /// Earliest timer deadline across subflows and the address worker.
    #[must_use]
    pub fn poll_at(&self) -> Option<SimTime> {
        if self.dead {
            return None;
        }
        let mut earliest: Option<SimTime> = None;
        let mut consider = |t: Option<SimTime>| {
            earliest = match (earliest, t) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, None) => a,
                (None, b) => b,
            };
        };
        for sf in &self.subflows {
            if sf.alive {
                consider(sf.tcp.poll_at());
            }
        }
        match (self.worker_due, self.local_addr, self.addr_lost_at) {
            // Worker pending with an address available: fire at `due`.
            (Some(due), Some(_), _) => consider(Some(due)),
            // No address: wake at the teardown deadline.
            (Some(_), None, Some(lost)) => consider(Some(lost + self.cfg.address_timeout)),
            _ => {}
        }
        earliest
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cellbricks_net::PacketKind;

    pub(crate) fn ep(a: [u8; 4], port: u16) -> EndpointAddr {
        EndpointAddr::new(Ipv4Addr::new(a[0], a[1], a[2], a[3]), port)
    }

    const CLIENT_IP: [u8; 4] = [10, 0, 0, 1];
    const CLIENT_IP2: [u8; 4] = [10, 9, 0, 1];
    const SERVER_IP: [u8; 4] = [1, 1, 1, 1];

    /// An ideal bidirectional wire between a client and server MpConn,
    /// with per-destination-address blackholing to emulate IP changes.
    pub(crate) struct MpLoop {
        pub(crate) client: MpConn,
        pub(crate) server: Option<MpConn>,
        pub(crate) now: SimTime,
        pub(crate) delay: SimDuration,
        pub(crate) wire: Vec<(SimTime, Packet)>,
        /// Client addresses the network no longer routes.
        pub(crate) dead_addrs: Vec<Ipv4Addr>,
        pub(crate) server_ep: EndpointAddr,
        pub(crate) cfg: MpConfig,
    }

    impl MpLoop {
        pub(crate) fn new(cfg: MpConfig) -> Self {
            let now = SimTime::ZERO;
            let client = MpConn::connect(
                cfg.clone(),
                42,
                ep(CLIENT_IP, 40_000),
                ep(SERVER_IP, 5001),
                now,
            );
            Self {
                client,
                server: None,
                now,
                delay: SimDuration::from_millis(10),
                wire: Vec::new(),
                dead_addrs: Vec::new(),
                server_ep: ep(SERVER_IP, 5001),
                cfg,
            }
        }

        fn flush(&mut self) {
            let mut out = Vec::new();
            self.client.poll(self.now, &mut out);
            if let Some(server) = &mut self.server {
                server.poll(self.now, &mut out);
            }
            for pkt in out {
                if self.dead_addrs.contains(&pkt.dst) || self.dead_addrs.contains(&pkt.src) {
                    continue; // Blackholed.
                }
                self.wire.push((self.now + self.delay, pkt));
            }
        }

        fn deliver(&mut self, pkt: Packet) {
            let PacketKind::Tcp(seg) = &pkt.kind else {
                return;
            };
            if pkt.dst == self.server_ep.ip {
                // Server side.
                if self.server.is_none() {
                    if let Some(MpSignal::Capable { token }) = seg.mp() {
                        self.server = Some(MpConn::accept(
                            self.cfg.clone(),
                            token,
                            self.server_ep,
                            EndpointAddr::new(pkt.src, seg.src_port),
                            seg,
                            self.now,
                        ));
                        return;
                    }
                }
                let server = self.server.as_mut().unwrap();
                if let Some(idx) = server.match_subflow(pkt.src, seg) {
                    server.on_segment(self.now, idx, seg);
                } else if let Some(MpSignal::Join { token }) = seg.mp() {
                    assert_eq!(token, server.token);
                    server.accept_join(
                        self.server_ep,
                        EndpointAddr::new(pkt.src, seg.src_port),
                        seg,
                        self.now,
                    );
                }
            } else if let Some(idx) = self.client.match_subflow(pkt.src, seg) {
                self.client.on_segment(self.now, idx, seg);
            }
        }

        pub(crate) fn step(&mut self) -> bool {
            self.flush();
            let next_wire = self.wire.iter().map(|(t, _)| *t).min();
            let next_timer = [
                self.client.poll_at(),
                self.server.as_ref().and_then(|s| s.poll_at()),
            ]
            .into_iter()
            .flatten()
            .min();
            let next = match (next_wire, next_timer) {
                (Some(w), Some(t)) => w.min(t),
                (Some(w), None) => w,
                (None, Some(t)) => t,
                (None, None) => return false,
            };
            self.now = self.now.max(next);
            let now = self.now;
            let mut due = Vec::new();
            self.wire.retain(|(t, p)| {
                if *t <= now {
                    due.push(p.clone());
                    false
                } else {
                    true
                }
            });
            for pkt in due {
                self.deliver(pkt);
            }
            self.flush();
            true
        }

        /// Advance exactly to `deadline`, never overshooting past it even
        /// when the next pending event is far in the future.
        pub(crate) fn run_to(&mut self, deadline: SimTime) {
            loop {
                self.flush();
                let next_wire = self.wire.iter().map(|(t, _)| *t).min();
                let next_timer = [
                    self.client.poll_at(),
                    self.server.as_ref().and_then(|s| s.poll_at()),
                ]
                .into_iter()
                .flatten()
                .min();
                let next = match (next_wire, next_timer) {
                    (Some(w), Some(t)) => w.min(t),
                    (Some(w), None) => w,
                    (None, Some(t)) => t,
                    (None, None) => break,
                };
                if next > deadline {
                    break;
                }
                if !self.step() {
                    break;
                }
            }
            self.now = self.now.max(deadline);
        }

        pub(crate) fn run_for(&mut self, d: SimDuration) {
            let deadline = self.now + d;
            while self.now < deadline {
                if !self.step() {
                    break;
                }
            }
        }
    }

    #[test]
    fn capable_handshake_establishes() {
        let mut l = MpLoop::new(MpConfig::default());
        l.run_for(SimDuration::from_secs(1));
        assert!(l.client.is_established());
        assert!(l.server.as_ref().unwrap().is_established());
    }

    #[test]
    fn downlink_bulk_transfer_flows() {
        let mut l = MpLoop::new(MpConfig::default());
        l.run_for(SimDuration::from_millis(100));
        l.server.as_mut().unwrap().set_bulk();
        l.run_for(SimDuration::from_secs(2));
        let got = l.client.data_received();
        assert!(got > 1_000_000, "client received {got} bytes");
    }

    #[test]
    fn finite_write_delivered_exactly() {
        let mut l = MpLoop::new(MpConfig::default());
        l.run_for(SimDuration::from_millis(100));
        l.client.write(123_456);
        l.run_for(SimDuration::from_secs(3));
        assert_eq!(l.server.as_mut().unwrap().take_delivered(), 123_456);
        assert_eq!(l.client.data_acked(), 123_456);
    }

    #[test]
    fn ip_change_recovers_via_join() {
        let mut l = MpLoop::new(MpConfig::default());
        l.run_for(SimDuration::from_millis(100));
        l.server.as_mut().unwrap().set_bulk();
        l.run_for(SimDuration::from_secs(2));
        let before = l.client.data_received();

        // Invalidate the client address; blackhole old-IP traffic.
        let old_ip = Ipv4Addr::new(10, 0, 0, 1);
        let new_ip = Ipv4Addr::new(10, 9, 0, 1);
        l.dead_addrs.push(old_ip);
        l.client.on_addr_invalidated(l.now);
        // Attach latency ~32ms, then a new address appears.
        let assign_at = l.now + SimDuration::from_millis(32);
        l.run_to(assign_at);
        l.client.on_addr_assigned(l.now, new_ip);

        l.run_for(SimDuration::from_secs(5));
        let after = l.client.data_received();
        assert!(
            after > before + 1_000_000,
            "transfer resumed: before {before}, after {after}"
        );
        assert_eq!(l.client.subflows_created, 2);
        // The server should have exactly one alive subflow (old removed
        // via REMOVE_ADDR).
        assert_eq!(l.server.as_ref().unwrap().alive_subflows(), 1);
        assert!(!l.client.is_dead());
    }

    #[test]
    fn join_waits_for_address_worker() {
        let cfg = MpConfig::default(); // 500 ms wait.
        let mut l = MpLoop::new(cfg);
        l.run_for(SimDuration::from_millis(100));
        l.server.as_mut().unwrap().set_bulk();
        l.run_for(SimDuration::from_secs(1));

        let t_invalidate = l.now;
        l.dead_addrs.push(Ipv4Addr::new(10, 0, 0, 1));
        l.client.on_addr_invalidated(l.now);
        // New address arrives after 32 ms — well before the 500 ms worker.
        l.client.on_addr_assigned(
            l.now + SimDuration::from_millis(32),
            Ipv4Addr::from(CLIENT_IP2),
        );
        let created_before = l.client.subflows_created;
        // The join SYN cannot leave before t_invalidate + 500 ms ...
        l.run_to(t_invalidate + SimDuration::from_millis(499));
        assert_eq!(l.client.subflows_created, created_before);
        // ... and leaves when the worker fires.
        l.run_to(t_invalidate + SimDuration::from_millis(500));
        assert_eq!(l.client.subflows_created, created_before + 1);
        // Data resumes after that plus a handshake RTT.
        l.run_for(SimDuration::from_secs(3));
        assert_eq!(l.client.subflows_created, created_before + 1);
        assert!(l.client.data_received() > 0);
    }

    #[test]
    fn zero_wait_rejoins_immediately() {
        let cfg = MpConfig {
            address_worker_wait: SimDuration::ZERO,
            ..MpConfig::default()
        };
        let mut l = MpLoop::new(cfg);
        l.run_for(SimDuration::from_millis(100));
        l.server.as_mut().unwrap().set_bulk();
        l.run_for(SimDuration::from_secs(1));
        l.dead_addrs.push(Ipv4Addr::new(10, 0, 0, 1));
        l.client.on_addr_invalidated(l.now);
        l.client.on_addr_assigned(l.now, Ipv4Addr::from(CLIENT_IP2));
        l.step();
        assert_eq!(l.client.subflows_created, 2, "join started at once");
    }

    #[test]
    fn address_timeout_tears_down() {
        let cfg = MpConfig {
            address_timeout: SimDuration::from_secs(2),
            ..MpConfig::default()
        };
        let mut l = MpLoop::new(cfg);
        l.run_for(SimDuration::from_millis(100));
        l.dead_addrs.push(Ipv4Addr::new(10, 0, 0, 1));
        l.client.on_addr_invalidated(l.now);
        // No new address ever arrives.
        l.run_for(SimDuration::from_secs(5));
        assert!(l.client.is_dead());
    }

    #[test]
    fn no_duplicate_data_after_reinjection() {
        let mut l = MpLoop::new(MpConfig {
            address_worker_wait: SimDuration::ZERO,
            ..MpConfig::default()
        });
        l.run_for(SimDuration::from_millis(100));
        l.server.as_mut().unwrap().write(500_000);
        l.run_for(SimDuration::from_millis(600));
        l.dead_addrs.push(Ipv4Addr::new(10, 0, 0, 1));
        l.client.on_addr_invalidated(l.now);
        l.client.on_addr_assigned(l.now, Ipv4Addr::from(CLIENT_IP2));
        l.run_for(SimDuration::from_secs(10));
        // Exactly 500 kB delivered at the data level, despite subflow-level
        // re-injection overlap.
        assert_eq!(l.client.data_received(), 500_000);
        assert_eq!(l.client.take_delivered(), 500_000);
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::MpLoop;
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Data-level exactly-once delivery across an IP change at an
        /// arbitrary instant, for any address-worker wait: whatever the
        /// timing, the byte stream neither loses nor duplicates data.
        #[test]
        fn prop_ip_change_timing_preserves_stream(
            change_at_ms in 100u64..1_500,
            wait_ms in prop_oneof![Just(0u64), Just(100), Just(500)],
            total in 200_000u64..800_000,
        ) {
            let cfg = MpConfig {
                address_worker_wait: SimDuration::from_millis(wait_ms),
                ..MpConfig::default()
            };
            let mut l = MpLoop::new(cfg);
            l.run_for(SimDuration::from_millis(100));
            l.server.as_mut().unwrap().write(total);
            l.run_for(SimDuration::from_millis(change_at_ms));

            let old_ip = Ipv4Addr::new(10, 0, 0, 1);
            let new_ip = Ipv4Addr::new(10, 9, 0, 1);
            l.dead_addrs.push(old_ip);
            l.client.on_addr_invalidated(l.now);
            let assign_at = l.now + SimDuration::from_millis(32);
            l.run_to(assign_at);
            l.client.on_addr_assigned(l.now, new_ip);
            l.run_for(SimDuration::from_secs(30));

            prop_assert_eq!(l.client.data_received(), total);
            prop_assert_eq!(l.client.take_delivered(), total);
            prop_assert!(!l.client.is_dead());
        }
    }
}

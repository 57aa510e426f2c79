//! QUIC-based bulk transfer apps: the paper's "future work" transport
//! (§4.2 names QUIC alongside MPTCP) wired into the drive emulation so
//! the two mobility mechanisms can be compared head to head.

use crate::harness::App;
use bytes::Bytes;
use cellbricks_net::EndpointAddr;
use cellbricks_sim::{SimDuration, SimTime, TimeSeries};
use cellbricks_transport::quic::QuicConn;
use cellbricks_transport::{Host, UdpId};
use std::net::Ipv4Addr;

const QUIC_PORT: u16 = 8443;

fn pump(conn: &mut QuicConn, sock: UdpId, now: SimTime, host: &mut Host) {
    // Inbound.
    for (at, from, payload, _) in host.udp_recv(sock) {
        conn.on_datagram(at, from, &payload);
    }
    // Outbound.
    let mut out = Vec::new();
    conn.poll(now, &mut out);
    for (to, hdr, pad) in out {
        host.udp_send_padded(sock, to, Bytes::from(hdr.to_vec()), pad);
    }
}

/// The downloading client (UE side): opens a QUIC connection and records
/// per-second delivered bytes, exactly like [`crate::iperf::IperfClient`].
pub struct QuicIperfClient {
    server: EndpointAddr,
    sock: Option<UdpId>,
    conn: Option<QuicConn>,
    last_addr: Option<Ipv4Addr>,
    /// Delivered bytes, binned per second.
    pub series: TimeSeries,
    /// Total stream bytes delivered.
    pub total_bytes: u64,
}

impl QuicIperfClient {
    /// A client that will connect to `server`.
    #[must_use]
    pub fn new(server: EndpointAddr, bin: SimDuration) -> Self {
        Self {
            server,
            sock: None,
            conn: None,
            last_addr: None,
            series: TimeSeries::new(bin),
            total_bytes: 0,
        }
    }
}

impl App for QuicIperfClient {
    fn start(&mut self, now: SimTime, host: &mut Host) {
        self.sock = Some(host.udp_bind(QUIC_PORT));
        self.conn = Some(QuicConn::client(0xC0FFEE, self.server, now));
        self.last_addr = host.addr();
    }

    fn on_activity(&mut self, now: SimTime, host: &mut Host) {
        let (Some(sock), Some(conn)) = (self.sock, self.conn.as_mut()) else {
            return;
        };
        // Address change: QUIC migrates in place — no teardown, no wait.
        let addr = host.addr();
        if addr != self.last_addr {
            self.last_addr = addr;
            if addr.is_some() {
                conn.on_local_addr_change();
            }
        }
        pump(conn, sock, now, host);
        let delivered = conn.take_delivered();
        if delivered > 0 {
            self.total_bytes += delivered;
            self.series.record(now, delivered as f64);
        }
    }

    fn tick(&self) -> SimDuration {
        SimDuration::from_millis(50)
    }
}

/// The bulk-sending QUIC server.
pub struct QuicIperfServer {
    sock: Option<UdpId>,
    conn: Option<QuicConn>,
    /// Path migrations validated (one per CellBricks handover).
    pub migrations: u32,
}

impl QuicIperfServer {
    /// A server awaiting one client on the QUIC port.
    #[must_use]
    pub fn new() -> Self {
        Self {
            sock: None,
            conn: None,
            migrations: 0,
        }
    }
}

impl Default for QuicIperfServer {
    fn default() -> Self {
        Self::new()
    }
}

impl App for QuicIperfServer {
    fn start(&mut self, _now: SimTime, host: &mut Host) {
        self.sock = Some(host.udp_bind(QUIC_PORT));
    }

    fn on_activity(&mut self, now: SimTime, host: &mut Host) {
        let Some(sock) = self.sock else { return };
        if self.conn.is_none() {
            // Accept the first client we hear from.
            let datagrams = host.udp_recv(sock);
            if let Some((at, from, payload, _)) = datagrams.into_iter().next() {
                let mut conn = QuicConn::server(0xC0FFEE, from);
                conn.on_datagram(at, from, &payload);
                conn.set_bulk();
                self.conn = Some(conn);
            } else {
                return;
            }
        }
        if let Some(conn) = self.conn.as_mut() {
            pump(conn, sock, now, host);
            self.migrations = conn.migrations;
        }
    }

    fn tick(&self) -> SimDuration {
        SimDuration::from_millis(50)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::AppHost;
    use cellbricks_net::{Driver, LinkConfig, NetWorld, Shaper, Topology};
    use cellbricks_sim::SimRng;

    const UE: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const UE2: Ipv4Addr = Ipv4Addr::new(10, 0, 7, 1);
    const SRV: Ipv4Addr = Ipv4Addr::new(1, 1, 1, 1);

    fn setup(rate_bps: f64) -> (NetWorld, AppHost<QuicIperfClient>, AppHost<QuicIperfServer>) {
        let mut t = Topology::new();
        let a = t.add_node("ue");
        let b = t.add_node("server");
        let dl = LinkConfig {
            latency: SimDuration::from_millis(20),
            loss: 0.0,
            shaper: Shaper::FixedRate(rate_bps),
            queue_cap: SimDuration::from_millis(400),
            burst: None,
        };
        let ul = LinkConfig::delay_only(SimDuration::from_millis(20));
        let l = t.add_link(b, a, dl, ul);
        t.add_default_route(a, l);
        t.add_default_route(b, l);
        let world = NetWorld::new(t, SimRng::new(9));
        let client = AppHost::new(
            Host::new(cellbricks_net::NodeId(0), Some(UE)),
            QuicIperfClient::new(EndpointAddr::new(SRV, QUIC_PORT), SimDuration::from_secs(1)),
        );
        let server = AppHost::new(
            Host::new(cellbricks_net::NodeId(1), Some(SRV)),
            QuicIperfServer::new(),
        );
        (world, client, server)
    }

    #[test]
    fn quic_fills_the_pipe() {
        let (mut world, mut client, mut server) = setup(10e6);
        Driver::new().run_to(
            &mut world,
            &mut [&mut client, &mut server],
            SimTime::from_secs(15),
        );
        let mbps = client.app.series.mean_rate(3, 15) * 8.0 / 1e6;
        let c_est = client.app.conn.as_ref().map(|c| c.is_established());
        let s_conn = server.app.conn.is_some();
        let s_est = server.app.conn.as_ref().map(|c| c.is_established());
        assert!(
            (mbps - 10.0).abs() < 2.0,
            "quic {mbps} Mbps on a 10 Mbps pipe (client est {c_est:?}, server conn {s_conn} est {s_est:?}, total {}, srv {:?})",
            client.app.total_bytes,
            server.app.conn.as_ref().map(|c| c.debug_state())
        );
    }

    #[test]
    fn quic_migrates_across_ip_change_over_netsim() {
        let (mut world, mut client, mut server) = setup(10e6);
        let mut driver = Driver::new();
        driver.run_to(
            &mut world,
            &mut [&mut client, &mut server],
            SimTime::from_secs(5),
        );
        let before = client.app.total_bytes;
        assert!(before > 0);
        let t0 = SimTime::from_secs(5);
        client.host.invalidate_addr(t0);
        driver.run_to(
            &mut world,
            &mut [&mut client, &mut server],
            t0 + SimDuration::from_millis(32),
        );
        client
            .host
            .assign_addr(t0 + SimDuration::from_millis(32), UE2);
        driver.run_to(
            &mut world,
            &mut [&mut client, &mut server],
            SimTime::from_secs(10),
        );
        assert!(
            client.app.total_bytes > before + 1_000_000,
            "transfer resumed: {} -> {}",
            before,
            client.app.total_bytes
        );
        assert_eq!(server.app.migrations, 1, "server validated the new path");
    }
}

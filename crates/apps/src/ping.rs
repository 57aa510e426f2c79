//! UDP echo ("ping") with RTT percentiles.

use crate::harness::App;
use bytes::Bytes;
use cellbricks_epc::wire::{Reader, Writer};
use cellbricks_net::EndpointAddr;
use cellbricks_sim::{percentile, SimDuration, SimTime};
use cellbricks_transport::{Host, UdpId};

/// The pinging client.
pub struct PingClient {
    server: EndpointAddr,
    interval: SimDuration,
    sock: Option<UdpId>,
    next_seq: u64,
    next_send: SimTime,
    /// Collected round-trip times, milliseconds.
    pub rtts_ms: Vec<f64>,
    /// Pings sent.
    pub sent: u64,
}

impl PingClient {
    /// A client pinging `server` every `interval`.
    #[must_use]
    pub fn new(server: EndpointAddr, interval: SimDuration) -> Self {
        Self {
            server,
            interval,
            sock: None,
            next_seq: 0,
            next_send: SimTime::ZERO,
            rtts_ms: Vec::new(),
            sent: 0,
        }
    }

    /// Median RTT, milliseconds.
    #[must_use]
    pub fn p50_ms(&self) -> f64 {
        percentile(&self.rtts_ms, 50.0)
    }

    /// Fraction of pings lost.
    #[must_use]
    pub fn loss(&self) -> f64 {
        if self.sent == 0 {
            return 0.0;
        }
        1.0 - self.rtts_ms.len() as f64 / self.sent as f64
    }
}

impl App for PingClient {
    fn start(&mut self, now: SimTime, host: &mut Host) {
        self.sock = Some(host.udp_bind(33_434));
        self.next_send = now;
    }

    fn on_activity(&mut self, now: SimTime, host: &mut Host) {
        let Some(sock) = self.sock else { return };
        // Receive echoes.
        for (at, _from, payload, _pad) in host.udp_recv(sock) {
            let mut r = Reader::new(&payload);
            let (Some(_seq), Some(sent_ns)) = (r.get_u64(), r.get_u64()) else {
                continue;
            };
            let rtt = at.since(SimTime::from_nanos(sent_ns));
            self.rtts_ms.push(rtt.as_millis_f64());
        }
        // Send on schedule (ticks drive this).
        while now >= self.next_send {
            let mut w = Writer::new();
            w.put_u64(self.next_seq).put_u64(now.as_nanos());
            // Pad to a 64-byte ICMP-ish probe.
            w.put_fixed(&[0u8; 48]);
            host.udp_send(sock, self.server, w.finish());
            self.next_seq += 1;
            self.sent += 1;
            self.next_send += self.interval;
        }
    }

    fn tick(&self) -> SimDuration {
        self.interval
    }
}

/// The echo server: reflects every datagram back to its source.
pub struct EchoServer {
    port: u16,
    sock: Option<UdpId>,
    /// Datagrams echoed.
    pub echoed: u64,
}

impl EchoServer {
    /// An echo server on `port`.
    #[must_use]
    pub fn new(port: u16) -> Self {
        Self {
            port,
            sock: None,
            echoed: 0,
        }
    }
}

impl App for EchoServer {
    fn start(&mut self, _now: SimTime, host: &mut Host) {
        self.sock = Some(host.udp_bind(self.port));
    }

    fn on_activity(&mut self, _now: SimTime, host: &mut Host) {
        let Some(sock) = self.sock else { return };
        for (_at, from, payload, _pad) in host.udp_recv(sock) {
            host.udp_send(sock, from, Bytes::from(payload.to_vec()));
            self.echoed += 1;
        }
    }

    fn tick(&self) -> SimDuration {
        SimDuration::from_secs(3600)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::AppHost;
    use cellbricks_net::{Driver, LinkConfig, NetWorld, Topology};
    use cellbricks_sim::SimRng;
    use std::net::Ipv4Addr;

    const UE: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const SRV: Ipv4Addr = Ipv4Addr::new(1, 1, 1, 1);

    #[test]
    fn rtt_matches_path_latency() {
        let mut t = Topology::new();
        let a = t.add_node("ue");
        let b = t.add_node("server");
        let l = t.add_symmetric_link(a, b, LinkConfig::delay_only(SimDuration::from_millis(23)));
        t.add_default_route(a, l);
        t.add_default_route(b, l);
        let mut world = NetWorld::new(t, SimRng::new(1));
        let mut client = AppHost::new(
            Host::new(a, Some(UE)),
            PingClient::new(EndpointAddr::new(SRV, 7), SimDuration::from_millis(200)),
        );
        let mut server = AppHost::new(Host::new(b, Some(SRV)), EchoServer::new(7));
        Driver::new().run_to(
            &mut world,
            &mut [&mut client, &mut server],
            SimTime::from_secs(10),
        );
        assert!(client.app.rtts_ms.len() > 40);
        assert!(
            (client.app.p50_ms() - 46.0).abs() < 1.0,
            "p50 {}",
            client.app.p50_ms()
        );
        // The final probe may still be in flight when the run ends.
        assert!(client.app.loss() < 0.05, "loss {}", client.app.loss());
    }

    #[test]
    fn loss_counted_when_link_drops() {
        let mut t = Topology::new();
        let a = t.add_node("ue");
        let b = t.add_node("server");
        let l = t.add_symmetric_link(
            a,
            b,
            LinkConfig::delay_only(SimDuration::from_millis(5)).with_loss(0.2),
        );
        t.add_default_route(a, l);
        t.add_default_route(b, l);
        let mut world = NetWorld::new(t, SimRng::new(2));
        let mut client = AppHost::new(
            Host::new(a, Some(UE)),
            PingClient::new(EndpointAddr::new(SRV, 7), SimDuration::from_millis(50)),
        );
        let mut server = AppHost::new(Host::new(b, Some(SRV)), EchoServer::new(7));
        Driver::new().run_to(
            &mut world,
            &mut [&mut client, &mut server],
            SimTime::from_secs(30),
        );
        // ~36% round-trip loss on a 20%-per-direction link.
        let loss = client.app.loss();
        assert!((loss - 0.36).abs() < 0.08, "loss {loss}");
    }
}

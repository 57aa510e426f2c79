//! HLS-style adaptive-bitrate video streaming.
//!
//! A 6-level ladder (144p → 720p, paper §6.2iv) of 4-second segments.
//! The player requests one segment at a time over a persistent
//! (MP)TCP connection, estimates throughput from segment download rates,
//! and adapts the quality level — the metric is the average level played,
//! Table 1's "Video: Avg. Quality Level" column.
//!
//! Requests travel as small UDP control messages (standing in for HTTP
//! GETs, whose bodies our content-free TCP does not carry); segment data
//! flows on the TCP connection.

use crate::harness::App;
use crate::iperf::Transport;
use cellbricks_epc::wire::{Reader, Writer};
use cellbricks_net::EndpointAddr;
use cellbricks_sim::{SimDuration, SimTime};
use cellbricks_transport::{Host, MpId, SockId, UdpId};

/// Segment duration.
pub const SEGMENT_SECS: f64 = 4.0;
/// The bitrate ladder, kbit/s (144p, 240p, 360p, 480p, 576p, 720p).
pub const LADDER_KBPS: [u32; 6] = [200, 400, 800, 1500, 3000, 5000];

/// Bytes of a segment at `level`.
#[must_use]
pub fn segment_bytes(level: usize) -> u64 {
    (f64::from(LADDER_KBPS[level]) * 1000.0 / 8.0 * SEGMENT_SECS) as u64
}

enum Conn {
    Tcp(SockId),
    Mp(MpId),
}

/// The HLS player (UE side).
pub struct VideoClient {
    server: EndpointAddr,
    control: EndpointAddr,
    transport: Transport,
    conn: Option<Conn>,
    sock: Option<UdpId>,
    /// Throughput estimate, bits/s (EWMA of segment download rates).
    estimate_bps: f64,
    /// In-flight segment: (level, expected bytes, received bytes, started).
    outstanding: Option<(usize, u64, u64, SimTime)>,
    /// Media buffered ahead of playback, seconds.
    pub buffer_secs: f64,
    last_drain: Option<SimTime>,
    /// Quality level of each downloaded segment.
    pub levels: Vec<usize>,
    /// Total rebuffering time, seconds.
    pub rebuffer_secs: f64,
    /// Maximum buffer before the player pauses requests.
    pub max_buffer_secs: f64,
}

impl VideoClient {
    /// A player streaming from `server` (data) / `control` (requests).
    #[must_use]
    pub fn new(server: EndpointAddr, control: EndpointAddr, transport: Transport) -> Self {
        Self {
            server,
            control,
            transport,
            conn: None,
            sock: None,
            estimate_bps: 0.0,
            outstanding: None,
            buffer_secs: 0.0,
            last_drain: None,
            levels: Vec::new(),
            rebuffer_secs: 0.0,
            max_buffer_secs: 16.0,
        }
    }

    /// Mean quality level over the session (Table 1's metric).
    #[must_use]
    pub fn avg_level(&self) -> f64 {
        if self.levels.is_empty() {
            return 0.0;
        }
        self.levels.iter().map(|&l| l as f64).sum::<f64>() / self.levels.len() as f64
    }

    fn pick_level(&self) -> usize {
        // Throughput rule with a 1.2x safety factor; start at the bottom.
        if self.estimate_bps <= 0.0 {
            return 0;
        }
        let mut level = 0;
        for (i, &kbps) in LADDER_KBPS.iter().enumerate() {
            if f64::from(kbps) * 1000.0 * 1.2 <= self.estimate_bps {
                level = i;
            }
        }
        level
    }

    fn request_segment(&mut self, now: SimTime, host: &mut Host) {
        let level = self.pick_level();
        let bytes = segment_bytes(level);
        let Some(sock) = self.sock else { return };
        let mut w = Writer::new();
        w.put_u8(level as u8);
        host.udp_send(sock, self.control, w.finish());
        self.outstanding = Some((level, bytes, 0, now));
    }
}

impl App for VideoClient {
    fn start(&mut self, now: SimTime, host: &mut Host) {
        self.sock = Some(host.udp_bind(46_000));
        self.conn = Some(match self.transport {
            Transport::Tcp => Conn::Tcp(host.tcp_connect(now, self.server)),
            Transport::Mptcp => Conn::Mp(host.mp_connect(now, self.server)),
        });
        self.last_drain = Some(now);
    }

    fn on_activity(&mut self, now: SimTime, host: &mut Host) {
        // Playback drains the buffer in real time; empty buffer = rebuffer.
        if let Some(last) = self.last_drain {
            let dt = now.saturating_since(last).as_secs_f64();
            if dt > 0.0 {
                if self.buffer_secs >= dt {
                    self.buffer_secs -= dt;
                } else {
                    self.rebuffer_secs += dt - self.buffer_secs;
                    self.buffer_secs = 0.0;
                }
                self.last_drain = Some(now);
            }
        }
        let delivered = match &self.conn {
            Some(Conn::Tcp(id)) => host.tcp_mut(*id).take_delivered(),
            Some(Conn::Mp(id)) => host.mp_mut(*id).take_delivered(),
            None => 0,
        };
        if let Some((level, expected, received, started)) = &mut self.outstanding {
            *received += delivered;
            if *received >= *expected {
                let secs = now.saturating_since(*started).as_secs_f64().max(1e-3);
                let rate = *expected as f64 * 8.0 / secs;
                self.estimate_bps = if self.estimate_bps == 0.0 {
                    rate
                } else {
                    0.7 * self.estimate_bps + 0.3 * rate
                };
                self.buffer_secs += SEGMENT_SECS;
                self.levels.push(*level);
                self.outstanding = None;
            }
        }
        let established = match &self.conn {
            Some(Conn::Tcp(id)) => host.tcp(*id).is_established(),
            Some(Conn::Mp(id)) => host.mp(*id).is_established(),
            None => false,
        };
        if self.outstanding.is_none()
            && established
            && self.buffer_secs < self.max_buffer_secs
            && host.addr().is_some()
        {
            self.request_segment(now, host);
        }
    }

    fn tick(&self) -> SimDuration {
        SimDuration::from_millis(100)
    }
}

/// The HLS origin server.
pub struct VideoServer {
    data_port: u16,
    control_port: u16,
    sock: Option<UdpId>,
    conns: Vec<Conn>,
    /// Segments served.
    pub served: u64,
}

impl VideoServer {
    /// A server on `data_port` (TCP/MPTCP) + `control_port` (requests).
    #[must_use]
    pub fn new(data_port: u16, control_port: u16) -> Self {
        Self {
            data_port,
            control_port,
            sock: None,
            conns: Vec::new(),
            served: 0,
        }
    }
}

impl App for VideoServer {
    fn start(&mut self, _now: SimTime, host: &mut Host) {
        host.tcp_listen(self.data_port);
        host.mp_listen(self.data_port);
        self.sock = Some(host.udp_bind(self.control_port));
    }

    fn on_activity(&mut self, now: SimTime, host: &mut Host) {
        for id in host.take_accepted_tcp() {
            self.conns.push(Conn::Tcp(id));
        }
        for id in host.take_accepted_mp() {
            self.conns.push(Conn::Mp(id));
        }
        let Some(sock) = self.sock else { return };
        for (_at, _from, payload, _pad) in host.udp_recv(sock) {
            let mut r = Reader::new(&payload);
            let Some(level) = r.get_u8() else { continue };
            let bytes = segment_bytes(usize::from(level).min(LADDER_KBPS.len() - 1));
            // Serve on the most recent connection (single-client model).
            match self.conns.last() {
                Some(Conn::Tcp(id)) => host.tcp_write(now, *id, bytes),
                Some(Conn::Mp(id)) => host.mp_write(now, *id, bytes),
                None => continue,
            }
            self.served += 1;
        }
    }

    fn tick(&self) -> SimDuration {
        SimDuration::from_millis(100)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::AppHost;
    use cellbricks_net::{Driver, LinkConfig, NetWorld, Shaper, Topology};
    use cellbricks_sim::SimRng;
    use std::net::Ipv4Addr;

    const UE: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const SRV: Ipv4Addr = Ipv4Addr::new(1, 1, 1, 1);

    fn run(rate_bps: f64, secs: u64) -> VideoClient {
        let mut t = Topology::new();
        let a = t.add_node("ue");
        let b = t.add_node("server");
        let dl = LinkConfig {
            latency: SimDuration::from_millis(23),
            loss: 0.0,
            shaper: Shaper::FixedRate(rate_bps),
            queue_cap: SimDuration::from_millis(400),
            burst: None,
        };
        let ul = LinkConfig::delay_only(SimDuration::from_millis(23));
        let l = t.add_link(b, a, dl, ul);
        t.add_default_route(a, l);
        t.add_default_route(b, l);
        let mut world = NetWorld::new(t, SimRng::new(3));
        let mut client = AppHost::new(
            Host::new(cellbricks_net::NodeId(0), Some(UE)),
            VideoClient::new(
                EndpointAddr::new(SRV, 8081),
                EndpointAddr::new(SRV, 8082),
                Transport::Tcp,
            ),
        );
        let mut server = AppHost::new(
            Host::new(cellbricks_net::NodeId(1), Some(SRV)),
            VideoServer::new(8081, 8082),
        );
        Driver::new().run_to(
            &mut world,
            &mut [&mut client, &mut server],
            SimTime::from_secs(secs),
        );
        client.app
    }

    #[test]
    fn day_rate_settles_around_level_2() {
        let app = run(1.16e6, 120);
        assert!(app.levels.len() > 10, "{} segments", app.levels.len());
        // Skip the slow-start ramp; steady-state should sit at level 2
        // (800 kbps is the highest level fitting 1.16 Mbps with margin).
        let steady = &app.levels[3..];
        let avg = steady.iter().map(|&l| l as f64).sum::<f64>() / steady.len() as f64;
        assert!((1.5..2.5).contains(&avg), "avg level {avg}");
    }

    #[test]
    fn night_rate_reaches_top_levels() {
        let app = run(15.5e6, 120);
        let steady = &app.levels[3..];
        let avg = steady.iter().map(|&l| l as f64).sum::<f64>() / steady.len() as f64;
        assert!(avg > 4.4, "avg level {avg}");
        assert!(app.rebuffer_secs < 6.0, "rebuffer {}", app.rebuffer_secs);
    }

    #[test]
    fn segment_sizes_match_ladder() {
        assert_eq!(segment_bytes(0), 100_000);
        assert_eq!(segment_bytes(5), 2_500_000);
    }
}

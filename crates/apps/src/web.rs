//! Web page loads: batched multi-object downloads with browser think time.
//!
//! A page is modelled as an HTML document followed by dependent resource
//! batches discovered progressively (scripts → styles → images), the
//! structure that makes real page loads latency-bound even on fast links.
//! The metric is mean page load time (Table 1's "Web: Avg. Load Time").

use crate::harness::App;
use crate::iperf::Transport;
use cellbricks_epc::wire::{Reader, Writer};
use cellbricks_net::EndpointAddr;
use cellbricks_sim::{SimDuration, SimTime};
use cellbricks_transport::{Host, MpId, SockId, UdpId};

/// Page structure model (calibrated so day ≈ 5 s, night ≈ 1.8 s as in
/// Table 1 — see EXPERIMENTS.md for the calibration notes).
#[derive(Clone, Debug)]
pub struct PageModel {
    /// Bytes of the root HTML document.
    pub html_bytes: u64,
    /// Dependent batches discovered after the HTML (and each other).
    pub batches: u32,
    /// Objects per batch.
    pub objects_per_batch: u32,
    /// Bytes per object.
    pub object_bytes: u64,
    /// Browser parse/render think time between batches.
    pub think: SimDuration,
    /// Parallel connections.
    pub parallelism: u32,
    /// Idle gap between consecutive page loads.
    pub page_gap: SimDuration,
}

impl Default for PageModel {
    fn default() -> Self {
        Self {
            html_bytes: 60_000,
            batches: 3,
            objects_per_batch: 5,
            object_bytes: 28_000,
            think: SimDuration::from_millis(250),
            parallelism: 4,
            page_gap: SimDuration::from_secs(2),
        }
    }
}

enum Conn {
    Tcp(SockId),
    Mp(MpId),
}

enum Phase {
    /// Waiting to start the next page at this instant.
    Idle(SimTime),
    /// Connections opening.
    Connecting,
    /// Fetching the HTML document.
    Html,
    /// Browser think time until this instant, then fetch `next_batch`.
    Thinking(SimTime),
    /// Fetching batch `current` (objects outstanding).
    Batch,
}

/// The browser (UE side).
pub struct WebClient {
    server: EndpointAddr,
    control: EndpointAddr,
    transport: Transport,
    model: PageModel,
    conns: Vec<Conn>,
    sock: Option<UdpId>,
    phase: Phase,
    page_started: SimTime,
    current_batch: u32,
    /// Per-connection bytes still expected.
    expected: Vec<u64>,
    /// Outstanding requests for retry: (conn_idx, req_id, bytes).
    outstanding: Vec<(usize, u32, u64)>,
    /// Monotonic request id (deduplicates retries at the server).
    next_req_id: u32,
    /// Last time any byte made progress (drives the retry timer).
    last_progress: SimTime,
    /// Completed page load times, seconds.
    pub load_times_s: Vec<f64>,
    /// Pages started.
    pub pages_started: u64,
    /// Requests retried after a stall (handover-induced loss).
    pub retries: u64,
}

impl WebClient {
    /// A browser fetching pages from `server`/`control`.
    #[must_use]
    pub fn new(
        server: EndpointAddr,
        control: EndpointAddr,
        transport: Transport,
        model: PageModel,
    ) -> Self {
        Self {
            server,
            control,
            transport,
            model,
            conns: Vec::new(),
            sock: None,
            phase: Phase::Idle(SimTime::ZERO),
            page_started: SimTime::ZERO,
            current_batch: 0,
            expected: Vec::new(),
            outstanding: Vec::new(),
            next_req_id: 0,
            last_progress: SimTime::ZERO,
            load_times_s: Vec::new(),
            pages_started: 0,
            retries: 0,
        }
    }

    /// Mean page load time, seconds.
    #[must_use]
    pub fn avg_load_time_s(&self) -> f64 {
        if self.load_times_s.is_empty() {
            return f64::NAN;
        }
        self.load_times_s.iter().sum::<f64>() / self.load_times_s.len() as f64
    }

    fn conn_established(&self, host: &Host, i: usize) -> bool {
        match &self.conns[i] {
            Conn::Tcp(id) => host.tcp(*id).is_established(),
            Conn::Mp(id) => host.mp(*id).is_established(),
        }
    }

    fn conn_port(&self, host: &Host, i: usize) -> u16 {
        match &self.conns[i] {
            Conn::Tcp(id) => host.tcp(*id).local.port,
            Conn::Mp(_) => {
                // MPTCP connections are identified to the server by their
                // connection index instead (subflow ports change).
                i as u16
            }
        }
    }

    fn take_delivered(&mut self, host: &mut Host, i: usize) -> u64 {
        match &self.conns[i] {
            Conn::Tcp(id) => host.tcp_mut(*id).take_delivered(),
            Conn::Mp(id) => host.mp_mut(*id).take_delivered(),
        }
    }

    fn request(&mut self, host: &mut Host, conn_idx: usize, bytes: u64) {
        let req_id = self.next_req_id;
        self.next_req_id += 1;
        self.send_request(host, conn_idx, req_id, bytes);
        self.expected[conn_idx] += bytes;
        self.outstanding.push((conn_idx, req_id, bytes));
    }

    fn send_request(&mut self, host: &mut Host, conn_idx: usize, req_id: u32, bytes: u64) {
        let Some(sock) = self.sock else { return };
        let mut w = Writer::new();
        // Identify the connection: for TCP by local port, for MPTCP by
        // accept order (stable at the server). The request id makes
        // retries idempotent at the server.
        let is_mp = matches!(self.conns[conn_idx], Conn::Mp(_));
        w.put_u8(u8::from(is_mp))
            .put_u16(self.conn_port(host, conn_idx))
            .put_u32(req_id)
            .put_u64(bytes);
        host.udp_send(sock, self.control, w.finish());
    }

    fn start_page(&mut self, now: SimTime, host: &mut Host) {
        self.pages_started += 1;
        self.page_started = now;
        self.current_batch = 0;
        self.outstanding.clear();
        self.last_progress = now;
        // HTTP/1.1-style persistent connections: open once, reuse across
        // pages; replace any connection that died (e.g. a plain-TCP
        // connection severed by an IP change — the paper's fallback case).
        let alive = |host: &Host, c: &Conn| match c {
            Conn::Tcp(id) => {
                let t = host.tcp(*id);
                t.is_established() && !t.is_aborted()
            }
            Conn::Mp(id) => !host.mp(*id).is_dead(),
        };
        if self.conns.len() == self.model.parallelism as usize
            && self.conns.iter().all(|c| alive(host, c))
        {
            for e in &mut self.expected {
                *e = 0;
            }
        } else {
            self.conns.clear();
            self.expected.clear();
            for _ in 0..self.model.parallelism {
                let conn = match self.transport {
                    Transport::Tcp => Conn::Tcp(host.tcp_connect(now, self.server)),
                    Transport::Mptcp => Conn::Mp(host.mp_connect(now, self.server)),
                };
                self.conns.push(conn);
                self.expected.push(0);
            }
        }
        self.phase = Phase::Connecting;
    }

    fn issue_batch(&mut self, host: &mut Host) {
        let per_conn = self.model.objects_per_batch.max(1);
        for k in 0..per_conn {
            let conn_idx = (k as usize) % self.conns.len();
            self.request(host, conn_idx, self.model.object_bytes);
        }
        self.phase = Phase::Batch;
    }

    fn all_received(&self) -> bool {
        self.expected.iter().all(|&e| e == 0)
    }
}

impl App for WebClient {
    fn start(&mut self, now: SimTime, host: &mut Host) {
        self.sock = Some(host.udp_bind(47_000));
        self.phase = Phase::Idle(now);
    }

    fn on_activity(&mut self, now: SimTime, host: &mut Host) {
        // Drain deliveries.
        let mut progressed = false;
        for i in 0..self.conns.len() {
            let got = self.take_delivered(host, i);
            if got > 0 {
                progressed = true;
                self.expected[i] = self.expected[i].saturating_sub(got);
            }
        }
        if progressed {
            self.last_progress = now;
            self.outstanding.retain(|&(i, ..)| self.expected[i] > 0);
        }
        // Stall recovery: a UDP request lost to a handover outage would
        // otherwise hang the page forever — re-issue outstanding requests
        // (the request id lets the server drop duplicates).
        if !self.outstanding.is_empty()
            && host.addr().is_some()
            && now.saturating_since(self.last_progress) > SimDuration::from_millis(1000)
        {
            self.last_progress = now;
            self.retries += self.outstanding.len() as u64;
            #[cfg(feature = "debug-trace")]
            eprintln!(
                "web retry at {now}: outstanding={:?} expected={:?}",
                self.outstanding, self.expected
            );
            let pending = self.outstanding.clone();
            for (conn_idx, req_id, bytes) in pending {
                self.send_request(host, conn_idx, req_id, bytes);
            }
        }
        match self.phase {
            Phase::Idle(at) => {
                if now >= at && host.addr().is_some() {
                    self.start_page(now, host);
                }
            }
            Phase::Connecting => {
                let ready = (0..self.conns.len()).all(|i| self.conn_established(host, i));
                if ready {
                    // Fetch the HTML on the first connection.
                    self.request(host, 0, self.model.html_bytes);
                    self.phase = Phase::Html;
                }
            }
            Phase::Html => {
                if self.all_received() {
                    #[cfg(feature = "debug-trace")]
                    eprintln!("html done at {now}");
                    self.phase = Phase::Thinking(now + self.model.think);
                }
            }
            Phase::Thinking(until) => {
                // Hold requests while detached (they would be dropped at
                // the interface); the batch goes out after re-attach.
                if now >= until && host.addr().is_some() {
                    self.current_batch += 1;
                    #[cfg(feature = "debug-trace")]
                    eprintln!("issue batch {} at {now}", self.current_batch);
                    self.issue_batch(host);
                }
            }
            Phase::Batch => {
                if self.all_received() {
                    #[cfg(feature = "debug-trace")]
                    eprintln!("batch {} done at {now}", self.current_batch);
                    if self.current_batch >= self.model.batches {
                        // Page complete.
                        self.load_times_s
                            .push(now.since(self.page_started).as_secs_f64());
                        // Keep-alive: connections persist to the next page.
                        self.phase = Phase::Idle(now + self.model.page_gap);
                    } else {
                        self.phase = Phase::Thinking(now + self.model.think);
                    }
                }
            }
        }
    }

    fn tick(&self) -> SimDuration {
        SimDuration::from_millis(50)
    }
}

/// The web origin server.
pub struct WebServer {
    data_port: u16,
    control_port: u16,
    sock: Option<UdpId>,
    tcp_conns: Vec<SockId>,
    mp_conns: Vec<MpId>,
    seen_requests: std::collections::HashSet<u32>,
    /// Objects served.
    pub served: u64,
}

impl WebServer {
    /// A server on `data_port` (TCP/MPTCP) + `control_port` (requests).
    #[must_use]
    pub fn new(data_port: u16, control_port: u16) -> Self {
        Self {
            data_port,
            control_port,
            sock: None,
            tcp_conns: Vec::new(),
            mp_conns: Vec::new(),
            seen_requests: std::collections::HashSet::new(),
            served: 0,
        }
    }
}

impl App for WebServer {
    fn start(&mut self, _now: SimTime, host: &mut Host) {
        host.tcp_listen(self.data_port);
        host.mp_listen(self.data_port);
        self.sock = Some(host.udp_bind(self.control_port));
    }

    fn on_activity(&mut self, now: SimTime, host: &mut Host) {
        for id in host.take_accepted_tcp() {
            self.tcp_conns.push(id);
        }
        for id in host.take_accepted_mp() {
            self.mp_conns.push(id);
        }
        let Some(sock) = self.sock else { return };
        for (_at, _from, payload, _pad) in host.udp_recv(sock) {
            let mut r = Reader::new(&payload);
            let (Some(is_mp), Some(key), Some(req_id), Some(bytes)) =
                (r.get_u8(), r.get_u16(), r.get_u32(), r.get_u64())
            else {
                continue;
            };
            if !self.seen_requests.insert(req_id) {
                continue; // Duplicate (client retry); already served.
            }
            if is_mp == 1 {
                // Key = accept-order index within the current page's wave;
                // count from the end (most recent page's connections).
                let base = self.mp_conns.len().saturating_sub(4);
                if let Some(id) = self.mp_conns.get(base + usize::from(key)) {
                    host.mp_write(now, *id, bytes);
                    self.served += 1;
                }
            } else if let Some(id) = self
                .tcp_conns
                .iter()
                .rev()
                .find(|id| host.tcp(**id).remote.port == key)
            {
                host.tcp_write(now, *id, bytes);
                self.served += 1;
            }
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

    fn run(rate_bps: f64, transport: Transport, secs: u64) -> WebClient {
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
        let mut world = NetWorld::new(t, SimRng::new(4));
        let mut client = AppHost::new(
            Host::new(cellbricks_net::NodeId(0), Some(UE)),
            WebClient::new(
                EndpointAddr::new(SRV, 8091),
                EndpointAddr::new(SRV, 8092),
                transport,
                PageModel::default(),
            ),
        );
        let mut server = AppHost::new(
            Host::new(cellbricks_net::NodeId(1), Some(SRV)),
            WebServer::new(8091, 8092),
        );
        Driver::new().run_to(
            &mut world,
            &mut [&mut client, &mut server],
            SimTime::from_secs(secs),
        );
        client.app
    }

    #[test]
    fn day_rate_pages_take_about_five_seconds() {
        let app = run(1.16e6, Transport::Tcp, 60);
        assert!(
            app.load_times_s.len() >= 4,
            "{} pages",
            app.load_times_s.len()
        );
        let avg = app.avg_load_time_s();
        assert!((4.0..6.5).contains(&avg), "avg load {avg}s");
    }

    #[test]
    fn night_rate_pages_take_under_two_seconds() {
        let app = run(15.46e6, Transport::Tcp, 60);
        let avg = app.avg_load_time_s();
        assert!((1.2..2.3).contains(&avg), "avg load {avg}s");
    }

    #[test]
    fn mptcp_transport_also_loads_pages() {
        let app = run(15.46e6, Transport::Mptcp, 40);
        assert!(!app.load_times_s.is_empty());
    }
}

//! VoIP: a bidirectional 50 pps RTP-like media stream with E-model MOS.
//!
//! The paper modifies pjsua to use SIP re-INVITE on IP changes (§6.2iv):
//! here the client announces its new address with a re-INVITE datagram
//! after every address change, and the callee always streams to the
//! client's most recently seen address — the same recovery semantics.

use crate::harness::App;
use crate::metrics::mos_from_network;
use cellbricks_epc::wire::{Reader, Writer};
use cellbricks_net::EndpointAddr;
use cellbricks_sim::{SimDuration, SimTime};
use cellbricks_transport::{Host, UdpId};
use std::net::Ipv4Addr;

const FRAME_INTERVAL: SimDuration = SimDuration::from_millis(20);
/// G.711 frame: 160 payload bytes @ 50 pps ≈ 64 kbit/s + headers.
const FRAME_BYTES: usize = 160;

/// Receive-side stream statistics.
#[derive(Clone, Debug, Default)]
pub struct StreamStats {
    /// Frames received.
    pub received: u64,
    /// Highest sequence seen + 1 (expected count).
    pub expected: u64,
    /// Sum of one-way delays, ms.
    delay_sum: f64,
    /// Sum of |delay delta| between consecutive frames (jitter), ms.
    jitter_sum: f64,
    last_delay: Option<f64>,
}

impl StreamStats {
    fn on_frame(&mut self, seq: u64, delay_ms: f64) {
        self.received += 1;
        self.expected = self.expected.max(seq + 1);
        self.delay_sum += delay_ms;
        if let Some(last) = self.last_delay {
            self.jitter_sum += (delay_ms - last).abs();
        }
        self.last_delay = Some(delay_ms);
    }

    /// Fraction of frames lost.
    #[must_use]
    pub fn loss(&self) -> f64 {
        if self.expected == 0 {
            return 0.0;
        }
        1.0 - self.received as f64 / self.expected as f64
    }

    /// Mean one-way delay, ms.
    #[must_use]
    pub fn mean_delay_ms(&self) -> f64 {
        if self.received == 0 {
            return 0.0;
        }
        self.delay_sum / self.received as f64
    }

    /// Mean jitter, ms.
    #[must_use]
    pub fn mean_jitter_ms(&self) -> f64 {
        if self.received < 2 {
            return 0.0;
        }
        self.jitter_sum / (self.received - 1) as f64
    }

    /// The call's MOS from these measurements.
    #[must_use]
    pub fn mos(&self) -> f64 {
        mos_from_network(self.mean_delay_ms(), self.mean_jitter_ms(), self.loss())
    }
}

/// One side of the call. The *caller* (UE) knows the callee's address;
/// the *callee* learns the caller's address from incoming traffic
/// (re-INVITE semantics).
pub struct VoipPeer {
    /// Fixed peer address (caller side); None for the callee.
    peer: Option<EndpointAddr>,
    /// Latest peer address learned from traffic (callee side).
    learned_peer: Option<EndpointAddr>,
    port: u16,
    sock: Option<UdpId>,
    next_seq: u64,
    next_frame: SimTime,
    last_addr: Option<Ipv4Addr>,
    /// Receive statistics (this side's listening experience).
    pub stats: StreamStats,
}

impl VoipPeer {
    /// The caller (UE side), streaming to `callee`.
    #[must_use]
    pub fn caller(callee: EndpointAddr, port: u16) -> Self {
        Self {
            peer: Some(callee),
            learned_peer: None,
            port,
            sock: None,
            next_seq: 0,
            next_frame: SimTime::ZERO,
            last_addr: None,
            stats: StreamStats::default(),
        }
    }

    /// The callee (server side), listening on `port`.
    #[must_use]
    pub fn callee(port: u16) -> Self {
        Self {
            peer: None,
            learned_peer: None,
            port,
            sock: None,
            next_seq: 0,
            next_frame: SimTime::ZERO,
            last_addr: None,
            stats: StreamStats::default(),
        }
    }

    fn target(&self) -> Option<EndpointAddr> {
        self.peer.or(self.learned_peer)
    }
}

impl App for VoipPeer {
    fn start(&mut self, now: SimTime, host: &mut Host) {
        self.sock = Some(host.udp_bind(self.port));
        self.next_frame = now;
        self.last_addr = host.addr();
    }

    fn on_activity(&mut self, now: SimTime, host: &mut Host) {
        let Some(sock) = self.sock else { return };
        // Receive media; learn/refresh the peer address (re-INVITE).
        for (at, from, payload, _pad) in host.udp_recv(sock) {
            self.learned_peer = Some(from);
            let mut r = Reader::new(&payload);
            let (Some(seq), Some(sent_ns)) = (r.get_u64(), r.get_u64()) else {
                continue; // A bare re-INVITE announcement.
            };
            let delay = at.since(SimTime::from_nanos(sent_ns)).as_millis_f64();
            self.stats.on_frame(seq, delay);
        }
        // On an address change, the caller re-INVITEs so the callee
        // re-targets its media immediately.
        let addr = host.addr();
        if addr != self.last_addr {
            self.last_addr = addr;
            if addr.is_some() && self.peer.is_some() {
                if let Some(target) = self.target() {
                    let mut w = Writer::new();
                    w.put_fixed(b"INVITE  "); // 8-byte marker, no seq.
                    host.udp_send(sock, target, w.finish().slice(0..6));
                }
            }
        }
        // Stream frames on schedule. Frames during an outage are dropped
        // at the host (no address) — exactly the loss a real call sees.
        while now >= self.next_frame {
            if let Some(target) = self.target() {
                let mut w = Writer::new();
                w.put_u64(self.next_seq).put_u64(self.next_frame.as_nanos());
                w.put_fixed(&[0u8; FRAME_BYTES - 16]);
                host.udp_send(sock, target, w.finish());
                self.next_seq += 1;
            }
            self.next_frame += FRAME_INTERVAL;
        }
    }

    fn tick(&self) -> SimDuration {
        FRAME_INTERVAL
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::AppHost;
    use cellbricks_net::{Driver, LinkConfig, NetWorld, Topology};
    use cellbricks_sim::SimRng;

    const UE: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const UE2: Ipv4Addr = Ipv4Addr::new(10, 0, 7, 1);
    const SRV: Ipv4Addr = Ipv4Addr::new(1, 1, 1, 1);

    fn setup() -> (NetWorld, AppHost<VoipPeer>, AppHost<VoipPeer>) {
        let mut t = Topology::new();
        let a = t.add_node("ue");
        let b = t.add_node("server");
        let l = t.add_symmetric_link(a, b, LinkConfig::delay_only(SimDuration::from_millis(23)));
        t.add_default_route(a, l);
        t.add_default_route(b, l);
        let world = NetWorld::new(t, SimRng::new(1));
        let caller = AppHost::new(
            Host::new(a, Some(UE)),
            VoipPeer::caller(EndpointAddr::new(SRV, 4000), 4000),
        );
        let callee = AppHost::new(Host::new(b, Some(SRV)), VoipPeer::callee(4000));
        (world, caller, callee)
    }

    #[test]
    fn clean_call_scores_high_mos() {
        let (mut world, mut caller, mut callee) = setup();
        Driver::new().run_to(
            &mut world,
            &mut [&mut caller, &mut callee],
            SimTime::from_secs(30),
        );
        // Both directions flow.
        assert!(callee.app.stats.received > 1000);
        assert!(caller.app.stats.received > 1000);
        let mos = caller.app.stats.mos();
        assert!((4.25..4.45).contains(&mos), "mos {mos}");
        assert!(caller.app.stats.loss() < 0.01);
        assert!((caller.app.stats.mean_delay_ms() - 23.0).abs() < 2.0);
    }

    #[test]
    fn ip_change_recovers_via_reinvite() {
        let (mut world, mut caller, mut callee) = setup();
        let mut driver = Driver::new();
        driver.run_to(
            &mut world,
            &mut [&mut caller, &mut callee],
            SimTime::from_secs(10),
        );
        let t0 = SimTime::from_secs(10);
        caller.host.invalidate_addr(t0);
        driver.run_to(
            &mut world,
            &mut [&mut caller, &mut callee],
            t0 + SimDuration::from_millis(40),
        );
        caller
            .host
            .assign_addr(t0 + SimDuration::from_millis(40), UE2);
        let before = caller.app.stats.received;
        driver.run_to(
            &mut world,
            &mut [&mut caller, &mut callee],
            SimTime::from_secs(20),
        );
        // Media resumed to the new address in both directions.
        assert!(
            caller.app.stats.received > before + 400,
            "caller resumed receiving"
        );
        // Only a brief loss burst around the change.
        assert!(
            caller.app.stats.loss() < 0.05,
            "loss {}",
            caller.app.stats.loss()
        );
    }
}

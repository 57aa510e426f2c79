//! The baseline UE's NAS client (the srsUE-equivalent control plane).
//!
//! Drives the standard attach: AttachRequest → EPS-AKA challenge/response
//! → security mode → AttachAccept, recording end-to-end attach latency
//! for the Fig. 7 benchmark (the paper measures "from when the UE issues
//! an attachment request to when attachment completes", with radio-layer
//! time excluded — our radio links carry only the configured latencies).

use crate::aka::{derive_nas_int_key, nas_mac, ue_respond, SharedKey};
use crate::nas::NasMessage;
use cellbricks_net::{ControlEndpoint, ControlParty, ControlPort, NodeId, Packet, PacketKind};
use cellbricks_sim::{SimDuration, SimTime, Summary};
use cellbricks_telemetry as telemetry;
use std::net::Ipv4Addr;

/// UE NAS configuration.
#[derive(Clone, Debug)]
pub struct UeNasConfig {
    /// Subscriber identity.
    pub imsi: u64,
    /// SIM shared key.
    pub key: SharedKey,
    /// The UE's signalling address.
    pub ue_sig: Ipv4Addr,
    /// The serving AGW's signalling address.
    pub agw_sig: Ipv4Addr,
    /// Per-message UE processing delay.
    pub proc_delay: SimDuration,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum State {
    Idle,
    AwaitingChallenge,
    AwaitingSmc,
    AwaitingAccept,
    Attached,
}

/// The baseline UE NAS client; its port bills each NAS message it sends
/// during an attach.
pub struct UeNas {
    port: ControlPort,
    cfg: UeNasConfig,
    state: State,
    kasme: Option<[u8; 32]>,
    /// The address assigned at attach, if attached.
    pub ue_ip: Option<Ipv4Addr>,
    attach_started: Option<SimTime>,
    /// Attach latency samples (milliseconds).
    pub attach_latency_ms: Summary,
    /// Latency of the most recent successful attach.
    pub last_attach_latency: Option<SimDuration>,
    /// Attach failures observed.
    pub failures: u64,
}

impl UeNas {
    /// Create the UE NAS client on `node`.
    #[must_use]
    pub fn new(node: NodeId, cfg: UeNasConfig) -> ControlEndpoint<Self> {
        ControlEndpoint::new(Self {
            port: ControlPort::new(node, cfg.proc_delay),
            cfg,
            state: State::Idle,
            kasme: None,
            ue_ip: None,
            attach_started: None,
            attach_latency_ms: Summary::new(),
            last_attach_latency: None,
            failures: 0,
        })
    }

    /// True once attached.
    #[must_use]
    pub fn is_attached(&self) -> bool {
        self.state == State::Attached
    }

    /// Begin an attach; latency is measured from this instant.
    pub fn start_attach(&mut self, now: SimTime) {
        self.state = State::AwaitingChallenge;
        self.ue_ip = None;
        self.kasme = None;
        self.attach_started = Some(now);
        self.emit(
            now,
            NasMessage::AttachRequest {
                imsi: self.cfg.imsi,
                ue_sig: self.cfg.ue_sig,
            },
        );
    }

    /// Begin a detach.
    pub fn start_detach(&mut self, now: SimTime) {
        self.state = State::Idle;
        self.ue_ip = None;
        self.emit(
            now,
            NasMessage::DetachRequest {
                imsi: self.cfg.imsi,
            },
        );
    }

    fn emit(&mut self, now: SimTime, msg: NasMessage) {
        let pkt = Packet::control(self.cfg.ue_sig, self.cfg.agw_sig, msg.encode());
        self.port.send(now, pkt);
    }
}

impl ControlParty for UeNas {
    cellbricks_net::port_field!();

    fn on_packet(&mut self, now: SimTime, pkt: Packet, _out: &mut Vec<Packet>) {
        let PacketKind::Control(bytes) = &pkt.kind else {
            return;
        };
        let Some(msg) = NasMessage::decode(bytes) else {
            return;
        };
        match msg {
            NasMessage::AuthenticationRequest { imsi, rand, autn } => {
                if imsi != self.cfg.imsi || self.state != State::AwaitingChallenge {
                    return;
                }
                match ue_respond(&self.cfg.key, &rand, &autn) {
                    Some((res, kasme)) => {
                        self.kasme = Some(kasme);
                        self.state = State::AwaitingSmc;
                        self.emit(now, NasMessage::AuthenticationResponse { imsi, res });
                    }
                    None => {
                        // Network failed mutual authentication.
                        self.failures += 1;
                        self.state = State::Idle;
                    }
                }
            }
            NasMessage::SecurityModeCommand { imsi, mac } => {
                if imsi != self.cfg.imsi || self.state != State::AwaitingSmc {
                    return;
                }
                let Some(kasme) = self.kasme else { return };
                let k_int = derive_nas_int_key(&kasme);
                if !cellbricks_crypto::ct_eq(&mac, &nas_mac(&k_int, b"security-mode-command")) {
                    self.failures += 1;
                    self.state = State::Idle;
                    return;
                }
                self.state = State::AwaitingAccept;
                let reply_mac = nas_mac(&k_int, b"security-mode-complete");
                self.emit(
                    now,
                    NasMessage::SecurityModeComplete {
                        imsi,
                        mac: reply_mac,
                    },
                );
            }
            NasMessage::AttachAccept { imsi, ue_ip, .. } => {
                if imsi != self.cfg.imsi || self.state != State::AwaitingAccept {
                    return;
                }
                self.state = State::Attached;
                self.ue_ip = Some(ue_ip);
                if let Some(started) = self.attach_started.take() {
                    let latency = now.since(started);
                    self.last_attach_latency = Some(latency);
                    self.attach_latency_ms.record(latency.as_millis_f64());
                    telemetry::histogram("epc.nas.attach_latency_ns").record(latency.as_nanos());
                    telemetry::trace_span(
                        "nas.attach",
                        "nas",
                        started.as_nanos(),
                        now.as_nanos(),
                        0,
                    );
                }
                // The completion ACK is post-measurement signalling: it is
                // still delayed by the UE's processing time but not billed
                // to the Fig. 7 attach-window accounting.
                let pkt = Packet::control(
                    self.cfg.ue_sig,
                    self.cfg.agw_sig,
                    NasMessage::AttachComplete { imsi }.encode(),
                );
                self.port.send_unbilled(now, pkt);
            }
            NasMessage::AttachReject { imsi, .. } if imsi == self.cfg.imsi => {
                self.failures += 1;
                self.state = State::Idle;
            }
            NasMessage::DetachAccept { .. } => {}
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agw::{Agw, AgwConfig};
    use crate::enb::Enb;
    use crate::subscriber_db::SubscriberDb;
    use cellbricks_net::{Driver, LinkConfig, NetWorld, Topology};
    use cellbricks_sim::SimRng;

    const UE_SIG: Ipv4Addr = Ipv4Addr::new(169, 254, 0, 1);
    const AGW_SIG: Ipv4Addr = Ipv4Addr::new(172, 16, 1, 1);
    const SDB_IP: Ipv4Addr = Ipv4Addr::new(172, 16, 0, 1);
    const SIM_KEY: SharedKey = SharedKey([7; 16]);

    /// The full baseline testbed: UE — eNB — AGW — (cloud) SDB, the HSS
    /// holding IMSI 42 under `SIM_KEY`.
    struct Testbed {
        world: NetWorld,
        ue: ControlEndpoint<UeNas>,
        enb: ControlEndpoint<Enb>,
        agw: ControlEndpoint<Agw>,
        sdb: ControlEndpoint<SubscriberDb>,
    }

    impl Testbed {
        fn run(&mut self, from: SimTime, until: SimTime) {
            let Self {
                world,
                ue,
                enb,
                agw,
                sdb,
            } = self;
            Driver::starting_at(from).run_to(world, &mut [ue, enb, agw, sdb], until);
        }
    }

    /// The testbed with a UE whose SIM holds `imsi` under `key`.
    fn testbed(cloud_latency: SimDuration, imsi: u64, key: SharedKey) -> Testbed {
        let mut t = Topology::new();
        let ue = t.add_node("ue");
        let enb = t.add_node("enb");
        let agw = t.add_node("agw");
        let cloud = t.add_node("cloud");
        let hop = LinkConfig::delay_only(SimDuration::from_micros(100));
        let l_radio = t.add_symmetric_link(ue, enb, hop.clone());
        let l_back = t.add_symmetric_link(enb, agw, hop);
        let l_cloud = t.add_symmetric_link(agw, cloud, LinkConfig::delay_only(cloud_latency));
        t.add_default_route(ue, l_radio);
        t.add_route(enb, UE_SIG, 32, l_radio);
        t.add_default_route(enb, l_back);
        t.add_route(agw, UE_SIG, 32, l_back);
        t.add_default_route(agw, l_cloud);
        t.add_default_route(cloud, l_cloud);

        let ue_cfg = UeNasConfig {
            imsi,
            key,
            ue_sig: UE_SIG,
            agw_sig: AGW_SIG,
            proc_delay: SimDuration::from_micros(1500),
        };
        let agw_cfg = AgwConfig {
            sig_ip: AGW_SIG,
            sdb_ip: SDB_IP,
            pool_base: Ipv4Addr::new(10, 1, 0, 0),
            proc_delay: SimDuration::from_micros(3000),
        };
        let sdb_delay = SimDuration::from_micros(2500);
        let mut sdb = SubscriberDb::new(cloud, SDB_IP, sdb_delay, SimRng::new(4));
        sdb.provision(42, SIM_KEY);
        Testbed {
            world: NetWorld::new(t, SimRng::new(3)),
            ue: UeNas::new(ue, ue_cfg),
            enb: Enb::new(enb, SimDuration::from_micros(500)),
            agw: Agw::new(agw, agw_cfg),
            sdb,
        }
    }

    /// Attach with IMSI 42 over a cloud link of `cloud_latency`.
    fn attached(cloud_latency: SimDuration) -> Testbed {
        let mut tb = testbed(cloud_latency, 42, SIM_KEY);
        tb.ue.start_attach(SimTime::ZERO);
        tb.run(SimTime::ZERO, SimTime::from_secs(1));
        tb
    }

    #[test]
    fn full_baseline_attach_end_to_end() {
        let tb = attached(SimDuration::from_millis(4));
        assert!(tb.ue.is_attached());
        assert_eq!(tb.ue.ue_ip, Some(Ipv4Addr::new(10, 1, 0, 2)));
        assert_eq!(tb.agw.attach_count, 1);
        assert_eq!(tb.sdb.air_count, 1);
        assert_eq!(tb.sdb.ulr_count, 1, "baseline uses the second round trip");
        assert_eq!(tb.ue.failures, 0);
        assert_eq!(tb.ue.attach_latency_ms.count(), 1);
    }

    #[test]
    fn attach_latency_scales_with_cloud_rtt() {
        let near = attached(SimDuration::from_millis(1))
            .ue
            .attach_latency_ms
            .mean();
        let far = attached(SimDuration::from_millis(35))
            .ue
            .attach_latency_ms
            .mean();
        // Two S6A round trips: moving the HSS 34 ms further should add
        // ~4 × 34 ms of one-way latency = ~136 ms.
        let delta = far - near;
        assert!(
            (delta - 136.0).abs() < 2.0,
            "near {near:.2} ms, far {far:.2} ms, delta {delta:.2}"
        );
    }

    #[test]
    fn unknown_subscriber_rejected() {
        // IMSI 999 is not provisioned.
        let mut tb = testbed(SimDuration::from_millis(1), 999, SharedKey([9; 16]));
        tb.ue.start_attach(SimTime::ZERO);
        tb.run(SimTime::ZERO, SimTime::from_secs(2));
        assert!(!tb.ue.is_attached());
        assert_eq!(tb.ue.failures, 1);
        assert_eq!(tb.agw.reject_count, 1);
    }

    #[test]
    fn wrong_sim_key_fails_mutual_auth() {
        // The HSS holds `SIM_KEY` ([7; 16]) for IMSI 42.
        let mut tb = testbed(SimDuration::from_millis(1), 42, SharedKey([8; 16]));
        tb.ue.start_attach(SimTime::ZERO);
        tb.run(SimTime::ZERO, SimTime::from_secs(2));
        // The UE rejects the network's AUTN (computed under a key the UE
        // doesn't hold) — mutual authentication fails at the UE side.
        assert!(!tb.ue.is_attached());
        assert_eq!(tb.ue.failures, 1);
    }

    #[test]
    fn detach_releases_bearer() {
        let mut tb = attached(SimDuration::from_millis(1));
        assert_eq!(tb.agw.bearers.len(), 1);
        tb.ue.start_detach(SimTime::from_secs(1));
        tb.run(SimTime::from_secs(1), SimTime::from_secs(2));
        assert_eq!(tb.agw.bearers.len(), 0);
    }
}

//! A complete two-bTelco CellBricks world for integration tests and the
//! flagship example: UE — {eNB₁—AGW₁, eNB₂—AGW₂} — internet — {broker,
//! server}. Every control message and data packet crosses the simulated
//! network; all SAP cryptography is real.

use cellbricks::core::brokerd::{Brokerd, BrokerdConfig};
use cellbricks::core::btelco::{BTelcoGateway, BTelcoGatewayConfig, BrokerContact};
use cellbricks::core::principal::{BrokerKeys, TelcoKeys, UeKeys};
use cellbricks::core::sap::QosCap;
use cellbricks::core::ue::{BrokerReplica, RecoveryConfig, UeDevice, UeDeviceConfig};
use cellbricks::crypto::cert::CertificateAuthority;
use cellbricks::epc::enb::Enb;
use cellbricks::net::{
    ControlEndpoint, Driver, Endpoint, LinkConfig, LinkId, NetWorld, NodeId, Router, Topology,
};
use cellbricks::sim::{SimDuration, SimRng, SimTime};
use cellbricks::transport::Host;
use std::collections::HashMap;
use std::net::Ipv4Addr;

pub const UE_SIG: Ipv4Addr = Ipv4Addr::new(169, 254, 0, 1);
pub const AGW1_SIG: Ipv4Addr = Ipv4Addr::new(172, 16, 1, 1);
pub const AGW2_SIG: Ipv4Addr = Ipv4Addr::new(172, 16, 2, 1);
pub const BROKER_IP: Ipv4Addr = Ipv4Addr::new(172, 16, 0, 1);
pub const SERVER_IP: Ipv4Addr = Ipv4Addr::new(52, 9, 1, 1);

pub const TELCO1: &str = "tower-1.example";
pub const TELCO2: &str = "tower-2.example";
pub const BROKER: &str = "broker.example";

// Different test binaries use different subsets of the harness.
#[allow(dead_code)]
pub struct CellBricksWorld {
    pub world: NetWorld,
    pub ue: ControlEndpoint<UeDevice>,
    pub ue_identity: cellbricks::core::principal::Identity,
    pub enb1: ControlEndpoint<Enb>,
    pub enb2: ControlEndpoint<Enb>,
    pub telco1: ControlEndpoint<BTelcoGateway>,
    pub telco2: ControlEndpoint<BTelcoGateway>,
    pub brokerd: ControlEndpoint<Brokerd>,
    pub internet: Router,
    pub server: Host,
    pub radio1: LinkId,
    pub radio2: LinkId,
    pub cloud: LinkId,
    pub ue_node: NodeId,
    pub agw1_node: NodeId,
    pub agw2_node: NodeId,
    pub broker_node: NodeId,
    pub cursor: SimTime,
    pub driver: Driver,
}

impl CellBricksWorld {
    pub fn build(seed: u64) -> CellBricksWorld {
        Self::build_with_plan(seed, 50_000_000)
    }

    /// A world tuned for chaos testing: the UE recovers on its own —
    /// jittered capped exponential backoff on attach retries, more
    /// retries, and the inactivity watchdog armed so a crashed bTelco is
    /// detected and re-attached without harness help.
    #[allow(dead_code)]
    pub fn build_chaos(seed: u64) -> CellBricksWorld {
        let mut w = Self::build(seed);
        w.ue.set_recovery(RecoveryConfig {
            backoff_factor: 2.0,
            backoff_cap: SimDuration::from_secs(8),
            jitter: 0.1,
            reattach_after: Some(SimDuration::from_secs(2)),
        });
        w
    }

    /// Build with a specific subscriber plan MBR (bits/s).
    pub fn build_with_plan(seed: u64, plan_mbr_bps: u64) -> CellBricksWorld {
        let mut rng = SimRng::new(seed);
        let ca = CertificateAuthority::from_seed([0xCA; 32]);
        let broker_keys = BrokerKeys::generate(BROKER, &ca, &mut rng);
        let telco1_keys = TelcoKeys::generate(TELCO1, &ca, &mut rng);
        let telco2_keys = TelcoKeys::generate(TELCO2, &ca, &mut rng);
        let ue_keys = UeKeys::generate(&mut rng);

        let mut t = Topology::new();
        let ue_node = t.add_node("ue");
        let enb1_node = t.add_node("enb1");
        let enb2_node = t.add_node("enb2");
        let agw1_node = t.add_node("agw1");
        let agw2_node = t.add_node("agw2");
        let inet_node = t.add_node("internet");
        let broker_node = t.add_node("broker");
        let server_node = t.add_node("server");

        let ms = SimDuration::from_millis;
        // Radios: 100 Mbps LTE-like cells.
        let radio_cfg = LinkConfig::fixed_rate(ms(8), 30.0e6, ms(150));
        let radio1 = t.add_symmetric_link(ue_node, enb1_node, radio_cfg.clone());
        let radio2 = t.add_symmetric_link(ue_node, enb2_node, radio_cfg);
        let back1 = t.add_symmetric_link(enb1_node, agw1_node, LinkConfig::delay_only(ms(2)));
        let back2 = t.add_symmetric_link(enb2_node, agw2_node, LinkConfig::delay_only(ms(2)));
        let core1 = t.add_symmetric_link(agw1_node, inet_node, LinkConfig::delay_only(ms(5)));
        let core2 = t.add_symmetric_link(agw2_node, inet_node, LinkConfig::delay_only(ms(5)));
        let cloud = t.add_symmetric_link(inet_node, broker_node, LinkConfig::delay_only(ms(4)));
        let edge = t.add_symmetric_link(inet_node, server_node, LinkConfig::delay_only(ms(3)));

        // UE: default via the first radio (switched on handover).
        t.add_default_route(ue_node, radio1);
        // eNBs relay between the UE and their AGW.
        t.add_route(enb1_node, UE_SIG, 32, radio1);
        t.add_route(enb1_node, Ipv4Addr::new(10, 1, 0, 0), 16, radio1);
        t.add_default_route(enb1_node, back1);
        t.add_route(enb2_node, UE_SIG, 32, radio2);
        t.add_route(enb2_node, Ipv4Addr::new(10, 2, 0, 0), 16, radio2);
        t.add_default_route(enb2_node, back2);
        // AGWs: UE-facing prefixes toward their eNB, everything else up.
        t.add_route(agw1_node, UE_SIG, 32, back1);
        t.add_route(agw1_node, Ipv4Addr::new(10, 1, 0, 0), 16, back1);
        t.add_default_route(agw1_node, core1);
        t.add_route(agw2_node, UE_SIG, 32, back2);
        t.add_route(agw2_node, Ipv4Addr::new(10, 2, 0, 0), 16, back2);
        t.add_default_route(agw2_node, core2);
        // Internet: route by bTelco pool / service addresses.
        t.add_route(inet_node, Ipv4Addr::new(10, 1, 0, 0), 16, core1);
        t.add_route(inet_node, Ipv4Addr::new(10, 2, 0, 0), 16, core2);
        t.add_route(inet_node, AGW1_SIG, 32, core1);
        t.add_route(inet_node, AGW2_SIG, 32, core2);
        t.add_route(inet_node, BROKER_IP, 32, cloud);
        t.add_route(inet_node, SERVER_IP, 32, edge);
        t.add_default_route(broker_node, cloud);
        t.add_default_route(server_node, edge);

        let world = NetWorld::new(t, rng.fork());

        let mut brokerd = Brokerd::new(
            broker_node,
            BrokerdConfig {
                ip: BROKER_IP,
                keys: broker_keys.clone(),
                ca: ca.public_key(),
                proc_delay: SimDuration::from_millis(2),
                // Paper §4.3: ε is "derived from the acceptable link loss
                // rate". The PGW meters bytes *before* the radio link, so
                // slow-start overshoot dropped at the radio queue shows up
                // as UE-vs-bTelco discrepancy; 5% covers it.
                epsilon: 0.05,
                session_retention: SimDuration::from_secs(86_400),
            },
            rng.fork(),
        );
        let (sign_pk, encrypt_pk) = ue_keys.public();
        brokerd.provision(ue_keys.identity(), sign_pk, encrypt_pk, plan_mbr_bps);

        let mut brokers = HashMap::new();
        brokers.insert(
            BROKER.to_string(),
            BrokerContact {
                ctrl_ip: BROKER_IP,
                encrypt_pk: broker_keys.encrypt.public_key(),
            },
        );
        let telco_cfg = |sig_ip, pool, keys| BTelcoGatewayConfig {
            sig_ip,
            pool_base: pool,
            keys,
            ca: ca.public_key(),
            brokers: brokers.clone(),
            qos_cap: QosCap {
                max_mbr_bps: 100_000_000,
                qci_supported: vec![9],
                li_capable: true,
            },
            proc_delay: SimDuration::from_millis(2),
            report_interval: SimDuration::from_secs(5),
        };
        let telco1 = BTelcoGateway::new(
            agw1_node,
            telco_cfg(AGW1_SIG, Ipv4Addr::new(10, 1, 0, 0), telco1_keys),
            rng.fork(),
        );
        let telco2 = BTelcoGateway::new(
            agw2_node,
            telco_cfg(AGW2_SIG, Ipv4Addr::new(10, 2, 0, 0), telco2_keys),
            rng.fork(),
        );

        let ue_identity = ue_keys.identity();
        let ue = UeDevice::new(
            ue_node,
            UeDeviceConfig {
                ue_sig: UE_SIG,
                keys: ue_keys,
                broker_name: BROKER.to_string(),
                broker_sign_pk: broker_keys.sign.verifying_key(),
                broker_encrypt_pk: broker_keys.encrypt.public_key(),
                brokers: vec![BrokerReplica {
                    name: BROKER.to_string(),
                    ctrl_ip: BROKER_IP,
                    rtt: SimDuration::ZERO,
                }],
                proc_delay: SimDuration::from_millis(3),
                verify_delay: SimDuration::from_millis(2),
                report_interval: SimDuration::from_secs(5),
                attach_max_tries: 3,
            },
            rng.fork(),
        );

        CellBricksWorld {
            world,
            ue,
            ue_identity,
            enb1: Enb::new(enb1_node, SimDuration::from_micros(500)),
            enb2: Enb::new(enb2_node, SimDuration::from_micros(500)),
            telco1,
            telco2,
            brokerd,
            internet: Router::new(inet_node, SimDuration::ZERO),
            server: Host::new(server_node, Some(SERVER_IP)),
            radio1,
            radio2,
            cloud,
            ue_node,
            agw1_node,
            agw2_node,
            broker_node,
            cursor: SimTime::ZERO,
            driver: Driver::new(),
        }
    }

    /// Advance the whole world to `until`.
    #[allow(dead_code)]
    pub fn run_to(&mut self, until: SimTime) {
        struct ServerEp<'a>(&'a mut Host);
        impl Endpoint for ServerEp<'_> {
            fn node(&self) -> NodeId {
                self.0.node()
            }
            fn handle_packet(
                &mut self,
                now: SimTime,
                pkt: cellbricks::net::Packet,
                out: &mut Vec<cellbricks::net::Packet>,
            ) {
                self.0.handle_packet(now, pkt);
                self.0.drain_out(out);
            }
            fn poll_at(&self) -> Option<SimTime> {
                self.0.poll_at()
            }
            fn poll(&mut self, now: SimTime, out: &mut Vec<cellbricks::net::Packet>) {
                self.0.poll(now);
                self.0.drain_out(out);
            }
        }
        let mut server = ServerEp(&mut self.server);
        self.driver.run_to(
            &mut self.world,
            &mut [
                &mut self.ue,
                &mut self.enb1,
                &mut self.enb2,
                &mut self.telco1,
                &mut self.telco2,
                &mut self.brokerd,
                &mut self.internet,
                &mut server,
            ],
            until,
        );
        self.cursor = until;
    }

    /// The provisioned subscriber's identity.
    #[allow(dead_code)]
    pub fn ue_identity(&self) -> cellbricks::core::principal::Identity {
        self.ue_identity
    }

    /// Point the UE's radio at bTelco 1 or 2 (cell selection outcome).
    #[allow(dead_code)]
    pub fn select_radio(&mut self, telco: u8) {
        let link = if telco == 1 { self.radio1 } else { self.radio2 };
        self.world
            .topology_mut()
            .replace_default_route(self.ue_node, link);
    }
}

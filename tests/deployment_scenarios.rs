//! Deployment-model integration tests for the paper's §3 claims:
//!
//! * **Multi-tenancy** — "a single bTelco cell site can support multiple
//!   brokers": two UEs subscribed to *different* brokers attach through
//!   the same bTelco; authorizations and billing stay isolated.
//! * **Incremental deployment** — "UEs run both legacy and SAP
//!   authentication protocols in a dual-stack mode": one device attaches
//!   to a legacy MNO with EPS-AKA, then to a CellBricks bTelco with SAP,
//!   in the same world, with no change to the legacy side.

use cellbricks::core::brokerd::{Brokerd, BrokerdConfig};
use cellbricks::core::btelco::{BTelcoGateway, BTelcoGatewayConfig, BrokerContact};
use cellbricks::core::principal::{BrokerKeys, TelcoKeys, UeKeys};
use cellbricks::core::sap::QosCap;
use cellbricks::core::scenario::{Brokers, Scenario};
use cellbricks::core::ue::{BrokerReplica, UeDevice, UeDeviceConfig};
use cellbricks::crypto::cert::CertificateAuthority;
use cellbricks::epc::agw::{Agw, AgwConfig};
use cellbricks::epc::aka::SharedKey;
use cellbricks::epc::enb::Enb;
use cellbricks::epc::subscriber_db::SubscriberDb;
use cellbricks::epc::ue_nas::{UeNas, UeNasConfig};
use cellbricks::net::{
    ControlEndpoint, Driver, Endpoint, LinkConfig, NetWorld, NodeId, Packet, Topology,
};
use cellbricks::sim::{SimDuration, SimRng, SimTime};
use std::collections::HashMap;
use std::net::Ipv4Addr;

const AGW_SIG: Ipv4Addr = Ipv4Addr::new(172, 16, 1, 1);

fn qos() -> QosCap {
    QosCap {
        max_mbr_bps: 100_000_000,
        qci_supported: vec![9],
        li_capable: true,
    }
}

#[test]
fn one_btelco_serves_two_brokers() {
    // UE i subscribes to broker i; the bTelco's directory holds both —
    // that is the entire "integration" a multi-tenant bTelco needs.
    let ms = SimDuration::from_millis;
    let mut w = Scenario {
        seed: 21,
        ues: 2,
        brokers: Brokers::Each(vec![ms(3), ms(3)]),
        radio: LinkConfig::delay_only(ms(5)),
        telco_delay: ms(1),
        ..Scenario::default()
    }
    .build();
    for ue in &mut w.ues {
        ue.start_attach(SimTime::ZERO, "tower-1.example", AGW_SIG);
    }
    w.run_to(SimTime::from_secs(2));
    let [ue1, ue2] = &w.ues[..] else {
        unreachable!()
    };
    let [broker_a, broker_b] = &w.brokers[..] else {
        unreachable!()
    };
    let telco = &w.telcos[0];

    // Both users attached through the same tower, each authorized by
    // their own broker; the bTelco holds two isolated bearers.
    assert!(ue1.is_attached());
    assert!(ue2.is_attached());
    assert_eq!(telco.attach_count, 2);
    assert_eq!(broker_a.auth_ok, 1);
    assert_eq!(broker_b.auth_ok, 1);
    assert_eq!(telco.bearers.len(), 2);
    assert_ne!(ue1.host.addr(), ue2.host.addr());
}

/// A dual-stack device: the legacy NAS client and the CellBricks SAP
/// client sharing one node (paper §3.1's incremental-deployment mode).
struct DualStackUe {
    nas: ControlEndpoint<UeNas>,
    sap: ControlEndpoint<UeDevice>,
}

impl Endpoint for DualStackUe {
    fn node(&self) -> NodeId {
        self.nas.node()
    }
    fn handle_packet(&mut self, now: SimTime, pkt: Packet, out: &mut Vec<Packet>) {
        // Both stacks see every packet; each ignores what isn't for it.
        self.nas.handle_packet(now, pkt.clone(), out);
        self.sap.handle_packet(now, pkt, out);
    }
    fn poll_at(&self) -> Option<SimTime> {
        match (self.nas.poll_at(), self.sap.poll_at()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, None) => a,
            (None, b) => b,
        }
    }
    fn poll(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        if self.nas.poll_at().is_some_and(|t| t <= now) {
            self.nas.poll(now, out);
        }
        if self.sap.poll_at().is_some_and(|t| t <= now) {
            self.sap.poll(now, out);
        }
    }
}

/// Built by hand, not as a `core::scenario` world: the legacy MNO's AGW
/// and HSS and the two-stack UE are parties no other world has.
#[test]
fn dual_stack_ue_roams_from_legacy_mno_to_btelco() {
    let mut rng = SimRng::new(22);
    let ca = CertificateAuthority::from_seed([0xCA; 32]);
    let broker_keys = BrokerKeys::generate("broker.example", &ca, &mut rng);
    let telco_keys = TelcoKeys::generate("tower-1.example", &ca, &mut rng);
    let ue_keys = UeKeys::generate(&mut rng);

    const UE_SIG: Ipv4Addr = Ipv4Addr::new(169, 254, 0, 1);
    const MNO_SIG: Ipv4Addr = Ipv4Addr::new(172, 16, 9, 1);
    const SDB_IP: Ipv4Addr = Ipv4Addr::new(172, 16, 9, 2);
    const BROKER_IP: Ipv4Addr = Ipv4Addr::new(172, 16, 0, 1);

    // Topology: UE — eNB — {legacy MNO AGW+HSS, CellBricks bTelco+broker}.
    let mut t = Topology::new();
    let ue_node = t.add_node("ue");
    let enb_node = t.add_node("enb");
    let mno_node = t.add_node("mno-agw");
    let hss_node = t.add_node("hss");
    let agw_node = t.add_node("btelco-agw");
    let cloud = t.add_node("broker");
    let ms = SimDuration::from_millis;
    let radio = t.add_symmetric_link(ue_node, enb_node, LinkConfig::delay_only(ms(5)));
    let to_mno = t.add_symmetric_link(enb_node, mno_node, LinkConfig::delay_only(ms(1)));
    let to_hss = t.add_symmetric_link(mno_node, hss_node, LinkConfig::delay_only(ms(2)));
    let to_bt = t.add_symmetric_link(enb_node, agw_node, LinkConfig::delay_only(ms(1)));
    let to_brk = t.add_symmetric_link(agw_node, cloud, LinkConfig::delay_only(ms(3)));
    t.add_default_route(ue_node, radio);
    t.add_route(enb_node, UE_SIG, 32, radio);
    t.add_route(enb_node, MNO_SIG, 32, to_mno);
    t.add_default_route(enb_node, to_bt);
    t.add_route(mno_node, UE_SIG, 32, to_mno);
    t.add_default_route(mno_node, to_hss);
    t.add_default_route(hss_node, to_hss);
    t.add_route(agw_node, UE_SIG, 32, to_bt);
    t.add_default_route(agw_node, to_brk);
    t.add_default_route(cloud, to_brk);

    // Legacy side, entirely unmodified.
    let mut mno = Agw::new(
        mno_node,
        AgwConfig {
            sig_ip: MNO_SIG,
            sdb_ip: SDB_IP,
            pool_base: Ipv4Addr::new(10, 9, 0, 0),
            proc_delay: ms(2),
        },
    );
    let mut hss = SubscriberDb::new(hss_node, SDB_IP, ms(2), rng.fork());
    hss.provision(4242, SharedKey([7; 16]));

    // CellBricks side.
    let mut brokerd = Brokerd::new(
        cloud,
        BrokerdConfig {
            ip: BROKER_IP,
            keys: broker_keys.clone(),
            ca: ca.public_key(),
            proc_delay: ms(2),
            epsilon: 0.05,
            session_retention: SimDuration::from_secs(86_400),
        },
        rng.fork(),
    );
    let (spk, epk) = ue_keys.public();
    brokerd.provision(ue_keys.identity(), spk, epk, 50_000_000);
    let mut brokers = HashMap::new();
    brokers.insert(
        "broker.example".to_string(),
        BrokerContact {
            ctrl_ip: BROKER_IP,
            encrypt_pk: broker_keys.encrypt.public_key(),
        },
    );
    let mut telco = BTelcoGateway::new(
        agw_node,
        BTelcoGatewayConfig {
            sig_ip: AGW_SIG,
            pool_base: Ipv4Addr::new(10, 1, 0, 0),
            keys: telco_keys,
            ca: ca.public_key(),
            brokers,
            qos_cap: qos(),
            proc_delay: ms(1),
            report_interval: SimDuration::from_secs(3_600),
        },
        rng.fork(),
    );
    let mut enb = Enb::new(enb_node, SimDuration::from_micros(500));

    // The dual-stack device: legacy SIM credentials + broker-issued keys.
    let mut ue = DualStackUe {
        nas: UeNas::new(
            ue_node,
            UeNasConfig {
                imsi: 4242,
                key: SharedKey([7; 16]),
                ue_sig: UE_SIG,
                agw_sig: MNO_SIG,
                proc_delay: ms(1),
            },
        ),
        sap: UeDevice::new(
            ue_node,
            UeDeviceConfig {
                ue_sig: UE_SIG,
                keys: ue_keys,
                broker_name: "broker.example".to_string(),
                broker_sign_pk: broker_keys.sign.verifying_key(),
                broker_encrypt_pk: broker_keys.encrypt.public_key(),
                brokers: vec![BrokerReplica {
                    name: "broker.example".to_string(),
                    ctrl_ip: BROKER_IP,
                    rtt: SimDuration::ZERO,
                }],
                proc_delay: ms(1),
                verify_delay: ms(1),
                report_interval: SimDuration::from_secs(3_600),
                attach_max_tries: 3,
            },
            rng.fork(),
        ),
    };

    let mut world = NetWorld::new(t, rng.fork());

    // Phase 1: attach to the legacy MNO with plain EPS-AKA.
    ue.nas.start_attach(SimTime::ZERO);
    let mut driver = Driver::new();
    driver.run_to(
        &mut world,
        &mut [
            &mut ue,
            &mut enb,
            &mut mno,
            &mut hss,
            &mut telco,
            &mut brokerd,
        ],
        SimTime::from_secs(1),
    );
    assert!(ue.nas.is_attached(), "legacy EPS-AKA attach succeeded");
    assert_eq!(ue.nas.ue_ip.unwrap().octets()[..2], [10, 9], "MNO pool");

    // Phase 2: roam onto a CellBricks bTelco via SAP — the legacy core
    // required no change and is not even aware of it.
    ue.nas.start_detach(SimTime::from_secs(1));
    ue.sap
        .start_attach(SimTime::from_secs(1), "tower-1.example", AGW_SIG);
    driver.run_to(
        &mut world,
        &mut [
            &mut ue,
            &mut enb,
            &mut mno,
            &mut hss,
            &mut telco,
            &mut brokerd,
        ],
        SimTime::from_secs(2),
    );
    assert!(
        ue.sap.is_attached(),
        "SAP attach succeeded alongside legacy"
    );
    assert_eq!(
        ue.sap.host.addr().unwrap().octets()[..2],
        [10, 1],
        "bTelco pool"
    );
    assert_eq!(mno.bearers.len(), 0, "legacy bearer released");
    assert_eq!(telco.attach_count, 1);
    assert_eq!(brokerd.auth_ok, 1);
}

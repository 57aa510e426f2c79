//! Broker failover (paper §3: the broker is "a replicated web service").
//!
//! N UEs attach at once through one bTelco to the broker's replica pair
//! in the cloud: a primary on a 2 ms link and a standby on a 5 ms link,
//! over one shared store, so lowest-RTT selection sends every request to
//! the primary. The primary goes `Unavailable` 50 ms into the burst
//! (after the first requests are committed to it, before its replies
//! escape) and stays dark longer than every retry. The burst must still
//! complete with **zero failed attaches**: the UE retry timer
//! quarantines the dark replica and re-resolves on the standby, which
//! serves from the shared store.
//!
//! Gauges land in `results/exp_broker.metrics.json`:
//! `exp_broker.kill.failed_attaches` (CI-gated to 0),
//! `exp_broker.kill.attached`, `exp_broker.kill.standby_auths`.
//!
//! Usage: `cargo run --release -p cellbricks-bench --bin exp_broker
//!         [--seed S] [--n N]`

use cellbricks_core::broker_plane::{BrokerPair, BrokerPairConfig, ReplicaSite};
use cellbricks_core::btelco::{BTelcoGateway, BTelcoGatewayConfig};
use cellbricks_core::principal::{BrokerKeys, TelcoKeys, UeKeys};
use cellbricks_core::sap::QosCap;
use cellbricks_core::ue::{UeDevice, UeDeviceConfig};
use cellbricks_crypto::cert::CertificateAuthority;
use cellbricks_epc::enb::Enb;
use cellbricks_net::{Driver, Endpoint, FaultPlan, LinkConfig, NetWorld, Router, Topology};
use cellbricks_sim::{SimDuration, SimRng, SimTime};
use cellbricks_telemetry as telemetry;
use std::net::Ipv4Addr;

const AGW_SIG: Ipv4Addr = Ipv4Addr::new(172, 16, 1, 1);
const TELCO: &str = "tower-1.example";

fn main() {
    cellbricks_bench::telemetry_init();
    let seed = cellbricks_bench::arg_u64("--seed", 42);
    let n = cellbricks_bench::arg_u64("--n", 240) as usize;

    let mut rng = SimRng::new(seed);
    let ca = CertificateAuthority::from_seed([0xCA; 32]);
    let broker_keys = BrokerKeys::generate("broker.example", &ca, &mut rng);
    let telco_keys = TelcoKeys::generate(TELCO, &ca, &mut rng);
    let ms = SimDuration::from_millis;

    let mut t = Topology::new();
    let enb_node = t.add_node("enb");
    let agw_node = t.add_node("agw");
    let inet_node = t.add_node("inet");
    let back = t.add_symmetric_link(enb_node, agw_node, LinkConfig::delay_only(ms(1)));
    let core = t.add_symmetric_link(agw_node, inet_node, LinkConfig::delay_only(ms(2)));
    t.add_default_route(enb_node, back);
    t.add_default_route(agw_node, core);
    t.add_route(inet_node, AGW_SIG, 32, core);
    let mut site = |tag: &str, ip_last: u8, latency| {
        let node = t.add_node(tag);
        let ip = Ipv4Addr::new(172, 16, 10, ip_last);
        let link = t.add_symmetric_link(inet_node, node, LinkConfig::delay_only(latency));
        t.add_route(inet_node, ip, 32, link);
        t.add_default_route(node, link);
        ReplicaSite { node, ip }
    };
    let primary = site("broker-a", 1, ms(2));
    let standby = site("broker-b", 2, ms(5));

    let mut pair = BrokerPair::build(
        BrokerPairConfig {
            base_name: "broker.example".to_string(),
            keys: broker_keys.clone(),
            ca: ca.public_key(),
            proc_delay: ms(2),
            epsilon: 0.05,
            session_retention: SimDuration::from_secs(86_400),
        },
        primary,
        standby,
        &mut rng,
    );

    let mut telco = BTelcoGateway::new(
        agw_node,
        BTelcoGatewayConfig {
            sig_ip: AGW_SIG,
            pool_base: Ipv4Addr::new(10, 1, 0, 0),
            keys: telco_keys,
            ca: ca.public_key(),
            brokers: pair.directory(),
            qos_cap: QosCap {
                max_mbr_bps: 100_000_000,
                qci_supported: vec![9],
                li_capable: true,
            },
            proc_delay: SimDuration::from_micros(500),
            report_interval: SimDuration::from_secs(3_600),
        },
        rng.fork(),
    );
    let mut enb = Enb::new(enb_node, SimDuration::from_micros(100));

    let mut ues = Vec::with_capacity(n);
    for i in 0..n {
        let ue_sig = Ipv4Addr::new(169, 254, (i / 250) as u8 + 1, (i % 250) as u8 + 1);
        let ue_node = t.add_node(&format!("ue{i}"));
        let radio = t.add_symmetric_link(ue_node, enb_node, LinkConfig::delay_only(ms(4)));
        t.add_default_route(ue_node, radio);
        t.add_route(enb_node, ue_sig, 32, radio);
        t.add_route(agw_node, ue_sig, 32, back);

        let keys = UeKeys::generate(&mut rng);
        let (sign_pk, encrypt_pk) = keys.public();
        pair.provision(keys.identity(), sign_pk, encrypt_pk, 50_000_000);
        let brokers =
            pair.ue_replicas(|node| t.path_latency(ue_node, node).expect("replica reachable"));
        let mut ue = UeDevice::new(
            ue_node,
            UeDeviceConfig {
                ue_sig,
                keys,
                broker_name: "broker.example".to_string(),
                broker_sign_pk: broker_keys.sign.verifying_key(),
                broker_encrypt_pk: broker_keys.encrypt.public_key(),
                brokers,
                proc_delay: SimDuration::from_millis(1),
                verify_delay: SimDuration::from_millis(1),
                report_interval: SimDuration::from_secs(3_600),
                attach_max_tries: 5,
            },
            rng.fork(),
        );
        ue.start_attach(SimTime::ZERO, TELCO, AGW_SIG);
        ues.push(ue);
    }

    let mut world = NetWorld::new(t, rng.fork());
    let mut internet = Router::new(inet_node, SimDuration::ZERO);
    let mut driver = Driver::new();
    let mut plan = FaultPlan::new();
    plan.unavailable(
        primary.node,
        SimTime::from_millis(50),
        SimDuration::from_secs(120),
    );
    driver.set_fault_plan(plan);
    let mut endpoints: Vec<&mut dyn Endpoint> = vec![&mut enb, &mut telco, &mut internet];
    for b in pair.endpoints_mut() {
        endpoints.push(b);
    }
    for ue in &mut ues {
        endpoints.push(ue);
    }
    driver.run_to(&mut world, &mut endpoints, SimTime::from_secs(30));

    let attached = ues.iter().filter(|u| u.is_attached()).count();
    let failed: u64 = ues.iter().map(|u| u.failures).sum();
    let stale: u64 = ues.iter().map(|u| u.stale_accepts).sum();
    let (primary_auths, standby_auths) = (pair.primary.auth_ok, pair.standby.auth_ok);
    telemetry::gauge("exp_broker.kill.failed_attaches").set(failed as i64);
    telemetry::gauge("exp_broker.kill.attached").set(attached as i64);
    telemetry::gauge("exp_broker.kill.standby_auths").set(standby_auths as i64);

    println!("Broker failover — primary dark from 50 ms for 120 s (N={n})");
    println!(
        "  attached {attached}/{n} · failed attaches {failed} · standby auths {standby_auths} · \
         stale replies absorbed {stale}"
    );
    assert_eq!(attached, n, "the burst must still complete");
    assert_eq!(failed, 0, "failover must not fail an attach");
    // Anyone who beat the 50 ms kill attached on the primary; everyone
    // still in flight must have re-resolved on the standby.
    assert!(standby_auths >= 1, "failover must actually engage");
    assert!(
        (primary_auths + standby_auths) as usize >= n,
        "every UE authorized on one of the replicas"
    );
    println!("  zero failed attaches: replica failover covered the outage.");

    cellbricks_bench::telemetry_finish("exp_broker");
}

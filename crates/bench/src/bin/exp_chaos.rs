//! Chaos: scripted faults against a full UE—bTelco—broker—server world,
//! measuring whether — and how fast — the stack converges back to
//! steady state.
//!
//! The paper argues CellBricks keeps sessions alive across exactly the
//! events that are rare in a monolithic MNO but *routine* in a market of
//! small independent bTelcos: towers crash, backhauls flap, the broker —
//! an ordinary web service — has outages (§4.2, Fig. 8). Each phase here
//! injects one fault class from a deterministic [`FaultPlan`] while an
//! MPTCP bulk download runs, then checks convergence: the UE re-attached
//! on its own (capped exponential backoff + inactivity watchdog) and the
//! transfer is moving again.
//!
//! | phase | fault | recovery mechanism exercised |
//! |-------|-------|------------------------------|
//! | `link_flap` | 3 radio outages | TCP loss recovery, watchdog held off |
//! | `burst_loss` | Gilbert–Elliott window | burst-loss drops + cwnd recovery |
//! | `telco_crash` | AGW crash+restart, state lost | watchdog re-attach, subflow re-join |
//! | `broker_outage` | broker dark at attach time | capped-backoff retry + re-attach cycle |
//!
//! The `fault.unrecovered` counter is the CI gate: it counts phases that
//! failed to converge and must be zero in `results/exp_chaos.metrics.json`.
//!
//! Usage: `cargo run --release -p cellbricks-bench --bin exp_chaos
//!         [--seed S] [--smoke]`

use cellbricks_core::brokerd::{Brokerd, BrokerdConfig};
use cellbricks_core::btelco::{BTelcoGateway, BTelcoGatewayConfig, BrokerContact};
use cellbricks_core::principal::{BrokerKeys, TelcoKeys, UeKeys};
use cellbricks_core::sap::QosCap;
use cellbricks_core::ue::{BrokerReplica, RecoveryConfig, UeDevice, UeDeviceConfig};
use cellbricks_crypto::cert::CertificateAuthority;
use cellbricks_epc::enb::Enb;
use cellbricks_net::{
    BurstLoss, Driver, Endpoint, EndpointAddr, FaultPlan, LinkConfig, LinkId, NetWorld, NodeId,
    Packet, Router, Topology,
};
use cellbricks_sim::{SimDuration, SimRng, SimTime};
use cellbricks_telemetry as telemetry;
use cellbricks_transport::{Host, MpId};
use std::collections::HashMap;
use std::net::Ipv4Addr;

const UE_SIG: Ipv4Addr = Ipv4Addr::new(169, 254, 0, 1);
const AGW_SIG: Ipv4Addr = Ipv4Addr::new(172, 16, 1, 1);
const BROKER_IP: Ipv4Addr = Ipv4Addr::new(172, 16, 0, 1);
const SERVER_IP: Ipv4Addr = Ipv4Addr::new(52, 9, 1, 1);
const TELCO: &str = "tower-1.example";
const BROKER: &str = "broker.example";

/// One UE — eNB — AGW — internet — {broker, server} world with a radio
/// link faults can be scripted against.
struct ChaosWorld {
    world: NetWorld,
    ue: UeDevice,
    enb: Enb,
    telco: BTelcoGateway,
    brokerd: Brokerd,
    internet: Router,
    server: Host,
    radio: LinkId,
    agw_node: NodeId,
    broker_node: NodeId,
    driver: Driver,
    cursor: SimTime,
}

impl ChaosWorld {
    fn build(seed: u64) -> ChaosWorld {
        let mut rng = SimRng::new(seed);
        let ca = CertificateAuthority::from_seed([0xCA; 32]);
        let broker_keys = BrokerKeys::generate(BROKER, &ca, &mut rng);
        let telco_keys = TelcoKeys::generate(TELCO, &ca, &mut rng);
        let ue_keys = UeKeys::generate(&mut rng);

        let ms = SimDuration::from_millis;
        let mut t = Topology::new();
        let ue_node = t.add_node("ue");
        let enb_node = t.add_node("enb");
        let agw_node = t.add_node("agw");
        let inet_node = t.add_node("internet");
        let broker_node = t.add_node("broker");
        let server_node = t.add_node("server");

        let radio = t.add_symmetric_link(
            ue_node,
            enb_node,
            LinkConfig::fixed_rate(ms(8), 30.0e6, ms(150)),
        );
        let back = t.add_symmetric_link(enb_node, agw_node, LinkConfig::delay_only(ms(2)));
        let core = t.add_symmetric_link(agw_node, inet_node, LinkConfig::delay_only(ms(5)));
        let cloud = t.add_symmetric_link(inet_node, broker_node, LinkConfig::delay_only(ms(4)));
        let edge = t.add_symmetric_link(inet_node, server_node, LinkConfig::delay_only(ms(3)));

        t.add_default_route(ue_node, radio);
        t.add_route(enb_node, UE_SIG, 32, radio);
        t.add_route(enb_node, Ipv4Addr::new(10, 1, 0, 0), 16, radio);
        t.add_default_route(enb_node, back);
        t.add_route(agw_node, UE_SIG, 32, back);
        t.add_route(agw_node, Ipv4Addr::new(10, 1, 0, 0), 16, back);
        t.add_default_route(agw_node, core);
        t.add_route(inet_node, Ipv4Addr::new(10, 1, 0, 0), 16, core);
        t.add_route(inet_node, AGW_SIG, 32, core);
        t.add_route(inet_node, BROKER_IP, 32, cloud);
        t.add_route(inet_node, SERVER_IP, 32, edge);
        t.add_default_route(broker_node, cloud);
        t.add_default_route(server_node, edge);

        let mut brokerd = Brokerd::new(
            broker_node,
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
        let (sign_pk, encrypt_pk) = ue_keys.public();
        brokerd.provision(ue_keys.identity(), sign_pk, encrypt_pk, 50_000_000);

        let mut brokers = HashMap::new();
        brokers.insert(
            BROKER.to_string(),
            BrokerContact {
                ctrl_ip: BROKER_IP,
                encrypt_pk: broker_keys.encrypt.public_key(),
            },
        );
        let telco = BTelcoGateway::new(
            agw_node,
            BTelcoGatewayConfig {
                sig_ip: AGW_SIG,
                pool_base: Ipv4Addr::new(10, 1, 0, 0),
                keys: telco_keys,
                ca: ca.public_key(),
                brokers,
                qos_cap: QosCap {
                    max_mbr_bps: 100_000_000,
                    qci_supported: vec![9],
                    li_capable: true,
                },
                proc_delay: ms(2),
                report_interval: SimDuration::from_secs(5),
            },
            rng.fork(),
        );

        let mut ue = UeDevice::new(
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
                proc_delay: ms(3),
                verify_delay: ms(2),
                report_interval: SimDuration::from_secs(5),
                attach_max_tries: 3,
            },
            rng.fork(),
        );
        ue.set_recovery(RecoveryConfig {
            backoff_factor: 2.0,
            backoff_cap: SimDuration::from_secs(8),
            jitter: 0.1,
            reattach_after: Some(SimDuration::from_secs(2)),
        });

        ChaosWorld {
            world: NetWorld::new(t, rng.fork()),
            ue,
            enb: Enb::new(enb_node, SimDuration::from_micros(500)),
            telco,
            brokerd,
            internet: Router::new(inet_node, SimDuration::ZERO),
            server: Host::new(server_node, Some(SERVER_IP)),
            radio,
            agw_node,
            broker_node,
            driver: Driver::new(),
            cursor: SimTime::ZERO,
        }
    }

    fn run_to(&mut self, until: SimTime) {
        struct ServerEp<'a>(&'a mut Host);
        impl Endpoint for ServerEp<'_> {
            fn node(&self) -> NodeId {
                self.0.node()
            }
            fn handle_packet(&mut self, now: SimTime, pkt: Packet, out: &mut Vec<Packet>) {
                self.0.handle_packet(now, pkt);
                self.0.drain_out(out);
            }
            fn poll_at(&self) -> Option<SimTime> {
                self.0.poll_at()
            }
            fn poll(&mut self, now: SimTime, out: &mut Vec<Packet>) {
                self.0.poll(now);
                self.0.drain_out(out);
            }
        }
        let mut server = ServerEp(&mut self.server);
        self.driver.run_to(
            &mut self.world,
            &mut [
                &mut self.ue,
                &mut self.enb,
                &mut self.telco,
                &mut self.brokerd,
                &mut self.internet,
                &mut server,
            ],
            until,
        );
        self.cursor = until;
    }

    /// Attach and start a server→UE bulk download; returns the MP conn.
    fn start_bulk(&mut self) -> MpId {
        self.ue.start_attach(SimTime::ZERO, TELCO, AGW_SIG);
        self.run_to(SimTime::from_secs(1));
        assert!(self.ue.is_attached(), "baseline attach");
        self.server.mp_listen(5001);
        let conn = self
            .ue
            .host
            .mp_connect(self.cursor, EndpointAddr::new(SERVER_IP, 5001));
        self.run_to(SimTime::from_secs(2));
        let sc = self.server.take_accepted_mp()[0];
        self.server.mp_set_bulk(self.cursor, sc);
        conn
    }
}

struct PhaseResult {
    name: &'static str,
    recovered: bool,
    reattaches: u64,
    retries: u64,
    resumed_bytes: u64,
}

/// Three 400 ms radio outages; converged when the transfer moves again.
fn phase_link_flap(seed: u64) -> PhaseResult {
    let mut w = ChaosWorld::build(seed);
    let conn = w.start_bulk();
    w.run_to(SimTime::from_secs(5));
    let mut plan = FaultPlan::new();
    plan.link_flaps(
        w.radio,
        SimTime::from_secs(5),
        3,
        SimDuration::from_millis(400),
        SimDuration::from_millis(600),
    );
    w.driver.set_fault_plan(plan);
    w.run_to(SimTime::from_secs(9));
    let mid = w.ue.host.mp(conn).data_received();
    w.run_to(SimTime::from_secs(14));
    let resumed = w.ue.host.mp(conn).data_received() - mid;
    PhaseResult {
        name: "link_flap",
        recovered: w.ue.is_attached() && resumed > 200_000,
        reattaches: w.ue.watchdog_reattaches,
        retries: w.ue.attach_retries,
        resumed_bytes: resumed,
    }
}

/// A 5 s Gilbert–Elliott window on the radio.
fn phase_burst_loss(seed: u64) -> PhaseResult {
    let mut w = ChaosWorld::build(seed);
    let conn = w.start_bulk();
    w.run_to(SimTime::from_secs(5));
    let drops0 = w.world.link_stats(w.radio).ba_dropped;
    let mut plan = FaultPlan::new();
    plan.burst_loss_window(
        w.radio,
        SimTime::from_secs(5),
        SimTime::from_secs(10),
        BurstLoss::flaky_cell(),
    );
    w.driver.set_fault_plan(plan);
    w.run_to(SimTime::from_secs(10));
    let burst_drops = w.world.link_stats(w.radio).ba_dropped - drops0;
    let mid = w.ue.host.mp(conn).data_received();
    w.run_to(SimTime::from_secs(16));
    let resumed = w.ue.host.mp(conn).data_received() - mid;
    PhaseResult {
        name: "burst_loss",
        recovered: w.ue.is_attached() && burst_drops > 0 && resumed > 200_000,
        reattaches: w.ue.watchdog_reattaches,
        retries: w.ue.attach_retries,
        resumed_bytes: resumed,
    }
}

/// The serving AGW crashes, losing every session, bearer, and meter; the
/// UE's inactivity watchdog must notice and re-attach on its own.
fn phase_telco_crash(seed: u64) -> PhaseResult {
    let mut w = ChaosWorld::build(seed);
    let conn = w.start_bulk();
    w.run_to(SimTime::from_secs(5));
    let mut plan = FaultPlan::new();
    plan.crash_restart(w.agw_node, SimTime::from_secs(5), SimDuration::from_secs(1));
    w.driver.set_fault_plan(plan);
    w.run_to(SimTime::from_secs(20));
    let mid = w.ue.host.mp(conn).data_received();
    w.run_to(SimTime::from_secs(28));
    let resumed = w.ue.host.mp(conn).data_received() - mid;
    PhaseResult {
        name: "telco_crash",
        recovered: w.ue.is_attached()
            && w.ue.watchdog_reattaches >= 1
            && w.telco.crashes == 1
            && resumed > 200_000,
        reattaches: w.ue.watchdog_reattaches,
        retries: w.ue.attach_retries,
        resumed_bytes: resumed,
    }
}

/// The broker is dark for the first 6 s — attach rides the capped
/// exponential backoff until the window ends.
fn phase_broker_outage(seed: u64) -> PhaseResult {
    let mut w = ChaosWorld::build(seed);
    let mut plan = FaultPlan::new();
    plan.unavailable(w.broker_node, SimTime::ZERO, SimDuration::from_secs(6));
    w.driver.set_fault_plan(plan);
    w.ue.start_attach(SimTime::ZERO, TELCO, AGW_SIG);
    w.run_to(SimTime::from_secs(30));
    let retries = w.ue.attach_retries;
    let recovered = w.ue.is_attached() && retries >= 1;

    // Traffic on the recovered session.
    let mut resumed = 0;
    if recovered {
        w.server.mp_listen(5001);
        let conn =
            w.ue.host
                .mp_connect(w.cursor, EndpointAddr::new(SERVER_IP, 5001));
        w.run_to(SimTime::from_secs(32));
        let sc = w.server.take_accepted_mp()[0];
        w.server.mp_set_bulk(w.cursor, sc);
        w.run_to(SimTime::from_secs(36));
        resumed = w.ue.host.mp(conn).data_received();
    }
    PhaseResult {
        name: "broker_outage",
        recovered: recovered && resumed > 200_000,
        reattaches: w.ue.watchdog_reattaches,
        retries,
        resumed_bytes: resumed,
    }
}

fn main() {
    cellbricks_bench::telemetry_init();
    let seed = cellbricks_bench::arg_u64("--seed", 42);
    // The phases are fixed-size; --smoke is accepted for CI-invocation
    // symmetry with the other exp_* binaries.
    let _smoke = std::env::args().any(|a| a == "--smoke");

    // The CI gate: registered up front so a fully green run still writes
    // `"fault.unrecovered":0` into the metrics file.
    let unrecovered = telemetry::counter("fault.unrecovered");

    println!("Chaos — scripted fault injection, convergence per fault class");
    println!("{}", cellbricks_bench::rule(72));
    println!(
        "{:>14} {:>10} {:>11} {:>8} {:>14}",
        "phase", "recovered", "reattaches", "retries", "resumed (B)"
    );
    println!("{}", cellbricks_bench::rule(72));
    let phases: [fn(u64) -> PhaseResult; 4] = [
        phase_link_flap,
        phase_burst_loss,
        phase_telco_crash,
        phase_broker_outage,
    ];
    for phase in phases {
        let r = phase(seed);
        println!(
            "{:>14} {:>10} {:>11} {:>8} {:>14}",
            r.name,
            if r.recovered { "yes" } else { "NO" },
            r.reattaches,
            r.retries,
            r.resumed_bytes
        );
        if !r.recovered {
            unrecovered.inc();
        }
    }
    println!("{}", cellbricks_bench::rule(72));
    println!(
        "reading: every fault class must converge — the UE re-attaches with\n\
         capped exponential backoff (broker outage), the inactivity watchdog\n\
         recovers a crashed bTelco without operator help, and MPTCP re-joins\n\
         its subflow once the interface address returns. `fault.unrecovered`\n\
         counts phases that failed to converge; CI requires it to be zero."
    );
    assert_eq!(unrecovered.get(), 0, "a chaos phase failed to converge");
    cellbricks_bench::telemetry_finish("exp_chaos");
}

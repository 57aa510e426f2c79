//! The flagship demo: a UE drives past two single-tower bTelcos while
//! streaming, and nothing breaks.
//!
//! Everything is real (within the simulator): the SAP handshake crosses
//! the network with actual Ed25519/X25519 cryptography, the bTelco's PGW
//! accounts every byte, MPTCP carries the download across the IP change,
//! and both sides' sealed traffic reports reconcile at the broker.
//!
//! Run with: `cargo run --release --example full_stack_handover`

use cellbricks::core::scenario::{telco_name, telco_sig, Brokers, Scenario, SERVER_IP};
use cellbricks::net::{Endpoint, EndpointAddr, LinkConfig};
use cellbricks::sim::{SimDuration, SimTime};

fn main() {
    let ms = SimDuration::from_millis;
    // UE — {eNB₁—AGW₁, eNB₂—AGW₂} — internet — {broker, server}.
    let mut w = Scenario {
        seed: 0xd01d,
        telcos: 2,
        brokers: Brokers::Each(vec![ms(4)]),
        radio: LinkConfig::fixed_rate(ms(8), 30.0e6, ms(150)),
        backhaul: ms(2),
        core: Some(ms(5)),
        server: Some(ms(3)),
        ue_request: ms(3),
        ue_verify: ms(2),
        telco_delay: ms(2),
        report_interval: SimDuration::from_secs(5),
        ..Scenario::default()
    }
    .build();
    let (telco1, telco2) = (telco_name(0), telco_name(1));

    println!("t=0.0s   UE in range of {telco1}; SAP attach...");
    w.ues[0].start_attach(SimTime::ZERO, &telco1, telco_sig(0));
    w.run_to(SimTime::from_secs(1));
    let ue = &w.ues[0];
    let addr1 = ue.host.addr().expect("attached");
    println!(
        "t=1.0s   attached: IP {addr1} (bTelco 1's pool), attach latency {:.1} ms, session #{}",
        ue.attach_latency_ms.mean(),
        ue.session_id().unwrap()
    );

    println!("t=1.0s   opening an MPTCP download from {SERVER_IP}...");
    let now = SimTime::from_secs(1);
    w.server.as_mut().unwrap().mp_listen(5001);
    let conn = w.ues[0]
        .host
        .mp_connect(now, EndpointAddr::new(SERVER_IP, 5001));
    let now = SimTime::from_secs(2);
    w.run_to(now);
    let server = w.server.as_mut().unwrap();
    let server_conn = server.take_accepted_mp()[0];
    server.mp_set_bulk(now, server_conn);
    let ho = SimTime::from_secs(12);
    w.run_to(ho);
    let before = w.ues[0].host.mp(conn).data_received();
    let bearer = w.telcos[0].bearers.iter().next();
    println!(
        "t=12.0s  {:.2} MB received; PGW-1 counters: DL {} / UL {} bytes",
        before as f64 / 1e6,
        bearer.map_or(0, |b| b.dl_bytes),
        bearer.map_or(0, |b| b.ul_bytes),
    );

    println!("t=12.0s  driving out of range: host-driven handover to {telco2}");
    w.ues[0].detach(ho);
    let ue_node = w.ues[0].node();
    w.net
        .topology_mut()
        .replace_default_route(ue_node, w.radios[1]);
    w.ues[0].start_attach(ho, &telco2, telco_sig(1));
    w.run_to(ho + SimDuration::from_secs(1));
    let addr2 = w.ues[0].host.addr().expect("re-attached");
    println!("t=13.0s  attached to bTelco 2: IP {addr1} → {addr2}; MPTCP address worker armed");

    w.run_to(ho + SimDuration::from_secs(10));
    let ue = &w.ues[0];
    let after = ue.host.mp(conn).data_received();
    println!(
        "t=22.0s  same connection, {:.2} MB total (+{:.2} MB after the switch)",
        after as f64 / 1e6,
        (after - before) as f64 / 1e6
    );
    println!(
        "         subflows created: {} (one per bTelco), alive now: {}",
        ue.host.mp(conn).subflows_created,
        ue.host.mp(conn).alive_subflows()
    );

    // Let a few billing cycles elapse.
    w.run_to(ho + SimDuration::from_secs(25));
    let (ue, brokerd) = (&w.ues[0], &w.brokers[0]);
    println!(
        "t=37.0s  broker cross-checked {} billing cycle(s); bad reports: {}",
        brokerd.cycles_checked, brokerd.bad_reports
    );
    let telco_id = ue.serving_telco().unwrap();
    // One guard: `reputation()` locks the broker's store.
    let reputation = brokerd.reputation();
    println!(
        "         serving bTelco reputation: {:.2} (mismatches: {})",
        reputation.score(telco_id),
        reputation.mismatches(telco_id)
    );
    drop(reputation);
    if let Some(session) = ue.session_id() {
        if let Some((dl, ul)) = brokerd.settled_bytes(session) {
            println!(
                "         session #{session} settled so far: DL {:.2} MB / UL {:.1} kB",
                dl as f64 / 1e6,
                ul as f64 / 1e3
            );
        }
    }
    println!("\nTwo untrusted single-tower operators served one user mid-download,");
    println!("with no roaming agreement, no IMSI exposure, and verifiable billing.");
}

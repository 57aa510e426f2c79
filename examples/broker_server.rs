//! `brokerd` as a real network service: the same SAP wire protocol the
//! simulator uses, served over an actual UDP socket on localhost.
//!
//! The broker is the shared authorization core behind its socket
//! adapter — `population(..).server(..)` provisions it, `serve` moves
//! the length-prefixed [`BrokerWire`] frames, one per datagram. A
//! "bTelco" client (with an in-process UE) relays a genuine
//! sealed+signed `authReqT`, and verifies the authorization it gets
//! back. The paper deploys brokerd on AWS behind Magma's Orc8r the same
//! way.
//!
//! Run with: `cargo run --example broker_server`

use cellbricks::core::broker_server::{population, serve, ServeConfig, BROKER_NAME, RECV_BUF_LEN};
use cellbricks::core::brokerd::BrokerWire;
use cellbricks::core::sap::{self, QosCap};
use cellbricks::net::wire::{frame, unframe};
use cellbricks::sim::SimRng;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // The CA, the broker, one bTelco and one provisioned subscriber.
    let pop = population(7, 1);
    let (telco_keys, ue_keys) = (&pop.telco, &pop.ues[0]);

    // --- The broker service thread. ---
    let sock = UdpSocket::bind("127.0.0.1:0").expect("bind");
    let addr = sock.local_addr().unwrap();
    println!("brokerd listening on {addr}");
    let mut server = pop.server(SimRng::new(99));
    let stop = Arc::new(AtomicBool::new(false));
    let stop_server = Arc::clone(&stop);
    let service = std::thread::spawn(move || {
        serve(&mut server, &sock, &stop_server, &ServeConfig::default()).expect("serve");
        server.counters
    });

    // --- The bTelco client (with its UE) on the main thread. ---
    let mut rng = SimRng::new(8);
    let (req_u, nonce) = sap::ue_build_request(
        ue_keys,
        BROKER_NAME,
        &pop.broker.encrypt.public_key(),
        telco_keys.identity(),
        &mut rng,
    );
    let req_t = sap::telco_wrap_request(
        telco_keys,
        req_u,
        QosCap {
            max_mbr_bps: 100_000_000,
            qci_supported: vec![9],
            li_capable: true,
        },
    );
    let client = UdpSocket::bind("127.0.0.1:0").expect("bind client");
    client.connect(addr).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    println!("bTelco: forwarding authReqT over UDP...");
    let request = BrokerWire::AuthReq {
        req_id: 1,
        req_t: req_t.encode(),
    };
    client.send(&frame(&request.encode())).expect("send");

    let mut buf = [0u8; RECV_BUF_LEN];
    let len = client.recv(&mut buf).expect("reply");
    match BrokerWire::decode(unframe(&buf[..len]).expect("one frame")) {
        Some(BrokerWire::AuthOk { reply, .. }) => {
            let reply = sap::BrokerReply::decode(&reply).expect("reply");
            let t_body =
                sap::telco_verify_reply(telco_keys, &pop.ca.public_key(), &reply).expect("verify");
            println!(
                "bTelco: authorization verified — UE alias #{}, session #{}, {} Mbps",
                t_body.ue_alias,
                t_body.session_id,
                t_body.qos.mbr_bps / 1_000_000
            );
            let u_body = sap::ue_verify_response(
                ue_keys,
                &pop.broker.sign.verifying_key(),
                &nonce,
                telco_keys.identity(),
                &reply.resp_u,
            )
            .expect("UE verify");
            assert_eq!(u_body.ss, t_body.ss);
            println!("UE: response verified — shared secret established over real UDP.");
        }
        other => panic!("unexpected reply: {other:?}"),
    }
    stop.store(true, Ordering::Relaxed);
    let counters = service.join().unwrap();
    assert_eq!((counters.served_auths, counters.auth_errs), (1, 0));
    println!(
        "brokerd: served {} authorization; done.",
        counters.served_auths
    );
}

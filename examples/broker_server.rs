//! `brokerd` as a real network service: the same SAP wire protocol the
//! simulator uses, served over an actual TCP socket on localhost.
//!
//! The broker is the shared authorization core behind its socket
//! adapter — `population(..).server(..)` provisions it, `serve_tcp`
//! moves the length-prefixed [`BrokerWire`] frames. A "bTelco" client
//! (with an in-process UE) connects, relays a genuine sealed+signed
//! `authReqT`, and verifies the authorization it gets back. The paper
//! deploys brokerd on AWS behind Magma's Orc8r the same way.
//!
//! Run with: `cargo run --example broker_server`

use cellbricks::core::broker_server::{population, serve_tcp, ServeConfig, BROKER_NAME};
use cellbricks::core::brokerd::BrokerWire;
use cellbricks::core::sap::{self, QosCap};
use cellbricks::net::wire::{read_frame, write_frame};
use cellbricks::sim::SimRng;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn main() {
    // The CA, the broker, one bTelco and one provisioned subscriber.
    let pop = population(7, 1);
    let (telco_keys, ue_keys) = (&pop.telco, &pop.ues[0]);

    // --- The broker service thread. ---
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    println!("brokerd listening on {addr}");
    let mut server = pop.server(SimRng::new(99));
    let stop = Arc::new(AtomicBool::new(false));
    let stop_server = Arc::clone(&stop);
    let service = std::thread::spawn(move || {
        serve_tcp(
            &mut server,
            &listener,
            &stop_server,
            &ServeConfig::default(),
        )
        .expect("serve");
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
    let mut stream = TcpStream::connect(addr).expect("connect");
    println!("bTelco: forwarding authReqT over TCP...");
    write_frame(
        &mut stream,
        &BrokerWire::AuthReq {
            req_id: 1,
            req_t: req_t.encode(),
        }
        .encode(),
    )
    .expect("send");

    let frame = read_frame(&mut stream).expect("reply");
    match BrokerWire::decode(&frame) {
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
            println!("UE: response verified — shared secret established over real TCP.");
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

//! Determinism and drain guarantees of the multi-worker `brokerd`
//! pipeline.
//!
//! The parallel crypto stage is only allowed to change *when* work
//! happens, never *what* comes out: every grant's randomness is drawn by
//! the sequential decision phase (in arrival order) before the batch is
//! split, and the ranges' results are concatenated in range order. So
//! the replies must be byte-identical across worker counts — including
//! `W = 0`, the inline path (`W = 1` is the same path) — and across how the
//! same request stream happens to be sliced into batches. These tests
//! pin both properties, plus the shutdown contract: stopping the serve
//! loop mid-stream loses no reply the server claims to have sent and
//! duplicates none.

mod common;

use bytes::Bytes;
use cellbricks_core::broker_server::{
    self, build_requests, population, Population, ServeConfig, WireCounters, BROKER_NAME,
};
use cellbricks_core::brokerd::BrokerWire;
use cellbricks_core::sap::{self, QosCap, SapError};
use cellbricks_net::wire::{frame, unframe};
use cellbricks_net::PacketKind;
use cellbricks_sim::SimRng;
use common::{sim_broker, sim_feed};
use std::collections::HashSet;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 20231;

fn request_stream(pop: &Population, n: usize) -> Vec<Vec<u8>> {
    let ues: Vec<usize> = (0..pop.ues.len()).collect();
    let mut rng = SimRng::new(77);
    build_requests(pop, &ues, n, &mut rng)
}

/// Feed `reqs` to a fresh server with `workers` crypto threads, split
/// into batches by `splits` (each entry = one `process_batch` call), and
/// return every (slot, reply-bytes) pair in emission order, plus the
/// server's counters.
fn serve_stream(
    pop: &Population,
    workers: usize,
    reqs: &[Vec<u8>],
    splits: &[usize],
) -> (Vec<(usize, Vec<u8>)>, WireCounters) {
    assert_eq!(splits.iter().sum::<usize>(), reqs.len());
    let mut server = pop.server_with_workers(SimRng::new(SEED), workers);
    let mut all = Vec::new();
    let mut cursor = 0;
    for &len in splits {
        let batch: Vec<(usize, &[u8])> = reqs[cursor..cursor + len]
            .iter()
            .enumerate()
            .map(|(i, r)| (cursor + i, r.as_slice()))
            .collect();
        cursor += len;
        let mut out = Vec::new();
        server.process_batch(&batch, &mut out);
        all.extend(out);
    }
    (all, server.counters)
}

/// [`serve_stream`] over a stream of distinct valid requests: every one
/// is served.
fn replies_for(
    pop: &Population,
    workers: usize,
    reqs: &[Vec<u8>],
    splits: &[usize],
) -> Vec<(usize, Vec<u8>)> {
    let (all, counters) = serve_stream(pop, workers, reqs, splits);
    assert_eq!(counters.served_auths, reqs.len() as u64);
    all
}

/// W = 0 (inline; W = 1 is the same path), W = 2, and W = 4 must produce
/// byte-identical reply streams for the same requests and grant rng:
/// parallelism may only move work across threads, never change bytes.
#[test]
fn worker_count_never_changes_reply_bytes() {
    let pop = population(SEED, 6);
    let reqs = request_stream(&pop, 36);
    let splits = [12usize, 12, 12];
    let inline = replies_for(&pop, 0, &reqs, &splits);
    assert_eq!(inline.len(), reqs.len());
    for workers in [2usize, 4] {
        let pooled = replies_for(&pop, workers, &reqs, &splits);
        assert_eq!(
            inline, pooled,
            "W={workers} replies diverged from the inline server"
        );
    }
}

/// How the stream is sliced into batches is an I/O-stage accident (the
/// adaptive window closes wherever load says it should) and must not
/// leak into reply bytes: same arrival order, same replies.
#[test]
fn batch_split_never_changes_reply_bytes() {
    let pop = population(SEED, 6);
    let reqs = request_stream(&pop, 30);
    let whole = replies_for(&pop, 4, &reqs, &[30]);
    let single = replies_for(&pop, 4, &reqs, &vec![1; 30]);
    let ragged = replies_for(&pop, 4, &reqs, &[7, 1, 13, 9]);
    assert_eq!(whole, single, "per-request batches diverged");
    assert_eq!(whole, ragged, "ragged batches diverged");
}

/// A hostile scheduler in miniature: the same requests duplicated and
/// reordered by a seeded shuffle, with a garbage datagram and a `Report`
/// mixed in. Whatever the worker count and however the stream is sliced,
/// the reply bytes are the same, and the invariants hold on them: no
/// nonce is granted twice, session ids are strictly increasing (hence
/// unique), and every input lands in exactly one [`WireCounters`] field.
#[test]
fn duplicated_and_reordered_stream_keeps_the_invariants() {
    let pop = population(SEED, 6);
    let fresh = request_stream(&pop, 16);
    // Each request twice, then a seeded Fisher–Yates shuffle; `origin`
    // remembers which request (= which nonce) a datagram carries.
    let mut stream: Vec<(Option<usize>, Vec<u8>)> = (0..fresh.len())
        .chain(0..fresh.len())
        .map(|i| (Some(i), fresh[i].clone()))
        .collect();
    stream.push((None, b"not a frame".to_vec()));
    let report = BrokerWire::Report {
        session_id: 1,
        from_ue: true,
        sealed: Bytes::from_static(b"sealed"),
    };
    stream.push((None, frame(&report.encode())));
    let mut shuffle = SimRng::new(SEED ^ 0x5af7);
    for i in (1..stream.len()).rev() {
        stream.swap(i, shuffle.uniform_u64(0, i as u64 + 1) as usize);
    }
    let (origin, dgrams): (Vec<Option<usize>>, Vec<Vec<u8>>) = stream.into_iter().unzip();

    let n = dgrams.len();
    let (reference, counters) = serve_stream(&pop, 0, &dgrams, &[n]);
    for (workers, splits) in [
        (2, vec![n]),
        (4, vec![n]),
        (4, vec![1; n]),
        (4, vec![5, 1, 11, n - 17]),
    ] {
        let (replies, c) = serve_stream(&pop, workers, &dgrams, &splits);
        assert_eq!(reference, replies, "W={workers} splits={splits:?} diverged");
        let batches = counters.batches; // the one field a split may change
        assert_eq!(counters, WireCounters { batches, ..c });
    }

    assert_eq!(counters.served_auths, fresh.len() as u64);
    assert_eq!(counters.auth_errs, fresh.len() as u64);
    assert_eq!((counters.bad_frames, counters.wire_reports), (1, 1));
    assert_eq!(counters.unexpected_frames, 0);
    let mut granted = HashSet::new();
    let mut last_session = 0;
    for (slot, bytes) in &reference {
        let nonce_owner = origin[*slot].expect("only requests are answered");
        match BrokerWire::decode(unframe(bytes).expect("framed reply")) {
            Some(BrokerWire::AuthOk { reply, .. }) => {
                assert!(granted.insert(nonce_owner), "a nonce was granted twice");
                let reply = sap::BrokerReply::decode(&reply).expect("reply decodes");
                let body = sap::telco_verify_reply(&pop.telco, &pop.ca.public_key(), &reply)
                    .expect("telco verifies");
                assert!(body.session_id > last_session, "session ids must increase");
                last_session = body.session_id;
            }
            Some(BrokerWire::AuthErr { code, .. }) => {
                assert_eq!(code, SapError::NonceMismatch as u8);
                assert!(
                    granted.contains(&nonce_owner),
                    "refused before its original"
                );
            }
            other => panic!("non-reply frame: {other:?}"),
        }
    }
}

/// Feed framed datagrams to a `Brokerd` one packet each and return the
/// `BrokerWire` payload of every reply it emits, in order.
fn sim_replies(pop: &Population, dgrams: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let mut brokerd = sim_broker(pop, SimRng::new(SEED));
    let mut out = Vec::new();
    for d in dgrams {
        sim_feed(&mut brokerd, unframe(d).expect("framed request"), &mut out);
    }
    out.iter()
        .map(|pkt| match &pkt.kind {
            PacketKind::Control(bytes) => bytes.to_vec(),
            other => panic!("non-control reply: {other:?}"),
        })
        .collect()
}

/// A replayed `authReqT` is refused *before* its grant: it draws nothing
/// from the grant rng, so the replies that follow are the bytes they
/// would have been without it.
#[test]
fn sim_replay_does_not_shift_later_replies() {
    let pop = population(SEED, 2);
    let reqs = request_stream(&pop, 2);
    let (a, b) = (reqs[0].clone(), reqs[1].clone());
    let with_replay = sim_replies(&pop, &[a.clone(), a.clone(), b.clone()]);
    let without = sim_replies(&pop, &[a, b]);
    assert_eq!(with_replay.len(), 3);
    assert!(matches!(
        BrokerWire::decode(&with_replay[2]),
        Some(BrokerWire::AuthOk { .. })
    ));
    assert!(with_replay[2] == without[1], "a replay shifted B's reply");
}

/// One seed, one stream — with a replay, a bad UE signature and an
/// unknown subscriber in it — through both adapters: the simulated
/// broker and the wire server (at any worker count) must answer with the
/// same `AuthOk`/`AuthErr` payload bytes.
#[test]
fn sim_and_wire_adapters_emit_identical_payloads() {
    // Five UEs exist; the brokers know the first four.
    let pop = population(SEED, 5);
    let mut served = population(SEED, 5);
    served.ues.truncate(4);

    let mut rng = SimRng::new(78);
    let mut stream = build_requests(&pop, &[0, 1, 2], 3, &mut rng);
    stream.insert(2, stream[0].clone()); // replay
    let bad_ue_sig = {
        let (mut req_u, _) = sap::ue_build_request(
            &pop.ues[3],
            BROKER_NAME,
            &pop.broker.encrypt.public_key(),
            pop.telco.identity(),
            &mut rng,
        );
        req_u.sig.0[0] ^= 1;
        let cap = QosCap {
            max_mbr_bps: 100_000_000,
            qci_supported: vec![9],
            li_capable: true,
        };
        let req_t = sap::telco_wrap_request(&pop.telco, req_u, cap).encode();
        frame(&BrokerWire::AuthReq { req_id: 90, req_t }.encode())
    };
    stream.insert(3, bad_ue_sig);
    stream.insert(4, build_requests(&pop, &[4], 1, &mut rng).remove(0)); // unknown

    let sim = sim_replies(&served, &stream);
    let refusal = |payload: &Vec<u8>| match BrokerWire::decode(payload) {
        Some(BrokerWire::AuthOk { .. }) => None,
        Some(BrokerWire::AuthErr { code, .. }) => Some(code),
        other => panic!("non-reply payload: {other:?}"),
    };
    let (replay, bad_sig, unknown) = (
        Some(SapError::NonceMismatch as u8),
        Some(SapError::BadUeSig as u8),
        Some(SapError::UnknownUser as u8),
    );
    assert_eq!(
        sim.iter().map(refusal).collect::<Vec<_>>(),
        [None, None, replay, bad_sig, unknown, None]
    );
    for workers in [0usize, 2, 4] {
        let (wire, _) = serve_stream(&served, workers, &stream, &[stream.len()]);
        let wire: Vec<Vec<u8>> = wire
            .iter()
            .map(|(_, framed)| unframe(framed).expect("framed reply").to_vec())
            .collect();
        assert!(
            sim == wire,
            "W={workers} wire replies diverged from the sim"
        );
    }
}

/// Stop the serve loop while a W = 4 pipeline is mid-stream and account
/// for every reply: the client receives exactly as many replies as the
/// server counts served (a gathered batch is always fully processed and
/// flushed before the stop flag is honored — nothing is lost between
/// threads), and no `req_id` is ever answered twice (nothing is duplicated).
#[test]
fn stop_mid_stream_loses_and_duplicates_nothing() {
    let pop = Arc::new(population(SEED, 8));
    let mut server = pop.server_with_workers(SimRng::new(SEED ^ 0xd0), 4);
    let sock = UdpSocket::bind("127.0.0.1:0").expect("bind server");
    let addr = sock.local_addr().expect("local addr");
    let stop = Arc::new(AtomicBool::new(false));
    let stop_server = Arc::clone(&stop);
    let handle = std::thread::spawn(move || {
        broker_server::serve(&mut server, &sock, &stop_server, &ServeConfig::default())
            .expect("serve");
        server
    });

    // Blast the whole burst (no client-side window) so batches pile up,
    // then pull the plug while the pipeline is still chewing.
    let reqs = request_stream(&pop, 128);
    let client = UdpSocket::bind("127.0.0.1:0").expect("bind client");
    client.connect(addr).expect("connect");
    for r in &reqs {
        client.send(r).expect("send");
    }
    std::thread::sleep(Duration::from_millis(2));
    stop.store(true, Ordering::Relaxed);

    // Collect replies until the line goes quiet for longer than any
    // in-flight batch could take to flush.
    client
        .set_read_timeout(Some(Duration::from_millis(500)))
        .expect("read timeout");
    let mut buf = vec![0u8; 8 * 1024];
    let mut answered: Vec<u64> = Vec::new();
    while let Ok(n) = client.recv(&mut buf) {
        let payload = unframe(&buf[..n]).expect("framed reply");
        match BrokerWire::decode(payload) {
            Some(BrokerWire::AuthOk { req_id, .. } | BrokerWire::AuthErr { req_id, .. }) => {
                answered.push(req_id);
            }
            other => panic!("non-reply frame: {other:?}"),
        }
    }
    let server = handle.join().expect("server thread");

    let served = server.counters.served_auths + server.counters.auth_errs;
    assert!(served >= 1, "the pipeline served nothing before the stop");
    assert_eq!(
        answered.len() as u64,
        served,
        "replies on the wire must match replies the server counted — \
         a stopped pipeline may strand requests, never replies"
    );
    let distinct: HashSet<u64> = answered.iter().copied().collect();
    assert_eq!(
        distinct.len(),
        answered.len(),
        "a req_id was answered twice"
    );
    assert_eq!(server.counters.bad_frames, 0);
}

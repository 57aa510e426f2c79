//! Hostile-input property tests for the `brokerd` wire server: truncated,
//! bit-flipped, and outright-garbage datagrams must never panic the
//! server or corrupt its state — every hostile datagram is either counted
//! as a bad frame (`core.brokerd.bad_frames`) or refused with an
//! attributed `AuthErr`, and a well-formed request served *afterwards*
//! still authorizes exactly as it would on a fresh server.
//!
//! The same four properties then run against the simulator's adapter
//! (`Control` payloads into `Brokerd::handle_packet`), and the SAP
//! message decoders — the broker core's only inputs — are checked total
//! on arbitrary bytes and on every truncation and single-bit flip of a
//! valid encoding.

mod common;

use bytes::Bytes;
use cellbricks_core::broker_server::{build_requests, population, BrokerServer};
use cellbricks_core::brokerd::{BrokerWire, Brokerd};
use cellbricks_core::sap::{AuthReqT, AuthReqU, BrokerReply, SignedSealed};
use cellbricks_net::wire::unframe;
use cellbricks_net::ControlEndpoint;
use cellbricks_sim::SimRng;
use cellbricks_telemetry as telemetry;
use common::sim_broker;
use proptest::prelude::*;

/// A provisioned server plus a pool of valid framed requests to mutate.
/// `workers` = 0 runs every phase inline on the calling thread; 2 and 4
/// let the core split the same batches across scoped threads, so every
/// property below is checked against the parallel pipeline too.
fn world(n_reqs: usize, workers: usize) -> (BrokerServer, Vec<Vec<u8>>) {
    let pop = population(7, 4);
    let server = pop.server_with_workers(SimRng::new(99), workers);
    let mut rng = SimRng::new(1234);
    let reqs = build_requests(&pop, &[0, 1, 2, 3], n_reqs, &mut rng);
    (server, reqs)
}

/// The worker counts every property runs under: inline, and two real
/// splits (the smallest and a wider one).
fn any_workers() -> impl Strategy<Value = usize> {
    prop_oneof![Just(0usize), Just(2usize), Just(4usize)]
}

/// Every reply the server emits must itself be a well-formed frame whose
/// payload decodes as `AuthOk` or `AuthErr` — hostile input never makes
/// the server emit garbage.
fn assert_replies_well_formed(out: &[(usize, Vec<u8>)]) {
    for (_, bytes) in out {
        let payload = unframe(bytes).expect("server reply must be framed");
        match BrokerWire::decode(payload) {
            Some(BrokerWire::AuthOk { .. } | BrokerWire::AuthErr { .. }) => {}
            other => panic!("server emitted a non-reply frame: {other:?}"),
        }
    }
}

/// After a hostile barrage, the server must still serve a fresh valid
/// request: state (nonce window, session allocator, subscriber DB) is
/// intact.
fn assert_still_serves(server: &mut BrokerServer, fresh: &[u8]) {
    let before = server.counters.served_auths;
    let mut out = Vec::new();
    server.process_batch(&[(0, fresh)], &mut out);
    assert_eq!(
        server.counters.served_auths,
        before + 1,
        "server stopped serving valid requests after hostile input"
    );
    assert_replies_well_formed(&out);
}

// ----- The simulator's adapter: `Control` payloads into `Brokerd` -----

/// A provisioned simulated broker plus valid `BrokerWire::AuthReq`
/// payloads (the wire requests, unframed) to mutate.
fn sim_world(n_reqs: usize) -> (ControlEndpoint<Brokerd>, Vec<Vec<u8>>) {
    let pop = population(7, 4);
    let mut rng = SimRng::new(1234);
    let payloads = build_requests(&pop, &[0, 1, 2, 3], n_reqs, &mut rng)
        .iter()
        .map(|framed| unframe(framed).expect("framed request").to_vec())
        .collect();
    (sim_broker(&pop, SimRng::new(99)), payloads)
}

fn sim_feed(brokerd: &mut ControlEndpoint<Brokerd>, payload: &[u8]) {
    common::sim_feed(brokerd, payload, &mut Vec::new());
}

fn assert_sim_still_serves(brokerd: &mut ControlEndpoint<Brokerd>, fresh: &[u8]) {
    let before = brokerd.auth_ok;
    sim_feed(brokerd, fresh);
    assert_eq!(
        brokerd.auth_ok,
        before + 1,
        "broker stopped serving valid requests after hostile input"
    );
}

proptest! {
    /// Pure garbage datagrams: random bytes of random length. None may
    /// panic; each is either a bad frame or (if it accidentally frames
    /// and decodes) refused — never served.
    #[test]
    fn prop_garbage_datagrams_never_served(
        datagrams in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..64),
            1..12,
        ),
        workers in any_workers(),
    ) {
        let (mut server, reqs) = world(1, workers);
        // The process-global registry starts disabled; the daemon enables
        // it at startup, tests must do the same to observe the mirror.
        telemetry::enable();
        let bad_before = telemetry::counter("core.brokerd.bad_frames").get();
        let views: Vec<(usize, &[u8])> =
            datagrams.iter().map(|d| (0usize, d.as_slice())).collect();
        let mut out = Vec::new();
        server.process_batch(&views, &mut out);
        prop_assert_eq!(server.counters.served_auths, 0);
        // Every datagram was accounted for in exactly one bucket.
        let c = server.counters;
        prop_assert_eq!(
            c.bad_frames + c.auth_errs + c.wire_reports + c.unexpected_frames,
            datagrams.len() as u64
        );
        // The telemetry mirror moved in lockstep with the plain counter
        // (>= because other tests in this binary share the registry).
        prop_assert!(
            telemetry::counter("core.brokerd.bad_frames").get()
                >= bad_before + c.bad_frames
        );
        assert_replies_well_formed(&out);
        assert_still_serves(&mut server, &reqs[0]);

        // The same bytes as `Control` payloads into the sim adapter.
        let (mut brokerd, payloads) = sim_world(1);
        for d in &datagrams {
            sim_feed(&mut brokerd, d);
        }
        prop_assert_eq!((brokerd.auth_ok, brokerd.sessions_live()), (0, 0));
        assert_sim_still_serves(&mut brokerd, &payloads[0]);
    }

    /// Truncating a valid framed request at any point breaks the length
    /// prefix's promise: always a bad frame, never a panic, never served.
    #[test]
    fn prop_truncated_frames_are_bad_frames(
        cut_scale in 0u32..10_000,
        workers in any_workers(),
    ) {
        let (mut server, reqs) = world(2, workers);
        let full = &reqs[0];
        // Map the scale onto a strict truncation point [0, len).
        let cut = (cut_scale as usize * full.len()) / 10_000;
        let truncated = &full[..cut];
        let mut out = Vec::new();
        server.process_batch(&[(0, truncated)], &mut out);
        prop_assert_eq!(server.counters.bad_frames, 1);
        prop_assert_eq!(server.counters.served_auths, 0);
        prop_assert!(out.is_empty(), "a bad frame gets no reply");
        assert_still_serves(&mut server, &reqs[1]);

        // Sim adapter: a truncated `AuthReq` payload no longer decodes —
        // dropped without a verdict, never granted.
        let (mut brokerd, payloads) = sim_world(2);
        let cut = (cut_scale as usize * payloads[0].len()) / 10_000;
        sim_feed(&mut brokerd, &payloads[0][..cut]);
        prop_assert_eq!((brokerd.auth_ok, brokerd.auth_err), (0, 0));
        assert_sim_still_serves(&mut brokerd, &payloads[1]);
    }

    /// Flipping one bit anywhere in a valid framed request must never
    /// panic or corrupt state. The outcome is exactly one of: bad frame
    /// (length prefix / wire tag damaged), refused with `AuthErr`
    /// (signature or structure damaged), or served (the flip landed in
    /// an unauthenticated field like `req_id`).
    #[test]
    fn prop_bit_flipped_frames_never_panic(
        byte_scale in 0u32..10_000,
        bit in 0u32..8,
        workers in any_workers(),
    ) {
        let (mut server, reqs) = world(2, workers);
        let mut flipped = reqs[0].clone();
        let idx = (byte_scale as usize * flipped.len()) / 10_000;
        flipped[idx] ^= 1 << bit;
        let mut out = Vec::new();
        server.process_batch(&[(0, &flipped)], &mut out);
        let c = server.counters;
        prop_assert_eq!(
            c.bad_frames + c.auth_errs + c.wire_reports
                + c.unexpected_frames + c.served_auths,
            1,
            "one datagram, one outcome"
        );
        assert_replies_well_formed(&out);
        assert_still_serves(&mut server, &reqs[1]);

        // Sim adapter: dropped, refused, or granted (the flip landed in
        // `req_id`) — at most one verdict, a session only for a grant.
        let (mut brokerd, payloads) = sim_world(2);
        let mut flipped = payloads[0].clone();
        let idx = (byte_scale as usize * flipped.len()) / 10_000;
        flipped[idx] ^= 1 << bit;
        sim_feed(&mut brokerd, &flipped);
        prop_assert!(brokerd.auth_ok + brokerd.auth_err <= 1);
        prop_assert_eq!(brokerd.sessions_live() as u64, brokerd.auth_ok);
        assert_sim_still_serves(&mut brokerd, &payloads[1]);
    }

    /// A hostile barrage mixed into the same batch as valid requests
    /// must not poison them: every valid request is still served.
    #[test]
    fn prop_hostile_frames_do_not_poison_valid_neighbors(
        garbage in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..48),
            1..6,
        ),
        seed in 0u64..1_000,
        workers in any_workers(),
    ) {
        let (mut server, reqs) = world(3, workers);
        // Interleave deterministically off the seed.
        let mut datagrams: Vec<(usize, &[u8])> = Vec::new();
        let mut g = garbage.iter();
        for (i, r) in reqs.iter().enumerate() {
            if (seed >> i) & 1 == 0 {
                if let Some(bad) = g.next() {
                    datagrams.push((1, bad.as_slice()));
                }
            }
            datagrams.push((0, r.as_slice()));
        }
        for bad in g {
            datagrams.push((1, bad.as_slice()));
        }
        let mut out = Vec::new();
        server.process_batch(&datagrams, &mut out);
        prop_assert_eq!(
            server.counters.served_auths, 3,
            "hostile neighbors must not block valid requests"
        );
        assert_replies_well_formed(&out);

        // Sim adapter: the same interleaving, one packet each.
        let (mut brokerd, _) = sim_world(0);
        for (_, d) in &datagrams {
            sim_feed(&mut brokerd, unframe(d).unwrap_or(d));
        }
        prop_assert_eq!(brokerd.auth_ok, 3);
    }
}

// ----- The SAP message decoders -----

/// Run all four decoders over `bytes`; `true` if any accepted. Must
/// never panic, whatever the bytes.
fn any_decodes(bytes: &[u8]) -> bool {
    AuthReqU::decode(bytes).is_some()
        | AuthReqT::decode(bytes).is_some()
        | SignedSealed::decode(bytes).is_some()
        | BrokerReply::decode(bytes).is_some()
}

proptest! {
    #[test]
    fn prop_sap_decoders_total_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..700),
    ) {
        any_decodes(&bytes);
    }
}

/// Every strict prefix of a valid encoding is rejected by its decoder,
/// and every single-bit flip is either rejected or decodes to something
/// that re-encodes without panicking.
#[test]
fn sap_decoders_total_on_truncations_and_bit_flips() {
    let (mut server, reqs) = world(1, 0);
    let Some(BrokerWire::AuthReq { req_t, .. }) = BrokerWire::decode(unframe(&reqs[0]).unwrap())
    else {
        panic!("build_requests emits AuthReq");
    };
    let mut out = Vec::new();
    server.process_batch(&[(0, &reqs[0])], &mut out);
    let Some(BrokerWire::AuthOk { reply, .. }) = BrokerWire::decode(unframe(&out[0].1).unwrap())
    else {
        panic!("valid request is granted");
    };
    let req_t_msg = AuthReqT::decode(&req_t).expect("valid authReqT");
    let reply_msg = BrokerReply::decode(&reply).expect("valid brokerReply");

    fn check<T>(valid: &[u8], decode: fn(&[u8]) -> Option<T>, encode: fn(&T) -> Bytes) {
        assert!(decode(valid).is_some());
        for cut in 0..valid.len() {
            assert!(decode(&valid[..cut]).is_none(), "prefix {cut} accepted");
        }
        let mut flipped = valid.to_vec();
        for bit in 0..valid.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            if let Some(msg) = decode(&flipped) {
                encode(&msg);
            }
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }
    check(&req_t, AuthReqT::decode, AuthReqT::encode);
    check(
        &req_t_msg.req_u.encode(),
        AuthReqU::decode,
        AuthReqU::encode,
    );
    check(&reply, BrokerReply::decode, BrokerReply::encode);
    check(
        &reply_msg.resp_u.encode(),
        SignedSealed::decode,
        SignedSealed::encode,
    );
}

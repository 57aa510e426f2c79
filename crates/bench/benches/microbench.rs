//! Criterion microbenchmarks for the CellBricks building blocks:
//! SAP cryptography (the per-attach cost the paper calls "negligible
//! (≈2 ms)"), traffic-report verification throughput (broker scalability),
//! and full simulated attaches (baseline vs CellBricks).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cellbricks_core::attach_bench::{run_baseline, run_cellbricks, ProcProfile, PLACEMENTS};
use cellbricks_core::billing::TrafficReport;
use cellbricks_core::brokerd::{BrokerWire, Brokerd, BrokerdConfig};
use cellbricks_core::principal::{BrokerKeys, TelcoKeys, UeKeys};
use cellbricks_core::sap::{self, QosCap};
use cellbricks_core::{AuthState, BrokerCore};
use cellbricks_crypto::cert::CertificateAuthority;
use cellbricks_crypto::ed25519::SigningKey;
use cellbricks_net::{Endpoint, NodeId, Packet};
use cellbricks_sim::{SimDuration, SimRng, SimTime};
use std::net::Ipv4Addr;

struct SapWorld {
    ca: CertificateAuthority,
    broker: BrokerKeys,
    telco: TelcoKeys,
    ue: UeKeys,
    rng: SimRng,
}

fn sap_world() -> SapWorld {
    let mut rng = SimRng::new(7);
    let ca = CertificateAuthority::from_seed([0xCA; 32]);
    SapWorld {
        broker: BrokerKeys::generate("broker.example", &ca, &mut rng),
        telco: TelcoKeys::generate("tower-1.example", &ca, &mut rng),
        ue: UeKeys::generate(&mut rng),
        ca,
        rng,
    }
}

fn qos() -> QosCap {
    QosCap {
        max_mbr_bps: 100_000_000,
        qci_supported: vec![9],
        li_capable: true,
    }
}

fn bench_crypto(c: &mut Criterion) {
    let mut w = sap_world();

    c.bench_function("ed25519_sign", |b| {
        let key = SigningKey::from_seed([1; 32]);
        b.iter(|| key.sign(black_box(b"attach-request")))
    });
    c.bench_function("ed25519_verify", |b| {
        let key = SigningKey::from_seed([1; 32]);
        let sig = key.sign(b"attach-request");
        let pk = key.verifying_key();
        b.iter(|| pk.verify(black_box(b"attach-request"), &sig))
    });

    c.bench_function("sap_ue_build_request", |b| {
        b.iter(|| {
            sap::ue_build_request(
                &w.ue,
                "broker.example",
                &w.broker.encrypt.public_key(),
                w.telco.identity(),
                &mut w.rng,
            )
        })
    });

    // Full broker-side processing: cert checks, unsealing, authorization,
    // sealing both responses — the "Brokerd" slice of Fig. 7.
    let mut w2 = sap_world();
    let (req_u, _) = sap::ue_build_request(
        &w2.ue,
        "broker.example",
        &w2.broker.encrypt.public_key(),
        w2.telco.identity(),
        &mut w2.rng,
    );
    let reqs = [sap::telco_wrap_request(&w2.telco, req_u, qos())];
    c.bench_function("broker_core_authorize_one", |b| {
        let (sign_pk, encrypt_pk) = w2.ue.public();
        let mut core = BrokerCore::new(w2.broker.clone(), w2.ca.public_key(), w2.rng.fork(), 0);
        b.iter(|| {
            // Fresh state per iteration: the same request is a replay
            // (refused before its grant) against a state that saw it.
            let mut state = AuthState::new(1);
            state.provision(w2.ue.identity(), sign_pk, encrypt_pk, 50_000_000);
            core.authorize(&mut state, black_box(&reqs), |_, _| true)
        })
    });
}

fn bench_billing(c: &mut Criterion) {
    let mut rng = SimRng::new(9);
    let signer = SigningKey::from_seed([2; 32]);
    let broker_sk = cellbricks_crypto::x25519::X25519SecretKey([3; 32]);
    let report = TrafficReport {
        session_id: 1,
        seq: 0,
        ul_bytes: 1_000,
        dl_bytes: 10_000_000,
        duration_ms: 30_000,
        dl_loss_ppm: 100,
        ul_loss_ppm: 0,
        avg_dl_kbps: 2_600,
        avg_ul_kbps: 2,
        delay_ms: 46,
    };
    c.bench_function("traffic_report_seal", |b| {
        b.iter(|| report.sign_and_seal(&signer, &broker_sk.public_key(), &mut rng))
    });
    let sealed = report.sign_and_seal(&signer, &broker_sk.public_key(), &mut rng);
    c.bench_function("traffic_report_open_verify", |b| {
        b.iter(|| {
            TrafficReport::open_and_verify(black_box(&sealed), &broker_sk, &signer.verifying_key())
        })
    });
}

/// Broker scalability: authorizations per second with a large subscriber
/// base (the paper's "scales to a large number of users" claim).
fn bench_brokerd_scale(c: &mut Criterion) {
    let mut rng = SimRng::new(11);
    let ca = CertificateAuthority::from_seed([0xCA; 32]);
    let broker_keys = BrokerKeys::generate("broker.example", &ca, &mut rng);
    let telco_keys = TelcoKeys::generate("tower-1.example", &ca, &mut rng);
    let mut brokerd = Brokerd::new(
        NodeId(0),
        BrokerdConfig {
            ip: Ipv4Addr::new(172, 16, 0, 1),
            keys: broker_keys.clone(),
            ca: ca.public_key(),
            proc_delay: SimDuration::ZERO,
            epsilon: 0.005,
            session_retention: SimDuration::from_secs(86_400),
        },
        rng.fork(),
    );
    // 1000 provisioned subscribers; requests come from one of them.
    let mut ue = None;
    for i in 0..1000 {
        let keys = UeKeys::generate(&mut rng);
        let (sign_pk, encrypt_pk) = keys.public();
        brokerd.provision(keys.identity(), sign_pk, encrypt_pk, 50_000_000);
        if i == 500 {
            ue = Some(keys);
        }
    }
    let ue = ue.unwrap();
    let (req_u, _) = sap::ue_build_request(
        &ue,
        "broker.example",
        &broker_keys.encrypt.public_key(),
        telco_keys.identity(),
        &mut rng,
    );
    let req_t = sap::telco_wrap_request(&telco_keys, req_u, qos());
    let wire = BrokerWire::AuthReq {
        req_id: 1,
        req_t: req_t.encode(),
    }
    .encode();
    // Every iteration after the first re-submits the same nonce, so this
    // times the adapter + check stage up to the anti-replay refusal.
    c.bench_function("brokerd_authorize_1000_subscribers", |b| {
        let mut sink = Vec::new();
        b.iter(|| {
            brokerd.handle_packet(
                SimTime::ZERO,
                Packet::control(
                    Ipv4Addr::new(172, 16, 1, 1),
                    Ipv4Addr::new(172, 16, 0, 1),
                    wire.clone(),
                ),
                &mut sink,
            );
            sink.clear();
        })
    });
}

/// Full simulated attach, end to end (local placement): the Fig. 7 cell.
fn bench_attach(c: &mut Criterion) {
    let profile = ProcProfile::default();
    c.bench_function("attach_e2e_baseline_local", |b| {
        b.iter(|| run_baseline(black_box(PLACEMENTS[0]), &profile, 1, 42))
    });
    c.bench_function("attach_e2e_cellbricks_local", |b| {
        b.iter(|| run_cellbricks(black_box(PLACEMENTS[0]), &profile, 1, 42))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_crypto, bench_billing, bench_brokerd_scale, bench_attach
}
criterion_main!(benches);

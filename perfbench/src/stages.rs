//! The per-auth stage budget: the phases `BrokerServer::process_batch`
//! runs, called one at a time through the public `sap` / `crypto`
//! functions on the same kind of request bytes, each under its own span.
//!
//! decode (`unframe` + `BrokerWire::decode` + `AuthReqT::decode`) →
//! pre-open checks → pooled `open_batch` → post-open checks → pooled
//! `verify_batch` → grant (`grant_draws` +
//! `broker_grant_batch_prepared`) → encode. What `process_batch` spends
//! beyond the sum of these (nonce window, session ids, telemetry, its
//! own vectors) is the *unaccounted* share the sheet reports.

use crate::trace::Tracer;
use cellbricks_core::broker_server::{Population, BROKER_NAME};
use cellbricks_core::brokerd::BrokerWire;
use cellbricks_core::principal::{BrokerKeys, Identity, UeKeys};
use cellbricks_core::sap::{self, AuthReqT, GrantJob, QosCap, SubscriberEntry};
use cellbricks_crypto::ed25519::{verify_batch, BatchItem, VerifyingKey};
use cellbricks_crypto::sealed::open_batch;
use cellbricks_net::wire::{frame, unframe};
use cellbricks_sim::SimRng;
use std::collections::HashMap;
use std::time::Instant;

/// Build one framed `AuthReq` datagram for `ue` with a fresh nonce: the
/// UE seals and signs, the bTelco wraps and signs. Returns the nonce.
pub fn build_frame(
    ue: &UeKeys,
    pop: &Population,
    req_id: u64,
    rng: &mut SimRng,
) -> (Vec<u8>, [u8; 16]) {
    let (req_u, nonce) = sap::ue_build_request(
        ue,
        BROKER_NAME,
        &pop.broker.encrypt.public_key(),
        pop.telco.identity(),
        rng,
    );
    let req_t = sap::telco_wrap_request(
        &pop.telco,
        req_u,
        QosCap {
            max_mbr_bps: 100_000_000,
            qci_supported: vec![9],
            li_capable: true,
        },
    );
    let dgram = frame(
        &BrokerWire::AuthReq {
            req_id,
            req_t: req_t.encode(),
        }
        .encode(),
    );
    (dgram, nonce)
}

/// What the stage replay needs of a broker: its keys, the CA, and a
/// subscriber table shaped like the wire server's.
pub struct Broker {
    keys: BrokerKeys,
    ca: VerifyingKey,
    subs: HashMap<Identity, SubscriberEntry>,
}

impl Broker {
    /// The broker of `pop`, with every UE of `pop` subscribed.
    #[must_use]
    pub fn of(pop: &Population) -> Self {
        let mut b = Self {
            keys: pop.broker.clone(),
            ca: pop.ca.public_key(),
            subs: HashMap::new(),
        };
        for ue in &pop.ues {
            b.subscribe(ue);
        }
        b
    }

    /// Add one subscriber.
    pub fn subscribe(&mut self, ue: &UeKeys) {
        let (sign_pk, encrypt_pk) = ue.public();
        let alias = self.subs.len() as u64 + 1;
        self.subs.insert(
            ue.identity(),
            SubscriberEntry {
                sign_pk,
                encrypt_pk,
                plan_mbr_bps: 50_000_000,
                suspect: false,
                alias,
                lawful_intercept: false,
            },
        );
    }
}

/// Wall time of each stage over one batch, ns.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageNs {
    /// `unframe` + `BrokerWire::decode` + `AuthReqT::decode`.
    pub decode: u64,
    /// `broker_precheck_pre_open`.
    pub pre_open: u64,
    /// Pooled `open_batch`.
    pub open: u64,
    /// `broker_precheck_post_open`.
    pub post_open: u64,
    /// Pooled `verify_batch`.
    pub verify: u64,
    /// `grant_draws` + `broker_grant_batch_prepared`.
    pub grant: u64,
    /// `BrokerReply::encode` + `BrokerWire::encode` + `frame`.
    pub encode: u64,
}

impl StageNs {
    /// Σ of the stages.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.decode
            + self.pre_open
            + self.open
            + self.post_open
            + self.verify
            + self.grant
            + self.encode
    }
}

/// Run the stages over `dgrams` (valid requests from subscribers of
/// `broker`), each under a span inside a `process_batch_replay` span.
/// `None` if any request fails a check — the replay only prices the
/// accept path.
pub fn replay(
    broker: &Broker,
    dgrams: &[Vec<u8>],
    rng: &mut SimRng,
    tr: &mut Tracer,
) -> Option<StageNs> {
    let whole = tr.begin("process_batch_replay");
    let ns = stages(broker, dgrams, rng, tr);
    tr.end(whole); // also closes a stage span left open by an early return
    ns
}

fn stages(
    broker: &Broker,
    dgrams: &[Vec<u8>],
    rng: &mut SimRng,
    tr: &mut Tracer,
) -> Option<StageNs> {
    let mut ns = StageNs::default();

    let span = tr.begin("core.sap.decode");
    let t = Instant::now();
    let mut reqs: Vec<(u64, AuthReqT)> = Vec::with_capacity(dgrams.len());
    for d in dgrams {
        let payload = unframe(d).ok()?;
        let Some(BrokerWire::AuthReq { req_id, req_t }) = BrokerWire::decode(payload) else {
            return None;
        };
        reqs.push((req_id, AuthReqT::decode(&req_t)?));
    }
    ns.decode = t.elapsed().as_nanos() as u64;
    tr.end(span);

    let span = tr.begin("core.sap.pre_open");
    let t = Instant::now();
    let ids: Vec<Identity> = reqs
        .iter()
        .map(|(_, r)| sap::broker_precheck_pre_open(&broker.keys, r))
        .collect::<Option<_>>()?;
    ns.pre_open = t.elapsed().as_nanos() as u64;
    tr.end(span);

    let span = tr.begin("core.sap.open");
    let t = Instant::now();
    let boxes: Vec<&cellbricks_crypto::SealedBox> =
        reqs.iter().map(|(_, r)| &r.req_u.sealed_vec).collect();
    let opened: Vec<Vec<u8>> = open_batch(&broker.keys.encrypt, &boxes)
        .into_iter()
        .collect::<Result<_, _>>()
        .ok()?;
    ns.open = t.elapsed().as_nanos() as u64;
    tr.end(span);

    let span = tr.begin("core.sap.post_open");
    let t = Instant::now();
    let self_id = broker.keys.identity();
    let checked: Vec<_> = reqs
        .iter()
        .zip(&ids)
        .zip(&opened)
        .map(|(((_, r), id_t), vec_bytes)| {
            sap::broker_precheck_post_open(
                self_id,
                &broker.ca,
                r,
                *id_t,
                vec_bytes,
                &|id| broker.subs.get(&id).cloned(),
                &|_| true,
            )
        })
        .collect::<Option<_>>()?;
    ns.post_open = t.elapsed().as_nanos() as u64;
    tr.end(span);

    let span = tr.begin("core.sap.verify");
    let t = Instant::now();
    let items: Vec<BatchItem<'_>> = checked
        .iter()
        .flat_map(|(_, _, material)| material.items())
        .collect();
    let ok = verify_batch(&items);
    ns.verify = t.elapsed().as_nanos() as u64;
    tr.end(span);
    if !ok {
        return None;
    }

    let span = tr.begin("core.sap.grant");
    let t = Instant::now();
    let jobs: Vec<GrantJob<'_>> = reqs
        .iter()
        .zip(&checked)
        .enumerate()
        .map(|(i, ((_, req), (vec, entry, _)))| GrantJob {
            req,
            vec,
            entry,
            session_id: i as u64 + 1,
        })
        .collect();
    let draws = sap::grant_draws(rng, jobs.len());
    let granted = sap::broker_grant_batch_prepared(&broker.keys, &jobs, &draws);
    ns.grant = t.elapsed().as_nanos() as u64;
    tr.end(span);

    let span = tr.begin("core.sap.encode");
    let t = Instant::now();
    for ((req_id, _), (reply, _, _)) in reqs.iter().zip(&granted) {
        std::hint::black_box(frame(
            &BrokerWire::AuthOk {
                req_id: *req_id,
                reply: reply.encode(),
            }
            .encode(),
        ));
    }
    ns.encode = t.elapsed().as_nanos() as u64;
    tr.end(span);
    Some(ns)
}

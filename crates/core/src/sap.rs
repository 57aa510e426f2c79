//! SAP — the Secure Attachment Protocol (paper §4.1, Figs. 2–4).
//!
//! One round trip establishes mutual trust among three parties that share
//! no prior relationship with each other (only U↔B do):
//!
//! 1. **U → T** `authReqU`: the UE seals its authentication vector
//!    `(idU, idB, idT, nonce)` to the broker's public key and signs the
//!    sealed bytes. The bTelco never sees a cleartext UE identifier —
//!    it "cannot act as an IMSI catcher".
//! 2. **T → B** `authReqT`: the bTelco forwards `authReqU` augmented with
//!    its QoS capabilities and certificate, signed under its key.
//! 3. **B → T** `brokerReply`: the broker authenticates both U (signature
//!    against the subscriber DB) and T (certificate + signature), decides
//!    authorization, and returns two sealed sub-responses — `authRespT`
//!    (the shared secret `ss` and `qosInfo`, the bTelco's *irrefutable
//!    proof of authorization*) and `authRespU` (`ss` plus the UE's nonce,
//!    proving freshness to the UE).
//! 4. **T → U** the bTelco relays `authRespU`.
//!
//! `ss` then plays the role of KASME in the unmodified EPS key hierarchy
//! (`cellbricks_epc::aka::derive_*`).
//!
//! This module is pure protocol: message construction, verification and
//! wire codecs. The endpoints live in [`crate::ue`] and
//! [`crate::btelco`]; the broker's decision in [`crate::broker_core`],
//! behind the [`crate::brokerd`] and [`crate::broker_server`] adapters.

use crate::principal::{BrokerKeys, Identity, TelcoKeys, UeKeys};
use bytes::Bytes;
use cellbricks_crypto::cert::{Certificate, Role};
use cellbricks_crypto::ed25519::{sign_batch, BatchItem, Signature, VerifyingKey};
use cellbricks_crypto::sealed::{open, seal, seal_begin_with, seal_finish_batch, SealedBox};
use cellbricks_crypto::x25519::{X25519PublicKey, X25519SecretKey};
use cellbricks_epc::wire::{Reader, Writer};
use cellbricks_sim::SimRng;

/// QoS options a bTelco can enforce (`qosCap` in Fig. 3). Expressed with
/// 3GPP vocabulary: maximum bit rate and supported QCI classes, plus the
/// service parameters the paper folds into the same negotiation —
/// "B and T1 might also negotiate additional features such as the need
/// for lawful intercept" (§3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QosCap {
    /// Highest maximum-bit-rate the bTelco can enforce, bits/s.
    pub max_mbr_bps: u64,
    /// QCI classes the bTelco supports.
    pub qci_supported: Vec<u8>,
    /// Whether this deployment can provision lawful-intercept taps
    /// (TS 33.107-style).
    pub li_capable: bool,
}

/// QoS parameters the broker selects for this attachment (`qosInfo`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QosInfo {
    /// Granted maximum bit rate, bits/s.
    pub mbr_bps: u64,
    /// Granted QCI class.
    pub qci: u8,
    /// The bTelco must provision a lawful-intercept tap for this session
    /// (the broker relays the obligation without learning its basis).
    pub lawful_intercept: bool,
}

/// The UE's authentication vector (Fig. 2: `(idU, idB, idT, n)`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AuthVec {
    /// UE identity.
    pub id_u: Identity,
    /// Broker identity.
    pub id_b: Identity,
    /// Target bTelco identity.
    pub id_t: Identity,
    /// Anti-replay nonce, generated at the UE.
    pub nonce: [u8; 16],
}

impl AuthVec {
    fn encode(&self) -> Bytes {
        let mut w = Writer::new();
        w.put_fixed(&self.id_u.0)
            .put_fixed(&self.id_b.0)
            .put_fixed(&self.id_t.0)
            .put_fixed(&self.nonce);
        w.finish()
    }

    fn decode(bytes: &[u8]) -> Option<AuthVec> {
        let mut r = Reader::new(bytes);
        let v = AuthVec {
            id_u: Identity(r.get_fixed()?),
            id_b: Identity(r.get_fixed()?),
            id_t: Identity(r.get_fixed()?),
            nonce: r.get_fixed()?,
        };
        if !r.is_empty() {
            return None;
        }
        Some(v)
    }
}

/// `authReqU`: the sealed, signed request the UE hands the bTelco.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuthReqU {
    /// `authVec` sealed to the broker's encryption key.
    pub sealed_vec: SealedBox,
    /// UE signature over the sealed bytes.
    pub sig: Signature,
    /// Cleartext broker name so the bTelco can route the request.
    pub broker_name: String,
}

impl AuthReqU {
    /// Encode to wire bytes.
    #[must_use]
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::new();
        w.put_bytes(&self.sealed_vec.to_bytes())
            .put_fixed(&self.sig.0)
            .put_str(&self.broker_name);
        w.finish()
    }

    /// Decode from wire bytes.
    #[must_use]
    pub fn decode(bytes: &[u8]) -> Option<AuthReqU> {
        let mut r = Reader::new(bytes);
        let sealed = SealedBox::from_bytes(&r.get_bytes()?)?;
        let sig = Signature(r.get_fixed::<64>()?);
        let broker_name = r.get_str()?;
        if !r.is_empty() {
            return None;
        }
        Some(AuthReqU {
            sealed_vec: sealed,
            sig,
            broker_name,
        })
    }
}

fn encode_cert(w: &mut Writer, cert: &Certificate) {
    w.put_str(&cert.subject);
    w.put_u8(match cert.role {
        Role::Broker => 1,
        Role::BTelco => 2,
    });
    w.put_fixed(&cert.key.0);
    w.put_u64(cert.not_after);
    w.put_fixed(&cert.signature.0);
}

fn decode_cert(r: &mut Reader<'_>) -> Option<Certificate> {
    let subject = r.get_str()?;
    let role = match r.get_u8()? {
        1 => Role::Broker,
        2 => Role::BTelco,
        _ => return None,
    };
    let key = VerifyingKey(r.get_fixed()?);
    let not_after = r.get_u64()?;
    let signature = Signature(r.get_fixed::<64>()?);
    Some(Certificate {
        subject,
        role,
        key,
        not_after,
        signature,
    })
}

/// `authReqT`: the bTelco's augmented, signed forward of `authReqU`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuthReqT {
    /// The UE's request, verbatim.
    pub req_u: AuthReqU,
    /// QoS options the bTelco offers.
    pub qos_cap: QosCap,
    /// The bTelco's certificate.
    pub t_cert: Certificate,
    /// The bTelco's encryption public key (for sealing `authRespT`).
    pub t_encrypt_pk: [u8; 32],
    /// bTelco signature over everything above.
    pub sig: Signature,
}

impl AuthReqT {
    fn signed_bytes(
        req_u: &AuthReqU,
        qos_cap: &QosCap,
        t_cert: &Certificate,
        t_encrypt_pk: &[u8; 32],
    ) -> Bytes {
        let mut w = Writer::new();
        w.put_bytes(&req_u.encode());
        w.put_u64(qos_cap.max_mbr_bps);
        w.put_bytes(&qos_cap.qci_supported);
        w.put_u8(u8::from(qos_cap.li_capable));
        encode_cert(&mut w, t_cert);
        w.put_fixed(t_encrypt_pk);
        w.finish()
    }

    /// Encode to wire bytes.
    #[must_use]
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::new();
        w.put_bytes(&Self::signed_bytes(
            &self.req_u,
            &self.qos_cap,
            &self.t_cert,
            &self.t_encrypt_pk,
        ))
        .put_fixed(&self.sig.0);
        w.finish()
    }

    /// Decode from wire bytes.
    #[must_use]
    pub fn decode(bytes: &[u8]) -> Option<AuthReqT> {
        let mut outer = Reader::new(bytes);
        let signed = outer.get_bytes()?;
        let sig = Signature(outer.get_fixed::<64>()?);
        if !outer.is_empty() {
            return None;
        }
        let mut r = Reader::new(&signed);
        let req_u = AuthReqU::decode(&r.get_bytes()?)?;
        let max_mbr_bps = r.get_u64()?;
        let qci_supported = r.get_bytes()?;
        let li_capable = r.get_u8()? != 0;
        let t_cert = decode_cert(&mut r)?;
        let t_encrypt_pk = r.get_fixed()?;
        if !r.is_empty() {
            return None;
        }
        Some(AuthReqT {
            req_u,
            qos_cap: QosCap {
                max_mbr_bps,
                qci_supported,
                li_capable,
            },
            t_cert,
            t_encrypt_pk,
            sig,
        })
    }
}

/// The plaintext inside `authRespT`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RespTBody {
    /// The bTelco's handle for the UE: the billing session id, so it is
    /// fresh on every attach and never the UE's real identity.
    pub ue_alias: u64,
    /// The bTelco this authorization is for.
    pub id_t: Identity,
    /// The shared secret (KASME-equivalent).
    pub ss: [u8; 32],
    /// Granted QoS.
    pub qos: QosInfo,
    /// Billing session identifier.
    pub session_id: u64,
}

/// The plaintext inside `authRespU`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RespUBody {
    /// The UE this response addresses.
    pub id_u: Identity,
    /// The bTelco the UE is now authorized on.
    pub id_t: Identity,
    /// The shared secret (KASME-equivalent).
    pub ss: [u8; 32],
    /// The UE's nonce, echoed (freshness proof).
    pub nonce: [u8; 16],
    /// Billing session identifier.
    pub session_id: u64,
}

/// A sealed-and-signed sub-response (`authRespT` / `authRespU`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SignedSealed {
    /// Body sealed to the recipient.
    pub sealed: SealedBox,
    /// Broker signature over the sealed bytes.
    pub sig: Signature,
}

impl SignedSealed {
    /// Encode to wire bytes.
    #[must_use]
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::new();
        w.put_bytes(&self.sealed.to_bytes()).put_fixed(&self.sig.0);
        w.finish()
    }

    /// Decode from wire bytes.
    #[must_use]
    pub fn decode(bytes: &[u8]) -> Option<SignedSealed> {
        let mut r = Reader::new(bytes);
        let sealed = SealedBox::from_bytes(&r.get_bytes()?)?;
        let sig = Signature(r.get_fixed::<64>()?);
        if !r.is_empty() {
            return None;
        }
        Some(SignedSealed { sealed, sig })
    }
}

/// The broker's reply to the bTelco: both sub-responses plus the
/// broker's certificate (so a bTelco with no prior relationship can
/// verify the broker's signatures against the CA).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BrokerReply {
    /// `authRespT`, sealed to the bTelco.
    pub resp_t: SignedSealed,
    /// `authRespU`, sealed to the UE (opaque to the bTelco).
    pub resp_u: SignedSealed,
    /// The broker's certificate.
    pub b_cert: Certificate,
}

impl BrokerReply {
    /// Encode to wire bytes.
    #[must_use]
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::new();
        w.put_bytes(&self.resp_t.encode());
        w.put_bytes(&self.resp_u.encode());
        encode_cert(&mut w, &self.b_cert);
        w.finish()
    }

    /// Decode from wire bytes.
    #[must_use]
    pub fn decode(bytes: &[u8]) -> Option<BrokerReply> {
        let mut r = Reader::new(bytes);
        let resp_t = SignedSealed::decode(&r.get_bytes()?)?;
        let resp_u = SignedSealed::decode(&r.get_bytes()?)?;
        let b_cert = decode_cert(&mut r)?;
        if !r.is_empty() {
            return None;
        }
        Some(BrokerReply {
            resp_t,
            resp_u,
            b_cert,
        })
    }
}

// ----- Protocol steps -----

/// Step 1 (UE): build `authReqU` for bTelco `id_t` (Fig. 2).
/// Returns the request and the nonce to check in the response.
pub fn ue_build_request(
    keys: &UeKeys,
    broker_name: &str,
    broker_encrypt_pk: &X25519PublicKey,
    id_t: Identity,
    rng: &mut SimRng,
) -> (AuthReqU, [u8; 16]) {
    let mut nonce = [0u8; 16];
    rng.fill_bytes(&mut nonce);
    let vec = AuthVec {
        id_u: keys.identity(),
        id_b: Identity::of_name(broker_name),
        id_t,
        nonce,
    };
    let sealed = seal(rng, broker_encrypt_pk, &vec.encode());
    let sig = keys.sign.sign(&sealed.to_bytes());
    (
        AuthReqU {
            sealed_vec: sealed,
            sig,
            broker_name: broker_name.to_string(),
        },
        nonce,
    )
}

/// Step 2 (bTelco): augment and sign the UE's request (Fig. 3, top).
#[must_use]
pub fn telco_wrap_request(keys: &TelcoKeys, req_u: AuthReqU, qos_cap: QosCap) -> AuthReqT {
    let t_encrypt_pk = keys.encrypt.public_key().0;
    let signed = AuthReqT::signed_bytes(&req_u, &qos_cap, &keys.cert, &t_encrypt_pk);
    let sig = keys.sign.sign(&signed);
    AuthReqT {
        req_u,
        qos_cap,
        t_cert: keys.cert.clone(),
        t_encrypt_pk,
        sig,
    }
}

/// Why the broker refused an attachment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SapError {
    /// Malformed message.
    Malformed,
    /// The bTelco's certificate failed verification.
    BadTelcoCert,
    /// The bTelco's signature failed.
    BadTelcoSig,
    /// The request was not addressed to this broker.
    WrongBroker,
    /// The sealed authVec could not be opened.
    SealedVec,
    /// Unknown subscriber.
    UnknownUser,
    /// The UE's signature failed.
    BadUeSig,
    /// The authVec's target doesn't match the forwarding bTelco.
    TelcoMismatch,
    /// Policy refused the attachment (suspect user / bad reputation).
    PolicyRefused,
    /// Response verification failed at the UE or bTelco.
    BadResponse,
    /// The echoed nonce did not match (replay).
    NonceMismatch,
}

/// What the broker needs to know about a subscriber.
#[derive(Clone)]
pub struct SubscriberEntry {
    /// UE signing public key (to verify `authReqU`).
    pub sign_pk: VerifyingKey,
    /// UE encryption public key (to seal `authRespU`).
    pub encrypt_pk: X25519PublicKey,
    /// Subscription cap on MBR, bits/s.
    pub plan_mbr_bps: u64,
    /// On the tamper-suspect list (paper §4.3)?
    pub suspect: bool,
    /// Not sent to anyone: a bTelco's handle for the UE is the
    /// per-session `session_id` (see [`RespTBody::ue_alias`]). The field
    /// stays so existing constructors of the entry still build.
    pub alias: u64,
    /// A lawful-intercept order applies to this subscriber: the serving
    /// bTelco must be able (and told) to provision the tap.
    pub lawful_intercept: bool,
}

/// One authenticated request awaiting its grant, for
/// [`broker_grant_batch_prepared`].
pub struct GrantJob<'a> {
    /// The verified request.
    pub req: &'a AuthReqT,
    /// Its decoded authentication vector.
    pub vec: &'a AuthVec,
    /// The subscriber entry authorizing it.
    pub entry: &'a SubscriberEntry,
    /// Session id to bind into both sub-responses.
    pub session_id: u64,
}

/// The random material one grant consumes, pre-drawn so the grant's
/// curve work can run on any thread (or several) while the draws
/// themselves stay a single sequential stream on the coordinator. Draw
/// order per job: shared secret, ephemeral-T, ephemeral-U.
pub struct GrantDraws {
    ss: [u8; 32],
    eph_t: X25519SecretKey,
    eph_u: X25519SecretKey,
}

/// Pre-draw the RNG material for `n` grants — the only part of broker
/// processing that consumes RNG, in exactly the order a request-by-
/// request grant (seal to T, then to U) would draw it.
#[must_use]
pub fn grant_draws(rng: &mut SimRng, n: usize) -> Vec<GrantDraws> {
    (0..n)
        .map(|_| GrantDraws {
            ss: rng.seed32(),
            eph_t: X25519SecretKey::generate(rng),
            eph_u: X25519SecretKey::generate(rng),
        })
        .collect()
}

/// Step 3, second half (Fig. 3, bottom): the requests are authenticated
/// and authorized — pick QoS, bind the pre-drawn shared secret (the
/// session's KASME), seal and sign both sub-responses. Pure: all the
/// curve math runs against pre-drawn [`GrantDraws`], and the expensive
/// field inversions are pooled — the four per-request seal inversions
/// collapse into one for the batch (`seal_finish_batch`), the two
/// signature compressions into another (`sign_batch`). Splitting a
/// batch into sub-batches and running each through this on a different
/// thread yields byte-identical replies to one big batch — the shared
/// batch inversion computes the same (unique) field inverses either
/// way, and Ed25519 signing is deterministic per item.
///
/// # Panics
/// Panics if `draws` is shorter than `jobs`.
#[must_use]
pub fn broker_grant_batch_prepared(
    keys: &BrokerKeys,
    jobs: &[GrantJob<'_>],
    draws: &[GrantDraws],
) -> Vec<(BrokerReply, QosInfo, [u8; 32])> {
    assert!(draws.len() >= jobs.len(), "one draw per job");
    // Stage A: per-request cheap work — QoS choice, response bodies,
    // seal_begin pairs off the pre-drawn ephemerals.
    let mut staged = Vec::with_capacity(jobs.len());
    let mut bodies = Vec::with_capacity(jobs.len() * 2);
    let mut pendings = Vec::with_capacity(jobs.len() * 2);
    for (job, draw) in jobs.iter().zip(draws) {
        let qos = QosInfo {
            mbr_bps: job.entry.plan_mbr_bps.min(job.req.qos_cap.max_mbr_bps),
            qci: job.req.qos_cap.qci_supported.first().copied().unwrap_or(9),
            lawful_intercept: job.entry.lawful_intercept,
        };
        let ss = draw.ss;
        let t_body = {
            let mut w = Writer::new();
            w.put_u64(job.session_id)
                .put_fixed(&job.vec.id_t.0)
                .put_fixed(&ss)
                .put_u64(qos.mbr_bps)
                .put_u8(qos.qci)
                .put_u8(u8::from(qos.lawful_intercept))
                .put_u64(job.session_id);
            w.finish()
        };
        pendings.push(seal_begin_with(
            draw.eph_t.clone(),
            &X25519PublicKey(job.req.t_encrypt_pk),
        ));
        bodies.push(t_body);
        let u_body = {
            let mut w = Writer::new();
            w.put_fixed(&job.vec.id_u.0)
                .put_fixed(&job.vec.id_t.0)
                .put_fixed(&ss)
                .put_fixed(&job.vec.nonce)
                .put_u64(job.session_id);
            w.finish()
        };
        pendings.push(seal_begin_with(draw.eph_u.clone(), &job.entry.encrypt_pk));
        bodies.push(u_body);
        staged.push((qos, ss));
    }

    // Stage B: finish all 2n seals under one shared inversion, then all
    // 2n response signatures under another.
    let body_refs: Vec<&[u8]> = bodies.iter().map(|b| &b[..]).collect();
    let sealed = seal_finish_batch(&pendings, &body_refs);
    let sealed_bytes: Vec<Vec<u8>> = sealed.iter().map(SealedBox::to_bytes).collect();
    let sign_items: Vec<(&cellbricks_crypto::SigningKey, &[u8])> =
        sealed_bytes.iter().map(|b| (&keys.sign, &b[..])).collect();
    let sigs = sign_batch(&sign_items);

    // Stage C: assemble replies in job order.
    let mut sealed_iter = sealed.into_iter();
    let mut sig_iter = sigs.into_iter();
    jobs.iter()
        .zip(staged)
        .map(|(_, (qos, ss))| {
            let resp_t = SignedSealed {
                sealed: sealed_iter.next().expect("staged sealed_t"),
                sig: sig_iter.next().expect("staged sig_t"),
            };
            let resp_u = SignedSealed {
                sealed: sealed_iter.next().expect("staged sealed_u"),
                sig: sig_iter.next().expect("staged sig_u"),
            };
            (
                BrokerReply {
                    resp_t,
                    resp_u,
                    b_cert: keys.cert.clone(),
                },
                qos,
                ss,
            )
        })
        .collect()
}

/// The owned message buffers and (signature, key) pairs for one request's
/// three Ed25519 checks: CA over the bTelco certificate, bTelco over
/// `authReqT`, UE over the sealed `authVec`. Owning the buffers lets a
/// server pool the material of many requests — from different
/// connections — into one `verify_batch` call.
pub struct AuthBatchMaterial {
    cert_tbs: Vec<u8>,
    signed: Bytes,
    sealed_bytes: Vec<u8>,
    cert_sig: Signature,
    ca: VerifyingKey,
    req_sig: Signature,
    telco_pk: VerifyingKey,
    ue_sig: Signature,
    ue_pk: VerifyingKey,
}

impl AuthBatchMaterial {
    /// The three [`BatchItem`]s, borrowing this material.
    #[must_use]
    pub fn items(&self) -> [BatchItem<'_>; 3] {
        [
            BatchItem {
                msg: &self.cert_tbs,
                sig: self.cert_sig,
                key: self.ca,
            },
            BatchItem {
                msg: &self.signed,
                sig: self.req_sig,
                key: self.telco_pk,
            },
            BatchItem {
                msg: &self.sealed_bytes,
                sig: self.ue_sig,
                key: self.ue_pk,
            },
        ]
    }
}

/// Step 3, first half: the checks on an `authReqT` that involve no
/// signature and precede unsealing the `authVec` — certificate
/// role/expiry and broker addressing. `None` means something failed;
/// the caller re-runs [`broker_authenticate_sequential`] to name it.
/// Split from [`broker_precheck_post_open`] so the expensive `open`s of
/// a whole batch run as one `open_batch` between the two halves.
pub fn broker_precheck_pre_open(keys: &BrokerKeys, req: &AuthReqT) -> Option<Identity> {
    req.t_cert.check_role_and_expiry(Role::BTelco, 0).ok()?;
    if req.req_u.broker_name != keys.name {
        return None;
    }
    Some(Identity::of_name(&req.t_cert.subject))
}

/// The signature-free checks that follow unsealing: `authVec` decode,
/// identity binding, subscriber lookup, admission policy, and
/// assembling the [`AuthBatchMaterial`] whose three signatures still
/// must verify (pooled across many requests by the broker core).
/// `self_id` is the broker's own identity (`keys.identity()`); `id_t`
/// is what [`broker_precheck_pre_open`] returned.
#[allow(clippy::too_many_arguments)]
pub fn broker_precheck_post_open(
    self_id: Identity,
    ca: &VerifyingKey,
    req: &AuthReqT,
    id_t: Identity,
    vec_bytes: &[u8],
    lookup: &impl Fn(Identity) -> Option<SubscriberEntry>,
    telco_ok: &impl Fn(Identity) -> bool,
) -> Option<(AuthVec, SubscriberEntry, AuthBatchMaterial)> {
    let vec = AuthVec::decode(vec_bytes)?;
    if vec.id_b != self_id || vec.id_t != id_t {
        return None;
    }
    let entry = lookup(vec.id_u)?;
    if entry.suspect || !telco_ok(id_t) {
        return None;
    }
    if entry.lawful_intercept && !req.qos_cap.li_capable {
        return None;
    }
    let material = AuthBatchMaterial {
        cert_tbs: req.t_cert.tbs(),
        signed: AuthReqT::signed_bytes(&req.req_u, &req.qos_cap, &req.t_cert, &req.t_encrypt_pk),
        sealed_bytes: req.req_u.sealed_vec.to_bytes(),
        cert_sig: req.t_cert.signature,
        ca: *ca,
        req_sig: req.sig,
        telco_pk: req.t_cert.key,
        ue_sig: req.req_u.sig,
        ue_pk: entry.sign_pk,
    };
    Some((vec, entry, material))
}

/// The seed-order checks, one at a time, attributing the first failure.
/// Signature checks go through the verifier-key cache (result-identical
/// to uncached verification). The broker core runs this only to name
/// the error after the pooled checks refuse a request.
///
/// # Errors
/// The [`SapError`] naming the first check that failed, in the exact
/// order the seed implementation checked them.
pub fn broker_authenticate_sequential(
    keys: &BrokerKeys,
    ca: &VerifyingKey,
    req: &AuthReqT,
    lookup: &impl Fn(Identity) -> Option<SubscriberEntry>,
    telco_ok: &impl Fn(Identity) -> bool,
) -> Result<(AuthVec, SubscriberEntry), SapError> {
    // Authenticate the bTelco: certificate chain, then signature.
    if req.t_cert.verify_cached(ca, Role::BTelco, 0).is_err() {
        return Err(SapError::BadTelcoCert);
    }
    let signed = AuthReqT::signed_bytes(&req.req_u, &req.qos_cap, &req.t_cert, &req.t_encrypt_pk);
    if !req.t_cert.key.verify_cached(&signed, &req.sig) {
        return Err(SapError::BadTelcoSig);
    }
    let id_t = Identity::of_name(&req.t_cert.subject);

    // Open and authenticate the UE's request.
    if req.req_u.broker_name != keys.name {
        return Err(SapError::WrongBroker);
    }
    let vec_bytes = open(&keys.encrypt, &req.req_u.sealed_vec).map_err(|_| SapError::SealedVec)?;
    let vec = AuthVec::decode(&vec_bytes).ok_or(SapError::Malformed)?;
    if vec.id_b != keys.identity() {
        return Err(SapError::WrongBroker);
    }
    if vec.id_t != id_t {
        // The UE asked for a different bTelco than the one forwarding —
        // a relay / MITM attempt.
        return Err(SapError::TelcoMismatch);
    }
    let entry = lookup(vec.id_u).ok_or(SapError::UnknownUser)?;
    if !entry
        .sign_pk
        .verify_cached(&req.req_u.sealed_vec.to_bytes(), &req.req_u.sig)
    {
        return Err(SapError::BadUeSig);
    }

    // Authorization policy: suspect users and disreputable bTelcos are
    // refused (paper §4.3).
    if entry.suspect || !telco_ok(id_t) {
        return Err(SapError::PolicyRefused);
    }

    // A lawful-intercept order can only be honoured by a capable bTelco;
    // otherwise the attachment must be refused (the obligation cannot be
    // silently dropped).
    if entry.lawful_intercept && !req.qos_cap.li_capable {
        return Err(SapError::PolicyRefused);
    }
    Ok((vec, entry))
}

/// Step 3→4 (bTelco): verify the broker's reply and extract authorization.
///
/// Both signature checks go through the verifier-key cache: a bTelco
/// checks every reply against the same CA and (typically few) broker
/// keys, so the point decompressions amortize across attachments.
pub fn telco_verify_reply(
    keys: &TelcoKeys,
    ca: &VerifyingKey,
    reply: &BrokerReply,
) -> Result<RespTBody, SapError> {
    if reply.b_cert.verify_cached(ca, Role::Broker, 0).is_err() {
        return Err(SapError::BadResponse);
    }
    if !reply
        .b_cert
        .key
        .verify_cached(&reply.resp_t.sealed.to_bytes(), &reply.resp_t.sig)
    {
        return Err(SapError::BadResponse);
    }
    let body = open(&keys.encrypt, &reply.resp_t.sealed).map_err(|_| SapError::BadResponse)?;
    let mut r = Reader::new(&body);
    let parsed = RespTBody {
        ue_alias: r.get_u64().ok_or(SapError::Malformed)?,
        id_t: Identity(r.get_fixed().ok_or(SapError::Malformed)?),
        ss: r.get_fixed().ok_or(SapError::Malformed)?,
        qos: QosInfo {
            mbr_bps: r.get_u64().ok_or(SapError::Malformed)?,
            qci: r.get_u8().ok_or(SapError::Malformed)?,
            lawful_intercept: r.get_u8().ok_or(SapError::Malformed)? != 0,
        },
        session_id: r.get_u64().ok_or(SapError::Malformed)?,
    };
    if parsed.id_t != keys.identity() {
        return Err(SapError::BadResponse);
    }
    Ok(parsed)
}

/// Step 4 (UE): verify `authRespU` (Fig. 2, steps 5–6).
pub fn ue_verify_response(
    keys: &UeKeys,
    broker_sign_pk: &VerifyingKey,
    expected_nonce: &[u8; 16],
    expected_t: Identity,
    resp: &SignedSealed,
) -> Result<RespUBody, SapError> {
    if !broker_sign_pk.verify_cached(&resp.sealed.to_bytes(), &resp.sig) {
        return Err(SapError::BadResponse);
    }
    let body = open(&keys.encrypt, &resp.sealed).map_err(|_| SapError::BadResponse)?;
    let mut r = Reader::new(&body);
    let parsed = RespUBody {
        id_u: Identity(r.get_fixed().ok_or(SapError::Malformed)?),
        id_t: Identity(r.get_fixed().ok_or(SapError::Malformed)?),
        ss: r.get_fixed().ok_or(SapError::Malformed)?,
        nonce: r.get_fixed().ok_or(SapError::Malformed)?,
        session_id: r.get_u64().ok_or(SapError::Malformed)?,
    };
    if parsed.id_u != keys.identity() {
        return Err(SapError::BadResponse);
    }
    if &parsed.nonce != expected_nonce {
        return Err(SapError::NonceMismatch);
    }
    if parsed.id_t != expected_t {
        return Err(SapError::BadResponse);
    }
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellbricks_crypto::cert::CertificateAuthority;
    use cellbricks_crypto::ed25519::verify_batch;

    struct World {
        ca: CertificateAuthority,
        broker: BrokerKeys,
        telco: TelcoKeys,
        ue: UeKeys,
        rng: SimRng,
    }

    fn world() -> World {
        let mut rng = SimRng::new(0xce11);
        let ca = CertificateAuthority::from_seed([0xCA; 32]);
        World {
            broker: BrokerKeys::generate("broker.example", &ca, &mut rng),
            telco: TelcoKeys::generate("tower-1.example", &ca, &mut rng),
            ue: UeKeys::generate(&mut rng),
            ca,
            rng,
        }
    }

    fn entry_for(w: &World) -> SubscriberEntry {
        let (sign_pk, encrypt_pk) = w.ue.public();
        SubscriberEntry {
            sign_pk,
            encrypt_pk,
            plan_mbr_bps: 50_000_000,
            suspect: false,
            alias: 7,
            lawful_intercept: false,
        }
    }

    fn qos_cap() -> QosCap {
        QosCap {
            max_mbr_bps: 100_000_000,
            qci_supported: vec![9, 8],
            li_capable: true,
        }
    }

    /// A fresh `authReqT` from the world's UE addressed to (and wrapped
    /// by) the world's bTelco, plus the UE's nonce.
    fn request(w: &mut World, cap: QosCap) -> (AuthReqT, [u8; 16]) {
        let (req_u, nonce) = ue_build_request(
            &w.ue,
            "broker.example",
            &w.broker.encrypt.public_key(),
            w.telco.identity(),
            &mut w.rng,
        );
        (telco_wrap_request(&w.telco, req_u, cap), nonce)
    }

    /// The reference grant: one request, sealed and signed eagerly off
    /// the rng — the oracle the pooled-inversion path is pinned against.
    fn broker_grant(
        keys: &BrokerKeys,
        req: &AuthReqT,
        vec: &AuthVec,
        entry: &SubscriberEntry,
        session_id: u64,
        rng: &mut SimRng,
    ) -> (BrokerReply, QosInfo, [u8; 32]) {
        let qos = QosInfo {
            mbr_bps: entry.plan_mbr_bps.min(req.qos_cap.max_mbr_bps),
            qci: req.qos_cap.qci_supported.first().copied().unwrap_or(9),
            lawful_intercept: entry.lawful_intercept,
        };
        let ss = rng.seed32();
        let t_body = {
            let mut w = Writer::new();
            w.put_u64(session_id)
                .put_fixed(&vec.id_t.0)
                .put_fixed(&ss)
                .put_u64(qos.mbr_bps)
                .put_u8(qos.qci)
                .put_u8(u8::from(qos.lawful_intercept))
                .put_u64(session_id);
            w.finish()
        };
        let sealed_t = seal(rng, &X25519PublicKey(req.t_encrypt_pk), &t_body);
        let resp_t = SignedSealed {
            sig: keys.sign.sign(&sealed_t.to_bytes()),
            sealed: sealed_t,
        };
        let u_body = {
            let mut w = Writer::new();
            w.put_fixed(&vec.id_u.0)
                .put_fixed(&vec.id_t.0)
                .put_fixed(&ss)
                .put_fixed(&vec.nonce)
                .put_u64(session_id);
            w.finish()
        };
        let sealed_u = seal(rng, &entry.encrypt_pk, &u_body);
        let resp_u = SignedSealed {
            sig: keys.sign.sign(&sealed_u.to_bytes()),
            sealed: sealed_u,
        };
        let reply = BrokerReply {
            resp_t,
            resp_u,
            b_cert: keys.cert.clone(),
        };
        (reply, qos, ss)
    }

    /// Broker step 3 for one request against a one-entry subscriber
    /// table: the seed-order checks, then a batch-of-one grant. The
    /// optimistic precheck halves plus a batch verify must accept
    /// exactly what the seed-order checks accept.
    fn process(
        w: &mut World,
        req: &AuthReqT,
        entry: Option<SubscriberEntry>,
        telco_ok: bool,
    ) -> Result<(BrokerReply, AuthVec, [u8; 32]), SapError> {
        let ca = w.ca.public_key();
        let lookup = |_: Identity| entry.clone();
        let admit = |_: Identity| telco_ok;
        let sequential = broker_authenticate_sequential(&w.broker, &ca, req, &lookup, &admit);
        let optimistic = broker_precheck_pre_open(&w.broker, req)
            .and_then(|id_t| {
                let bytes = open(&w.broker.encrypt, &req.req_u.sealed_vec).ok()?;
                let self_id = w.broker.identity();
                broker_precheck_post_open(self_id, &ca, req, id_t, &bytes, &lookup, &admit)
            })
            .filter(|(_, _, material)| verify_batch(&material.items()));
        assert_eq!(optimistic.is_some(), sequential.is_ok());
        let (vec, entry) = sequential?;
        let job = GrantJob {
            req,
            vec: &vec,
            entry: &entry,
            session_id: 1234,
        };
        let draws = grant_draws(&mut w.rng, 1);
        let (reply, _qos, ss) = broker_grant_batch_prepared(&w.broker, &[job], &draws).remove(0);
        Ok((reply, vec, ss))
    }

    // The pooled-inversion grant path must be byte-identical to granting
    // each job through `broker_grant` with the same rng stream.
    #[test]
    fn grant_batch_matches_sequential() {
        let mut w = world();
        let entry = entry_for(&w);
        let lookup = |_: Identity| Some(entry.clone());
        let reqs: Vec<AuthReqT> = (0..3).map(|_| request(&mut w, qos_cap()).0).collect();
        let auth: Vec<(AuthVec, SubscriberEntry)> = reqs
            .iter()
            .map(|r| {
                broker_authenticate_sequential(&w.broker, &w.ca.public_key(), r, &lookup, &|_| true)
                    .expect("authenticates")
            })
            .collect();
        let mut rng_a = SimRng::new(0x9a9a);
        let mut rng_b = SimRng::new(0x9a9a);
        let seq: Vec<_> = reqs
            .iter()
            .zip(&auth)
            .enumerate()
            .map(|(i, (req, (vec, entry)))| {
                broker_grant(&w.broker, req, vec, entry, 100 + i as u64, &mut rng_a)
            })
            .collect();
        let jobs: Vec<GrantJob<'_>> = reqs
            .iter()
            .zip(&auth)
            .enumerate()
            .map(|(i, (req, (vec, entry)))| GrantJob {
                req,
                vec,
                entry,
                session_id: 100 + i as u64,
            })
            .collect();
        let draws = grant_draws(&mut rng_b, jobs.len());
        let batch = broker_grant_batch_prepared(&w.broker, &jobs, &draws);
        assert_eq!(batch.len(), seq.len());
        for ((ra, qa, sa), (rb, qb, sb)) in seq.iter().zip(&batch) {
            assert_eq!(ra.encode(), rb.encode());
            assert_eq!(qa, qb);
            assert_eq!(sa, sb);
        }
    }

    /// Run the whole protocol happy path; returns (ue body, telco body).
    fn run_protocol(w: &mut World) -> (RespUBody, RespTBody) {
        let id_t = w.telco.identity();
        let (req_t, nonce) = request(w, qos_cap());
        // Wire round trip on the way to the broker.
        let req_t = AuthReqT::decode(&req_t.encode()).unwrap();

        let entry = entry_for(w);
        let (reply, vec, ss) = process(w, &req_t, Some(entry), true).expect("broker authorizes");
        assert_eq!(vec.id_u, w.ue.identity());

        let reply = BrokerReply::decode(&reply.encode()).unwrap();
        let t_body = telco_verify_reply(&w.telco, &w.ca.public_key(), &reply).expect("telco ok");
        let u_body = ue_verify_response(
            &w.ue,
            &w.broker.sign.verifying_key(),
            &nonce,
            id_t,
            &reply.resp_u,
        )
        .expect("ue ok");
        assert_eq!(t_body.ss, ss);
        (u_body, t_body)
    }

    #[test]
    fn happy_path_all_parties_agree_on_ss() {
        let mut w = world();
        let (u_body, t_body) = run_protocol(&mut w);
        assert_eq!(u_body.ss, t_body.ss);
        assert_eq!(u_body.session_id, t_body.session_id);
        assert_eq!(u_body.id_t, w.telco.identity());
        // QoS granted = min(plan, cap).
        assert_eq!(t_body.qos.mbr_bps, 50_000_000);
        assert_eq!(t_body.qos.qci, 9);
    }

    #[test]
    fn telco_never_sees_ue_identity() {
        let mut w = world();
        let (req_t, _) = request(&mut w, qos_cap());
        // The UE identity must not appear anywhere in the bytes the
        // bTelco handles (anti-IMSI-catcher, §4.1).
        let wire = req_t.req_u.encode();
        let id = w.ue.identity().0;
        assert!(!wire.windows(id.len()).any(|win| win == id));
    }

    #[test]
    fn forged_telco_cert_rejected() {
        let mut w = world();
        let rogue_ca = CertificateAuthority::from_seed([0xBB; 32]);
        let rogue = TelcoKeys::generate("tower-1.example", &rogue_ca, &mut w.rng);
        let (req_u, _) = ue_build_request(
            &w.ue,
            "broker.example",
            &w.broker.encrypt.public_key(),
            rogue.identity(),
            &mut w.rng,
        );
        let req_t = telco_wrap_request(&rogue, req_u, qos_cap());
        let entry = entry_for(&w);
        let err = process(&mut w, &req_t, Some(entry), true).unwrap_err();
        assert_eq!(err, SapError::BadTelcoCert);
    }

    #[test]
    fn tampered_qos_cap_rejected() {
        let mut w = world();
        let (mut req_t, _) = request(&mut w, qos_cap());
        req_t.qos_cap.max_mbr_bps = 1; // Tamper after signing.
        let entry = entry_for(&w);
        let err = process(&mut w, &req_t, Some(entry), true).unwrap_err();
        assert_eq!(err, SapError::BadTelcoSig);
    }

    #[test]
    fn unknown_user_rejected() {
        let mut w = world();
        let (req_t, _) = request(&mut w, qos_cap());
        let err = process(&mut w, &req_t, None, true).unwrap_err();
        assert_eq!(err, SapError::UnknownUser);
    }

    #[test]
    fn suspect_user_refused() {
        let mut w = world();
        let (req_t, _) = request(&mut w, qos_cap());
        let entry = SubscriberEntry {
            suspect: true,
            ..entry_for(&w)
        };
        let err = process(&mut w, &req_t, Some(entry), true).unwrap_err();
        assert_eq!(err, SapError::PolicyRefused);
    }

    #[test]
    fn disreputable_telco_refused() {
        let mut w = world();
        let (req_t, _) = request(&mut w, qos_cap());
        let entry = entry_for(&w);
        // Reputation system says no.
        let err = process(&mut w, &req_t, Some(entry), false).unwrap_err();
        assert_eq!(err, SapError::PolicyRefused);
    }

    #[test]
    fn relayed_request_to_wrong_telco_rejected() {
        // The UE addressed tower-1, but tower-2 (also validly certified)
        // relays the request as its own: idT mismatch must be caught.
        let mut w = world();
        let other = TelcoKeys::generate("tower-2.example", &w.ca, &mut w.rng);
        let (addressed_to_tower_1, _) = request(&mut w, qos_cap());
        let req_t = telco_wrap_request(&other, addressed_to_tower_1.req_u, qos_cap());
        let entry = entry_for(&w);
        let err = process(&mut w, &req_t, Some(entry), true).unwrap_err();
        assert_eq!(err, SapError::TelcoMismatch);
    }

    #[test]
    fn replayed_response_rejected_by_nonce() {
        let mut w = world();
        let (u_body, _) = run_protocol(&mut w);
        // Run the protocol again; the old response must not verify
        // against the new nonce.
        let (_req2, nonce2) = request(&mut w, qos_cap());
        assert_ne!(u_body.nonce, nonce2);
    }

    #[test]
    fn response_for_other_ue_rejected() {
        let mut w = world();
        let mallory = UeKeys::generate(&mut w.rng);
        let id_t = w.telco.identity();
        let (req_t, nonce) = request(&mut w, qos_cap());
        let entry = entry_for(&w);
        let (reply, ..) = process(&mut w, &req_t, Some(entry), true).unwrap();
        // Mallory cannot use the response addressed to our UE.
        let err = ue_verify_response(
            &mallory,
            &w.broker.sign.verifying_key(),
            &nonce,
            id_t,
            &reply.resp_u,
        )
        .unwrap_err();
        assert_eq!(err, SapError::BadResponse);
    }

    #[test]
    fn wire_roundtrips() {
        let mut w = world();
        let (req_t, _) = request(&mut w, qos_cap());
        let req_u = &req_t.req_u;
        assert_eq!(AuthReqU::decode(&req_u.encode()).as_ref(), Some(req_u));
        assert_eq!(AuthReqT::decode(&req_t.encode()).as_ref(), Some(&req_t));
    }

    #[test]
    fn lawful_intercept_obligation_relayed() {
        // A user under an LI order attaches through a capable bTelco:
        // the obligation rides qosInfo to the bTelco.
        let mut w = world();
        let (req_t, _) = request(&mut w, qos_cap());
        let entry = SubscriberEntry {
            lawful_intercept: true,
            ..entry_for(&w)
        };
        let (reply, ..) = process(&mut w, &req_t, Some(entry), true).unwrap();
        let body = telco_verify_reply(&w.telco, &w.ca.public_key(), &reply).unwrap();
        assert!(
            body.qos.lawful_intercept,
            "LI obligation reached the bTelco"
        );
    }

    #[test]
    fn lawful_intercept_refused_on_incapable_btelco() {
        // The broker cannot silently drop an LI order: if the bTelco
        // cannot provision the tap, the attachment is refused.
        let mut w = world();
        let cap = QosCap {
            li_capable: false,
            ..qos_cap()
        };
        let (req_t, _) = request(&mut w, cap);
        let entry = SubscriberEntry {
            lawful_intercept: true,
            ..entry_for(&w)
        };
        let err = process(&mut w, &req_t, Some(entry), true).unwrap_err();
        assert_eq!(err, SapError::PolicyRefused);
    }

    #[test]
    fn malformed_wire_rejected() {
        assert!(AuthReqU::decode(&[1, 2, 3]).is_none());
        assert!(AuthReqT::decode(&[]).is_none());
        assert!(BrokerReply::decode(&[0; 10]).is_none());
        assert!(SignedSealed::decode(&[0; 4]).is_none());
    }
}

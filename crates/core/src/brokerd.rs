//! `brokerd` — the broker service (paper §5: implemented as part of
//! Magma's Orc8r, deployed in the cloud).
//!
//! Handles SAP authorization requests from bTelcos (one round trip),
//! maintains the subscriber database holding each user's broker-issued
//! keys, ingests the two independent streams of sealed traffic reports,
//! runs the Fig. 5 discrepancy check, and feeds the reputation system
//! that gates future authorizations.
//!
//! Authorization itself is decided by the shared
//! [`crate::broker_core::BrokerCore`]; this module is its simulator
//! adapter — a serial `ControlParty`, whose `ControlEndpoint` supplies
//! the service queue, the ledger and the outage gate — plus the billing
//! and reputation state a grant opens.
//!
//! The durable slice of that state (the core's [`AuthState`], billing
//! sessions, reputation) lives in a [`BrokerStore`] behind an
//! `Arc<Mutex<_>>`: a standalone broker owns a private store, while the
//! replica pair in a [`crate::broker_plane::BrokerPair`] shares one —
//! the paper's broker is a cloud service over replicated storage, so
//! failover to the standby replica resolves the same subscribers,
//! sessions and seen nonces.

use crate::billing::{verify_cycle, CycleVerdict, TrafficReport};
use crate::broker_core::{AuthState, BrokerCore, Grant};
use crate::principal::{BrokerKeys, Identity};
use crate::reputation::ReputationSystem;
use crate::sap::{AuthReqT, SapError};
use bytes::Bytes;
use cellbricks_crypto::ed25519::VerifyingKey;
use cellbricks_crypto::x25519::X25519PublicKey;
use cellbricks_epc::wire::{Reader, Writer};
use cellbricks_net::{
    ControlEndpoint, ControlParty, ControlPort, EndpointFault, NodeId, Packet, PacketKind,
};
use cellbricks_sim::{EventQueue, SimDuration, SimRng, SimTime};
use cellbricks_telemetry as telemetry;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex, MutexGuard};

/// Control-plane messages between bTelcos/UEs and the broker.
#[derive(Clone, Debug, PartialEq)]
pub enum BrokerWire {
    /// bTelco → broker: an `authReqT` needing authorization.
    AuthReq {
        /// Correlation id chosen by the bTelco.
        req_id: u64,
        /// Encoded [`AuthReqT`].
        req_t: Bytes,
    },
    /// Broker → bTelco: authorization granted.
    AuthOk {
        /// Correlation id.
        req_id: u64,
        /// Encoded [`crate::sap::BrokerReply`].
        reply: Bytes,
    },
    /// Broker → bTelco: authorization refused.
    AuthErr {
        /// Correlation id.
        req_id: u64,
        /// Failure code.
        code: u8,
    },
    /// UE or bTelco → broker: a sealed traffic report for a session.
    Report {
        /// Billing session.
        session_id: u64,
        /// True if this is the UE's report, false for the bTelco's.
        from_ue: bool,
        /// Sealed, signed [`TrafficReport`].
        sealed: Bytes,
    },
}

impl BrokerWire {
    /// Encode to wire bytes.
    #[must_use]
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::new();
        match self {
            BrokerWire::AuthReq { req_id, req_t } => {
                w.put_u8(1).put_u64(*req_id).put_bytes(req_t);
            }
            BrokerWire::AuthOk { req_id, reply } => {
                w.put_u8(2).put_u64(*req_id).put_bytes(reply);
            }
            BrokerWire::AuthErr { req_id, code } => {
                w.put_u8(3).put_u64(*req_id).put_u8(*code);
            }
            BrokerWire::Report {
                session_id,
                from_ue,
                sealed,
            } => {
                w.put_u8(4)
                    .put_u64(*session_id)
                    .put_u8(u8::from(*from_ue))
                    .put_bytes(sealed);
            }
        }
        w.finish()
    }

    /// Decode from wire bytes.
    #[must_use]
    pub fn decode(bytes: &[u8]) -> Option<BrokerWire> {
        let mut r = Reader::new(bytes);
        let msg = match r.get_u8()? {
            1 => BrokerWire::AuthReq {
                req_id: r.get_u64()?,
                req_t: Bytes::from(r.get_bytes()?),
            },
            2 => BrokerWire::AuthOk {
                req_id: r.get_u64()?,
                reply: Bytes::from(r.get_bytes()?),
            },
            3 => BrokerWire::AuthErr {
                req_id: r.get_u64()?,
                code: r.get_u8()?,
            },
            4 => BrokerWire::Report {
                session_id: r.get_u64()?,
                from_ue: r.get_u8()? != 0,
                sealed: Bytes::from(r.get_bytes()?),
            },
            _ => return None,
        };
        if !r.is_empty() {
            return None;
        }
        Some(msg)
    }
}

/// Per-session billing state.
struct Session {
    user: Identity,
    telco: Identity,
    telco_sign_pk: VerifyingKey,
    pending_ue: HashMap<u32, TrafficReport>,
    pending_telco: HashMap<u32, TrafficReport>,
    /// Downlink bytes the broker accepts as billable.
    pub settled_dl: u64,
    /// Uplink bytes the broker accepts as billable.
    pub settled_ul: u64,
    /// Last instant the broker saw traffic for this session (creation,
    /// or a report arriving over the network); idle-expiry reference.
    last_activity: SimTime,
}

/// The durable state of one broker: everything the paper's broker
/// keeps in replicated cloud storage, as opposed to the per-process
/// state (the reply queue its adapter serves) that dies with an
/// instance.
///
/// Shared via `Arc<Mutex<_>>` between the replicas of a pair; the
/// simulation is single-threaded, so the lock is uncontended and exists
/// to keep `Brokerd: Send`, so a whole simulated world can move to
/// another thread.
pub struct BrokerStore {
    /// What the broker core decides over: subscriber table, anti-replay
    /// window, session-id allocator.
    auth: AuthState,
    reputation: ReputationSystem,
    sessions: HashMap<u64, Session>,
    /// Lazy idle-expiry heap over session ids: one live entry per
    /// session; popped entries whose session saw activity since are
    /// re-pushed at the refreshed deadline.
    expiry: EventQueue<u64>,
    /// Sessions reclaimed after going idle past the retention window.
    reclaimed: u64,
    /// Settled bytes across all sessions, including reclaimed ones.
    settled_dl_total: u64,
    settled_ul_total: u64,
    /// Last value this store pushed to the `sessions_live` gauge; the
    /// gauge is updated by delta so it sums correctly across stores.
    published_live: i64,
}

impl BrokerStore {
    /// A fresh store behind a shareable handle (for a replica pair).
    /// Session ids start at 1.
    #[must_use]
    pub fn shared() -> Arc<Mutex<BrokerStore>> {
        Arc::new(Mutex::new(Self {
            auth: AuthState::new(1),
            reputation: ReputationSystem::new(),
            sessions: HashMap::new(),
            expiry: EventQueue::new(),
            reclaimed: 0,
            settled_dl_total: 0,
            settled_ul_total: 0,
            published_live: 0,
        }))
    }

    /// Open the billing session a grant authorized.
    fn open_session(&mut self, grant: &Grant, now: SimTime, retention: SimDuration) {
        self.sessions.insert(
            grant.session_id,
            Session {
                user: grant.vec.id_u,
                telco: grant.vec.id_t,
                telco_sign_pk: grant.telco_key,
                pending_ue: HashMap::new(),
                pending_telco: HashMap::new(),
                settled_dl: 0,
                settled_ul: 0,
                last_activity: now,
            },
        );
        self.expiry.push(now + retention, grant.session_id);
        self.publish_sessions_live();
    }

    /// Reclaim sessions idle past `retention`. Lazy-heap sweep: entries
    /// pop in deadline order, and a session whose activity moved its
    /// deadline forward is re-pushed instead of reclaimed, so the sweep
    /// is deterministic (never iterates a `HashMap`) and O(due).
    fn reclaim_idle(&mut self, now: SimTime, retention: SimDuration) {
        let mut changed = false;
        while let Some((_, sid)) = self.expiry.pop_due(now) {
            let Some(session) = self.sessions.get(&sid) else {
                continue;
            };
            let deadline = session.last_activity + retention;
            if deadline <= now {
                // Settled bytes were already folded into the totals at
                // settlement time, so dropping the record loses nothing
                // billable.
                self.sessions.remove(&sid);
                self.reclaimed += 1;
                changed = true;
            } else {
                self.expiry.push(deadline, sid);
            }
        }
        if changed {
            self.publish_sessions_live();
        }
    }

    fn publish_sessions_live(&mut self) {
        let live = i64::try_from(self.sessions.len()).unwrap_or(i64::MAX);
        telemetry::gauge("core.brokerd.sessions_live").add(live - self.published_live);
        self.published_live = live;
    }
}

fn lock_store(store: &Arc<Mutex<BrokerStore>>) -> MutexGuard<'_, BrokerStore> {
    store.lock().expect("broker store poisoned")
}

/// Read access to a broker's reputation system, held behind the shared
/// store lock. Derefs to [`ReputationSystem`].
pub struct ReputationRef<'a>(MutexGuard<'a, BrokerStore>);

impl std::ops::Deref for ReputationRef<'_> {
    type Target = ReputationSystem;
    fn deref(&self) -> &ReputationSystem {
        &self.0.reputation
    }
}

/// Broker configuration.
#[derive(Clone)]
pub struct BrokerdConfig {
    /// Control-plane address.
    pub ip: Ipv4Addr,
    /// Keys + certificate.
    pub keys: BrokerKeys,
    /// The CA all certificates chain to.
    pub ca: VerifyingKey,
    /// Per-request processing delay (covers signature checks, sealing,
    /// DB lookups — the "Brokerd" slice of Fig. 7).
    pub proc_delay: SimDuration,
    /// Fig. 5 tolerance ratio ε.
    pub epsilon: f64,
    /// Sessions with no traffic for this long are reclaimed from the
    /// store (their settled bytes stay in the totals). Reclamation
    /// piggybacks on packet arrivals — it schedules no wakeups of its
    /// own, so a retention longer than the run leaves the event stream
    /// untouched.
    pub session_retention: SimDuration,
}

/// The broker service: one *instance* (process) of a broker. Durable
/// state lives in its [`BrokerStore`]; everything here is per-process.
/// Its port serves replies one at a time (the service is
/// single-threaded) and bills each.
pub struct Brokerd {
    port: ControlPort,
    cfg: BrokerdConfig,
    store: Arc<Mutex<BrokerStore>>,
    core: BrokerCore,
    /// Authorizations granted.
    pub auth_ok: u64,
    /// Authorizations refused.
    pub auth_err: u64,
    /// Reports that failed verification (tampered / wrong key).
    pub bad_reports: u64,
    /// Billing cycles cross-checked.
    pub cycles_checked: u64,
}

impl Brokerd {
    /// Create a standalone broker on `node` with a private store.
    #[must_use]
    pub fn new(node: NodeId, cfg: BrokerdConfig, rng: SimRng) -> ControlEndpoint<Self> {
        Self::with_store(node, cfg, BrokerStore::shared(), rng)
    }

    /// Create a broker instance over an existing (possibly shared)
    /// store — how a [`crate::broker_plane::BrokerPair`] builds its replicas.
    #[must_use]
    pub fn with_store(
        node: NodeId,
        cfg: BrokerdConfig,
        store: Arc<Mutex<BrokerStore>>,
        rng: SimRng,
    ) -> ControlEndpoint<Self> {
        ControlEndpoint::new(Self {
            port: ControlPort::new(node, cfg.proc_delay),
            core: BrokerCore::new(cfg.keys.clone(), cfg.ca, rng, 0),
            cfg,
            store,
            auth_ok: 0,
            auth_err: 0,
            bad_reports: 0,
            cycles_checked: 0,
        })
    }

    /// A handle to this broker's (shared) durable store.
    #[must_use]
    pub fn store(&self) -> Arc<Mutex<BrokerStore>> {
        Arc::clone(&self.store)
    }

    /// Provision a subscriber (issue keys out of band; store publics).
    pub fn provision(
        &mut self,
        id: Identity,
        sign_pk: VerifyingKey,
        encrypt_pk: X25519PublicKey,
        plan_mbr_bps: u64,
    ) {
        lock_store(&self.store)
            .auth
            .provision(id, sign_pk, encrypt_pk, plan_mbr_bps);
    }

    /// Number of provisioned subscribers.
    #[must_use]
    pub fn subscriber_count(&self) -> usize {
        lock_store(&self.store).auth.subscriber_count()
    }

    /// Billable (settled) downlink+uplink bytes for a session.
    #[must_use]
    pub fn settled_bytes(&self, session_id: u64) -> Option<(u64, u64)> {
        lock_store(&self.store)
            .sessions
            .get(&session_id)
            .map(|s| (s.settled_dl, s.settled_ul))
    }

    /// Settled bytes across all sessions, including reclaimed ones.
    #[must_use]
    pub fn settled_totals(&self) -> (u64, u64) {
        let store = lock_store(&self.store);
        (store.settled_dl_total, store.settled_ul_total)
    }

    /// Billing sessions currently held in the store.
    #[must_use]
    pub fn sessions_live(&self) -> usize {
        lock_store(&self.store).sessions.len()
    }

    /// Sessions reclaimed after idling past the retention window.
    #[must_use]
    pub fn sessions_reclaimed(&self) -> u64 {
        lock_store(&self.store).reclaimed
    }

    /// The reputation system gating admissions (read access; the guard
    /// holds the store lock, so keep it short-lived).
    #[must_use]
    pub fn reputation(&self) -> ReputationRef<'_> {
        ReputationRef(lock_store(&self.store))
    }

    fn send_later(&mut self, now: SimTime, dst: Ipv4Addr, msg: BrokerWire) {
        let pkt = Packet::control(self.cfg.ip, dst, msg.encode());
        self.port.send(now, pkt);
    }

    fn handle_auth(&mut self, now: SimTime, src: Ipv4Addr, req_id: u64, req_t: &[u8]) {
        let verdict = match AuthReqT::decode(req_t) {
            None => Err(SapError::Malformed),
            // A batch of one through the core, then the billing session
            // a grant opens, all under one store lock; the reply is
            // staged after the guard drops (`send_later` needs `&mut
            // self`).
            Some(req) => {
                let mut guard = lock_store(&self.store);
                let store = &mut *guard;
                // Suspect users and disreputable bTelcos are refused
                // (paper §4.3).
                let reputation = &store.reputation;
                let admit = |user, telco| !reputation.is_suspect(user) && reputation.admit(telco);
                let verdict = self
                    .core
                    .authorize(&mut store.auth, std::slice::from_ref(&req), admit)
                    .pop()
                    .expect("one verdict per request");
                if let Ok(grant) = &verdict {
                    store.open_session(grant, now, self.cfg.session_retention);
                }
                verdict
            }
        };
        match verdict {
            Ok(grant) => {
                self.auth_ok += 1;
                telemetry::counter("core.brokerd.auth_granted").inc();
                telemetry::trace_instant("brokerd.auth_ok", "billing", now.as_nanos());
                let reply = grant.reply.encode();
                self.send_later(now, src, BrokerWire::AuthOk { req_id, reply });
            }
            Err(e) => {
                self.auth_err += 1;
                telemetry::counter("core.brokerd.auth_rejected").inc();
                let code = e as u8;
                self.send_later(now, src, BrokerWire::AuthErr { req_id, code });
            }
        }
    }

    /// The key a report for `session_id`/`from_ue` must verify under.
    fn reporter_pk(&self, session_id: u64, from_ue: bool) -> Option<VerifyingKey> {
        let store = lock_store(&self.store);
        let session = store.sessions.get(&session_id)?;
        if from_ue {
            store.auth.subscriber(session.user).map(|e| e.sign_pk)
        } else {
            Some(session.telco_sign_pk)
        }
    }

    /// Refresh a session's idle-expiry clock (a report arrived for it).
    fn touch_session(&mut self, session_id: u64, now: SimTime) {
        let mut store = lock_store(&self.store);
        if let Some(session) = store.sessions.get_mut(&session_id) {
            session.last_activity = session.last_activity.max(now);
        }
    }

    fn handle_report(&mut self, session_id: u64, from_ue: bool, sealed: &[u8]) {
        // Touch the rejection counter up front so it is registered (at 0)
        // even in runs where every report verifies.
        let claims_rejected = telemetry::counter("core.billing.claims_rejected");
        let Some(reporter_pk) = self.reporter_pk(session_id, from_ue) else {
            self.bad_reports += 1;
            claims_rejected.inc();
            return;
        };
        match TrafficReport::open_and_verify(sealed, &self.cfg.keys.encrypt, &reporter_pk) {
            Some(report) => self.accept_report(session_id, from_ue, report),
            None => self.reject_unverifiable(session_id, from_ue),
        }
    }

    fn reject_unverifiable(&mut self, session_id: u64, from_ue: bool) {
        self.bad_reports += 1;
        telemetry::counter("core.billing.claims_rejected").inc();
        if from_ue {
            // A UE submitting unverifiable reports goes on the
            // suspect list (paper §4.3).
            let mut store = lock_store(&self.store);
            if let Some(user) = store.sessions.get(&session_id).map(|s| s.user) {
                store.reputation.mark_suspect(user);
            }
        }
    }

    /// Book a report whose signature has already been checked.
    fn accept_report(&mut self, session_id: u64, from_ue: bool, report: TrafficReport) {
        let mut guard = lock_store(&self.store);
        let store = &mut *guard;
        let Some(session) = store.sessions.get_mut(&session_id) else {
            return;
        };
        if report.session_id != session_id {
            drop(guard);
            self.bad_reports += 1;
            telemetry::counter("core.billing.claims_rejected").inc();
            return;
        }
        let seq = report.seq;
        telemetry::counter("core.billing.claims_issued").inc();
        if from_ue {
            session.pending_ue.insert(seq, report);
        } else {
            session.pending_telco.insert(seq, report);
        }
        // When both sides of a cycle are present, cross-check (Fig. 5).
        if let (Some(ue_r), Some(t_r)) = (
            session.pending_ue.get(&seq),
            session.pending_telco.get(&seq),
        ) {
            let verdict = verify_cycle(ue_r, t_r, self.cfg.epsilon);
            let (dl, ul) = match verdict {
                CycleVerdict::Consistent => {
                    telemetry::counter("core.billing.claims_verified").inc();
                    (t_r.dl_bytes, t_r.ul_bytes)
                }
                CycleVerdict::Mismatch { .. } => {
                    telemetry::counter("core.billing.claims_mismatched").inc();
                    // Settle conservatively at the UE's figure; the
                    // mismatch feeds the telco's reputation.
                    (ue_r.dl_bytes, ue_r.ul_bytes)
                }
            };
            session.settled_dl += dl;
            session.settled_ul += ul;
            let telco = session.telco;
            session.pending_ue.remove(&seq);
            session.pending_telco.remove(&seq);
            store.settled_dl_total += dl;
            store.settled_ul_total += ul;
            store.reputation.record_cycle(telco, verdict);
            drop(guard);
            self.cycles_checked += 1;
        }
    }
}

impl ControlParty for Brokerd {
    /// Single-threaded service: replies queue behind one another, which
    /// is what bounds attach throughput at scale. The request itself is
    /// decided on arrival; only its reply waits in the queue.
    const SERIAL: bool = true;

    cellbricks_net::port_field!();

    fn on_packet(&mut self, now: SimTime, pkt: Packet, _out: &mut Vec<Packet>) {
        let PacketKind::Control(bytes) = &pkt.kind else {
            return;
        };
        if pkt.dst != self.cfg.ip {
            return;
        }
        // Idle-session reclamation piggybacks on arrivals: it schedules
        // no wakeups of its own, so the event stream is unchanged.
        {
            let retention = self.cfg.session_retention;
            lock_store(&self.store).reclaim_idle(now, retention);
        }
        match BrokerWire::decode(bytes) {
            Some(BrokerWire::AuthReq { req_id, req_t }) => {
                self.handle_auth(now, pkt.src, req_id, &req_t);
            }
            Some(BrokerWire::Report {
                session_id,
                from_ue,
                sealed,
            }) => {
                self.touch_session(session_id, now);
                self.handle_report(session_id, from_ue, &sealed);
            }
            _ => {}
        }
    }

    fn on_fault(&mut self, fault: &EndpointFault, _up_at: SimTime) {
        // The subscriber DB and billing sessions are durable (the broker
        // is a cloud service over persistent storage); only the
        // in-memory reply queue, which the adapter drops, dies with the
        // process.
        let name = match fault {
            EndpointFault::Unavailable { .. } => "core.brokerd.unavailable_windows",
            EndpointFault::CrashRestart { .. } => "core.brokerd.crashes",
        };
        telemetry::counter(name).inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::principal::{BrokerKeys, TelcoKeys, UeKeys};
    use crate::sap::{self, QosCap};
    use cellbricks_crypto::cert::CertificateAuthority;
    use cellbricks_net::Endpoint;

    type Broker = ControlEndpoint<Brokerd>;

    fn test_config(keys: BrokerKeys, ca: &CertificateAuthority) -> BrokerdConfig {
        BrokerdConfig {
            ip: Ipv4Addr::new(172, 16, 0, 1),
            keys,
            ca: ca.public_key(),
            proc_delay: SimDuration::ZERO,
            epsilon: 0.01,
            session_retention: SimDuration::from_secs(86_400),
        }
    }

    /// A fresh `AuthReq` from `ue` through `telco`, as its payload.
    fn auth_req(
        (ue, telco, broker): (&UeKeys, &TelcoKeys, &BrokerKeys),
        req_id: u64,
        rng: &mut SimRng,
    ) -> Bytes {
        let broker_pk = broker.encrypt.public_key();
        let (req_u, _) =
            sap::ue_build_request(ue, "broker.example", &broker_pk, telco.identity(), rng);
        let qos = QosCap {
            max_mbr_bps: 1_000_000,
            qci_supported: vec![9],
            li_capable: true,
        };
        let req_t = sap::telco_wrap_request(telco, req_u, qos).encode();
        BrokerWire::AuthReq { req_id, req_t }.encode()
    }

    /// Deliver `payload` from the bTelco to `brokerd` at `now`.
    fn deliver(brokerd: &mut Broker, now: SimTime, payload: Bytes) {
        let (src, dst) = (Ipv4Addr::new(172, 16, 1, 1), brokerd.cfg.ip);
        brokerd.handle_packet(now, Packet::control(src, dst, payload), &mut Vec::new());
    }

    /// A broker with one UE provisioned, over keys drawn from `seed`.
    fn world(seed: u64, retention: SimDuration) -> (Broker, UeKeys, TelcoKeys, BrokerKeys, SimRng) {
        let mut rng = SimRng::new(seed);
        let ca = CertificateAuthority::from_seed([0xCA; 32]);
        let broker_keys = BrokerKeys::generate("broker.example", &ca, &mut rng);
        let telco_keys = TelcoKeys::generate("tower-1.example", &ca, &mut rng);
        let ue_keys = UeKeys::generate(&mut rng);
        let mut brokerd = Brokerd::new(
            cellbricks_net::NodeId(0),
            BrokerdConfig {
                session_retention: retention,
                ..test_config(broker_keys.clone(), &ca)
            },
            rng.fork(),
        );
        let (spk, epk) = ue_keys.public();
        brokerd.provision(ue_keys.identity(), spk, epk, 1_000_000);
        (brokerd, ue_keys, telco_keys, broker_keys, rng)
    }

    #[test]
    fn replayed_auth_request_rejected() {
        let (mut brokerd, ue, telco, broker, mut rng) = world(3, SimDuration::from_secs(86_400));
        let wire = auth_req((&ue, &telco, &broker), 1, &mut rng);
        deliver(&mut brokerd, SimTime::ZERO, wire.clone());
        assert_eq!(brokerd.auth_ok, 1);
        // The exact same (captured) request again: refused.
        deliver(&mut brokerd, SimTime::ZERO, wire);
        assert_eq!(brokerd.auth_ok, 1, "replay must not create a session");
        assert_eq!(brokerd.auth_err, 1);
    }

    /// A world with one UE attached (session id 1), for report tests.
    fn attached_world() -> (Broker, UeKeys, TelcoKeys, BrokerKeys, SimRng) {
        attached_world_with_retention(SimDuration::from_secs(86_400))
    }

    /// Same, with the session-retention window chosen up front (the
    /// expiry deadline is armed at auth time, so it must be set before
    /// the attach).
    fn attached_world_with_retention(
        retention: SimDuration,
    ) -> (Broker, UeKeys, TelcoKeys, BrokerKeys, SimRng) {
        let (mut brokerd, ue, telco, broker, mut rng) = world(7, retention);
        let wire = auth_req((&ue, &telco, &broker), 1, &mut rng);
        deliver(&mut brokerd, SimTime::ZERO, wire);
        assert_eq!(brokerd.auth_ok, 1);
        (brokerd, ue, telco, broker, rng)
    }

    fn report(dl_bytes: u64) -> TrafficReport {
        TrafficReport {
            session_id: 1,
            seq: 0,
            ul_bytes: 10,
            dl_bytes,
            duration_ms: 1_000,
            dl_loss_ppm: 0,
            ul_loss_ppm: 0,
            avg_dl_kbps: 0,
            avg_ul_kbps: 0,
            delay_ms: 0,
        }
    }

    #[test]
    fn report_settles_a_cycle() {
        let (mut brokerd, ue_keys, telco_keys, broker_keys, mut rng) = attached_world();
        let broker_pk = broker_keys.encrypt.public_key();
        let ue_sealed = report(1_000).sign_and_seal(&ue_keys.sign, &broker_pk, &mut rng);
        let t_sealed = report(1_000).sign_and_seal(&telco_keys.sign, &broker_pk, &mut rng);
        brokerd.handle_report(1, true, &ue_sealed);
        brokerd.handle_report(1, false, &t_sealed);
        assert_eq!(brokerd.cycles_checked, 1);
        assert_eq!(brokerd.settled_bytes(1), Some((1_000, 10)));
        assert_eq!(brokerd.bad_reports, 0);
    }

    #[test]
    fn report_bad_signature_falls_back_to_sequential() {
        let (mut brokerd, ue_keys, telco_keys, broker_keys, mut rng) = attached_world();
        let broker_pk = broker_keys.encrypt.public_key();
        // Forged UE report: seals fine, but is signed by the wrong key,
        // so only the per-report signature check can catch it.
        let forger = UeKeys::generate(&mut rng);
        let forged = report(500).sign_and_seal(&forger.sign, &broker_pk, &mut rng);
        let t_sealed = report(1_000).sign_and_seal(&telco_keys.sign, &broker_pk, &mut rng);
        brokerd.handle_report(1, true, &forged);
        brokerd.handle_report(1, false, &t_sealed);
        assert_eq!(brokerd.bad_reports, 1, "forged report must be rejected");
        assert_eq!(brokerd.cycles_checked, 0, "no cycle without the UE side");
        assert!(
            brokerd.reputation().is_suspect(ue_keys.identity()),
            "unverifiable UE report marks the subscriber suspect"
        );
    }

    #[test]
    fn report_unknown_session_rejected() {
        let (mut brokerd, ue_keys, _telco_keys, broker_keys, mut rng) = attached_world();
        let broker_pk = broker_keys.encrypt.public_key();
        let mut r = report(100);
        r.session_id = 99;
        let sealed = r.sign_and_seal(&ue_keys.sign, &broker_pk, &mut rng);
        brokerd.handle_report(99, true, &sealed);
        assert_eq!(brokerd.bad_reports, 1);
        assert_eq!(brokerd.cycles_checked, 0);
    }

    /// Satellite regression: a settled session is reclaimed after the
    /// retention window, its bytes survive in the totals, and the live
    /// count drops.
    #[test]
    fn idle_session_reclaimed_after_retention() {
        let (mut brokerd, ue_keys, telco_keys, broker_keys, mut rng) =
            attached_world_with_retention(SimDuration::from_secs(5));
        let broker_pk = broker_keys.encrypt.public_key();
        let ue_sealed = report(1_000).sign_and_seal(&ue_keys.sign, &broker_pk, &mut rng);
        let t_sealed = report(1_000).sign_and_seal(&telco_keys.sign, &broker_pk, &mut rng);
        brokerd.handle_report(1, true, &ue_sealed);
        brokerd.handle_report(1, false, &t_sealed);
        assert_eq!(brokerd.sessions_live(), 1);
        assert_eq!(brokerd.settled_totals(), (1_000, 10));
        // Any packet arrival past the idle deadline triggers the sweep;
        // an undecodable control frame is activity enough.
        deliver(
            &mut brokerd,
            SimTime::from_secs(60),
            Bytes::from_static(&[0xFF]),
        );
        assert_eq!(brokerd.sessions_live(), 0, "idle session reclaimed");
        assert_eq!(brokerd.sessions_reclaimed(), 1);
        assert_eq!(brokerd.settled_bytes(1), None);
        assert_eq!(
            brokerd.settled_totals(),
            (1_000, 10),
            "settled bytes survive reclamation"
        );
    }

    /// Replicas sharing a store resolve each other's sessions and
    /// nonces: the failover contract of the replica pair.
    #[test]
    fn shared_store_replicates_sessions_and_nonces() {
        let (brokerd, ue_keys, telco_keys, broker_keys, mut rng) = attached_world();
        let ca = CertificateAuthority::from_seed([0xCA; 32]);
        let mut standby = Brokerd::with_store(
            cellbricks_net::NodeId(1),
            BrokerdConfig {
                ip: Ipv4Addr::new(172, 16, 0, 2),
                ..test_config(broker_keys.clone(), &ca)
            },
            brokerd.store(),
            rng.fork(),
        );
        // The session authorized on the primary is visible to the standby.
        assert_eq!(standby.settled_bytes(1), Some((0, 0)));
        assert_eq!(standby.subscriber_count(), 1);
        // A report sent to the standby settles against it.
        let broker_pk = broker_keys.encrypt.public_key();
        let ue_sealed = report(2_000).sign_and_seal(&ue_keys.sign, &broker_pk, &mut rng);
        let t_sealed = report(2_000).sign_and_seal(&telco_keys.sign, &broker_pk, &mut rng);
        standby.handle_report(1, true, &ue_sealed);
        standby.handle_report(1, false, &t_sealed);
        assert_eq!(brokerd.settled_bytes(1), Some((2_000, 10)));
        // A replay of an authorization the primary already granted is
        // rejected by the standby too.
        let wire = auth_req((&ue_keys, &telco_keys, &broker_keys), 9, &mut rng);
        deliver(&mut standby, SimTime::ZERO, wire.clone());
        assert_eq!(standby.auth_ok, 1, "fresh request authorized on standby");
        deliver(&mut standby, SimTime::ZERO, wire);
        assert_eq!(standby.auth_err, 1, "replay rejected via the shared window");
    }

    #[test]
    fn broker_wire_roundtrip() {
        let msgs = [
            BrokerWire::AuthReq {
                req_id: 7,
                req_t: Bytes::from_static(b"req"),
            },
            BrokerWire::AuthOk {
                req_id: 7,
                reply: Bytes::from_static(b"reply"),
            },
            BrokerWire::AuthErr { req_id: 7, code: 3 },
            BrokerWire::Report {
                session_id: 9,
                from_ue: true,
                sealed: Bytes::from_static(b"sealed"),
            },
        ];
        for m in &msgs {
            assert_eq!(BrokerWire::decode(&m.encode()).as_ref(), Some(m));
        }
        assert!(BrokerWire::decode(&[77]).is_none());
    }
}

//! The CellBricks UE: SAP client, host transport stack, sealed baseband
//! meter, and the host-driven mobility manager (paper Fig. 4).
//!
//! The device owns a [`cellbricks_transport::Host`], so the detach/attach
//! cycle drives MPTCP's address events exactly as the paper describes:
//! detaching invalidates the interface address (subflows stall, the
//! address worker arms); a successful SAP attach assigns the new address
//! (a fresh subflow joins and traffic resumes).

use crate::billing::BasebandMeter;
use crate::brokerd::BrokerWire;
use crate::principal::{Identity, UeKeys};
use crate::sap::{self, SignedSealed};
use bytes::Bytes;
use cellbricks_crypto::ed25519::VerifyingKey;
use cellbricks_crypto::x25519::X25519PublicKey;
use cellbricks_epc::nas::NasMessage;
use cellbricks_net::{ControlEndpoint, ControlParty, ControlPort, NodeId, Packet, PacketKind};
use cellbricks_sim::{EventQueue, SimDuration, SimRng, SimTime, Summary};
use cellbricks_telemetry as telemetry;
use cellbricks_transport::Host;
use std::net::Ipv4Addr;

/// One reachable replica of the UE's broker, provisioned on the SIM
/// alongside the pinned broker keys (every replica signs as one
/// operator, so the pinned keys verify against any of them).
#[derive(Clone, Debug)]
pub struct BrokerReplica {
    /// Directory name the bTelco resolves to a broker contact.
    pub name: String,
    /// Where this replica ingests UE traffic reports.
    pub ctrl_ip: Ipv4Addr,
    /// Static latency estimate to this replica, derived from topology —
    /// the paper's broker selection is latency-aware without GeoIP.
    pub rtt: SimDuration,
}

/// How long a replica that timed out an attach attempt is avoided —
/// the deterministic failover window onto the next-lowest-RTT replica.
const REPLICA_PENALTY: SimDuration = SimDuration::from_secs(30);

/// The first SAP retry window: the request is re-sent with a fresh nonce
/// if no answer arrives this long after it was issued (signalling can be
/// lost to radio conditions). Later windows grow by the
/// [`RecoveryConfig`] backoff.
const ATTACH_RETRY_AFTER: SimDuration = SimDuration::from_secs(2);

/// UE device configuration.
#[derive(Clone)]
pub struct UeDeviceConfig {
    /// Permanent signalling address.
    pub ue_sig: Ipv4Addr,
    /// Broker-issued key bundle (on the SIM).
    pub keys: UeKeys,
    /// The broker's name (SIM-pinned).
    pub broker_name: String,
    /// The broker's signing key (SIM-pinned).
    pub broker_sign_pk: VerifyingKey,
    /// The broker's encryption key (SIM-pinned).
    pub broker_encrypt_pk: X25519PublicKey,
    /// The broker's replicas (at least one); requests and reports go to
    /// the lowest-RTT one not under a timeout penalty. A lone broker is
    /// one replica named `broker_name` at its control address.
    pub brokers: Vec<BrokerReplica>,
    /// Cost of building `authReqU` (sealing + signing).
    pub proc_delay: SimDuration,
    /// Cost of verifying `authRespU`.
    pub verify_delay: SimDuration,
    /// Billing report interval.
    pub report_interval: SimDuration,
    /// Attempts before giving up on a target bTelco.
    pub attach_max_tries: u32,
}

/// How the UE recovers from lost signalling and dead gateways. A device
/// starts on the defaults; [`UeDevice::set_recovery`] replaces them.
///
/// The defaults reproduce the pre-fault-injection behaviour exactly:
/// the first retry still fires `ATTACH_RETRY_AFTER` after the request
/// (factor^0 = 1), jitter 0 draws nothing from the rng, and the
/// inactivity watchdog is disabled.
#[derive(Clone, Debug)]
pub struct RecoveryConfig {
    /// Multiplier applied to the retry window per attempt
    /// (capped exponential backoff — a fixed window is a retry storm
    /// under a long outage).
    pub backoff_factor: f64,
    /// Upper bound on the retry window.
    pub backoff_cap: SimDuration,
    /// Randomize each window by ±this fraction (desynchronizes UEs
    /// hammering a recovering gateway). `0.0` draws nothing from the rng.
    pub jitter: f64,
    /// Re-attach to the last target if no downlink arrives for this long
    /// while attached — the UE-side detector for a bTelco that crashed
    /// and lost the session. `None` disables the watchdog.
    pub reattach_after: Option<SimDuration>,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self {
            backoff_factor: 2.0,
            backoff_cap: SimDuration::from_secs(30),
            jitter: 0.0,
            reattach_after: None,
        }
    }
}

struct PendingAttach {
    nonce: [u8; 16],
    id_t: Identity,
    agw_sig: Ipv4Addr,
    started: SimTime,
    retries_left: u32,
    /// Requests already issued for this attach (backoff exponent).
    attempt: u32,
    /// Which broker replica the outstanding request targets — a timeout
    /// penalizes exactly this one.
    replica: usize,
}

struct Serving {
    /// The serving bTelco's signalling address.
    pub agw_sig: Ipv4Addr,
    /// The serving bTelco.
    pub id_t: Identity,
    /// Billing session.
    pub session_id: u64,
}

enum Deferred {
    /// A verified-pending SapAttachAccept.
    Accept { ue_ip: Ipv4Addr, payload: Bytes },
}

/// The CellBricks UE device. Its port bills building each SAP request
/// and verifying each accept, and stages its reports and detach
/// requests.
///
/// Memory layout: the fields touched on every `poll`/`poll_at` come
/// first, and the cold, construction-time configuration (keys, broker
/// names, delay knobs — several hundred bytes) lives behind one `Box`,
/// so a fleet of devices keeps its per-poll working set dense.
pub struct UeDevice {
    // --- Hot: read on every poll_at/poll ---
    port: ControlPort,
    /// When the last downlink data packet arrived (watchdog reference).
    last_dl_at: SimTime,
    attach_deadline: Option<SimTime>,
    next_report_at: Option<SimTime>,
    /// Scheduled fresh attach cycle after retry exhaustion.
    reattach_at: Option<SimTime>,
    /// Backoff shape and watchdog; `poll_at` reads `reattach_after` on
    /// every call to compute the watchdog deadline.
    recovery: RecoveryConfig,
    /// Accepts waiting out `verify_delay` (not packets: they are
    /// verified, then acted on).
    deferred: EventQueue<Deferred>,
    /// The device's transport stack (TCP/MPTCP/UDP sockets live here).
    pub host: Host,
    // --- Warm: attach/billing session state ---
    rng: SimRng,
    attach: Option<PendingAttach>,
    serving: Option<Serving>,
    meter: Option<BasebandMeter>,
    /// Per-replica quarantine deadlines (parallel to `cfg.brokers`;
    /// empty until a replica is first penalized).
    replica_penalty: Vec<SimTime>,
    /// The last attach target, for watchdog-driven re-attach.
    last_target: Option<(String, Ipv4Addr)>,
    /// When the watchdog declared the serving telco dead (recovery-latency
    /// measurement anchor); cleared on the next successful attach.
    recovering_since: Option<SimTime>,
    // --- Accounting ---
    /// Attach latency samples, milliseconds.
    pub attach_latency_ms: Summary,
    /// Latency of the most recent successful attach.
    pub last_attach_latency: Option<SimDuration>,
    /// Attach failures.
    pub failures: u64,
    /// Successful attaches.
    pub attaches: u64,
    /// Attach requests re-sent after signalling loss.
    pub attach_retries: u64,
    /// Times the inactivity watchdog forced a re-attach.
    pub watchdog_reattaches: u64,
    /// Accepts that failed verification against the current attempt —
    /// stale replies (e.g. flushed out of a broker outage after the UE
    /// already retried with a fresh nonce) or forgeries. Ignored, never
    /// fatal: the retry deadline provides liveness.
    pub stale_accepts: u64,
    // --- Cold: construction-time configuration, boxed off the hot path ---
    cfg: Box<UeDeviceConfig>,
}

impl UeDevice {
    /// Create the device on `node`.
    ///
    /// # Panics
    /// Panics if `cfg.brokers` is empty.
    #[must_use]
    pub fn new(node: NodeId, cfg: UeDeviceConfig, rng: SimRng) -> ControlEndpoint<Self> {
        assert!(!cfg.brokers.is_empty(), "a UE needs at least one broker");
        ControlEndpoint::new(Self {
            host: Host::new(node, None),
            port: ControlPort::new(node, cfg.proc_delay),
            recovery: RecoveryConfig::default(),
            cfg: Box::new(cfg),
            rng,
            attach: None,
            serving: None,
            meter: None,
            replica_penalty: Vec::new(),
            deferred: EventQueue::new(),
            next_report_at: None,
            attach_deadline: None,
            attach_latency_ms: Summary::new(),
            last_attach_latency: None,
            failures: 0,
            attaches: 0,
            attach_retries: 0,
            last_dl_at: SimTime::ZERO,
            last_target: None,
            recovering_since: None,
            reattach_at: None,
            watchdog_reattaches: 0,
            stale_accepts: 0,
        })
    }

    /// The broker replica the UE currently prefers: lowest RTT among the
    /// replicas not under a timeout penalty at `now`, ties broken by
    /// index. If every replica is penalized the outright lowest-RTT one
    /// is used — retrying a suspect replica costs one window; idling
    /// costs the attach.
    fn select_replica(&self, now: SimTime) -> usize {
        let penalized = |i: usize| {
            self.replica_penalty
                .get(i)
                .is_some_and(|&until| now < until)
        };
        (0..self.cfg.brokers.len())
            .min_by_key(|&i| (penalized(i), self.cfg.brokers[i].rtt, i))
            .expect("at least one broker")
    }

    /// Quarantine the replica targeted by the outstanding attach request
    /// (its answer never came): the next issue re-selects, which is the
    /// whole failover state machine on the UE side. A lone broker has no
    /// replica to fail over to, so nothing is recorded.
    fn penalize_pending_replica(&mut self, now: SimTime) {
        let n = self.cfg.brokers.len();
        if n < 2 {
            return;
        }
        let Some(idx) = self.attach.as_ref().map(|p| p.replica) else {
            return;
        };
        self.replica_penalty.resize(n, SimTime::ZERO);
        self.replica_penalty[idx] = now + REPLICA_PENALTY;
        telemetry::counter("core.ue.replica_penalized").inc();
    }

    /// The current serving bTelco, if attached.
    #[must_use]
    pub fn serving_telco(&self) -> Option<Identity> {
        self.serving.as_ref().map(|s| s.id_t)
    }

    /// The current billing session, if attached.
    #[must_use]
    pub fn session_id(&self) -> Option<u64> {
        self.serving.as_ref().map(|s| s.session_id)
    }

    /// True once attached (address assigned).
    #[must_use]
    pub fn is_attached(&self) -> bool {
        self.serving.is_some() && self.host.addr().is_some()
    }

    /// Replace the recovery configuration (harnesses that opt a built
    /// device into chaos-hardened behaviour).
    pub fn set_recovery(&mut self, recovery: RecoveryConfig) {
        self.recovery = recovery;
    }

    /// Begin a SAP attach to the bTelco named `telco_name`, reachable at
    /// `agw_sig`. Latency is measured from this call to verified accept.
    /// Lost signalling is retried with a *fresh* request (fresh nonce —
    /// the broker rejects replays) up to `attach_max_tries` times.
    pub fn start_attach(&mut self, now: SimTime, telco_name: &str, agw_sig: Ipv4Addr) {
        self.last_target = Some((telco_name.to_string(), agw_sig));
        self.reattach_at = None;
        self.attach = Some(PendingAttach {
            nonce: [0; 16], // Filled by issue_attach_request.
            id_t: Identity::of_name(telco_name),
            agw_sig,
            started: now,
            retries_left: self.cfg.attach_max_tries.saturating_sub(1),
            attempt: 0,
            replica: 0, // Filled by issue_attach_request.
        });
        self.issue_attach_request(now);
    }

    /// The retry window for the given attempt index: capped exponential
    /// backoff with optional ± jitter. Jitter `0.0` draws nothing, so
    /// configurations without it keep the rng stream untouched.
    fn retry_delay(&mut self, attempt: u32) -> SimDuration {
        let r = &self.recovery;
        let cap = r.backoff_cap.as_secs_f64();
        // Exponent clamped: past ~64 doublings the cap has long won.
        let mut d = ATTACH_RETRY_AFTER.as_secs_f64()
            * r.backoff_factor
                .powi(i32::try_from(attempt.min(64)).expect("small"));
        d = d.min(cap);
        if r.jitter > 0.0 {
            d *= 1.0 + r.jitter * (2.0 * self.rng.unit() - 1.0);
        }
        SimDuration::from_secs_f64(d)
    }

    fn issue_attach_request(&mut self, now: SimTime) {
        let Some(attempt) = self.attach.as_ref().map(|p| p.attempt) else {
            return;
        };
        let window = self.retry_delay(attempt);
        // The request is addressed to the preferred replica by directory
        // name; the SAP payload still names the SIM-pinned operator,
        // which every replica signs as.
        let replica = self.select_replica(now);
        let broker_id = self.cfg.brokers[replica].name.clone();
        let pending = self.attach.as_mut().expect("checked above");
        pending.attempt += 1;
        pending.replica = replica;
        let (req, nonce) = sap::ue_build_request(
            &self.cfg.keys,
            &self.cfg.broker_name,
            &self.cfg.broker_encrypt_pk,
            pending.id_t,
            &mut self.rng,
        );
        pending.nonce = nonce;
        let agw_sig = pending.agw_sig;
        let msg = NasMessage::SapAttachRequest {
            ue_sig: self.cfg.ue_sig,
            broker_id,
            payload: Bytes::from(req.encode().to_vec()),
        };
        self.attach_deadline = Some(now + window);
        self.port
            .send(now, Packet::control(self.cfg.ue_sig, agw_sig, msg.encode()));
    }

    /// Detach from the serving bTelco: emit the final billing report,
    /// notify the bTelco, and invalidate the interface address (which
    /// arms MPTCP's address worker — Fig. 4's detachment procedure).
    pub fn detach(&mut self, now: SimTime) {
        self.emit_report(now);
        if let Some(serving) = self.serving.take() {
            self.port.stage(
                now,
                Packet::control(
                    self.cfg.ue_sig,
                    serving.agw_sig,
                    NasMessage::DetachRequest { imsi: 0 }.encode(),
                ),
            );
        }
        // Abandon any in-flight attach too: leaving the retry timer armed
        // kept the UE re-issuing SAP requests (fresh nonces) to a telco it
        // deliberately left. `handover` still works — `start_attach`
        // re-arms everything for the new target.
        self.attach = None;
        self.attach_deadline = None;
        self.reattach_at = None;
        self.meter = None;
        self.next_report_at = None;
        self.host.invalidate_addr(now);
    }

    /// Host-driven handover: detach then immediately start attaching to
    /// the target bTelco (break-before-make, §4.2).
    pub fn handover(&mut self, now: SimTime, telco_name: &str, agw_sig: Ipv4Addr) {
        self.detach(now);
        self.start_attach(now, telco_name, agw_sig);
    }

    fn emit_report(&mut self, now: SimTime) {
        // Reports follow the same replica preference as attach requests;
        // every replica resolves the session through the shared store.
        let ctrl_ip = self.cfg.brokers[self.select_replica(now)].ctrl_ip;
        let Some(meter) = &mut self.meter else { return };
        let session_id = meter.session_id();
        let sealed = meter.emit_report(now, &mut self.rng);
        let msg = BrokerWire::Report {
            session_id,
            from_ue: true,
            sealed,
        };
        self.port
            .stage(now, Packet::control(self.cfg.ue_sig, ctrl_ip, msg.encode()));
    }

    /// Forward what the host stack sent, metered as uplink.
    fn forward_host_output(&mut self, out: &mut Vec<Packet>) {
        let start = out.len();
        self.host.drain_out(out);
        if let Some(meter) = &mut self.meter {
            for p in &out[start..] {
                meter.account_ul(u64::from(p.wire_size()));
            }
        }
    }

    fn on_accept_verified(&mut self, now: SimTime, ue_ip: Ipv4Addr, payload: &[u8]) {
        let Some(pending) = self.attach.as_ref() else {
            return;
        };
        // An accept that fails to decode or verify against the *current*
        // attempt is stale — typically the reply to a superseded request
        // flushed out of a broker outage after the UE already retried
        // with a fresh nonce — or forged. Either way it must not destroy
        // the in-flight attach: ignore it and let the retry machinery
        // (which the genuine reply can still beat) provide liveness.
        let Some(resp) = SignedSealed::decode(payload) else {
            self.stale_accepts += 1;
            telemetry::counter("core.ue.stale_accepts").inc();
            return;
        };
        match sap::ue_verify_response(
            &self.cfg.keys,
            &self.cfg.broker_sign_pk,
            &pending.nonce,
            pending.id_t,
            &resp,
        ) {
            Ok(body) => {
                let pending = self.attach.take().expect("checked above");
                self.attach_deadline = None;
                self.reattach_at = None;
                self.last_dl_at = now;
                if let Some(since) = self.recovering_since.take() {
                    telemetry::histogram("fault.recovery.reattach_ns")
                        .record(now.since(since).as_nanos());
                }
                let latency = now.since(pending.started);
                self.last_attach_latency = Some(latency);
                self.attach_latency_ms.record(latency.as_millis_f64());
                telemetry::histogram("core.sap.attach_latency_ns").record(latency.as_nanos());
                telemetry::trace_span(
                    "sap.attach",
                    "sap",
                    pending.started.as_nanos(),
                    now.as_nanos(),
                    1,
                );
                self.attaches += 1;
                self.serving = Some(Serving {
                    agw_sig: pending.agw_sig,
                    id_t: pending.id_t,
                    session_id: body.session_id,
                });
                // The meter signs with the broker-issued UE key and seals
                // to the broker (paper §4.3).
                self.meter = Some(BasebandMeter::new(
                    body.session_id,
                    self.cfg.keys.sign.clone(),
                    self.cfg.broker_encrypt_pk,
                    now,
                ));
                self.next_report_at = Some(now + self.cfg.report_interval);
                // Fig. 4: the interface regains an address; MPTCP reacts.
                self.host.assign_addr(now, ue_ip);
            }
            Err(_) => {
                self.stale_accepts += 1;
                telemetry::counter("core.ue.stale_accepts").inc();
            }
        }
    }
}

impl ControlParty for UeDevice {
    cellbricks_net::port_field!();

    fn on_packet(&mut self, now: SimTime, pkt: Packet, out: &mut Vec<Packet>) {
        match &pkt.kind {
            PacketKind::Control(bytes) => {
                if pkt.dst != self.cfg.ue_sig {
                    return;
                }
                match NasMessage::decode(bytes) {
                    Some(NasMessage::SapAttachAccept { ue_ip, payload, .. }) => {
                        // Verification costs crypto time; defer.
                        self.port.bill(self.cfg.verify_delay);
                        self.deferred.push(
                            now + self.cfg.verify_delay,
                            Deferred::Accept { ue_ip, payload },
                        );
                    }
                    Some(NasMessage::SapAttachReject { .. }) => {
                        self.failures += 1;
                        self.attach = None;
                        self.attach_deadline = None;
                    }
                    _ => {}
                }
            }
            _ => {
                // Data plane: baseband accounting, then the host stack.
                self.last_dl_at = now;
                if let Some(meter) = &mut self.meter {
                    meter.account_dl(u64::from(pkt.wire_size()));
                }
                self.host.handle_packet(now, pkt);
                self.forward_host_output(out);
            }
        }
    }

    fn next_timer(&self) -> Option<SimTime> {
        let watchdog = match (self.recovery.reattach_after, &self.serving) {
            (Some(after), Some(_)) => Some(self.last_dl_at + after),
            _ => None,
        };
        [
            self.deferred.peek_time(),
            self.next_report_at,
            self.attach_deadline,
            watchdog,
            self.reattach_at,
            self.host.poll_at(),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    fn on_timer(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        // Inactivity watchdog: attached but no downlink for the
        // configured window — the serving telco likely crashed and lost
        // the session (it will never page us again). Detach locally and
        // run a fresh SAP attach against the same target.
        if let (Some(after), Some(_)) = (self.recovery.reattach_after, self.serving.as_ref()) {
            if now >= self.last_dl_at + after {
                self.watchdog_reattaches += 1;
                telemetry::counter("core.ue.watchdog_reattach").inc();
                if self.recovering_since.is_none() {
                    self.recovering_since = Some(now);
                }
                let (name, agw_sig) = self.last_target.clone().expect("serving implies a target");
                self.detach(now);
                self.start_attach(now, &name, agw_sig);
            }
        }
        // Scheduled fresh attach cycle (armed after retry exhaustion).
        if let Some(at) = self.reattach_at {
            if now >= at && self.attach.is_none() && self.serving.is_none() {
                self.reattach_at = None;
                if let Some((name, agw_sig)) = self.last_target.clone() {
                    self.start_attach(now, &name, agw_sig);
                }
            }
        }
        // Attach retry: the request or its answer was lost.
        if let Some(deadline) = self.attach_deadline {
            if now >= deadline {
                // The outstanding request's replica never answered:
                // quarantine it so the re-issue (or the later fresh
                // cycle) fails over to the next-lowest-RTT replica.
                self.penalize_pending_replica(now);
                match self.attach.as_mut() {
                    Some(p) if p.retries_left > 0 => {
                        p.retries_left -= 1;
                        self.attach_retries += 1;
                        self.issue_attach_request(now);
                    }
                    _ => {
                        self.attach = None;
                        self.attach_deadline = None;
                        self.failures += 1;
                        // While in fault recovery, keep trying: arm a
                        // fresh attach cycle one capped window out rather
                        // than stranding the UE forever.
                        if self.recovery.reattach_after.is_some() && self.last_target.is_some() {
                            self.reattach_at = Some(now + self.recovery.backoff_cap);
                        }
                    }
                }
            }
        }
        while let Some((_, d)) = self.deferred.pop_due(now) {
            match d {
                Deferred::Accept { ue_ip, payload } => {
                    self.on_accept_verified(now, ue_ip, &payload);
                }
            }
        }
        if let Some(at) = self.next_report_at {
            if now >= at {
                self.emit_report(now);
                self.next_report_at = Some(now + self.cfg.report_interval);
            }
        }
        self.host.poll(now);
        self.forward_host_output(out);
    }
}

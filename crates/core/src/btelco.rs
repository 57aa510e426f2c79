//! The bTelco gateway: a CellBricks-native access gateway.
//!
//! Composes the EPC substrate (bearers, IP pool, PGW accounting) with the
//! SAP attach path: instead of EPS-AKA against a SubscriberDB, it relays
//! `authReqU` to the user's broker with its own QoS capabilities attached
//! — a single round trip. It also emits periodic signed traffic reports
//! per session (the bTelco side of the verifiable-billing protocol), and
//! can be turned dishonest ([`BTelcoGateway::set_overcount_factor`]) to
//! exercise the reputation system.

use crate::brokerd::BrokerWire;
use crate::principal::TelcoKeys;
use crate::sap::{self, QosCap, RespTBody};
use bytes::Bytes;
use cellbricks_crypto::ed25519::VerifyingKey;
use cellbricks_crypto::x25519::X25519PublicKey;
use cellbricks_epc::gateway::{BearerTable, IpPool};
use cellbricks_epc::nas::NasMessage;
use cellbricks_net::{
    ControlEndpoint, ControlParty, ControlPort, EndpointFault, NodeId, Packet, PacketKind,
};
use cellbricks_sim::{SimDuration, SimRng, SimTime};
use cellbricks_telemetry as telemetry;
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;

/// How a bTelco reaches (and seals reports to) a broker.
#[derive(Clone)]
pub struct BrokerContact {
    /// Control-plane address of `brokerd`.
    pub ctrl_ip: Ipv4Addr,
    /// The broker's encryption public key (published, like any service
    /// key, via the PKI/directory the paper assumes).
    pub encrypt_pk: X25519PublicKey,
}

/// bTelco gateway configuration.
#[derive(Clone)]
pub struct BTelcoGatewayConfig {
    /// Signalling address.
    pub sig_ip: Ipv4Addr,
    /// UE address pool base (a /16).
    pub pool_base: Ipv4Addr,
    /// Keys + certificate.
    pub keys: TelcoKeys,
    /// CA public key (to verify broker replies).
    pub ca: VerifyingKey,
    /// Brokers this bTelco can reach, by name.
    pub brokers: HashMap<String, BrokerContact>,
    /// QoS this deployment can enforce.
    pub qos_cap: QosCap,
    /// Per-control-message processing delay (the CellBricks "AGW" slice
    /// of Fig. 7, including the signature/sealing work).
    pub proc_delay: SimDuration,
    /// Billing report interval.
    pub report_interval: SimDuration,
}

struct SessionState {
    session_id: u64,
    broker_name: String,
    seq: u32,
    /// Counter snapshots at the last report.
    last_dl: u64,
    last_ul: u64,
    last_cycle_at: SimTime,
}

struct PendingAttach {
    ue_sig: Ipv4Addr,
    broker_name: String,
}

/// The bTelco gateway; its port bills each control message it
/// originates, and stages its billing reports.
pub struct BTelcoGateway {
    port: ControlPort,
    cfg: BTelcoGatewayConfig,
    pool: IpPool,
    /// Active bearers (public for harness inspection).
    pub bearers: BearerTable,
    /// Keyed and iterated in address order (report emission order must be
    /// deterministic).
    sessions: BTreeMap<Ipv4Addr, SessionState>,
    pending_attach: HashMap<u64, PendingAttach>,
    next_req_id: u64,
    next_report_at: SimTime,
    rng: SimRng,
    /// Usage inflation factor: 1.0 = honest; >1 inflates DL usage in
    /// reports (the "dishonest but not malicious" threat of §4.3).
    overcount_factor: f64,
    /// Attaches completed.
    pub attach_count: u64,
    /// Attaches rejected (by broker or locally).
    pub reject_count: u64,
    /// Data packets dropped for lack of a bearer.
    pub no_bearer_drops: u64,
    /// Injected crash+restart faults taken.
    pub crashes: u64,
}

impl BTelcoGateway {
    /// Create the gateway on `node`.
    #[must_use]
    pub fn new(node: NodeId, cfg: BTelcoGatewayConfig, rng: SimRng) -> ControlEndpoint<Self> {
        ControlEndpoint::new(Self {
            port: ControlPort::new(node, cfg.proc_delay),
            pool: IpPool::new(cfg.pool_base),
            next_report_at: SimTime::ZERO + cfg.report_interval,
            cfg,
            bearers: BearerTable::new(),
            sessions: BTreeMap::new(),
            pending_attach: HashMap::new(),
            next_req_id: 1,
            rng,
            overcount_factor: 1.0,
            attach_count: 0,
            reject_count: 0,
            no_bearer_drops: 0,
            crashes: 0,
        })
    }

    /// Number of live billing sessions.
    #[must_use]
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Change the usage-inflation factor (1.0, honest, at construction)
    /// — how a test turns a bTelco dishonest.
    pub fn set_overcount_factor(&mut self, factor: f64) {
        self.overcount_factor = factor;
    }

    fn emit_control(&mut self, now: SimTime, dst: Ipv4Addr, bytes: Bytes) {
        let pkt = Packet::control(self.cfg.sig_ip, dst, bytes);
        self.port.send(now, pkt);
    }

    fn reject(&mut self, now: SimTime, ue_sig: Ipv4Addr, cause: u8) {
        self.reject_count += 1;
        let msg = NasMessage::SapAttachReject { ue_sig, cause };
        self.emit_control(now, ue_sig, msg.encode());
    }

    fn on_sap_attach(&mut self, now: SimTime, ue_sig: Ipv4Addr, broker_id: &str, payload: &[u8]) {
        let Some(req_u) = sap::AuthReqU::decode(payload) else {
            self.reject(now, ue_sig, 1);
            return;
        };
        let Some(contact) = self.cfg.brokers.get(broker_id) else {
            // Unknown broker: this bTelco cannot serve the user.
            self.reject(now, ue_sig, 2);
            return;
        };
        let ctrl_ip = contact.ctrl_ip;
        let req_t = sap::telco_wrap_request(&self.cfg.keys, req_u, self.cfg.qos_cap.clone());
        let req_id = self.next_req_id;
        self.next_req_id += 1;
        self.pending_attach.insert(
            req_id,
            PendingAttach {
                ue_sig,
                broker_name: broker_id.to_string(),
            },
        );
        self.emit_control(
            now,
            ctrl_ip,
            BrokerWire::AuthReq {
                req_id,
                req_t: req_t.encode(),
            }
            .encode(),
        );
    }

    fn on_broker_reply(&mut self, now: SimTime, msg: BrokerWire) {
        match msg {
            BrokerWire::AuthOk { req_id, reply } => {
                let Some(pending) = self.pending_attach.remove(&req_id) else {
                    return;
                };
                let Some(reply) = sap::BrokerReply::decode(&reply) else {
                    self.reject_count += 1;
                    return;
                };
                let body: RespTBody =
                    match sap::telco_verify_reply(&self.cfg.keys, &self.cfg.ca, &reply) {
                        Ok(b) => b,
                        Err(_) => {
                            self.reject(now, pending.ue_sig, 3);
                            return;
                        }
                    };
                let Some(ue_ip) = self.pool.allocate() else {
                    self.reject(now, pending.ue_sig, 4);
                    return;
                };
                // The bearer records the UE *alias*, fresh per session —
                // the bTelco never learns the user's identity.
                let bearer_id = self.bearers.establish(
                    body.ue_alias,
                    ue_ip,
                    pending.ue_sig,
                    Some(body.qos.mbr_bps as f64),
                    now,
                );
                self.sessions.insert(
                    ue_ip,
                    SessionState {
                        session_id: body.session_id,
                        broker_name: pending.broker_name,
                        seq: 0,
                        last_dl: 0,
                        last_ul: 0,
                        last_cycle_at: now,
                    },
                );
                self.attach_count += 1;
                self.emit_control(
                    now,
                    pending.ue_sig,
                    NasMessage::SapAttachAccept {
                        ue_sig: pending.ue_sig,
                        ue_ip,
                        bearer_id,
                        payload: Bytes::from(reply.resp_u.encode().to_vec()),
                    }
                    .encode(),
                );
            }
            BrokerWire::AuthErr { req_id, .. } => {
                if let Some(pending) = self.pending_attach.remove(&req_id) {
                    self.reject(now, pending.ue_sig, 5);
                }
            }
            _ => {}
        }
    }

    fn on_detach(&mut self, now: SimTime, ue_ip: Ipv4Addr) {
        // Final report for the closing cycle, then release.
        self.emit_session_report(now, ue_ip);
        if let Some(b) = self.bearers.release(ue_ip) {
            self.pool.release(b.ue_ip);
        }
        self.sessions.remove(&ue_ip);
    }

    fn emit_session_report(&mut self, now: SimTime, ue_ip: Ipv4Addr) {
        let Some(bearer) = self.bearers.get(ue_ip) else {
            return;
        };
        let (dl_total, ul_total) = (bearer.dl_bytes, bearer.ul_bytes);
        let Some(session) = self.sessions.get_mut(&ue_ip) else {
            return;
        };
        let dl = dl_total - session.last_dl;
        let ul = ul_total - session.last_ul;
        let elapsed = now.saturating_since(session.last_cycle_at);
        let secs = elapsed.as_secs_f64().max(1e-9);
        // A dishonest bTelco inflates its reported downlink usage.
        let reported_dl = (dl as f64 * self.overcount_factor) as u64;
        let report = crate::billing::TrafficReport {
            session_id: session.session_id,
            seq: session.seq,
            ul_bytes: ul,
            dl_bytes: reported_dl,
            duration_ms: (secs * 1e3) as u64,
            dl_loss_ppm: 0,
            ul_loss_ppm: 0,
            avg_dl_kbps: (reported_dl as f64 * 8.0 / secs / 1e3) as u32,
            avg_ul_kbps: (ul as f64 * 8.0 / secs / 1e3) as u32,
            delay_ms: 0,
        };
        session.seq += 1;
        session.last_dl = dl_total;
        session.last_ul = ul_total;
        session.last_cycle_at = now;
        let session_id = session.session_id;
        let broker_name = session.broker_name.clone();
        let Some(contact) = self.cfg.brokers.get(&broker_name) else {
            return;
        };
        let ctrl_ip = contact.ctrl_ip;
        let sealed = report.sign_and_seal(&self.cfg.keys.sign, &contact.encrypt_pk, &mut self.rng);
        let msg = BrokerWire::Report {
            session_id,
            from_ue: false,
            sealed,
        };
        let pkt = Packet::control(self.cfg.sig_ip, ctrl_ip, msg.encode());
        self.port.stage(now, pkt);
    }
}

impl ControlParty for BTelcoGateway {
    cellbricks_net::port_field!();

    fn on_packet(&mut self, now: SimTime, pkt: Packet, out: &mut Vec<Packet>) {
        match &pkt.kind {
            PacketKind::Control(bytes) => {
                if pkt.dst != self.cfg.sig_ip {
                    out.push(pkt.clone());
                    return;
                }
                if let Some(msg) = NasMessage::decode(bytes) {
                    match msg {
                        NasMessage::SapAttachRequest {
                            ue_sig,
                            broker_id,
                            payload,
                        } => self.on_sap_attach(now, ue_sig, &broker_id, &payload),
                        NasMessage::DetachRequest { .. } => {
                            // The UE is identified by its signalling
                            // address (it has no IMSI in CellBricks).
                            let ip = self
                                .bearers
                                .iter()
                                .find(|b| b.ue_sig == pkt.src)
                                .map(|b| b.ue_ip);
                            if let Some(ip) = ip {
                                self.on_detach(now, ip);
                            }
                        }
                        _ => {}
                    }
                } else if let Some(msg) = BrokerWire::decode(bytes) {
                    self.on_broker_reply(now, msg);
                }
            }
            // Data plane: PGW forwarding with accounting and MBR
            // enforcement of the broker-granted qosInfo (paper §4.1:
            // "B can then send specific parameter values (qosInfo)"
            // which T implements).
            _ => {
                let size = pkt.wire_size();
                if let Some(b) = self.bearers.get_mut(pkt.dst) {
                    if b.police_dl(now, size) {
                        b.dl_bytes += u64::from(size);
                        out.push(pkt);
                    }
                } else if let Some(b) = self.bearers.get_mut(pkt.src) {
                    b.ul_bytes += u64::from(size);
                    out.push(pkt);
                } else {
                    self.no_bearer_drops += 1;
                }
            }
        }
    }

    fn next_timer(&self) -> Option<SimTime> {
        (!self.sessions.is_empty()).then_some(self.next_report_at)
    }

    fn on_timer(&mut self, now: SimTime, _out: &mut Vec<Packet>) {
        if now >= self.next_report_at {
            let ips: Vec<Ipv4Addr> = self.sessions.keys().copied().collect();
            for ip in ips {
                self.emit_session_report(now, ip);
            }
            self.next_report_at = now + self.cfg.report_interval;
        }
    }

    fn on_fault(&mut self, fault: &EndpointFault, up_at: SimTime) {
        match fault {
            EndpointFault::CrashRestart { .. } => {
                // Volatile state dies with the process: sessions, bearers,
                // metering counters and in-flight attach relays (the
                // adapter drops the staged output). The address pool
                // restarts too — a recovering UE gets a fresh
                // allocation. The UE-side sealed meter is what keeps
                // billing honest across this (paper §4.3).
                self.crashes += 1;
                telemetry::counter("core.btelco.crashes").inc();
                self.sessions.clear();
                self.bearers = BearerTable::new();
                self.pending_attach.clear();
                self.pool = IpPool::new(self.cfg.pool_base);
                self.next_report_at = up_at + self.cfg.report_interval;
            }
            EndpointFault::Unavailable { .. } => {
                telemetry::counter("core.btelco.unavailable_windows").inc();
            }
        }
    }
}

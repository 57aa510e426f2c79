//! The baseline access gateway (Magma-like AGW = MME + SGW + PGW).
//!
//! Implements the standard attach: NAS handling, EPS-AKA via the
//! SubscriberDB (AIR), security-mode control, the Update Location
//! Request (the second cloud round trip that CellBricks drops), bearer
//! establishment with IP allocation, and a PGW data plane that forwards
//! UE traffic with usage accounting.

use crate::aka::{derive_nas_int_key, nas_mac};
use crate::gateway::{BearerTable, IpPool};
use crate::nas::NasMessage;
use crate::s6a::S6aMessage;
use cellbricks_net::{ControlEndpoint, ControlParty, ControlPort, NodeId, Packet, PacketKind};
use cellbricks_sim::{SimDuration, SimTime};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// AGW configuration.
#[derive(Clone, Debug)]
pub struct AgwConfig {
    /// The AGW's signalling address.
    pub sig_ip: Ipv4Addr,
    /// The SubscriberDB's address.
    pub sdb_ip: Ipv4Addr,
    /// UE address pool base (a /16).
    pub pool_base: Ipv4Addr,
    /// Per-control-message processing delay.
    pub proc_delay: SimDuration,
}

#[allow(clippy::enum_variant_names)] // States are "awaiting X" by nature.
enum AttachState {
    AwaitingAia {
        ue_sig: Ipv4Addr,
    },
    AwaitingAuthResp {
        ue_sig: Ipv4Addr,
        xres: [u8; 8],
        kasme: [u8; 32],
    },
    AwaitingSmc {
        ue_sig: Ipv4Addr,
        kasme: [u8; 32],
    },
    AwaitingUla {
        ue_sig: Ipv4Addr,
    },
}

/// The baseline access gateway; its port bills each control message it
/// originates.
pub struct Agw {
    port: ControlPort,
    cfg: AgwConfig,
    pool: IpPool,
    /// Active bearers (public for harness inspection/accounting).
    pub bearers: BearerTable,
    attaches: HashMap<u64, AttachState>,
    /// Completed attaches.
    pub attach_count: u64,
    /// Rejected attaches.
    pub reject_count: u64,
    /// Data packets dropped for lack of a bearer.
    pub no_bearer_drops: u64,
}

impl Agw {
    /// Create the AGW on `node`.
    #[must_use]
    pub fn new(node: NodeId, cfg: AgwConfig) -> ControlEndpoint<Self> {
        ControlEndpoint::new(Self {
            port: ControlPort::new(node, cfg.proc_delay),
            pool: IpPool::new(cfg.pool_base),
            cfg,
            bearers: BearerTable::new(),
            attaches: HashMap::new(),
            attach_count: 0,
            reject_count: 0,
            no_bearer_drops: 0,
        })
    }

    fn emit_control(&mut self, now: SimTime, dst: Ipv4Addr, bytes: bytes::Bytes) {
        let pkt = Packet::control(self.cfg.sig_ip, dst, bytes);
        self.port.send(now, pkt);
    }

    fn emit_nas(&mut self, now: SimTime, dst: Ipv4Addr, msg: NasMessage) {
        self.emit_control(now, dst, msg.encode());
    }

    fn emit_s6a(&mut self, now: SimTime, msg: S6aMessage) {
        let dst = self.cfg.sdb_ip;
        self.emit_control(now, dst, msg.encode());
    }

    fn reject(&mut self, now: SimTime, imsi: u64, ue_sig: Ipv4Addr, cause: u8) {
        self.reject_count += 1;
        self.attaches.remove(&imsi);
        self.emit_nas(now, ue_sig, NasMessage::AttachReject { imsi, cause });
    }

    fn on_nas(&mut self, now: SimTime, msg: NasMessage) {
        match msg {
            NasMessage::AttachRequest { imsi, ue_sig } => {
                self.attaches
                    .insert(imsi, AttachState::AwaitingAia { ue_sig });
                self.emit_s6a(now, S6aMessage::Air { imsi });
            }
            NasMessage::AuthenticationResponse { imsi, res } => {
                let Some(AttachState::AwaitingAuthResp {
                    ue_sig,
                    xres,
                    kasme,
                }) = self.attaches.get(&imsi)
                else {
                    return;
                };
                let (ue_sig, xres, kasme) = (*ue_sig, *xres, *kasme);
                if !cellbricks_crypto::ct_eq(&res, &xres) {
                    self.reject(now, imsi, ue_sig, 3);
                    return;
                }
                let k_int = derive_nas_int_key(&kasme);
                let mac = nas_mac(&k_int, b"security-mode-command");
                self.attaches
                    .insert(imsi, AttachState::AwaitingSmc { ue_sig, kasme });
                self.emit_nas(now, ue_sig, NasMessage::SecurityModeCommand { imsi, mac });
            }
            NasMessage::SecurityModeComplete { imsi, mac } => {
                let Some(AttachState::AwaitingSmc { ue_sig, kasme }) = self.attaches.get(&imsi)
                else {
                    return;
                };
                let (ue_sig, kasme) = (*ue_sig, *kasme);
                let k_int = derive_nas_int_key(&kasme);
                let expected = nas_mac(&k_int, b"security-mode-complete");
                if !cellbricks_crypto::ct_eq(&mac, &expected) {
                    self.reject(now, imsi, ue_sig, 4);
                    return;
                }
                // The standard S6A flow: second round trip (ULR) before
                // the attach can be accepted.
                self.attaches
                    .insert(imsi, AttachState::AwaitingUla { ue_sig });
                self.emit_s6a(now, S6aMessage::Ulr { imsi });
            }
            NasMessage::AttachComplete { .. } => {}
            NasMessage::DetachRequest { imsi } => {
                let ip = self
                    .bearers
                    .iter()
                    .find(|b| b.subscriber == imsi)
                    .map(|b| b.ue_ip);
                if let Some(ip) = ip {
                    let bearer = self.bearers.release(ip);
                    if let Some(b) = bearer {
                        self.pool.release(b.ue_ip);
                        self.emit_nas(now, b.ue_sig, NasMessage::DetachAccept { imsi });
                    }
                }
            }
            // Network-originated messages arriving here are misrouted.
            _ => {}
        }
    }

    fn on_s6a(&mut self, now: SimTime, msg: S6aMessage) {
        match msg {
            S6aMessage::Aia {
                imsi,
                rand,
                autn,
                xres,
                kasme,
            } => {
                let Some(AttachState::AwaitingAia { ue_sig }) = self.attaches.get(&imsi) else {
                    return;
                };
                let ue_sig = *ue_sig;
                self.attaches.insert(
                    imsi,
                    AttachState::AwaitingAuthResp {
                        ue_sig,
                        xres,
                        kasme,
                    },
                );
                self.emit_nas(
                    now,
                    ue_sig,
                    NasMessage::AuthenticationRequest { imsi, rand, autn },
                );
            }
            S6aMessage::Ula { imsi, ok } => {
                let Some(AttachState::AwaitingUla { ue_sig }) = self.attaches.get(&imsi) else {
                    return;
                };
                let ue_sig = *ue_sig;
                if !ok {
                    self.reject(now, imsi, ue_sig, 5);
                    return;
                }
                let Some(ue_ip) = self.pool.allocate() else {
                    self.reject(now, imsi, ue_sig, 6);
                    return;
                };
                let bearer_id = self.bearers.establish(imsi, ue_ip, ue_sig, None, now);
                self.attaches.remove(&imsi);
                self.attach_count += 1;
                self.emit_nas(
                    now,
                    ue_sig,
                    NasMessage::AttachAccept {
                        imsi,
                        ue_ip,
                        bearer_id,
                    },
                );
            }
            S6aMessage::Error { imsi, .. } => {
                let ue_sig = match self.attaches.get(&imsi) {
                    Some(
                        AttachState::AwaitingAia { ue_sig }
                        | AttachState::AwaitingAuthResp { ue_sig, .. }
                        | AttachState::AwaitingSmc { ue_sig, .. }
                        | AttachState::AwaitingUla { ue_sig },
                    ) => *ue_sig,
                    None => return,
                };
                self.reject(now, imsi, ue_sig, 7);
            }
            S6aMessage::Air { .. } | S6aMessage::Ulr { .. } => {}
        }
    }
}

impl ControlParty for Agw {
    cellbricks_net::port_field!();

    fn on_packet(&mut self, now: SimTime, pkt: Packet, out: &mut Vec<Packet>) {
        match &pkt.kind {
            PacketKind::Control(bytes) => {
                if pkt.dst != self.cfg.sig_ip {
                    // Control traffic transiting toward another element.
                    out.push(pkt.clone());
                    return;
                }
                if pkt.src == self.cfg.sdb_ip {
                    if let Some(msg) = S6aMessage::decode(bytes) {
                        self.on_s6a(now, msg);
                        return;
                    }
                }
                if let Some(msg) = NasMessage::decode(bytes) {
                    self.on_nas(now, msg);
                }
            }
            // Data plane: PGW forwarding with accounting and bearer check.
            _ => {
                let size = u64::from(pkt.wire_size());
                if let Some(b) = self.bearers.get_mut(pkt.dst) {
                    b.dl_bytes += size;
                    out.push(pkt);
                } else if let Some(b) = self.bearers.get_mut(pkt.src) {
                    b.ul_bytes += size;
                    out.push(pkt);
                } else {
                    self.no_bearer_drops += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use cellbricks_net::Endpoint;

    fn agw() -> ControlEndpoint<Agw> {
        Agw::new(
            NodeId(1),
            AgwConfig {
                sig_ip: Ipv4Addr::new(172, 16, 1, 1),
                sdb_ip: Ipv4Addr::new(172, 16, 0, 1),
                pool_base: Ipv4Addr::new(10, 1, 0, 0),
                proc_delay: SimDuration::from_millis(3),
            },
        )
    }

    #[test]
    fn attach_request_triggers_air() {
        let mut a = agw();
        let mut out = Vec::new();
        let req = NasMessage::AttachRequest {
            imsi: 42,
            ue_sig: Ipv4Addr::new(169, 254, 0, 1),
        };
        a.handle_packet(
            SimTime::ZERO,
            Packet::control(Ipv4Addr::new(169, 254, 0, 1), a.cfg.sig_ip, req.encode()),
            &mut out,
        );
        a.poll(a.poll_at().unwrap(), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst, a.cfg.sdb_ip);
        let PacketKind::Control(bytes) = &out[0].kind else {
            panic!()
        };
        assert_eq!(
            S6aMessage::decode(bytes),
            Some(S6aMessage::Air { imsi: 42 })
        );
    }

    #[test]
    fn data_without_bearer_dropped() {
        let mut a = agw();
        let mut out = Vec::new();
        let pkt = Packet::udp(
            cellbricks_net::EndpointAddr::new(Ipv4Addr::new(10, 1, 0, 2), 1),
            cellbricks_net::EndpointAddr::new(Ipv4Addr::new(8, 8, 8, 8), 2),
            Bytes::new(),
        );
        a.handle_packet(SimTime::ZERO, pkt, &mut out);
        assert!(out.is_empty());
        assert_eq!(a.no_bearer_drops, 1);
    }

    #[test]
    fn data_with_bearer_forwarded_and_counted() {
        let mut a = agw();
        let ue_ip = Ipv4Addr::new(10, 1, 0, 2);
        a.bearers.establish(
            42,
            ue_ip,
            Ipv4Addr::new(169, 254, 0, 1),
            None,
            SimTime::ZERO,
        );
        let mut out = Vec::new();
        // Uplink.
        a.handle_packet(
            SimTime::ZERO,
            Packet::udp(
                cellbricks_net::EndpointAddr::new(ue_ip, 1),
                cellbricks_net::EndpointAddr::new(Ipv4Addr::new(8, 8, 8, 8), 2),
                Bytes::from_static(&[0; 72]),
            ),
            &mut out,
        );
        // Downlink.
        a.handle_packet(
            SimTime::ZERO,
            Packet::udp(
                cellbricks_net::EndpointAddr::new(Ipv4Addr::new(8, 8, 8, 8), 2),
                cellbricks_net::EndpointAddr::new(ue_ip, 1),
                Bytes::from_static(&[0; 172]),
            ),
            &mut out,
        );
        assert_eq!(out.len(), 2);
        let b = a.bearers.get(ue_ip).unwrap();
        assert_eq!(b.ul_bytes, 100);
        assert_eq!(b.dl_bytes, 200);
    }

    #[test]
    fn stray_auth_response_ignored() {
        let mut a = agw();
        let mut out = Vec::new();
        let msg = NasMessage::AuthenticationResponse {
            imsi: 99,
            res: [0; 8],
        };
        a.handle_packet(
            SimTime::ZERO,
            Packet::control(Ipv4Addr::new(169, 254, 0, 1), a.cfg.sig_ip, msg.encode()),
            &mut out,
        );
        assert!(a.poll_at().is_none());
        assert_eq!(a.reject_count, 0);
    }
}

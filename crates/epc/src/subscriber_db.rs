//! The SubscriberDB (HSS): subscriber keys and S6A service.
//!
//! In the paper's testbed this runs locally or on EC2 (us-west-1 /
//! us-east-1); its placement, times two round trips, dominates the
//! baseline attach latency in Fig. 7.

use crate::aka::{derive_vector, SharedKey};
use crate::s6a::S6aMessage;
use cellbricks_net::{ControlEndpoint, ControlParty, ControlPort, NodeId, Packet, PacketKind};
use cellbricks_sim::{SimDuration, SimRng, SimTime};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// The subscriber database; its port bills each answer.
pub struct SubscriberDb {
    port: ControlPort,
    /// This service's address.
    pub ip: Ipv4Addr,
    subscribers: HashMap<u64, SharedKey>,
    rng: SimRng,
    /// AIR requests served.
    pub air_count: u64,
    /// ULR requests served.
    pub ulr_count: u64,
}

impl SubscriberDb {
    /// Create the HSS at `node` with address `ip`.
    #[must_use]
    pub fn new(
        node: NodeId,
        ip: Ipv4Addr,
        proc_delay: SimDuration,
        rng: SimRng,
    ) -> ControlEndpoint<Self> {
        ControlEndpoint::new(Self {
            port: ControlPort::new(node, proc_delay),
            ip,
            subscribers: HashMap::new(),
            rng,
            air_count: 0,
            ulr_count: 0,
        })
    }

    /// Provision a subscriber.
    pub fn provision(&mut self, imsi: u64, key: SharedKey) {
        self.subscribers.insert(imsi, key);
    }

    fn respond(&mut self, now: SimTime, to: Ipv4Addr, msg: S6aMessage) {
        let pkt = Packet::control(self.ip, to, msg.encode());
        self.port.send(now, pkt);
    }
}

impl ControlParty for SubscriberDb {
    cellbricks_net::port_field!();

    fn on_packet(&mut self, now: SimTime, pkt: Packet, _out: &mut Vec<Packet>) {
        let PacketKind::Control(bytes) = &pkt.kind else {
            return;
        };
        let Some(msg) = S6aMessage::decode(bytes) else {
            return;
        };
        match msg {
            S6aMessage::Air { imsi } => {
                self.air_count += 1;
                let reply = match self.subscribers.get(&imsi) {
                    Some(key) => {
                        let mut rand = [0u8; 16];
                        self.rng.fill_bytes(&mut rand);
                        let v = derive_vector(key, rand);
                        S6aMessage::Aia {
                            imsi,
                            rand: v.rand,
                            autn: v.autn,
                            xres: v.xres,
                            kasme: v.kasme,
                        }
                    }
                    None => S6aMessage::Error { imsi, code: 5001 },
                };
                self.respond(now, pkt.src, reply);
            }
            S6aMessage::Ulr { imsi } => {
                self.ulr_count += 1;
                let ok = self.subscribers.contains_key(&imsi);
                self.respond(now, pkt.src, S6aMessage::Ula { imsi, ok });
            }
            // Answers arriving here would be a routing bug; ignore.
            S6aMessage::Aia { .. } | S6aMessage::Ula { .. } | S6aMessage::Error { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellbricks_net::Endpoint;

    fn db() -> ControlEndpoint<SubscriberDb> {
        let mut db = SubscriberDb::new(
            NodeId(0),
            Ipv4Addr::new(172, 16, 0, 1),
            SimDuration::from_millis(3),
            SimRng::new(1),
        );
        db.provision(42, SharedKey([7; 16]));
        db
    }

    fn request(db: &mut ControlEndpoint<SubscriberDb>, msg: S6aMessage) -> S6aMessage {
        let mut out = Vec::new();
        let pkt = Packet::control(Ipv4Addr::new(10, 0, 0, 1), db.ip, msg.encode());
        db.handle_packet(SimTime::ZERO, pkt, &mut out);
        let at = db.poll_at().expect("reply pending");
        db.poll(at, &mut out);
        let PacketKind::Control(bytes) = &out[0].kind else {
            panic!("control reply")
        };
        S6aMessage::decode(bytes).expect("valid reply")
    }

    #[test]
    fn air_returns_vector_for_known_subscriber() {
        let mut db = db();
        match request(&mut db, S6aMessage::Air { imsi: 42 }) {
            S6aMessage::Aia { imsi, xres, .. } => {
                assert_eq!(imsi, 42);
                assert_ne!(xres, [0; 8]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(db.air_count, 1);
        assert_eq!(db.proc_time(), SimDuration::from_millis(3));
    }

    #[test]
    fn air_errors_for_unknown_subscriber() {
        let mut db = db();
        assert!(matches!(
            request(&mut db, S6aMessage::Air { imsi: 999 }),
            S6aMessage::Error { code: 5001, .. }
        ));
    }

    #[test]
    fn ulr_acknowledges_known_subscriber() {
        let mut db = db();
        assert!(matches!(
            request(&mut db, S6aMessage::Ulr { imsi: 42 }),
            S6aMessage::Ula { ok: true, .. }
        ));
        assert!(matches!(
            request(&mut db, S6aMessage::Ulr { imsi: 1 }),
            S6aMessage::Ula { ok: false, .. }
        ));
    }

    #[test]
    fn fresh_rand_every_air() {
        let mut db = db();
        let a = request(&mut db, S6aMessage::Air { imsi: 42 });
        let b = request(&mut db, S6aMessage::Air { imsi: 42 });
        let (S6aMessage::Aia { rand: ra, .. }, S6aMessage::Aia { rand: rb, .. }) = (a, b) else {
            panic!()
        };
        assert_ne!(ra, rb);
    }
}

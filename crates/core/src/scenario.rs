//! One CellBricks world, declared: UEs, bTelcos (an eNB and a gateway
//! each), brokers, and optionally an internet router and a server, on
//! the simulated network with real SAP keys. Fig. 7's CellBricks side,
//! the scale figure and the end-to-end tests each state a [`Scenario`]
//! literal; a field exists only where two of them differ, and what all
//! share (CA, QoS offer, names, address plan) is a constant here.
//!
//! **Topology.** UE `i` has a radio to every bTelco's eNB and camps on
//! bTelco 0; eNB `k` backhauls to gateway `k`. With a `core` link the
//! gateways meet at an internet router holding the brokers' cloud links
//! and the server's edge link; without one the brokers hang off bTelco
//! 0's gateway.
//!
//! **RNG layout.** One `SimRng::new(seed)` stream. Keys are drawn first
//! (brokers, telcos, UEs), the parties' RNGs fork next in the same order,
//! and the `NetWorld` forks last. The order is part of each figure's
//! contract, not only its text: Fig. 7's CellBricks world runs on
//! `seed + 10` under this layout, and on `seed` its `fig7.txt` is the same
//! but `crypto.keycache.hit` moves 1425 → 1428, `crypto.sigmemo.miss`
//! 1441 → 1447 and `crypto.verify` 1512 → 1515.
//!
//! **Endpoint order.** [`World::run_to`] hands the engine UEs, eNBs,
//! telcos, brokers, the internet router, then the server; due endpoints
//! poll in that order.

use crate::broker_plane::{BrokerPair, ReplicaSite};
use crate::brokerd::{Brokerd, BrokerdConfig};
use crate::btelco::{BTelcoGateway, BTelcoGatewayConfig, BrokerContact};
use crate::principal::{BrokerKeys, Identity, TelcoKeys, UeKeys};
use crate::sap::QosCap;
use crate::ue::{BrokerReplica, UeDevice, UeDeviceConfig};
use cellbricks_crypto::cert::CertificateAuthority;
use cellbricks_epc::enb::Enb;
use cellbricks_net::{
    ControlEndpoint, Driver, Endpoint, LinkConfig, LinkId, NetWorld, Router, Topology,
};
use cellbricks_sim::{SimDuration, SimRng, SimTime};
use cellbricks_transport::Host;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// The server's address (`Some` [`Scenario::server`] only).
pub const SERVER_IP: Ipv4Addr = Ipv4Addr::new(52, 9, 1, 1);

/// bTelco `k`'s operator name: `tower-<k+1>.example`.
#[must_use]
pub fn telco_name(k: usize) -> String {
    format!("tower-{}.example", k + 1)
}

/// bTelco `k`'s signalling address: `172.16.<k+1>.1`.
#[must_use]
pub const fn telco_sig(k: usize) -> Ipv4Addr {
    Ipv4Addr::new(172, 16, octet(k + 1), 1)
}

/// The `/16` bTelco `k` leases UE addresses from: `10.<k+1>.0.0`.
const fn telco_pool(k: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, octet(k + 1), 0, 0)
}

/// UE `i`'s signalling address: `169.254.<i/250>.<i%250+1>`.
#[must_use]
pub const fn ue_sig(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(169, 254, octet(i / 250), octet(i % 250 + 1))
}

/// Broker `j`'s control address: `172.16.0.<j+1>`.
#[must_use]
pub const fn broker_ip(j: usize) -> Ipv4Addr {
    Ipv4Addr::new(172, 16, 0, octet(j + 1))
}

const fn octet(v: usize) -> u8 {
    assert!(v <= 255, "scenario too large for its address plan");
    v as u8
}

/// The broker deployment. Each broker sits behind its own cloud link,
/// whose one-way latency is given here.
#[derive(Clone, Debug)]
pub enum Brokers {
    /// Independent brokers, one per cloud-link latency; UE `i`
    /// subscribes to broker `i % n`. A lone broker is `broker.example`,
    /// several are `broker-a.example`, `broker-b.example`, …
    Each(Vec<SimDuration>),
    /// One operator as a primary/standby [`BrokerPair`] over a shared
    /// store (`broker.example`), cloud-link latencies primary first. UEs
    /// carry both replicas with their path latencies as RTT estimates.
    Pair(SimDuration, SimDuration),
}

/// A CellBricks world to build. [`Default`] holds the values most
/// harnesses share; each states only where it differs.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Seed of the one stream every key and party RNG draws from.
    pub seed: u64,
    /// UEs, all subscribed and all camped on bTelco 0.
    pub ues: usize,
    /// bTelcos, one eNB and one gateway each.
    pub telcos: usize,
    /// The brokers and their cloud links.
    pub brokers: Brokers,
    /// Every UE↔eNB radio.
    pub radio: LinkConfig,
    /// eNB↔gateway one-way latency.
    pub backhaul: SimDuration,
    /// Gateway↔internet one-way latency; `None`: no internet router.
    pub core: Option<SimDuration>,
    /// Internet↔server one-way latency; `None`: no server. The server
    /// needs the internet router and carries one UE's data plane.
    pub server: Option<SimDuration>,
    /// UE cost of building a SAP request.
    pub ue_request: SimDuration,
    /// UE cost of verifying the broker's response.
    pub ue_verify: SimDuration,
    /// eNB per-relay cost.
    pub enb_delay: SimDuration,
    /// bTelco gateway per-message cost.
    pub telco_delay: SimDuration,
    /// Broker per-request cost.
    pub broker_delay: SimDuration,
    /// The brokers' Fig. 5 tolerance ε.
    pub epsilon: f64,
    /// The brokers' idle-session retention.
    pub session_retention: SimDuration,
    /// UE and bTelco billing-report interval.
    pub report_interval: SimDuration,
    /// UE attempts per target bTelco.
    pub attach_max_tries: u32,
    /// Every subscriber's plan MBR, bits/s.
    pub plan_mbr_bps: u64,
}

impl Default for Scenario {
    fn default() -> Self {
        let ms = SimDuration::from_millis;
        Self {
            seed: 0,
            ues: 1,
            telcos: 1,
            brokers: Brokers::Each(vec![ms(2)]),
            radio: LinkConfig::delay_only(ms(4)),
            backhaul: ms(1),
            core: None,
            server: None,
            ue_request: ms(1),
            ue_verify: ms(1),
            enb_delay: SimDuration::from_micros(500),
            telco_delay: SimDuration::from_micros(500),
            broker_delay: ms(2),
            epsilon: 0.05,
            session_retention: SimDuration::from_secs(86_400),
            report_interval: SimDuration::from_secs(3_600),
            attach_max_tries: 3,
            plan_mbr_bps: 50_000_000,
        }
    }
}

/// The principals' identities, each kind in draw order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Principals {
    /// One per broker operator (a pair shares one).
    pub brokers: Vec<Identity>,
    /// One per bTelco.
    pub telcos: Vec<Identity>,
    /// One per UE.
    pub ues: Vec<Identity>,
}

/// A built [`Scenario`]: the network, its parties and one engine.
pub struct World {
    /// The simulated network.
    pub net: NetWorld,
    /// The engine [`run_to`](Self::run_to) drives; fault plans go here.
    pub driver: Driver,
    /// The UEs.
    pub ues: Vec<ControlEndpoint<UeDevice>>,
    /// eNB `k` serves bTelco `k`.
    pub enbs: Vec<ControlEndpoint<Enb>>,
    /// The bTelco gateways.
    pub telcos: Vec<ControlEndpoint<BTelcoGateway>>,
    /// The [`Brokers::Each`] brokers (empty for a pair).
    pub brokers: Vec<ControlEndpoint<Brokerd>>,
    /// The [`Brokers::Pair`] replicas.
    pub pair: Option<BrokerPair>,
    /// The internet router, with a [`Scenario::core`] link.
    pub internet: Option<Router>,
    /// The server, with a [`Scenario::server`] link.
    pub server: Option<Host>,
    /// Every principal's identity.
    pub principals: Principals,
    /// UE `i`'s radio to bTelco `k` is `radios[i * telcos + k]`.
    pub radios: Vec<LinkId>,
    /// Broker (or replica) `j`'s cloud link.
    pub clouds: Vec<LinkId>,
}

impl Scenario {
    /// Build the world: keys, topology, parties, network, in that order
    /// (see the module doc for the RNG layout).
    ///
    /// # Panics
    /// If the address plan overflows, several bTelcos share no internet
    /// router, or a server has no internet router or more than one UE.
    #[must_use]
    pub fn build(&self) -> World {
        assert!(
            self.core.is_some() || self.telcos == 1,
            "bTelcos meet at an internet"
        );
        assert!(
            self.server.is_none() || (self.core.is_some() && self.ues == 1),
            "a server sits on the internet and serves one UE"
        );
        let mut rng = SimRng::new(self.seed);
        let ca = CertificateAuthority::from_seed([0xCA; 32]);
        let (cloud_latency, broker_names) = match &self.brokers {
            Brokers::Each(v) if v.len() > 1 => {
                let name = |j| format!("broker-{}.example", char::from(b'a' + octet(j)));
                (v.clone(), (0..v.len()).map(name).collect())
            }
            Brokers::Each(v) => (v.clone(), vec!["broker.example".to_string()]),
            Brokers::Pair(a, b) => (vec![*a, *b], vec!["broker.example".to_string()]),
        };
        let broker_keys: Vec<_> = (broker_names.iter())
            .map(|name| BrokerKeys::generate(name, &ca, &mut rng))
            .collect();
        let telco_keys: Vec<_> = (0..self.telcos)
            .map(|k| TelcoKeys::generate(&telco_name(k), &ca, &mut rng))
            .collect();
        let ue_keys: Vec<_> = (0..self.ues).map(|_| UeKeys::generate(&mut rng)).collect();
        let principals = Principals {
            brokers: broker_keys.iter().map(BrokerKeys::identity).collect(),
            telcos: telco_keys.iter().map(TelcoKeys::identity).collect(),
            ues: ue_keys.iter().map(UeKeys::identity).collect(),
        };

        // Nodes UEs, eNBs, gateways, internet, brokers, server; links
        // radios (UE-major), backhauls, cores, clouds, edge.
        let mut t = Topology::new();
        let ue_nodes: Vec<_> = (0..self.ues).map(|_| t.add_node("ue")).collect();
        let enb_nodes: Vec<_> = (0..self.telcos).map(|_| t.add_node("enb")).collect();
        let agw_nodes: Vec<_> = (0..self.telcos).map(|_| t.add_node("agw")).collect();
        let inet_node = self.core.map(|_| t.add_node("internet"));
        let link = |t: &mut Topology, a, b, latency| {
            t.add_symmetric_link(a, b, LinkConfig::delay_only(latency))
        };
        let mut radios = Vec::with_capacity(self.ues * self.telcos);
        for &ue in &ue_nodes {
            for &enb in &enb_nodes {
                radios.push(t.add_symmetric_link(ue, enb, self.radio.clone()));
            }
        }
        let backs: Vec<_> = (0..self.telcos)
            .map(|k| link(&mut t, enb_nodes[k], agw_nodes[k], self.backhaul))
            .collect();
        let cores: Vec<_> = match (inet_node, self.core) {
            (Some(inet), Some(core)) => (agw_nodes.iter())
                .map(|&agw| link(&mut t, agw, inet, core))
                .collect(),
            _ => Vec::new(),
        };
        let hub = inet_node.unwrap_or(agw_nodes[0]);
        let mut stub = |name, latency| {
            let node = t.add_node(name);
            (node, link(&mut t, hub, node, latency))
        };
        let (broker_nodes, clouds): (Vec<_>, Vec<_>) =
            cloud_latency.iter().map(|&l| stub("broker", l)).unzip();
        let server = self.server.map(|latency| stub("server", latency));

        for (i, &ue) in ue_nodes.iter().enumerate() {
            t.add_default_route(ue, radios[i * self.telcos]);
        }
        for k in 0..self.telcos {
            for i in 0..self.ues {
                t.add_route(enb_nodes[k], ue_sig(i), 32, radios[i * self.telcos + k]);
                t.add_route(agw_nodes[k], ue_sig(i), 32, backs[k]);
            }
            if server.is_some() {
                // The data plane: leased addresses reach the one UE.
                t.add_route(enb_nodes[k], telco_pool(k), 16, radios[k]);
            }
            t.add_default_route(enb_nodes[k], backs[k]);
            t.add_route(agw_nodes[k], telco_pool(k), 16, backs[k]);
            if let Some(&core) = cores.get(k) {
                t.add_default_route(agw_nodes[k], core);
                t.add_route(hub, telco_pool(k), 16, core);
                t.add_route(hub, telco_sig(k), 32, core);
            }
        }
        for (j, (&node, &cloud)) in broker_nodes.iter().zip(&clouds).enumerate() {
            t.add_route(hub, broker_ip(j), 32, cloud);
            t.add_default_route(node, cloud);
        }
        if let Some((node, edge)) = server {
            t.add_route(hub, SERVER_IP, 32, edge);
            t.add_default_route(node, edge);
        }

        // Brokers, each provisioned with its subscribers.
        let broker_cfg = |j: usize| BrokerdConfig {
            ip: broker_ip(j),
            keys: broker_keys[j].clone(),
            ca: ca.public_key(),
            proc_delay: self.broker_delay,
            epsilon: self.epsilon,
            session_retention: self.session_retention,
        };
        let (mut brokers, mut pair) = (Vec::new(), None);
        let directory: HashMap<_, _> = match self.brokers {
            Brokers::Each(_) => {
                for (j, &node) in broker_nodes.iter().enumerate() {
                    brokers.push(Brokerd::new(node, broker_cfg(j), rng.fork()));
                }
                for (i, keys) in ue_keys.iter().enumerate() {
                    let (sign_pk, encrypt_pk) = keys.public();
                    let broker = &mut brokers[i % broker_keys.len()];
                    broker.provision(keys.identity(), sign_pk, encrypt_pk, self.plan_mbr_bps);
                }
                let contact = |(j, keys): (usize, &BrokerKeys)| BrokerContact {
                    ctrl_ip: broker_ip(j),
                    encrypt_pk: keys.encrypt.public_key(),
                };
                let contacts = broker_keys.iter().enumerate().map(contact);
                broker_names.iter().cloned().zip(contacts).collect()
            }
            Brokers::Pair(..) => {
                let site = |j: usize| ReplicaSite {
                    node: broker_nodes[j],
                    ip: broker_ip(j),
                };
                let name = broker_names[0].clone();
                let built = BrokerPair::build(name, &broker_cfg(0), site(0), site(1), &mut rng);
                let p = pair.insert(built);
                for keys in &ue_keys {
                    let (sign_pk, encrypt_pk) = keys.public();
                    p.provision(keys.identity(), sign_pk, encrypt_pk, self.plan_mbr_bps);
                }
                p.directory()
            }
        };

        let telcos = telco_keys.into_iter().enumerate().map(|(k, keys)| {
            let cfg = BTelcoGatewayConfig {
                sig_ip: telco_sig(k),
                pool_base: telco_pool(k),
                keys,
                ca: ca.public_key(),
                brokers: directory.clone(),
                qos_cap: QosCap {
                    max_mbr_bps: 100_000_000,
                    qci_supported: vec![9],
                    li_capable: true,
                },
                proc_delay: self.telco_delay,
                report_interval: self.report_interval,
            };
            BTelcoGateway::new(agw_nodes[k], cfg, rng.fork())
        });
        let telcos = telcos.collect();

        let ues = ue_keys.into_iter().enumerate().map(|(i, keys)| {
            let j = i % broker_keys.len();
            let replicas = match &pair {
                Some(p) => p.ue_replicas(|node| t.path_latency(ue_nodes[i], node).expect("route")),
                None => vec![BrokerReplica {
                    name: broker_names[j].clone(),
                    ctrl_ip: broker_ip(j),
                    rtt: SimDuration::ZERO,
                }],
            };
            let cfg = UeDeviceConfig {
                ue_sig: ue_sig(i),
                keys,
                broker_name: broker_names[j].clone(),
                broker_sign_pk: broker_keys[j].sign.verifying_key(),
                broker_encrypt_pk: broker_keys[j].encrypt.public_key(),
                brokers: replicas,
                proc_delay: self.ue_request,
                verify_delay: self.ue_verify,
                report_interval: self.report_interval,
                attach_max_tries: self.attach_max_tries,
            };
            UeDevice::new(ue_nodes[i], cfg, rng.fork())
        });
        let ues = ues.collect();

        World {
            enbs: (enb_nodes.iter())
                .map(|&node| Enb::new(node, self.enb_delay))
                .collect(),
            internet: inet_node.map(|node| Router::new(node, SimDuration::ZERO)),
            server: server.map(|(node, _)| Host::new(node, Some(SERVER_IP))),
            net: NetWorld::new(t, rng.fork()),
            driver: Driver::new(),
            ues,
            telcos,
            brokers,
            pair,
            principals,
            radios,
            clouds,
        }
    }
}

impl World {
    /// Advance every party to `until`.
    pub fn run_to(&mut self, until: SimTime) {
        fn dynamic<E: Endpoint>(e: &mut E) -> &mut dyn Endpoint {
            e
        }
        let mut endpoints: Vec<&mut dyn Endpoint> = Vec::new();
        endpoints.extend(self.ues.iter_mut().map(dynamic));
        endpoints.extend(self.enbs.iter_mut().map(dynamic));
        endpoints.extend(self.telcos.iter_mut().map(dynamic));
        endpoints.extend(self.brokers.iter_mut().map(dynamic));
        let replicas = self.pair.iter_mut().flat_map(BrokerPair::endpoints_mut);
        endpoints.extend(replicas.map(dynamic));
        endpoints.extend(self.internet.iter_mut().map(dynamic));
        endpoints.extend(self.server.iter_mut().map(dynamic));
        self.driver.run_to(&mut self.net, &mut endpoints, until);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_draw_brokers_then_telcos_then_ues() {
        let w = Scenario {
            seed: 9,
            ues: 2,
            telcos: 2,
            core: Some(SimDuration::from_millis(1)),
            ..Scenario::default()
        }
        .build();
        let mut rng = SimRng::new(9);
        let ca = CertificateAuthority::from_seed([0xCA; 32]);
        let broker = BrokerKeys::generate("broker.example", &ca, &mut rng);
        let telcos = [0, 1].map(|k| TelcoKeys::generate(&telco_name(k), &ca, &mut rng));
        let ues = [0, 1].map(|_| UeKeys::generate(&mut rng));
        assert_eq!(
            w.principals,
            Principals {
                brokers: vec![broker.identity()],
                telcos: telcos.iter().map(TelcoKeys::identity).collect(),
                ues: ues.iter().map(UeKeys::identity).collect(),
            }
        );
    }
}

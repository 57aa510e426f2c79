//! The simulator's adapter over the broker core, for the suites that
//! drive it next to the wire adapter.

use bytes::Bytes;
use cellbricks_core::broker_server::Population;
use cellbricks_core::brokerd::{Brokerd, BrokerdConfig};
use cellbricks_net::{ControlEndpoint, Endpoint, NodeId, Packet};
use cellbricks_sim::{SimDuration, SimRng, SimTime};
use std::net::Ipv4Addr;

const BROKER_IP: Ipv4Addr = Ipv4Addr::new(172, 16, 0, 1);

/// A `Brokerd` provisioned like `pop.server(rng)`: same keys, same
/// subscribers in the same order, same grant rng.
pub fn sim_broker(pop: &Population, rng: SimRng) -> ControlEndpoint<Brokerd> {
    let cfg = BrokerdConfig {
        ip: BROKER_IP,
        keys: pop.broker.clone(),
        ca: pop.ca.public_key(),
        proc_delay: SimDuration::ZERO,
        epsilon: 0.01,
        session_retention: SimDuration::from_secs(86_400),
    };
    let mut brokerd = Brokerd::new(NodeId(0), cfg, rng);
    for ue in &pop.ues {
        let (sign_pk, encrypt_pk) = ue.public();
        brokerd.provision(ue.identity(), sign_pk, encrypt_pk, 50_000_000);
    }
    brokerd
}

/// Deliver one `Control` payload at t = 0 and collect whatever the
/// broker emits for it.
pub fn sim_feed(brokerd: &mut ControlEndpoint<Brokerd>, payload: &[u8], out: &mut Vec<Packet>) {
    let src = Ipv4Addr::new(172, 16, 1, 1);
    let pkt = Packet::control(src, BROKER_IP, Bytes::copy_from_slice(payload));
    brokerd.handle_packet(SimTime::ZERO, pkt, out);
    brokerd.poll(SimTime::ZERO, out);
}

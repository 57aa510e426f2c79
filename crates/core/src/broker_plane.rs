//! The broker deployment: one primary/standby replica pair (paper §3:
//! the broker is "a replicated web service").
//!
//! Two pieces:
//!
//! - [`BrokerStore`] sharing — the pair is two [`Brokerd`] instances
//!   over one store, the simulation stand-in for the paper's replicated
//!   cloud storage: subscriber records, reputation state, billing
//!   sessions and the anti-replay nonce window are all visible to the
//!   standby the instant the primary goes dark.
//! - UE-side selection — the lowest-RTT reachable replica gets the
//!   request. An attach timeout quarantines the unresponsive replica for
//!   a penalty window, so the retry deterministically fails over to the
//!   standby; in-flight sessions re-resolve there through the shared
//!   store.
//!
//! Determinism argument: replica selection breaks RTT ties by index, and
//! failover is driven by the UE's existing retry timer (no new event
//! sources, no extra RNG draws), so store access order is the engine's
//! deterministic packet order.

use crate::brokerd::{BrokerStore, Brokerd, BrokerdConfig};
use crate::btelco::BrokerContact;
use crate::principal::{BrokerKeys, Identity};
use crate::ue::BrokerReplica;
use cellbricks_crypto::ed25519::VerifyingKey;
use cellbricks_crypto::x25519::X25519PublicKey;
use cellbricks_net::{ControlEndpoint, NodeId};
use cellbricks_sim::{SimDuration, SimRng};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Where one replica lives in the topology.
#[derive(Clone, Copy, Debug)]
pub struct ReplicaSite {
    /// The node hosting the broker instance.
    pub node: NodeId,
    /// Its control-plane address.
    pub ip: Ipv4Addr,
}

/// Configuration shared by both replicas.
#[derive(Clone)]
pub struct BrokerPairConfig {
    /// The operator name UEs SIM-pin (e.g. `broker.example`); replica
    /// directory names derive from it.
    pub base_name: String,
    /// One key bundle for the pair: both replicas sign and unseal as the
    /// same operator, so SIM-pinned keys verify against either.
    pub keys: BrokerKeys,
    /// The CA all certificates chain to.
    pub ca: VerifyingKey,
    /// Per-request processing delay of each instance.
    pub proc_delay: SimDuration,
    /// Fig. 5 tolerance ratio ε.
    pub epsilon: f64,
    /// Idle-session retention (see [`BrokerdConfig::session_retention`]).
    pub session_retention: SimDuration,
}

/// A primary/standby pair of [`Brokerd`] instances over a shared store.
pub struct BrokerPair {
    /// The lower-RTT instance UEs prefer while it answers.
    pub primary: ControlEndpoint<Brokerd>,
    /// The failover instance; shares the primary's durable store.
    pub standby: ControlEndpoint<Brokerd>,
    primary_site: ReplicaSite,
    standby_site: ReplicaSite,
    cfg: BrokerPairConfig,
}

impl BrokerPair {
    /// Build the pair; the replica RNGs fork from `rng`, primary first.
    #[must_use]
    pub fn build(
        cfg: BrokerPairConfig,
        primary_site: ReplicaSite,
        standby_site: ReplicaSite,
        rng: &mut SimRng,
    ) -> Self {
        let store = BrokerStore::shared();
        let bcfg = |ip| BrokerdConfig {
            ip,
            keys: cfg.keys.clone(),
            ca: cfg.ca,
            proc_delay: cfg.proc_delay,
            epsilon: cfg.epsilon,
            session_retention: cfg.session_retention,
        };
        Self {
            primary: Brokerd::with_store(
                primary_site.node,
                bcfg(primary_site.ip),
                store.clone(),
                rng.fork(),
            ),
            standby: Brokerd::with_store(
                standby_site.node,
                bcfg(standby_site.ip),
                store,
                rng.fork(),
            ),
            primary_site,
            standby_site,
            cfg,
        }
    }

    /// The two replicas' directory names and sites, primary first.
    fn replicas(&self) -> [(String, ReplicaSite); 2] {
        [("a", self.primary_site), ("b", self.standby_site)]
            .map(|(tag, site)| (format!("{}#{tag}", self.cfg.base_name), site))
    }

    /// Provision a subscriber in the shared store.
    pub fn provision(
        &mut self,
        id: Identity,
        sign_pk: VerifyingKey,
        encrypt_pk: X25519PublicKey,
        plan_mbr_bps: u64,
    ) {
        self.primary
            .provision(id, sign_pk, encrypt_pk, plan_mbr_bps);
    }

    /// The directory bTelcos use to resolve a replica name to a broker
    /// contact — both replicas, under the same operator encryption key.
    #[must_use]
    pub fn directory(&self) -> HashMap<String, BrokerContact> {
        let encrypt_pk = self.cfg.keys.encrypt.public_key();
        self.replicas()
            .into_iter()
            .map(|(name, site)| {
                (
                    name,
                    BrokerContact {
                        ctrl_ip: site.ip,
                        encrypt_pk,
                    },
                )
            })
            .collect()
    }

    /// The replicas provisioned on a UE's SIM, with RTT estimates from
    /// `rtt_of` (typically `Topology::path_latency` from the UE's node).
    #[must_use]
    pub fn ue_replicas(&self, rtt_of: impl Fn(NodeId) -> SimDuration) -> Vec<BrokerReplica> {
        self.replicas()
            .into_iter()
            .map(|(name, site)| BrokerReplica {
                name,
                ctrl_ip: site.ip,
                rtt: rtt_of(site.node),
            })
            .collect()
    }

    /// Both broker endpoints, for driving by an engine.
    pub fn endpoints_mut(&mut self) -> [&mut ControlEndpoint<Brokerd>; 2] {
        [&mut self.primary, &mut self.standby]
    }

    /// Live billing sessions in the shared store.
    #[must_use]
    pub fn sessions_live(&self) -> usize {
        self.primary.sessions_live()
    }
}

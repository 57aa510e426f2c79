//! The distributed broker plane (paper §3: the broker "shards like any
//! online service").
//!
//! Three pieces:
//!
//! - [`BrokerRing`] — consistent hashing with virtual nodes over UE
//!   [`Identity`]. Shard assignment is a pure function of the shard set
//!   and the identity bytes (deterministic across runs and machines —
//!   no `RandomState` anywhere), and adding or removing a shard only
//!   moves the keys that hash onto it (~1/K of the space).
//! - [`BrokerStore`] sharing — each shard is a primary/standby
//!   [`Brokerd`] pair over one store, the simulation stand-in for the
//!   paper's replicated cloud storage: subscriber records, reputation
//!   state, billing sessions and the anti-replay nonce window are all
//!   visible to the standby the instant the primary goes dark.
//! - UE-side selection — the ring pins the *shard* (only the UE knows
//!   its identity; bTelcos route purely by directory name), and the
//!   lowest-RTT reachable replica of that shard gets the request. An
//!   attach timeout quarantines the unresponsive replica for a penalty
//!   window, so the retry deterministically fails over to the standby;
//!   in-flight sessions re-resolve there through the shared store.
//!
//! Determinism argument: the ring never iterates a hash map; replica
//! selection breaks RTT ties by index; failover is driven by the UE's
//! existing retry timer (no new event sources, no extra RNG draws); and
//! both replicas of a shard must be driven by the same engine shard so
//! store access order is the deterministic packet order, not barrier
//! timing. A plane of one shard behaves byte-identically to a lone
//! [`Brokerd`] only if the UE keeps `plane: None` — which is why the
//! single-broker seam is a config option, not a one-shard plane.

use crate::brokerd::{BrokerStore, Brokerd, BrokerdConfig};
use crate::btelco::BrokerContact;
use crate::principal::{BrokerKeys, Identity};
use crate::ue::{BrokerReplica, UePlaneConfig};
use cellbricks_crypto::ed25519::VerifyingKey;
use cellbricks_crypto::x25519::X25519PublicKey;
use cellbricks_net::NodeId;
use cellbricks_sim::{SimDuration, SimRng};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// SplitMix64 finalizer: cheap, well-mixed, dependency-free.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Ring position of a UE identity: FNV-1a over the 16 bytes, then a
/// SplitMix64 finalize to spread FNV's weak low bits over the ring.
fn key_point(id: &Identity) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in &id.0 {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    splitmix64(h)
}

/// Ring position of one virtual node of a shard. Salted so vnode points
/// and key points are decorrelated streams.
fn vnode_point(shard: u32, vnode: u32) -> u64 {
    splitmix64((u64::from(shard) << 32 | u64::from(vnode)) ^ 0x5EED_B0B5_0DD5_EED5)
}

/// Consistent-hash ring mapping UE identities to broker shards.
#[derive(Clone, Debug)]
pub struct BrokerRing {
    vnodes: u32,
    /// Sorted `(point, shard)` pairs; a key maps to the first point at
    /// or after it, wrapping at the top of the u64 space.
    points: Vec<(u64, u32)>,
}

impl BrokerRing {
    /// A ring over shards `0..shards` with `vnodes` virtual nodes each
    /// (64 is a good default: load imbalance stays within ~2x).
    #[must_use]
    pub fn new(shards: u32, vnodes: u32) -> Self {
        assert!(shards > 0, "a ring needs at least one shard");
        assert!(vnodes > 0, "a shard needs at least one virtual node");
        let mut ring = Self {
            vnodes,
            points: Vec::new(),
        };
        for s in 0..shards {
            ring.add_shard(s);
        }
        ring
    }

    /// Add a shard's virtual nodes to the ring.
    pub fn add_shard(&mut self, shard: u32) {
        for v in 0..self.vnodes {
            self.points.push((vnode_point(shard, v), shard));
        }
        self.points.sort_unstable();
    }

    /// Remove a shard; only keys that mapped to it move (to their next
    /// point clockwise).
    pub fn remove_shard(&mut self, shard: u32) {
        self.points.retain(|&(_, s)| s != shard);
        assert!(!self.points.is_empty(), "cannot remove the last shard");
    }

    /// The shard owning `id`: the first virtual node at or clockwise
    /// after the identity's ring position.
    #[must_use]
    pub fn shard_of(&self, id: &Identity) -> u32 {
        let key = key_point(id);
        let idx = self.points.partition_point(|&(p, _)| p < key);
        self.points[idx % self.points.len()].1
    }
}

/// Where one replica of a shard lives in the topology.
#[derive(Clone, Copy, Debug)]
pub struct ReplicaSite {
    /// The node hosting the broker instance.
    pub node: NodeId,
    /// Its control-plane address.
    pub ip: Ipv4Addr,
}

/// One shard of the plane: a primary/standby pair over a shared store.
pub struct BrokerShard {
    /// The lower-RTT instance UEs prefer while it answers.
    pub primary: Brokerd,
    /// The failover instance; shares the primary's durable store.
    pub standby: Brokerd,
    /// Directory name the primary is registered under at bTelcos.
    pub primary_name: String,
    /// Directory name of the standby.
    pub standby_name: String,
    /// Placement of the primary.
    pub primary_site: ReplicaSite,
    /// Placement of the standby.
    pub standby_site: ReplicaSite,
}

/// Plane-wide configuration.
#[derive(Clone)]
pub struct BrokerPlaneConfig {
    /// The operator name UEs SIM-pin (e.g. `broker.example`); replica
    /// directory names derive from it.
    pub base_name: String,
    /// One key bundle for the whole plane: every replica signs and
    /// unseals as the same operator, so SIM-pinned keys verify anywhere.
    pub keys: BrokerKeys,
    /// The CA all certificates chain to.
    pub ca: VerifyingKey,
    /// Per-request processing delay of each instance.
    pub proc_delay: SimDuration,
    /// Fig. 5 tolerance ratio ε.
    pub epsilon: f64,
    /// Idle-session retention (see [`BrokerdConfig::session_retention`]).
    pub session_retention: SimDuration,
    /// Virtual nodes per shard on the ring.
    pub vnodes: u32,
    /// UE-side quarantine window after an attach attempt times out on a
    /// replica.
    pub replica_penalty: SimDuration,
}

/// K broker shards behind a consistent-hash ring.
pub struct BrokerPlane {
    /// The ring mapping identities to shards.
    pub ring: BrokerRing,
    /// The shards, index-aligned with ring shard ids.
    pub shards: Vec<BrokerShard>,
    cfg: BrokerPlaneConfig,
}

impl BrokerPlane {
    /// Build a plane with one shard per `(primary, standby)` site pair.
    /// Each shard's session-id space is offset by `shard << 32` so ids
    /// stay globally unique; replica RNGs fork from `rng` in site order.
    #[must_use]
    pub fn build(
        cfg: BrokerPlaneConfig,
        sites: &[(ReplicaSite, ReplicaSite)],
        rng: &mut SimRng,
    ) -> Self {
        assert!(!sites.is_empty(), "a plane needs at least one shard");
        let shards = sites
            .iter()
            .enumerate()
            .map(|(s, &(primary_site, standby_site))| {
                let store = BrokerStore::shared(1 + ((s as u64) << 32));
                let bcfg = |ip| BrokerdConfig {
                    ip,
                    keys: cfg.keys.clone(),
                    ca: cfg.ca,
                    proc_delay: cfg.proc_delay,
                    epsilon: cfg.epsilon,
                    session_retention: cfg.session_retention,
                };
                BrokerShard {
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
                    primary_name: format!("{}#{s}a", cfg.base_name),
                    standby_name: format!("{}#{s}b", cfg.base_name),
                    primary_site,
                    standby_site,
                }
            })
            .collect();
        let ring = BrokerRing::new(u32::try_from(sites.len()).expect("shard count"), cfg.vnodes);
        Self { ring, shards, cfg }
    }

    /// The shard index owning `id`.
    #[must_use]
    pub fn shard_of(&self, id: &Identity) -> usize {
        self.ring.shard_of(id) as usize
    }

    /// Provision a subscriber on its home shard; returns the shard.
    pub fn provision(
        &mut self,
        id: Identity,
        sign_pk: VerifyingKey,
        encrypt_pk: X25519PublicKey,
        plan_mbr_bps: u64,
    ) -> usize {
        let s = self.shard_of(&id);
        self.shards[s]
            .primary
            .provision(id, sign_pk, encrypt_pk, plan_mbr_bps);
        s
    }

    /// The directory bTelcos use to resolve a replica name to a broker
    /// contact — both replicas of every shard, under the same operator
    /// encryption key.
    #[must_use]
    pub fn directory(&self) -> HashMap<String, BrokerContact> {
        let encrypt_pk = self.cfg.keys.encrypt.public_key();
        let mut dir = HashMap::new();
        for shard in &self.shards {
            dir.insert(
                shard.primary_name.clone(),
                BrokerContact {
                    ctrl_ip: shard.primary_site.ip,
                    encrypt_pk,
                },
            );
            dir.insert(
                shard.standby_name.clone(),
                BrokerContact {
                    ctrl_ip: shard.standby_site.ip,
                    encrypt_pk,
                },
            );
        }
        dir
    }

    /// The plane view provisioned on one UE's SIM: the replicas of its
    /// home shard with RTT estimates from `rtt_of` (typically
    /// `Topology::path_latency` from the UE's node).
    #[must_use]
    pub fn ue_plane(&self, id: &Identity, rtt_of: impl Fn(NodeId) -> SimDuration) -> UePlaneConfig {
        let shard = &self.shards[self.shard_of(id)];
        UePlaneConfig {
            replicas: vec![
                BrokerReplica {
                    name: shard.primary_name.clone(),
                    ctrl_ip: shard.primary_site.ip,
                    rtt: rtt_of(shard.primary_site.node),
                },
                BrokerReplica {
                    name: shard.standby_name.clone(),
                    ctrl_ip: shard.standby_site.ip,
                    rtt: rtt_of(shard.standby_site.node),
                },
            ],
            penalty: self.cfg.replica_penalty,
        }
    }

    /// All 2K broker endpoints, for driving by an engine.
    pub fn endpoints_mut(&mut self) -> Vec<&mut Brokerd> {
        self.shards
            .iter_mut()
            .flat_map(|s| [&mut s.primary, &mut s.standby])
            .collect()
    }

    /// Live billing sessions across the plane (each shard's store
    /// counted once).
    #[must_use]
    pub fn sessions_live(&self) -> usize {
        self.shards.iter().map(|s| s.primary.sessions_live()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(bytes: [u8; 16]) -> Identity {
        Identity(bytes)
    }

    #[test]
    fn ring_is_deterministic_and_total() {
        let a = BrokerRing::new(4, 64);
        let b = BrokerRing::new(4, 64);
        for i in 0..=255u8 {
            let k = id([i; 16]);
            assert_eq!(a.shard_of(&k), b.shard_of(&k));
            assert!(a.shard_of(&k) < 4);
        }
    }

    #[test]
    fn ring_remove_only_moves_owned_keys() {
        let full = BrokerRing::new(4, 64);
        let mut reduced = full.clone();
        reduced.remove_shard(2);
        for i in 0..=255u8 {
            let k = id([i; 16]);
            let before = full.shard_of(&k);
            if before != 2 {
                assert_eq!(reduced.shard_of(&k), before, "unowned key moved");
            } else {
                assert_ne!(reduced.shard_of(&k), 2);
            }
        }
    }

    #[test]
    fn ring_spreads_load() {
        let ring = BrokerRing::new(4, 64);
        let mut counts = [0usize; 4];
        for i in 0..4096u32 {
            let mut bytes = [0u8; 16];
            bytes[..4].copy_from_slice(&i.to_le_bytes());
            counts[ring.shard_of(&id(bytes)) as usize] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                c > 4096 / 16 && c < 4096 / 2,
                "shard {s} holds {c} of 4096 keys"
            );
        }
    }
}

//! Consistent-hash ring properties: the properties that make resharding
//! the broker plane safe are checked over generated identity
//! populations, not hand-picked examples.
//!
//! - **Determinism**: shard assignment is a pure function of the shard
//!   set — two independently built rings always agree, across runs and
//!   machines (no `RandomState` anywhere in the ring).
//! - **Removal exactness**: dropping shard `s` moves *only* the keys
//!   that `s` owned; every other key keeps its assignment.
//! - **Addition bound**: adding a shard steals keys only for itself —
//!   a key either keeps its shard or moves to the new one — and the
//!   stolen fraction is ~1/K (checked with generous slack, since 64
//!   vnodes only bounds imbalance to ~2x).

use cellbricks::core::broker_plane::BrokerRing;
use cellbricks::core::principal::Identity;
use proptest::prelude::*;

const VNODES: u32 = 64;

fn identities(n: usize) -> impl Strategy<Value = Vec<Identity>> {
    proptest::collection::vec(any::<[u8; 16]>().prop_map(Identity), n..n + 1)
}

proptest! {
    /// Two rings built from the same shard count agree on every key, for
    /// every shard count — and assignments are invariant under the
    /// *order* shards were added in.
    #[test]
    fn assignment_is_deterministic(ids in identities(64), k in 1u32..9) {
        let a = BrokerRing::new(k, VNODES);
        let b = BrokerRing::new(k, VNODES);
        // Same shard set reached along a different history (grow past
        // it, then shrink back): assignments depend only on the set.
        let mut c = BrokerRing::new(k + 1, VNODES);
        c.remove_shard(k);
        for id in &ids {
            let s = a.shard_of(id);
            prop_assert!(s < k);
            prop_assert_eq!(b.shard_of(id), s);
            prop_assert_eq!(c.shard_of(id), s);
        }
    }

    /// Removing a shard relocates exactly the keys it owned; everyone
    /// else stays put (the "only ~1/K keys move" contract).
    #[test]
    fn removal_moves_only_owned_keys(ids in identities(256), k in 2u32..9, victim_ix in 0u32..8) {
        let victim = victim_ix % k;
        let full = BrokerRing::new(k, VNODES);
        let mut reduced = BrokerRing::new(k, VNODES);
        reduced.remove_shard(victim);
        for id in &ids {
            let before = full.shard_of(id);
            let after = reduced.shard_of(id);
            prop_assert_ne!(after, victim, "removed shard still assigned");
            if before != victim {
                prop_assert_eq!(after, before, "unowned key moved on removal");
            }
        }
    }

    /// Adding a shard only moves keys *to* the new shard, and the moved
    /// fraction over a large population is on the order of 1/(K+1) —
    /// bounded here by 3x to leave room for vnode placement variance.
    #[test]
    fn addition_steals_roughly_one_kth(ids in identities(512), k in 1u32..8) {
        let old = BrokerRing::new(k, VNODES);
        let mut grown = BrokerRing::new(k, VNODES);
        grown.add_shard(k);
        let mut moved = 0usize;
        for id in &ids {
            let before = old.shard_of(id);
            let after = grown.shard_of(id);
            if after != before {
                prop_assert_eq!(after, k, "key moved to an old shard");
                moved += 1;
            }
        }
        let cap = 3 * ids.len() / (k as usize + 1);
        prop_assert!(
            moved <= cap,
            "adding 1 shard to {} moved {}/{} keys (cap {})",
            k, moved, ids.len(), cap
        );
    }
}

/// Fixed-population sanity check: the churn `add(K) → remove(K)` is a
/// no-op — the ring returns to exactly its prior assignment.
#[test]
fn add_then_remove_restores_assignment() {
    let base = BrokerRing::new(4, VNODES);
    let mut churned = BrokerRing::new(4, VNODES);
    churned.add_shard(4);
    churned.remove_shard(4);
    for i in 0..4096u32 {
        let mut bytes = [0u8; 16];
        bytes[..4].copy_from_slice(&i.to_le_bytes());
        let id = Identity(bytes);
        assert_eq!(churned.shard_of(&id), base.shard_of(&id));
    }
}

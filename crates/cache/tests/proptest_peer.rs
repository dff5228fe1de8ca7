//! Property tests for the cooperative-fleet layer: consistent-hash
//! ownership is a join-order-independent partition of the member set that
//! moves the minimum keyspace on membership changes, and a peer stack —
//! whatever mix of warm owners, cold owners, and self-owned keys a trace
//! exercises — always returns exactly the bytes the backing store holds.

use emlio_cache::peer::{FleetRegistry, LocalPeer, PeerConfig, PeerSource};
use emlio_cache::{BlockKey, CacheConfig, HashRing, RangeSource, ShardCache};
use emlio_tfrecord::FnSource;
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::Arc;

const BLOCK: usize = 100;

fn key(i: u8) -> BlockKey {
    BlockKey {
        shard_id: (i / 32) as u32,
        start: (i % 32) as usize * BLOCK,
        end: ((i % 32) as usize + 1) * BLOCK,
    }
}

fn peer_id(i: u8) -> String {
    format!("peer{i:02}")
}

fn ring_of(ids: &[u8]) -> HashRing {
    let mut ring = HashRing::new();
    for &i in ids {
        ring.add(&peer_id(i));
    }
    ring
}

/// Deterministic reference payload for a block: what the backing store
/// "holds" for that key in the equivalence tests.
fn pattern(key: &BlockKey) -> Vec<u8> {
    (0..key.end - key.start)
        .map(|i| (key.shard_id as usize * 31 + key.start / BLOCK * 7 + i) as u8)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Ownership partitions the keyspace over the member set: every key
    /// has exactly one owner, and that owner is a member.
    #[test]
    fn ownership_is_a_partition_over_members(
        ids in vec(0u8..32, 1..8),
        keys in vec(any::<u8>(), 1..80),
    ) {
        let ring = ring_of(&ids);
        prop_assert_eq!(ring.is_empty(), false);
        for &k in &keys {
            let owner = ring.owner_of(&key(k));
            let owner = owner.expect("non-empty ring owns every key");
            prop_assert!(
                ring.peers().iter().any(|p| p == owner),
                "owner {} of key {} is not a member",
                owner,
                k
            );
        }
    }

    /// Ownership is a pure function of the member *set*: any join order
    /// yields the same owner for every key.
    #[test]
    fn ownership_ignores_join_order(
        ids in vec(0u8..32, 1..8),
        order in any::<u64>(),
        keys in vec(any::<u8>(), 1..80),
    ) {
        let forward = ring_of(&ids);
        // A deterministic shuffle of the same member set.
        let mut shuffled = ids.clone();
        let n = shuffled.len();
        for i in (1..n).rev() {
            shuffled.swap(i, (order as usize).wrapping_mul(i + 7) % (i + 1));
        }
        let reordered = ring_of(&shuffled);
        for &k in &keys {
            prop_assert_eq!(forward.owner_of(&key(k)), reordered.owner_of(&key(k)));
        }
    }

    /// Joining a peer moves keys only *to* the joiner: every key either
    /// keeps its old owner or is now owned by the new member.
    #[test]
    fn join_moves_keys_only_to_the_new_peer(
        ids in vec(0u8..16, 1..6),
        joiner in 16u8..32,
        keys in vec(any::<u8>(), 1..80),
    ) {
        let before = ring_of(&ids);
        let mut after = before.clone();
        after.add(&peer_id(joiner));
        for &k in &keys {
            let old = before.owner_of(&key(k)).unwrap();
            let new = after.owner_of(&key(k)).unwrap();
            prop_assert!(
                new == old || new == peer_id(joiner),
                "key {} moved {} -> {} on join of {}",
                k, old, new, peer_id(joiner)
            );
        }
    }

    /// A peer leaving moves only the keys it owned; survivors' keys stay
    /// put, and the orphaned keys land on surviving members.
    #[test]
    fn leave_moves_only_the_departed_peers_keys(
        ids in vec(0u8..16, 2..8),
        pick in any::<u64>(),
        keys in vec(any::<u8>(), 1..80),
    ) {
        let before = ring_of(&ids);
        let departed = before.peers()[pick as usize % before.peers().len()].clone();
        let mut after = before.clone();
        after.remove(&departed);
        if after.is_empty() {
            // Duplicate ids can collapse the ring to one member; removing
            // it leaves nothing to re-own the keys.
            return Ok(());
        }
        for &k in &keys {
            let old = before.owner_of(&key(k)).unwrap().to_string();
            let new = after.owner_of(&key(k)).unwrap();
            if old == departed {
                prop_assert!(new != departed, "departed peer still owns key {k}");
            } else {
                prop_assert_eq!(&old, new, "survivor's key {} moved on leave", k);
            }
        }
    }

    /// Reads through any fleet member equal the direct reference model —
    /// no matter which peers are warm, which are cold, and who reads what.
    /// Exercises self-owned, peer-hit, peer-miss (flight), and offered
    /// paths in one trace.
    #[test]
    fn peer_stack_reads_equal_direct_reference(
        n_peers in 1usize..5,
        warm in vec((any::<u64>(), any::<u8>()), 0..40),
        trace in vec((any::<u64>(), any::<u8>()), 1..60),
    ) {
        let registry = FleetRegistry::new();
        let mut caches = Vec::new();
        let mut sources = Vec::new();
        for p in 0..n_peers {
            registry.join(&peer_id(p as u8));
        }
        for p in 0..n_peers {
            let cache = Arc::new(
                ShardCache::new(
                    CacheConfig::default()
                        .with_ram_bytes((64 * BLOCK) as u64)
                        .with_prefetch_depth(0),
                )
                .unwrap(),
            );
            registry.attach(&peer_id(p as u8), LocalPeer::new(&cache));
            let inner: Arc<dyn RangeSource> =
                Arc::new(FnSource::new(|k: &BlockKey| Ok(pattern(k))));
            sources.push(PeerSource::new(
                registry.clone(),
                &peer_id(p as u8),
                inner,
                PeerConfig::default(),
            ));
            caches.push(cache);
        }
        // Pre-warm an arbitrary subset of (cache, block) pairs with the
        // reference bytes, as a prior epoch would have.
        for (c, k) in &warm {
            caches[*c as usize % n_peers].insert(key(*k), pattern(&key(*k)));
        }
        for (r, k) in &trace {
            let read = sources[*r as usize % n_peers].read_block(&key(*k)).unwrap();
            let expect = pattern(&key(*k));
            prop_assert_eq!(
                read.data.as_ref(),
                expect.as_slice(),
                "peer stack diverged from reference on key {}",
                k
            );
        }
    }
}

//! Property tests for the cache's one eviction order: for *any* access
//! trace, capacity bounds hold after every operation; outside a plan the
//! residents are exactly the textbook-LRU model's; inside one the cache
//! never evicts the block the plan needs next and misses exactly as often
//! as Belady's MIN.

use emlio_cache::{BlockKey, CacheConfig, ShardCache};
use proptest::collection::vec;
use proptest::prelude::*;

const BLOCK: u64 = 100;

fn key(i: u8) -> BlockKey {
    BlockKey {
        shard_id: 0,
        start: i as usize * BLOCK as usize,
        end: (i as usize + 1) * BLOCK as usize,
    }
}

/// A fresh cache of `cap_blocks` (+ `disk_blocks`) uniform blocks with
/// `plan` installed (empty = no plan), prefetcher off.
fn cache_with_plan(cap_blocks: u64, disk_blocks: u64, plan: &[u8]) -> ShardCache {
    let cache = ShardCache::new(
        CacheConfig::default()
            .with_ram_bytes(cap_blocks * BLOCK)
            .with_disk_bytes(disk_blocks * BLOCK)
            .with_prefetch_depth(0),
    )
    .unwrap();
    if !plan.is_empty() {
        cache.set_plan(plan.iter().map(|&i| key(i)).collect());
    }
    cache
}

fn access(cache: &ShardCache, i: u8) {
    cache
        .get_or_fetch::<std::io::Error, _, _>(key(i), || Ok(vec![i; BLOCK as usize]))
        .unwrap();
}

/// One access of textbook LRU over uniform blocks (most recent at the
/// back); returns whether it hit.
fn lru_access(model: &mut Vec<u8>, cap_blocks: u64, i: u8) -> bool {
    let hit = model.contains(&i);
    model.retain(|&k| k != i);
    model.push(i);
    if model.len() > cap_blocks as usize {
        model.remove(0);
    }
    hit
}

/// Misses of Belady's MIN over uniform blocks: on a miss with the cache
/// full, whichever of the residents and the incoming block is needed
/// furthest in the future goes — the incoming block is bypassed when that
/// is it.
fn min_misses(trace: &[u8], cap_blocks: u64) -> u64 {
    let next_use = |from: usize, k: u8| {
        let ahead = trace[from..].iter().position(|&t| t == k);
        ahead.map_or(usize::MAX, |d| from + d)
    };
    let mut resident: Vec<u8> = Vec::new();
    let mut misses = 0;
    for (pos, &k) in trace.iter().enumerate() {
        if resident.contains(&k) {
            continue;
        }
        misses += 1;
        if resident.len() < cap_blocks as usize {
            resident.push(k);
            continue;
        }
        let (slot, furthest) = (0..resident.len())
            .map(|slot| (slot, next_use(pos + 1, resident[slot])))
            .max_by_key(|&(_, next)| next)
            .unwrap();
        if next_use(pos + 1, k) < furthest {
            resident[slot] = k;
        }
    }
    misses
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Neither tier ever holds more bytes than its configured capacity,
    /// no matter the trace, the (two-tier) configuration, or how much of
    /// the trace the plan covers.
    #[test]
    fn capacity_never_exceeded(
        trace in vec(0u8..24, 1..200),
        cap_blocks in 1u64..8,
        disk_blocks in 0u64..6,
        plan_len in 0usize..200,
    ) {
        let cache = cache_with_plan(cap_blocks, disk_blocks, &trace[..plan_len.min(trace.len())]);
        for &i in &trace {
            access(&cache, i);
            prop_assert!(cache.ram_bytes_used() <= cap_blocks * BLOCK);
            prop_assert!(cache.disk_bytes_used() <= disk_blocks * BLOCK);
        }
    }

    /// Outside a plan the resident set always equals the textbook LRU
    /// model's: from the first access with no plan (`plan_len` 0), and
    /// from the plan's end — the model taking over the residents in
    /// last-access order — when the plan is shorter than the trace.
    #[test]
    fn lru_matches_reference_model(
        trace in vec(0u8..16, 1..200),
        cap_blocks in 1u64..8,
        plan_len in prop_oneof![Just(0usize), 1usize..100],
    ) {
        let plan_len = plan_len.min(trace.len());
        let cache = cache_with_plan(cap_blocks, 0, &trace[..plan_len]);
        let mut last_access = [0usize; 16];
        // Reference model: most-recent at the back.
        let mut model: Vec<u8> = Vec::new();
        for (n, &i) in trace.iter().enumerate() {
            if n == plan_len {
                model = (0u8..16).filter(|&k| cache.contains(&key(k))).collect();
                model.sort_unstable_by_key(|&k| last_access[k as usize]);
            }
            access(&cache, i);
            last_access[i as usize] = n;
            if n < plan_len {
                continue;
            }
            lru_access(&mut model, cap_blocks, i);
            let mut expect: Vec<BlockKey> = model.iter().map(|&k| key(k)).collect();
            expect.sort_unstable();
            prop_assert_eq!(cache.ram_keys(), expect, "after access {} of {}", n, i);
        }
    }

    /// Inside the plan, eviction never throws out the block the plan
    /// demands next: if the next access's block is resident before an
    /// access, it is still resident afterwards (capacity ≥ 2 blocks,
    /// in-order replay).
    #[test]
    fn clairvoyant_never_evicts_next_needed(
        trace in vec(0u8..16, 2..150),
        cap_blocks in 2u64..8,
    ) {
        let cache = cache_with_plan(cap_blocks, 0, &trace);
        for w in trace.windows(2) {
            let (now, next) = (w[0], w[1]);
            let next_resident_before = cache.contains(&key(next));
            access(&cache, now);
            if next_resident_before && next != now {
                prop_assert!(
                    cache.contains(&key(next)),
                    "access of {} evicted next-needed {}",
                    now,
                    next
                );
            }
        }
    }

    /// Belady optimality, observed from outside: on any planned trace the
    /// cache misses exactly as often as the reference MIN model, which is
    /// never more often than the reference LRU model.
    #[test]
    fn clairvoyant_is_never_worse(
        trace in vec(0u8..20, 1..250),
        cap_blocks in 1u64..10,
    ) {
        let cache = cache_with_plan(cap_blocks, 0, &trace);
        let mut lru_model = Vec::new();
        let mut lru_misses = 0;
        for &i in &trace {
            access(&cache, i);
            lru_misses += u64::from(!lru_access(&mut lru_model, cap_blocks, i));
        }
        let s = cache.stats().snapshot();
        prop_assert_eq!(s.hits + s.misses, trace.len() as u64);
        prop_assert_eq!(s.misses, min_misses(&trace, cap_blocks));
        prop_assert!(s.misses <= lru_misses, "opt {} > lru {}", s.misses, lru_misses);
    }
}

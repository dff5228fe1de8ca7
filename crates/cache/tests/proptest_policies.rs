//! Property tests for the cache's one eviction order: for *any* access
//! trace, capacity bounds hold after every operation; outside a plan the
//! residents are exactly the textbook-LRU model's; inside one the cache
//! never evicts the block the plan needs next and misses exactly as often
//! as Belady's MIN. And the slot state machine, explored on one thread so
//! a failure replays: trees of operations in which the inner ones run
//! *inside* a `get_or_fetch` fetch closure — while that slot is `Busy` —
//! keep the books balanced after every step and serve every key its own
//! bytes.

use emlio_cache::{BlockKey, CacheConfig, ShardCache};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::strategy::Recursive;

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

/// One node of an operation tree over keys `0..KEYS`.
#[derive(Clone, Debug)]
enum Op {
    /// `get_or_fetch`; on a miss the inner operations run inside its fetch
    /// closure, i.e. while the key's slot is `Busy`.
    Fetch(u8, Vec<Op>),
    Insert(u8),
    Peek(u8),
    Get(u8),
}

const KEYS: u8 = 8;

fn payload(i: u8) -> Vec<u8> {
    (0..BLOCK as u8)
        .map(|j| i.wrapping_mul(37).wrapping_add(j))
        .collect()
}

fn op_trees() -> Recursive<Op> {
    let leaf = prop_oneof![
        (0..KEYS).prop_map(Op::Insert),
        (0..KEYS).prop_map(Op::Peek),
        (0..KEYS).prop_map(Op::Get),
        (0..KEYS).prop_map(|i| Op::Fetch(i, Vec::new())),
    ];
    leaf.prop_recursive(3, 32, 4, |inner| {
        (0..KEYS, vec(inner, 0..4)).prop_map(|(i, inside)| Op::Fetch(i, inside))
    })
}

/// The books between two operations: the spill queue drained (the writer
/// is the one other thread, so every run of a tree takes the same steps),
/// the accounting is the sum over the slots, and both tiers are inside
/// their budgets with no reservation out.
fn books_balance(cache: &ShardCache) -> Result<(), TestCaseError> {
    cache.flush_spills();
    let (used, reserved) = cache.ram_budget();
    let config = cache.config();
    prop_assert_eq!((used, cache.disk_bytes_used()), cache.slot_bytes());
    prop_assert!(used <= config.ram_bytes && reserved == 0);
    prop_assert!(cache.disk_bytes_used() <= config.disk_bytes);
    Ok(())
}

/// Walk `ops` depth first against `cache`. `busy` is the stack of keys
/// whose fetch closures the walk is inside of; `demand` counts the
/// accesses that must each end as one hit or one miss.
fn walk(
    cache: &ShardCache,
    ops: &[Op],
    busy: &mut Vec<u8>,
    demand: &mut u64,
) -> Result<(), TestCaseError> {
    let served = |i: u8, data: &[u8]| {
        prop_assert!(data == &payload(i)[..], "key {} served another's bytes", i);
        Ok(())
    };
    for op in ops {
        match op {
            Op::Fetch(i, inside) if !busy.contains(i) => {
                *demand += 1;
                let mut nested = Ok(());
                let (data, _) = cache
                    .get_or_fetch::<std::io::Error, _, _>(key(*i), || {
                        busy.push(*i);
                        nested = walk(cache, inside, busy, demand);
                        busy.pop();
                        Ok(payload(*i))
                    })
                    .unwrap();
                nested?;
                served(*i, &data)?;
            }
            // A fetch of a key whose own fetch is in flight further up
            // would wait for itself: the lookup that never waits instead.
            Op::Fetch(i, _) | Op::Get(i) => {
                *demand += 1;
                if let Some(data) = cache.get(&key(*i)) {
                    served(*i, &data)?;
                }
            }
            Op::Insert(i) => cache.insert(key(*i), payload(*i)),
            Op::Peek(i) => {
                if let Some(data) = cache.peek(&key(*i)) {
                    served(*i, &data)?;
                }
            }
        }
        books_balance(cache)?;
    }
    Ok(())
}

/// Run one operation tree from a cold two-tier cache and check what must
/// hold at its end: every demand access resolved exactly once, and every
/// eviction ended as a write or a slot flip (each block fits the tier).
fn nested_ops_keep_the_books(
    ram_blocks: u64,
    disk_blocks: u64,
    plan: &[u8],
    ops: &[Op],
) -> Result<(), TestCaseError> {
    let cache = cache_with_plan(ram_blocks, disk_blocks, plan);
    let mut demand = 0;
    walk(&cache, ops, &mut Vec::new(), &mut demand)?;
    let s = cache.stats().snapshot();
    prop_assert_eq!(s.hits + s.misses, demand, "{:?}", s);
    prop_assert_eq!(s.evictions, s.spills + s.clean_evictions, "{:?}", s);
    prop_assert_eq!(s.spill_failures, 0);
    Ok(())
}

/// The two races this cache has shipped, as trees. PR 13: a raw `insert`
/// of a key whose resident an admission in flight has just popped — here
/// the admissions run inside key 1's fetch, so key 0 is inserted beside
/// its resident, evicted by the next insert, loses its file to key 1's
/// landing and is inserted again. PR 19: a block taken the moment it
/// lands (key 0, fetched again from inside its own refill), then evicted
/// by that refill while the plan still ranks it.
#[test]
fn the_two_shipped_races_keep_the_books_as_nested_trees() {
    use Op::*;
    let pr13 = [
        Insert(0),
        Fetch(1, vec![Insert(0), Insert(2), Get(0)]),
        Insert(0),
        Get(0),
        Peek(1),
    ];
    nested_ops_keep_the_books(1, 1, &[], &pr13).unwrap();
    nested_ops_keep_the_books(1, 1, &[0, 1, 0, 2, 0], &pr13).unwrap();
    let pr19 = [
        Fetch(0, vec![]),
        Fetch(1, vec![Fetch(0, vec![]), Fetch(2, vec![Get(0)])]),
        Fetch(0, vec![Fetch(1, vec![])]),
        Fetch(2, vec![]),
    ];
    for ram_blocks in 1..=3 {
        nested_ops_keep_the_books(ram_blocks, 2, &[0, 1, 0, 2, 0, 0, 1, 2], &pr19).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever runs inside a fetch closure — reads, inserts, peeks and
    /// further fetches of other keys, forcing evictions, clean flips,
    /// promotes and disk reclaims beside the `Busy` slot — the books
    /// balance after every step and every key serves its own bytes.
    #[test]
    fn operations_nested_in_a_fetch_keep_the_books(
        ops in vec(op_trees(), 1..40),
        ram_blocks in 1u64..=6,
        disk_blocks in 1u64..=6,
        plan in vec(0..KEYS, 0..40),
    ) {
        nested_ops_keep_the_books(ram_blocks, disk_blocks, &plan, &ops)?;
    }

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

//! The cache's one eviction order, maintained incrementally.
//!
//! The original cache picked victims with an O(residents) scan per
//! eviction, under the same mutex that guarded everything else.
//! [`NextUseHeap`] makes victim selection O(log n), so the cache lock's
//! critical sections stay tiny at tens of thousands of blocks: a
//! lazy max-heap over each resident's next planned use. Accesses push
//! updated entries; stale heap entries are skipped at pop time by
//! validating against the authoritative per-key map.
//!
//! The plan is the policy. Inside an installed plan the furthest next use
//! evicts first (Belady). With no plan, or past its end, every next use is
//! "never", the ranks tie, and the access-tick tie-break alone decides:
//! least recently used evicts first.

use emlio_tfrecord::BlockKey;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Priority of one resident under Belady: furthest next use evicts first;
/// ties fall back to least-recently-accessed (smaller tick ⇒ evict first).
type Rank = (u64, Reverse<u64>);

#[derive(PartialEq, Eq)]
struct HeapEntry {
    rank: Rank,
    key: BlockKey,
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.rank.cmp(&other.rank).then(self.key.cmp(&other.key))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Lazy max-heap over residents' next planned use (clairvoyant eviction).
///
/// The `entries` map is authoritative: a popped heap entry whose rank no
/// longer matches the map is stale and skipped. Touches push fresh entries
/// instead of re-heapifying, and the heap is compacted when stale entries
/// outnumber live ones ~4:1.
#[derive(Default)]
pub struct NextUseHeap {
    heap: BinaryHeap<HeapEntry>,
    entries: HashMap<BlockKey, (Rank, u64)>, // key → (current rank, size)
}

impl NextUseHeap {
    /// An empty heap.
    pub fn new() -> NextUseHeap {
        NextUseHeap::default()
    }

    /// Whether `key` is tracked.
    pub fn contains(&self, key: &BlockKey) -> bool {
        self.entries.contains_key(key)
    }

    /// How many keys are tracked.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Size `key` was tracked with.
    pub fn size_of(&self, key: &BlockKey) -> Option<u64> {
        self.entries.get(key).map(|&(_, size)| size)
    }

    fn push(&mut self, key: BlockKey, rank: Rank) {
        self.heap.push(HeapEntry { rank, key });
        if self.heap.len() > 4 * self.entries.len() + 64 {
            self.compact();
        }
    }

    /// Rebuild the heap from the live entries, in its own buffer: once
    /// the buffer has grown to the compaction bound, touches allocate
    /// nothing.
    fn compact(&mut self) {
        let mut live = std::mem::take(&mut self.heap).into_vec();
        live.clear();
        live.extend(self.entries.iter().map(|(k, (rank, _))| HeapEntry {
            rank: *rank,
            key: *k,
        }));
        self.heap = live.into();
    }

    /// Track `key` with the given next use and access tick. No-op if
    /// already tracked.
    pub fn insert(&mut self, key: BlockKey, size: u64, next_use: u64, tick: u64) {
        if self.entries.contains_key(&key) {
            return;
        }
        let rank = (next_use, Reverse(tick));
        self.entries.insert(key, (rank, size));
        self.push(key, rank);
    }

    /// Update `key`'s next use / recency after a demand access.
    pub fn touch(&mut self, key: &BlockKey, next_use: u64, tick: u64) {
        if let Some(slot) = self.entries.get_mut(key) {
            let rank = (next_use, Reverse(tick));
            slot.0 = rank;
            self.push(*key, rank);
        }
    }

    /// Remove `key`, returning its size.
    pub fn remove(&mut self, key: &BlockKey) -> Option<u64> {
        self.entries.remove(key).map(|(_, size)| size)
    }

    /// The next use of the block Belady would evict first (the furthest),
    /// or `None` when empty. Used by the admission bypass.
    pub fn victim_next_use(&mut self) -> Option<u64> {
        loop {
            let top = self.heap.peek()?;
            match self.entries.get(&top.key) {
                Some(&(rank, _)) if rank == top.rank => return Some(rank.0),
                _ => {
                    self.heap.pop();
                }
            }
        }
    }

    /// Pop the Belady victim: furthest next use, LRU among ties.
    pub fn pop_victim(&mut self) -> Option<(BlockKey, u64)> {
        loop {
            let top = self.heap.pop()?;
            match self.entries.get(&top.key) {
                Some(&(rank, size)) if rank == top.rank => {
                    self.entries.remove(&top.key);
                    return Some((top.key, size));
                }
                _ => continue, // stale entry
            }
        }
    }

    /// Recompute every tracked rank with `next_use_of` (plan replacement).
    pub fn refresh<F: FnMut(&BlockKey) -> u64>(&mut self, mut next_use_of: F) {
        for (key, slot) in self.entries.iter_mut() {
            let (_, Reverse(tick)) = slot.0;
            slot.0 = (next_use_of(key), Reverse(tick));
        }
        self.compact();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: usize) -> BlockKey {
        BlockKey {
            shard_id: 0,
            start: i,
            end: i + 1,
        }
    }

    #[test]
    fn next_use_heap_orders_by_furthest_then_lru() {
        let mut h = NextUseHeap::new();
        h.insert(key(0), 10, 5, 1);
        h.insert(key(1), 10, 9, 2);
        h.insert(key(2), 10, 9, 3);
        // 1 and 2 tie on next use 9; 1 was accessed less recently.
        assert_eq!(h.victim_next_use(), Some(9));
        assert_eq!(h.pop_victim(), Some((key(1), 10)));
        assert_eq!(h.pop_victim(), Some((key(2), 10)));
        assert_eq!(h.pop_victim(), Some((key(0), 10)));
        assert_eq!(h.pop_victim(), None);
    }

    #[test]
    fn next_use_heap_touch_invalidates_stale_entries() {
        let mut h = NextUseHeap::new();
        h.insert(key(0), 10, 100, 1); // would-be victim
        h.insert(key(1), 10, 3, 2);
        h.touch(&key(0), 2, 3); // plan consumed: now needed soonest
        assert_eq!(h.pop_victim(), Some((key(1), 10)));
        assert_eq!(h.pop_victim(), Some((key(0), 10)));
    }

    #[test]
    fn next_use_heap_refresh_and_compaction() {
        let mut h = NextUseHeap::new();
        for i in 0..8 {
            h.insert(key(i), 10, i as u64, i as u64);
        }
        // Many touches accumulate stale entries; compaction keeps it sane.
        for round in 0..200u64 {
            for i in 0..8 {
                h.touch(&key(i), round + i as u64, round);
            }
        }
        assert!(h.heap.len() <= 4 * h.entries.len() + 64);
        // Refresh flips the order: key 0 becomes the furthest.
        h.refresh(|k| 1000 - k.start as u64);
        assert_eq!(h.pop_victim().unwrap().0, key(0));
    }
}

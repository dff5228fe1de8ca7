//! Incrementally-maintained eviction orders.
//!
//! The original cache picked victims with an O(residents) scan per
//! eviction, under the same mutex that guarded everything else. These
//! structures make victim selection O(1)/O(log n) so the global ordering
//! lock's critical sections stay tiny at tens of thousands of blocks:
//!
//! * [`LruList`] — an intrusive doubly-linked list over a slab, least
//!   recent at the head. Serves both LRU (touch moves to tail) and FIFO
//!   (no touch) in O(1) per operation.
//! * [`NextUseHeap`] — a lazy max-heap over each resident's next planned
//!   use, for the clairvoyant (Belady) policy. Accesses push updated
//!   entries; stale heap entries are skipped at pop time by validating
//!   against the authoritative per-key map.

use emlio_tfrecord::BlockKey;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Sentinel for "no node" in the intrusive list.
const NIL: usize = usize::MAX;

struct Node {
    key: BlockKey,
    size: u64,
    prev: usize,
    next: usize,
}

/// Intrusive doubly-linked recency list over a slab: O(1) insert, touch,
/// remove, and pop-least-recent. Least recent lives at the head.
#[derive(Default)]
pub struct LruList {
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    index: HashMap<BlockKey, usize>,
}

impl LruList {
    /// An empty list.
    pub fn new() -> LruList {
        LruList {
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            index: HashMap::new(),
        }
    }

    /// Resident count.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Whether `key` is tracked.
    pub fn contains(&self, key: &BlockKey) -> bool {
        self.index.contains_key(key)
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        match prev {
            NIL => self.head = next,
            p => self.nodes[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n].prev = prev,
        }
    }

    fn link_tail(&mut self, idx: usize) {
        self.nodes[idx].prev = self.tail;
        self.nodes[idx].next = NIL;
        match self.tail {
            NIL => self.head = idx,
            t => self.nodes[t].next = idx,
        }
        self.tail = idx;
    }

    /// Insert `key` as most recent. No-op if already tracked.
    pub fn insert(&mut self, key: BlockKey, size: u64) {
        if self.index.contains_key(&key) {
            return;
        }
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i] = Node {
                    key,
                    size,
                    prev: NIL,
                    next: NIL,
                };
                i
            }
            None => {
                self.nodes.push(Node {
                    key,
                    size,
                    prev: NIL,
                    next: NIL,
                });
                self.nodes.len() - 1
            }
        };
        self.link_tail(idx);
        self.index.insert(key, idx);
    }

    /// Size `key` was tracked with.
    pub fn size_of(&self, key: &BlockKey) -> Option<u64> {
        self.index.get(key).map(|&idx| self.nodes[idx].size)
    }

    /// Move `key` to most recent (LRU touch). No-op when absent.
    pub fn touch(&mut self, key: &BlockKey) {
        if let Some(&idx) = self.index.get(key) {
            if self.tail != idx {
                self.unlink(idx);
                self.link_tail(idx);
            }
        }
    }

    /// Remove `key`, returning its size.
    pub fn remove(&mut self, key: &BlockKey) -> Option<u64> {
        let idx = self.index.remove(key)?;
        self.unlink(idx);
        self.free.push(idx);
        Some(self.nodes[idx].size)
    }

    /// Pop the least-recent entry.
    pub fn pop_victim(&mut self) -> Option<(BlockKey, u64)> {
        if self.head == NIL {
            return None;
        }
        let idx = self.head;
        let (key, size) = (self.nodes[idx].key, self.nodes[idx].size);
        self.unlink(idx);
        self.index.remove(&key);
        self.free.push(idx);
        Some((key, size))
    }
}

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

    /// Resident count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `key` is tracked.
    pub fn contains(&self, key: &BlockKey) -> bool {
        self.entries.contains_key(key)
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

    fn compact(&mut self) {
        self.heap = self
            .entries
            .iter()
            .map(|(k, (rank, _))| HeapEntry {
                rank: *rank,
                key: *k,
            })
            .collect();
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

/// One tier's eviction order, dispatching on the configured policy.
pub enum TierOrder {
    /// LRU (`bump = true`) or FIFO (`bump = false`) recency list.
    Queue {
        /// The recency/insertion list.
        list: LruList,
        /// Whether demand accesses refresh position (LRU vs FIFO).
        bump: bool,
    },
    /// Clairvoyant next-use order.
    NextUse(NextUseHeap),
}

impl TierOrder {
    /// The order structure for `policy`.
    pub fn for_policy(policy: crate::EvictPolicy) -> TierOrder {
        match policy {
            crate::EvictPolicy::Lru => TierOrder::Queue {
                list: LruList::new(),
                bump: true,
            },
            crate::EvictPolicy::Fifo => TierOrder::Queue {
                list: LruList::new(),
                bump: false,
            },
            crate::EvictPolicy::Clairvoyant => TierOrder::NextUse(NextUseHeap::new()),
        }
    }

    /// Whether `key` is tracked in this tier.
    pub fn contains(&self, key: &BlockKey) -> bool {
        match self {
            TierOrder::Queue { list, .. } => list.contains(key),
            TierOrder::NextUse(h) => h.contains(key),
        }
    }

    /// Size of the tracked block `key`, `None` when it is not tracked.
    pub fn size_of(&self, key: &BlockKey) -> Option<u64> {
        match self {
            TierOrder::Queue { list, .. } => list.size_of(key),
            TierOrder::NextUse(h) => h.size_of(key),
        }
    }

    /// Whether this order actually consumes next-use ranks (clairvoyant);
    /// callers skip computing them otherwise — it is per-access work on
    /// the hot path.
    pub fn needs_next_use(&self) -> bool {
        matches!(self, TierOrder::NextUse(_))
    }

    /// Tracked block count.
    pub fn len(&self) -> usize {
        match self {
            TierOrder::Queue { list, .. } => list.len(),
            TierOrder::NextUse(h) => h.len(),
        }
    }

    /// True when nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Track a newly-resident block.
    pub fn insert(&mut self, key: BlockKey, size: u64, next_use: u64, tick: u64) {
        match self {
            TierOrder::Queue { list, .. } => list.insert(key, size),
            TierOrder::NextUse(h) => h.insert(key, size, next_use, tick),
        }
    }

    /// Record a demand access.
    pub fn touch(&mut self, key: &BlockKey, next_use: u64, tick: u64) {
        match self {
            TierOrder::Queue { list, bump } => {
                if *bump {
                    list.touch(key);
                }
            }
            TierOrder::NextUse(h) => h.touch(key, next_use, tick),
        }
    }

    /// Stop tracking `key`, returning its size.
    pub fn remove(&mut self, key: &BlockKey) -> Option<u64> {
        match self {
            TierOrder::Queue { list, .. } => list.remove(key),
            TierOrder::NextUse(h) => h.remove(key),
        }
    }

    /// Pop the policy's eviction victim.
    pub fn pop_victim(&mut self) -> Option<(BlockKey, u64)> {
        match self {
            TierOrder::Queue { list, .. } => list.pop_victim(),
            TierOrder::NextUse(h) => h.pop_victim(),
        }
    }

    /// For clairvoyant tiers: the would-be victim's next use (admission
    /// bypass input). `None` for reactive policies or empty tiers.
    pub fn victim_next_use(&mut self) -> Option<u64> {
        match self {
            TierOrder::NextUse(h) => h.victim_next_use(),
            TierOrder::Queue { .. } => None,
        }
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
    fn lru_list_order_and_touch() {
        let mut l = LruList::new();
        for i in 0..4 {
            l.insert(key(i), 10);
        }
        assert_eq!(l.len(), 4);
        l.touch(&key(0)); // 1 is now least recent
        assert_eq!(l.pop_victim(), Some((key(1), 10)));
        assert_eq!(l.remove(&key(2)), Some(10));
        assert_eq!(l.remove(&key(2)), None);
        assert_eq!(l.pop_victim(), Some((key(3), 10)));
        assert_eq!(l.pop_victim(), Some((key(0), 10)));
        assert!(l.is_empty());
        assert_eq!(l.pop_victim(), None);
        // Slab reuse after churn.
        l.insert(key(9), 7);
        assert_eq!(l.pop_victim(), Some((key(9), 7)));
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

//! The slot state machine: each block's [`Slot`], and the [`State`] the
//! cache's one lock guards, whose books [`State::check`] asserts.
//!
//! Each resident key's `Slot` is in one of four states — `Busy`, `Ram`,
//! `Spilling`, `Disk` — and `Ram` may carry a *backing*: the spill file
//! the block was promoted from (`Ram+file` below).
//!
//! ```text
//!   from       event                                      to
//!   ─────────  ─────────────────────────────────────────  ─────────
//!   (absent)   demand miss / prefetch or insert claim     Busy
//!   Busy       fetched, RAM admits                        Ram
//!   Busy       fetch error, or RAM declines (bypass)      (absent)
//!   Ram        evicted, disk tier can take it             Spilling
//!   Ram        evicted, no disk tier / block too large    (absent)
//!   Spilling   spill write landed                         Disk
//!   Spilling   spill write failed                         (absent)
//!   Disk       demand promote                             Busy
//!   Disk       executor stages (into free RAM)            Busy
//!   Busy       file read back valid, RAM admits           Ram+file
//!   Busy       file read back valid, RAM declines         Disk
//!   Busy       file missing or corrupt                    (absent)
//!   Busy       executor's reservation dropped unread      Disk
//!   Ram        checkpoint write landed                    Ram+file
//!   Ram+file   evicted: slot flip, nothing written        Disk
//!   Ram+file   disk tier reclaims the file                Ram
//!   Disk       disk tier evicts the block                 (absent)
//! ```
//!
//! The disk tier is **inclusive** and spill files are **write-once**. A
//! block's bytes never change, so once its file exists there is nothing a
//! rewrite could add: a promote that RAM admits keeps the file and its
//! place in the disk tier's accounting (`Ram` with a backing), and
//! evicting that resident flips the slot back to `Disk` where it is
//! popped — no `Spilling`, no spill order, no CRC, no write. Only a block
//! that has no file (fetched from storage, or its file was reclaimed)
//! takes the `Spilling` route. When the disk tier runs out of room it
//! reclaims files that duplicate a RAM resident before it evicts any
//! disk-only block — the resident stays in RAM and merely loses its
//! backing — so under pressure the tier holds as many distinct blocks as
//! an exclusive tier would.
//!
//! Invariants every transition preserves:
//!
//! * **`Busy` has exactly one owner.** The thread that installed the
//!   placeholder (miss claim, prefetch claim, or disk promote) is the only
//!   one that may take it out of `Busy`, which every row above does in one
//!   call of `CacheCore::settle`; everyone else waits on the `landed`
//!   condvar or treats the key as a miss. This is what makes fetches
//!   single-flight. A `Busy` slot taken over from `Disk` keeps the file's
//!   identity in the slot, so the file stays accounted — and reclaimable —
//!   while it is being read. (An `insert` has no I/O to do: it claims and
//!   lands in one critical section, and its `Busy` is never seen.)
//! * **`Ram`/`Spilling` bytes are immutable and shared.** The slot holds a
//!   refcounted [`Bytes`]; a hit clones the handle (refcount bump, no
//!   copy) and the returned view stays valid even if the block is evicted,
//!   spilled, or dropped while the caller still holds it.
//! * **`Spilling` is readable.** Eviction flips `Ram → Spilling` *before*
//!   the spill-file write so concurrent readers keep hitting the bytes
//!   during the I/O; only after the write lands does the slot become
//!   `Disk` (dropping the RAM bytes). The write itself happens on the
//!   dedicated `emlio-cache-spill` writer thread: the evictor queues the
//!   key and returns, and the writer takes the bytes from the slot, so
//!   the `Spilling` state is also the asynchronous hand-off — the
//!   evicting send worker never touches disk, and shutdown drains the
//!   queue before the final index write. The backlog is bounded in
//!   bytes: an evictor that leaves more than `ram_bytes` of `Spilling`
//!   blocks waits, lock released, until the writer brings it back under.
//!   `Spilling` bytes are not in `ram_used`, so an eviction never waits
//!   for a write on the serve path unless the writer is a whole RAM tier
//!   behind.
//! * **Spill-file bytes are checked before they are served.** Every read
//!   of a spill file — demand promote, the prefetch executor's staging
//!   read, peer `peek`, restart re-admission — goes through
//!   [`persist::read_validated`] (length, fault-in and CRC32C). A file
//!   that fails is retired and the access degrades to a miss; this is the
//!   only way a promote takes a key out of the disk order. What passes is
//!   a view of the file's mapping, not a copy: a promoted resident's
//!   pages are the page cache's, `ram_used` counts its length all the
//!   same, and a file the tier gives up while such a view lives keeps its
//!   disk blocks until the view drops — so the bytes the spill directory
//!   holds may exceed `disk_bytes` by at most the RAM tier plus the
//!   blocks in flight to consumers.
//! * **The disk order tracks files, not blocks.** A key is in the disk
//!   order, and its size in `disk_used`, exactly while a slot owns its
//!   spill file: `Disk`, `Ram` with a backing, or `Busy` mid-promote. A
//!   `Spilling` block owns none until its write has landed: the one
//!   writer thread makes the room before it writes, and nobody else adds
//!   to the tier. So [`CacheCore::disk_bytes_used`] is the bytes of spill
//!   files held, including those that back RAM residents, while
//!   [`CacheCore::disk_keys`] lists the blocks that are disk-*only* — the
//!   ones a demand access would have to promote.

use super::*;

/// A spilled block's on-disk identity. Cloned on every promote, so the
/// path is shared, not copied.
#[derive(Debug, Clone)]
pub(super) struct DiskMeta {
    pub(super) path: Arc<Path>,
    pub(super) len: u64,
    pub(super) crc: u32,
}

impl DiskMeta {
    /// The spill-index entry describing this file as `key`'s.
    pub(super) fn entry(&self, key: BlockKey) -> SpillEntry {
        SpillEntry {
            key,
            len: self.len,
            crc: self.crc,
        }
    }
}

/// Residency state of one block (see the module docs for the transition
/// table and its invariants).
pub(super) enum Slot {
    /// Resident in RAM; hits clone the `Bytes` handle without copying.
    /// The backing, when there is one, is the spill file the block was
    /// promoted from — still on disk and still in the disk tier's
    /// accounting, so evicting this resident writes nothing. A promoted
    /// block's `Bytes` is a view of that file's mapping.
    Ram(Bytes, Option<DiskMeta>),
    /// Evicted and its key queued for the spill writer, which writes
    /// these bytes; still readable until the write lands.
    Spilling(Bytes),
    /// Resident in the disk spill tier only.
    Disk(DiskMeta),
    /// A storage fetch, disk promote or staging read is in flight
    /// (single-flight owner); waiters sleep on the `landed` condvar. Holds
    /// the spill file being read back, for as long as the disk tier
    /// leaves it there.
    Busy(Option<DiskMeta>),
}

impl Slot {
    /// The spill file this slot owns, if any.
    pub(super) fn file(&self) -> Option<&DiskMeta> {
        match self {
            Slot::Ram(_, file) | Slot::Busy(file) => file.as_ref(),
            Slot::Disk(meta) => Some(meta),
            Slot::Spilling(_) => None,
        }
    }
}

/// What a demand access finds under the lock.
pub(super) enum Served {
    /// RAM-resident (or still readable mid-spill).
    Ram(Bytes),
    /// Disk-only: the slot is now `Busy` over this file and the caller
    /// owns the promote.
    Disk(DiskMeta),
}

/// Everything the cache mutates: slots, accounting, plan state, eviction
/// orders and the spill writer's queue, under the one lock.
pub(super) struct State {
    pub(super) slots: HashMap<BlockKey, Slot>,
    pub(super) ram_used: u64,
    /// Bytes of the `Spilling` slots: the writer's backlog, which an
    /// evictor waits on while it exceeds `ram_bytes`. Not part of
    /// `ram_used`.
    pub(super) spilling: u64,
    /// Keys queued for the spill writer, oldest first: evictions (the slot
    /// is `Spilling`) and checkpoints (a `Ram` slot without a file). The
    /// writer reads which of the two it has from the slot.
    pub(super) spill_orders: VecDeque<BlockKey>,
    /// The writer has taken an order and not finished it.
    pub(super) writing: bool,
    /// The handle is dropping: the writer drains the queue, then ends.
    pub(super) shutdown: bool,
    /// RAM set aside for prefetch reads in flight. Room is made when the
    /// reservation is taken, so `ram_used + ram_reserved <= ram_bytes`
    /// holds whenever the lock is free.
    pub(super) ram_reserved: u64,
    /// Prefetch reads in flight (reservations held).
    pub(super) reservations: usize,
    pub(super) disk_used: u64,
    /// Monotonic access clock for recency ordering.
    pub(super) tick: u64,
    /// The `Ram` slots.
    pub(super) ram_order: NextUseHeap,
    /// Every spill file a slot owns, whether its block is disk-only or
    /// also RAM-resident; `disk_used` is the sum of their sizes.
    pub(super) disk_order: NextUseHeap,
    /// Keys tracked by both orders: RAM residents whose spill file is
    /// still on disk. The disk tier reclaims these files before it
    /// evicts any disk-only block.
    pub(super) backed: BTreeSet<BlockKey>,
    /// Planned access sequence (all epochs, in consumption order).
    pub(super) seq: Arc<Vec<BlockKey>>,
    /// Remaining plan positions per key (ascending).
    pub(super) future: HashMap<BlockKey, VecDeque<u64>>,
    /// Demand accesses consumed so far (position into `seq`).
    pub(super) cursor: u64,
}

impl State {
    /// First plan position ≥ `cursor` where `key` is needed (`u64::MAX`
    /// when it never is). Prunes stale positions as a side effect.
    pub(super) fn next_use(
        future: &mut HashMap<BlockKey, VecDeque<u64>>,
        cursor: u64,
        key: &BlockKey,
    ) -> u64 {
        match future.get_mut(key) {
            None => u64::MAX,
            Some(q) => {
                while matches!(q.front(), Some(&p) if p < cursor) {
                    q.pop_front();
                }
                q.front().copied().unwrap_or(u64::MAX)
            }
        }
    }

    /// `key`'s eviction rank: its next planned use from the cursor on.
    pub(super) fn next_use_rank(&mut self, key: &BlockKey) -> u64 {
        State::next_use(&mut self.future, self.cursor, key)
    }

    /// Track `key` in the RAM order as its newest arrival.
    pub(super) fn track_ram(&mut self, key: BlockKey, size: u64) {
        self.tick += 1;
        let (next, tick) = (self.next_use_rank(&key), self.tick);
        self.ram_used += size;
        self.ram_order.insert(key, size, next, tick);
    }

    /// Track `key`'s spill file in the disk order as its newest arrival.
    pub(super) fn track_file(&mut self, key: BlockKey, size: u64) {
        self.tick += 1;
        let (next, tick) = (self.next_use_rank(&key), self.tick);
        self.disk_used += size;
        self.disk_order.insert(key, size, next, tick);
    }

    /// Stop tracking `key`'s spill file: out of the disk order, its bytes
    /// off `disk_used`. The caller takes the file off the slot.
    pub(super) fn untrack_file(&mut self, key: &BlockKey) {
        self.backed.remove(key);
        if let Some(size) = self.disk_order.remove(key) {
            self.disk_used -= size;
        }
    }

    /// Rank `key`'s spill file as the tier's newest arrival, which is
    /// what a rewrite would have made it: a block going back to disk-only
    /// keeps its write-once file but takes the place in the disk order
    /// that a fresh spill would get.
    pub(super) fn rerank_file(&mut self, key: &BlockKey) {
        if let Some(size) = self.disk_order.remove(key) {
            self.disk_used -= size;
            self.track_file(*key, size);
        }
    }

    /// [`State::next_use`] without the pruning: `key`'s first plan
    /// position at or after `cursor`.
    pub(super) fn pending(
        future: &HashMap<BlockKey, VecDeque<u64>>,
        cursor: u64,
        key: &BlockKey,
    ) -> Option<u64> {
        future.get(key)?.iter().copied().find(|&p| p >= cursor)
    }

    /// Bytes of RAM residents the plan needs at a position in
    /// `[cursor, pos)` — what staging position `pos` must leave alone. A
    /// key counts at its first pending position only. Walks the window,
    /// which the RAM budget bounds.
    fn needed_before(&self, pos: u64) -> u64 {
        (self.cursor..pos)
            .map(|p| (p, &self.seq[p as usize]))
            .filter(|(p, key)| State::pending(&self.future, self.cursor, key) == Some(*p))
            .filter_map(|(_, key)| self.ram_order.size_of(key))
            .sum()
    }

    /// The issue rule: whether a `len`-byte block for plan position `pos`
    /// fits beside the reads in flight and the residents needed sooner.
    pub(super) fn may_stage(&self, pos: u64, len: u64, ram_bytes: u64) -> bool {
        self.ram_reserved + self.needed_before(pos) + len <= ram_bytes
    }

    /// Account one demand access against the plan — consume `key`'s
    /// earliest pending position, and move the cursor past it only when it
    /// is ahead of the cursor — and refresh the resident's recency and
    /// next-use rank. Concurrent send workers deliver accesses slightly
    /// out of plan order; consuming exactly one position per access keeps
    /// a late-arriving access from eating the key's *next-epoch* position
    /// and leaping the cursor (which would both mislead the eviction order
    /// and blow open the prefetch window).
    pub(super) fn demand_access(&mut self, key: &BlockKey) {
        if !self.seq.is_empty() {
            let cursor = self.cursor;
            match self.future.get_mut(key).and_then(|q| q.pop_front()) {
                Some(p) if p >= cursor => self.cursor = p + 1,
                Some(_) => {}
                // Unplanned access: just move time forward.
                None => self.cursor += 1,
            }
        }
        self.tick += 1;
        let (next, tick) = (self.next_use_rank(key), self.tick);
        self.ram_order.touch(key, next, tick);
    }

    /// Serve `key` to a demand access: a RAM resident's bytes, or — the
    /// slot flipped to `Busy` — the spill file the caller now promotes.
    /// `None` when the key is absent or in flight.
    pub(super) fn serve(&mut self, key: &BlockKey) -> Option<Served> {
        let slot = self.slots.get_mut(key)?;
        match slot {
            Slot::Ram(data, _) | Slot::Spilling(data) => Some(Served::Ram(data.clone())),
            Slot::Disk(meta) => {
                let meta = meta.clone();
                *slot = Slot::Busy(Some(meta.clone()));
                Some(Served::Disk(meta))
            }
            Slot::Busy(_) => None,
        }
    }

    /// Give back a prefetch reservation.
    pub(super) fn unreserve(&mut self, len: u64) {
        self.ram_reserved -= len;
        self.reservations -= 1;
    }

    /// The books, asserted in debug builds at the end of every mutating
    /// critical section: the accounting is the sum over the slots, each
    /// order's keys are exactly the slots it ranks, and both tiers are
    /// inside their budgets.
    pub(super) fn check(&self, config: &CacheConfig) {
        if !cfg!(debug_assertions) {
            return;
        }
        let (mut ram, mut spilling, mut disk) = (0, 0, 0);
        let (mut residents, mut files, mut backed) = (0, 0, 0);
        for (key, slot) in &self.slots {
            if let Slot::Ram(data, backing) = slot {
                ram += data.len() as u64;
                residents += 1;
                backed += usize::from(backing.is_some());
                assert_eq!(self.ram_order.size_of(key), Some(data.len() as u64));
                assert_eq!(self.backed.contains(key), backing.is_some(), "{key:?}");
            }
            if let Slot::Spilling(data) = slot {
                spilling += data.len() as u64;
            }
            if let Some(meta) = slot.file() {
                disk += meta.len;
                files += 1;
            }
            assert_eq!(
                self.disk_order.size_of(key),
                slot.file().map(|meta| meta.len),
                "{key:?}"
            );
        }
        assert_eq!(
            (ram, spilling, disk),
            (self.ram_used, self.spilling, self.disk_used)
        );
        assert_eq!(
            (residents, files, backed),
            (
                self.ram_order.len(),
                self.disk_order.len(),
                self.backed.len()
            )
        );
        assert!(self.ram_used + self.ram_reserved <= config.ram_bytes);
        assert!(self.disk_used <= config.disk_bytes);
    }
}

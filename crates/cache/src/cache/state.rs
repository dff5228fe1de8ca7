//! The slot state machine: each block's [`Slot`], the [`State`] the cache's
//! one lock guards, and every transition — one `State` method each, which
//! takes the event and returns what its caller does once the lock is
//! released (the table's last column). Nothing here does I/O, counts into
//! the stats or wakes a thread — save the validated reads a restart's
//! re-admission asks its caller for, before the cache serves.
//!
//! Each resident key's `Slot` is in one of four states — `Busy`, `Ram`,
//! `Spilling`, `Disk` — and `Ram` may carry a *backing*: the spill file
//! the block was promoted from (`Ram+file` below).
//!
//! ```text
//!   from      event                                   to        method: effect
//!   ────────  ──────────────────────────────────────  ────────  ──────────────────────────────
//!   (absent)  demand miss / prefetch or insert claim  Busy      claim, issue: fetch (a Claim)
//!   Busy      fetched, RAM admits                     Ram       settle: wake landed (+ room)
//!   Busy      fetch error, or RAM declines (bypass)   (absent)  settle: wake landed (+ room)
//!   Ram       evicted, disk tier can take it          Spilling  (make_room) order queued
//!   Ram       evicted, no disk tier / block too large (absent)  (make_room) eviction counted
//!   Spilling  spill write landed                      Disk      land_spill: wake spill
//!   Spilling  spill write failed                      (absent)  land_spill: wake spill
//!   Disk      demand promote                          Busy      claim: read this file
//!   Disk      executor stages (into free RAM)         Busy      issue: read this file
//!   Busy      file read back valid, RAM admits        Ram+file  settle: wake landed (+ room)
//!   Busy      file read back valid, RAM declines      Disk      settle: wake landed (+ room)
//!   Busy      file missing or corrupt                 (absent)  retire: delete it; then settle
//!   Busy      executor's reservation dropped unread   Disk      settle: wake landed, room
//!   Ram       checkpoint write landed                 Ram+file  land_spill: wake spill
//!   Ram+file  evicted: slot flip, nothing written     Disk      (make_room) clean eviction
//!   Ram+file  disk tier reclaims the file             Ram       take_spill: delete the file
//!   Disk      disk tier evicts the block              (absent)  take_spill: delete the file
//!   (absent)  restart finds a valid file with room    Disk      readmit: delete the rest
//! ```
//!
//! The disk tier is **inclusive** and spill files are **write-once**. A
//! block's bytes never change, so a promote that RAM admits keeps its file
//! and its place in the disk tier (`Ram` with a backing), and evicting that
//! resident flips the slot back to `Disk` — no `Spilling`, no write. Only a
//! block with no file takes the `Spilling` route. Out of room, the disk
//! tier reclaims files that duplicate a RAM resident before it evicts any
//! disk-only block, so under pressure it holds as many distinct blocks as
//! an exclusive tier would.
//!
//! Invariants every transition preserves:
//!
//! * **`Busy` has exactly one owner**, the holder of its [`Claim`] (miss
//!   claim, prefetch claim or disk promote): only it takes the slot out of
//!   `Busy`, in one `settle` that hands the claim back; everyone else waits
//!   on `landed` or treats the key as a miss. This makes fetches
//!   single-flight. A `Busy` slot taken over from `Disk` keeps the file in
//!   the slot, accounted — and reclaimable — while it is read. (An `insert`
//!   claims and lands in one critical section; its `Busy` is never seen.)
//! * **`Ram`/`Spilling` bytes are immutable and shared.** A hit clones the
//!   refcounted [`Bytes`] (no copy), and the view stays valid whatever
//!   happens to the block while the caller holds it.
//! * **`Spilling` is readable.** Eviction flips `Ram → Spilling` *before*
//!   the write, so readers keep hitting the bytes during the I/O; the slot
//!   becomes `Disk` only when the write lands. The evictor queues the key
//!   and returns, and the `emlio-cache-spill` writer thread takes the bytes
//!   from the slot: the send workers never touch disk, and shutdown drains
//!   the queue before the cache drops. The backlog is bounded in
//!   bytes: an evictor that leaves more than `ram_bytes` `Spilling` waits,
//!   lock released, until the writer brings it back under.
//! * **Spill-file bytes are checked before they are served.** Every read
//!   of a spill file — promote, staging read, peer `peek`, restart — goes
//!   through `persist`'s one validated read (length, fault-in, CRC32C). A
//!   file that fails is retired (the only way a promote takes a key out of
//!   the disk order) and the access is a miss. What passes is a view of the
//!   file's mapping: a file the tier gives up while a view lives keeps its
//!   disk blocks until the view drops, so the spill directory may exceed
//!   `disk_bytes` by at most the RAM tier plus the blocks in flight.
//! * **The disk order tracks files, not blocks.** A key is in the disk
//!   order, and its size in `disk_used`, exactly while a slot owns its
//!   file: `Disk`, `Ram` with a backing, or `Busy` mid-promote. A
//!   `Spilling` block owns none until its write lands: the one writer makes
//!   the room before it writes. So [`CacheCore::disk_bytes_used`] counts
//!   the files that back RAM residents too, while [`CacheCore::disk_keys`]
//!   lists the disk-*only* blocks, the ones a demand access would promote.

use super::*;

/// A spilled block's on-disk identity. Cloned on every promote, so the
/// path is shared, not copied.
#[derive(Debug, Clone)]
pub(super) struct DiskMeta {
    pub(super) path: Arc<Path>,
    pub(super) len: u64,
    pub(super) crc: u32,
}

/// Residency state of one block (see the module docs).
pub(super) enum Slot {
    /// Resident in RAM. The backing, when there is one, is the spill file
    /// the block was promoted from — still in the disk tier's accounting,
    /// so evicting this resident writes nothing — and the `Bytes` a view
    /// of its mapping.
    Ram(Bytes, Option<DiskMeta>),
    /// Evicted and queued for the spill writer; readable until it lands.
    Spilling(Bytes),
    /// Resident in the disk spill tier only.
    Disk(DiskMeta),
    /// A fetch, promote or staging read is in flight; waiters sleep on
    /// `landed`. Holds the file being read back while the tier leaves it.
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

/// The owner's token for a `Busy` slot, handed back to [`State::settle`]:
/// the key, the RAM room its prefetch reservation holds, and the spill file
/// to read the block back from (`None` reads storage).
pub(super) struct Claim {
    pub(super) key: BlockKey,
    pub(super) room: Option<u64>,
    pub(super) file: Option<DiskMeta>,
}

/// What a demand access finds: RAM bytes (or still readable mid-spill),
/// or the claim of the slot, now `Busy` — promote from the claim's file,
/// or fetch from storage.
pub(super) enum Served {
    Ram(Bytes),
    Claimed(Claim),
}

/// What a peer's read finds: RAM bytes, or the spill file to read with the
/// lock released.
pub(super) enum Peeked {
    Ram(Bytes),
    File(DiskMeta),
}

/// What the prefetch executor's issue step decided: nothing to stage
/// ([`Issue::Skip`]), not yet (wait on `room` and ask again), or room
/// reserved and slot claimed — read it, then settle the claim.
pub(super) enum Step {
    Skip,
    Wait,
    Read(Claim, Effect),
}

/// A spill order the writer took: write `data` as `key`'s file once
/// `delete`, the files that made room for it, are gone.
pub(super) struct Spill {
    pub(super) key: BlockKey,
    pub(super) data: Bytes,
    pub(super) delete: Vec<DiskMeta>,
}

/// What a section that may evict leaves for after the lock: the counts to
/// add to the stats and, when it queued spill orders, the queue's depth
/// after them (0: none) — wake the writer, and wait while the backlog is
/// more than the RAM tier.
#[derive(Default)]
pub(super) struct Effect {
    pub(super) evictions: u64,
    pub(super) clean_evictions: u64,
    pub(super) queued: u64,
}

/// Everything the cache mutates: slots, accounting, plan state, eviction
/// orders and the spill writer's queue, under the one lock.
#[derive(Default)]
pub(super) struct State {
    pub(super) slots: HashMap<BlockKey, Slot>,
    pub(super) ram_used: u64,
    /// Bytes of the `Spilling` slots (not in `ram_used`): the writer's
    /// backlog, which an evictor waits on while it exceeds `ram_bytes`.
    pub(super) spilling: u64,
    /// Keys queued for the spill writer, oldest first: evictions (the slot
    /// is `Spilling`) and checkpoints (a `Ram` slot without a file).
    pub(super) spill_orders: VecDeque<BlockKey>,
    /// The writer has taken an order and not finished it.
    pub(super) writing: bool,
    /// The handle is dropping: the writer drains the queue, then ends.
    pub(super) shutdown: bool,
    /// RAM set aside for prefetch reads in flight, made room for when the
    /// reservation is taken: `ram_used + ram_reserved <= ram_bytes`.
    pub(super) ram_reserved: u64,
    /// Prefetch reads in flight (reservations held).
    pub(super) reservations: usize,
    pub(super) disk_used: u64,
    /// The tiers' budgets, from the config.
    pub(super) ram_bytes: u64,
    pub(super) disk_bytes: u64,
    /// Monotonic access clock for recency ordering.
    pub(super) tick: u64,
    /// The `Ram` slots.
    pub(super) ram_order: NextUseHeap,
    /// Every spill file a slot owns, disk-only or backing a resident;
    /// `disk_used` is the sum of their sizes.
    pub(super) disk_order: NextUseHeap,
    /// RAM residents whose spill file is still on disk (in both orders):
    /// the disk tier reclaims these files before any disk-only block.
    pub(super) backed: BTreeSet<BlockKey>,
    /// Planned access sequence (all epochs, in consumption order).
    pub(super) seq: Arc<Vec<BlockKey>>,
    /// Remaining plan positions per key (ascending).
    pub(super) future: HashMap<BlockKey, VecDeque<u64>>,
    /// Demand accesses consumed so far (position into `seq`).
    pub(super) cursor: u64,
}

impl State {
    /// An empty cache with `config`'s budgets.
    pub(super) fn new(config: &CacheConfig) -> State {
        State {
            ram_bytes: config.ram_bytes,
            disk_bytes: config.disk_bytes,
            ..State::default()
        }
    }

    /// Install the planned access sequence and reset the cursor, with
    /// every rank refreshed against the new plan.
    pub(super) fn set_plan(&mut self, seq: Vec<BlockKey>) {
        let mut future: HashMap<BlockKey, VecDeque<u64>> = HashMap::new();
        for (pos, key) in seq.iter().enumerate() {
            future.entry(*key).or_default().push_back(pos as u64);
        }
        (self.seq, self.future, self.cursor) = (Arc::new(seq), future, 0);
        let future = &mut self.future;
        self.ram_order.refresh(|k| State::next_use(future, 0, k));
        self.disk_order.refresh(|k| State::next_use(future, 0, k));
    }

    /// First plan position ≥ `cursor` where `key` is needed (`u64::MAX`
    /// when it never is). Prunes stale positions as a side effect.
    fn next_use(future: &mut HashMap<BlockKey, VecDeque<u64>>, cursor: u64, key: &BlockKey) -> u64 {
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
    fn next_use_rank(&mut self, key: &BlockKey) -> u64 {
        State::next_use(&mut self.future, self.cursor, key)
    }

    /// Track `key` in the RAM order as its newest arrival.
    fn track_ram(&mut self, key: BlockKey, size: u64) {
        self.tick += 1;
        let (next, tick) = (self.next_use_rank(&key), self.tick);
        self.ram_used += size;
        self.ram_order.insert(key, size, next, tick);
    }

    /// Track `key`'s spill file in the disk order as its newest arrival.
    fn track_file(&mut self, key: BlockKey, size: u64) {
        self.tick += 1;
        let (next, tick) = (self.next_use_rank(&key), self.tick);
        self.disk_used += size;
        self.disk_order.insert(key, size, next, tick);
    }

    /// Stop tracking `key`'s spill file: out of the disk order, its bytes
    /// off `disk_used`. The caller takes the file off the slot.
    fn untrack_file(&mut self, key: &BlockKey) {
        self.backed.remove(key);
        if let Some(size) = self.disk_order.remove(key) {
            self.disk_used -= size;
        }
    }

    /// Rank `key`'s spill file as the tier's newest arrival, which is
    /// what a rewrite would have made it: a block going back to disk-only
    /// keeps its write-once file but takes the place in the disk order
    /// that a fresh spill would get.
    fn rerank_file(&mut self, key: &BlockKey) {
        if let Some(size) = self.disk_order.remove(key) {
            self.disk_used -= size;
            self.track_file(*key, size);
        }
    }

    /// [`State::next_use`] without the pruning: `key`'s first plan
    /// position at or after `cursor`.
    fn pending(
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
    fn demand_access(&mut self, key: &BlockKey) {
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

    /// A demand access to `key`, accounted against the plan when
    /// `account`, on a key that is not in flight: a RAM resident's bytes
    /// (still readable mid-spill), or the claim of its slot, now `Busy` — a
    /// promote from its spill file, or, absent, a storage fetch.
    pub(super) fn claim(&mut self, key: BlockKey, account: bool) -> Served {
        if account {
            self.demand_access(&key);
        }
        let file = match self.slots.get(&key) {
            Some(Slot::Ram(data, _) | Slot::Spilling(data)) => return Served::Ram(data.clone()),
            Some(Slot::Disk(meta)) => Some(meta.clone()),
            None => None,
            Some(Slot::Busy(_)) => unreachable!("a claimer waits out a Busy slot"),
        };
        self.slots.insert(key, Slot::Busy(file.clone()));
        Served::Claimed(Claim {
            key,
            room: None,
            file,
        })
    }

    /// A peer's read of `key`, which changes nothing: a RAM resident's
    /// bytes (still readable mid-spill), or a disk-only block's spill file
    /// to read in place. A slot in flight is its owner's, and is a miss
    /// here, like an absent key.
    pub(super) fn peek(&self, key: &BlockKey) -> Option<Peeked> {
        match self.slots.get(key)? {
            Slot::Ram(data, _) | Slot::Spilling(data) => Some(Peeked::Ram(data.clone())),
            Slot::Disk(meta) => Some(Peeked::File(meta.clone())),
            Slot::Busy(_) => None,
        }
    }

    /// Insert `data` as `key`'s block, claimed and landed at once (a no-op
    /// when the key is resident or in flight).
    pub(super) fn insert(&mut self, key: BlockKey, data: Bytes) -> Effect {
        let mut effect = Effect::default();
        if !self.slots.contains_key(&key) {
            self.admit(key, data, None, false, &mut effect);
        }
        effect
    }

    /// The claim's spill file failed validation: take it off the slot and
    /// out of the disk order, to delete (`None`: the disk tier reclaimed it
    /// first). The owner then settles to absent; while the slot is `Busy`
    /// no newer file of the key can be written.
    pub(super) fn retire(&mut self, key: &BlockKey) -> Option<DiskMeta> {
        let Some(Slot::Busy(file @ Some(_))) = self.slots.get_mut(key) else {
            return None;
        };
        let file = file.take();
        self.untrack_file(key);
        file
    }

    /// Take the claim's slot out of `Busy` (the one way out), giving back
    /// its reservation, with whatever file the disk tier has left it.
    /// `Some` bytes land: RAM admits or declines ([`State::admit`]). `None`
    /// releases a read that failed or never ran: back to disk-only over
    /// that file, or to absent. Returns whether RAM admitted.
    pub(super) fn settle(&mut self, claim: Claim, data: Option<Bytes>) -> (bool, Effect) {
        let Claim { key, room, .. } = claim;
        if let Some(len) = room {
            self.ram_reserved -= len;
            self.reservations -= 1;
        }
        let Some(Slot::Busy(file)) = self.slots.remove(&key) else {
            unreachable!("settling owns the Busy slot");
        };
        let mut effect = Effect::default();
        let admitted = match (data, file) {
            (Some(data), file) => self.admit(key, data, file, room.is_some(), &mut effect),
            // A released claim read nothing, so its file keeps its place
            // in the disk order; a declined landing takes the newest.
            (None, Some(meta)) => {
                self.slots.insert(key, Slot::Disk(meta));
                false
            }
            (None, None) => false,
        };
        (admitted, effect)
    }

    /// Admit `data` into the empty slot of `key`: pop victims (applying
    /// the Belady bypass), flip their slots, insert the resident. `file` is
    /// the spill file `data` was just read from: admitted, the resident
    /// keeps it as its backing; declined, the block stays disk-resident.
    /// `staged` lands it in a prefetch reservation's room — no bypass, the
    /// issue rule placed it ahead of all it could displace; every other
    /// admission fits beside the reservations. Returns whether RAM took it.
    fn admit(
        &mut self,
        key: BlockKey,
        data: Bytes,
        file: Option<DiskMeta>,
        staged: bool,
        effect: &mut Effect,
    ) -> bool {
        let size = data.len() as u64;
        let room = self.ram_bytes - self.ram_reserved;
        // Belady admission bypass: if this block would be the eviction
        // victim the moment it lands, don't admit it. Only while the
        // cursor is inside the plan: with no plan, or past its end, every
        // next use is "never", the order is recency, and every admission
        // is taken.
        let bypass =
            !staged && self.cursor < self.seq.len() as u64 && self.ram_used + size > room && {
                let next = self.next_use_rank(&key);
                matches!(self.ram_order.victim_next_use(), Some(v) if next >= v)
            };
        if size > room || bypass {
            // A declined promote goes back to disk-only; anything else
            // passes through uncached.
            if let Some(meta) = file {
                self.rerank_file(&key);
                self.slots.insert(key, Slot::Disk(meta));
            }
            return false;
        }
        self.make_room(size, None, effect);
        self.track_ram(key, size);
        if file.is_some() {
            self.backed.insert(key);
        }
        self.slots.insert(key, Slot::Ram(data, file));
        true
    }

    /// Evict RAM victims until `size` more bytes fit beside the residents
    /// and the reservations, each where it is popped: a backed resident
    /// flips to `Disk` over the file it already has; anything else to
    /// `Spilling` with its key queued for the writer, or drops when no disk
    /// tier can take it. A reservation for plan position `keep_before`
    /// leaves alone what the plan needs sooner: such a victim goes back
    /// into the order as its newest arrival (the order offers one only
    /// when its rank is out of date).
    fn make_room(&mut self, size: u64, keep_before: Option<u64>, effect: &mut Effect) {
        let mut kept = Vec::new();
        while self.ram_used + self.ram_reserved + size > self.ram_bytes {
            let Some((vk, vs)) = self.ram_order.pop_victim() else {
                break;
            };
            let sooner = keep_before.and_then(|pos| {
                State::pending(&self.future, self.cursor, &vk).filter(|&next| next < pos)
            });
            if let Some(next) = sooner {
                kept.push((vk, vs, next));
                continue;
            }
            self.ram_used -= vs;
            effect.evictions += 1;
            match self.slots.remove(&vk) {
                Some(Slot::Ram(_, Some(meta))) => {
                    self.backed.remove(&vk);
                    self.rerank_file(&vk);
                    self.slots.insert(vk, Slot::Disk(meta));
                    effect.clean_evictions += 1;
                }
                Some(Slot::Ram(data, None)) => {
                    if self.disk_bytes > 0 && vs <= self.disk_bytes {
                        self.slots.insert(vk, Slot::Spilling(data));
                        self.spilling += vs;
                        self.queue_spill(vk, effect);
                    }
                }
                _ => unreachable!("the RAM order ranks Ram slots only"),
            }
        }
        for (key, size, next) in kept {
            self.tick += 1;
            self.ram_order.insert(key, size, next, self.tick);
        }
    }

    /// The prefetch executor's issue step for plan position `pos` (see
    /// [`CacheCore::reserve_prefetch`] for the rule).
    pub(super) fn issue(&mut self, pos: u64, key: &BlockKey, len: u64) -> Step {
        let (len, file) = match self.slots.get(key) {
            None => (len, None),
            Some(Slot::Disk(meta)) => (meta.len, Some(meta)),
            // In RAM, or someone's fetch or promote in flight.
            Some(_) => return Step::Skip,
        };
        // Demand got here first, or the block can never fit — or, on
        // disk, not without evicting.
        let free = self.ram_bytes - self.ram_used - self.ram_reserved;
        if pos < self.cursor || len > self.ram_bytes || (file.is_some() && len > free) {
            return Step::Skip;
        }
        // A block of unknown length goes out alone: once it lands, the
        // largest length seen stands in for the rest.
        let max_out = if len == 0 { 1 } else { MAX_IN_FLIGHT };
        if self.reservations >= max_out || !self.may_stage(pos, len, self.ram_bytes) {
            return Step::Wait;
        }
        let file = file.cloned();
        let mut effect = Effect::default();
        self.make_room(len, Some(pos), &mut effect);
        self.ram_reserved += len;
        self.reservations += 1;
        self.slots.insert(*key, Slot::Busy(file.clone()));
        let (key, room) = (*key, Some(len));
        Step::Read(Claim { key, room, file }, effect)
    }

    /// Queue `key` for the spill writer.
    fn queue_spill(&mut self, key: BlockKey, effect: &mut Effect) {
        self.spill_orders.push_back(key);
        effect.queued = self.spill_orders.len() as u64 + u64::from(self.writing);
    }

    /// A persistent cache's checkpoint: queue every RAM resident without
    /// a file for the writer, which backs each if the tier has spare room.
    pub(super) fn checkpoint(&mut self) -> Effect {
        let mut unbacked: Vec<BlockKey> = (self.slots.iter())
            .filter(|(_, slot)| matches!(slot, Slot::Ram(_, None)))
            .map(|(key, _)| *key)
            .collect();
        unbacked.sort_unstable();
        let mut effect = Effect::default();
        for key in unbacked {
            self.queue_spill(key, &mut effect);
        }
        effect
    }

    /// The spill writer's next order: pop orders until one has something
    /// to write — an evicted block (`Spilling`), or a resident without a
    /// file that a checkpoint backs if the tier has spare room — and make
    /// its disk room (the writer, the one place the tier grows, keeps it
    /// till the write lands). Any other slot has its file or is gone: an
    /// eviction and a checkpoint of the same block crossed in the queue.
    pub(super) fn take_spill(&mut self) -> Option<Spill> {
        while let Some(key) = self.spill_orders.pop_front() {
            let spare = |data: &Bytes| self.disk_used + data.len() as u64 <= self.disk_bytes;
            let data = match self.slots.get(&key) {
                Some(Slot::Spilling(data)) => data.clone(),
                Some(Slot::Ram(data, None)) if spare(data) => data.clone(),
                _ => continue,
            };
            self.writing = true;
            let delete = self.make_disk_room(data.len() as u64);
            return Some(Spill { key, data, delete });
        }
        None
    }

    /// Make `size` bytes of disk-tier room, returning the files that lost
    /// their place, to delete. Files that duplicate a RAM resident go
    /// first: giving one up loses no block. Each victim's slot changes
    /// where it is popped: a backed resident stays in RAM unbacked, a
    /// disk-only block goes absent, and a promote in flight finds its slot
    /// fileless when it lands.
    fn make_disk_room(&mut self, size: u64) -> Vec<DiskMeta> {
        let mut files = Vec::new();
        while self.disk_used + size > self.disk_bytes {
            let victim = if let Some(&dup) = self.backed.first() {
                self.untrack_file(&dup);
                dup
            } else if let Some((vk, vs)) = self.disk_order.pop_victim() {
                self.disk_used -= vs;
                vk
            } else {
                break;
            };
            match self.slots.remove(&victim) {
                Some(Slot::Ram(data, Some(meta))) => {
                    self.slots.insert(victim, Slot::Ram(data, None));
                    files.push(meta);
                }
                Some(Slot::Busy(Some(meta))) => {
                    self.slots.insert(victim, Slot::Busy(None));
                    files.push(meta);
                }
                Some(Slot::Disk(meta)) => files.push(meta),
                _ => unreachable!("the disk order ranks file owners only"),
            }
        }
        files
    }

    /// Land the writer's order for `key` with the file it wrote (`None`:
    /// the write failed): `Spilling → Disk` for an evicted block, `Ram →
    /// Ram+file` for a resident a checkpoint backs. A failed spill loses
    /// the evicted block, or leaves a checkpoint's resident unbacked.
    /// Returns a written file nothing waits for, to delete.
    pub(super) fn land_spill(
        &mut self,
        key: BlockKey,
        written: Option<DiskMeta>,
    ) -> Option<DiskMeta> {
        self.writing = false;
        // A queued block stays `Spilling`; a resident a checkpoint is
        // backing may have been evicted under the write, and then its
        // order is queued behind this one and finds the file there.
        let slot = self.slots.remove(&key);
        if let Some(Slot::Spilling(data)) = &slot {
            self.spilling -= data.len() as u64;
        }
        let (landed, orphan) = match (slot, written) {
            (Some(Slot::Spilling(_)), Some(meta)) => {
                self.track_file(key, meta.len);
                (Some(Slot::Disk(meta)), None)
            }
            (Some(Slot::Ram(data, None)), Some(meta)) => {
                self.track_file(key, meta.len);
                self.backed.insert(key);
                (Some(Slot::Ram(data, Some(meta))), None)
            }
            // A failed spill: the block is gone.
            (Some(Slot::Spilling(_)), None) => (None, None),
            // A failed checkpoint leaves the slot as it is; a file
            // nothing was waiting for is not kept.
            (slot, meta) => (slot, meta),
        };
        if let Some(slot) = landed {
            self.slots.insert(key, slot);
        }
        orphan
    }

    /// A restart's re-admission, before the cache serves: `found` is every
    /// spill file the directory holds, sorted by key. Each key's first file
    /// that fits the disk tier's spare room and that `valid` accepts — it
    /// is asked of no other file, and is the caller's validated read, the
    /// one I/O a transition here waits on — becomes the key's `Disk` slot.
    /// Every other file is returned, to delete: invalid, a second file of
    /// its key, or over the budget.
    pub(super) fn readmit(
        &mut self,
        found: Vec<(BlockKey, DiskMeta)>,
        mut valid: impl FnMut(&BlockKey, &DiskMeta) -> bool,
    ) -> Vec<DiskMeta> {
        let mut rejected = Vec::new();
        for (key, meta) in found {
            // The length is the file system's: compared without a sum
            // that could overflow.
            let fits =
                !self.slots.contains_key(&key) && meta.len <= self.disk_bytes - self.disk_used;
            if fits && valid(&key, &meta) {
                self.track_file(key, meta.len);
                self.slots.insert(key, Slot::Disk(meta));
            } else {
                rejected.push(meta);
            }
        }
        rejected
    }

    /// The books, asserted in debug builds (and under test) at the end of
    /// every mutating critical section: the accounting is the sum over the
    /// slots, each order's keys are exactly the slots it ranks, and both
    /// tiers are inside their budgets.
    pub(super) fn check(&self) {
        if !cfg!(any(debug_assertions, test)) {
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
            let file = slot.file().map(|meta| meta.len);
            (disk, files) = (
                disk + file.unwrap_or(0),
                files + usize::from(file.is_some()),
            );
            assert_eq!(self.disk_order.size_of(key), file, "{key:?}");
        }
        let counted = (self.ram_used, self.spilling, self.disk_used);
        assert_eq!((ram, spilling, disk), counted);
        let orders = (
            self.ram_order.len(),
            self.disk_order.len(),
            self.backed.len(),
        );
        assert_eq!((residents, files, backed), orders);
        assert!(self.ram_used + self.ram_reserved <= self.ram_bytes);
        assert!(self.disk_used <= self.disk_bytes);
    }
}

//! The two-tier, plan-aware shard block cache.
//!
//! # One lock
//!
//! The cache's unit of traffic is a batch — one block per demand access,
//! a few thousand a second at most — so its whole mutable state lives
//! under **one mutex** (`State`): the residency map (`BlockKey → Slot`),
//! the byte accounting, the plan cursor, one incrementally-maintained
//! eviction order per tier (a lazy next-use max-heap — see
//! [`crate::order`]) and the spill writer's queue of keys. Every row of
//! the transition table below reads and writes the slot *and* its order
//! entries in a single critical section, each O(1)/O(log n), so whenever
//! the lock is free the books balance: `ram_used` is the sum over `Ram`
//! slots, `spilling` the sum over `Spilling` slots, `disk_used` the sum
//! over the slots that own a spill file, the RAM order's keys are the
//! `Ram` slots and the disk order's keys the file owners. Debug builds
//! assert exactly that at the end of every mutating critical section
//! (`State::check`). An eviction queues its victim's key for the writer
//! in the critical section that flips the slot to `Spilling`.
//!
//! What runs **outside** the lock is everything slow, and only that:
//! storage fetches, spill-file reads ([`persist::read_validated`]), writes
//! and deletes, an evictor's wait while the `Spilling` backlog exceeds the
//! RAM tier, and every condvar `notify` but the idle writer's. The one
//! thing that outlives a critical section is a transitional slot owned by
//! the thread doing the I/O: `Busy`
//! (storage fetch, promote or staging read in flight) or `Spilling`
//! (write queued). Concurrent readers either hit the still-resident bytes
//! or wait on the `landed` condvar, exactly as they would for a
//! single-flight fetch, and the owner looks at the slot once more, inside
//! the critical section that lands it — a `Busy` slot whose file the disk
//! tier reclaimed under the read lands the block unbacked, or absent,
//! there and then. No function takes the lock while holding it.
//!
//! # The slot state machine
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
//!   one that may land or release it; everyone else waits on the `landed`
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

use crate::order::NextUseHeap;
use crate::persist::{self, SpillEntry};
use crate::prefetch::MAX_IN_FLIGHT;
use crate::stats::CacheStats;
use bytes::Bytes;
use emlio_obs::{obs_warn, Stage, StageRecorder};
use emlio_tfrecord::BlockKey;
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Cache sizing and behaviour knobs.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// RAM tier capacity in bytes (must be positive).
    pub ram_bytes: u64,
    /// Disk spill tier capacity in bytes (0 disables the tier).
    pub disk_bytes: u64,
    /// Directory for spill files. `None` creates a per-cache directory
    /// under the system temp dir, removed when the cache drops.
    pub spill_dir: Option<PathBuf>,
    /// Prefetching on (any non-zero value) or off (0) — the CLI's
    /// `--prefetch 0|1`. Not a depth: how far the prefetcher runs ahead
    /// of the demand cursor is set by `ram_bytes` — it stages every
    /// planned block that fits beside the residents needed sooner (see
    /// [`crate::prefetch`]).
    pub prefetch_depth: usize,
    /// Keep the disk spill tier across restarts: maintain a CRC'd spill
    /// index in `spill_dir` and re-admit valid blocks on construction.
    /// Set via [`CacheConfig::with_persist_dir`]; requires a disk tier.
    pub persist: bool,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            ram_bytes: 256 << 20,
            disk_bytes: 0,
            spill_dir: None,
            prefetch_depth: 1,
            persist: false,
        }
    }
}

impl CacheConfig {
    /// Override the RAM tier capacity.
    pub fn with_ram_bytes(mut self, bytes: u64) -> Self {
        self.ram_bytes = bytes;
        self
    }

    /// Override the disk spill tier capacity (0 disables it).
    pub fn with_disk_bytes(mut self, bytes: u64) -> Self {
        self.disk_bytes = bytes;
        self
    }

    /// Override the spill directory.
    pub fn with_spill_dir(mut self, dir: PathBuf) -> Self {
        self.spill_dir = Some(dir);
        self
    }

    /// Make the disk spill tier persistent in `dir`: spill files and a
    /// CRC'd index survive drops, and a fresh cache over the same `dir`
    /// re-validates and re-admits them. Implies a disk tier (the capacity
    /// must still be set positive via [`CacheConfig::with_disk_bytes`]).
    pub fn with_persist_dir(mut self, dir: PathBuf) -> Self {
        self.spill_dir = Some(dir);
        self.persist = true;
        self
    }

    /// No-ops: the plan is the eviction policy, and the prefetch executor
    /// stages a restarted cache's first window like every other. Kept,
    /// with the one-variant [`EvictPolicy`], only because the frozen
    /// `benchmark/src/sut.rs` names all three; the next
    /// `benchmark`-archetype PR deletes them.
    #[doc(hidden)]
    pub fn with_policy(self, _policy: EvictPolicy) -> Self {
        self
    }

    #[doc(hidden)]
    pub fn with_warm_start_bytes(self, _bytes: u64) -> Self {
        self
    }

    /// Switch the prefetcher on (non-zero) or off (0).
    pub fn with_prefetch_depth(mut self, depth: usize) -> Self {
        self.prefetch_depth = depth;
        self
    }
}

/// See [`CacheConfig::with_policy`].
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub enum EvictPolicy {
    Clairvoyant,
}

/// Where a demand access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fetched {
    /// Served from the RAM tier (includes waits coalesced onto an
    /// in-flight fetch — no storage read was issued for this access).
    Ram,
    /// Served from the disk spill tier (promoted back to RAM).
    Disk,
    /// Missed everywhere; the supplied fetch closure ran.
    Storage,
}

impl Fetched {
    /// True when the access avoided a storage read.
    pub fn is_hit(&self) -> bool {
        !matches!(self, Fetched::Storage)
    }
}

/// A spilled block's on-disk identity. Cloned on every promote, so the
/// path is shared, not copied.
#[derive(Debug, Clone)]
struct DiskMeta {
    path: Arc<Path>,
    len: u64,
    crc: u32,
}

impl DiskMeta {
    /// The spill-index entry describing this file as `key`'s.
    fn entry(&self, key: BlockKey) -> SpillEntry {
        SpillEntry {
            key,
            len: self.len,
            crc: self.crc,
        }
    }
}

/// Residency state of one block (see the module docs for the transition
/// table and its invariants).
enum Slot {
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
    fn file(&self) -> Option<&DiskMeta> {
        match self {
            Slot::Ram(_, file) | Slot::Busy(file) => file.as_ref(),
            Slot::Disk(meta) => Some(meta),
            Slot::Spilling(_) => None,
        }
    }
}

/// What a demand access finds under the lock.
enum Served {
    /// RAM-resident (or still readable mid-spill).
    Ram(Bytes),
    /// Disk-only: the slot is now `Busy` over this file and the caller
    /// owns the promote.
    Disk(DiskMeta),
}

/// Everything the cache mutates: slots, accounting, plan state, eviction
/// orders and the spill writer's queue, under the one lock.
struct State {
    slots: HashMap<BlockKey, Slot>,
    ram_used: u64,
    /// Bytes of the `Spilling` slots: the writer's backlog, which an
    /// evictor waits on while it exceeds `ram_bytes`. Not part of
    /// `ram_used`.
    spilling: u64,
    /// Keys queued for the spill writer, oldest first: evictions (the slot
    /// is `Spilling`) and checkpoints (a `Ram` slot without a file). The
    /// writer reads which of the two it has from the slot.
    spill_orders: VecDeque<BlockKey>,
    /// The writer has taken an order and not finished it.
    writing: bool,
    /// The handle is dropping: the writer drains the queue, then ends.
    shutdown: bool,
    /// RAM set aside for prefetch reads in flight. Room is made when the
    /// reservation is taken, so `ram_used + ram_reserved <= ram_bytes`
    /// holds whenever the lock is free.
    ram_reserved: u64,
    /// Prefetch reads in flight (reservations held).
    reservations: usize,
    disk_used: u64,
    /// Monotonic access clock for recency ordering.
    tick: u64,
    /// The `Ram` slots.
    ram_order: NextUseHeap,
    /// Every spill file a slot owns, whether its block is disk-only or
    /// also RAM-resident; `disk_used` is the sum of their sizes.
    disk_order: NextUseHeap,
    /// Keys tracked by both orders: RAM residents whose spill file is
    /// still on disk. The disk tier reclaims these files before it
    /// evicts any disk-only block.
    backed: BTreeSet<BlockKey>,
    /// Planned access sequence (all epochs, in consumption order).
    seq: Arc<Vec<BlockKey>>,
    /// Remaining plan positions per key (ascending).
    future: HashMap<BlockKey, VecDeque<u64>>,
    /// Demand accesses consumed so far (position into `seq`).
    cursor: u64,
}

impl State {
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
    fn may_stage(&self, pos: u64, len: u64, ram_bytes: u64) -> bool {
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

    /// Serve `key` to a demand access: a RAM resident's bytes, or — the
    /// slot flipped to `Busy` — the spill file the caller now promotes.
    /// `None` when the key is absent or in flight.
    fn serve(&mut self, key: &BlockKey) -> Option<Served> {
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
    fn unreserve(&mut self, len: u64) {
        self.ram_reserved -= len;
        self.reservations -= 1;
    }

    /// The books, asserted in debug builds at the end of every mutating
    /// critical section: the accounting is the sum over the slots, each
    /// order's keys are exactly the slots it ranks, and both tiers are
    /// inside their budgets.
    fn check(&self, config: &CacheConfig) {
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

/// The cache proper: tiers, plan and accounting, shared between the
/// [`ShardCache`] handle and the background spill-writer thread. Built
/// only through [`ShardCache::new`]; the handle derefs to it, so these
/// methods are the handle's methods. The split exists for the writer's
/// lifecycle alone: the writer holds its own `Arc<CacheCore>`, so dropping
/// the handle can drain and join it before the core's final persistence
/// runs.
pub struct CacheCore {
    config: CacheConfig,
    state: Mutex<State>,
    /// Signalled when a `Busy` slot lands or is released (wakes
    /// single-flight waiters).
    landed: Condvar,
    /// Signalled on every demand access and whenever a reservation ends
    /// (wakes the prefetcher: the cursor moved, or room came free).
    room: Condvar,
    /// Signalled when spill orders are queued (wakes the writer), when a
    /// `Spilling` slot lands (wakes evictors waiting on the backlog) and
    /// when the writer goes idle (wakes `flush_spills`).
    spill: Condvar,
    stats: CacheStats,
    /// Where spill files go; `Some` exactly when there is a disk tier,
    /// and with it a spill writer.
    spill_dir: Option<PathBuf>,
    owns_spill_dir: bool,
    /// Stage recorder for `SpillWrite`/`WarmPromote` timings (set once by
    /// the daemon after construction).
    recorder: OnceLock<Arc<StageRecorder>>,
    /// Seeded chaos hook, consulted at `spill.write` before each
    /// spill-file write (set once, like the recorder).
    injector: OnceLock<Arc<emlio_util::fault::FaultInjector>>,
}

static SPILL_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

impl CacheCore {
    /// Build the core. Creates the spill directory when a disk tier is
    /// configured; when the directory is persistent, a previous writer's
    /// half-written `*.blk.tmp` files are deleted and, if it holds a spill
    /// index from a previous run, CRC-valid blocks are re-admitted into
    /// the disk tier.
    fn new(config: CacheConfig) -> io::Result<CacheCore> {
        assert!(config.ram_bytes > 0, "cache RAM capacity must be positive");
        if config.persist && config.disk_bytes == 0 {
            return Err(io::Error::other(
                "persistent cache requires a disk tier (set disk_bytes > 0)",
            ));
        }
        let (spill_dir, owns_spill_dir) = if config.disk_bytes > 0 {
            match &config.spill_dir {
                Some(dir) => (Some(dir.clone()), false),
                None => {
                    let dir = std::env::temp_dir().join(format!(
                        "emlio-cache-{}-{}",
                        std::process::id(),
                        SPILL_DIR_SEQ.fetch_add(1, Ordering::Relaxed),
                    ));
                    (Some(dir), true)
                }
            }
        } else {
            (None, false)
        };
        if let Some(dir) = &spill_dir {
            std::fs::create_dir_all(dir)?;
        }
        let mut state = State {
            slots: HashMap::new(),
            ram_used: 0,
            spilling: 0,
            spill_orders: VecDeque::new(),
            writing: false,
            shutdown: false,
            ram_reserved: 0,
            reservations: 0,
            disk_used: 0,
            tick: 0,
            ram_order: NextUseHeap::new(),
            disk_order: NextUseHeap::new(),
            backed: BTreeSet::new(),
            seq: Arc::new(Vec::new()),
            future: HashMap::new(),
            cursor: 0,
        };
        let stats = CacheStats::default();
        if let (true, Some(dir)) = (config.persist, &spill_dir) {
            persist::remove_stale_tmp(dir);
            let readmitted = load_persisted(dir, config.disk_bytes, &mut state);
            stats.readmitted.store(readmitted, Ordering::Relaxed);
        }
        state.check(&config);
        Ok(CacheCore {
            state: Mutex::new(state),
            landed: Condvar::new(),
            room: Condvar::new(),
            spill: Condvar::new(),
            stats,
            spill_dir,
            owns_spill_dir,
            recorder: OnceLock::new(),
            injector: OnceLock::new(),
            config,
        })
    }

    /// The configuration the cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Telemetry counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Record `SpillWrite`/`WarmPromote` stage timings into `recorder`.
    /// First call wins; later calls are ignored (the recorder is shared
    /// with the spill writer thread).
    pub fn set_recorder(&self, recorder: Arc<StageRecorder>) {
        let _ = self.recorder.set(recorder);
    }

    /// Replay `injector` at this cache's `spill.write` failpoint: injected
    /// errors exercise the real failed-spill-write branch (block degrades
    /// to absent, `spill_failures` counts it), injected latency stalls the
    /// writer like a congested disk. First call wins.
    pub fn set_fault_injector(&self, injector: Arc<emlio_util::fault::FaultInjector>) {
        let _ = self.injector.set(injector);
    }

    /// Install the planned access sequence (every epoch, in consumption
    /// order) and reset the demand cursor. The eviction order and the
    /// prefetcher both walk this sequence; set it before spawning a
    /// [`crate::Prefetcher`]. Residents' next-use ranks are refreshed
    /// against the new plan.
    pub fn set_plan(&self, seq: Vec<BlockKey>) {
        let mut future: HashMap<BlockKey, VecDeque<u64>> = HashMap::new();
        for (pos, key) in seq.iter().enumerate() {
            future.entry(*key).or_default().push_back(pos as u64);
        }
        let mut st = self.state.lock();
        st.seq = Arc::new(seq);
        st.future = future;
        st.cursor = 0;
        let State {
            ram_order,
            disk_order,
            future,
            ..
        } = &mut *st;
        ram_order.refresh(|k| State::next_use(future, 0, k));
        disk_order.refresh(|k| State::next_use(future, 0, k));
    }

    /// The installed plan sequence (empty when none was set).
    pub(crate) fn plan(&self) -> Arc<Vec<BlockKey>> {
        self.state.lock().seq.clone()
    }

    /// Demand accesses consumed so far.
    pub fn consumed(&self) -> u64 {
        self.state.lock().cursor
    }

    /// Whether `key` is resident in either tier. No policy side effects.
    pub fn contains(&self, key: &BlockKey) -> bool {
        matches!(
            self.state.lock().slots.get(key),
            Some(Slot::Ram(..) | Slot::Spilling(_) | Slot::Disk(_))
        )
    }

    /// Bytes resident in the RAM tier.
    pub fn ram_bytes_used(&self) -> u64 {
        self.state.lock().ram_used
    }

    /// `(resident, reserved for prefetch reads in flight)` bytes of the
    /// RAM tier at one instant (gauges); their sum never exceeds
    /// `ram_bytes`.
    pub fn ram_budget(&self) -> (u64, u64) {
        let st = self.state.lock();
        (st.ram_used, st.ram_reserved)
    }

    /// Bytes of spill files the disk tier holds, including the files
    /// that back RAM residents.
    pub fn disk_bytes_used(&self) -> u64 {
        self.state.lock().disk_used
    }

    /// The keys whose slot `pick` selects, sorted.
    fn keys_where(&self, pick: impl Fn(&Slot) -> bool) -> Vec<BlockKey> {
        let st = self.state.lock();
        let mut keys: Vec<BlockKey> = st
            .slots
            .iter()
            .filter(|(_, slot)| pick(slot))
            .map(|(k, _)| *k)
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Sorted keys resident in the RAM tier (test/inspection hook).
    pub fn ram_keys(&self) -> Vec<BlockKey> {
        self.keys_where(|slot| matches!(slot, Slot::Ram(..) | Slot::Spilling(_)))
    }

    /// Sorted keys resident in the disk tier *only* — the blocks a demand
    /// access would have to promote; a RAM resident whose spill file is
    /// still on disk is not listed (test/inspection hook).
    pub fn disk_keys(&self) -> Vec<BlockKey> {
        self.keys_where(|slot| matches!(slot, Slot::Disk(_)))
    }

    /// Bytes held by the slots themselves, `(RAM, spill files)`: `Ram`
    /// payloads, and every spill file a slot owns — disk-only, backing a
    /// resident, or being read back. Whenever the lock is free these
    /// equal `ram_bytes_used()` and `disk_bytes_used()` (test/inspection
    /// hook; read all three between operations to compare them).
    pub fn slot_bytes(&self) -> (u64, u64) {
        let st = self.state.lock();
        st.slots.values().fold((0, 0), |(ram, disk), slot| {
            let resident = match slot {
                Slot::Ram(data, _) => data.len() as u64,
                _ => 0,
            };
            (
                ram + resident,
                disk + slot.file().map_or(0, |meta| meta.len),
            )
        })
    }

    /// Balance the books of a cache whose users have all been joined: once
    /// the spill queue is flushed no block is left `Spilling`, the
    /// accounting is the sum over the slots, both tiers are inside their
    /// budgets with nothing reserved, and — with a disk tier that takes
    /// every block — every eviction ended as a spill write, a flip onto its
    /// block's file or a counted write failure (or fewer: a persistent
    /// cache's checkpoints are spills too).
    pub fn check_books(&self) -> Result<(), String> {
        self.flush_spills();
        let (c, s, slots) = (&self.config, self.stats.snapshot(), self.slot_bytes());
        let ((ram, reserved), disk) = (self.ram_budget(), self.disk_bytes_used());
        let spilling = self.state.lock().spilling;
        let ended = s.spills + s.clean_evictions + s.spill_failures;
        let evictions_ended =
            c.disk_bytes == 0 || s.evictions == ended || (c.persist && s.evictions < ended);
        if (ram, disk) == slots
            && spilling == 0
            && reserved == 0
            && ram <= c.ram_bytes
            && disk <= c.disk_bytes
            && evictions_ended
        {
            return Ok(());
        }
        Err(format!(
            "cache books out of balance: accounting ({ram}, {disk}) vs slots {slots:?}, \
             {spilling} bytes spilling, {reserved} bytes reserved, {c:?}, {s:?}"
        ))
    }

    fn count_hit(&self, data: &Bytes) {
        self.stats.hits.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_saved
            .fetch_add(data.len() as u64, Ordering::Relaxed);
    }

    /// Demand lookup: serve `key` from RAM or disk, updating recency and
    /// the plan cursor. Returns `None` on a miss (which is also counted).
    /// A fetch already in flight on another thread counts as a miss here
    /// (this entry point never blocks on other threads' fetches).
    ///
    /// A RAM hit returns the cached allocation itself (refcounted, no
    /// copy); the view stays valid even if the block is evicted while the
    /// caller holds it.
    pub fn get(&self, key: &BlockKey) -> Option<Bytes> {
        let served = {
            let mut st = self.state.lock();
            st.demand_access(key);
            let served = st.serve(key);
            st.check(&self.config);
            served
        };
        self.room.notify_all();
        let data = match served {
            Some(Served::Ram(data)) => {
                self.count_hit(&data);
                Some(data)
            }
            Some(Served::Disk(meta)) => self.promote(key, &meta),
            None => None,
        };
        if data.is_none() {
            self.stats.misses.fetch_add(1, Ordering::Relaxed);
        }
        data
    }

    /// Serve `key`'s bytes without perturbing the cache: no demand-cursor
    /// advance, no hit/miss counters, no recency touch, no promotion. A
    /// RAM/spilling resident clones the shared bytes; a disk resident is
    /// read (and CRC-validated) from its spill file *in place* — the block
    /// stays on disk. `Busy` (fetch in flight) and absent report `None`.
    /// This is the peer-serving entry point: a remote daemon's fetch must
    /// not distort this cache's plan accounting or tier placement.
    pub fn peek(&self, key: &BlockKey) -> Option<Bytes> {
        let meta = match self.state.lock().slots.get(key) {
            Some(Slot::Ram(data, _)) | Some(Slot::Spilling(data)) => return Some(data.clone()),
            Some(Slot::Disk(meta)) => meta.clone(),
            _ => return None,
        };
        // Spill-file read with the lock released. A concurrent evictor may
        // delete the file under us; validation degrades that to a miss.
        persist::read_validated(&meta.path, meta.len, meta.crc)
    }

    /// Insert a block without demand-access accounting. A no-op when the
    /// key is already resident (either tier) or in flight: it can neither
    /// clobber another thread's single-flight slot nor land beside a
    /// resident.
    pub fn insert(&self, key: BlockKey, data: impl Into<Bytes>) {
        let queued = {
            let mut st = self.state.lock();
            if st.slots.contains_key(&key) {
                return;
            }
            let orders = st.spill_orders.len();
            self.admit(&mut st, key, data.into(), None, false);
            st.check(&self.config);
            st.spill_orders.len() > orders
        };
        self.hand_off_spills(queued);
    }

    /// Demand lookup with single-flight fetch: on a miss, run `fetch` (at
    /// most once per missing key across all threads — concurrent callers
    /// block until the winner's fetch completes and then hit RAM).
    ///
    /// Hits hand out the cached allocation itself as refcounted [`Bytes`];
    /// the fetched value is admitted without copying (`Vec<u8>` converts
    /// by taking ownership).
    pub fn get_or_fetch<E, T, F>(&self, key: BlockKey, fetch: F) -> Result<(Bytes, Fetched), E>
    where
        T: Into<Bytes>,
        F: FnOnce() -> Result<T, E>,
    {
        // One access, accounted once — after any wait for a fetch in
        // flight, in the critical section that takes the landed bytes: the
        // prefetcher refills a slot the moment the cursor releases it, and
        // cannot get between the two.
        let mut accounted = false;
        loop {
            let served = {
                let mut st = self.state.lock();
                while matches!(st.slots.get(&key), Some(Slot::Busy(_))) {
                    self.landed.wait(&mut st);
                }
                if !accounted {
                    st.demand_access(&key);
                }
                let served = st.serve(&key);
                if served.is_none() {
                    st.slots.insert(key, Slot::Busy(None));
                }
                st.check(&self.config);
                served
            };
            if !accounted {
                self.room.notify_all();
                accounted = true;
            }
            match served {
                Some(Served::Ram(data)) => {
                    self.count_hit(&data);
                    return Ok((data, Fetched::Ram));
                }
                Some(Served::Disk(meta)) => {
                    if let Some(data) = self.promote(&key, &meta) {
                        return Ok((data, Fetched::Disk));
                    }
                    // A failed promote degraded to a miss; go round to
                    // claim it.
                }
                None => break,
            }
        }
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        match fetch() {
            Ok(data) => {
                let data = data.into();
                self.land(key, data.clone(), None);
                Ok((data, Fetched::Storage))
            }
            Err(e) => {
                self.release_busy(&key, None);
                Err(e)
            }
        }
    }

    /// Promote a disk-resident block back to RAM. Called holding the
    /// block's `Busy` slot; the spill-file read happens with the lock
    /// released. A vanished or corrupt spill file degrades to a miss.
    fn promote(&self, key: &BlockKey, meta: &DiskMeta) -> Option<Bytes> {
        let Some(data) = self.read_spill_file(key, meta) else {
            self.release_busy(key, None);
            return None;
        };
        self.count_hit(&data);
        self.stats.disk_hits.fetch_add(1, Ordering::Relaxed);
        // The file stays where it is whatever RAM decides: admitted, it
        // backs the resident; declined (Belady bypass), the slot goes
        // straight back to `Disk`.
        self.land(*key, data.clone(), None);
        Some(data)
    }

    /// Read `key`'s spill file back for the owner of its `Busy` slot,
    /// validated by [`persist::read_validated`]. On failure the file is
    /// retired — deleted, then out of the slot and the disk order (the one
    /// way a promote leaves it) — and the owner releases the slot to
    /// absent: a miss. Deleted while the slot is still `Busy`: no newer
    /// file of the same key can be written until it is released.
    fn read_spill_file(&self, key: &BlockKey, meta: &DiskMeta) -> Option<Bytes> {
        let data = persist::read_validated(&meta.path, meta.len, meta.crc);
        if data.is_none() {
            let _ = std::fs::remove_file(&meta.path);
            let mut st = self.state.lock();
            if let Some(Slot::Busy(file @ Some(_))) = st.slots.get_mut(key) {
                *file = None;
                st.untrack_file(key);
            }
            st.check(&self.config);
        }
        data
    }

    /// Land the `Busy` slot the caller owns — and, with `reserved`, give
    /// back the prefetch reservation held for it — in one critical
    /// section: the slot comes out of `Busy` with whatever spill file the
    /// disk tier has left it, RAM admits or declines ([`CacheCore::admit`]),
    /// and the victims' slots are flipped, and their spill orders queued,
    /// where they are popped. Only the wake-ups and the hand-off to the
    /// spill writer happen after it. Returns whether RAM admitted.
    fn land(&self, key: BlockKey, data: Bytes, reserved: Option<u64>) -> bool {
        let (admitted, queued) = {
            let mut st = self.state.lock();
            if let Some(len) = reserved {
                st.unreserve(len);
            }
            let Some(Slot::Busy(file)) = st.slots.remove(&key) else {
                unreachable!("landing owns the Busy slot");
            };
            let orders = st.spill_orders.len();
            let admitted = self.admit(&mut st, key, data, file, reserved.is_some());
            st.check(&self.config);
            (admitted, st.spill_orders.len() > orders)
        };
        self.landed.notify_all();
        if reserved.is_some() {
            // An in-flight slot and possibly RAM came free.
            self.room.notify_all();
        }
        self.hand_off_spills(queued);
        admitted
    }

    /// Admit `data` into the RAM tier under the lock, into the empty slot
    /// of `key`: pop victims (applying the Belady bypass), flip their
    /// slots, insert the resident. `file` is the spill file `data` was
    /// just read from (the promote paths): admitted, the resident keeps
    /// it as its backing; declined, the block stays disk-resident instead
    /// of being dropped. `staged` says the block lands in the room a
    /// prefetch reservation held — no bypass, the issue rule placed it
    /// ahead of everything it could displace. Every other admission fits
    /// into what the reservations leave. Returns whether RAM admitted.
    fn admit(
        &self,
        st: &mut State,
        key: BlockKey,
        data: Bytes,
        file: Option<DiskMeta>,
        staged: bool,
    ) -> bool {
        let size = data.len() as u64;
        let room = self.config.ram_bytes - st.ram_reserved;
        // Belady admission bypass: if this block would be the eviction
        // victim the moment it lands, don't admit it. Only while the
        // cursor is inside the plan: with no plan, or past its end, every
        // next use is "never", the order is recency, and every admission
        // is taken.
        let bypass = !staged && st.cursor < st.seq.len() as u64 && st.ram_used + size > room && {
            let next = st.next_use_rank(&key);
            matches!(st.ram_order.victim_next_use(), Some(v) if next >= v)
        };
        if size > room || bypass {
            // A declined promote goes back to disk-only; anything else
            // passes through uncached.
            if let Some(meta) = file {
                st.rerank_file(&key);
                st.slots.insert(key, Slot::Disk(meta));
            }
            return false;
        }
        self.make_room(st, size, None);
        st.track_ram(key, size);
        if file.is_some() {
            st.backed.insert(key);
        }
        st.slots.insert(key, Slot::Ram(data, file));
        true
    }

    /// Evict RAM victims until `size` more bytes fit beside the residents
    /// and the reservations, each where it is popped: a backed resident
    /// flips to `Disk` over the write-once file it already has; anything
    /// else flips to `Spilling` — readable until its write lands — with
    /// its key queued for the spill writer (the caller hands the orders
    /// off once the lock is released), or drops when no disk tier can take
    /// it. A prefetch reservation for plan position `keep_before` leaves
    /// alone what the plan needs sooner: such a victim goes back into the
    /// order as its newest arrival (the order offers one only when its
    /// rank is out of date). The caller has checked that the room can be
    /// made.
    fn make_room(&self, st: &mut State, size: u64, keep_before: Option<u64>) {
        let mut kept = Vec::new();
        while st.ram_used + st.ram_reserved + size > self.config.ram_bytes {
            let Some((vk, vs)) = st.ram_order.pop_victim() else {
                break;
            };
            let sooner = keep_before.and_then(|pos| {
                State::pending(&st.future, st.cursor, &vk).filter(|&next| next < pos)
            });
            if let Some(next) = sooner {
                kept.push((vk, vs, next));
                continue;
            }
            st.ram_used -= vs;
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            match st.slots.remove(&vk) {
                Some(Slot::Ram(_, Some(meta))) => {
                    st.backed.remove(&vk);
                    st.rerank_file(&vk);
                    st.slots.insert(vk, Slot::Disk(meta));
                    self.stats.clean_evictions.fetch_add(1, Ordering::Relaxed);
                }
                Some(Slot::Ram(data, None)) => {
                    if self.spill_dir.is_some() && vs <= self.config.disk_bytes {
                        st.slots.insert(vk, Slot::Spilling(data));
                        st.spilling += vs;
                        self.queue_spill(st, vk);
                    }
                }
                _ => unreachable!("the RAM order ranks Ram slots only"),
            }
        }
        for (key, size, next) in kept {
            st.tick += 1;
            st.ram_order.insert(key, size, next, st.tick);
        }
    }

    /// Queue `key` for the spill writer, under the lock.
    fn queue_spill(&self, st: &mut State, key: BlockKey) {
        st.spill_orders.push_back(key);
        let depth = st.spill_orders.len() as u64 + u64::from(st.writing);
        self.stats
            .spill_queue_peak
            .fetch_max(depth, Ordering::Relaxed);
    }

    /// Hand the orders a critical section `queued` to the spill writer,
    /// lock released: wake it, then wait while the `Spilling` backlog is
    /// more than the RAM tier. So at most `ram_bytes` of evicted blocks,
    /// plus the victims of the evictors parked here, wait for the disk —
    /// whatever their number or size.
    fn hand_off_spills(&self, queued: bool) {
        if !queued {
            return;
        }
        self.spill.notify_all();
        let mut st = self.state.lock();
        if st.spilling > self.config.ram_bytes {
            self.stats
                .spill_backpressure_waits
                .fetch_add(1, Ordering::Relaxed);
            while st.spilling > self.config.ram_bytes {
                self.spill.wait(&mut st);
            }
        }
    }

    /// Make `size` bytes of disk-tier room under the lock, returning the
    /// files that lost their place for the caller to delete once it is
    /// released. Files that duplicate a RAM resident go first — giving one
    /// up loses no block, only the write its resident's eviction would
    /// have skipped — so under pressure the tier holds as many distinct
    /// disk-only blocks as it would without the duplicates. Each victim's
    /// slot changes where it is popped: a backed resident stays in RAM
    /// unbacked, a disk-only block goes absent, and a promote in flight
    /// finds its slot fileless when it lands.
    fn make_disk_room(&self, st: &mut State, size: u64) -> Vec<DiskMeta> {
        let mut files = Vec::new();
        while st.disk_used + size > self.config.disk_bytes {
            let victim = if let Some(&dup) = st.backed.first() {
                st.untrack_file(&dup);
                dup
            } else if let Some((vk, vs)) = st.disk_order.pop_victim() {
                st.disk_used -= vs;
                vk
            } else {
                break;
            };
            match st.slots.remove(&victim) {
                Some(Slot::Ram(data, Some(meta))) => {
                    st.slots.insert(victim, Slot::Ram(data, None));
                    files.push(meta);
                }
                Some(Slot::Busy(Some(meta))) => {
                    st.slots.insert(victim, Slot::Busy(None));
                    files.push(meta);
                }
                Some(Slot::Disk(meta)) => files.push(meta),
                _ => unreachable!("the disk order ranks file owners only"),
            }
        }
        files
    }

    /// The spill writer's next order, waiting for one; `None` once the
    /// handle is dropping and the queue is drained, which ends the writer.
    /// A writer that finds the queue empty is idle, and wakes
    /// `flush_spills`.
    fn next_spill(&self) -> Option<BlockKey> {
        let mut st = self.state.lock();
        while st.spill_orders.is_empty() && !st.shutdown {
            self.spill.notify_all();
            self.spill.wait(&mut st);
        }
        let key = st.spill_orders.pop_front()?;
        st.writing = true;
        Some(key)
    }

    /// Perform the spill order for `key`: make the disk room, write the
    /// slot's bytes, and land the transition — `Spilling → Disk` for an
    /// evicted block, `Ram → Ram+file` for a resident a checkpoint backs.
    /// Runs on the one writer thread, the only place the disk tier grows,
    /// so the room made before the write is still there when it lands; the
    /// lock is never held across the file I/O. The writer never spills
    /// recursively — disk-tier overflow only *drops* disk victims. The
    /// order is finished (`writing` cleared) in the critical section that
    /// lands it, or in the one that finds nothing to write.
    fn finish_spill(&self, key: BlockKey) {
        let (data, reclaimed) = {
            let mut st = self.state.lock();
            // Which of the two it is, the slot says: an eviction makes its
            // room out of disk victims, a checkpoint takes spare room or
            // leaves it. Anything else has its file already or is gone —
            // an eviction and a checkpoint of the same block crossed in
            // the queue.
            let data = match st.slots.get(&key) {
                Some(Slot::Spilling(data)) => data.clone(),
                Some(Slot::Ram(data, None))
                    if st.disk_used + data.len() as u64 <= self.config.disk_bytes =>
                {
                    data.clone()
                }
                _ => {
                    st.writing = false;
                    return;
                }
            };
            let reclaimed = self.make_disk_room(&mut st, data.len() as u64);
            st.check(&self.config);
            (data, reclaimed)
        };
        let size = data.len() as u64;
        for meta in reclaimed {
            let _ = std::fs::remove_file(&meta.path);
        }

        let dir = self.spill_dir.as_ref().expect("spillable implies dir");
        let path: Arc<Path> = dir.join(persist::spill_file_name(&key)).into();
        let crc = persist::block_crc(&data);
        let t0 = Instant::now();
        // Chaos failpoint: an injected error takes the real failed-write
        // branch below (block drops to absent, counted, never silent); an
        // injected latency spike stalls the writer thread like a congested
        // disk. Short reads don't apply to a write site.
        let injected = match self.injector.get().map(|inj| {
            (
                inj.decide(emlio_util::fault::site::SPILL_WRITE),
                inj.plan().seed(),
            )
        }) {
            Some((emlio_util::fault::FaultDecision::Error, seed)) => Some(io::Error::other(
                format!("injected fault at spill.write (seed {seed})"),
            )),
            Some((emlio_util::fault::FaultDecision::Latency(d), _)) => {
                std::thread::sleep(d);
                None
            }
            _ => None,
        };
        // Written beside the path and renamed onto it, never truncated in
        // place: a promoted block is a view of its spill file's mapping,
        // and a view may still map the file this path named before (see
        // `persist`'s module docs).
        let result = match injected {
            Some(e) => Err(e),
            None => persist::write_file(&path, &data),
        };
        if let Some(rec) = self.recorder.get() {
            rec.record(Stage::SpillWrite, t0.elapsed().as_nanos() as u64);
        }
        let meta = match result {
            Ok(()) => {
                self.stats.spills.fetch_add(1, Ordering::Relaxed);
                Some(DiskMeta {
                    path,
                    len: size,
                    crc,
                })
            }
            Err(e) => {
                // A failed spill loses the evicted block — demand will
                // re-read it from storage — or leaves a checkpoint's
                // resident unbacked, but never silently: counted and logged.
                self.stats.spill_failures.fetch_add(1, Ordering::Relaxed);
                obs_warn!(
                    "cache",
                    "spill write failed for {}: {e}; block has no spill file",
                    path.display()
                );
                None
            }
        };
        let orphan = {
            let mut st = self.state.lock();
            // A queued block stays `Spilling`; a resident a checkpoint is
            // backing may have been evicted under the write, and then its
            // order is queued behind this one and finds the file there.
            let slot = st.slots.remove(&key);
            if let Some(Slot::Spilling(_)) = slot {
                st.spilling -= size;
            }
            let (landed, orphan) = match (slot, meta) {
                (Some(Slot::Spilling(_)), Some(meta)) => {
                    st.track_file(key, size);
                    (Some(Slot::Disk(meta)), None)
                }
                (Some(Slot::Ram(data, None)), Some(meta)) => {
                    st.track_file(key, size);
                    st.backed.insert(key);
                    (Some(Slot::Ram(data, Some(meta))), None)
                }
                // A failed spill: the block is gone.
                (Some(Slot::Spilling(_)), None) => (None, None),
                // A failed checkpoint leaves the slot as it is; a file
                // nothing was waiting for is not kept.
                (slot, meta) => (slot, meta),
            };
            if let Some(slot) = landed {
                st.slots.insert(key, slot);
            }
            st.writing = false;
            st.check(&self.config);
            orphan
        };
        // The backlog may have shrunk: wake the evictors waiting on it.
        self.spill.notify_all();
        if let Some(meta) = orphan {
            let _ = std::fs::remove_file(&meta.path);
        }
    }

    /// Block until every queued spill order has been fully written (the
    /// `Spilling → Disk` transitions landed); returns at once without a
    /// disk tier. Tests and checkpoints use this to observe a settled
    /// tier.
    pub fn flush_spills(&self) {
        let mut st = self.state.lock();
        while !st.spill_orders.is_empty() || st.writing {
            self.spill.wait(&mut st);
        }
    }

    /// Spill orders queued or in flight right now (gauge).
    pub fn spill_queue_depth(&self) -> u64 {
        let st = self.state.lock();
        st.spill_orders.len() as u64 + u64::from(st.writing)
    }

    /// Checkpoint the cache for a restart (persistent caches only): queue
    /// every RAM resident that has no spill file yet for the spill writer,
    /// behind the orders already queued — it backs each if the disk tier
    /// has the spare capacity, never at the cost of another block's file —
    /// wait for the queue to drain, and write the spill index of the live
    /// tier. Returns how many blocks the index covers. A non-persistent
    /// cache returns 0.
    pub fn persist_now(&self) -> io::Result<u64> {
        if !self.config.persist {
            return Ok(0);
        }
        // A resident evicted in between is queued twice; its second order
        // finds the slot moved on.
        let unbacked = self.keys_where(|slot| matches!(slot, Slot::Ram(_, None)));
        let mut st = self.state.lock();
        for key in unbacked {
            self.queue_spill(&mut st, key);
        }
        drop(st);
        self.spill.notify_all();
        self.flush_spills();
        let files = live_files(&self.state.lock());
        self.write_index(&files)?;
        Ok(files.len() as u64)
    }

    /// Write the spill index listing `files` (persistent caches).
    fn write_index(&self, files: &[(BlockKey, DiskMeta)]) -> io::Result<()> {
        let dir = self.spill_dir.as_ref().expect("persist implies spill dir");
        let entries: Vec<SpillEntry> = files.iter().map(|(k, meta)| meta.entry(*k)).collect();
        persist::write_index(dir, &entries)
    }

    /// The prefetch executor's issue step for plan position `pos`
    /// (`key`, expected to be `len` bytes long; 0 = not known yet — the
    /// disk tier knows the length of a block it holds). Waits until the
    /// block may be staged, then — in the critical section that found it
    /// so — reserves its RAM, evicting what the plan needs later than
    /// `pos`, and claims its slot, absent (to be read from storage) or
    /// disk-only (from its spill file) alike:
    ///
    /// ```text
    /// ram_reserved + bytes of residents needed before pos + len <= ram_bytes
    /// ```
    ///
    /// with at most [`MAX_IN_FLIGHT`] reservations out. A disk-only block
    /// is staged into free room only, and skipped — left to a demand
    /// promote — when there is none: a spill-file read is cheap enough to
    /// take on demand, and every resident evicted to stage one ahead is a
    /// block the plan-driven order would have kept for its next use
    /// (docs/ARCHITECTURE.md has the measurement). Woken by every demand
    /// access, every landed or failed prefetch read, and
    /// [`CacheCore::wake_prefetcher`]; the slot is looked at again on
    /// every wake.
    pub(crate) fn reserve_prefetch(
        &self,
        pos: u64,
        key: &BlockKey,
        len: u64,
        stop: &AtomicBool,
    ) -> Issue<'_> {
        let mut st = self.state.lock();
        let (len, file) = loop {
            if stop.load(Ordering::SeqCst) {
                return Issue::Stop;
            }
            let (len, file) = match st.slots.get(key) {
                None => (len, None),
                Some(Slot::Disk(meta)) => (meta.len, Some(meta)),
                // In RAM, or someone's fetch or promote in flight.
                Some(_) => return Issue::Skip,
            };
            // Demand got here first, or the block can never fit — or, on
            // disk, not without evicting.
            let free = self.config.ram_bytes - st.ram_used - st.ram_reserved;
            if pos < st.cursor || len > self.config.ram_bytes || (file.is_some() && len > free) {
                return Issue::Skip;
            }
            // A block of unknown length goes out alone: once it lands, the
            // largest length seen stands in for the rest.
            let max_out = if len == 0 { 1 } else { MAX_IN_FLIGHT };
            if st.reservations < max_out && st.may_stage(pos, len, self.config.ram_bytes) {
                break (len, file.cloned());
            }
            self.room.wait(&mut st);
        };
        let orders = st.spill_orders.len();
        self.make_room(&mut st, len, Some(pos));
        st.ram_reserved += len;
        st.reservations += 1;
        st.slots.insert(*key, Slot::Busy(file.clone()));
        st.check(&self.config);
        let queued = st.spill_orders.len() > orders;
        drop(st);
        self.hand_off_spills(queued);
        Issue::Read(Reservation {
            cache: self,
            key: *key,
            len,
            file,
        })
    }

    /// Give up the `Busy` slot the caller owns — and, with `reserved`,
    /// the prefetch reservation held for it — and wake whoever waits on
    /// either: back to disk-only when the slot still holds the spill file
    /// it was claimed over (an unread staging claim), to absent otherwise
    /// (fetch or promote failure).
    fn release_busy(&self, key: &BlockKey, reserved: Option<u64>) {
        {
            let mut st = self.state.lock();
            if let Some(len) = reserved {
                st.unreserve(len);
            }
            let Some(Slot::Busy(file)) = st.slots.remove(key) else {
                unreachable!("release owns the Busy slot");
            };
            if let Some(meta) = file {
                st.slots.insert(*key, Slot::Disk(meta));
            }
            st.check(&self.config);
        }
        self.landed.notify_all();
        if reserved.is_some() {
            self.room.notify_all();
        }
    }

    /// Make a parked [`CacheCore::reserve_prefetch`] look at its stop flag
    /// again. Passing through the lock orders this after the waiter's
    /// last check, so a flag set before the call is never missed.
    pub(crate) fn wake_prefetcher(&self) {
        drop(self.state.lock());
        self.room.notify_all();
    }
}

/// Re-admit CRC-valid spill files recorded by a previous run's index in
/// `dir` into the disk tier of a cache under construction (up to its
/// capacity). Returns how many were.
fn load_persisted(dir: &Path, disk_bytes: u64, st: &mut State) -> u64 {
    let entries = match persist::read_index(dir) {
        Ok(Some(entries)) => entries,
        // No index, or a malformed one: cold start.
        _ => return 0,
    };
    let mut readmitted = 0;
    for e in &entries {
        if st.disk_used + e.len > disk_bytes {
            // Not re-admittable this run — and the index rewritten at
            // shutdown will no longer list it, so delete the file
            // rather than orphan it in the persist dir forever.
            let _ = std::fs::remove_file(dir.join(persist::spill_file_name(&e.key)));
            continue;
        }
        let Some(path) = persist::validate_entry(dir, e) else {
            continue;
        };
        st.track_file(e.key, e.len);
        let meta = DiskMeta {
            path: path.into(),
            len: e.len,
            crc: e.crc,
        };
        st.slots.insert(e.key, Slot::Disk(meta));
        readmitted += 1;
    }
    readmitted
}

/// Every spill file of the live tier, sorted by key: disk-only blocks
/// and the backing of RAM residents alike.
fn live_files(st: &State) -> Vec<(BlockKey, DiskMeta)> {
    let mut files: Vec<(BlockKey, DiskMeta)> = st
        .slots
        .iter()
        .filter_map(|(k, slot)| Some((*k, slot.file()?.clone())))
        .collect();
    files.sort_unstable_by_key(|(k, _)| *k);
    files
}

/// What [`CacheCore::reserve_prefetch`] decided for one plan position.
pub(crate) enum Issue<'a> {
    /// Room reserved and slot claimed: [`fill`](Reservation::fill) it.
    Read(Reservation<'a>),
    /// Nothing to stage: the block is in RAM or being fetched, demand
    /// reached the position first, the block can never fit, or it is on
    /// disk and would not fit without evicting.
    Skip,
    /// The stop flag is set.
    Stop,
}

/// RAM reserved, and a `Busy` slot claimed, for one prefetch read in
/// flight. [`fill`](Reservation::fill) does the read and lands the block
/// in it; dropping it any other way (the read failed or panicked, or never
/// ran) gives the room back and releases the slot — to disk-only when that
/// is where the claim found it — so demand readers parked on it fetch or
/// promote for themselves.
pub(crate) struct Reservation<'a> {
    cache: &'a CacheCore,
    key: BlockKey,
    len: u64,
    /// The spill file to stage from; `None` stages from storage.
    file: Option<DiskMeta>,
}

impl Reservation<'_> {
    /// Read the block — back from its spill file when the disk tier holds
    /// it, through `storage` otherwise — and admit it into the reserved
    /// room, counting it as prefetched (never a demand hit or miss), as
    /// warm-promoted when it came from disk (timed as
    /// [`Stage::WarmPromote`]), and as wasted when RAM does not take it. A
    /// spill file that fails validation is retired, as on a demand promote.
    pub(crate) fn fill(self, storage: impl FnOnce() -> Option<Bytes>) {
        let t0 = Instant::now();
        let data = match &self.file {
            Some(meta) => self.cache.read_spill_file(&self.key, meta),
            None => storage(),
        };
        let Some(data) = data else { return };
        let (cache, key, len) = (self.cache, self.key, self.len);
        let promoted = self.file.is_some();
        std::mem::forget(self);
        cache.stats.prefetched.fetch_add(1, Ordering::Relaxed);
        if !cache.land(key, data, Some(len)) {
            cache.stats.prefetch_wasted.fetch_add(1, Ordering::Relaxed);
        } else if promoted {
            cache.stats.warm_promoted.fetch_add(1, Ordering::Relaxed);
            if let Some(rec) = cache.recorder.get() {
                rec.record(Stage::WarmPromote, t0.elapsed().as_nanos() as u64);
            }
        }
    }
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        self.cache.release_busy(&self.key, Some(self.len));
    }
}

impl Drop for CacheCore {
    fn drop(&mut self) {
        let files = live_files(self.state.get_mut());
        if self.config.persist {
            // Keep the spill files; leave an index for the next run.
            let _ = self.write_index(&files);
            return;
        }
        for (_, meta) in files {
            let _ = std::fs::remove_file(&meta.path);
        }
        if self.owns_spill_dir {
            if let Some(dir) = &self.spill_dir {
                let _ = std::fs::remove_dir(dir);
            }
        }
    }
}

/// The plan-aware two-tier block cache. Shared across daemon send workers
/// and the prefetcher via `Arc`; all methods take `&self`, and all but
/// [`ShardCache::new`] are [`CacheCore`]'s, reached through `Deref`.
///
/// With a disk tier, a dedicated `emlio-cache-spill` writer thread owns
/// every spill-file write: evictors flip the slot to `Spilling` and queue
/// its key, keeping disk I/O off the serve path — or, when the block's
/// write-once spill file is already there, flip it straight to
/// disk-resident and write nothing. Dropping the handle shuts the queue
/// down, drains it (every queued order still lands on disk), joins the
/// writer, and only then runs the core's final persistence — so a
/// persistent cache's spill index is always complete.
pub struct ShardCache {
    core: Arc<CacheCore>,
    /// The spill writer thread; `None` without a disk tier.
    writer: Option<JoinHandle<()>>,
}

impl ShardCache {
    /// Create a cache. Creates the spill directory when a disk tier is
    /// configured; when the directory is persistent and holds a spill
    /// index from a previous run, CRC-valid blocks are re-admitted into
    /// the disk tier. A disk tier also gets its spill writer thread.
    pub fn new(config: CacheConfig) -> io::Result<ShardCache> {
        let core = Arc::new(CacheCore::new(config)?);
        let writer = if core.spill_dir.is_some() {
            let core = core.clone();
            let run = move || {
                while let Some(key) = core.next_spill() {
                    core.finish_spill(key);
                }
            };
            Some(
                std::thread::Builder::new()
                    .name("emlio-cache-spill".into())
                    .spawn(run)?,
            )
        } else {
            None
        };
        Ok(ShardCache { core, writer })
    }
}

impl std::ops::Deref for ShardCache {
    type Target = CacheCore;

    fn deref(&self) -> &CacheCore {
        &self.core
    }
}

impl Drop for ShardCache {
    fn drop(&mut self) {
        if let Some(writer) = self.writer.take() {
            self.core.state.lock().shutdown = true;
            self.core.spill.notify_all();
            // The writer drains every queued order before exiting, so the
            // core's Drop (persistence / cleanup) sees a complete tier.
            let _ = writer.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emlio_util::testutil::TempDir;

    fn key(i: usize) -> BlockKey {
        BlockKey {
            shard_id: 0,
            start: i * 10,
            end: (i + 1) * 10,
        }
    }

    fn block(i: usize, len: usize) -> Vec<u8> {
        vec![i as u8; len]
    }

    fn ram_only(bytes: u64) -> ShardCache {
        ShardCache::new(CacheConfig::default().with_ram_bytes(bytes)).unwrap()
    }

    #[test]
    fn hit_after_insert_and_counters() {
        let cache = ram_only(1024);
        assert!(cache.get(&key(0)).is_none());
        cache.insert(key(0), block(0, 100));
        let data = cache.get(&key(0)).expect("hit");
        assert_eq!(data.len(), 100);
        let s = cache.stats().snapshot();
        assert_eq!((s.hits, s.misses, s.bytes_saved), (1, 1, 100));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // No plan: the order is recency and every admission is taken.
        let cache = ram_only(300);
        cache.insert(key(0), block(0, 100));
        cache.insert(key(1), block(1, 100));
        cache.insert(key(2), block(2, 100));
        // Touch 0 so 1 is now the least recently used.
        cache.get(&key(0)).unwrap();
        cache.insert(key(3), block(3, 100));
        assert!(cache.contains(&key(0)));
        assert!(!cache.contains(&key(1)), "LRU victim");
        assert_eq!(cache.ram_bytes_used(), 300);
    }

    #[test]
    fn clairvoyant_evicts_furthest_next_use() {
        let cache = ram_only(300);
        // Plan: 0 1 2 3 0 1 3  — after consuming the first three accesses,
        // 2 is never used again and must be the victim when 3 arrives.
        cache.set_plan(vec![key(0), key(1), key(2), key(3), key(0), key(1), key(3)]);
        for i in 0..3 {
            let (_, from) = cache
                .get_or_fetch::<std::io::Error, _, _>(key(i), || Ok(block(i, 100)))
                .unwrap();
            assert_eq!(from, Fetched::Storage);
        }
        let (_, from) = cache
            .get_or_fetch::<std::io::Error, _, _>(key(3), || Ok(block(3, 100)))
            .unwrap();
        assert_eq!(from, Fetched::Storage);
        assert!(!cache.contains(&key(2)), "dead block evicted first");
        assert!(cache.contains(&key(0)));
        assert!(cache.contains(&key(1)));
    }

    #[test]
    fn bypass_skips_pointless_admissions_inside_the_plan_only() {
        // Plan: 0 1 2 1 0 2 — at the access of 2 the residents (0, 1) are
        // both needed sooner than 2's next use after this one... except 2
        // IS needed at position 5, furthest of all, so admitting it would
        // make it the immediate victim. Inside the plan, 2 passes through
        // and 0/1 stay resident; with no plan every admission is taken and
        // someone gets evicted.
        let plan = vec![key(0), key(1), key(2), key(1), key(0), key(2)];
        let run = |planned: bool| {
            let cache = ram_only(200);
            if planned {
                cache.set_plan(plan.clone());
            }
            for k in &plan[..3] {
                cache
                    .get_or_fetch::<std::io::Error, _, _>(*k, || Ok(vec![0u8; 100]))
                    .unwrap();
            }
            cache
        };
        let bypassed = run(true);
        assert!(bypassed.contains(&key(0)));
        assert!(bypassed.contains(&key(1)));
        assert!(
            !bypassed.contains(&key(2)),
            "victim-on-arrival not admitted"
        );
        assert_eq!(bypassed.stats().snapshot().evictions, 0);

        let admitted = run(false);
        assert!(admitted.contains(&key(2)), "no plan: the block is kept");
        assert!(!admitted.contains(&key(0)), "and the LRU resident goes");
        assert_eq!(admitted.stats().snapshot().evictions, 1);
    }

    #[test]
    fn bypass_keeps_promoted_blocks_on_disk() {
        // Plan [2,0,1, 0,1,2, 0,1,2], RAM = 2 blocks, disk tier on.
        // Block 2 is evicted to disk at the access of 1 (furthest next
        // use). Its later accesses promote from disk, and the Belady
        // bypass declines RAM admission each time (its next use is always
        // the furthest) — the slot then flips straight back to `Disk`
        // over the same file, so storage is fetched exactly once per
        // unique block across the whole trace and the block is written
        // to disk exactly once. (The plan runs one position past the
        // replay: the last access is still inside it.)
        let plan = vec![
            key(2),
            key(0),
            key(1),
            key(0),
            key(1),
            key(2),
            key(0),
            key(1),
            key(2),
            key(0),
        ];
        let cache = ShardCache::new(
            CacheConfig::default()
                .with_ram_bytes(200)
                .with_disk_bytes(1000),
        )
        .unwrap();
        cache.set_plan(plan.clone());
        let mut fetches = 0u64;
        for k in &plan[..9] {
            cache
                .get_or_fetch::<std::io::Error, _, _>(*k, || {
                    fetches += 1;
                    Ok(vec![k.start as u8; 100])
                })
                .unwrap();
            // The replay depends on each eviction's spill landing before
            // the block's next access promotes it from disk.
            cache.flush_spills();
        }
        assert_eq!(fetches, 3, "each unique block fetched from storage once");
        let s = cache.stats().snapshot();
        assert_eq!(
            s.disk_hits, 2,
            "block 2's repeat accesses hit the disk tier"
        );
        assert!(
            cache.contains(&key(2)),
            "bypassed block still resident on disk"
        );
        assert_eq!(cache.disk_keys(), vec![key(2)]);
        assert_eq!(
            (s.evictions, s.spills, s.clean_evictions),
            (1, 1, 0),
            "one eviction, one write; a declined promote touches nothing"
        );
        assert_eq!(cache.disk_bytes_used(), 100);
        assert_eq!(cache.slot_bytes(), (200, 100));
    }

    /// A two-tier cache (RAM = 2 blocks) over `dir`; no plan is set, so
    /// both tiers evict in recency order.
    fn two_tier_lru(dir: &TempDir, disk_bytes: u64) -> ShardCache {
        ShardCache::new(
            CacheConfig::default()
                .with_ram_bytes(200)
                .with_disk_bytes(disk_bytes)
                .with_spill_dir(dir.path().to_path_buf()),
        )
        .unwrap()
    }

    fn spill_path(dir: &TempDir, i: usize) -> PathBuf {
        dir.path().join(persist::spill_file_name(&key(i)))
    }

    /// Spill-file writes attempted so far (call after `flush_spills`).
    fn file_writes(cache: &ShardCache) -> u64 {
        let s = cache.stats().snapshot();
        s.spills + s.spill_failures
    }

    #[test]
    fn backed_eviction_is_a_slot_flip() {
        let dir = TempDir::new("cache-clean-evict");
        let cache = two_tier_lru(&dir, 1000);
        for i in 0..3 {
            cache.insert(key(i), block(i, 100)); // the third evicts 0 → disk
        }
        cache.flush_spills();
        // Promote 0 (evicts 1, a write), then 1 (evicts 2, a write): RAM
        // now holds 0 and 1, both over the spill file they came from.
        for i in [0, 1] {
            assert!(cache.get(&key(i)).is_some());
            cache.flush_spills();
        }
        assert_eq!(cache.ram_keys(), vec![key(0), key(1)]);
        assert_eq!(cache.disk_keys(), vec![key(2)]);
        assert_eq!(cache.disk_bytes_used(), 300, "backings count as held");
        let writes = file_writes(&cache);
        assert_eq!(writes, 3);
        let mtime = std::fs::metadata(spill_path(&dir, 0))
            .unwrap()
            .modified()
            .unwrap();

        // Promoting 2 evicts 0, the LRU resident: its file is already
        // there, so the eviction is a flip — nothing queued, nothing
        // written.
        assert!(cache.get(&key(2)).is_some());
        cache.flush_spills();
        let s = cache.stats().snapshot();
        assert_eq!(file_writes(&cache), writes, "no write for a backed victim");
        assert_eq!((s.evictions, s.spills, s.clean_evictions), (4, 3, 1));
        assert_eq!(cache.disk_keys(), vec![key(0)]);
        assert_eq!(
            std::fs::metadata(spill_path(&dir, 0))
                .unwrap()
                .modified()
                .unwrap(),
            mtime,
            "write-once: the spill file was not touched"
        );
        assert_eq!(cache.slot_bytes(), (200, 300));
        // And the flipped slot still serves the right bytes from disk.
        let data = cache.get(&key(0)).expect("disk hit");
        assert!(data.iter().all(|&b| b == 0));
        assert_eq!(cache.stats().snapshot().disk_hits, 4);
    }

    #[test]
    fn disk_victim_resident_in_ram_keeps_serving_and_loses_its_file() {
        // A disk tier of one block. Promoting 0 keeps its file; the
        // eviction the promote causes needs that room, and the tier gives
        // up the file that merely duplicates a RAM resident.
        let dir = TempDir::new("cache-dup-reclaim");
        let cache = two_tier_lru(&dir, 100);
        for i in 0..3 {
            cache.insert(key(i), block(i, 100));
        }
        cache.flush_spills();
        assert_eq!(cache.disk_keys(), vec![key(0)]);
        assert!(cache.get(&key(0)).is_some(), "promote; evicts 1");
        cache.flush_spills();

        assert_eq!(cache.ram_keys(), vec![key(0), key(2)]);
        assert_eq!(cache.disk_keys(), vec![key(1)]);
        assert!(!spill_path(&dir, 0).exists(), "the duplicate was reclaimed");
        assert!(spill_path(&dir, 1).exists());
        assert_eq!(cache.disk_bytes_used(), 100);
        assert_eq!(cache.slot_bytes(), (200, 100));
        let (data, from) = cache
            .get_or_fetch::<std::io::Error, Vec<u8>, _>(key(0), || {
                panic!("still RAM-resident, no fetch")
            })
            .unwrap();
        assert_eq!(from, Fetched::Ram);
        assert!(data.iter().all(|&b| b == 0));
        // Having lost its backing, 0's next eviction is a real write.
        let writes = file_writes(&cache);
        cache.insert(key(3), block(3, 100)); // evicts 2 (LRU), unbacked
        cache.insert(key(4), block(4, 100)); // evicts 0
        cache.flush_spills();
        assert_eq!(file_writes(&cache), writes + 2);
        assert_eq!(cache.stats().snapshot().clean_evictions, 0);
    }

    #[test]
    fn corrupt_file_on_promote_is_a_miss_with_exact_accounting() {
        let dir = TempDir::new("cache-corrupt-promote");
        let cache = two_tier_lru(&dir, 1000);
        for i in 0..4 {
            cache.insert(key(i), block(i, 100)); // 0 and 1 → disk
        }
        cache.flush_spills();
        assert_eq!(cache.disk_bytes_used(), 200);
        let path = spill_path(&dir, 0);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[17] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        assert_eq!(cache.get(&key(0)), None, "corrupt bytes are not served");
        let s = cache.stats().snapshot();
        assert_eq!((s.disk_hits, s.misses), (0, 1));
        assert!(!cache.contains(&key(0)));
        assert!(!path.exists(), "the corrupt file is retired");
        assert_eq!(cache.disk_bytes_used(), 100, "and leaves the accounting");
        assert_eq!(cache.slot_bytes(), (200, 100));
        // The same check guards the in-place read peers use.
        bytes = std::fs::read(spill_path(&dir, 1)).unwrap();
        bytes[0] ^= 1;
        std::fs::write(spill_path(&dir, 1), &bytes).unwrap();
        assert_eq!(cache.peek(&key(1)), None);
        // Storage still has the block.
        let (data, from) = cache
            .get_or_fetch::<std::io::Error, _, _>(key(0), || Ok(block(0, 100)))
            .unwrap();
        assert_eq!(from, Fetched::Storage);
        assert!(data.iter().all(|&b| b == 0));
    }

    #[test]
    fn each_block_is_written_at_most_once_when_the_disk_tier_fits() {
        // Five epochs over 8 blocks through a 3-block RAM tier, with a
        // disk tier that holds all 8. Epoch 1 writes each evicted block
        // once; after that every eviction finds its file already there.
        // No plan: every fetch is admitted (one the bypass declines
        // reaches neither tier and would be read from storage again).
        const KEYS: usize = 8;
        let payload = |i: usize| -> Vec<u8> { (0..100).map(|j| (i * 37 + j) as u8).collect() };
        let cache = ShardCache::new(
            CacheConfig::default()
                .with_ram_bytes(300)
                .with_disk_bytes(100 * KEYS as u64),
        )
        .unwrap();
        let mut fetches = 0;
        for i in (0..5 * KEYS).map(|n| (n * 3) % KEYS) {
            let (data, _) = cache
                .get_or_fetch::<std::io::Error, _, _>(key(i), || {
                    fetches += 1;
                    Ok(payload(i))
                })
                .unwrap();
            assert_eq!(&data[..], &payload(i)[..], "block {i}");
            cache.flush_spills();
        }
        let s = cache.stats().snapshot();
        assert_eq!(fetches, KEYS, "storage read once per block");
        assert_eq!(
            s.evictions,
            s.spills + s.clean_evictions + s.spill_failures,
            "every eviction accounted for: {s:?}"
        );
        assert!(s.spills <= KEYS as u64, "write-once: {s:?}");
        assert!(s.clean_evictions > 0, "{s:?}");
        assert_eq!(s.spill_failures, 0);
        assert_eq!(
            cache.slot_bytes(),
            (cache.ram_bytes_used(), cache.disk_bytes_used())
        );
    }

    #[test]
    fn out_of_order_access_consumes_one_position() {
        let cache = ram_only(1 << 20);
        // Two-epoch plan over two blocks: 0 1 0 1.
        cache.set_plan(vec![key(0), key(1), key(0), key(1)]);
        cache.insert(key(0), block(0, 10));
        cache.insert(key(1), block(1, 10));
        // Worker skew: block 1 (pos 1) is demanded before block 0 (pos 0).
        cache.get(&key(1)).unwrap();
        assert_eq!(cache.consumed(), 2);
        // The late access of block 0 consumes only its stale position 0 —
        // its epoch-2 position (pos 2) must survive, cursor must not leap.
        cache.get(&key(0)).unwrap();
        assert_eq!(cache.consumed(), 2, "cursor does not leap an epoch");
        // In-order resumption: epoch-2 accesses advance normally.
        cache.get(&key(0)).unwrap();
        assert_eq!(cache.consumed(), 3);
        cache.get(&key(1)).unwrap();
        assert_eq!(cache.consumed(), 4);
    }

    #[test]
    fn disk_spill_roundtrip() {
        let cache = ShardCache::new(
            CacheConfig::default()
                .with_ram_bytes(200)
                .with_disk_bytes(1000),
        )
        .unwrap();
        cache.insert(key(0), block(7, 100));
        cache.insert(key(1), block(8, 100));
        cache.insert(key(2), block(9, 100)); // evicts 0 → disk
        cache.flush_spills(); // let the writer thread land the transition
        assert_eq!(cache.stats().snapshot().spills, 1);
        assert_eq!(cache.disk_bytes_used(), 100);
        assert_eq!(cache.disk_keys(), vec![key(0)]);
        // Disk hit promotes back to RAM (evicting again).
        let data = cache.get(&key(0)).expect("disk hit");
        assert!(data.iter().all(|&b| b == 7));
        let s = cache.stats().snapshot();
        assert_eq!(s.disk_hits, 1);
        assert!(cache.contains(&key(0)));
    }

    #[test]
    fn a_stalled_writer_holds_at_most_one_ram_tier_of_evicted_bytes() {
        use emlio_util::fault::{site, FaultInjector, FaultPlan, FaultSpec};
        // RAM for two blocks over a disk tier for all of them, and a
        // writer that takes 100 ms per file: the evictor outruns it, and
        // waits once the blocks still `Spilling` are more than the RAM
        // tier — at most two blocks queued and the one being written.
        let dir = TempDir::new("cache-spill-backlog");
        let cache = ShardCache::new(
            CacheConfig::default()
                .with_ram_bytes(200)
                .with_disk_bytes(10_000)
                .with_spill_dir(dir.path().to_path_buf())
                .with_prefetch_depth(0),
        )
        .unwrap();
        cache.set_fault_injector(FaultInjector::new(FaultPlan::new(1).with_site(
            site::SPILL_WRITE,
            FaultSpec::latency(1.0, std::time::Duration::from_millis(100)),
        )));
        for i in 0..8 {
            cache.insert(key(i), block(i, 100));
        }
        cache.flush_spills();
        let s = cache.stats().snapshot();
        assert_eq!((s.evictions, s.spills), (6, 6), "{s:?}");
        assert!(s.spill_queue_peak <= 3, "{s:?}");
        assert!(s.spill_backpressure_waits > 0, "{s:?}");
        cache.check_books().unwrap();
    }

    #[test]
    fn single_flight_coalesces_fetches() {
        let cache = Arc::new(ram_only(1 << 20));
        let fetches = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = cache.clone();
            let fetches = fetches.clone();
            handles.push(std::thread::spawn(move || {
                let (data, _) = cache
                    .get_or_fetch::<std::io::Error, _, _>(key(0), || {
                        fetches.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        Ok(block(0, 64))
                    })
                    .unwrap();
                assert_eq!(data.len(), 64);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(fetches.load(Ordering::Relaxed), 1, "one storage read");
        let s = cache.stats().snapshot();
        assert_eq!(s.hits + s.misses, 8);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn fetch_error_propagates_and_clears_flight() {
        let cache = ram_only(1024);
        let err = cache
            .get_or_fetch::<String, _, _>(key(0), || Err::<Vec<u8>, _>("boom".to_string()))
            .unwrap_err();
        assert_eq!(err, "boom");
        // The key is fetchable again afterwards.
        let (data, _) = cache
            .get_or_fetch::<String, _, _>(key(0), || Ok(block(0, 10)))
            .unwrap();
        assert_eq!(data.len(), 10);
    }

    #[test]
    fn oversized_block_passes_through_uncached() {
        let cache = ram_only(100);
        cache.insert(key(0), block(0, 1000));
        assert!(!cache.contains(&key(0)));
        assert_eq!(cache.ram_bytes_used(), 0);
    }

    #[test]
    fn persistent_tier_survives_restart() {
        let dir = TempDir::new("cache-persist");
        let config = CacheConfig::default()
            .with_ram_bytes(200)
            .with_disk_bytes(2000)
            .with_persist_dir(dir.path().to_path_buf());
        {
            let cache = ShardCache::new(config.clone()).unwrap();
            for i in 0..4 {
                cache.insert(key(i), block(i, 100));
            }
            cache.flush_spills();
            // 0 and 1 spilled to disk; 2 and 3 still in RAM.
            assert_eq!(cache.disk_keys(), vec![key(0), key(1)]);
            assert_eq!(cache.persist_now().unwrap(), 4, "the RAM tier too");
            assert_tier_is_the_directory(&cache, &dir);
            assert_eq!(cache.slot_bytes(), (200, 400), "as backings");
        }
        // Restart: all four blocks re-validate and re-admit to disk, and
        // demand reads are served without any storage fetch.
        let cache = ShardCache::new(config).unwrap();
        let s = cache.stats().snapshot();
        assert_eq!(s.readmitted, 4);
        assert_eq!(cache.disk_keys(), (0..4).map(key).collect::<Vec<_>>());
        for i in 0..4 {
            let (data, from) = cache
                .get_or_fetch::<std::io::Error, Vec<u8>, _>(key(i), || {
                    panic!("storage fetch despite persisted block")
                })
                .unwrap();
            assert_eq!(from, Fetched::Disk);
            assert!(data.iter().all(|&b| b == i as u8));
        }
        assert_eq!(cache.stats().snapshot().disk_hits, 4);
    }

    #[test]
    fn corrupt_spill_file_rejected_on_restart() {
        let dir = TempDir::new("cache-persist-corrupt");
        let config = CacheConfig::default()
            .with_ram_bytes(200)
            .with_disk_bytes(2000)
            .with_persist_dir(dir.path().to_path_buf());
        {
            let cache = ShardCache::new(config.clone()).unwrap();
            for i in 0..4 {
                cache.insert(key(i), block(i, 100));
            }
            cache.persist_now().unwrap();
        }
        let path = dir.path().join(persist::spill_file_name(&key(2)));
        assert!(path.exists(), "persist keeps spill files");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let cache = ShardCache::new(config).unwrap();
        let s = cache.stats().snapshot();
        assert_eq!(s.readmitted, 3, "corrupt block skipped");
        assert!(!cache.contains(&key(2)));
        assert!(!path.exists(), "corrupt spill file removed");
    }

    /// The `block-*.blk` file names in `dir`, sorted.
    fn blk_files(dir: &TempDir) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.ends_with(".blk"))
            .collect();
        names.sort();
        names
    }

    /// What the side table needed arithmetic for: the tier's accounting is
    /// the bytes of the `block-*.blk` files in `dir`, inside its bound.
    fn assert_tier_is_the_directory(cache: &ShardCache, dir: &TempDir) {
        let on_disk: u64 = blk_files(dir)
            .iter()
            .map(|n| std::fs::metadata(dir.path().join(n)).unwrap().len())
            .sum();
        assert_eq!(cache.disk_bytes_used(), on_disk);
        assert!(on_disk <= cache.config().disk_bytes);
    }

    /// The spill-index entries of `dir` as file names, sorted.
    fn indexed_files(dir: &TempDir) -> Vec<String> {
        let mut listed: Vec<String> = persist::read_index(dir.path())
            .unwrap()
            .expect("index written")
            .iter()
            .map(|e| persist::spill_file_name(&e.key))
            .collect();
        listed.sort();
        listed
    }

    #[test]
    fn checkpoint_writes_go_through_the_spill_writer() {
        use emlio_util::fault::{site, FaultInjector, FaultPlan, FaultSpec};
        for rate in [1.0, 0.0] {
            let dir = TempDir::new("cache-checkpoint-writer");
            let cache = ShardCache::new(
                CacheConfig::default()
                    .with_ram_bytes(200)
                    .with_disk_bytes(2000)
                    .with_persist_dir(dir.path().to_path_buf()),
            )
            .unwrap();
            let recorder = StageRecorder::shared();
            cache.set_recorder(recorder.clone());
            for i in 0..3 {
                cache.insert(key(i), block(i, 100)); // 0 spills; 1, 2 resident
            }
            cache.flush_spills();
            assert_eq!(file_writes(&cache), 1);
            cache.set_fault_injector(FaultInjector::new(
                FaultPlan::new(7).with_site(site::SPILL_WRITE, FaultSpec::errors(rate)),
            ));
            let covered = cache.persist_now().unwrap();
            let s = cache.stats().snapshot();
            assert_eq!(
                recorder.hist(Stage::SpillWrite).count(),
                3,
                "one spill_write sample per write attempt, checkpoints included"
            );
            assert_eq!(cache.ram_keys(), vec![key(1), key(2)], "still resident");
            if rate == 1.0 {
                // The failpoint faults checkpoint writes too: counted, the
                // residents stay unbacked, the index lists what exists.
                assert_eq!((s.spills, s.spill_failures), (1, 2));
                assert_eq!(covered, 1);
                assert_eq!(cache.slot_bytes(), (200, 100));
            } else {
                assert_eq!((s.spills, s.spill_failures), (3, 0));
                assert_eq!(covered, 3);
                assert_eq!(cache.slot_bytes(), (200, 300), "Ram → Ram+file");
                // Backed by the checkpoint, a resident's eviction is a slot flip.
                cache.insert(key(3), block(3, 100));
                cache.flush_spills();
                assert_eq!(cache.stats().snapshot().clean_evictions, 1);
                assert_eq!(file_writes(&cache), 3);
            }
            assert_eq!(indexed_files(&dir), blk_files(&dir));
            assert_eq!(covered as usize, blk_files(&dir).len());
            assert_tier_is_the_directory(&cache, &dir);
        }
    }

    #[test]
    fn checkpoints_of_shifting_working_sets_stay_inside_the_disk_tier() {
        // RAM holds two blocks, the disk tier four, and the working set
        // moves on by one block per round: a checkpoint backs a resident
        // only out of spare capacity — it never costs another block its
        // file — and what the tier accounts is what the directory holds.
        let dir = TempDir::new("cache-checkpoint-shift");
        let cache = ShardCache::new(
            CacheConfig::default()
                .with_ram_bytes(200)
                .with_disk_bytes(400)
                .with_persist_dir(dir.path().to_path_buf()),
        )
        .unwrap();
        for round in 0..8 {
            cache.insert(key(round), block(round, 100));
            cache.flush_spills();
            let held = blk_files(&dir);
            let covered = cache.persist_now().unwrap();
            assert_tier_is_the_directory(&cache, &dir);
            assert_eq!(indexed_files(&dir), blk_files(&dir), "round {round}");
            assert_eq!(covered as usize, blk_files(&dir).len());
            for name in &held {
                assert!(
                    blk_files(&dir).contains(name),
                    "{name} lost to a checkpoint"
                );
            }
            assert_eq!(
                cache.slot_bytes(),
                (cache.ram_bytes_used(), cache.disk_bytes_used())
            );
        }
        assert_eq!(cache.disk_bytes_used(), 400, "the tier filled up");
    }

    #[test]
    fn backed_residents_are_indexed_from_their_existing_file() {
        let dir = TempDir::new("cache-persist-backed");
        let config = CacheConfig::default()
            .with_ram_bytes(200)
            .with_disk_bytes(2000)
            .with_persist_dir(dir.path().to_path_buf());
        for checkpoint in [false, true] {
            let expect: usize = {
                let cache = ShardCache::new(config.clone()).unwrap();
                // First pass: 0 and 1 spill. Second pass (after the
                // restart): everything is re-admitted to disk already.
                for i in 0..4 {
                    cache
                        .get_or_fetch::<std::io::Error, _, _>(key(i), || Ok(block(i, 100)))
                        .unwrap();
                }
                cache.flush_spills();
                // Promote 0: a RAM resident over its old file.
                assert!(cache.get(&key(0)).is_some());
                cache.flush_spills();
                assert!(cache.ram_keys().contains(&key(0)));
                assert!(!cache.disk_keys().contains(&key(0)));
                if checkpoint {
                    let path = dir.path().join(persist::spill_file_name(&key(0)));
                    let mtime = std::fs::metadata(&path).unwrap().modified().unwrap();
                    assert_eq!(cache.persist_now().unwrap(), 4, "all four covered");
                    assert_eq!(
                        std::fs::metadata(&path).unwrap().modified().unwrap(),
                        mtime,
                        "a backed resident is listed, not rewritten"
                    );
                    assert_tier_is_the_directory(&cache, &dir);
                    4
                } else {
                    // Without a checkpoint the unbacked resident (3) has
                    // no file and is not indexed; the backed one is.
                    3
                }
            };
            // After the drop: the index lists exactly the files present.
            let listed = indexed_files(&dir);
            assert_eq!(listed, blk_files(&dir), "checkpoint={checkpoint}");
            assert_eq!(listed.len(), expect, "checkpoint={checkpoint}");
            assert!(listed.contains(&persist::spill_file_name(&key(0))));
            // And a restart re-admits every one of them, CRC-valid.
            let cache = ShardCache::new(config.clone()).unwrap();
            assert_eq!(cache.stats().snapshot().readmitted, expect as u64);
            for name in &listed {
                let i = (0..4)
                    .find(|&i| persist::spill_file_name(&key(i)) == *name)
                    .unwrap();
                let data = cache.peek(&key(i)).expect("valid on disk");
                assert!(data.iter().all(|&b| b == i as u8));
            }
        }
    }

    #[test]
    fn persist_requires_disk_tier() {
        let err = ShardCache::new(
            CacheConfig::default().with_persist_dir(std::env::temp_dir().join("emlio-nope")),
        );
        assert!(err.is_err());
    }

    #[test]
    fn reservations_slide_with_the_cursor_inside_the_ram_budget() {
        // Four 100-byte blocks fit; the plan walks 8 keys twice.
        let cache = ram_only(400);
        let seq: Vec<BlockKey> = (0..16).map(|i| key(i % 8)).collect();
        cache.set_plan(seq.clone());
        let stop = AtomicBool::new(false);
        let reserve = |pos: usize| cache.reserve_prefetch(pos as u64, &seq[pos], 100, &stop);
        let read = |pos: usize| match reserve(pos) {
            Issue::Read(reservation) => Some(reservation),
            _ => panic!("position {pos} should be staged"),
        };
        let fits = |pos: u64| cache.state.lock().may_stage(pos, 100, 400);

        // The whole budget goes out as reads in flight …
        let mut held: Vec<_> = (0..4).map(read).collect();
        assert_eq!(cache.ram_budget(), (0, 400));
        assert!(!fits(4), "a fifth read has to wait");
        // … which land out of order, each in its own reservation:
        // a landing moves bytes from reserved to resident, frees none.
        for i in [2, 3, 0, 1] {
            held[i].take().unwrap().fill(|| Some(block(i, 100).into()));
            let (used, reserved) = cache.ram_budget();
            assert_eq!(used + reserved, 400);
            assert!(!fits(4), "still four blocks needed before 4");
        }
        assert!(matches!(reserve(1), Issue::Skip), "resident");

        // The cursor releases block 0: position 4 is staged in its place.
        assert!(cache.get(&key(0)).is_some());
        assert!(fits(4));
        let r4 = read(4);
        assert!(!fits(5), "one slot came free, not two");
        assert_eq!(cache.ram_keys(), vec![key(1), key(2), key(3)]);
        assert_eq!(cache.ram_budget(), (300, 100));
        assert!(matches!(reserve(0), Issue::Skip), "demand got there first");

        // A read that fails gives its room and its slot back.
        drop(r4);
        assert_eq!(cache.ram_budget(), (300, 0));
        assert!(!cache.contains(&key(4)));
        read(4).unwrap().fill(|| Some(block(4, 100).into()));
        assert_eq!(cache.ram_budget(), (400, 0));

        // Parked with no room, the issue step leaves on the stop flag.
        stop.store(true, Ordering::SeqCst);
        assert!(matches!(reserve(5), Issue::Stop));
        let s = cache.stats().snapshot();
        assert_eq!((s.prefetched, s.prefetch_wasted, s.misses), (5, 0, 0));
    }

    /// Four 100-byte blocks saved by a checkpoint in `dir`'s persistent tier,
    /// reopened with RAM for two and a half: everything starts disk-only.
    fn restarted_disk_only(dir: &TempDir) -> ShardCache {
        let config = CacheConfig::default()
            .with_ram_bytes(250)
            .with_disk_bytes(2000)
            .with_persist_dir(dir.path().to_path_buf());
        {
            let cache = ShardCache::new(config.clone()).unwrap();
            for i in 0..4 {
                cache.insert(key(i), block(i, 100));
            }
            cache.persist_now().unwrap();
        }
        let cache = ShardCache::new(config).unwrap();
        assert_eq!(cache.stats().snapshot().readmitted, 4);
        assert_eq!(cache.disk_keys(), (0..4).map(key).collect::<Vec<_>>());
        cache
    }

    fn staged<'a>(cache: &'a ShardCache, pos: u64, key: &BlockKey) -> Reservation<'a> {
        match cache.reserve_prefetch(pos, key, 0, &AtomicBool::new(false)) {
            Issue::Read(reservation) => reservation,
            _ => panic!("position {pos} should be staged"),
        }
    }

    #[test]
    fn executor_stages_disk_blocks_in_plan_order_into_free_ram() {
        let dir = TempDir::new("cache-stage-disk");
        let cache = restarted_disk_only(&dir);
        let recorder = StageRecorder::shared();
        cache.set_recorder(recorder.clone());
        // The plan needs 3 first, then 1: exactly those two are staged
        // (plan order, not key order), each from its spill file — the
        // length comes from the disk tier, storage is never asked — and
        // the third is skipped, not waited for: staging from disk takes
        // free room only, nothing is evicted for it.
        let plan = vec![key(3), key(1), key(0), key(2)];
        cache.set_plan(plan.clone());
        for pos in 0..2 {
            let reservation = staged(&cache, pos, &plan[pos as usize]);
            assert_eq!(cache.ram_budget().1, 100, "reserved by the file's length");
            assert!(!cache.contains(&plan[pos as usize]), "claimed: Busy");
            reservation.fill(|| panic!("a disk-resident block is not read from storage"));
        }
        let stop = AtomicBool::new(false);
        assert!(matches!(
            cache.reserve_prefetch(2, &key(0), 0, &stop),
            Issue::Skip
        ));
        let s = cache.stats().snapshot();
        assert_eq!(
            (s.prefetched, s.warm_promoted, s.prefetch_wasted),
            (2, 2, 0)
        );
        assert_eq!(recorder.hist(Stage::WarmPromote).count(), 2);
        assert_eq!(s.evictions, 0);
        assert_eq!(cache.ram_keys(), vec![key(1), key(3)]);
        assert_eq!(cache.disk_keys(), vec![key(0), key(2)]);
        // Staging is not a demand access, and the staged blocks keep
        // their backing: the tier still holds all four files.
        assert_eq!((s.hits, s.disk_hits, s.misses), (0, 0, 0));
        assert_eq!(cache.disk_bytes_used(), 400);
        assert_eq!(cache.slot_bytes(), (200, 400));
        // They now serve from RAM without any storage read; the skipped
        // one is a demand promote.
        for (i, staged) in [(3, Fetched::Ram), (1, Fetched::Ram), (0, Fetched::Disk)] {
            let (data, from) = cache
                .get_or_fetch::<std::io::Error, Vec<u8>, _>(key(i), || {
                    panic!("no block of a persisted tier is fetched")
                })
                .unwrap();
            assert_eq!(from, staged, "block {i}");
            assert!(data.iter().all(|&b| b == i as u8));
        }
        let s = cache.stats().snapshot();
        assert_eq!((s.hits, s.disk_hits, s.warm_promoted), (3, 1, 2));
    }

    #[test]
    fn unread_or_invalid_staging_claim_leaves_the_disk_tier_consistent() {
        let dir = TempDir::new("cache-stage-unread");
        let cache = restarted_disk_only(&dir);
        cache.set_plan((0..4).map(key).collect());
        // A reservation dropped unread gives the room back and puts the
        // slot back to disk-only, file and accounting untouched.
        drop(staged(&cache, 0, &key(0)));
        assert_eq!(cache.ram_budget(), (0, 0));
        assert_eq!(cache.disk_keys(), (0..4).map(key).collect::<Vec<_>>());
        assert_eq!(cache.disk_bytes_used(), 400);
        // A spill file that fails validation is retired, as on a demand
        // promote, and the block degrades to absent: a later miss.
        let path = spill_path(&dir, 1);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[5] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        staged(&cache, 1, &key(1)).fill(|| panic!("on disk"));
        assert!(!cache.contains(&key(1)));
        assert!(!path.exists(), "the corrupt file is retired");
        assert_eq!(cache.ram_budget(), (0, 0));
        assert_eq!(cache.disk_bytes_used(), 300);
        assert_eq!(cache.slot_bytes(), (0, 300));
        let s = cache.stats().snapshot();
        assert_eq!((s.prefetched, s.warm_promoted, s.misses), (0, 0, 0));
        // The next walk stages it from storage like any absent block.
        staged(&cache, 1, &key(1)).fill(|| Some(block(1, 100).into()));
        assert_eq!(cache.ram_keys(), vec![key(1)]);
        assert_eq!(cache.slot_bytes(), (100, 300));
    }
}

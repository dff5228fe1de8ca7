//! The two-tier, plan-aware shard block cache.
//!
//! # One lock
//!
//! The cache's unit of traffic is a batch — one block per demand access,
//! a few thousand a second at most — so its whole mutable state lives
//! under **one mutex** (`State`): the residency map (`BlockKey → Slot`),
//! the byte accounting, the plan cursor, one incrementally-maintained
//! eviction order per tier (a lazy next-use max-heap — see
//! [`crate::order`]) and the spill writer's queue of keys. Every method
//! here runs the same four steps: **lock → call → unlock → perform**. It
//! locks, calls the one `State` transition for its event (`state.rs`
//! holds them all, with the transition table and its invariants), checks
//! the books (`State::check`, in debug builds) and unlocks; then it
//! performs the effect the transition returned — storage fetches,
//! spill-file reads ([`persist::read_validated`]), writes and deletes, the
//! counts, and the wake-ups of the condvars the transition named, which
//! only `CacheCore::perform` notifies. A thread that must wait does so
//! under the lock, before its call, looping on a `State` query: on
//! `landed` while its block is in flight, on `room` while the issue step
//! says wait or a fleet member's claim is ahead of the fleet's floor, on
//! `spill` while the `Spilling` backlog exceeds the RAM tier,
//! while the writer has no order, or while a flush has orders to wait for.
//! So everything slow runs outside the lock, no function takes the lock
//! while holding it, and a wake-up is lost only if a transition leaves a
//! condvar out of its set — which the lifecycle explorer checks for.
//!
//! The one thing that outlives a critical section is a transitional slot
//! owned by the thread doing the I/O: `Busy` (storage fetch, promote or
//! staging read in flight) or `Spilling` (write queued). Concurrent readers
//! hit the still-resident bytes or wait on `landed`, and the owner looks
//! at the slot once more in the transition that lands it — a `Busy` slot
//! whose file the disk tier reclaimed under the read lands the block
//! unbacked, or absent, there and then.

mod demand;
mod stage;
mod state;
mod writer;

// The seam modules share this import block through `use super::*`.
use crate::order::NextUseHeap;
use crate::peer::{Enrollment, FleetRegistry};
use crate::persist;
use crate::prefetch::MAX_IN_FLIGHT;
use crate::stats::{CacheStats, CacheStatsSnapshot};
use bytes::Bytes;
use emlio_obs::{obs_warn, Stage, StageRecorder};
use emlio_tfrecord::BlockKey;
use parking_lot::{Condvar, Mutex, MutexGuard};
pub(crate) use stage::{Issue, Reservation};
use state::{Claim, DiskMeta, Effect, Peeked, Served, Slot, Spill, State, Step};
use state::{Wake, LANDED, ROOM, SPILL};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use writer::readmit_dir;

/// Cache sizing and behaviour knobs.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// RAM tier capacity in bytes (must be positive).
    pub ram_bytes: u64,
    /// Disk spill tier capacity in bytes (0 disables the tier).
    pub disk_bytes: u64,
    /// Keep the disk spill tier across restarts in this directory: the
    /// spill files survive the cache, and a fresh cache over the same
    /// directory re-admits the valid ones. `None`: the tier spills to a
    /// per-cache directory under the system temp dir, removed when the
    /// cache drops. Set via [`CacheConfig::with_persist_dir`]; requires a
    /// disk tier.
    pub persist_dir: Option<PathBuf>,
    /// Read by nothing here: a cache with a plan always prefetches along
    /// it, as far ahead as `ram_bytes` allows (see [`crate::prefetch`]).
    /// Kept, always 1, with its no-op setter only because the frozen
    /// `benchmark/src/sut.rs` names both; the next change to the benchmark
    /// deletes them.
    #[doc(hidden)]
    pub prefetch_depth: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            ram_bytes: 256 << 20,
            disk_bytes: 0,
            persist_dir: None,
            prefetch_depth: 1,
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

    /// Make the disk spill tier persistent in `dir`: its spill files,
    /// each named for its block and carrying its own checksum, survive
    /// drops, and a fresh cache over the same `dir` re-validates and
    /// re-admits them. Implies a disk tier (the capacity must still be set
    /// positive via [`CacheConfig::with_disk_bytes`]).
    pub fn with_persist_dir(mut self, dir: PathBuf) -> Self {
        self.persist_dir = Some(dir);
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

    /// A no-op, kept beside the hidden field above for the same reason.
    #[doc(hidden)]
    pub fn with_prefetch_depth(self, _depth: usize) -> Self {
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
    /// Single-flight waiters sleep here while their block is `Busy`; the
    /// transitions whose wake set names it are in `state.rs`'s module docs
    /// (a settle).
    landed: Condvar,
    /// The prefetch executor sleeps here while its issue step says wait,
    /// and a fleet member's demand access while it is ahead of the floor;
    /// named by the transitions that may change that (a demand access, a
    /// reservation's end, a stop, the floor's rise or stall).
    room: Condvar,
    /// The writer sleeps here for an order, an evictor while the backlog
    /// is over the RAM tier, a flush till the queue is written; named by
    /// the transitions that queue, land, drain or shut the queue down.
    spill: Condvar,
    stats: CacheStats,
    /// Where spill files go; `Some` exactly when there is a disk tier,
    /// and with it a spill writer. The cache's own, removed at drop,
    /// unless it is the config's `persist_dir`.
    spill_dir: Option<PathBuf>,
    /// Stage recorder for `SpillWrite`/`WarmPromote` timings (set once by
    /// the daemon after construction).
    recorder: OnceLock<Arc<StageRecorder>>,
    /// Seeded chaos hook, consulted at `spill.write` before each
    /// spill-file write (set once, like the recorder).
    injector: OnceLock<Arc<emlio_util::fault::FaultInjector>>,
    /// The fleet this cache is a member of, and its id there (set once,
    /// by [`FleetRegistry::attach`]).
    fleet: OnceLock<(Arc<FleetRegistry>, String)>,
}

static SPILL_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

impl CacheCore {
    /// Build the core. Creates the spill directory when a disk tier is
    /// configured; when the directory is persistent, a previous writer's
    /// half-written `*.blk.tmp` files are deleted and the valid spill files
    /// a previous run left are re-admitted into the disk tier, the rest
    /// deleted.
    fn new(config: CacheConfig) -> io::Result<CacheCore> {
        assert!(config.ram_bytes > 0, "cache RAM capacity must be positive");
        if config.persist_dir.is_some() && config.disk_bytes == 0 {
            return Err(io::Error::other(
                "persistent cache requires a disk tier (set disk_bytes > 0)",
            ));
        }
        let spill_dir = (config.disk_bytes > 0).then(|| {
            config.persist_dir.clone().unwrap_or_else(|| {
                std::env::temp_dir().join(format!(
                    "emlio-cache-{}-{}",
                    std::process::id(),
                    SPILL_DIR_SEQ.fetch_add(1, Ordering::Relaxed),
                ))
            })
        });
        if let Some(dir) = &spill_dir {
            std::fs::create_dir_all(dir)?;
        }
        let mut state = State::new(&config);
        let stats = CacheStats::default();
        if let Some(dir) = &config.persist_dir {
            let readmitted = readmit_dir(dir, &mut state);
            stats.readmitted.store(readmitted, Ordering::Relaxed);
        }
        state.check();
        Ok(CacheCore {
            state: Mutex::new(state),
            landed: Condvar::new(),
            room: Condvar::new(),
            spill: Condvar::new(),
            stats,
            spill_dir,
            recorder: OnceLock::new(),
            injector: OnceLock::new(),
            fleet: OnceLock::new(),
            config,
        })
    }

    /// Lock, make one transition, check the books, unlock: the caller
    /// performs what it returns.
    fn locked<R>(&self, transition: impl FnOnce(&mut State) -> R) -> R {
        let mut st = self.state.lock();
        let effect = transition(&mut st);
        st.check();
        effect
    }

    /// Perform an [`Effect`], lock released: add its eviction counts, hand
    /// a cursor it moved to the fleet's registry (which moves every
    /// member's floor through [`CacheCore::set_floor`]), wake the condvars
    /// its transition named — the cache's only `notify_*` calls — and,
    /// when it queued spill orders, record the queue's depth, then wait
    /// while the `Spilling` backlog is more than the RAM tier. So at most
    /// `ram_bytes` of evicted blocks, plus the victims of the evictors
    /// parked here, wait for the disk — whatever their number or size.
    fn perform(&self, effect: Effect) {
        let (stats, relaxed) = (&self.stats, Ordering::Relaxed);
        if effect.evictions > 0 {
            stats.evictions.fetch_add(effect.evictions, relaxed);
            (stats.clean_evictions).fetch_add(effect.clean_evictions, relaxed);
        }
        if let (Some(cursor), Some((registry, id))) = (effect.cursor, self.fleet.get()) {
            registry.advance(id, cursor);
        }
        for (bit, condvar) in [
            (LANDED, &self.landed),
            (ROOM, &self.room),
            (SPILL, &self.spill),
        ] {
            if effect.wake & bit != 0 {
                condvar.notify_all();
            }
        }
        if effect.queued == 0 {
            return;
        }
        stats.spill_queue_peak.fetch_max(effect.queued, relaxed);
        let mut st = self.state.lock();
        if st.backlogged() {
            (stats.spill_backpressure_waits).fetch_add(1, Ordering::Relaxed);
            while st.backlogged() {
                self.spill.wait(&mut st);
            }
        }
    }

    /// The configuration the cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Telemetry counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The counters' values with the two gauges filled in: the spill
    /// queue's depth and the RAM bytes reserved for prefetch reads.
    pub fn snapshot(&self) -> CacheStatsSnapshot {
        CacheStatsSnapshot {
            spill_queue_depth: self.spill_queue_depth(),
            ram_reserved: self.ram_budget().1,
            ..self.stats.snapshot()
        }
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
    ///
    /// # Panics
    ///
    /// Where [`CacheCore::try_set_plan`] fails.
    pub fn set_plan(&self, seq: Vec<BlockKey>) {
        if let Err(why) = self.try_set_plan(seq) {
            panic!("{why}");
        }
    }

    /// [`CacheCore::set_plan`]. A fleet member's plan must be the one every
    /// other live member serves — their cursors are positions in it, and
    /// the floor is the least of them — and it fails, installing nothing,
    /// when another member still serves a different plan. Installed, it
    /// stages only the blocks this member owns, and its demand accesses
    /// walk the plan in lockstep with the other members' (see
    /// [`FleetRegistry`]).
    pub fn try_set_plan(&self, seq: Vec<BlockKey>) -> Result<(), String> {
        let fleet = match self.fleet.get() {
            None => None,
            Some((registry, id)) => Some(registry.enroll(id, &seq)?),
        };
        self.locked(|st| st.set_plan(seq, fleet));
        Ok(())
    }

    /// Make this cache fleet member `id` of `registry` (first call wins),
    /// from its next plan on.
    pub(crate) fn join_fleet(&self, registry: Arc<FleetRegistry>, id: &str) {
        let _ = self.fleet.set((registry, id.to_string()));
    }

    /// Take the fleet's new floor from the registry ([`State::set_floor`]).
    pub(crate) fn set_floor(&self, floor: u64) {
        self.perform(self.locked(|st| st.set_floor(floor)));
    }

    /// The installed plan sequence (empty when none was set).
    pub(crate) fn plan(&self) -> Arc<Vec<BlockKey>> {
        self.state.lock().seq.clone()
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
        let evictions_ended = c.disk_bytes == 0
            || s.evictions == ended
            || (c.persist_dir.is_some() && s.evictions < ended);
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

    /// Spill orders queued or in flight right now (gauge).
    pub fn spill_queue_depth(&self) -> u64 {
        let st = self.state.lock();
        st.spill_orders.len() as u64 + u64::from(st.writing)
    }
}

impl Drop for CacheCore {
    fn drop(&mut self) {
        // A member whose cache is gone leaves the floor.
        if let Some((registry, _)) = self.fleet.get() {
            registry.refloor();
        }
        // A persistent tier's files are the next run's.
        if self.config.persist_dir.is_some() {
            return;
        }
        for meta in self.state.get_mut().slots.values().filter_map(Slot::file) {
            let _ = std::fs::remove_file(&meta.path);
        }
        if let Some(dir) = &self.spill_dir {
            let _ = std::fs::remove_dir(dir);
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
/// writer, and only then runs the core's drop — so every order queued
/// lands as a file, which a persistent cache's next run re-admits.
pub struct ShardCache {
    core: Arc<CacheCore>,
    /// The spill writer thread; `None` without a disk tier.
    writer: Option<JoinHandle<()>>,
}

impl ShardCache {
    /// Create a cache. Creates the spill directory when a disk tier is
    /// configured; when the directory is persistent, the valid spill files
    /// a previous run left there are re-admitted into the disk tier. A
    /// disk tier also gets its spill writer thread.
    pub fn new(config: CacheConfig) -> io::Result<ShardCache> {
        let core = Arc::new(CacheCore::new(config)?);
        let writer = if core.spill_dir.is_some() {
            let core = core.clone();
            let run = move || {
                while let Some(spill) = core.next_spill() {
                    core.finish_spill(spill);
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
            self.core.perform(self.core.locked(State::shut_down));
            // The writer drains every queued order before exiting, so the
            // core's Drop (keep or clean up) sees a complete tier.
            let _ = writer.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::stage::Reservation;
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

    /// A demand access that storage cannot serve: the cached bytes, or
    /// `None` for a miss (counted, like every miss).
    fn demand(cache: &CacheCore, k: BlockKey) -> Option<Bytes> {
        let fetch = || Err::<Bytes, ()>(());
        cache.get_or_fetch(k, fetch).ok().map(|(data, _)| data)
    }

    #[test]
    fn hit_after_insert_and_counters() {
        let cache = ram_only(1024);
        assert!(demand(&cache, key(0)).is_none());
        cache.insert(key(0), block(0, 100));
        let data = demand(&cache, key(0)).expect("hit");
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
        demand(&cache, key(0)).unwrap();
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
                .with_persist_dir(dir.path().to_path_buf()),
        )
        .unwrap()
    }

    /// The path of block `i`'s spill file, `block(i, 100)` being its bytes.
    fn spill_path(dir: &TempDir, i: usize) -> PathBuf {
        let crc = persist::block_crc(&key(i), &block(i, 100));
        dir.path().join(persist::spill_file_name(&key(i), crc))
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
            assert!(demand(&cache, key(i)).is_some());
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
        assert!(demand(&cache, key(2)).is_some());
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
        let data = demand(&cache, key(0)).expect("disk hit");
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
        assert!(demand(&cache, key(0)).is_some(), "promote; evicts 1");
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

        assert_eq!(demand(&cache, key(0)), None, "corrupt bytes are not served");
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
        demand(&cache, key(1)).unwrap();
        assert_eq!(cache.state.lock().cursor, 2);
        // The late access of block 0 consumes only its stale position 0 —
        // its epoch-2 position (pos 2) must survive, cursor must not leap.
        demand(&cache, key(0)).unwrap();
        assert_eq!(
            cache.state.lock().cursor,
            2,
            "cursor does not leap an epoch"
        );
        // In-order resumption: epoch-2 accesses advance normally.
        demand(&cache, key(0)).unwrap();
        assert_eq!(cache.state.lock().cursor, 3);
        demand(&cache, key(1)).unwrap();
        assert_eq!(cache.state.lock().cursor, 4);
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
        let data = demand(&cache, key(0)).expect("disk hit");
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
                .with_persist_dir(dir.path().to_path_buf()),
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
            assert_eq!(cache.persist_now(), 4, "the RAM tier too");
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
            cache.persist_now();
        }
        let path = spill_path(&dir, 2);
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

    /// The names of the spill files the cache's slots own, sorted.
    fn owned_files(cache: &ShardCache) -> Vec<String> {
        let st = cache.state.lock();
        let mut owned: Vec<String> = (st.slots.values().filter_map(Slot::file))
            .map(|meta| meta.path.file_name().unwrap().to_str().unwrap().into())
            .collect();
        owned.sort();
        owned
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
            let covered = cache.persist_now();
            let s = cache.stats().snapshot();
            assert_eq!(
                recorder.hist(Stage::SpillWrite).count(),
                3,
                "one spill_write sample per write attempt, checkpoints included"
            );
            assert_eq!(cache.ram_keys(), vec![key(1), key(2)], "still resident");
            if rate == 1.0 {
                // The failpoint faults checkpoint writes too: counted, the
                // residents stay unbacked, the count is what exists.
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
            assert_eq!(owned_files(&cache), blk_files(&dir));
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
            let covered = cache.persist_now();
            assert_tier_is_the_directory(&cache, &dir);
            assert_eq!(owned_files(&cache), blk_files(&dir), "round {round}");
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

    /// The directory is the tier's index: a backed resident is listed by
    /// the file it already has, across a checkpoint and a restart.
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
                assert!(demand(&cache, key(0)).is_some());
                cache.flush_spills();
                assert!(cache.ram_keys().contains(&key(0)));
                assert!(!cache.disk_keys().contains(&key(0)));
                if checkpoint {
                    let path = spill_path(&dir, 0);
                    let mtime = std::fs::metadata(&path).unwrap().modified().unwrap();
                    assert_eq!(cache.persist_now(), 4, "all four covered");
                    assert_eq!(
                        std::fs::metadata(&path).unwrap().modified().unwrap(),
                        mtime,
                        "a backed resident is listed, not rewritten"
                    );
                    assert_tier_is_the_directory(&cache, &dir);
                    4
                } else {
                    // Without a checkpoint the unbacked resident (3) has
                    // no file; the backed one has.
                    3
                }
            };
            // After the drop the files stay, 0's among them …
            let listed = blk_files(&dir);
            assert_eq!(listed.len(), expect, "checkpoint={checkpoint}");
            assert!(spill_path(&dir, 0).exists());
            // … and a restart re-admits every one of them, CRC-valid.
            let cache = ShardCache::new(config.clone()).unwrap();
            assert_eq!(cache.stats().snapshot().readmitted, expect as u64);
            assert_eq!(owned_files(&cache), listed);
            for i in cache.disk_keys().iter().map(|k| k.start / 10) {
                let data = cache.peek(&key(i)).expect("valid on disk");
                assert!(data.iter().all(|&b| b == i as u8));
            }
        }
    }

    #[test]
    fn a_crash_leaves_no_file_the_restart_does_not_own() {
        // A checkpoint of four blocks, then two more spilled after it, and
        // no drop: the process dies with six files and no word of them.
        let dir = TempDir::new("cache-crash-orphans");
        let config = |disk_bytes| {
            CacheConfig::default()
                .with_ram_bytes(200)
                .with_disk_bytes(disk_bytes)
                .with_persist_dir(dir.path().to_path_buf())
        };
        let cache = ShardCache::new(config(2000)).unwrap();
        for i in 0..4 {
            cache.insert(key(i), block(i, 100)); // 0 and 1 spill
        }
        assert_eq!(cache.persist_now(), 4);
        for i in 4..8 {
            cache.insert(key(i), block(i, 100)); // 2, 3 flip; 4, 5 spill
        }
        cache.flush_spills();
        assert_eq!(blk_files(&dir).len(), 6);
        std::mem::forget(cache);

        let owned = |cache: &ShardCache| {
            assert_eq!(owned_files(cache), blk_files(&dir), "every file owned");
            assert!(cache.disk_bytes_used() <= cache.config().disk_bytes);
            cache.check_books().unwrap();
        };
        // The restart re-admits the files spilled after the checkpoint too.
        let restarted = ShardCache::new(config(2000)).unwrap();
        assert_eq!(restarted.stats().snapshot().readmitted, 6);
        assert_eq!(restarted.disk_keys(), (0..6).map(key).collect::<Vec<_>>());
        owned(&restarted);
        drop(restarted);
        // A smaller tier takes the first files in key order and deletes
        // the ones it has no room for.
        let smaller = ShardCache::new(config(450)).unwrap();
        assert_eq!(smaller.disk_keys(), (0..4).map(key).collect::<Vec<_>>());
        owned(&smaller);
        for i in 0..4 {
            assert_eq!(smaller.peek(&key(i)).unwrap(), block(i, 100));
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
        let reserve = |pos: usize| cache.reserve_prefetch(pos as u64, &seq[pos], 100);
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
        assert!(demand(&cache, key(0)).is_some());
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

        // Stopped, the issue step says so, room or none, till a new plan.
        cache.stop_prefetcher();
        assert!(matches!(reserve(5), Issue::Stop));
        assert!(matches!(reserve(0), Issue::Stop));
        cache.set_plan(seq.clone());
        assert!(matches!(reserve(1), Issue::Skip), "resident");
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
            cache.persist_now();
        }
        let cache = ShardCache::new(config).unwrap();
        assert_eq!(cache.stats().snapshot().readmitted, 4);
        assert_eq!(cache.disk_keys(), (0..4).map(key).collect::<Vec<_>>());
        cache
    }

    fn staged<'a>(cache: &'a ShardCache, pos: u64, key: &BlockKey) -> Reservation<'a> {
        match cache.reserve_prefetch(pos, key, 0) {
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
        assert!(matches!(cache.reserve_prefetch(2, &key(0), 0), Issue::Skip));
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
    fn a_block_staged_from_disk_leaves_its_spill_path_to_its_owners() {
        let dir = TempDir::new("cache-stage-owners");
        let cache = restarted_disk_only(&dir);
        cache.set_plan(vec![key(0)]);
        staged(&cache, 0, &key(0)).fill(|| panic!("on disk"));
        let path = match cache.state.lock().slots.get(&key(0)) {
            Some(Slot::Ram(_, Some(meta))) => meta.path.clone(),
            _ => panic!("staged into RAM, backed by its file"),
        };
        // The slot's backing and this clone: the reservation kept none.
        assert_eq!(Arc::strong_count(&path), 2);
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

    #[test]
    fn a_released_claim_keeps_its_files_place_and_a_declined_landing_takes_the_newest() {
        // A full disk tier, restarted: 0 is 300 bytes, more than the RAM
        // tier takes, and 1, 2, 3 are 100 each. The files rank 0 1 2 3,
        // oldest first, and with no plan the oldest is the next disk victim.
        let dir = TempDir::new("cache-settle-rank");
        let config = |ram_bytes| {
            CacheConfig::default()
                .with_ram_bytes(ram_bytes)
                .with_disk_bytes(600)
                .with_persist_dir(dir.path().to_path_buf())
        };
        {
            let cache = ShardCache::new(config(400)).unwrap();
            cache.insert(key(0), block(0, 300));
            for i in 1..4 {
                cache.insert(key(i), block(i, 100)); // 0 spills
            }
            assert_eq!(cache.persist_now(), 4);
        }
        let cache = ShardCache::new(config(250)).unwrap();
        assert_eq!(cache.disk_keys(), (0..4).map(key).collect::<Vec<_>>());
        assert_eq!(cache.disk_bytes_used(), 600);
        // A staging claim over 1, released unread: 1 stays the oldest.
        match cache.reserve_prefetch(0, &key(1), 0) {
            Issue::Read(reservation) => drop(reservation),
            _ => panic!("1 should be staged"),
        }
        // A promote of 0 that RAM declines: 0 becomes the newest.
        assert!(demand(&cache, key(0)).is_some());
        assert_eq!(cache.ram_bytes_used(), 0);
        // One spill more evicts the oldest file: 1, not 2 and not 0.
        for i in 4..7 {
            cache.insert(key(i), block(i, 100)); // the third evicts 4
        }
        cache.flush_spills();
        assert_eq!(cache.disk_keys(), vec![key(0), key(2), key(3), key(4)]);
        cache.check_books().unwrap();
    }
}

#[cfg(test)]
#[path = "../../tests/in_crate/cache_lifecycle.rs"]
mod lifecycle;

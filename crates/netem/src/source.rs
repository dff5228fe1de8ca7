//! [`NfsSource`] — the shared-storage layer of the composable read stack.
//!
//! Presents an [`NfsMount`] as a [`RangeSource`]: every block read pays the
//! NFSv4 cost model (open/READ-wave/close round trips plus link bandwidth
//! shared across every handle cloned from the mount), so N daemons reading
//! through clones of one `NfsSource` contend for the same emulated wire —
//! the paper's remote-dataset scenario, now expressible as just another
//! layer under a per-daemon `CachedSource`.

use crate::nfs::{NfsFile, NfsMount};
use emlio_tfrecord::source::{BlockKey, BlockRead, RangeSource, ReadOrigin};
use emlio_tfrecord::{GlobalIndex, RecordError};
use emlio_util::pool::BufferPool;
use parking_lot::Mutex;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Most positioned reads one [`NfsSource::read_blocks`] run keeps in flight:
/// the client's RPC slot table (`sunrpc.tcp_slot_table_entries`, 16 on a
/// stock Linux mount). The cache's prefetch executor no longer sends runs
/// down — it issues single `read_block`s on its own helper threads, capped
/// at the same 16 (`emlio_cache::prefetch::MAX_IN_FLIGHT`) — so this binds
/// only for callers that hand `read_blocks` a run wider than the table.
const RPC_SLOTS: usize = 16;

/// Positioned block reads over an emulated NFS mount.
///
/// Clones share the mount connection (and its bandwidth), like threads
/// sharing one kernel mount. They also share one open handle per shard
/// ([`NfsMount::open_file`]): the compound LOOKUP+OPEN cost is paid once
/// per shard per source, not once per block — without coalescing, every
/// planned block read would repay the open round trips that dominate the
/// baselines' per-file latency at WAN RTTs.
#[derive(Clone)]
pub struct NfsSource {
    index: Arc<GlobalIndex>,
    mount: NfsMount,
    /// One slot per shard of `index`, filled by the shard's first read.
    handles: Arc<[Mutex<Option<Arc<NfsFile>>>]>,
    /// Block buffers, recycled when a block's last view drops: a read
    /// lands in a buffer an evicted block gave back, with no allocation
    /// and no zero-fill at a steady block size.
    pool: BufferPool,
    recorder: Option<Arc<emlio_obs::StageRecorder>>,
}

impl NfsSource {
    /// A source reading `index`'s shards through `mount`. The mount's root
    /// must be the dataset directory the index describes.
    pub fn new(index: Arc<GlobalIndex>, mount: NfsMount) -> NfsSource {
        let handles = index.shards.iter().map(|_| Mutex::new(None)).collect();
        NfsSource {
            index,
            mount,
            handles,
            pool: BufferPool::new(),
            recorder: None,
        }
    }

    /// The open (or newly opened) handle for shard `slot`. Opening happens
    /// under that shard's own lock: concurrent first reads of one shard
    /// charge exactly one OPEN — the emulated round trips are the cost we
    /// are deliberately not paying twice — while first reads of different
    /// shards open side by side. A failed open leaves the slot empty for
    /// the next read to try again.
    fn handle_for(
        &self,
        slot: &Mutex<Option<Arc<NfsFile>>>,
        rel: &Path,
    ) -> std::io::Result<Arc<NfsFile>> {
        let mut handle = slot.lock();
        if let Some(file) = &*handle {
            return Ok(file.clone());
        }
        let file = Arc::new(self.mount.open_file(rel)?);
        *handle = Some(file.clone());
        Ok(file)
    }

    /// Record each emulated read's latency
    /// ([`emlio_obs::Stage::StorageRead`]) into `recorder`. The daemon
    /// meters storage reads one layer up; this hook is for driving the
    /// source standalone.
    pub fn with_recorder(mut self, recorder: Arc<emlio_obs::StageRecorder>) -> NfsSource {
        self.recorder = Some(recorder);
        self
    }

    /// The mount the reads are charged to.
    pub fn mount(&self) -> &NfsMount {
        &self.mount
    }
}

impl RangeSource for NfsSource {
    fn read_block(&self, key: &BlockKey) -> Result<BlockRead, RecordError> {
        let shard = self
            .index
            .shards
            .get(key.shard_id as usize)
            .ok_or_else(|| RecordError::BadIndex(format!("unknown shard {}", key.shard_id)))?;
        let (offset, size) = shard.span(key.start, key.end)?;
        let rel = Path::new(&shard.file_name);
        let t = Instant::now();
        // `handles` has one slot per shard of `index`, checked just above.
        let slot = &self.handles[key.shard_id as usize];
        let file = self.handle_for(slot, rel).map_err(RecordError::Io)?;
        let mut buf = self.pool.take(size as usize);
        file.read_range_into(offset, size, &mut buf)
            .map_err(RecordError::Io)?;
        let read_nanos = t.elapsed().as_nanos() as u64;
        if let Some(rec) = &self.recorder {
            rec.record(emlio_obs::Stage::StorageRead, read_nanos);
        }
        Ok(BlockRead {
            data: self.pool.seal(buf),
            origin: ReadOrigin::Direct,
            read_nanos,
        })
    }

    /// Overlapped run read: the run's positioned reads go out together, as
    /// a kernel NFS client keeps several READ RPCs on the wire, instead of
    /// each waiting out the previous one's round trips. Up to `RPC_SLOTS` (16)
    /// scoped threads (the caller is one of them) pull keys off the run and
    /// [`read_block`](RangeSource::read_block) them, so every read charges
    /// the same GETATTR/READ-wave round trips and draws its bytes from the
    /// same shared token bucket as a serial read — only the sleeps overlap,
    /// and each block's `read_nanos` is its own latency, so a run's reads
    /// sum to more than its wall time. The first failure (in key order)
    /// fails the call once every worker has stopped; workers stop taking
    /// keys as soon as one read has failed.
    fn read_blocks(&self, keys: &[BlockKey]) -> Result<Vec<BlockRead>, RecordError> {
        let next = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);
        let worker = || {
            let mut done = Vec::new();
            while !failed.load(Ordering::SeqCst) {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(key) = keys.get(i) else { break };
                let read = self.read_block(key);
                if read.is_err() {
                    failed.store(true, Ordering::SeqCst);
                }
                done.push((i, read));
            }
            done
        };
        let mut done = std::thread::scope(|s| {
            let helpers: Vec<_> = (1..keys.len().min(RPC_SLOTS))
                .map(|_| s.spawn(worker))
                .collect();
            let mut done = worker();
            for h in helpers {
                done.extend(h.join().expect("nfs read worker panicked"));
            }
            done
        });
        // Keys are taken in order, so every key before a failed one was
        // taken too: sorted, the results are gapless up to the first error.
        done.sort_unstable_by_key(|(i, _)| *i);
        done.into_iter().map(|(_, read)| read).collect()
    }

    fn block_len(&self, key: &BlockKey) -> Option<u64> {
        self.index.block_len(key)
    }

    fn describe(&self) -> String {
        format!("nfs({})", self.mount.root().display())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::NetProfile;
    use crate::NfsConfig;
    use emlio_tfrecord::{ShardSpec, ShardWriter};
    use emlio_util::clock::RealClock;
    use emlio_util::testutil::TempDir;
    use std::sync::atomic::Ordering;
    use std::time::Duration;

    #[test]
    fn nfs_source_reads_blocks_and_charges_the_mount() {
        let dir = TempDir::new("nfs-source");
        let mut w = ShardWriter::create(dir.path(), ShardSpec::Count(1)).unwrap();
        for i in 0..8u8 {
            w.append(&[i; 64], 0).unwrap();
        }
        let idx = Arc::new(w.finish().unwrap());
        let mount = NfsMount::mount(
            dir.path(),
            NetProfile::new("test", Duration::ZERO, 1.25e9),
            RealClock::shared(),
            NfsConfig::default(),
        );
        let src = NfsSource::new(idx.clone(), mount.clone());
        let key = BlockKey {
            shard_id: 0,
            start: 2,
            end: 6,
        };
        let read = src.read_block(&key).unwrap();
        let (_, size) = idx.shards[0].span(2, 6).unwrap();
        assert_eq!(read.data.len() as u64, size);
        assert_eq!(read.origin, ReadOrigin::Direct);
        assert_eq!(mount.stats().bytes_read.load(Ordering::Relaxed), size);
        // Clones contend for the same wire: stats are shared.
        let clone = src.clone();
        clone.read_block(&key).unwrap();
        assert_eq!(mount.stats().bytes_read.load(Ordering::Relaxed), 2 * size);
        assert!(src.describe().starts_with("nfs("));
    }

    #[test]
    fn opens_coalesce_to_one_per_shard() {
        let dir = TempDir::new("nfs-source-opens");
        let mut w = ShardWriter::create(dir.path(), ShardSpec::Count(2)).unwrap();
        for i in 0..32u8 {
            w.append(&[i; 64], 0).unwrap();
        }
        let idx = Arc::new(w.finish().unwrap());
        let mount = NfsMount::mount(
            dir.path(),
            NetProfile::new("test", Duration::ZERO, 1.25e9),
            RealClock::shared(),
            NfsConfig::default(),
        );
        let src = NfsSource::new(idx.clone(), mount.clone());
        // Many block reads across both shards — an epoch's worth of reads
        // pays one compound OPEN per shard, not one per block.
        let mut blocks = 0u64;
        for shard_id in 0..idx.shards.len() as u32 {
            let records = idx.shards[shard_id as usize].records.len();
            for start in (0..records).step_by(4) {
                let key = BlockKey {
                    shard_id,
                    start,
                    end: (start + 4).min(records),
                };
                src.read_block(&key).unwrap();
                blocks += 1;
            }
        }
        assert!(blocks >= 8, "meaningful number of block reads");
        assert_eq!(
            mount.stats().opens.load(Ordering::Relaxed),
            idx.shards.len() as u64,
            "one open per shard, not per block"
        );
        // Clones share the handle map: re-reading through a clone opens
        // nothing new.
        let clone = src.clone();
        clone
            .read_block(&BlockKey {
                shard_id: 0,
                start: 0,
                end: 4,
            })
            .unwrap();
        assert_eq!(
            mount.stats().opens.load(Ordering::Relaxed),
            idx.shards.len() as u64
        );

        // Two threads racing the first read of the same shard of a fresh
        // source: the loser waits for the winner's handle, one OPEN.
        let fresh = NfsSource::new(idx.clone(), mount.clone());
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait();
                    let key = BlockKey {
                        shard_id: 1,
                        start: 0,
                        end: 4,
                    };
                    fresh.read_block(&key).unwrap();
                });
            }
        });
        assert_eq!(
            mount.stats().opens.load(Ordering::Relaxed),
            idx.shards.len() as u64 + 1,
            "racing first reads of one shard open it once"
        );
    }

    /// A dataset of `shards` shards with `blocks` four-record blocks in
    /// each, and the blocks' keys interleaved across shards.
    fn dataset(
        name: &str,
        shards: usize,
        blocks: usize,
    ) -> (TempDir, Arc<GlobalIndex>, Vec<BlockKey>) {
        let dir = TempDir::new(name);
        let mut w = ShardWriter::create(dir.path(), ShardSpec::Count(shards as u32)).unwrap();
        for i in 0..shards * blocks * 4 {
            w.append(&[i as u8; 64], 0).unwrap();
        }
        let idx = Arc::new(w.finish().unwrap());
        let mut keys = Vec::new();
        for b in 0..blocks {
            for shard_id in 0..shards as u32 {
                keys.push(BlockKey {
                    shard_id,
                    start: b * 4,
                    end: b * 4 + 4,
                });
            }
        }
        (dir, idx, keys)
    }

    fn mount_at(dir: &TempDir, rtt: Duration) -> NfsMount {
        NfsMount::mount(
            dir.path(),
            NetProfile::new("test", rtt, 1.25e9),
            RealClock::shared(),
            NfsConfig::default(),
        )
    }

    fn counters(mount: &NfsMount) -> (u64, u64, u64) {
        let s = mount.stats();
        (
            s.opens.load(Ordering::Relaxed),
            s.reads.load(Ordering::Relaxed),
            s.bytes_read.load(Ordering::Relaxed),
        )
    }

    #[test]
    fn a_run_overlaps_its_round_trips_at_the_cost_of_serial_reads() {
        let rtt = Duration::from_millis(20);
        let (dir, idx, keys) = dataset("nfs-source-overlap", 4, 3);
        // Two mounts of the same directory, so each has its own counters:
        // one reads block by block, the other the same keys as runs.
        let (serial_mount, batched_mount) = (mount_at(&dir, rtt), mount_at(&dir, rtt));
        let serial = NfsSource::new(idx.clone(), serial_mount.clone());
        let batched = NfsSource::new(idx.clone(), batched_mount.clone());
        // The first block of each shard pays that shard's OPEN; a run opens
        // different shards side by side.
        let (opening, run) = keys.split_at(4);
        assert_eq!(run.len(), 8);
        let t = Instant::now();
        let mut want: Vec<BlockRead> = opening
            .iter()
            .map(|k| serial.read_block(k).unwrap())
            .collect();
        let serial_opens = t.elapsed();
        let t = Instant::now();
        let mut got = batched.read_blocks(opening).unwrap();
        let overlapped_opens = t.elapsed();
        assert!(
            overlapped_opens * 2 < serial_opens,
            "four shards opened in {overlapped_opens:?}, one after another in {serial_opens:?}"
        );

        let t = Instant::now();
        want.push(serial.read_block(&run[0]).unwrap());
        let one_block = t.elapsed();
        want.extend(run[1..].iter().map(|k| serial.read_block(k).unwrap()));
        let t = Instant::now();
        got.extend(batched.read_blocks(run).unwrap());
        let eight_blocks = t.elapsed();

        assert!(
            one_block >= rtt,
            "a block pays its READ wave: {one_block:?}"
        );
        assert!(
            eight_blocks < one_block * 3,
            "eight overlapped reads took {eight_blocks:?}, one read {one_block:?}"
        );
        // Same data in key order, same round trips and bytes charged.
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.data, w.data);
            assert_eq!(g.origin, ReadOrigin::Direct);
        }
        assert_eq!(counters(&batched_mount), counters(&serial_mount));
        assert_eq!(counters(&batched_mount).0, 4, "one open per shard");
    }

    #[test]
    fn one_failed_member_fails_the_run_once_every_worker_has_stopped() {
        use emlio_util::fault::{site, FaultDecision, FaultInjector, FaultPlan, FaultSpec};
        use emlio_util::testutil::poll_stable;

        let rtt = Duration::from_millis(5);
        let (dir, idx, keys) = dataset("nfs-source-fail", 2, 4);
        // A plan under which exactly one of the run's eight reads fails,
        // and none of the rerun's.
        let errors_in = |plan: &FaultPlan, invocations: std::ops::Range<u64>| {
            invocations
                .filter(|n| plan.decide_at(site::NFS_READ, *n) == FaultDecision::Error)
                .count()
        };
        let plan = (0u64..)
            .map(|seed| FaultPlan::new(seed).with_site(site::NFS_READ, FaultSpec::errors(0.1)))
            .find(|plan| errors_in(plan, 0..8) == 1 && errors_in(plan, 8..16) == 0)
            .unwrap();
        let mount = mount_at(&dir, rtt);
        let injector = FaultInjector::new(plan);
        mount.set_fault_injector(injector.clone());
        let src = NfsSource::new(idx, mount.clone());

        let err = src.read_blocks(&keys).unwrap_err();
        assert!(err.is_transient(), "an I/O error, no partial result: {err}");
        assert!(err.to_string().contains(site::NFS_READ));
        // Nothing is still reading behind the caller's back.
        let after = counters(&mount);
        let settled = poll_stable(Duration::from_secs(2), rtt * 10, || counters(&mount));
        assert_eq!(settled, after, "no read completed after the call returned");
        assert!(injector.invocations(site::NFS_READ) <= keys.len() as u64);

        // The same run with the fault behind it reads clean.
        let reads = src.read_blocks(&keys).unwrap();
        assert_eq!(reads.len(), keys.len());
    }
}

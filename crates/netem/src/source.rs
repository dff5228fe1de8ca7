//! [`NfsSource`] — the shared-storage layer of the composable read stack.
//!
//! Presents an [`NfsMount`] as a [`RangeSource`]: every block read pays the
//! NFSv4 cost model (open/READ-wave/close round trips plus link bandwidth
//! shared across every handle cloned from the mount), so N daemons reading
//! through clones of one `NfsSource` contend for the same emulated wire —
//! the paper's remote-dataset scenario, now expressible as just another
//! layer under a per-daemon `CachedSource`. A call is one positioned read;
//! the round trips of several overlap when several callers are in at once,
//! which is what the cache's prefetch executor arranges.

use crate::nfs::{NfsFile, NfsMount};
use emlio_tfrecord::source::{BlockKey, BlockRead, RangeSource, ReadOrigin};
use emlio_tfrecord::{GlobalIndex, RecordError};
use emlio_util::pool::BufferPool;
use parking_lot::Mutex;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

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
        }
    }

    /// The open (or newly opened) handle for shard `slot`. Opening happens
    /// under that shard's own lock: concurrent first reads of one shard
    /// charge exactly one OPEN — the emulated round trips are the cost we
    /// are deliberately not paying twice — while first reads of different
    /// shards open side by side. A failed open leaves the slot empty for
    /// the next read to try again.
    ///
    /// Also returns when the slot's lock was taken, where a read's time
    /// starts: the read that opens the shard counts its OPEN, and one that
    /// only queued behind that OPEN does not count the wait.
    fn handle_for(
        &self,
        slot: &Mutex<Option<Arc<NfsFile>>>,
        rel: &Path,
    ) -> std::io::Result<(Arc<NfsFile>, Instant)> {
        let mut handle = slot.lock();
        let locked = Instant::now();
        if let Some(file) = &*handle {
            return Ok((file.clone(), locked));
        }
        let file = Arc::new(self.mount.open_file(rel)?);
        *handle = Some(file.clone());
        Ok((file, locked))
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
        // `handles` has one slot per shard of `index`, checked just above.
        let slot = &self.handles[key.shard_id as usize];
        let (file, t) = self.handle_for(slot, rel).map_err(RecordError::Io)?;
        let mut buf = self.pool.take(size as usize);
        file.read_range_into(offset, size, &mut buf)
            .map_err(RecordError::Io)?;
        Ok(BlockRead {
            data: self.pool.seal(buf),
            origin: ReadOrigin::Direct,
            read_nanos: t.elapsed().as_nanos() as u64,
        })
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

    #[test]
    fn a_read_queued_behind_an_open_does_not_count_the_wait() {
        let dir = TempDir::new("nfs-source-open-wait");
        let mut w = ShardWriter::create(dir.path(), ShardSpec::Count(1)).unwrap();
        for i in 0..8u8 {
            w.append(&[i; 64], 0).unwrap();
        }
        let idx = Arc::new(w.finish().unwrap());
        // 50 ms RTT: the shard's OPEN is two round trips, 100 ms; a READ
        // of a few hundred bytes is one, 50 ms.
        let open = Duration::from_millis(100);
        let mount = NfsMount::mount(
            dir.path(),
            NetProfile::new("test", Duration::from_millis(50), 1.25e9),
            RealClock::shared(),
            NfsConfig::default(),
        );
        let src = NfsSource::new(idx, mount);
        let read = |start| {
            let key = BlockKey {
                shard_id: 0,
                start,
                end: start + 4,
            };
            Duration::from_nanos(src.read_block(&key).unwrap().read_nanos)
        };
        let (a, b) = std::thread::scope(|s| {
            // A opens the shard; B asks for the shard's other block 20 ms
            // into that OPEN and waits on the slot's lock until it is done.
            let a = s.spawn(|| read(0));
            std::thread::sleep(Duration::from_millis(20));
            let b = s.spawn(|| read(4));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(a >= open, "the read that opened counts its OPEN: {a:?}");
        assert!(b < open, "the read that only waited for it does not: {b:?}");
    }
}

//! The composable read stack: [`RangeSource`] and its local-disk root.
//!
//! EMLIO's daemon reads one contiguous block per planned batch, keyed by
//! `(shard_id, record_range)`. Historically the daemon was hard-wired to a
//! concrete reader and (optionally) a concrete cache; this module extracts
//! the positioned-read contract into a trait so backends compose as a
//! decorator stack instead — local TFRecord shards ([`TfrecordSource`]),
//! an emulated NFS mount (`emlio-netem`'s `NfsSource`), and a shard block
//! cache (`emlio-cache`'s `CachedSource`) all present the same interface,
//! mirroring how HDMLP layers local/remote/cache tiers behind one fetch
//! call ("Clairvoyant Prefetching for Distributed Machine Learning I/O").
//!
//! [`RangeSource::read_block`] is the stack's one read verb: every layer
//! serves one block per call. The plan fixes the access sequence, so
//! keeping several reads in flight is the job of the one executor that
//! walks it (`emlio-cache`'s prefetcher), not of a strategy in each layer.

use crate::index::GlobalIndex;
use crate::reader::RangeReader;
use crate::record::RecordError;
use crate::Result;
use bytes::Bytes;
use emlio_util::pool::BufferPool;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One planned batch's contiguous record range in a shard — the key every
/// layer of the read stack shares.
///
/// The planner slices every shard into fixed-stride chunks, so the same
/// keys recur with identical boundaries across epochs — which is what
/// makes caching by range (rather than by byte extent) exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockKey {
    /// Source shard.
    pub shard_id: u32,
    /// First record index (inclusive).
    pub start: usize,
    /// Last record index (exclusive).
    pub end: usize,
}

/// Which layer of the read stack satisfied a [`RangeSource::read_block`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOrigin {
    /// Served by a caching layer — no backing read was issued.
    Cache,
    /// Missed a caching layer; the backing source was read.
    CacheMiss,
    /// Read straight from a backing source (no caching layer in the stack).
    Direct,
    /// Served by a peer daemon's cache tier (cooperative fleet) — remote
    /// RAM/disk was read, but the shared storage link was not touched.
    Peer,
}

impl ReadOrigin {
    /// True when no backing-storage read was issued for this access.
    pub fn is_cached(&self) -> bool {
        matches!(self, ReadOrigin::Cache)
    }

    /// True when this access avoided the shared storage tier entirely —
    /// a local cache hit or a peer-cache fetch. The metering layer uses
    /// this to keep `storage_reads` an exact count of backing-store I/O.
    pub fn avoided_storage(&self) -> bool {
        matches!(self, ReadOrigin::Cache | ReadOrigin::Peer)
    }
}

/// The raw bytes of one block, plus where they came from.
///
/// `data` is a refcounted [`Bytes`] view: cloning a `BlockRead` (or slicing
/// record payloads out of it with [`Bytes::slice_ref`]) shares the block's
/// allocation instead of copying it. A cache hit hands out the cached
/// buffer itself; callers must treat the bytes as immutable and drop their
/// views promptly — a held slice pins the whole block (for pooled buffers
/// it keeps the allocation out of its pool; for a view of a mapped shard
/// it keeps the shard mapped and the block's pages resident).
#[derive(Debug, Clone)]
pub struct BlockRead {
    /// The block's raw framed-record bytes (shared, immutable).
    pub data: Bytes,
    /// Which layer satisfied the read.
    pub origin: ReadOrigin,
    /// Nanoseconds spent in the backing read (0 when served from cache).
    pub read_nanos: u64,
}

/// Where root sources get their block buffers.
///
/// [`take`](BlockAlloc::take) hands out a `Vec<u8>` with at least the
/// requested capacity (possibly recycled), and [`seal`](BlockAlloc::seal)
/// freezes a filled buffer into immutable [`Bytes`] — returning pooled
/// allocations to their free list when the last view drops. The daemon
/// plugs its [`BufferPool`] in here; the default [`SystemAlloc`] is a plain
/// pass-through to the global allocator.
pub trait BlockAlloc: Send + Sync {
    /// A writable buffer with `capacity() >= min_capacity`. A recycled
    /// buffer keeps the length and bytes of its previous use, so that the
    /// `resize` before a positioned read zero-fills only what was never
    /// initialised: the caller sets the length and overwrites every byte
    /// before sealing.
    fn take(&self, min_capacity: usize) -> Vec<u8>;

    /// Freeze a filled buffer (possibly from [`take`](BlockAlloc::take))
    /// into shared immutable bytes.
    fn seal(&self, buf: Vec<u8>) -> Bytes;
}

/// The default [`BlockAlloc`]: plain `Vec` allocation, no reuse.
#[derive(Debug, Clone, Copy, Default)]
pub struct SystemAlloc;

impl BlockAlloc for SystemAlloc {
    fn take(&self, min_capacity: usize) -> Vec<u8> {
        Vec::with_capacity(min_capacity)
    }

    fn seal(&self, buf: Vec<u8>) -> Bytes {
        Bytes::from(buf)
    }
}

impl BlockAlloc for BufferPool {
    fn take(&self, min_capacity: usize) -> Vec<u8> {
        BufferPool::take(self, min_capacity)
    }

    fn seal(&self, buf: Vec<u8>) -> Bytes {
        BufferPool::seal(self, buf)
    }
}

/// A positioned block read keyed by [`BlockKey`] — the one interface every
/// layer of the daemon read path implements.
///
/// Implementations resolve the record range to a byte span themselves (via
/// a [`GlobalIndex`]), so callers never handle offsets: the daemon, the
/// prefetcher, and every decorator speak only in block keys.
pub trait RangeSource: Send + Sync {
    /// Read block `key`, reporting origin and backing-read time.
    fn read_block(&self, key: &BlockKey) -> Result<BlockRead>;

    /// Not part of the stack: `read_block` is the only read verb, nothing
    /// in the workspace overrides or calls the three methods below, and
    /// they stay declared only because `benchmark/src/sut.rs` (frozen by
    /// `BENCHMARK.json`) implements them on its `SpanSource`.
    #[doc(hidden)]
    fn prefetch_block(&self, key: &BlockKey) -> Result<bool> {
        let _ = key;
        Ok(false)
    }

    #[doc(hidden)]
    fn read_blocks(&self, keys: &[BlockKey]) -> Result<Vec<BlockRead>> {
        keys.iter().map(|k| self.read_block(k)).collect()
    }

    #[doc(hidden)]
    fn prefetch_blocks(&self, keys: &[BlockKey]) -> Result<usize> {
        let _ = keys;
        Ok(0)
    }

    /// Byte length of block `key`, when this source can tell without
    /// reading it: root sources answer from their index, decorators
    /// forward. `None` (the default) makes the prefetch executor reserve
    /// the largest block it has seen instead.
    fn block_len(&self, key: &BlockKey) -> Option<u64> {
        let _ = key;
        None
    }

    /// One-line description of this layer (and, for decorators, what it
    /// wraps) — `cached(clairvoyant 256 MiB ram / 0 MiB disk) -> tfrecord(/data)`.
    fn describe(&self) -> String;
}

/// The local-disk root of the stack: each block is a view of its shard's
/// read-only mapping ([`RangeReader::view`]), spans resolved through the
/// dataset's [`GlobalIndex`]. A shard that could not be mapped is read
/// with one positioned read per block into a [`BlockAlloc`] buffer; which
/// of the two a shard gets is decided when it is opened, by what the
/// platform and the file allow, and by nothing a caller sets.
pub struct TfrecordSource {
    index: Arc<GlobalIndex>,
    /// Shard readers, opened on first use and shared across threads.
    readers: Mutex<HashMap<u32, Arc<RangeReader>>>,
    /// Where the buffers for unmapped shards' blocks come from (the daemon
    /// plugs its pool in here).
    alloc: Arc<dyn BlockAlloc>,
}

impl TfrecordSource {
    /// A source over every shard `index` describes, allocating block
    /// buffers straight from the system allocator.
    pub fn new(index: Arc<GlobalIndex>) -> TfrecordSource {
        TfrecordSource {
            index,
            readers: Mutex::new(HashMap::new()),
            alloc: Arc::new(SystemAlloc),
        }
    }

    /// Route block-buffer allocation through `alloc` (typically the
    /// daemon's [`BufferPool`]). Blocks of mapped shards take no buffer.
    pub fn with_alloc(mut self, alloc: Arc<dyn BlockAlloc>) -> TfrecordSource {
        self.alloc = alloc;
        self
    }

    /// The dataset index spans are resolved through.
    pub fn index(&self) -> &Arc<GlobalIndex> {
        &self.index
    }

    fn reader_for(&self, shard_id: u32) -> Result<Arc<RangeReader>> {
        // The map holds only opened readers — a panic elsewhere can poison
        // the mutex without leaving partial state, so keep serving instead
        // of propagating the panic to every later reader.
        let mut readers = self
            .readers
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(r) = readers.get(&shard_id) {
            return Ok(r.clone());
        }
        if self.index.shards.get(shard_id as usize).is_none() {
            return Err(RecordError::BadIndex(format!("unknown shard {shard_id}")));
        }
        let reader = Arc::new(RangeReader::open(&self.index.shard_path(shard_id))?);
        readers.insert(shard_id, reader.clone());
        Ok(reader)
    }
}

impl RangeSource for TfrecordSource {
    fn read_block(&self, key: &BlockKey) -> Result<BlockRead> {
        let shard = self
            .index
            .shards
            .get(key.shard_id as usize)
            .ok_or_else(|| RecordError::BadIndex(format!("unknown shard {}", key.shard_id)))?;
        let (offset, size) = shard.span(key.start, key.end)?;
        let reader = self.reader_for(key.shard_id)?;
        let t = Instant::now();
        let data = match reader.view(offset, size)? {
            Some(view) => view,
            None => {
                let mut buf = self.alloc.take(size as usize);
                reader.read_range_into(offset, size, &mut buf)?;
                self.alloc.seal(buf)
            }
        };
        Ok(BlockRead {
            data,
            origin: ReadOrigin::Direct,
            read_nanos: t.elapsed().as_nanos() as u64,
        })
    }

    fn block_len(&self, key: &BlockKey) -> Option<u64> {
        self.index.block_len(key)
    }

    fn describe(&self) -> String {
        format!("tfrecord({} shards)", self.index.shards.len())
    }
}

/// A [`RangeSource`] backed by a closure — the test/bench seam for driving
/// caching layers with synthetic blocks.
pub struct FnSource<F> {
    fetch: F,
}

impl<F> FnSource<F>
where
    F: Fn(&BlockKey) -> std::io::Result<Vec<u8>> + Send + Sync,
{
    /// Wrap `fetch` as a source (every read reports [`ReadOrigin::Direct`]).
    pub fn new(fetch: F) -> FnSource<F> {
        FnSource { fetch }
    }
}

impl<F> RangeSource for FnSource<F>
where
    F: Fn(&BlockKey) -> std::io::Result<Vec<u8>> + Send + Sync,
{
    fn read_block(&self, key: &BlockKey) -> Result<BlockRead> {
        let t = Instant::now();
        let data = (self.fetch)(key).map_err(RecordError::Io)?;
        Ok(BlockRead {
            data: Bytes::from(data),
            origin: ReadOrigin::Direct,
            read_nanos: t.elapsed().as_nanos() as u64,
        })
    }

    fn describe(&self) -> String {
        "fn".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ShardSpec, ShardWriter};
    use emlio_util::testutil::TempDir;

    #[test]
    fn tfrecord_source_reads_planned_blocks() {
        let dir = TempDir::new("tfrecord-source");
        let mut w = ShardWriter::create(dir.path(), ShardSpec::Count(2)).unwrap();
        for i in 0..10u8 {
            w.append(&[i; 32], 0).unwrap();
        }
        let idx = Arc::new(w.finish().unwrap());
        let src = TfrecordSource::new(idx.clone());
        let n0 = idx.shards[0].records.len();
        let key = BlockKey {
            shard_id: 0,
            start: 0,
            end: n0,
        };
        let read = src.read_block(&key).unwrap();
        assert_eq!(read.origin, ReadOrigin::Direct);
        assert!(read.read_nanos > 0);
        let (_, size) = idx.shards[0].span(0, n0).unwrap();
        assert_eq!(read.data.len() as u64, size);
        // Unknown shard is a clean error.
        assert!(src
            .read_block(&BlockKey {
                shard_id: 99,
                start: 0,
                end: 1
            })
            .is_err());
        assert!(src.describe().starts_with("tfrecord("));
    }

    #[test]
    fn recycled_buffers_never_show_an_earlier_block() {
        let dir = TempDir::new("tfrecord-recycle");
        let mut w = ShardWriter::create(dir.path(), ShardSpec::Count(1)).unwrap();
        for i in 0..40u8 {
            w.append(&[i; 200], 0).unwrap();
        }
        let idx = w.finish().unwrap();
        let whole = std::fs::read(idx.shard_path(0)).unwrap();
        let reader = RangeReader::open(&idx.shard_path(0)).unwrap();
        let pool = BufferPool::new();
        // The positioned read the unmapped fallback makes. Long, short,
        // long, shorter: all one size class, so every read after the first
        // lands on the buffer the one before it left, whose bytes the pool
        // does not clear.
        for (start, end) in [(0, 18), (20, 23), (5, 22), (30, 31), (0, 18)] {
            let (offset, size) = idx.shards[0].span(start, end).unwrap();
            let mut buf = pool.take(size as usize);
            reader.read_range_into(offset, size, &mut buf).unwrap();
            let got = pool.seal(buf);
            let want = &whole[offset as usize..(offset + size) as usize];
            assert_eq!(got, want, "records {start}..{end}");
        }
        let s = pool.stats();
        assert_eq!((s.pool_alloc, s.pool_reuse), (1, 4));
    }

    #[test]
    fn unmapped_shard_reads_through_the_block_alloc() {
        let dir = TempDir::new("tfrecord-unmapped");
        let mut w = ShardWriter::create(dir.path(), ShardSpec::Count(1)).unwrap();
        for i in 0..16u8 {
            w.append(&[i; 300], 0).unwrap();
        }
        let idx = Arc::new(w.finish().unwrap());
        let key = BlockKey {
            shard_id: 0,
            start: 3,
            end: 11,
        };
        let mapped = TfrecordSource::new(idx.clone()).read_block(&key).unwrap();

        // The same shard as a platform that cannot map it opens it: seeded
        // into the reader map, so `reader_for` never opens a mapped one.
        let pool = BufferPool::new();
        let src = TfrecordSource::new(idx.clone()).with_alloc(Arc::new(pool.clone()));
        let unmapped = RangeReader::open_unmapped(&idx.shard_path(0)).unwrap();
        src.readers.lock().unwrap().insert(0, Arc::new(unmapped));
        let read = src.read_block(&key).unwrap();
        assert_eq!(read.data, mapped.data, "byte-identical to the mapped read");
        assert_eq!(read.origin, ReadOrigin::Direct);
        // The buffer came from the alloc, and goes back when the block's
        // last view drops: the next read of the size class reuses it.
        let s = pool.stats();
        assert_eq!((s.pool_alloc, s.pool_reuse), (1, 0));
        let first = read.data.as_ptr();
        drop(read);
        let again = src.read_block(&key).unwrap();
        assert_eq!(again.data, mapped.data);
        assert_eq!(again.data.as_ptr(), first, "the recycled buffer");
        let s = pool.stats();
        assert_eq!((s.pool_alloc, s.pool_reuse), (1, 1));
    }

    #[test]
    fn forged_spans_are_errors_not_panics() {
        let dir = TempDir::new("tfrecord-forged");
        let mut w = ShardWriter::create(dir.path(), ShardSpec::Count(1)).unwrap();
        for i in 0..8u8 {
            w.append(&[i; 100], 0).unwrap();
        }
        let honest = w.finish().unwrap();
        let file_len = honest.shards[0].total_bytes();
        let key = BlockKey {
            shard_id: 0,
            start: 6,
            end: 8,
        };
        // The last record claims to run past the end of the file: the
        // index is self-consistent, so it is the read that must refuse.
        let mut past_eof = honest.clone();
        past_eof.shards[0].records[7].length += 4096;
        let src = TfrecordSource::new(Arc::new(past_eof));
        assert!(matches!(
            src.read_block(&key),
            Err(RecordError::Truncated { offset }) if offset < file_len
        ));
        // A length that wraps `offset + length` back inside the file must
        // not pass the bounds check as a small span.
        let mut wraps = honest.clone();
        wraps.shards[0].records[7].length = u64::MAX - 10;
        let src = TfrecordSource::new(Arc::new(wraps));
        assert!(matches!(
            src.read_block(&key),
            Err(RecordError::BadIndex(_) | RecordError::Truncated { .. })
        ));
        // Good spans of the same shard still read.
        assert!(TfrecordSource::new(Arc::new(honest))
            .read_block(&key)
            .is_ok());
    }

    #[test]
    fn reader_map_survives_a_poisoned_lock() {
        let dir = TempDir::new("tfrecord-poison");
        let mut w = ShardWriter::create(dir.path(), ShardSpec::Count(1)).unwrap();
        for i in 0..4u8 {
            w.append(&[i; 16], 0).unwrap();
        }
        let idx = Arc::new(w.finish().unwrap());
        let src = Arc::new(TfrecordSource::new(idx.clone()));
        // Poison the reader-map mutex: a thread panics while holding it
        // (as a panicking fault-injection hook or allocator would).
        let poisoner = src.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.readers.lock().unwrap();
            panic!("poison the reader map");
        })
        .join();
        assert!(src.readers.lock().is_err(), "lock really is poisoned");
        // Reads must keep working — the map's state is always consistent.
        let n = idx.shards[0].records.len();
        let read = src
            .read_block(&BlockKey {
                shard_id: 0,
                start: 0,
                end: n,
            })
            .unwrap();
        assert_eq!(read.origin, ReadOrigin::Direct);
    }

    #[test]
    fn fn_source_adapts_closures() {
        let src = FnSource::new(|k: &BlockKey| Ok(vec![k.shard_id as u8; k.end - k.start]));
        let key = BlockKey {
            shard_id: 3,
            start: 0,
            end: 5,
        };
        let read = src.read_block(&key).unwrap();
        assert_eq!(&read.data[..], &[3u8; 5]);
        assert_eq!(read.origin, ReadOrigin::Direct);
    }
}

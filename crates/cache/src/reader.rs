//! The decoded read path: records out of any [`RangeSource`] stack.
//!
//! [`CachedRangeReader`] is the daemon's batch-assembly seam: hand it the
//! composed source stack (`CachedSource -> TfrecordSource`, a bare
//! `TfrecordSource`, `CachedSource -> NfsSource`, …) and it turns block
//! keys into decoded record payloads plus per-read provenance for the
//! metrics layer. It no longer knows which concrete backend or cache it is
//! reading through — that is the point of the stack.

use bytes::Bytes;
use emlio_tfrecord::record::decode_all;
use emlio_tfrecord::source::{BlockKey, RangeSource, ReadOrigin};
use emlio_tfrecord::RecordError;
use std::sync::Arc;

/// Result of one decoded batch read.
///
/// Payloads are zero-copy [`Bytes`] views into the block buffer the read
/// returned — on a cache hit, into the cache's resident allocation itself.
/// Holding any payload pins the whole block; consumers should hand the
/// slices onward (e.g. into wire frames) or drop them promptly.
#[derive(Debug)]
pub struct RangeRead {
    /// Decoded record payloads, in range order (views into one block).
    pub payloads: Vec<Bytes>,
    /// Which layer of the stack satisfied the read.
    pub origin: ReadOrigin,
    /// Raw block size in bytes.
    pub bytes: u64,
    /// Nanoseconds spent in the backing read (0 on a cache hit).
    pub read_nanos: u64,
}

impl RangeRead {
    /// Whether the raw block came from a cache layer.
    pub fn hit(&self) -> bool {
        self.origin.is_cached()
    }
}

/// Decodes planned batches read through an arbitrary [`RangeSource`]
/// stack.
pub struct CachedRangeReader {
    source: Arc<dyn RangeSource>,
    verify_crc: bool,
}

impl CachedRangeReader {
    /// Decode batches read through `source`.
    pub fn new(source: Arc<dyn RangeSource>) -> Self {
        CachedRangeReader {
            source,
            verify_crc: true,
        }
    }

    /// Disable CRC verification when decoding (trusted replay).
    pub fn without_crc_verification(mut self) -> Self {
        self.verify_crc = false;
        self
    }

    /// The source stack behind this reader.
    pub fn source(&self) -> &Arc<dyn RangeSource> {
        &self.source
    }

    /// Read and decode the planned batch block `key`.
    pub fn read_batch(&self, key: BlockKey) -> Result<RangeRead, RecordError> {
        let read = self.source.read_block(&key)?;
        let records = decode_all(&read.data, self.verify_crc)?;
        // Slice each payload out of the shared block: refcount bumps, no
        // per-record memcpy.
        let payloads = records
            .iter()
            .map(|r| read.data.slice_ref(r.payload))
            .collect();
        Ok(RangeRead {
            payloads,
            origin: read.origin,
            bytes: read.data.len() as u64,
            read_nanos: read.read_nanos,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheConfig, ShardCache};
    use crate::source::CachedSource;
    use emlio_tfrecord::{ShardSpec, ShardWriter, TfrecordSource};
    use emlio_util::testutil::TempDir;

    fn shard_with_records(n: usize) -> (TempDir, Arc<emlio_tfrecord::GlobalIndex>) {
        let dir = TempDir::new("cached-reader");
        let mut w = ShardWriter::create(dir.path(), ShardSpec::Count(1)).unwrap();
        for i in 0..n {
            w.append(&[i as u8; 64], (i % 3) as u32).unwrap();
        }
        let idx = w.finish().unwrap();
        (dir, Arc::new(idx))
    }

    fn cached_stack(idx: Arc<emlio_tfrecord::GlobalIndex>) -> (Arc<ShardCache>, CachedRangeReader) {
        let cache = Arc::new(ShardCache::new(CacheConfig::default()).unwrap());
        let stack = Arc::new(CachedSource::new(
            cache.clone(),
            Arc::new(TfrecordSource::new(idx)),
        ));
        (cache, CachedRangeReader::new(stack))
    }

    #[test]
    fn second_read_hits_and_is_identical() {
        let (_d, idx) = shard_with_records(10);
        let (_, size) = idx.shards[0].span(2, 7).unwrap();
        let (cache, reader) = cached_stack(idx);

        let key = BlockKey {
            shard_id: 0,
            start: 2,
            end: 7,
        };
        let first = reader.read_batch(key).unwrap();
        assert!(!first.hit());
        assert_eq!(first.origin, ReadOrigin::CacheMiss);
        assert_eq!(first.payloads.len(), 5);
        assert!(first.read_nanos > 0);

        let second = reader.read_batch(key).unwrap();
        assert!(second.hit());
        assert_eq!(second.read_nanos, 0);
        assert_eq!(first.payloads, second.payloads, "byte-identical replay");
        assert_eq!(cache.stats().snapshot().bytes_saved, size);
    }

    #[test]
    fn bare_tfrecord_stack_reads_direct() {
        let (_d, idx) = shard_with_records(4);
        let reader = CachedRangeReader::new(Arc::new(TfrecordSource::new(idx)));
        let key = BlockKey {
            shard_id: 0,
            start: 0,
            end: 4,
        };
        let read = reader.read_batch(key).unwrap();
        assert_eq!(read.origin, ReadOrigin::Direct);
        assert!(!read.hit());
        assert_eq!(read.payloads.len(), 4);
    }
}

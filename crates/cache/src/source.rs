//! [`CachedSource`] — the caching decorator of the composable read stack.
//!
//! Wraps any inner [`RangeSource`] (local TFRecord shards, an emulated NFS
//! mount, even another cache) behind a [`ShardCache`]: demand reads are
//! served from the cache's RAM/disk tiers and misses coalesce onto a single
//! inner read (single-flight). Blocks are staged ahead of demand by the
//! prefetch executor ([`crate::prefetch`]), which reads through
//! [`CachedSource::inner`] into a byte reservation and so never touches
//! the hit/miss accounting. This is the layer the daemon and the CLI stack
//! on top of whichever backend a deployment configures.

use crate::cache::{Fetched, ShardCache};
use emlio_obs::{Stage, StageRecorder};
use emlio_tfrecord::source::{BlockKey, BlockRead, RangeSource, ReadOrigin};
use emlio_tfrecord::RecordError;
use std::sync::Arc;
use std::time::Instant;

/// A [`ShardCache`] interposed in front of an inner source.
pub struct CachedSource {
    cache: Arc<ShardCache>,
    inner: Arc<dyn RangeSource>,
    recorder: Option<Arc<StageRecorder>>,
}

impl CachedSource {
    /// Cache `inner`'s blocks in `cache`.
    pub fn new(cache: Arc<ShardCache>, inner: Arc<dyn RangeSource>) -> CachedSource {
        CachedSource {
            cache,
            inner,
            recorder: None,
        }
    }

    /// Record cache-hit lookup latency ([`Stage::CacheLookup`]) into
    /// `recorder`. Misses are excluded — their time *is* the inner
    /// storage read, which the stack meters separately.
    pub fn with_recorder(mut self, recorder: Arc<StageRecorder>) -> CachedSource {
        self.recorder = Some(recorder);
        self
    }

    /// The cache tiers behind this layer.
    pub fn cache(&self) -> &Arc<ShardCache> {
        &self.cache
    }

    /// The wrapped source (what misses fall through to).
    pub fn inner(&self) -> &Arc<dyn RangeSource> {
        &self.inner
    }
}

impl RangeSource for CachedSource {
    fn read_block(&self, key: &BlockKey) -> Result<BlockRead, RecordError> {
        let t0 = self.recorder.as_ref().map(|_| Instant::now());
        let mut inner_nanos = 0u64;
        let (data, from) = self.cache.get_or_fetch::<RecordError, _, _>(*key, || {
            // Admitted as-is: no copy between the backing read and the
            // cache tier.
            let read = self.inner.read_block(key)?;
            inner_nanos = read.read_nanos;
            Ok(read.data)
        })?;
        if let (Some(rec), Some(t0)) = (&self.recorder, t0) {
            if from.is_hit() {
                rec.record(Stage::CacheLookup, t0.elapsed().as_nanos() as u64);
            }
        }
        Ok(BlockRead {
            data,
            origin: if from.is_hit() {
                ReadOrigin::Cache
            } else {
                ReadOrigin::CacheMiss
            },
            read_nanos: if from == Fetched::Storage {
                inner_nanos
            } else {
                0
            },
        })
    }

    fn block_len(&self, key: &BlockKey) -> Option<u64> {
        self.inner.block_len(key)
    }

    fn describe(&self) -> String {
        let c = self.cache.config();
        format!(
            "cached(clairvoyant {} MiB ram / {} MiB disk{}) -> {}",
            c.ram_bytes >> 20,
            c.disk_bytes >> 20,
            if c.persist { ", persistent" } else { "" },
            self.inner.describe()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use emlio_tfrecord::FnSource;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn key(i: usize) -> BlockKey {
        BlockKey {
            shard_id: 0,
            start: i,
            end: i + 1,
        }
    }

    #[test]
    fn cached_source_decorates_any_inner() {
        let reads = Arc::new(AtomicU64::new(0));
        let reads2 = reads.clone();
        let inner = Arc::new(FnSource::new(move |k: &BlockKey| {
            reads2.fetch_add(1, Ordering::Relaxed);
            Ok(vec![k.start as u8; 64])
        }));
        let cache = Arc::new(ShardCache::new(CacheConfig::default()).unwrap());
        let src = CachedSource::new(cache.clone(), inner);

        let first = src.read_block(&key(1)).unwrap();
        assert_eq!(first.origin, ReadOrigin::CacheMiss);
        assert_eq!(&first.data[..], &[1u8; 64]);
        let second = src.read_block(&key(1)).unwrap();
        assert_eq!(second.origin, ReadOrigin::Cache);
        assert_eq!(second.read_nanos, 0);
        assert_eq!(reads.load(Ordering::Relaxed), 1, "one inner read");

        assert!(src.describe().starts_with("cached(clairvoyant 256 MiB ram"));
        assert!(src.describe().ends_with("-> fn"));
    }
}

//! Data-path counters shared between daemon, receiver, and reports.

use crate::pool::BufferPool;
use emlio_cache::{CacheStatsSnapshot, PeerStats, PeerStatsSnapshot, ShardCache};
use emlio_tfrecord::{RetryStats, RetryStatsSnapshot};
use emlio_util::PoolStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The components of one daemon's read stack that count *off* the data
/// path. They own their counters; [`DataPathMetrics::snapshot`] reads them
/// where they live, so a mid-epoch snapshot (sampler thread, bench probe)
/// is as current as an end-of-serve one. Assembled by
/// [`ReadStack::build`](crate::stack::ReadStack::build).
pub struct StackCounters {
    /// The shard cache, when configured.
    pub cache: Option<Arc<ShardCache>>,
    /// The fleet layer's counters, when the daemon is in a fleet.
    pub peer: Option<Arc<PeerStats>>,
    /// The retry layer's counters, when retries are enabled.
    pub retry: Option<Arc<RetryStats>>,
    /// The daemon's buffer pool.
    pub pool: BufferPool,
}

/// Monotonic counters for one side of the data path: the ones bumped on
/// the path itself, and the shape of the last serve. They hold counts, not
/// durations: every data-path duration is a stage histogram of the
/// [`StageRecorder`](emlio_obs::StageRecorder). Everything else in a
/// [`MetricsSnapshot`] is the [`StackCounters`] components' own snapshots.
#[derive(Default)]
pub struct DataPathMetrics {
    /// Batches moved.
    pub batches: AtomicU64,
    /// Samples moved.
    pub samples: AtomicU64,
    /// Payload bytes moved.
    pub bytes: AtomicU64,
    /// Positioned storage reads actually issued (demand misses plus
    /// prefetches; every batch when no cache is configured).
    pub storage_reads: AtomicU64,
    /// Wall-clock nanoseconds of the most recent `serve()` call.
    pub serve_wall_nanos: AtomicU64,
    /// Send workers used by the most recent `serve()` call.
    pub serve_workers: AtomicU64,
    /// The read stack's off-path components (`None` on the receiver side
    /// and for bare counters).
    stack: Option<StackCounters>,
}

impl DataPathMetrics {
    /// Fresh shared counters with no read stack behind them.
    pub fn shared() -> Arc<DataPathMetrics> {
        Arc::new(DataPathMetrics::default())
    }

    /// Fresh counters whose snapshots also read `stack`'s components.
    pub fn over(stack: StackCounters) -> DataPathMetrics {
        DataPathMetrics {
            stack: Some(stack),
            ..DataPathMetrics::default()
        }
    }

    /// The read stack's components, when there is one behind these
    /// counters: the handles a caller of `EmlioService::launch` reaches a
    /// launched daemon's cache and peer layer through.
    pub fn stack(&self) -> Option<&StackCounters> {
        self.stack.as_ref()
    }

    /// Record one batch of `samples` totalling `bytes`.
    pub fn record_batch(&self, samples: u64, bytes: u64) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.samples.fetch_add(samples, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Count one positioned storage read (its time is the
    /// [`Stage::StorageRead`](emlio_obs::Stage::StorageRead) histogram's).
    pub fn record_storage_read(&self) {
        self.storage_reads.fetch_add(1, Ordering::Relaxed);
    }

    /// Record the wall time and worker count of a completed `serve()`.
    pub fn set_serve_wall(&self, wall_nanos: u64, workers: u64) {
        self.serve_wall_nanos.store(wall_nanos, Ordering::Relaxed);
        self.serve_workers.store(workers, Ordering::Relaxed);
    }

    /// Plain-value copy of every counter: the data-path counters kept
    /// here, plus each read-stack component's own snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let stack = self.stack.as_ref();
        MetricsSnapshot {
            batches: self.batches.load(Ordering::Relaxed),
            samples: self.samples.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            storage_reads: self.storage_reads.load(Ordering::Relaxed),
            serve_wall_nanos: self.serve_wall_nanos.load(Ordering::Relaxed),
            serve_workers: self.serve_workers.load(Ordering::Relaxed),
            pool: stack.map(|s| s.pool.stats()).unwrap_or_default(),
            cache: stack.and_then(|s| s.cache.as_ref()).map(|c| c.snapshot()),
            peer: stack.and_then(|s| s.peer.as_ref()).map(|p| p.snapshot()),
            retry: stack.and_then(|s| s.retry.as_ref()).map(|r| r.snapshot()),
        }
    }
}

/// Point-in-time values of [`DataPathMetrics`]: its own counters, and
/// the snapshot of each read-stack component behind it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Batches moved.
    pub batches: u64,
    /// Samples moved.
    pub samples: u64,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Positioned storage reads issued.
    pub storage_reads: u64,
    /// Wall-clock nanoseconds of the most recent serve.
    pub serve_wall_nanos: u64,
    /// Send workers used by the most recent serve.
    pub serve_workers: u64,
    /// The daemon's buffer pool (zeros for bare counters).
    pub pool: PoolStats,
    /// The shard cache's counters and gauges, when a cache is configured.
    pub cache: Option<CacheStatsSnapshot>,
    /// The fleet layer's counters, when the daemon is in a fleet.
    pub peer: Option<PeerStatsSnapshot>,
    /// The retry layer's counters, when retries are enabled.
    pub retry: Option<RetryStatsSnapshot>,
}

impl MetricsSnapshot {
    /// One-line cache report for service output. Says `disabled` outright
    /// instead of dressing an unconfigured cache up as a 0% hit rate.
    pub fn cache_summary(&self) -> String {
        let Some(c) = &self.cache else {
            return "cache: disabled".to_string();
        };
        let rate = if c.hits + c.misses == 0 {
            "no traffic, n/a".to_string()
        } else {
            format!("{:.1}%", c.hit_rate() * 100.0)
        };
        format!(
            "cache: {} hits / {} misses ({rate} hit rate), {} evictions, {} saved",
            c.hits,
            c.misses,
            c.evictions,
            emlio_util::bytesize::format_bytes(c.bytes_saved),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emlio_cache::CacheConfig;

    /// Counters over a fresh pool plus whichever components are given.
    fn over(
        cache: Option<Arc<ShardCache>>,
        peer: Option<Arc<PeerStats>>,
        retry: Option<Arc<RetryStats>>,
    ) -> DataPathMetrics {
        DataPathMetrics::over(StackCounters {
            cache,
            peer,
            retry,
            pool: BufferPool::new(),
        })
    }

    fn cache() -> Arc<ShardCache> {
        Arc::new(ShardCache::new(CacheConfig::default()).unwrap())
    }

    #[test]
    fn counters_accumulate() {
        let m = DataPathMetrics::shared();
        m.record_batch(64, 6400);
        m.record_batch(64, 6400);
        m.record_storage_read();
        let s = m.snapshot();
        assert_eq!((s.batches, s.samples, s.bytes), (2, 128, 12800));
        assert_eq!(s.storage_reads, 1);
    }

    #[test]
    fn cache_counters_and_hit_rate() {
        // Disabled and traffic-free are distinguishable, not both 0.0.
        let bare = DataPathMetrics::shared();
        assert_eq!(bare.snapshot().cache, None);
        assert_eq!(bare.snapshot().cache_summary(), "cache: disabled");
        let cache = cache();
        let m = over(Some(cache.clone()), None, None);
        assert!(m.snapshot().cache_summary().contains("no traffic"));
        // An enabled cache with only misses reports 0%, not disabled.
        cache.stats().misses.store(1, Ordering::Relaxed);
        assert!(m.snapshot().cache_summary().contains("(0.0% hit rate)"));
        cache.stats().hits.store(2, Ordering::Relaxed);
        cache.stats().bytes_saved.store(8192, Ordering::Relaxed);
        cache.stats().evictions.store(5, Ordering::Relaxed);
        let c = m.snapshot().cache.unwrap();
        assert_eq!((c.hits, c.misses, c.evictions), (2, 1, 5));
        assert_eq!(c.bytes_saved, 8192);
        assert!((c.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert!(m.snapshot().cache_summary().contains("66.7% hit rate"));
    }

    #[test]
    fn snapshot_reads_component_counters_fresh() {
        // The cache's own eviction total advances between snapshots, off
        // the data path; each snapshot sees the value of the moment.
        let cache = cache();
        let m = over(Some(cache.clone()), None, None);
        cache.stats().evictions.store(7, Ordering::Relaxed);
        assert_eq!(m.snapshot().cache.unwrap().evictions, 7);
        cache.stats().evictions.store(19, Ordering::Relaxed);
        assert_eq!(m.snapshot().cache.unwrap().evictions, 19);
    }

    #[test]
    fn stall_counters() {
        let m = DataPathMetrics::shared();
        m.set_serve_wall(1_000_000, 4);
        let s = m.snapshot();
        assert_eq!((s.serve_wall_nanos, s.serve_workers), (1_000_000, 4));
    }

    #[test]
    fn peer_counters_reconcile_and_summarize() {
        let peer = Arc::new(PeerStats::default());
        let m = over(None, Some(peer.clone()), None);
        peer.hits.store(10, Ordering::Relaxed);
        peer.misses.store(2, Ordering::Relaxed);
        peer.fallbacks.store(1, Ordering::Relaxed);
        peer.bytes_from_peers.store(640_000, Ordering::Relaxed);
        let p = m.snapshot().peer.unwrap();
        assert_eq!(
            (p.hits, p.misses, p.fallbacks, p.bytes_from_peers),
            (10, 2, 1, 640_000)
        );
    }

    #[test]
    fn retry_counters_reconcile() {
        let retry = Arc::new(RetryStats::default());
        let m = over(None, None, Some(retry.clone()));
        retry.retries.store(5, Ordering::Relaxed);
        let r = m.snapshot().retry.unwrap();
        assert_eq!((r.retries, r.giveups), (5, 0));
        retry.giveups.store(1, Ordering::Relaxed);
        assert_eq!(m.snapshot().retry.unwrap().giveups, 1);
    }

    #[test]
    fn pool_and_zero_copy_counters_reconcile() {
        let cache = cache();
        let pool = BufferPool::new();
        let m = DataPathMetrics::over(StackCounters {
            cache: Some(cache.clone()),
            peer: None,
            retry: None,
            pool: pool.clone(),
        });
        drop(pool.seal(pool.take(100))); // fresh allocation, recycled at once
        drop(pool.seal(pool.take(100))); // served from the free list
        cache.stats().hits.store(90, Ordering::Relaxed);
        cache.stats().disk_hits.store(2, Ordering::Relaxed);
        let s = m.snapshot();
        assert_eq!(
            (s.pool.pool_alloc, s.pool.pool_reuse, s.pool.recycled),
            (1, 1, 2)
        );
        let c = s.cache.unwrap();
        assert_eq!((c.hits, c.disk_hits), (90, 2));
        assert_eq!(s.pool, pool.stats(), "the pool's own snapshot, not a copy");
    }

    #[test]
    fn cache_gauges_are_read_with_the_counters() {
        let cache = cache();
        let m = over(Some(cache.clone()), None, None);
        let c = m.snapshot().cache.unwrap();
        assert_eq!((c.spill_queue_depth, c.ram_reserved), (0, 0));
        assert_eq!(c, cache.snapshot());
    }
}

//! Data-path counters shared between daemon, receiver, and reports.

use crate::pool::BufferPool;
use emlio_cache::{PeerStats, ShardCache};
use emlio_tfrecord::RetryStats;
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

impl StackCounters {
    fn read_into(&self, s: &mut MetricsSnapshot) {
        let pool = self.pool.stats();
        s.pool_alloc = pool.pool_alloc;
        s.pool_reuse = pool.pool_reuse;
        if let Some(cache) = &self.cache {
            let c = cache.stats().snapshot();
            s.cache_enabled = true;
            s.cache_hits = c.hits;
            s.cache_misses = c.misses;
            s.cache_bytes_saved = c.bytes_saved;
            s.cache_evictions = c.evictions;
            s.cache_disk_hits = c.disk_hits;
            s.cache_readmitted = c.readmitted;
            // RAM-tier hits hand the cached `Bytes` straight into the wire
            // frame; disk-tier hits re-read the spill file. Saturating: the
            // two counters are loaded one after the other, and a promote
            // that lands between the loads of a mid-epoch snapshot shows
            // in the subset before it shows in the total.
            s.zero_copy_hits = c.hits.saturating_sub(c.disk_hits);
            s.cache_spill_failures = c.spill_failures;
            s.cache_spill_queue_depth = cache.spill_queue_depth();
            s.cache_spill_backpressure = c.spill_backpressure_waits;
            s.cache_warm_promoted = c.warm_promoted;
            s.cache_prefetched = c.prefetched;
            s.cache_prefetch_wasted = c.prefetch_wasted;
            s.cache_ram_reserved = cache.ram_budget().1;
        }
        if let Some(peer) = &self.peer {
            let p = peer.snapshot();
            s.peer_hits = p.hits;
            s.peer_misses = p.misses;
            s.peer_fallbacks = p.fallbacks;
            s.peer_bytes = p.bytes_from_peers;
        }
        if let Some(retry) = &self.retry {
            let r = retry.snapshot();
            s.io_retries = r.retries;
            s.io_giveups = r.giveups;
        }
    }
}

/// Monotonic counters for one side of the data path: the ones bumped on
/// the path itself. Everything else in a [`MetricsSnapshot`] is read from
/// the [`StackCounters`] components.
#[derive(Default)]
pub struct DataPathMetrics {
    /// Batches moved.
    pub batches: AtomicU64,
    /// Samples moved.
    pub samples: AtomicU64,
    /// Payload bytes moved.
    pub bytes: AtomicU64,
    /// Nanoseconds spent in storage reads (daemon side).
    pub read_nanos: AtomicU64,
    /// Nanoseconds spent serializing/deserializing.
    pub codec_nanos: AtomicU64,
    /// Positioned storage reads actually issued (demand misses plus
    /// prefetches; every batch when no cache is configured).
    pub storage_reads: AtomicU64,
    /// Nanoseconds send workers spent blocked on a full socket queue.
    pub send_blocked_nanos: AtomicU64,
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

    /// Add storage-read time.
    pub fn add_read_nanos(&self, nanos: u64) {
        self.read_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Add codec time.
    pub fn add_codec_nanos(&self, nanos: u64) {
        self.codec_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Record one positioned storage read taking `nanos`.
    pub fn record_storage_read(&self, nanos: u64) {
        self.storage_reads.fetch_add(1, Ordering::Relaxed);
        self.add_read_nanos(nanos);
    }

    /// Add time a send worker spent blocked on a full socket queue.
    pub fn add_send_blocked_nanos(&self, nanos: u64) {
        self.send_blocked_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Record the wall time and worker count of a completed `serve()`.
    pub fn set_serve_wall(&self, wall_nanos: u64, workers: u64) {
        self.serve_wall_nanos.store(wall_nanos, Ordering::Relaxed);
        self.serve_workers.store(workers, Ordering::Relaxed);
    }

    /// Plain-value copy of every counter: the data-path counters kept
    /// here, plus the read stack's components' own.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut s = MetricsSnapshot {
            batches: self.batches.load(Ordering::Relaxed),
            samples: self.samples.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            read_nanos: self.read_nanos.load(Ordering::Relaxed),
            codec_nanos: self.codec_nanos.load(Ordering::Relaxed),
            storage_reads: self.storage_reads.load(Ordering::Relaxed),
            send_blocked_nanos: self.send_blocked_nanos.load(Ordering::Relaxed),
            serve_wall_nanos: self.serve_wall_nanos.load(Ordering::Relaxed),
            serve_workers: self.serve_workers.load(Ordering::Relaxed),
            ..MetricsSnapshot::default()
        };
        if let Some(stack) = &self.stack {
            stack.read_into(&mut s);
        }
        s
    }
}

/// Point-in-time values of [`DataPathMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Batches moved.
    pub batches: u64,
    /// Samples moved.
    pub samples: u64,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Nanoseconds spent in storage reads.
    pub read_nanos: u64,
    /// Nanoseconds spent in the codec.
    pub codec_nanos: u64,
    /// Positioned storage reads issued.
    pub storage_reads: u64,
    /// Batch reads served from the shard cache (its own demand-hit count).
    pub cache_hits: u64,
    /// Batch reads that missed the shard cache (its own demand-miss
    /// count): a miss whose storage fetch then failed counts too.
    pub cache_misses: u64,
    /// Blocks evicted from the cache RAM tier.
    pub cache_evictions: u64,
    /// Cache hits served by the disk spill tier.
    pub cache_disk_hits: u64,
    /// Blocks re-admitted from a persistent spill index.
    pub cache_readmitted: u64,
    /// Storage bytes not re-read thanks to hits.
    pub cache_bytes_saved: u64,
    /// Block buffers served by fresh allocation.
    pub pool_alloc: u64,
    /// Block buffers served from pool free lists.
    pub pool_reuse: u64,
    /// Batch reads served zero-copy from RAM-tier cache hits.
    pub zero_copy_hits: u64,
    /// Spill-file writes that failed (block dropped to absent).
    pub cache_spill_failures: u64,
    /// Spill orders queued or in flight on the background writer (gauge).
    pub cache_spill_queue_depth: u64,
    /// Times an evictor waited on a spill backlog larger than the RAM tier.
    pub cache_spill_backpressure: u64,
    /// Disk blocks the cache's prefetch executor staged into RAM.
    pub cache_warm_promoted: u64,
    /// Blocks the prefetcher read ahead of demand.
    pub cache_prefetched: u64,
    /// Prefetched reads whose bytes the RAM tier did not admit.
    pub cache_prefetch_wasted: u64,
    /// RAM-tier bytes reserved for prefetch reads in flight (gauge).
    pub cache_ram_reserved: u64,
    /// Blocks served by a peer daemon or a fleet flight handoff.
    pub peer_hits: u64,
    /// Peer fetches the owner answered but did not hold resident.
    pub peer_misses: u64,
    /// Peer-owned reads that degraded to direct storage.
    pub peer_fallbacks: u64,
    /// Payload bytes that arrived from peers instead of shared storage.
    pub peer_bytes: u64,
    /// Transient storage-read failures absorbed by the retry layer.
    pub io_retries: u64,
    /// Storage operations that exhausted the retry budget.
    pub io_giveups: u64,
    /// Nanoseconds send workers spent blocked on a full socket queue.
    pub send_blocked_nanos: u64,
    /// Wall-clock nanoseconds of the most recent serve.
    pub serve_wall_nanos: u64,
    /// Send workers used by the most recent serve.
    pub serve_workers: u64,
    /// Whether a shard cache was configured.
    pub cache_enabled: bool,
}

impl MetricsSnapshot {
    /// The `emlio_path` schema: the name and value of every field the
    /// exporter writes for this snapshot (`serve_wall_nanos` and
    /// `serve_workers` go to `emlio_run` instead, and `cache_hit_rate` is
    /// derived). The one list of exported names — `export.rs` iterates it.
    pub fn path_fields(&self) -> [(&'static str, u64); 30] {
        [
            ("batches", self.batches),
            ("samples", self.samples),
            ("bytes", self.bytes),
            ("read_nanos", self.read_nanos),
            ("codec_nanos", self.codec_nanos),
            ("storage_reads", self.storage_reads),
            ("cache_enabled", self.cache_enabled as u64),
            ("cache_hits", self.cache_hits),
            ("cache_misses", self.cache_misses),
            ("cache_evictions", self.cache_evictions),
            ("cache_disk_hits", self.cache_disk_hits),
            ("cache_readmitted", self.cache_readmitted),
            ("cache_bytes_saved", self.cache_bytes_saved),
            ("pool_alloc", self.pool_alloc),
            ("pool_reuse", self.pool_reuse),
            ("zero_copy_hits", self.zero_copy_hits),
            ("cache_spill_failures", self.cache_spill_failures),
            ("cache_spill_queue_depth", self.cache_spill_queue_depth),
            ("cache_spill_backpressure", self.cache_spill_backpressure),
            ("cache_warm_promoted", self.cache_warm_promoted),
            ("cache_prefetched", self.cache_prefetched),
            ("cache_prefetch_wasted", self.cache_prefetch_wasted),
            ("cache_ram_reserved", self.cache_ram_reserved),
            ("peer_hits", self.peer_hits),
            ("peer_misses", self.peer_misses),
            ("peer_fallbacks", self.peer_fallbacks),
            ("peer_bytes", self.peer_bytes),
            ("io_retries", self.io_retries),
            ("io_giveups", self.io_giveups),
            ("send_blocked_nanos", self.send_blocked_nanos),
        ]
    }

    /// Fraction of cached-path batch reads that hit, in `[0, 1]`.
    /// `None` when no cache is configured or it never saw traffic —
    /// previously both cases reported an ambiguous `0.0`.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let total = self.cache_hits + self.cache_misses;
        if !self.cache_enabled || total == 0 {
            None
        } else {
            Some(self.cache_hits as f64 / total as f64)
        }
    }

    /// One-line cache report for service output. Says `disabled` outright
    /// instead of dressing an unconfigured cache up as a 0% hit rate.
    pub fn cache_summary(&self) -> String {
        match self.cache_hit_rate() {
            None if !self.cache_enabled => "cache: disabled".to_string(),
            rate => format!(
                "cache: {} hits / {} misses ({} hit rate), {} evictions, {} saved",
                self.cache_hits,
                self.cache_misses,
                match rate {
                    Some(r) => format!("{:.1}%", r * 100.0),
                    None => "no traffic, n/a".to_string(),
                },
                self.cache_evictions,
                emlio_util::bytesize::format_bytes(self.cache_bytes_saved),
            ),
        }
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
        m.record_storage_read(100);
        m.add_codec_nanos(50);
        let s = m.snapshot();
        assert_eq!((s.batches, s.samples, s.bytes), (2, 128, 12800));
        assert_eq!(s.read_nanos, 100);
        assert_eq!(s.codec_nanos, 50);
        assert_eq!(s.storage_reads, 1);
    }

    #[test]
    fn cache_counters_and_hit_rate() {
        // Disabled and traffic-free are distinguishable, not both 0.0.
        let bare = DataPathMetrics::shared();
        assert_eq!(bare.snapshot().cache_hit_rate(), None);
        assert_eq!(bare.snapshot().cache_summary(), "cache: disabled");
        let cache = cache();
        let m = over(Some(cache.clone()), None, None);
        assert_eq!(m.snapshot().cache_hit_rate(), None, "no traffic yet");
        assert!(m.snapshot().cache_summary().contains("no traffic"));
        // An enabled cache with only misses reports 0%, not disabled.
        cache.stats().misses.store(1, Ordering::Relaxed);
        assert_eq!(m.snapshot().cache_hit_rate(), Some(0.0));
        cache.stats().hits.store(2, Ordering::Relaxed);
        cache.stats().bytes_saved.store(8192, Ordering::Relaxed);
        cache.stats().evictions.store(5, Ordering::Relaxed);
        let s = m.snapshot();
        assert_eq!((s.cache_hits, s.cache_misses, s.cache_evictions), (2, 1, 5));
        assert_eq!(s.cache_bytes_saved, 8192);
        assert!((s.cache_hit_rate().unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert!(s.cache_summary().contains("66.7% hit rate"));
    }

    #[test]
    fn snapshot_reads_component_counters_fresh() {
        // The cache's own eviction total advances between snapshots, off
        // the data path; each snapshot sees the value of the moment.
        let cache = cache();
        let m = over(Some(cache.clone()), None, None);
        cache.stats().evictions.store(7, Ordering::Relaxed);
        assert_eq!(m.snapshot().cache_evictions, 7);
        cache.stats().evictions.store(19, Ordering::Relaxed);
        assert_eq!(m.snapshot().cache_evictions, 19);
    }

    #[test]
    fn stall_counters() {
        let m = DataPathMetrics::shared();
        m.add_send_blocked_nanos(100);
        m.add_send_blocked_nanos(50);
        m.set_serve_wall(1_000_000, 4);
        let s = m.snapshot();
        assert_eq!(s.send_blocked_nanos, 150);
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
        let s = m.snapshot();
        assert_eq!(
            (s.peer_hits, s.peer_misses, s.peer_fallbacks, s.peer_bytes),
            (10, 2, 1, 640_000)
        );
    }

    #[test]
    fn retry_counters_reconcile() {
        let retry = Arc::new(RetryStats::default());
        let m = over(None, None, Some(retry.clone()));
        retry.retries.store(5, Ordering::Relaxed);
        let s = m.snapshot();
        assert_eq!((s.io_retries, s.io_giveups), (5, 0));
        retry.giveups.store(1, Ordering::Relaxed);
        assert_eq!(m.snapshot().io_giveups, 1);
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
        assert_eq!((s.pool_alloc, s.pool_reuse, s.zero_copy_hits), (1, 1, 88));
    }

    #[test]
    fn zero_copy_hits_of_a_torn_snapshot_saturate() {
        // What a sampler thread can read while every hit so far was a
        // promote: `hits` loaded before the promote bumped either counter,
        // `disk_hits` after.
        let cache = cache();
        let m = over(Some(cache.clone()), None, None);
        cache.stats().hits.store(3, Ordering::Relaxed);
        cache.stats().disk_hits.store(4, Ordering::Relaxed);
        let s = m.snapshot();
        assert_eq!((s.cache_disk_hits, s.zero_copy_hits), (4, 0));
    }

    #[test]
    fn path_fields_name_every_counter_once() {
        // Every field spelled out (no `..`): a counter added to the struct
        // breaks this literal until it is given a value here, and the
        // check below then fails until it is in the table.
        let snap = MetricsSnapshot {
            batches: 101,
            samples: 102,
            bytes: 103,
            read_nanos: 104,
            codec_nanos: 105,
            storage_reads: 106,
            cache_hits: 107,
            cache_misses: 108,
            cache_evictions: 109,
            cache_disk_hits: 110,
            cache_readmitted: 111,
            cache_bytes_saved: 112,
            pool_alloc: 113,
            pool_reuse: 114,
            zero_copy_hits: 115,
            cache_spill_failures: 116,
            cache_spill_queue_depth: 117,
            cache_spill_backpressure: 118,
            cache_warm_promoted: 119,
            peer_hits: 120,
            peer_misses: 121,
            peer_fallbacks: 122,
            peer_bytes: 123,
            io_retries: 124,
            io_giveups: 125,
            send_blocked_nanos: 126,
            cache_prefetched: 127,
            cache_prefetch_wasted: 128,
            cache_ram_reserved: 129,
            serve_wall_nanos: 130, // emlio_run.wall_nanos
            serve_workers: 131,    // emlio_run.workers
            cache_enabled: true,
        };
        let fields = snap.path_fields();
        let names: Vec<&str> = fields.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            [
                "batches",
                "samples",
                "bytes",
                "read_nanos",
                "codec_nanos",
                "storage_reads",
                "cache_enabled",
                "cache_hits",
                "cache_misses",
                "cache_evictions",
                "cache_disk_hits",
                "cache_readmitted",
                "cache_bytes_saved",
                "pool_alloc",
                "pool_reuse",
                "zero_copy_hits",
                "cache_spill_failures",
                "cache_spill_queue_depth",
                "cache_spill_backpressure",
                "cache_warm_promoted",
                "cache_prefetched",
                "cache_prefetch_wasted",
                "cache_ram_reserved",
                "peer_hits",
                "peer_misses",
                "peer_fallbacks",
                "peer_bytes",
                "io_retries",
                "io_giveups",
                "send_blocked_nanos",
            ]
        );
        for value in 101..=129u64 {
            let hits = fields.iter().filter(|(_, v)| *v == value).count();
            assert_eq!(hits, 1, "counter with value {value} exported {hits} times");
        }
        assert_eq!(fields.iter().filter(|(_, v)| *v == 1).count(), 1);
    }
}

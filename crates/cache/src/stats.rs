//! Cache telemetry counters.
//!
//! "Predictive Modeling of I/O Performance for ML Training Pipelines"
//! motivates exposing hit/miss/bytes-saved telemetry so the storage tier
//! can be tuned; these counters are the cache's side of that contract.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters for one [`crate::ShardCache`].
#[derive(Debug, Default)]
pub struct CacheStats {
    /// Demand accesses served from the cache (RAM or disk tier).
    pub hits: AtomicU64,
    /// Demand accesses that had to fetch from storage.
    pub misses: AtomicU64,
    /// Hits served by the disk spill tier (subset of `hits`).
    pub disk_hits: AtomicU64,
    /// Blocks evicted from the RAM tier. With a disk tier that can take
    /// every block, `evictions == spills + clean_evictions +
    /// spill_failures` once the spill queue is flushed.
    pub evictions: AtomicU64,
    /// Spill-file writes that landed: RAM evictions that had to be
    /// written to the disk tier (subset of `evictions`).
    pub spills: AtomicU64,
    /// RAM evictions that needed no write: the block was promoted from
    /// the disk tier earlier and its spill file is still there, so the
    /// slot just flips back to disk-resident (subset of `evictions`).
    pub clean_evictions: AtomicU64,
    /// Blocks loaded by the prefetcher (not demand misses).
    pub prefetched: AtomicU64,
    /// Prefetched reads whose bytes RAM did not admit (subset of
    /// `prefetched`): a storage read paid for and thrown away. The
    /// reserving executor keeps this at 0; it moves only when a block
    /// turns out longer than the length reserved for it.
    pub prefetch_wasted: AtomicU64,
    /// CRC-valid blocks re-admitted from a persistent spill index at
    /// construction (daemon restart).
    pub readmitted: AtomicU64,
    /// Storage bytes *not* read thanks to cache hits.
    pub bytes_saved: AtomicU64,
    /// Spill-file writes that failed; the block dropped to absent (demand
    /// will re-fetch it from storage).
    pub spill_failures: AtomicU64,
    /// Times an evictor waited on the spill backlog: it left more bytes
    /// `Spilling` than the RAM tier holds, and waited for the writer to
    /// bring them back under.
    pub spill_backpressure_waits: AtomicU64,
    /// High-water mark of the spill queue depth (orders queued or in
    /// flight at once).
    pub spill_queue_peak: AtomicU64,
    /// Disk-tier blocks the prefetch executor staged into RAM ahead of
    /// demand (a subset of `prefetched`; never a hit or a disk hit).
    pub warm_promoted: AtomicU64,
}

impl CacheStats {
    /// Plain-value copy of every counter.
    pub fn snapshot(&self) -> CacheStatsSnapshot {
        CacheStatsSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            spills: self.spills.load(Ordering::Relaxed),
            clean_evictions: self.clean_evictions.load(Ordering::Relaxed),
            prefetched: self.prefetched.load(Ordering::Relaxed),
            prefetch_wasted: self.prefetch_wasted.load(Ordering::Relaxed),
            readmitted: self.readmitted.load(Ordering::Relaxed),
            bytes_saved: self.bytes_saved.load(Ordering::Relaxed),
            spill_failures: self.spill_failures.load(Ordering::Relaxed),
            spill_backpressure_waits: self.spill_backpressure_waits.load(Ordering::Relaxed),
            spill_queue_peak: self.spill_queue_peak.load(Ordering::Relaxed),
            warm_promoted: self.warm_promoted.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time values of [`CacheStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStatsSnapshot {
    /// Demand accesses served from the cache.
    pub hits: u64,
    /// Demand accesses that fetched from storage.
    pub misses: u64,
    /// Hits served by the disk spill tier.
    pub disk_hits: u64,
    /// Blocks evicted from the RAM tier.
    pub evictions: u64,
    /// Spill-file writes that landed.
    pub spills: u64,
    /// RAM evictions that needed no write (spill file already there).
    pub clean_evictions: u64,
    /// Blocks loaded by the prefetcher.
    pub prefetched: u64,
    /// Prefetched reads whose bytes RAM did not admit.
    pub prefetch_wasted: u64,
    /// Blocks re-admitted from a persistent spill index.
    pub readmitted: u64,
    /// Storage bytes not read thanks to hits.
    pub bytes_saved: u64,
    /// Spill-file writes that failed (block dropped to absent).
    pub spill_failures: u64,
    /// Evictor waits on a spill backlog larger than the RAM tier.
    pub spill_backpressure_waits: u64,
    /// High-water mark of the spill queue depth.
    pub spill_queue_peak: u64,
    /// Disk blocks the prefetch executor staged into RAM ahead of demand.
    pub warm_promoted: u64,
}

impl CacheStatsSnapshot {
    /// Fraction of demand accesses that hit, in `[0, 1]` (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_math() {
        let s = CacheStats::default();
        assert_eq!(s.snapshot().hit_rate(), 0.0);
        s.hits.store(3, Ordering::Relaxed);
        s.misses.store(1, Ordering::Relaxed);
        assert!((s.snapshot().hit_rate() - 0.75).abs() < 1e-12);
    }
}

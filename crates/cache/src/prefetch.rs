//! Clairvoyant prefetching: warm the RAM tier along the known plan.
//!
//! Because the planner publishes the exact batch order before any data
//! moves, the cache does not have to *react* to accesses — a background
//! thread can walk the same sequence ahead of the send workers and have
//! each block resident before it is demanded.
//!
//! Two things bound and shape the lookahead:
//!
//! * **Staging**: the plan is tiled into
//!   [`prefetch_depth`](crate::CacheConfig::prefetch_depth)-sized windows
//!   and the prefetcher double-buffers — while send workers consume
//!   window N, window N+1 fills into RAM, the boundary flipping forward
//!   when the demand cursor crosses into the next window. The prefetcher
//!   is bounded, so warming the future never evicts the present working
//!   set.
//! * **Batched fetches**: each wakeup grabs the whole *open run* of plan
//!   positions (up to one window) and warms it through
//!   [`emlio_tfrecord::RangeSource::prefetch_blocks`], so plan-adjacent
//!   blocks coalesce into fewer — and, for sources that implement run
//!   coalescing, larger — storage reads instead of one read per block.

use crate::source::CachedSource;
use emlio_tfrecord::RangeSource;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Handle to the background prefetch thread. Stops and joins on drop.
pub struct Prefetcher {
    stop: Arc<AtomicBool>,
    source: Arc<CachedSource>,
    handle: Option<JoinHandle<()>>,
}

impl Prefetcher {
    /// Spawn a prefetcher over `source`'s cache plan (set the plan via
    /// [`crate::CacheCore::set_plan`] first). Each warmed block is read
    /// through the source's inner layer; fetch errors are skipped — the
    /// demand path will surface them. A `prefetch_depth` of 0 yields an
    /// immediately-idle thread that exits.
    pub fn spawn(source: Arc<CachedSource>) -> Prefetcher {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let source2 = source.clone();
        let handle = std::thread::Builder::new()
            .name("emlio-cache-prefetch".into())
            .spawn(move || Self::run(source2, stop2))
            .expect("spawn prefetch thread");
        Prefetcher {
            stop,
            source,
            handle: Some(handle),
        }
    }

    fn run(source: Arc<CachedSource>, stop: Arc<AtomicBool>) {
        let cache = source.cache();
        let seq = cache.plan();
        let depth = cache.config().prefetch_depth as u64;
        if depth == 0 || seq.is_empty() {
            return;
        }
        let mut pos: u64 = 0;
        while !stop.load(Ordering::Relaxed) {
            if pos as usize >= seq.len() {
                return;
            }
            // Grab the open run — bounded by the double buffer ahead of
            // the demand cursor (the cache pings its access condvar on
            // every demand access) and capped at one window per wakeup so
            // a fresh plan does not coalesce into one giant read.
            let open = cache.prefetch_open_run(pos, depth, depth);
            if open == 0 {
                continue; // woke by timeout/stop; re-check
            }
            let end = (pos + open).min(seq.len() as u64) as usize;
            let run = &seq[pos as usize..end];
            pos = end as u64;
            // Fetch errors are skipped — the demand path will surface them.
            let _warmed = source.prefetch_blocks(run);
        }
    }

    /// Ask the thread to stop and wait for it.
    pub fn join(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Wake the thread if it is parked waiting for the cursor to move.
        self.source.cache().wake_prefetch_waiters();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Prefetcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheConfig, ShardCache};
    use crate::policy::EvictPolicy;
    use crate::source::CachedSource;
    use emlio_tfrecord::{BlockKey, FnSource};
    use std::io;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    fn key(i: usize) -> BlockKey {
        BlockKey {
            shard_id: 0,
            start: i,
            end: i + 1,
        }
    }

    #[test]
    fn prefetcher_warms_ahead_of_cursor() {
        let cache = Arc::new(
            ShardCache::new(
                CacheConfig::default()
                    .with_ram_bytes(1 << 20)
                    .with_policy(EvictPolicy::Lru)
                    .with_prefetch_depth(4),
            )
            .unwrap(),
        );
        let seq: Vec<BlockKey> = (0..16).map(key).collect();
        cache.set_plan(seq.clone());
        let reads = Arc::new(AtomicU64::new(0));
        let reads2 = reads.clone();
        let source = Arc::new(CachedSource::new(
            cache.clone(),
            Arc::new(FnSource::new(move |k: &BlockKey| {
                reads2.fetch_add(1, Ordering::Relaxed);
                Ok(vec![k.start as u8; 128])
            })),
        ));
        let pf = Prefetcher::spawn(source.clone());
        // Give the prefetcher time to fill its initial window.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !cache.contains(&key(0)) && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(cache.contains(&key(0)), "window warmed");
        // Consume the whole plan; every demand access must eventually hit.
        for k in &seq {
            let (_, _) = cache
                .get_or_fetch::<io::Error, _, _>(*k, || Ok(vec![0; 128]))
                .unwrap();
        }
        pf.join();
        let s = cache.stats().snapshot();
        assert_eq!(s.hits + s.misses, 16);
        assert!(s.hits > 0, "prefetched blocks hit: {s:?}");
        assert_eq!(
            s.prefetched,
            reads.load(Ordering::Relaxed),
            "every prefetcher read landed in the cache"
        );
    }

    #[test]
    fn depth_zero_prefetcher_exits_idle() {
        let cache =
            Arc::new(ShardCache::new(CacheConfig::default().with_prefetch_depth(0)).unwrap());
        cache.set_plan(vec![key(0)]);
        let source = Arc::new(CachedSource::new(
            cache.clone(),
            Arc::new(FnSource::new(|_k: &BlockKey| Ok(vec![1]))),
        ));
        let pf = Prefetcher::spawn(source);
        pf.join();
        assert!(!cache.contains(&key(0)));
    }
}

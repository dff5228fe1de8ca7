//! Async-data-plane integration tests: the background spill writer, the
//! drain-on-shutdown guarantee for persistent spill indices, the prefetch
//! executor staging a restarted cache's disk tier, and the
//! failed-spill-write regression.
//!
//! These exercise the cache through its public facade exactly the way the
//! daemon's send workers do: demand `get_or_fetch` under eviction
//! pressure, restart by dropping and reopening over the same persist
//! directory, and the executor walking the installed plan.

use emlio::cache::{
    BlockKey, CacheConfig, CacheStatsSnapshot, CachedSource, Fetched, Prefetcher, ShardCache,
};
use emlio::obs::{Stage, StageRecorder};
use emlio::tfrecord::FnSource;
use emlio::util::testutil::{poll_until, TempDir};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const BLOCK: usize = 8 << 10;

fn key(i: usize) -> BlockKey {
    BlockKey {
        shard_id: 0,
        start: i * 10,
        end: (i + 1) * 10,
    }
}

/// Deterministic per-block payload so round-trips can assert byte identity.
fn payload(i: usize) -> Vec<u8> {
    let mut v = vec![0u8; BLOCK];
    for (j, b) in v.iter_mut().enumerate() {
        *b = (i as u8).wrapping_mul(31).wrapping_add(j as u8);
    }
    v
}

fn settled_stats(cache: &ShardCache) -> CacheStatsSnapshot {
    cache.flush_spills();
    cache.stats().snapshot()
}

/// Under demand eviction pressure from multiple "send worker" threads,
/// every spill-file write happens on the background writer thread — the
/// workers only enqueue and move on, so disk I/O never rides the serve
/// path. The writer is the one place a `spill_write` stage sample is
/// taken, once per write attempt: the samples account for every spill.
#[test]
fn send_workers_never_spill_inline() {
    let dir = TempDir::new("async-spill-inline");
    let cache = Arc::new(
        ShardCache::new(
            CacheConfig::default()
                .with_ram_bytes((4 * BLOCK) as u64)
                .with_disk_bytes((256 * BLOCK) as u64)
                .with_spill_dir(dir.path().to_path_buf())
                .with_prefetch_depth(0)
                .with_spill_queue(64),
        )
        .expect("cache"),
    );

    let recorder = StageRecorder::shared();
    cache.set_recorder(recorder.clone());

    let workers: Vec<_> = (0..4)
        .map(|w| {
            let cache = cache.clone();
            std::thread::spawn(move || {
                for i in (w * 32)..(w * 32 + 32) {
                    let (data, _) = cache
                        .get_or_fetch(key(i), || Ok::<_, std::io::Error>(payload(i)))
                        .expect("fetch");
                    assert_eq!(data.len(), BLOCK);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker");
    }

    let s = settled_stats(&cache);
    assert!(s.spills > 0, "eviction pressure produced spills: {s:?}");
    assert_eq!(
        recorder.hist(Stage::SpillWrite).count(),
        s.spills + s.spill_failures,
        "one spill_write sample per write attempt: {s:?}"
    );
    assert_eq!(s.spill_failures, 0, "all writes landed: {s:?}");
}

/// Dropping the cache *without* flushing first must still drain the spill
/// queue before the final index is written: a persistent cache reopened
/// over the same directory re-admits every spilled block, and each one
/// round-trips byte-identical.
#[test]
fn shutdown_drains_queue_and_index_round_trips() {
    let dir = TempDir::new("async-spill-drain");
    let config = CacheConfig::default()
        .with_ram_bytes((2 * BLOCK) as u64)
        .with_disk_bytes((64 * BLOCK) as u64)
        .with_persist_dir(dir.path().to_path_buf())
        .with_prefetch_depth(0)
        .with_spill_queue(64);

    const N: usize = 12;
    {
        let cache = ShardCache::new(config.clone()).expect("cache");
        for i in 0..N {
            let _ = cache
                .get_or_fetch(key(i), || Ok::<_, std::io::Error>(payload(i)))
                .expect("fetch");
        }
        // No flush_spills() here — shutdown itself must drain the queue.
    }

    let cache = ShardCache::new(config).expect("reopen");
    let s = cache.stats().snapshot();
    let disk = cache.disk_keys();
    // RAM capacity held 2 blocks at drop (not indexed); everything evicted
    // before that was spilled and must have been indexed — including any
    // order still queued when the handle dropped.
    assert_eq!(
        disk.len(),
        N - 2,
        "every spilled block re-admitted: {disk:?}"
    );
    assert_eq!(s.readmitted, (N - 2) as u64, "readmission counted: {s:?}");
    for k in disk {
        let i = k.start / 10;
        let got = cache.get(&k).expect("re-admitted block readable");
        assert_eq!(&got[..], &payload(i)[..], "block {i} byte-identical");
    }
}

/// A restarted daemon needs no warm-up step and no budget: its
/// re-admitted disk tier is staged by the prefetch executor like any other
/// planned block, so the first window is served from RAM with zero storage
/// reads and zero demand-path disk promotes. With the prefetcher off the
/// same accesses are demand promotes.
#[test]
fn restart_first_window_is_staged_from_disk_zero_storage_reads() {
    const N: usize = 16;
    const WINDOW: usize = 4;

    for prefetch in [1, 0] {
        let dir = TempDir::new("async-spill-restart");
        let base = CacheConfig::default()
            .with_disk_bytes((64 * BLOCK) as u64)
            .with_persist_dir(dir.path().to_path_buf());
        {
            let cache =
                ShardCache::new(base.clone().with_ram_bytes((32 * BLOCK) as u64)).expect("cache");
            for i in 0..N {
                let _ = cache
                    .get_or_fetch(key(i), || Ok::<_, std::io::Error>(payload(i)))
                    .expect("fetch");
            }
            // Checkpoint the RAM tier into the spill index for the restart.
            let covered = cache.persist_now().expect("checkpoint");
            assert_eq!(covered, N as u64, "index covers the dataset");
        }

        // Restart with RAM for exactly one window; nothing else is set.
        let cache = Arc::new(
            ShardCache::new(
                base.with_ram_bytes((WINDOW * BLOCK) as u64)
                    .with_prefetch_depth(prefetch),
            )
            .expect("reopen"),
        );
        assert_eq!(cache.stats().snapshot().readmitted, N as u64);
        cache.set_plan((0..N).map(key).collect());
        let fetches = Arc::new(AtomicU64::new(0));
        let storage = {
            let fetches = fetches.clone();
            FnSource::new(move |k: &BlockKey| {
                fetches.fetch_add(1, Ordering::Relaxed);
                Ok(payload(k.start / 10))
            })
        };
        let source = Arc::new(CachedSource::new(cache.clone(), Arc::new(storage)));
        let executor = Prefetcher::spawn(source);
        if prefetch == 1 {
            assert!(
                poll_until(Duration::from_secs(10), || {
                    cache.stats().snapshot().warm_promoted == WINDOW as u64
                }),
                "the executor staged the first window from the disk tier"
            );
        }

        for i in 0..WINDOW {
            let (data, via) = cache
                .get_or_fetch(key(i), || {
                    fetches.fetch_add(1, Ordering::Relaxed);
                    Ok::<_, std::io::Error>(payload(i))
                })
                .expect("first-window access");
            let staged = if prefetch == 1 {
                Fetched::Ram
            } else {
                Fetched::Disk
            };
            assert_eq!(via, staged, "block {i}, prefetch {prefetch}");
            assert_eq!(&data[..], &payload(i)[..], "block {i} byte-identical");
        }
        executor.join();
        let s = cache.stats().snapshot();
        assert_eq!(
            fetches.load(Ordering::Relaxed),
            0,
            "zero storage reads in the first window: {s:?}"
        );
        if prefetch == 1 {
            assert_eq!(s.disk_hits, 0, "no demand-path disk promote: {s:?}");
            assert!(s.warm_promoted >= WINDOW as u64, "{s:?}");
            assert_eq!(s.prefetched, s.warm_promoted, "all of it from disk");
        } else {
            assert_eq!((s.disk_hits, s.warm_promoted), (WINDOW as u64, 0), "{s:?}");
        }
    }
}

/// Regression for the silent spill-write failure: when the writer cannot
/// write the spill file, the failure is counted, the slot drops to absent
/// (never a dangling `Spilling`/`Disk` entry), and the block stays
/// servable — the next demand access simply re-fetches from storage.
#[test]
fn failed_spill_write_keeps_block_servable() {
    let tmp = TempDir::new("async-spill-fail");
    let spill_dir = tmp.path().join("spill");
    let cache = ShardCache::new(
        CacheConfig::default()
            .with_ram_bytes((2 * BLOCK) as u64)
            .with_disk_bytes((64 * BLOCK) as u64)
            .with_spill_dir(spill_dir.clone())
            .with_prefetch_depth(0)
            .with_spill_queue(16),
    )
    .expect("cache");

    // Sabotage the spill directory: replace it with a regular file so
    // every spill write fails with ENOTDIR. (A chmod would not do — tests
    // may run as root, where mode bits don't block writes.)
    std::fs::remove_dir_all(&spill_dir).expect("remove spill dir");
    std::fs::write(&spill_dir, b"not a directory").expect("plant file");

    for i in 0..8 {
        let _ = cache
            .get_or_fetch(key(i), || Ok::<_, std::io::Error>(payload(i)))
            .expect("fetch");
    }
    let s = settled_stats(&cache);
    assert!(s.spill_failures > 0, "failures counted, not silent: {s:?}");
    assert_eq!(s.spills, 0, "no write succeeded: {s:?}");
    assert!(cache.disk_keys().is_empty(), "no phantom disk residents");

    // The first block was evicted and its spill failed — it must have
    // dropped to absent and still be servable via a fresh fetch.
    assert_eq!(cache.get(&key(0)), None, "failed spill left slot absent");
    let (data, via) = cache
        .get_or_fetch(key(0), || Ok::<_, std::io::Error>(payload(0)))
        .expect("re-fetch after failed spill");
    assert_eq!(via, Fetched::Storage);
    assert_eq!(&data[..], &payload(0)[..], "re-fetched bytes identical");
}

//! Async-data-plane integration tests: the background spill writer, the
//! drain-on-shutdown guarantee for persistent spill tiers, the prefetch
//! executor staging a restarted cache's disk tier, the failed-spill-write
//! regression, and promoted blocks as views of their spill files — how
//! long a view lives, and what a file damaged before its promote does.
//!
//! These exercise the cache through its public facade exactly the way the
//! daemon's send workers do: demand `get_or_fetch` under eviction
//! pressure, restart by dropping and reopening over the same persist
//! directory, and the executor walking the installed plan.

use emlio::cache::persist::{block_crc, spill_file_name};
use emlio::cache::{
    BlockKey, CacheConfig, CacheStatsSnapshot, CachedSource, Fetched, Prefetcher, ShardCache,
};
use emlio::obs::{Stage, StageRecorder};
use emlio::tfrecord::FnSource;
use emlio::util::testutil::{poll_until, TempDir};
use std::io::{Seek, SeekFrom, Write};
use std::path::PathBuf;
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
/// workers only queue a key and move on, so disk I/O never rides the serve
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
                .with_persist_dir(dir.path().to_path_buf())
                .with_prefetch_depth(0),
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
/// queue into files: a persistent cache reopened over the same directory
/// re-admits every spilled block, and each one round-trips byte-identical.
#[test]
fn shutdown_drains_queue_and_index_round_trips() {
    let dir = TempDir::new("async-spill-drain");
    let config = CacheConfig::default()
        .with_ram_bytes((2 * BLOCK) as u64)
        .with_disk_bytes((64 * BLOCK) as u64)
        .with_persist_dir(dir.path().to_path_buf())
        .with_prefetch_depth(0);

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
    // RAM capacity held 2 blocks at drop (no file); everything evicted
    // before that was spilled and must be re-admitted — including any
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
            // Checkpoint the RAM tier into spill files for the restart.
            let covered = cache.persist_now();
            assert_eq!(covered, N as u64, "the files cover the dataset");
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
            .with_persist_dir(spill_dir.clone())
            .with_prefetch_depth(0),
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

/// A persistent cache over `dir` whose RAM holds one block and whose disk
/// tier holds `disk_blocks`; no plan, so both tiers evict in recency order.
fn one_block_ram(dir: &TempDir, disk_blocks: usize) -> ShardCache {
    ShardCache::new(
        CacheConfig::default()
            .with_ram_bytes(BLOCK as u64)
            .with_disk_bytes((disk_blocks * BLOCK) as u64)
            .with_persist_dir(dir.path().to_path_buf())
            .with_prefetch_depth(0),
    )
    .expect("cache")
}

/// The path of block `i`'s spill file, `payload(i)` being its bytes.
fn spill_path(dir: &TempDir, i: usize) -> PathBuf {
    let crc = block_crc(&key(i), &payload(i));
    dir.path().join(spill_file_name(&key(i), crc))
}

/// A promoted block is a view of its spill file's mapping, and it keeps
/// the bytes it was promoted with whatever later happens at that path:
/// the file retired by the disk tier and the same key spilled there again
/// by this cache, and — once this cache is gone — by the next cache over
/// the directory, after it re-admitted what this one left. (That a write
/// replaces a path's inode rather than rewriting it in place is pinned by
/// `persist`'s `a_rewrite_replaces_the_file_and_a_view_keeps_its_bytes`.)
#[test]
fn promoted_view_outlives_its_file_and_a_respill_at_the_same_path() {
    let dir = TempDir::new("async-spill-view");
    let (view, again) = {
        let cache = one_block_ram(&dir, 1);
        cache.insert(key(0), payload(0));
        cache.insert(key(1), payload(1)); // evicts 0: written
        cache.flush_spills();
        // Promote 0; its eviction of 1 needs the one-block tier, which
        // reclaims 0's file — now only a duplicate of the resident.
        let view = cache.get(&key(0)).expect("promote");
        cache.flush_spills();
        assert!(!spill_path(&dir, 0).exists(), "0's file is retired");
        assert_eq!(&view[..], &payload(0)[..]);

        // 0 evicted again: spilled anew, to the same path.
        cache.insert(key(2), payload(2));
        cache.flush_spills();
        assert!(spill_path(&dir, 0).exists(), "0 is spilled again");
        assert_eq!(cache.disk_keys(), vec![key(0)]);
        assert_eq!(&view[..], &payload(0)[..], "the view keeps its bytes");

        // Promote 0 once more, from the new file — whose place 2's spill
        // then takes — and let the cache go: the views keep the mappings.
        let again = cache.get(&key(0)).expect("promote from the new file");
        assert_eq!(&again[..], &payload(0)[..]);
        (view, again)
    };
    assert!(!spill_path(&dir, 0).exists());
    assert!(spill_path(&dir, 2).exists(), "kept for a restart");

    // The next cache over the directory re-admits 2's file and spills 0
    // at the same path once more; every view of 0 keeps its bytes.
    let cache = one_block_ram(&dir, 4);
    assert_eq!(cache.disk_keys(), vec![key(2)]);
    cache.insert(key(0), payload(0));
    cache.insert(key(1), payload(1)); // evicts 0: written
    cache.flush_spills();
    assert!(spill_path(&dir, 0).exists());
    assert_eq!(&cache.get(&key(0)).expect("promote")[..], &payload(0)[..]);
    assert_eq!(&view[..], &payload(0)[..]);
    assert_eq!(&again[..], &payload(0)[..]);
}

/// A spill file cut below its recorded length before its promote — a
/// whole page lost, or the last byte — is a miss: the file is retired,
/// the tier's accounting lets go of it, storage serves the block, and the
/// process stays alive. Peers' in-place reads refuse it the same way.
#[test]
fn spill_file_cut_short_is_a_miss_and_is_retired() {
    let dir = TempDir::new("async-spill-cut");
    let cache = one_block_ram(&dir, 4);
    for i in 0..3 {
        cache.insert(key(i), payload(i)); // 0 and 1 spill
    }
    cache.flush_spills();
    assert_eq!(cache.disk_bytes_used(), (2 * BLOCK) as u64);
    for (i, cut) in [(0, 4096), (1, BLOCK - 1)] {
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(spill_path(&dir, i))
            .unwrap();
        file.set_len(cut as u64).unwrap();
    }
    assert_eq!(cache.peek(&key(1)), None, "peek refuses it, in place");
    for i in 0..2 {
        assert_eq!(cache.get(&key(i)), None, "block {i}: a miss");
        assert!(!spill_path(&dir, i).exists(), "block {i}: retired");
    }
    assert_eq!(cache.disk_bytes_used(), 0);
    assert_eq!(
        (cache.stats().snapshot().disk_hits, cache.ram_bytes_used()),
        (0, BLOCK as u64)
    );
    let (data, via) = cache
        .get_or_fetch(key(0), || Ok::<_, std::io::Error>(payload(0)))
        .unwrap();
    assert_eq!((via, &data[..]), (Fetched::Storage, &payload(0)[..]));
}

/// A spill file whose bytes are changed in place — same inode, same
/// length, one byte flipped — before its promote fails the CRC over the
/// view: a miss, and the file is retired.
#[test]
fn spill_file_rewritten_in_place_is_a_miss() {
    let dir = TempDir::new("async-spill-rewrite");
    let cache = one_block_ram(&dir, 4);
    cache.insert(key(0), payload(0));
    cache.insert(key(1), payload(1)); // 0 spills
    cache.flush_spills();
    let path = spill_path(&dir, 0);
    let mut file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    file.seek(SeekFrom::Start(5000)).unwrap();
    file.write_all(&[!payload(0)[5000]]).unwrap();
    drop(file);
    assert_eq!(std::fs::metadata(&path).unwrap().len(), BLOCK as u64);
    assert_eq!(cache.get(&key(0)), None, "flipped bytes are not served");
    assert!(!path.exists(), "the file is retired");
    assert_eq!(cache.disk_bytes_used(), 0);
}

/// A `*.blk.tmp` left by a writer that died mid-write is deleted when a
/// persistent cache opens over the directory; other files are not.
#[test]
fn stale_spill_tmp_files_are_removed_when_a_persistent_cache_opens() {
    let dir = TempDir::new("async-spill-tmp");
    let stale = dir
        .path()
        .join(format!("{}.tmp", spill_file_name(&key(3), 3)));
    let other = dir.path().join("notes.txt");
    std::fs::write(&stale, b"half a block").unwrap();
    std::fs::write(&other, b"not the cache's").unwrap();
    let _cache = ShardCache::new(
        CacheConfig::default()
            .with_ram_bytes(BLOCK as u64)
            .with_disk_bytes((4 * BLOCK) as u64)
            .with_persist_dir(dir.path().to_path_buf()),
    )
    .expect("cache");
    assert!(!stale.exists(), "the half-written file is gone");
    assert!(other.exists());
}

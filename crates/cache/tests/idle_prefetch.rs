//! A prefetch executor with nothing it may stage sleeps: parked on the
//! cache's `room` condvar, it wakes for a demand access, a reservation's
//! end, a block landing by `insert` or its stop — never on a clock, and not
//! for the wake-ups the spill writer and its flushes trade on `spill`. This
//! has its own test binary, so the one `emlio-prefetch` thread in the
//! process is this test's.
#![cfg(target_os = "linux")]

use emlio_cache::{
    BlockKey, BlockRead, CacheConfig, CachedSource, Prefetcher, RangeSource, ReadOrigin, ShardCache,
};
use emlio_tfrecord::RecordError;
use emlio_util::testutil::TempDir;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BLOCK: u64 = 100;

fn key(i: usize) -> BlockKey {
    BlockKey {
        shard_id: 0,
        start: i,
        end: i + 1,
    }
}

/// Storage that knows every block's length, so the executor's issue rule
/// weighs each block before it reads it.
struct Sized;

impl RangeSource for Sized {
    fn read_block(&self, key: &BlockKey) -> Result<BlockRead, RecordError> {
        Ok(BlockRead {
            data: vec![key.start as u8; BLOCK as usize].into(),
            origin: ReadOrigin::Direct,
            read_nanos: 0,
        })
    }

    fn block_len(&self, _key: &BlockKey) -> Option<u64> {
        Some(BLOCK)
    }

    fn describe(&self) -> String {
        "sized".to_string()
    }
}

/// `/proc/self/task/<tid>` of the executor thread.
fn executor() -> PathBuf {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let found = std::fs::read_dir("/proc/self/task")
            .unwrap()
            .map(|task| task.unwrap().path())
            .find(|task| {
                std::fs::read_to_string(task.join("comm"))
                    .is_ok_and(|comm| comm.trim_end() == "emlio-prefetch")
            });
        if let Some(task) = found {
            return task;
        }
        assert!(Instant::now() < deadline, "no emlio-prefetch thread");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn voluntary_switches(task: &Path) -> u64 {
    std::fs::read_to_string(task.join("status"))
        .unwrap()
        .lines()
        .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
        .expect("a voluntary_ctxt_switches line")
        .trim()
        .parse()
        .unwrap()
}

#[test]
fn an_executor_parked_for_room_stays_parked() {
    // RAM for eight blocks, all resident and needed first: the plan's
    // ninth position waits for room the paused consumer never frees.
    let dir = TempDir::new("idle-prefetch");
    let cache = Arc::new(
        ShardCache::new(
            CacheConfig::default()
                .with_ram_bytes(8 * BLOCK)
                .with_disk_bytes(16 * BLOCK)
                .with_persist_dir(dir.path().to_path_buf()),
        )
        .unwrap(),
    );
    cache.set_plan((0..10).map(key).collect());
    for i in 0..8 {
        cache.insert(key(i), vec![i as u8; BLOCK as usize]);
    }
    let source = Arc::new(CachedSource::new(cache.clone(), Arc::new(Sized)));
    let prefetcher = Prefetcher::spawn(source);
    let task = executor();
    std::thread::sleep(Duration::from_millis(20));

    // A checkpoint meanwhile writes the eight residents through the spill
    // writer: nine `spill` wake-ups, none of them the executor's.
    let before = voluntary_switches(&task);
    let t0 = Instant::now();
    assert_eq!(cache.persist_now(), 8);
    std::thread::sleep(Duration::from_millis(500).saturating_sub(t0.elapsed()));
    let woke = voluntary_switches(&task) - before;
    assert!(woke <= 3, "the parked executor woke {woke} times in 500 ms");
    assert_eq!(cache.ram_budget(), (8 * BLOCK, 0), "nothing was staged");

    // Asleep is not deaf: the stop still reaches it, and the drop that
    // joins it returns.
    let (done, dropped) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        drop(prefetcher);
        let _ = done.send(());
    });
    let joined = dropped.recv_timeout(Duration::from_millis(100));
    assert!(joined.is_ok(), "dropping the prefetcher took over 100 ms");
}

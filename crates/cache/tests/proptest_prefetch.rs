//! Property test for the reserving prefetch executor: for *any* plan
//! (repeated keys included), any block sizes, any RAM budget, any subset
//! of the blocks starting out disk-only (a restarted persistent tier) and
//! any order in which storage completes its reads, while a consumer walks
//! the plan — at its own pace, or waiting for each block to be staged —
//!
//! * `ram_used + ram_reserved` never exceeds the budget,
//! * never more than [`MAX_IN_FLIGHT`] prefetch reads are out,
//! * every storage read is used — it is either a demand miss or a
//!   prefetch whose bytes the RAM tier admitted (`prefetch_wasted == 0`
//!   whenever the stack can tell a block's length beforehand),
//! * no resident needed sooner than a staged position is evicted for it:
//!   a consumer that waits for its block to be staged always finds it, so
//!   it never misses (the executor is past that position and would never
//!   stage it again: an eviction there would leave the consumer waiting),
//! * a block the disk tier holds is staged from its spill file (where
//!   there is free room; promoted on demand where not) and keeps it as
//!   its backing: storage is never asked for it, and its evictions write
//!   nothing,
//! * every access gets its block's bytes, and
//! * everything ends: no reservation outlives its read, the executor
//!   joins.
//!
//! Storage reads park at a gate and the test lets them through one at a
//! time, so completion order is the test's draw, not the scheduler's;
//! which reads are parked at each draw (and when a spill-file read
//! lands) is the scheduler's, and the properties hold whichever it is.

use emlio_cache::prefetch::MAX_IN_FLIGHT;
use emlio_cache::{
    BlockKey, BlockRead, CacheConfig, CachedSource, Prefetcher, RangeSource, ReadOrigin, ShardCache,
};
use emlio_tfrecord::RecordError;
use emlio_util::testutil::{poll_until, TempDir};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

fn key(i: usize) -> BlockKey {
    BlockKey {
        shard_id: 0,
        start: i,
        end: i + 1,
    }
}

fn payload(i: usize, len: usize) -> Vec<u8> {
    vec![i as u8; len]
}

#[derive(Default)]
struct GateState {
    /// Parked reads by ticket; the value is the key index.
    parked: BTreeMap<u64, usize>,
    /// Tickets let through.
    open: Vec<u64>,
    next_ticket: u64,
    reads: u64,
    /// Key indices storage was asked for.
    asked: BTreeSet<usize>,
    most_parked: usize,
}

/// Storage whose reads park until the test lets them through.
struct Gate {
    sizes: Vec<usize>,
    knows_len: bool,
    state: Mutex<GateState>,
    cv: Condvar,
}

impl Gate {
    /// Wait for a parked read, or for `done`; let the `pick`-th parked
    /// read through. Returns whether there is more to do.
    fn let_one_through(&self, pick: usize, done: &AtomicBool) -> bool {
        let mut state = self.state.lock().unwrap();
        while state.parked.is_empty() {
            if done.load(Ordering::SeqCst) {
                return false;
            }
            // `done` is set outside the lock: look again before long.
            state = self
                .cv
                .wait_timeout(state, std::time::Duration::from_millis(1))
                .unwrap()
                .0;
        }
        let ticket = *state.parked.keys().nth(pick % state.parked.len()).unwrap();
        state.parked.remove(&ticket);
        state.open.push(ticket);
        self.cv.notify_all();
        true
    }
}

impl RangeSource for Gate {
    fn read_block(&self, k: &BlockKey) -> Result<BlockRead, RecordError> {
        let mut state = self.state.lock().unwrap();
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        state.reads += 1;
        state.asked.insert(k.start);
        state.parked.insert(ticket, k.start);
        state.most_parked = state.most_parked.max(state.parked.len());
        self.cv.notify_all();
        while !state.open.contains(&ticket) {
            state = self.cv.wait(state).unwrap();
        }
        drop(state);
        Ok(BlockRead {
            data: payload(k.start, self.sizes[k.start]).into(),
            origin: ReadOrigin::Direct,
            read_nanos: 0,
        })
    }

    fn block_len(&self, k: &BlockKey) -> Option<u64> {
        self.knows_len.then_some(self.sizes[k.start] as u64)
    }

    fn describe(&self) -> String {
        "gate".into()
    }
}

/// Sets the flag when dropped, so a thread that panics still ends the
/// loop waiting on it.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn reserved_window_keeps_its_invariants(
        sizes in vec(1usize..200, 1..12),
        trace in vec(0usize..12, 1..40),
        // RAM budget in tenths of the largest block: from "one block at a
        // time" to "most of the plan".
        budget_tenths in 10u64..80,
        picks in vec(0usize..16, 1..32),
        knows_len in any::<bool>(),
        // Which blocks a previous run left in the persistent disk tier.
        on_disk in vec(any::<bool>(), 12),
        // Whether the consumer waits for each block to be staged.
        patient in any::<bool>(),
    ) {
        let seq: Vec<BlockKey> = trace.iter().map(|&i| key(i % sizes.len())).collect();
        let largest = *sizes.iter().max().unwrap() as u64;
        let ram = largest * budget_tenths / 10;
        // A disk tier with room for every block: no file is ever reclaimed.
        let dir = TempDir::new("proptest-prefetch");
        let total: u64 = sizes.iter().map(|&s| s as u64).sum();
        let config = CacheConfig::default()
            .with_disk_bytes(total)
            .with_persist_dir(dir.path().to_path_buf());
        let disk_only: BTreeSet<usize> =
            (0..sizes.len()).filter(|&i| on_disk[i]).collect();
        {
            let previous = ShardCache::new(config.clone().with_ram_bytes(total)).unwrap();
            for &i in &disk_only {
                previous.insert(key(i), payload(i, sizes[i]));
            }
            prop_assert_eq!(previous.persist_now().unwrap(), disk_only.len() as u64);
        }
        let cache = Arc::new(ShardCache::new(config.with_ram_bytes(ram)).unwrap());
        prop_assert_eq!(cache.disk_keys().len(), disk_only.len());
        let disk_only_bytes = cache.disk_bytes_used();
        cache.set_plan(seq.clone());
        let gate = Arc::new(Gate {
            sizes: sizes.clone(),
            knows_len,
            state: Mutex::default(),
            cv: Condvar::new(),
        });
        let source = Arc::new(CachedSource::new(cache.clone(), gate.clone()));
        let prefetcher = Prefetcher::spawn(source.clone());

        let done = AtomicBool::new(false);
        let over_budget = std::thread::scope(|s| {
            let consumer = s.spawn(|| {
                let _done = SetOnDrop(&done);
                seq.iter()
                    .map(|k| {
                        // A block that can never fit is never staged, and
                        // one that lands larger than the stack could say
                        // makes its room out of whatever is furthest.
                        if patient && knows_len && sizes[k.start] as u64 <= ram {
                            let staged = poll_until(std::time::Duration::from_secs(20), || {
                                cache.contains(k)
                            });
                            assert!(staged, "{k:?} was never staged, or evicted since");
                        }
                        source.read_block(k).unwrap()
                    })
                    .collect::<Vec<BlockRead>>()
            });
            // Storage completes its reads in the order the draw says.
            let mut over_budget = None;
            let mut draw = picks.iter().cycle();
            while gate.let_one_through(*draw.next().unwrap(), &done) {
                let (used, reserved) = cache.ram_budget();
                if used + reserved > ram {
                    over_budget = Some((used, reserved));
                }
            }
            let served = consumer.join().unwrap();
            for (k, read) in seq.iter().zip(&served) {
                assert_eq!(&read.data[..], &payload(k.start, sizes[k.start])[..], "{k:?}");
            }
            over_budget
        });
        // Reads the executor still has out are let through by nobody:
        // stopping it gives their reservations back once they return.
        let gate2 = gate.clone();
        let stopped = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| while gate2.let_one_through(0, &stopped) {});
            let _stopped = SetOnDrop(&stopped);
            prefetcher.join();
        });

        cache.flush_spills();
        prop_assert_eq!(over_budget, None, "(used, reserved) over {}", ram);
        prop_assert_eq!(cache.ram_budget().1, 0, "a reservation outlived its read");
        let (used, _) = cache.ram_budget();
        prop_assert_eq!((used, cache.disk_bytes_used()), cache.slot_bytes(),
            "accounting matches the slots");
        let stats = cache.stats().snapshot();
        let gate = gate.state.lock().unwrap();
        prop_assert_eq!(stats.hits + stats.misses, seq.len() as u64);
        prop_assert_eq!(stats.prefetched - stats.warm_promoted + stats.misses, gate.reads,
            "a storage read that was neither a prefetch nor a demand miss");
        // The disk tier's blocks never left it: staged or promoted over
        // their files, evicted by slot flip, never read from storage.
        prop_assert!(gate.asked.is_disjoint(&disk_only), "{:?}", gate.asked);
        prop_assert!(disk_only.iter().all(|&i| cache.contains(&key(i))));
        prop_assert!(cache.disk_bytes_used() >= disk_only_bytes);
        prop_assert!(stats.spills <= gate.asked.len() as u64, "write-once: {:?}", stats);
        prop_assert_eq!(stats.evictions, stats.spills + stats.clean_evictions);
        if patient && knows_len {
            let never_fit = seq.iter()
                .filter(|k| sizes[k.start] as u64 > ram && !disk_only.contains(&k.start))
                .count() as u64;
            prop_assert_eq!(stats.misses, never_fit, "a staged block was missed: {:?}", stats);
        }
        // One more than the cap: the consumer's own demand miss.
        prop_assert!(gate.most_parked <= MAX_IN_FLIGHT + 1, "{} reads out", gate.most_parked);
        if knows_len {
            prop_assert_eq!(stats.prefetch_wasted, 0);
        }
    }
}

//! Property test for the reserving prefetch executor: for *any* plan
//! (repeated keys included), any block sizes, any RAM budget and any order
//! in which storage completes its reads, while a consumer walks the plan
//! at its own pace,
//!
//! * `ram_used + ram_reserved` never exceeds the budget,
//! * never more than [`MAX_IN_FLIGHT`] prefetch reads are out,
//! * every storage read is used — it is either a demand miss or a
//!   prefetch whose bytes the RAM tier admitted (`prefetch_wasted == 0`
//!   whenever the stack can tell a block's length beforehand),
//! * every access gets its block's bytes, and
//! * everything ends: no reservation outlives its read, the executor
//!   joins.
//!
//! Reads park at a gate and the test lets them through one at a time, so
//! completion order is the test's draw, not the scheduler's; which reads
//! are parked at each draw is the scheduler's, and the properties hold
//! whichever it is.

use emlio_cache::prefetch::MAX_IN_FLIGHT;
use emlio_cache::{
    BlockKey, BlockRead, CacheConfig, CachedSource, Prefetcher, RangeSource, ReadOrigin, ShardCache,
};
use emlio_tfrecord::RecordError;
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeMap;
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
    ) {
        let seq: Vec<BlockKey> = trace.iter().map(|&i| key(i % sizes.len())).collect();
        let largest = *sizes.iter().max().unwrap() as u64;
        let ram = largest * budget_tenths / 10;
        let cache = Arc::new(
            ShardCache::new(CacheConfig::default().with_ram_bytes(ram)).unwrap(),
        );
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
                    .map(|k| source.read_block(k).unwrap())
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

        prop_assert_eq!(over_budget, None, "(used, reserved) over {}", ram);
        prop_assert_eq!(cache.ram_budget().1, 0, "a reservation outlived its read");
        let (used, _) = cache.ram_budget();
        prop_assert_eq!((used, 0), cache.slot_bytes(), "accounting matches the slots");
        let stats = cache.stats().snapshot();
        let gate = gate.state.lock().unwrap();
        prop_assert_eq!(stats.hits + stats.misses, seq.len() as u64);
        prop_assert_eq!(stats.prefetched + stats.misses, gate.reads,
            "a storage read that was neither a prefetch nor a demand miss");
        // One more than the cap: the consumer's own demand miss.
        prop_assert!(gate.most_parked <= MAX_IN_FLIGHT + 1, "{} reads out", gate.most_parked);
        if knows_len {
            prop_assert_eq!(stats.prefetch_wasted, 0);
        }
    }
}

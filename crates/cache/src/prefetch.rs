//! Clairvoyant prefetching: keep the storage pipe full along the known plan.
//!
//! Because the planner publishes the exact batch order before any data
//! moves, the cache does not have to *react* to accesses: staging is a
//! budget problem. One executor walks the plan ahead of the send workers:
//!
//! * **One stager.** A planned block that is not in RAM is staged from
//!   whichever tier holds it: a disk-only block is read back from its
//!   spill file (and keeps it as its backing), any other from storage.
//!   Storage is far, so a storage block is worth evicting for (the issue
//!   rule below); a spill file is near, so a disk-only block is staged
//!   into free room only and otherwise left to a demand promote — which
//!   keeps what the plan-driven order would keep. A restarted daemon's
//!   RAM tier is all free room: its first window is staged from the
//!   re-admitted disk tier with no separate warm-up step.
//! * **Issue rule.** Position `p` is issued the moment
//!   `ram_reserved + bytes of residents needed before p + len(p)` fits in
//!   [`ram_bytes`](crate::CacheConfig::ram_bytes)
//!   ([`CacheCore::reserve_prefetch`](crate::CacheCore)). The reservation
//!   makes its room and claims the block's slot in the critical section
//!   that found the rule satisfied, evicting only what the plan needs
//!   later than `p`, so in-flight buffers sit inside the RAM budget. In a
//!   fleet, a position whose block another member owns is never issued
//!   here — its owner stages it ([`crate::FleetRegistry`]) — and a block
//!   this member read that a slower member has not (a position in
//!   `[floor, cursor)`) counts as needed before `p`.
//! * **Admission.** The block lands in its reservation: no prefetched
//!   read is declined, and none evicts a block needed sooner — however
//!   out of order the reads complete.
//! * **Refill.** A slot is refilled as soon as the demand cursor moves
//!   past a block, not at a window boundary — in a fleet, as soon as the
//!   fleet's floor, its slowest member's cursor, does: the number of reads
//!   in flight is what the RAM tier holds, less what is staged already and
//!   what is kept for a slower member. The members walk the plan in
//!   lockstep (a demand access claims a position only once the floor has
//!   reached it), so what is kept is at most a position or so, and the
//!   fleet's window is every member's RAM tier: each stages the blocks it
//!   owns, an exact share of the plan.
//! * **Overlap.** Each read runs on a helper thread that lives only as
//!   long as the read, at most [`MAX_IN_FLIGHT`] at once; when no thread
//!   can be started, the executor reads the position itself (counted as
//!   `prefetch_inline`) and walks on. A plan that is resident issues
//!   nothing and the executor sleeps on the cache's `room` condvar, which
//!   every demand access signals.
//!
//! There is no switch: the plan fixes the access sequence before any byte
//! moves, so staging along it is the policy for every cache that has one.

use crate::cache::{Issue, Reservation};
use crate::source::CachedSource;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{JoinHandle, Scope};

/// Most prefetch reads in flight at once: an NFS client's RPC slot table
/// (`sunrpc.tcp_slot_table_entries`, 16 on a stock Linux mount). Under it
/// the RAM budget decides. This is the stack's one overlap bound: every
/// layer below the cache serves one `read_block` per call.
pub const MAX_IN_FLIGHT: usize = 16;

/// Handle to the background prefetch executor. Stops and joins on drop.
pub struct Prefetcher {
    source: Arc<CachedSource>,
    handle: Option<JoinHandle<()>>,
}

impl Prefetcher {
    /// Spawn the executor over `source`'s cache plan (set the plan via
    /// [`crate::CacheCore::set_plan`] first). Each staged block is read
    /// from its spill file when the disk tier holds it, else through the
    /// source's inner layer; fetch errors are skipped — the demand path
    /// will surface them. One executor per cache: its stop holds for the
    /// cache until the next plan.
    pub fn spawn(source: Arc<CachedSource>) -> Prefetcher {
        let source2 = source.clone();
        let handle = std::thread::Builder::new()
            .name("emlio-prefetch".into())
            .spawn(move || Self::run(&source2))
            .expect("spawn prefetch thread");
        Prefetcher {
            source,
            handle: Some(handle),
        }
    }

    fn run(source: &CachedSource) {
        let cache = source.cache();
        let seq = cache.plan();
        // What a block is taken to weigh when the stack cannot say.
        let largest = AtomicU64::new(0);
        // The scope joins the helpers: reads still out when the walk ends
        // (or is stopped) land, or give their reservation back, first.
        std::thread::scope(|helpers| {
            for (pos, key) in seq.iter().enumerate() {
                let len = source
                    .inner()
                    .block_len(key)
                    .unwrap_or_else(|| largest.load(Ordering::SeqCst));
                let (pos, largest) = (pos as u64, &largest);
                let issue = || cache.reserve_prefetch(pos, key, len);
                // A failed read drops the reservation; the demand path will
                // surface the error.
                let stage = move |reservation: Reservation<'_>| {
                    reservation.fill(|| {
                        let read = source.inner().read_block(key).ok()?;
                        largest.fetch_max(read.data.len() as u64, Ordering::SeqCst);
                        Some(read.data)
                    })
                };
                let reservation = match issue() {
                    Issue::Read(reservation) => reservation,
                    Issue::Skip => continue,
                    Issue::Stop => return,
                };
                if spawn_read(helpers, move || stage(reservation)).is_ok() {
                    continue;
                }
                // No thread to be had: the reservation went back with the
                // closure. Issue the position again and read it here.
                cache
                    .stats()
                    .prefetch_inline
                    .fetch_add(1, Ordering::Relaxed);
                match issue() {
                    Issue::Read(reservation) => stage(reservation),
                    Issue::Skip => {}
                    Issue::Stop => return,
                }
            }
        });
    }

    /// Ask the executor to stop and wait for it.
    pub fn join(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        // Parked waiting for room or not, the executor's next issue step
        // stops it.
        self.source.cache().stop_prefetcher();
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

/// Start the helper thread of one staging read.
fn spawn_read<'scope>(
    helpers: &'scope Scope<'scope, '_>,
    read: impl FnOnce() + Send + 'scope,
) -> io::Result<()> {
    #[cfg(test)]
    if tests::NO_HELPERS.with(std::cell::Cell::get) {
        return Err(io::Error::other("no helper thread on this test's executor"));
    }
    let helper = std::thread::Builder::new().name("emlio-pf-read".into());
    helper.spawn_scoped(helpers, read).map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheConfig, ShardCache};
    use crate::source::CachedSource;
    use emlio_tfrecord::{BlockKey, BlockRead, FnSource, RangeSource, ReadOrigin, RecordError};
    use std::collections::BTreeSet;
    use std::io;
    use std::sync::{Condvar, Mutex};
    use std::time::{Duration, Instant};

    fn key(i: usize) -> BlockKey {
        BlockKey {
            shard_id: 0,
            start: i,
            end: i + 1,
        }
    }

    thread_local! {
        /// Set on an executor's thread: every helper thread it asks for
        /// fails to start.
        pub(super) static NO_HELPERS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }

    #[test]
    fn an_executor_that_gets_no_helper_thread_reads_each_position_itself() {
        let cache =
            Arc::new(ShardCache::new(CacheConfig::default().with_ram_bytes(1 << 20)).unwrap());
        let seq: Vec<BlockKey> = (0..8).map(key).collect();
        cache.set_plan(seq.clone());
        let source = CachedSource::new(
            cache.clone(),
            Arc::new(FnSource::new(|k: &BlockKey| Ok(vec![k.start as u8; 128]))),
        );
        // The walk runs on this thread, where no helper can be started.
        NO_HELPERS.with(|none| none.set(true));
        Prefetcher::run(&source);
        NO_HELPERS.with(|none| none.set(false));
        let s = cache.stats().snapshot();
        assert_eq!((s.prefetched, s.prefetch_inline), (8, 8), "{s:?}");
        for k in &seq {
            assert!(cache.contains(k), "{k:?} staged");
        }
    }

    #[test]
    fn prefetcher_warms_ahead_of_cursor() {
        let cache =
            Arc::new(ShardCache::new(CacheConfig::default().with_ram_bytes(1 << 20)).unwrap());
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
        // Give the prefetcher time to stage the head of the plan.
        let deadline = Instant::now() + Duration::from_secs(5);
        while !cache.contains(&key(0)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(cache.contains(&key(0)), "head of the plan staged");
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
            (s.prefetched, s.prefetch_wasted),
            (reads.load(Ordering::Relaxed), 0),
            "every prefetcher read landed in the cache"
        );
    }

    /// Storage that knows its block lengths and whose reads park until the
    /// test lets them through, so the order they complete in is the test's
    /// choice, not the scheduler's.
    #[derive(Default)]
    struct Gate {
        /// `(parked, let through, everything let through)`.
        state: Mutex<(BTreeSet<usize>, BTreeSet<usize>, bool)>,
        cv: Condvar,
    }

    /// Lets every read through when the test unwinds, so a failed
    /// assertion fails the test instead of hanging its threads.
    struct OpenOnDrop<'a>(&'a Gate);

    impl Drop for OpenOnDrop<'_> {
        fn drop(&mut self) {
            self.0.state.lock().unwrap().2 = true;
            self.0.cv.notify_all();
        }
    }

    impl Gate {
        fn pass(&self, i: usize) {
            let mut state = self.state.lock().unwrap();
            state.0.insert(i);
            self.cv.notify_all();
            while !state.1.contains(&i) && !state.2 {
                state = self.cv.wait(state).unwrap();
            }
            state.0.remove(&i);
        }

        /// Wait until `n` reads are parked; their indices, ascending.
        fn parked(&self, n: usize) -> Vec<usize> {
            let mut state = self.state.lock().unwrap();
            while state.0.len() < n && !state.2 {
                state = self.cv.wait(state).unwrap();
            }
            state.0.iter().copied().collect()
        }

        /// Wait until the read of block `i` is parked, or was and has
        /// been let through.
        fn issued(&self, i: usize) {
            let mut state = self.state.lock().unwrap();
            while !state.0.contains(&i) && !state.1.contains(&i) && !state.2 {
                state = self.cv.wait(state).unwrap();
            }
        }

        fn open(&self, i: usize) {
            self.state.lock().unwrap().1.insert(i);
            self.cv.notify_all();
        }
    }

    const LEN: usize = 100;

    impl RangeSource for Gate {
        fn read_block(&self, k: &BlockKey) -> Result<BlockRead, RecordError> {
            self.pass(k.start);
            Ok(BlockRead {
                data: vec![k.start as u8; LEN].into(),
                origin: ReadOrigin::Direct,
                read_nanos: 0,
            })
        }

        fn block_len(&self, _: &BlockKey) -> Option<u64> {
            Some(LEN as u64)
        }

        fn describe(&self) -> String {
            "gate".into()
        }
    }

    /// The executor keeps `ram / len` reads out — one for the block under
    /// the cursor, the rest past it — lands them in whatever order they
    /// complete without declining one or evicting a sooner-needed block,
    /// refills a slot the moment the cursor releases it, and leaves the
    /// consumer nothing to miss: parked on a read in flight or served from
    /// RAM, every demand access is a hit.
    #[test]
    fn executor_slides_a_reserved_window_under_out_of_order_completion() {
        const SLOTS: usize = 6;
        const ROUNDS: usize = 4;
        let ram = (SLOTS * LEN + LEN / 2) as u64;
        let cache = Arc::new(ShardCache::new(CacheConfig::default().with_ram_bytes(ram)).unwrap());
        let seq: Vec<BlockKey> = (0..SLOTS * ROUNDS).map(key).collect();
        cache.set_plan(seq.clone());
        let gate = Arc::new(Gate::default());
        let source = Arc::new(CachedSource::new(cache.clone(), gate.clone()));
        let pf = Prefetcher::spawn(source.clone());
        let within_budget = || {
            let (used, reserved) = cache.ram_budget();
            assert!(used + reserved <= ram, "{used} + {reserved} > {ram}");
            reserved
        };
        let landed = |i: usize| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !cache.contains(&key(i)) {
                assert!(Instant::now() < deadline, "block {i} never landed");
                std::thread::yield_now();
            }
        };

        std::thread::scope(|s| {
            let _unpark = OpenOnDrop(&gate);
            let mut consumer = None;
            for round in 0..ROUNDS {
                // Every slot is a read in flight: the RAM budget, not a
                // position count, is what stops the executor here.
                let parked = gate.parked(SLOTS);
                let want: Vec<usize> = (round * SLOTS..(round + 1) * SLOTS).collect();
                assert_eq!(parked, want);
                assert_eq!(within_budget(), (SLOTS * LEN) as u64);
                // The consumer starts once block 0 is claimed, and from
                // then on is parked on the lowest read of each round.
                consumer.get_or_insert_with(|| {
                    s.spawn(|| {
                        let _unpark = OpenOnDrop(&gate);
                        for (pos, k) in seq.iter().enumerate() {
                            let read = source.read_block(k).unwrap();
                            assert_eq!(read.origin, ReadOrigin::Cache, "{k:?}");
                            assert_eq!(&read.data[..], &[k.start as u8; LEN][..]);
                            // The slot this access released is refilled
                            // before the next: the consumer never gets
                            // ahead of the executor here, as it cannot
                            // get ahead of real storage.
                            if pos + SLOTS < seq.len() {
                                gate.issued(pos + SLOTS);
                            }
                        }
                    })
                });
                // Furthest position first: reads complete in the inverse
                // of the order the plan needs them. The last one through is
                // the consumer's, who takes it and moves on at once: the
                // next round's parked reads are the proof that it landed.
                for (n, &i) in parked.iter().rev().enumerate() {
                    gate.open(i);
                    if i == parked[0] {
                        break;
                    }
                    landed(i);
                    within_budget();
                    for &earlier in parked.iter().rev().take(n) {
                        assert!(cache.contains(&key(earlier)), "{earlier} evicted by {i}");
                    }
                }
            }
        });
        pf.join();
        let s = cache.stats().snapshot();
        assert_eq!(
            (s.hits, s.misses, s.prefetched, s.prefetch_wasted),
            ((SLOTS * ROUNDS) as u64, 0, (SLOTS * ROUNDS) as u64, 0),
            "{s:?}"
        );
        assert_eq!(cache.ram_budget().1, 0, "no reservation outlives its read");
    }
}

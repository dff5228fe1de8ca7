//! Concurrency stress: many threads hammering one cache with a mix of
//! hits, misses, evictions, spills, and promotes. The cache must never
//! exceed either tier's capacity accounting, never deadlock (the test
//! completing IS the liveness assertion — CI runs it in release mode),
//! and keep its counters coherent; in a debug build every critical
//! section also ends by asserting the books (`State::check`). Capacity is
//! sized well below the working set so the eviction/spill/promote state
//! machine is exercised constantly — inside the plan (Belady with bypass)
//! for the first few dozen ops, in recency order once the random accesses
//! have leapt the cursor past the plan's end.

use emlio_cache::{BlockKey, CacheConfig, ShardCache};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const BLOCK_BYTES: usize = 4096;
const KEYSPACE: usize = 160;
const THREADS: usize = 8;
const OPS_PER_THREAD: usize = 1200;

fn key(i: usize) -> BlockKey {
    BlockKey {
        shard_id: (i % 4) as u32,
        start: i * 100,
        end: i * 100 + 100,
    }
}

/// Tiny deterministic per-thread RNG (xorshift) — no shared state.
fn next_rand(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// With the workers joined and the spill queue flushed — so that the
/// three readings below are of one state — the byte accounting of a cache
/// with a disk tier is exactly what the slots hold: no tracked entry
/// without a slot, no slot or spill file the orders lost track of.
fn assert_accounting_matches_slots(cache: &ShardCache) {
    let s = cache.stats().snapshot();
    assert_eq!(
        (cache.ram_bytes_used(), cache.disk_bytes_used()),
        cache.slot_bytes(),
        "(ram_used, disk_used) vs the sum over slots: {s:?}"
    );
    // ...and every RAM eviction ended exactly one way: written to a spill
    // file, flipped onto the file it already had, or lost to a failed
    // write. (Every block here fits the disk tier, so none just drops.)
    assert_eq!(
        s.evictions,
        s.spills + s.clean_evictions + s.spill_failures,
        "every eviction accounted for: {s:?}"
    );
}

#[test]
fn stress_reads_gets_and_inserts_over_a_cyclic_plan() {
    let ram = (40 * BLOCK_BYTES) as u64;
    let disk = (24 * BLOCK_BYTES) as u64;
    let cache = Arc::new(
        ShardCache::new(
            CacheConfig::default()
                .with_ram_bytes(ram)
                .with_disk_bytes(disk)
                .with_prefetch_depth(0),
        )
        .unwrap(),
    );
    // A cyclic plan keeps the next-use ranks busy; unplanned keys just
    // advance time.
    cache.set_plan((0..KEYSPACE * 4).map(|i| key((i * 7) % KEYSPACE)).collect());

    let demand_ops = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let cache = cache.clone();
        let demand_ops = demand_ops.clone();
        handles.push(std::thread::spawn(move || {
            let mut rng = 0x9E3779B9u64.wrapping_mul(t as u64 + 1) | 1;
            for op in 0..OPS_PER_THREAD {
                // Zipf-ish skew: half the traffic on an eighth of the keys.
                let r = next_rand(&mut rng);
                let k = if r & 1 == 0 {
                    key((r >> 1) as usize % (KEYSPACE / 8))
                } else {
                    key((r >> 1) as usize % KEYSPACE)
                };
                match r % 10 {
                    // Mostly demand reads with single-flight fetch.
                    0..=6 => {
                        demand_ops.fetch_add(1, Ordering::Relaxed);
                        let (data, _) = cache
                            .get_or_fetch::<std::io::Error, _, _>(k, || {
                                Ok(vec![k.shard_id as u8; BLOCK_BYTES])
                            })
                            .unwrap();
                        assert_eq!(data.len(), BLOCK_BYTES);
                    }
                    // Non-blocking demand lookups.
                    7 => {
                        demand_ops.fetch_add(1, Ordering::Relaxed);
                        let _ = cache.get(&k);
                    }
                    // Raw inserts racing the fetch paths.
                    _ => cache.insert(k, vec![k.shard_id as u8; BLOCK_BYTES]),
                }
                if op % 64 == 0 {
                    assert!(cache.ram_bytes_used() <= ram, "RAM over capacity");
                    assert!(cache.disk_bytes_used() <= disk, "disk over capacity");
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("no thread panicked");
    }
    // Settle the background spill writer: queued orders may still resolve
    // to disk (or be declined) after the workers stop.
    cache.flush_spills();

    assert!(cache.ram_bytes_used() <= ram);
    assert!(cache.disk_bytes_used() <= disk);
    assert_accounting_matches_slots(&cache);
    let s = cache.stats().snapshot();
    assert_eq!(
        s.hits + s.misses,
        demand_ops.load(Ordering::Relaxed),
        "every demand access resolved exactly once: {s:?}"
    );
    assert!(
        s.evictions > 0,
        "capacity pressure exercised eviction: {s:?}"
    );
    assert!(s.spills > 0, "disk tier exercised: {s:?}");
    // Every resident key must still serve coherent bytes afterwards.
    for k in cache.ram_keys() {
        let data = cache.get(&k).expect("resident key readable");
        assert!(data.iter().all(|&b| b == k.shard_id as u8));
    }
}

#[test]
fn no_lock_is_held_across_a_stalled_spill_write_or_a_parked_fetch() {
    // The spill writer is stalled inside its file write (an injected
    // `spill.write` latency) and a demand fetch of key A is parked inside
    // its fetch closure: both own a transitional slot, neither may own
    // the lock. A thousand hits and a thousand `peek`s of a resident key
    // B must then finish in a hundredth of the stall.
    use emlio_util::fault::{site, FaultInjector, FaultPlan, FaultSpec};
    use emlio_util::testutil::{poll_until, Latch};
    use std::time::{Duration, Instant};

    const STALL: Duration = Duration::from_secs(3);
    let (a, b, x, y) = (key(0), key(1), key(2), key(3));
    let block = |k: BlockKey| vec![k.start as u8; BLOCK_BYTES];
    let cache = ShardCache::new(
        CacheConfig::default()
            .with_ram_bytes((2 * BLOCK_BYTES) as u64)
            .with_disk_bytes((8 * BLOCK_BYTES) as u64)
            .with_prefetch_depth(0),
    )
    .unwrap();
    let injector = FaultInjector::new(
        FaultPlan::new(1).with_site(site::SPILL_WRITE, FaultSpec::latency(1.0, STALL)),
    );
    cache.set_fault_injector(injector.clone());
    cache.insert(x, block(x));
    cache.insert(b, block(b));
    cache.insert(y, block(y)); // evicts x, the LRU resident: one spill order
    assert!(
        poll_until(STALL, || injector.stats().latencies == 1),
        "the writer never reached its write"
    );

    let (parked, gate) = (Latch::new(), Latch::new());
    std::thread::scope(|s| {
        let fetcher = s.spawn(|| {
            cache.get_or_fetch::<std::io::Error, _, _>(a, || {
                parked.open();
                assert!(gate.wait(4 * STALL), "the gate never opened");
                // Nothing lands, so nothing more is evicted: one stall.
                Err::<Vec<u8>, _>(std::io::Error::other("unparked"))
            })
        });
        assert!(parked.wait(STALL), "the fetch never ran");
        let reader = s.spawn(|| {
            let t0 = Instant::now();
            for _ in 0..1000 {
                let hit =
                    cache.get_or_fetch::<std::io::Error, Vec<u8>, _>(b, || panic!("b is resident"));
                assert_eq!(hit.unwrap().0.len(), BLOCK_BYTES);
                assert!(cache.peek(&b).is_some());
            }
            t0.elapsed()
        });
        // A reader blocked on the lock must fail the test, not hang it:
        // the gate opens whether or not the reads came back.
        let returned = poll_until(STALL / 2, || reader.is_finished());
        let writer_still_stalled = cache.spill_queue_depth() == 1;
        gate.open();
        assert!(returned, "reads of b waited on the writer or on the fetch");
        let elapsed = reader.join().unwrap();
        assert!(elapsed < STALL / 100, "2 000 reads of b took {elapsed:?}");
        assert!(writer_still_stalled, "the stall ended under the reads");
        assert!(fetcher.join().unwrap().is_err());
    });
    cache.flush_spills();
    assert_accounting_matches_slots(&cache);
}

#[test]
fn stress_backed_evictions_race_disk_evictions() {
    // The inclusive disk tier under the races it adds. RAM holds 16
    // blocks and the disk tier 48 of a 96-block key space, so the tier is
    // always full: every first-time spill reclaims a file — one that
    // backs a RAM resident if there is any, a disk-only block otherwise —
    // while other threads promote over those very files and evict backed
    // residents by slot flip. Whatever the interleaving, neither budget
    // is ever exceeded, every read returns its key's bytes, and once the
    // threads stop the accounting equals the slots to the byte.
    const KEYS: usize = 96;
    let ram = (16 * BLOCK_BYTES) as u64;
    let disk = (48 * BLOCK_BYTES) as u64;
    let cache = Arc::new(
        ShardCache::new(
            CacheConfig::default()
                .with_ram_bytes(ram)
                .with_disk_bytes(disk)
                // `Spilling` blocks are readable, so the writer's backlog
                // is more cache: at most the 16-block RAM tier of it, so
                // the disk tier still overflows under the threads, not
                // only in the final flush.
                .with_prefetch_depth(0),
        )
        .unwrap(),
    );
    cache.set_plan((0..KEYS * 8).map(|i| key((i * 5) % KEYS)).collect());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let cache = cache.clone();
            std::thread::spawn(move || {
                let mut rng = 0xA24BAED4u64.wrapping_mul(t as u64 + 1) | 1;
                for op in 0..OPS_PER_THREAD {
                    let r = next_rand(&mut rng);
                    let k = key((r >> 8) as usize % KEYS);
                    let data = if r.is_multiple_of(16) {
                        // A peer's in-place read beside the promotes.
                        cache.peek(&k)
                    } else {
                        let fetched = cache.get_or_fetch::<std::io::Error, _, _>(k, || {
                            Ok(vec![k.start as u8; BLOCK_BYTES])
                        });
                        Some(fetched.unwrap().0)
                    };
                    if let Some(data) = data {
                        assert_eq!(data.len(), BLOCK_BYTES);
                        assert!(data.iter().all(|&b| b == k.start as u8), "{k:?}");
                    }
                    if op % 32 == 0 {
                        assert!(cache.ram_bytes_used() <= ram, "RAM over capacity");
                        assert!(cache.disk_bytes_used() <= disk, "disk over capacity");
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no thread panicked");
    }
    cache.flush_spills();

    assert!(cache.ram_bytes_used() <= ram);
    assert!(cache.disk_bytes_used() <= disk);
    assert_accounting_matches_slots(&cache);
    let s = cache.stats().snapshot();
    assert!(s.disk_hits > 0, "promotes happened: {s:?}");
    assert!(s.clean_evictions > 0, "backed evictions happened: {s:?}");
    assert!(
        s.spills > KEYS as u64,
        "files were reclaimed and rewritten, so disk evictions happened: {s:?}"
    );
    assert_eq!(s.spill_failures, 0, "{s:?}");
    // Everything still resident serves its own bytes.
    for k in cache.ram_keys().into_iter().chain(cache.disk_keys()) {
        let data = cache.peek(&k).expect("resident key readable");
        assert!(data.iter().all(|&b| b == k.start as u8), "{k:?}");
    }
}

#[test]
fn stress_executor_stages_from_disk_beside_demand_promotes_and_peeks() {
    // The one stager under the races it joins. A persistent tier of 48
    // blocks under a 96-block plan is restarted eight times; every restart
    // finds RAM (16 blocks) empty and half the plan disk-only, and the
    // executor stages what fits from the spill files (`Disk → Busy →
    // Ram+file`) while two send workers, skewed against each other, start
    // at once and promote on demand whatever they reach first, peers
    // `peek` the same keys in place, evictions flip the staged blocks back
    // onto their files, and first-time spills reclaim files from under the
    // claims. Whatever the interleaving: every read returns its key's
    // bytes, `ram_used + ram_reserved` and the disk tier stay inside
    // their budgets, and at quiescence the accounting equals the slots.
    use emlio_cache::{CachedSource, Prefetcher, RangeSource};
    use emlio_tfrecord::FnSource;
    use emlio_util::testutil::TempDir;
    use std::sync::atomic::AtomicBool;

    const KEYS: usize = 96;
    const RESTARTS: usize = 8;
    const WORKERS: usize = 2;
    let ram = (16 * BLOCK_BYTES) as u64;
    let disk = (48 * BLOCK_BYTES) as u64;
    let dir = TempDir::new("stress-stage-from-disk");
    let (mut staged, mut promoted) = (0, 0);
    for life in 0..=RESTARTS {
        let cache = Arc::new(
            ShardCache::new(
                CacheConfig::default()
                    .with_ram_bytes(ram)
                    .with_disk_bytes(disk)
                    .with_persist_dir(dir.path().to_path_buf()),
            )
            .unwrap(),
        );
        // Each life starts somewhere else in the cycle.
        let seq: Arc<Vec<BlockKey>> = Arc::new(
            (0..KEYS * 2)
                .map(|i| key((life * 29 + i * 5) % KEYS))
                .collect(),
        );
        cache.set_plan(seq.to_vec());
        let source = Arc::new(CachedSource::new(
            cache.clone(),
            Arc::new(FnSource::new(|k: &BlockKey| {
                Ok(vec![k.start as u8; BLOCK_BYTES])
            })),
        ));
        let executor = Prefetcher::spawn(source.clone());
        let within_budgets = {
            let cache = cache.clone();
            move || {
                let (used, reserved) = cache.ram_budget();
                assert!(
                    used + reserved <= ram,
                    "{used} + {reserved} over the RAM tier"
                );
                assert!(cache.disk_bytes_used() <= disk, "disk over capacity");
            }
        };

        let serving = Arc::new(AtomicBool::new(true));
        let peers: Vec<_> = (0..2)
            .map(|t| {
                let (cache, serving) = (cache.clone(), serving.clone());
                let within_budgets = within_budgets.clone();
                std::thread::spawn(move || {
                    let mut rng = 0xC2B2AE35u64.wrapping_mul(t as u64 + 1) | 1;
                    while serving.load(Ordering::SeqCst) {
                        let k = key(next_rand(&mut rng) as usize % KEYS);
                        if let Some(data) = cache.peek(&k) {
                            assert!(data.iter().all(|&b| b == k.start as u8), "{k:?}");
                        }
                        within_budgets();
                    }
                })
            })
            .collect();
        let workers: Vec<_> = (0..WORKERS)
            .map(|w| {
                let (source, seq) = (source.clone(), seq.clone());
                let within_budgets = within_budgets.clone();
                std::thread::spawn(move || {
                    for (pos, k) in seq.iter().enumerate().skip(w).step_by(WORKERS) {
                        // A consumer's pace, by turns: 32 positions at a
                        // pace the executor can lead, then 32 at full
                        // speed, reaching blocks it has not got to.
                        if (pos / 32) % 2 == 0 {
                            std::thread::sleep(std::time::Duration::from_micros(200));
                        }
                        let read = source.read_block(k).unwrap();
                        assert_eq!(read.data.len(), BLOCK_BYTES);
                        assert!(read.data.iter().all(|&b| b == k.start as u8), "{k:?}");
                        within_budgets();
                    }
                })
            })
            .collect();
        for h in workers {
            h.join().expect("no worker panicked");
        }
        serving.store(false, Ordering::SeqCst);
        for h in peers {
            h.join().expect("no peer panicked");
        }
        executor.join();
        cache.flush_spills();

        assert_eq!(cache.ram_budget().1, 0, "no reservation outlives its read");
        assert_accounting_matches_slots(&cache);
        let s = cache.stats().snapshot();
        assert_eq!(s.hits + s.misses, seq.len() as u64, "{s:?}");
        assert!(
            s.warm_promoted <= s.prefetched,
            "a staging is a prefetch, never a demand hit: {s:?}"
        );
        assert_eq!(s.spill_failures, 0, "{s:?}");
        for k in cache.ram_keys().into_iter().chain(cache.disk_keys()) {
            let data = cache.peek(&k).expect("resident key readable");
            assert!(data.iter().all(|&b| b == k.start as u8), "{k:?}");
        }
        if life > 0 {
            assert!(s.readmitted > 0, "the previous life left its tier: {s:?}");
        }
        staged += s.warm_promoted;
        promoted += s.disk_hits;
    }
    assert!(staged > 0, "the executor staged from disk");
    assert!(promoted > 0, "and the workers promoted on demand beside it");
}

#[test]
fn stress_peer_fleet_coalesces_storage_reads() {
    // A 4-peer fleet hammered from 8 threads: every key is read through
    // many peers at once, singly and as windows of concurrent single
    // reads, racing owner fetches, flight handoffs, and offers into the
    // owners' caches. Liveness = completion;
    // correctness = every read returns the backing pattern; economy = the
    // shared backing store is read exactly once per unique key (fleet-wide
    // single-flight plus retained flights make the count exact, not
    // approximate).
    use emlio_cache::peer::{FleetRegistry, LocalPeer, PeerConfig, PeerSource};
    use emlio_cache::RangeSource;
    use emlio_tfrecord::FnSource;
    use std::collections::HashSet;
    use std::sync::Mutex;

    const PEERS: usize = 4;

    let storage_reads = Arc::new(AtomicU64::new(0));
    let touched = Arc::new(Mutex::new(HashSet::new()));
    let registry = FleetRegistry::new();
    for p in 0..PEERS {
        registry.join(&format!("p{p}"));
    }
    let mut sources = Vec::new();
    let mut caches = Vec::new();
    for p in 0..PEERS {
        let cache = Arc::new(
            ShardCache::new(
                CacheConfig::default()
                    .with_ram_bytes((KEYSPACE * BLOCK_BYTES) as u64)
                    .with_prefetch_depth(0),
            )
            .unwrap(),
        );
        registry.attach(&format!("p{p}"), LocalPeer::new(&cache));
        let reads = storage_reads.clone();
        let touched = touched.clone();
        let inner: Arc<dyn RangeSource> = Arc::new(FnSource::new(move |k: &BlockKey| {
            reads.fetch_add(1, Ordering::SeqCst);
            touched.lock().unwrap().insert(*k);
            Ok(vec![k.shard_id as u8; BLOCK_BYTES])
        }));
        sources.push(PeerSource::new(
            registry.clone(),
            &format!("p{p}"),
            inner,
            PeerConfig::default(),
        ));
        caches.push(cache);
    }

    let mut handles = Vec::new();
    for t in 0..THREADS {
        let source = sources[t % PEERS].clone();
        handles.push(std::thread::spawn(move || {
            let mut rng = 0xD1B54A32u64.wrapping_mul(t as u64 + 1) | 1;
            for _ in 0..OPS_PER_THREAD {
                // Half the ops are single reads, half windows of 1-8
                // distinct keys read one thread per block — what the
                // prefetch executor's helper threads send down — so the
                // leads and follows of whole windows race each other too.
                let r = next_rand(&mut rng);
                let mut run = vec![key(r as usize % KEYSPACE)];
                if r & (1 << 40) != 0 {
                    for _ in 0..(r >> 41) % 8 {
                        let k = key(next_rand(&mut rng) as usize % KEYSPACE);
                        if !run.contains(&k) {
                            run.push(k);
                        }
                    }
                }
                let reads: Vec<_> = std::thread::scope(|s| {
                    let (first, rest) = run.split_first().unwrap();
                    let helpers: Vec<_> = rest
                        .iter()
                        .map(|k| s.spawn(|| source.read_block(k).unwrap()))
                        .collect();
                    let mut reads = vec![source.read_block(first).unwrap()];
                    reads.extend(helpers.into_iter().map(|h| h.join().unwrap()));
                    reads
                });
                assert_eq!(reads.len(), run.len());
                for (k, read) in run.iter().zip(&reads) {
                    assert_eq!(read.data.len(), BLOCK_BYTES);
                    assert!(read.data.iter().all(|&b| b == k.shard_id as u8));
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("no thread panicked");
    }

    let unique = touched.lock().unwrap().len() as u64;
    assert_eq!(
        storage_reads.load(Ordering::SeqCst),
        unique,
        "fleet-wide single-flight reads each key from storage exactly once"
    );
    let fallbacks: u64 = sources.iter().map(|s| s.stats().snapshot().fallbacks).sum();
    assert_eq!(fallbacks, 0, "all owners stayed reachable");
}

#[test]
fn crossed_windows_lead_before_they_follow() {
    // Daemon A's window is daemon B's window reversed, each read with one
    // thread per block as the prefetch executor does, and the interleaving
    // is forced: every block's owner is inside its storage read — leading
    // the flight, nothing published yet — before any fetch to an owner's
    // tier is answered. So A leads exactly what B follows and B leads
    // exactly what A follows, all eight flights pending at once — the
    // shape in which a layer that serialised its follows behind its leads
    // (or held anything shared across the wait) would deadlock or, with
    // the peer timeout, limp home through fallbacks.
    use emlio_cache::peer::{FleetRegistry, PeerConfig, PeerFetch, PeerSource, PeerTransport};
    use emlio_cache::{RangeSource, ReadOrigin};
    use emlio_tfrecord::FnSource;
    use emlio_util::testutil::{poll_until, Latch};
    use std::time::Duration;

    const WAIT: Duration = Duration::from_secs(20);

    /// An owner's tier, always cold, that answers only once every flight
    /// of both windows has its leader.
    struct Gate {
        all_led: Arc<Latch>,
    }
    impl PeerTransport for Gate {
        fn fetch(&self, _key: &BlockKey, _timeout: Duration) -> PeerFetch {
            assert!(self.all_led.wait(WAIT), "an owner never led its block");
            PeerFetch::Miss
        }
    }

    for peers in 2..=4usize {
        let registry = FleetRegistry::new();
        for p in 0..peers {
            registry.join(&format!("p{p}"));
        }
        let all_led = Arc::new(Latch::new());
        for id in ["p0", "p1"] {
            let all_led = all_led.clone();
            registry.attach(id, Arc::new(Gate { all_led }));
        }
        let owned_by = |id: &str| -> Vec<BlockKey> {
            (0..KEYSPACE * 8)
                .map(key)
                .filter(|k| registry.owner_of(k).as_deref() == Some(id))
                .take(4)
                .collect()
        };
        // A's window: its own keys, then B's. B's: the same, reversed.
        let window: Vec<BlockKey> = [owned_by("p0"), owned_by("p1")].concat();
        assert_eq!(window.len(), 8);
        let reversed: Vec<BlockKey> = window.iter().rev().copied().collect();

        let storage_reads = Arc::new(AtomicU64::new(0));
        let source = |id: &str| {
            let (reads, all_led) = (storage_reads.clone(), all_led.clone());
            let inner: Arc<dyn RangeSource> = Arc::new(FnSource::new(move |k: &BlockKey| {
                // The eighth leader in lets everyone go.
                if reads.fetch_add(1, Ordering::SeqCst) + 1 == 8 {
                    all_led.open();
                }
                assert!(all_led.wait(WAIT), "a block was not led by its owner");
                Ok(vec![k.shard_id as u8; BLOCK_BYTES])
            }));
            // Generous: a deadlock must show as a hang, not a fallback.
            PeerSource::new(
                registry.clone(),
                id,
                inner,
                PeerConfig::default().with_timeout(WAIT),
            )
        };
        let (a, b) = (source("p0"), source("p1"));
        let daemons = [(a.clone(), window.clone()), (b.clone(), reversed)].map(|(src, run)| {
            std::thread::spawn(move || {
                let blocks: Vec<_> = run
                    .into_iter()
                    .map(|k| {
                        let src = src.clone();
                        std::thread::spawn(move || (k, src.read_block(&k).unwrap()))
                    })
                    .collect();
                let mut led = 0;
                for block in blocks {
                    let (k, read) = block.join().unwrap();
                    assert!(read.data.iter().all(|&x| x == k.shard_id as u8));
                    led += usize::from(read.origin == ReadOrigin::Direct);
                }
                led
            })
        });
        assert!(
            poll_until(WAIT, || daemons.iter().all(|d| d.is_finished())),
            "crossed windows deadlocked ({peers} peers)"
        );
        for d in daemons {
            assert_eq!(d.join().unwrap(), 4, "each daemon led its own four keys");
        }
        assert_eq!(storage_reads.load(Ordering::SeqCst), 8, "one read per key");
        for src in [&a, &b] {
            let s = src.stats().snapshot();
            assert_eq!((s.hits, s.misses, s.fallbacks), (4, 4, 0));
        }
    }
}

//! Cooperative peer fleet, end to end: a fetcher over a warm owner's RAM
//! tier delivers byte-identical batches without touching storage, and an
//! owner crashing mid-epoch must degrade to direct NFS with zero lost or
//! duplicated batches (the peer tier is an optimization, never a
//! correctness dependency). Two cached members stage each block once
//! between them, an exact half of the plan each, and walk it in lockstep;
//! a member that dies leaves the fleet's floor, and one that stops reading
//! costs the others one peer timeout. The N-daemon fleet against its solo
//! run is `tests/shared_storage_contention.rs`.

use emlio::bench::contention::shared_mount_storage;
use emlio::cache::peer::{FleetRegistry, LocalPeer, PeerConfig, PeerFetch, PeerTransport};
use emlio::cache::{CacheConfig, ShardCache};
use emlio::core::service::{Deployment, Fingerprint, StorageSpec};
use emlio::core::{EmlioConfig, EmlioService, Plan, StackSpec};
use emlio::datagen::convert::build_tfrecord_dataset;
use emlio::datagen::DatasetSpec;
use emlio::netem::{NetProfile, NfsConfig, NfsMount, NfsSource};
use emlio::obs::Stage;
use emlio::tfrecord::{BlockKey, GlobalIndex, ShardSpec};
use emlio::util::clock::RealClock;
use emlio::util::testutil::TempDir;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A peer transport that serves `fail_after` fetches from the wrapped
/// owner, then "crashes": every later fetch returns `Unavailable`, exactly
/// what a dead socket to the owning daemon would yield.
struct FlakyPeer {
    inner: Arc<dyn PeerTransport>,
    fetches: AtomicU64,
    fail_after: u64,
}

impl PeerTransport for FlakyPeer {
    fn fetch(&self, key: &BlockKey, timeout: Duration) -> PeerFetch {
        if self.fetches.fetch_add(1, Ordering::SeqCst) >= self.fail_after {
            return PeerFetch::Unavailable;
        }
        self.inner.fetch(key, timeout)
    }

    fn describe(&self) -> String {
        format!("flaky({})", self.inner.describe())
    }
}

const SAMPLES: u64 = 48;

fn build_dataset(dir: &TempDir) -> Arc<GlobalIndex> {
    let spec = DatasetSpec::tiny("fleet", SAMPLES);
    build_tfrecord_dataset(dir.path(), &spec, ShardSpec::Count(3)).unwrap();
    Arc::new(GlobalIndex::load_dir(dir.path()).unwrap())
}

fn fleet_config() -> EmlioConfig {
    EmlioConfig::default()
        .with_batch_size(4)
        .with_threads(2)
        .with_epochs(1)
}

/// Launch one daemon `id` over `stack`, drain its one epoch to the end and
/// return the deployment (for the daemon's counters) with the sorted
/// fingerprint of everything the compute node received.
fn drain(
    id: &str,
    index: &Arc<GlobalIndex>,
    config: &EmlioConfig,
    stack: StackSpec,
) -> (Deployment, Vec<Fingerprint>) {
    let storage = StorageSpec {
        stack,
        index: Some(index.clone()),
        ..StorageSpec::new(id, index.shard_path(0).parent().unwrap())
    };
    let mut dep = EmlioService::launch(&[storage], config, "n").unwrap();
    let delivery = dep.drain();
    delivery.served.unwrap();
    (dep, delivery.fingerprint)
}

/// Warm a solo cached daemon over the dataset and hand back its shard
/// cache — the "owner's RAM tier" the fleet tests fetch from.
fn warm_owner_cache(index: &Arc<GlobalIndex>) -> (Arc<ShardCache>, Vec<Fingerprint>, u64) {
    let config = EmlioConfig {
        cache: Some(CacheConfig::default().with_ram_bytes(64 << 20)),
        ..fleet_config()
    };
    let (dep, reference) = drain("owner", index, &config, StackSpec::default());
    let cache = dep.daemon_metrics[0].stack().unwrap().cache.clone();
    (
        cache.expect("owner is cached"),
        reference,
        dep.total_batches(),
    )
}

/// Run a cacheless fetcher daemon over the NFS mount, in `registry`'s
/// fleet, with every block owned by the remote `"owner"` ring member.
/// Nothing is wired by hand: counters and the `peer_fetch` stage come
/// from the stack itself.
fn drain_fetcher(
    dir: &TempDir,
    index: &Arc<GlobalIndex>,
    registry: &Arc<FleetRegistry>,
) -> (Deployment, Vec<Fingerprint>) {
    let mount = NfsMount::mount(
        dir.path(),
        NetProfile::local(),
        RealClock::shared(),
        NfsConfig::default(),
    );
    let stack = StackSpec::over(Arc::new(NfsSource::new(index.clone(), mount))).in_fleet(
        registry.clone(),
        PeerConfig::default().with_timeout(Duration::from_millis(200)),
    );
    drain("fetcher", index, &fleet_config(), stack)
}

/// The fetcher's peer layer counters.
fn peer_stats(dep: &Deployment) -> emlio::cache::peer::PeerStatsSnapshot {
    let stack = dep.daemon_metrics[0].stack().unwrap();
    stack
        .peer
        .as_ref()
        .expect("fleet daemon has a peer layer")
        .snapshot()
}

#[test]
fn owner_crash_mid_epoch_degrades_to_nfs_without_losing_batches() {
    let dir = TempDir::new("peer-crash");
    let index = build_dataset(&dir);
    let (owner_cache, reference, blocks) = warm_owner_cache(&index);
    assert!(blocks > 4, "need enough blocks to crash mid-epoch");

    // The owner dies after serving 4 blocks: every later fetch sees a dead
    // transport, exactly mid-epoch from the fetcher's point of view.
    let crash_after = 4u64;
    let registry = FleetRegistry::new();
    registry.join("owner");
    registry.attach(
        "owner",
        Arc::new(FlakyPeer {
            inner: LocalPeer::new(&owner_cache),
            fetches: AtomicU64::new(0),
            fail_after: crash_after,
        }),
    );

    let (dep, delivered) = drain_fetcher(&dir, &index, &registry);
    let metrics = &dep.daemon_metrics[0];

    // Zero lost, zero duplicated, zero corrupted: the delivered sample set
    // is exactly what the healthy solo owner delivered.
    assert_eq!(delivered, reference, "crash must not change delivery");

    // Accounting: the first `crash_after` blocks came from the owner's
    // RAM tier; every block after the crash degraded to direct NFS.
    let stats = peer_stats(&dep);
    assert_eq!(stats.hits, crash_after, "{stats:?}");
    assert_eq!(stats.fallbacks, blocks - crash_after, "{stats:?}");
    assert_eq!(stats.misses, 0, "warm owner never misses: {stats:?}");
    assert_eq!(
        metrics.snapshot().storage_reads,
        blocks - crash_after,
        "storage served exactly the post-crash blocks"
    );
}

#[test]
fn healthy_warm_owner_serves_every_block_without_storage() {
    let dir = TempDir::new("peer-warm");
    let index = build_dataset(&dir);
    let (owner_cache, reference, blocks) = warm_owner_cache(&index);

    let registry = FleetRegistry::new();
    registry.join("owner");
    registry.attach("owner", LocalPeer::new(&owner_cache));

    let (dep, delivered) = drain_fetcher(&dir, &index, &registry);
    let (metrics, recorder) = (&dep.daemon_metrics[0], &dep.daemon_recorders[0]);

    assert_eq!(delivered, reference, "peer-served bytes are byte-identical");
    let stats = peer_stats(&dep);
    assert_eq!(stats.hits, blocks, "{stats:?}");
    assert_eq!(stats.fallbacks + stats.misses, 0, "{stats:?}");
    // The daemon reports its peer tier without any caller-side wiring:
    // the snapshot reads the peer layer's own counters, and the layer
    // records into the daemon's recorder.
    let snap = metrics.snapshot();
    assert_eq!(snap.storage_reads, 0, "a warm fleet never touches storage");
    assert_eq!(snap.peer, Some(stats), "the peer layer's own snapshot");
    assert!(stats.bytes_from_peers > 0, "{snap:?}");
    assert_eq!(
        recorder.snapshot().stage(Stage::PeerFetch).count,
        blocks,
        "one peer_fetch sample per peer-served block"
    );
}

#[test]
fn dead_owner_cache_falls_back_on_every_read() {
    let dir = TempDir::new("peer-dead");
    let index = build_dataset(&dir);
    let (owner_cache, reference, blocks) = warm_owner_cache(&index);

    // The transport outlives the owner: its Weak handle goes dead the
    // moment the owner's cache drops, modeling a daemon that exited.
    let registry = FleetRegistry::new();
    registry.join("owner");
    registry.attach("owner", LocalPeer::new(&owner_cache));
    drop(owner_cache);

    let (dep, delivered) = drain_fetcher(&dir, &index, &registry);
    let metrics = &dep.daemon_metrics[0];

    assert_eq!(delivered, reference, "degraded fleet still delivers");
    let stats = peer_stats(&dep);
    assert_eq!(stats.fallbacks, blocks, "{stats:?}");
    assert_eq!(stats.hits + stats.misses, 0, "{stats:?}");
    let snap = metrics.snapshot();
    assert_eq!(snap.storage_reads, blocks);
    assert_eq!(snap.peer.unwrap().fallbacks, blocks);
}

/// The cache plan a daemon serving `config` on node `"n"` installs: every
/// epoch's blocks in plan order.
fn cache_plan(index: &GlobalIndex, config: &EmlioConfig) -> Vec<BlockKey> {
    let plan = Plan::build(index, &["n".to_string()], config);
    (plan.epochs.iter())
        .flat_map(|ep| ep.nodes["n"].batches_in_plan_order())
        .map(|b| BlockKey {
            shard_id: b.shard_id,
            start: b.start,
            end: b.end,
        })
        .collect()
}

#[test]
fn a_healthy_fleet_keeps_one_copy_of_each_block() {
    // Two cached members over one mount, each RAM tier big enough for the
    // whole dataset: each block is staged by its owner alone, and passes
    // through the other's cache, so the two tiers end disjoint and hold
    // the dataset once between them — each member an exact half of it.
    let dir = TempDir::new("peer-one-copy");
    let index = build_dataset(&dir);
    let mount = NfsMount::mount(
        dir.path(),
        NetProfile::local(),
        RealClock::shared(),
        NfsConfig::default(),
    );
    let config = EmlioConfig {
        cache: Some(CacheConfig::default().with_ram_bytes(64 << 20)),
        ..fleet_config().with_epochs(2)
    };
    let storage = shared_mount_storage(&index, &mount, 2, "d", Some(PeerConfig::default()));
    let registry = storage[0].stack.registry().unwrap().clone();
    let mut dep = EmlioService::launch(&storage, &config, "n").unwrap();
    let delivery = dep.drain();
    delivery.served.unwrap();
    assert_eq!(delivery.batches, dep.total_batches());

    let keys: Vec<BTreeSet<BlockKey>> = (dep.daemon_metrics.iter())
        .map(|m| m.stack().unwrap().cache.as_ref().unwrap())
        .map(|cache| cache.ram_keys().into_iter().collect())
        .collect();
    assert!(keys[0].is_disjoint(&keys[1]), "{keys:?}");
    for (d, held) in keys.iter().enumerate() {
        let id = format!("d{d}");
        for key in held {
            assert_eq!(registry.owner_of(key), Some(id.clone()), "{key:?}");
        }
    }
    let planned: BTreeSet<BlockKey> = cache_plan(&index, &config).into_iter().collect();
    let held: BTreeSet<BlockKey> = keys[0].union(&keys[1]).copied().collect();
    assert_eq!(held, planned, "the fleet holds the dataset once");
    // The plan's blocks are dealt exactly: half to each member.
    let owned = |id: &str| {
        let owns = |key: &&BlockKey| registry.owner_of(key).as_deref() == Some(id);
        planned.iter().filter(owns).count()
    };
    assert_eq!(planned.len() % 2, 0, "an even number of blocks");
    assert_eq!(
        [owned("d0"), owned("d1")],
        [planned.len() / 2; 2],
        "an exact split"
    );
}

#[test]
fn two_members_walk_the_plan_in_lockstep() {
    // Two cached members over a 5 ms mount, two send workers each: a
    // member claims a plan position only once the other has claimed every
    // position before it, so at every move of the floor the leading
    // member's cursor is at most one position past it — and, the floor
    // never stalling in a healthy fleet, that holds for the whole run.
    let dir = TempDir::new("peer-lockstep");
    let index = build_dataset(&dir);
    let mount = NfsMount::mount(
        dir.path(),
        NetProfile::new("nfs-5ms", Duration::from_millis(5), 1.25e9),
        RealClock::shared(),
        NfsConfig::default(),
    );
    let config = EmlioConfig {
        cache: Some(CacheConfig::default().with_ram_bytes(64 << 20)),
        ..fleet_config().with_epochs(2)
    };
    let storage = shared_mount_storage(&index, &mount, 2, "d", Some(PeerConfig::default()));
    let registry = storage[0].stack.registry().unwrap().clone();
    let mut dep = EmlioService::launch(&storage, &config, "n").unwrap();
    let delivery = dep.drain();
    delivery.served.unwrap();
    assert_eq!(delivery.batches, dep.total_batches());

    let stats: Vec<_> = (dep.daemon_metrics.iter())
        .map(|m| {
            m.stack()
                .unwrap()
                .cache
                .as_ref()
                .unwrap()
                .stats()
                .snapshot()
        })
        .collect();
    assert!(
        stats.iter().all(|s| s.floor_stalls == 0),
        "the floor stalled: {stats:?}"
    );
    let waits: Vec<u64> = (dep.daemon_recorders.iter())
        .map(|r| r.snapshot().stage(Stage::FleetFloorWait).count)
        .collect();
    assert!(
        registry.lead_peak() <= 1,
        "a member ran {} positions past the floor (floor waits {waits:?})",
        registry.lead_peak()
    );
}

#[test]
fn a_member_that_never_reads_costs_a_survivor_one_peer_timeout() {
    // A cached survivor over a 5 ms mount beside a live member that
    // installed the same plan and never reads: the survivor's first claim
    // past the plan's head waits for the floor until one peer timeout has
    // passed without it moving, gives up on it, and waits on it no more —
    // the floor never moves again. Its drain takes a solo run's time and
    // about one timeout more, and delivers what the solo run does.
    const TIMEOUT: Duration = Duration::from_millis(300);
    let dir = TempDir::new("peer-idle-member");
    let index = build_dataset(&dir);
    let config = EmlioConfig {
        cache: Some(CacheConfig::default().with_ram_bytes(64 << 20)),
        ..fleet_config().with_threads(1).with_epochs(2)
    };
    let nfs = || {
        let profile = NetProfile::new("nfs-5ms", Duration::from_millis(5), 1.25e9);
        let mount = NfsMount::mount(
            dir.path(),
            profile,
            RealClock::shared(),
            NfsConfig::default(),
        );
        StackSpec::over(Arc::new(NfsSource::new(index.clone(), mount)))
    };
    let t0 = Instant::now();
    let (_, reference) = drain("solo", &index, &config, nfs());
    let solo = t0.elapsed();

    let registry = FleetRegistry::new();
    registry.join("survivor");
    registry.join("idle");
    let idle = Arc::new(ShardCache::new(CacheConfig::default().with_ram_bytes(64 << 20)).unwrap());
    registry.attach("idle", LocalPeer::new(&idle));
    idle.set_plan(cache_plan(&index, &config));
    let stack = nfs().in_fleet(
        registry.clone(),
        PeerConfig::default().with_timeout(TIMEOUT),
    );
    let t0 = Instant::now();
    let (dep, delivered) = drain("survivor", &index, &config, stack);
    let fleet = t0.elapsed();
    assert_eq!(delivered, reference, "delivery is byte-identical");
    let survivor = dep.daemon_metrics[0]
        .stack()
        .unwrap()
        .cache
        .clone()
        .unwrap();
    let s = survivor.stats().snapshot();
    assert_eq!(
        s.floor_stalls, 1,
        "one give-up, on a floor that never moves: {s:?}"
    );
    let recorded = dep.daemon_recorders[0].snapshot();
    let waited = recorded.stage(Stage::FleetFloorWait);
    assert_eq!(waited.count, 1, "{waited:?}");
    assert!(
        fleet <= solo + TIMEOUT * 3 / 2,
        "the survivor drained in {fleet:?}, a solo run in {solo:?} (timeout {TIMEOUT:?})"
    );
    drop(idle);
}

#[test]
fn a_dead_member_leaves_the_floor() {
    // A cached survivor over a 5 ms NFS mount, in a fleet with a member
    // that installed the same plan and never read a block: the floor stays
    // at the plan's head, so the survivor keeps every block it staged and
    // its RAM tier, three blocks, soon holds nothing it may give up — its
    // executor parks and its demand reads pass through. Once the stalled
    // member's cache is gone it leaves the floor: the survivor stages
    // again, and delivers what a solo run does, byte for byte.
    let dir = TempDir::new("peer-dead-member");
    let index = build_dataset(&dir);
    let block = index
        .block_len(&BlockKey {
            shard_id: 0,
            start: 0,
            end: 4,
        })
        .unwrap();
    let config = EmlioConfig {
        cache: Some(CacheConfig::default().with_ram_bytes(3 * block + block / 2)),
        ..fleet_config().with_threads(1).with_epochs(3)
    };
    let (_, reference) = drain("solo", &index, &config, StackSpec::default());

    let registry = FleetRegistry::new();
    registry.join("survivor");
    registry.join("stalled");
    let stalled =
        Arc::new(ShardCache::new(CacheConfig::default().with_ram_bytes(64 << 20)).unwrap());
    registry.attach("stalled", LocalPeer::new(&stalled));
    stalled.set_plan(cache_plan(&index, &config));

    let mount = NfsMount::mount(
        dir.path(),
        NetProfile::new("nfs-5ms", Duration::from_millis(5), 1.25e9),
        RealClock::shared(),
        NfsConfig::default(),
    );
    let stack = StackSpec::over(Arc::new(NfsSource::new(index.clone(), mount))).in_fleet(
        registry.clone(),
        PeerConfig::default().with_timeout(Duration::from_millis(200)),
    );
    let storage = StorageSpec {
        stack,
        index: Some(index.clone()),
        ..StorageSpec::new("survivor", dir.path())
    };
    let mut dep = EmlioService::launch(&[storage], &config, "n").unwrap();
    let survivor = dep.daemon_metrics[0]
        .stack()
        .unwrap()
        .cache
        .clone()
        .unwrap();
    let plan_len = cache_plan(&index, &config).len() as u64;
    let (stalled_at, delivery) = std::thread::scope(|s| {
        let killer = s.spawn(|| {
            // Past the first epoch the survivor has long run out of room.
            let deadline = Instant::now() + Duration::from_secs(20);
            loop {
                let st = survivor.stats().snapshot();
                if st.hits + st.misses >= plan_len / 3 || Instant::now() > deadline {
                    drop(stalled);
                    return st.prefetched;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let delivery = dep.drain();
        (killer.join().unwrap(), delivery)
    });
    delivery.served.unwrap();
    assert_eq!(
        delivery.fingerprint, reference,
        "delivery is byte-identical"
    );
    let s = survivor.stats().snapshot();
    assert_eq!(s.hits + s.misses, plan_len, "{s:?}");
    assert!(
        s.prefetched > stalled_at,
        "the survivor staged nothing after the stalled member died: {s:?}"
    );
    let (used, reserved) = survivor.ram_budget();
    assert!(used + reserved <= survivor.config().ram_bytes);
}

//! Cooperative peer fleet, end to end: a fetcher over a warm owner's RAM
//! tier delivers byte-identical batches without touching storage, and an
//! owner crashing mid-epoch must degrade to direct NFS with zero lost or
//! duplicated batches (the peer tier is an optimization, never a
//! correctness dependency). The N-daemon fleet against its solo run is
//! `tests/shared_storage_contention.rs`.

use emlio::cache::peer::{FleetRegistry, LocalPeer, PeerConfig, PeerFetch, PeerTransport};
use emlio::cache::{CacheConfig, ShardCache};
use emlio::core::service::{Deployment, Fingerprint, StorageSpec};
use emlio::core::{EmlioConfig, EmlioService, StackSpec};
use emlio::datagen::convert::build_tfrecord_dataset;
use emlio::datagen::DatasetSpec;
use emlio::netem::{NetProfile, NfsConfig, NfsMount, NfsSource};
use emlio::obs::Stage;
use emlio::tfrecord::{BlockKey, GlobalIndex, ShardSpec};
use emlio::util::clock::RealClock;
use emlio::util::testutil::TempDir;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

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
    assert_eq!(snap.peer_hits, stats.hits);
    assert_eq!(snap.peer_bytes, stats.bytes_from_peers);
    assert!(snap.peer_bytes > 0, "{snap:?}");
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
    assert_eq!(snap.peer_fallbacks, blocks);
}

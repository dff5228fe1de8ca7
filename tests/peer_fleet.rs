//! Cooperative peer fleet, end to end: N daemons sharing one registry must
//! deliver byte-identical batches to the solo configuration while the
//! aggregate storage traffic collapses to one pass over the unique bytes —
//! and an owner crashing mid-epoch must degrade to direct NFS with zero
//! lost or duplicated batches (the peer tier is an optimization, never a
//! correctness dependency).

use emlio::cache::peer::{FleetRegistry, LocalPeer, PeerConfig, PeerFetch, PeerTransport};
use emlio::cache::{CacheConfig, ShardCache};
use emlio::core::plan::Plan;
use emlio::core::receiver::{EmlioReceiver, ReceiverConfig};
use emlio::core::{EmlioConfig, EmlioDaemon, StackSpec};
use emlio::datagen::convert::build_tfrecord_dataset;
use emlio::datagen::DatasetSpec;
use emlio::netem::{NetProfile, NfsConfig, NfsMount, NfsSource};
use emlio::obs::Stage;
use emlio::pipeline::ExternalSource;
use emlio::tfrecord::{BlockKey, GlobalIndex, ShardSpec};
use emlio::util::clock::RealClock;
use emlio::util::testutil::TempDir;
use emlio_bench::contention::{run, ContentionConfig};
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

/// Serve one epoch and return `(sorted (sample_id, label, payload-digest)
/// triples, batches delivered)` — the order-independent fingerprint of
/// everything the compute node received.
fn drain(daemon: EmlioDaemon, plan: Plan, config: &EmlioConfig) -> (Vec<(u64, u32, u64)>, u64) {
    let receiver =
        EmlioReceiver::bind(ReceiverConfig::loopback(config.threads_per_node as u32)).unwrap();
    let ep = receiver.endpoint().clone();
    let server = std::thread::spawn(move || daemon.serve(&plan, "n", &ep));
    let mut src = receiver.source();
    let mut seen = Vec::new();
    let mut batches = 0u64;
    while let Some(b) = src.next_batch() {
        batches += 1;
        for s in &b.samples {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for &byte in s.bytes.iter() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            seen.push((s.sample_id, s.label, h));
        }
    }
    server.join().unwrap().unwrap();
    seen.sort_unstable();
    (seen, batches)
}

/// Warm a solo cached daemon over the dataset and hand back its shard
/// cache — the "owner's RAM tier" the fleet tests fetch from.
fn warm_owner_cache(index: &Arc<GlobalIndex>) -> (Arc<ShardCache>, Vec<(u64, u32, u64)>, u64) {
    let config = EmlioConfig {
        cache: Some(CacheConfig::default().with_ram_bytes(64 << 20)),
        ..fleet_config()
    };
    let daemon = EmlioDaemon::open(
        "owner",
        index.shard_path(0).parent().unwrap(),
        config.clone(),
    )
    .unwrap();
    let cache = daemon.cache().expect("owner is cached").clone();
    let plan = Plan::build(daemon.index(), &["n".to_string()], &config);
    let blocks = plan.batches_for(0, "n");
    let (reference, _) = drain(daemon, plan, &config);
    (cache, reference, blocks)
}

/// Open a cacheless fetcher daemon over the NFS mount, in `registry`'s
/// fleet, with every block owned by the remote `"owner"` ring member.
/// Nothing is wired by hand: counters and the `peer_fetch` stage come
/// from the stack itself.
fn open_fetcher(
    dir: &TempDir,
    index: &Arc<GlobalIndex>,
    registry: &Arc<FleetRegistry>,
) -> (EmlioDaemon, Plan, EmlioConfig) {
    let config = fleet_config();
    let mount = NfsMount::mount(
        dir.path(),
        NetProfile::local(),
        RealClock::shared(),
        NfsConfig::default(),
    );
    let spec = StackSpec::over(Arc::new(NfsSource::new(index.clone(), mount))).in_fleet(
        registry.clone(),
        PeerConfig::default().with_timeout(Duration::from_millis(200)),
    );
    let daemon = EmlioDaemon::open_stack("fetcher", index.clone(), config.clone(), spec).unwrap();
    let plan = Plan::build(daemon.index(), &["n".to_string()], &config);
    (daemon, plan, config)
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

    let (daemon, plan, config) = open_fetcher(&dir, &index, &registry);
    let metrics = daemon.metrics();
    let peer = daemon
        .peer()
        .expect("fleet daemon has a peer layer")
        .clone();
    let (delivered, _) = drain(daemon, plan, &config);

    // Zero lost, zero duplicated, zero corrupted: the delivered sample set
    // is exactly what the healthy solo owner delivered.
    assert_eq!(delivered, reference, "crash must not change delivery");

    // Accounting: the first `crash_after` blocks came from the owner's
    // RAM tier; every block after the crash degraded to direct NFS.
    let stats = peer.stats().snapshot();
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

    let (daemon, plan, config) = open_fetcher(&dir, &index, &registry);
    let metrics = daemon.metrics();
    let recorder = daemon.recorder();
    let peer = daemon
        .peer()
        .expect("fleet daemon has a peer layer")
        .clone();
    let (delivered, _) = drain(daemon, plan, &config);

    assert_eq!(delivered, reference, "peer-served bytes are byte-identical");
    let stats = peer.stats().snapshot();
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

    let (daemon, plan, config) = open_fetcher(&dir, &index, &registry);
    let metrics = daemon.metrics();
    let peer = daemon
        .peer()
        .expect("fleet daemon has a peer layer")
        .clone();
    let (delivered, _) = drain(daemon, plan, &config);

    assert_eq!(delivered, reference, "degraded fleet still delivers");
    let stats = peer.stats().snapshot();
    assert_eq!(stats.fallbacks, blocks, "{stats:?}");
    assert_eq!(stats.hits + stats.misses, 0, "{stats:?}");
    let snap = metrics.snapshot();
    assert_eq!(snap.storage_reads, blocks);
    assert_eq!(snap.peer_fallbacks, blocks);
}

#[test]
fn fleet_aggregate_storage_reads_collapse_to_unique_blocks() {
    let out = run(&ContentionConfig::smoke_fleet());
    assert_eq!(out.batches_delivered, out.expected_batches, "{out:?}");

    // The ISSUE's acceptance bound is ≤ 1.25× unique bytes for a 4-daemon
    // fleet; flight retention makes the harness exact, so assert that.
    assert_eq!(
        out.nfs_bytes_read, out.dataset_bytes,
        "fleet reads the dataset once, total: {out:?}"
    );
    assert_eq!(
        out.per_daemon_storage_reads.iter().sum::<u64>(),
        out.unique_blocks,
        "one storage read per unique block across the fleet: {out:?}"
    );
    assert_eq!(out.peer_fallbacks, 0, "healthy fleet never degrades");
    assert!(out.peer_hits > 0, "peers served traffic: {out:?}");
}

#[test]
fn fleet_delivers_byte_identical_batches_to_solo() {
    let fleet_cfg = ContentionConfig::smoke_fleet();
    let solo_cfg = ContentionConfig {
        peer_fleet: false,
        ..fleet_cfg.clone()
    };
    let fleet = run(&fleet_cfg);
    let solo = run(&solo_cfg);
    assert_eq!(fleet.batches_delivered, solo.batches_delivered);
    assert_eq!(
        fleet.payload_digest, solo.payload_digest,
        "peers on vs off must not change a single delivered byte"
    );
    // Solo pays the full N× storage bill the fleet avoids.
    assert_eq!(
        solo.nfs_bytes_read,
        solo_cfg.daemons as u64 * solo.dataset_bytes
    );
    assert!(fleet.nfs_bytes_read < solo.nfs_bytes_read);
}

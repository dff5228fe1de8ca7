//! `ReadStack` is the only code that knows the layer order: what each
//! topology stacks to, where the retry layer sits relative to a fleet
//! flight, and that a daemon's snapshot reads its components' counters
//! while they are still moving.

use emlio::cache::peer::{FleetRegistry, PeerConfig};
use emlio::cache::CacheConfig;
use emlio::core::service::StorageSpec;
use emlio::core::{EmlioConfig, EmlioDaemon, EmlioService, ReadStack, StackSpec};
use emlio::datagen::convert::build_tfrecord_dataset;
use emlio::datagen::DatasetSpec;
use emlio::netem::{FaultSource, NetProfile, NfsConfig, NfsMount, NfsSource};
use emlio::tfrecord::source::{BlockRead, RangeSource, ReadOrigin, TfrecordSource};
use emlio::tfrecord::{BlockKey, GlobalIndex, RecordError, ShardSpec};
use emlio::util::clock::RealClock;
use emlio::util::fault::{site, FaultDecision, FaultInjector, FaultPlan, FaultSpec};
use emlio::util::testutil::TempDir;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn dataset(dir: &TempDir, samples: u64) -> Arc<GlobalIndex> {
    let spec = DatasetSpec::tiny("stack", samples);
    build_tfrecord_dataset(dir.path(), &spec, ShardSpec::Count(3)).unwrap();
    Arc::new(GlobalIndex::load_dir(dir.path()).unwrap())
}

/// The strings in `ReadStack`'s rustdoc, one per topology the spec and
/// config can express.
#[test]
fn describe_matches_the_documented_order_for_every_topology() {
    let dir = TempDir::new("stack-describe");
    let index = dataset(&dir, 12);
    let nfs = || -> Arc<dyn RangeSource> {
        let mount = NfsMount::mount(
            dir.path(),
            NetProfile::local(),
            RealClock::shared(),
            NfsConfig::default(),
        );
        Arc::new(NfsSource::new(index.clone(), mount))
    };
    let fleet = |spec: StackSpec| {
        let registry = FleetRegistry::new();
        registry.join("d0");
        registry.join("d1");
        spec.in_fleet(registry, PeerConfig::default())
    };
    let plain = EmlioConfig::default();
    let cached = plain
        .clone()
        .with_cache(CacheConfig::default().with_ram_bytes(64 << 20));
    let retrying = plain.clone().with_io_retries(3);
    let mnt = format!("nfs({})", dir.path().display());
    let cache = "cached(clairvoyant 64 MiB ram / 0 MiB disk)";
    let retry = "retry(3x, base 5ms)";

    let table = [
        (
            &plain,
            StackSpec::default(),
            "metered -> tfrecord(3 shards)".to_string(),
        ),
        (
            &cached,
            StackSpec::default(),
            format!("{cache} -> metered -> tfrecord(3 shards)"),
        ),
        (
            &retrying,
            StackSpec::default(),
            format!("metered -> {retry} -> tfrecord(3 shards)"),
        ),
        (&plain, StackSpec::over(nfs()), format!("metered -> {mnt}")),
        (
            &cached,
            fleet(StackSpec::over(nfs())),
            format!("{cache} -> metered -> peer(d0, fleet=2) -> {mnt}"),
        ),
        (
            &cached.clone().with_io_retries(3),
            fleet(StackSpec::over(nfs())),
            format!("{cache} -> metered -> peer(d0, fleet=2) -> {retry} -> {mnt}"),
        ),
    ];
    for (config, spec, want) in table {
        let stack = ReadStack::build("d0", &index, config, spec).unwrap();
        assert_eq!(stack.describe(), want);
    }

    // An `open_with_base` root is opaque — here a pre-built fleet layer,
    // as the perf ledger hands in: retry stays directly above it.
    let prebuilt = ReadStack::build("d0", &index, &plain, fleet(StackSpec::over(nfs()))).unwrap();
    let daemon = EmlioDaemon::open_with_base(
        "d0",
        index.clone(),
        retrying.clone(),
        prebuilt.peer.unwrap(),
    )
    .unwrap();
    assert_eq!(
        daemon.source_description(),
        format!("metered -> {retry} -> peer(d0, fleet=2) -> {mnt}")
    );
}

/// Holds every read until `expected` readers are on their way into the
/// stack (and a moment longer), so a flight's followers are waiting on it
/// before its leader's read — and every injected error — happens.
struct Gate {
    inner: FaultSource,
    expected: u64,
    arrived: AtomicU64,
}

impl RangeSource for Gate {
    fn read_block(&self, key: &BlockKey) -> Result<BlockRead, RecordError> {
        while self.arrived.load(Ordering::SeqCst) < self.expected {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(20));
        self.inner.read_block(key)
    }

    fn describe(&self) -> String {
        format!("gate -> {}", self.inner.describe())
    }
}

/// In a fleet the retry layer sits under the flight: transient root errors
/// are retried once, by the leader, and its followers never see them.
#[test]
fn fleet_transients_are_retried_once_under_the_flight() {
    let dir = TempDir::new("stack-retry-placement");
    let index = dataset(&dir, 12);

    // A schedule whose first reads fail: the leading run of injected
    // errors at `source.read` is a pure function of the seed.
    let spec = FaultSpec::errors(0.5);
    let leading_errors = |seed: u64| {
        let plan = FaultPlan::new(seed).with_site(site::SOURCE_READ, spec);
        (0..)
            .take_while(|&n| plan.decide_at(site::SOURCE_READ, n) == FaultDecision::Error)
            .count() as u64
    };
    let (seed, transients) = (0..)
        .map(|seed| (seed, leading_errors(seed)))
        .find(|&(_, n)| n >= 2)
        .unwrap();
    let injector = FaultInjector::new(FaultPlan::new(seed).with_site(site::SOURCE_READ, spec));

    let gate = Arc::new(Gate {
        inner: FaultSource::new(
            Arc::new(TfrecordSource::new(index.clone())),
            injector.clone(),
        ),
        expected: 3,
        arrived: AtomicU64::new(0),
    });
    let registry = FleetRegistry::new();
    registry.join("d0");
    let config = EmlioConfig::default()
        .with_io_retries(transients as u32 + 1)
        .with_io_backoff(Duration::from_micros(50));
    let stack = ReadStack::build(
        "d0",
        &index,
        &config,
        StackSpec::over(gate.clone()).in_fleet(registry, PeerConfig::default()),
    )
    .unwrap();

    // One leader and two followers on one key.
    let key = BlockKey {
        shard_id: 0,
        start: 0,
        end: 4,
    };
    let reads: Vec<BlockRead> = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..3)
            .map(|_| {
                scope.spawn(|| {
                    gate.arrived.fetch_add(1, Ordering::SeqCst);
                    stack.source.read_block(&key).unwrap()
                })
            })
            .collect();
        readers.into_iter().map(|r| r.join().unwrap()).collect()
    });

    assert_eq!(injector.stats().errors, transients);
    assert_eq!(
        injector.invocations(site::SOURCE_READ),
        transients + 1,
        "one storage read after the transients"
    );
    let followers = reads
        .iter()
        .filter(|r| r.origin == ReadOrigin::Peer)
        .count();
    assert_eq!(followers, 2, "two reads took the leader's bytes");
    assert!(reads.iter().all(|r| r.data == reads[0].data));
    let snap = stack.metrics.snapshot();
    let (retry, peer) = (snap.retry.unwrap(), snap.peer.unwrap());
    assert_eq!(retry.retries, transients, "retried by the leader alone");
    assert_eq!(retry.giveups, 0);
    assert_eq!(snap.storage_reads, 1);
    assert_eq!((peer.hits, peer.fallbacks), (2, 0));
}

/// Snapshots taken while the send workers run see the pool, the cache's
/// evictor and its spill writer at work — nothing waits for the end of
/// the serve to be copied anywhere.
#[test]
fn mid_serve_snapshot_sees_off_path_counters_move() {
    let dir = TempDir::new("stack-mid-serve");
    dataset(&dir, 96);
    // A RAM tier of a block or two over a disk tier, and a spill writer
    // slowed to 2 ms per file: evictions back up behind it, up to a RAM
    // tier of them, for as long as the serve lasts.
    let config = EmlioConfig::default()
        .with_batch_size(4)
        .with_threads(2)
        .with_epochs(2)
        .with_cache(
            CacheConfig::default()
                .with_ram_bytes(48 << 10)
                .with_disk_bytes(16 << 20),
        );
    let slow_spills = FaultInjector::new(FaultPlan::new(1).with_site(
        site::SPILL_WRITE,
        FaultSpec::latency(1.0, Duration::from_millis(2)),
    ));
    let storage = StorageSpec {
        stack: StackSpec::default().with_faults(slow_spills),
        ..StorageSpec::new("d0", dir.path())
    };
    let mut dep = EmlioService::launch(&[storage], &config, "n").unwrap();
    let metrics = dep.daemon_metrics[0].clone();
    let consumer = std::thread::spawn(move || dep.drain());

    let (mut reuse, mut evictions, mut queued) = (false, false, false);
    while !(reuse && evictions && queued) {
        let snap = metrics.snapshot();
        // Only a snapshot taken before the serve returned counts, and the
        // serve's wall time is stored as it returns.
        if snap.serve_wall_nanos > 0 {
            break;
        }
        let cache = snap.cache.unwrap();
        reuse |= snap.pool.pool_reuse > 0;
        evictions |= cache.evictions > 0;
        queued |= cache.spill_queue_depth > 0;
        std::thread::yield_now();
    }
    consumer.join().unwrap().served.unwrap();
    assert!(
        reuse && evictions && queued,
        "mid-serve: pool_reuse moved {reuse}, cache_evictions moved {evictions}, \
         spill queue seen non-empty {queued}"
    );
}

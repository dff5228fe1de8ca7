//! EXP-CONTEND — multi-daemon shared-storage contention.
//!
//! The paper's remote-dataset regime has every storage daemon hammering
//! one NFS mount. With the composable read stack this is now just a
//! deployment shape: N cached `EmlioDaemon`s whose `NfsSource` roots share
//! a single emulated mount (one wire, one `link_free`; `ReadStack`'s docs
//! have the layer order). Per-daemon caches absorb the repeated-epoch
//! traffic, so the shared link carries each unique block once per daemon
//! instead of once per epoch per daemon.
//!
//! With [`ContentionConfig::peer_fleet`] the daemons additionally share a
//! cooperative cache tier (one `FleetRegistry`): block ownership is
//! consistent-hashed across the fleet, non-owners fetch from the owner's
//! tiers, and fleet-wide single-flight collapses the cold start — the
//! shared link carries each unique block **once total**, not once per
//! daemon.
//!
//! The deployment itself is [`EmlioService::launch`] over
//! [`shared_mount_storage`]'s specs — one receiver taking all
//! `daemons × T` streams — and [`Deployment::drain`] is what counts and
//! fingerprints the delivery. `emlio bench-io --peer-fleet` stands its
//! fleet up from the same specs; `tests/shared_storage_contention.rs`
//! holds the harness's assertions.
//!
//! [`Deployment::drain`]: emlio_core::service::Deployment::drain

use emlio_cache::peer::{FleetRegistry, PeerConfig};
use emlio_cache::CacheConfig;
use emlio_core::service::StorageSpec;
use emlio_core::{EmlioConfig, EmlioService, StackSpec};
use emlio_datagen::convert::build_tfrecord_dataset;
use emlio_datagen::DatasetSpec;
use emlio_energymon::{peer_savings, IoSavings, DEFAULT_STORAGE_IO_WATTS};
use emlio_netem::{NetProfile, NfsConfig, NfsMount, NfsSource};
use emlio_tfrecord::{GlobalIndex, ShardSpec};
use emlio_util::clock::RealClock;
use emlio_util::fnv1a;
use emlio_util::testutil::TempDir;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Shape of the contention experiment. The rest is fixed: two shards,
/// batches of 8, a 64 MiB RAM tier per daemon, a zero-RTT 12.5 GB/s shared
/// link and a 500 ms peer timeout.
#[derive(Debug, Clone)]
pub struct ContentionConfig {
    /// Daemons sharing the one NFS mount.
    pub daemons: usize,
    /// Epochs each daemon streams.
    pub epochs: u32,
    /// Samples in the shared dataset.
    pub samples: u64,
    /// Run the daemons as a cooperative cache fleet (one shared
    /// `FleetRegistry`, `peer` layer in every read stack).
    pub peer_fleet: bool,
}

impl ContentionConfig {
    /// CI-sized: 3 daemons × 2 epochs over a tiny dataset.
    pub fn smoke() -> Self {
        ContentionConfig {
            daemons: 3,
            epochs: 2,
            samples: 48,
            peer_fleet: false,
        }
    }

    /// CI-sized cooperative fleet: 4 daemons over one registry.
    pub fn smoke_fleet() -> Self {
        ContentionConfig {
            daemons: 4,
            peer_fleet: true,
            ..Self::smoke()
        }
    }
}

/// What the shared link, the per-daemon caches, and (in fleet mode) the
/// peer tier did.
#[derive(Debug, Clone)]
pub struct ContentionOutcome {
    /// Demand hit rate per daemon, in `[0, 1]`.
    pub per_daemon_hit_rate: Vec<f64>,
    /// Positioned storage reads each daemon issued (peer-served reads are
    /// not storage reads).
    pub per_daemon_storage_reads: Vec<u64>,
    /// Storage bytes the daemons avoided re-reading, summed.
    pub aggregate_bytes_saved: u64,
    /// Data bytes that actually crossed the shared NFS link.
    pub nfs_bytes_read: u64,
    /// Positioned reads issued against the mount, across all daemons.
    pub nfs_reads: u64,
    /// Blocks the daemons' prefetchers read ahead of demand.
    pub prefetched: u64,
    /// Prefetched reads whose bytes a cache then did not admit: storage
    /// reads paid for and thrown away.
    pub prefetch_wasted: u64,
    /// Batches delivered, across all daemons.
    pub batches_delivered: u64,
    /// Batches the plans promised, across all daemons and epochs.
    pub expected_batches: u64,
    /// Encoded bytes of the shared dataset (every daemon streams all of
    /// it every epoch).
    pub dataset_bytes: u64,
    /// Unique planned blocks per daemon per epoch (one block per batch;
    /// identical boundaries every epoch and every daemon).
    pub unique_blocks: u64,
    /// Fleet-wide blocks served by peers or flight handoffs (0 solo).
    pub peer_hits: u64,
    /// Fleet-wide owner-reachable fetches that found nothing (0 solo).
    pub peer_misses: u64,
    /// Fleet-wide reads that degraded to direct NFS (0 solo).
    pub peer_fallbacks: u64,
    /// Fleet-wide payload bytes served by peers instead of storage.
    pub peer_bytes: u64,
    /// Digest of the sorted delivery fingerprint (every sample's epoch, id,
    /// label and payload hash): equal digests ⇒ byte-identical delivery
    /// (fleet on vs off).
    pub payload_digest: u64,
    /// NFS latency/energy the peer tier avoided, priced by the same cost
    /// model the baselines pay (zero when solo).
    pub fleet_savings: IoSavings,
}

/// Storage specs for `daemons` daemons (`{id_prefix}0`, `{id_prefix}1`, …)
/// whose roots are [`NfsSource`]s over one shared `mount` of `index`'s
/// dataset. With `fleet` set they are one cooperative cache fleet: all of
/// them join one [`FleetRegistry`] here, before any is opened, so every
/// member computes the same block ownership from its first read.
pub fn shared_mount_storage(
    index: &Arc<GlobalIndex>,
    mount: &NfsMount,
    daemons: usize,
    id_prefix: &str,
    fleet: Option<PeerConfig>,
) -> Vec<StorageSpec> {
    let fleet = fleet.map(|peer_config| (FleetRegistry::new(), peer_config));
    (0..daemons)
        .map(|d| {
            let id = format!("{id_prefix}{d}");
            let mut stack = StackSpec::over(Arc::new(NfsSource::new(index.clone(), mount.clone())));
            if let Some((registry, peer_config)) = &fleet {
                registry.join(&id);
                stack = stack.in_fleet(registry.clone(), peer_config.clone());
            }
            StorageSpec {
                stack,
                index: Some(index.clone()),
                ..StorageSpec::new(&id, mount.root())
            }
        })
        .collect()
}

/// Run `cfg.daemons` concurrent daemons, each with its own cache, all
/// reading through one shared [`NfsMount`] — cooperatively when
/// `cfg.peer_fleet` is set.
pub fn run(cfg: &ContentionConfig) -> ContentionOutcome {
    let dir = TempDir::new("contention");
    let spec = DatasetSpec::tiny("contend", cfg.samples);
    let index = Arc::new(
        build_tfrecord_dataset(dir.path(), &spec, ShardSpec::Count(2)).expect("dataset conversion"),
    );

    let profile = NetProfile::new("shared-nfs", Duration::ZERO, 12.5e9);
    let nfs_config = NfsConfig::default();
    let mount = NfsMount::mount(
        dir.path(),
        profile.clone(),
        RealClock::shared(),
        nfs_config.clone(),
    );

    let config = EmlioConfig::default()
        .with_batch_size(8)
        .with_threads(2)
        .with_epochs(cfg.epochs)
        .with_cache(CacheConfig::default().with_ram_bytes(64 << 20));

    let fleet = cfg
        .peer_fleet
        .then(|| PeerConfig::default().with_timeout(Duration::from_millis(500)));
    let storage = shared_mount_storage(&index, &mount, cfg.daemons, "d", fleet);
    let mut dep =
        EmlioService::launch(&storage, &config, "node").expect("launch over shared mount");
    let delivery = dep.drain();
    delivery.served.as_ref().expect("serve");

    // Every daemon serves the whole dataset every epoch, one positioned
    // block read per planned batch with identical boundaries every epoch:
    // one daemon's epoch-0 batch count IS the unique block count.
    let unique_blocks = dep.batches_per_epoch[0] / cfg.daemons as u64;
    // One digest over the sorted fingerprint: independent of delivery
    // order, and identical batches from sibling daemons all count.
    let fingerprint_bytes: Vec<u8> = delivery
        .fingerprint
        .iter()
        .flat_map(|&(epoch, id, label, payload)| [epoch as u64, id, label as u64, payload])
        .flat_map(u64::to_le_bytes)
        .collect();

    let snaps: Vec<_> = dep.daemon_metrics.iter().map(|m| m.snapshot()).collect();
    let peer_hits: u64 = snaps.iter().map(|s| s.peer_hits).sum();
    let peer_bytes: u64 = snaps.iter().map(|s| s.peer_bytes).sum();
    ContentionOutcome {
        // Caches are always configured in this experiment, so an absent
        // rate (cache disabled / no traffic) collapses to 0 and trips the
        // hit-rate assertions downstream rather than passing silently.
        per_daemon_hit_rate: snaps
            .iter()
            .map(|s| s.cache_hit_rate().unwrap_or(0.0))
            .collect(),
        per_daemon_storage_reads: snaps.iter().map(|s| s.storage_reads).collect(),
        aggregate_bytes_saved: snaps.iter().map(|s| s.cache_bytes_saved).sum(),
        nfs_bytes_read: mount.stats().bytes_read.load(Ordering::Relaxed),
        nfs_reads: mount.stats().reads.load(Ordering::Relaxed),
        prefetched: snaps.iter().map(|s| s.cache_prefetched).sum(),
        prefetch_wasted: snaps.iter().map(|s| s.cache_prefetch_wasted).sum(),
        batches_delivered: delivery.batches,
        expected_batches: dep.total_batches(),
        dataset_bytes: index.total_bytes(),
        unique_blocks,
        peer_hits,
        peer_misses: snaps.iter().map(|s| s.peer_misses).sum(),
        peer_fallbacks: snaps.iter().map(|s| s.peer_fallbacks).sum(),
        peer_bytes,
        payload_digest: fnv1a(&fingerprint_bytes),
        fleet_savings: peer_savings(
            peer_hits,
            peer_bytes,
            &nfs_config,
            &profile,
            DEFAULT_STORAGE_IO_WATTS,
        ),
    }
}

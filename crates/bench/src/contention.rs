//! EXP-CONTEND — multi-daemon shared-storage contention.
//!
//! The paper's remote-dataset regime has every storage daemon hammering
//! one NFS mount. With the composable read stack this is now just a
//! deployment shape: N cached `EmlioDaemon`s whose `NfsSource` roots share
//! a single emulated mount (one wire, one token bucket; `ReadStack`'s docs
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

use emlio_cache::peer::{FleetRegistry, PeerConfig};
use emlio_cache::CacheConfig;
use emlio_core::plan::Plan;
use emlio_core::wire;
use emlio_core::{EmlioConfig, EmlioDaemon, StackSpec};
use emlio_datagen::convert::build_tfrecord_dataset;
use emlio_datagen::DatasetSpec;
use emlio_energymon::{peer_savings, IoSavings, DEFAULT_STORAGE_IO_WATTS};
use emlio_netem::{NetProfile, NfsConfig, NfsMount, NfsSource};
use emlio_tfrecord::{GlobalIndex, ShardSpec};
use emlio_util::clock::RealClock;
use emlio_util::testutil::TempDir;
use emlio_zmq::{Endpoint, PullSocket, SocketOptions};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Keeps inproc sink names unique across repeated runs in one process.
static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

/// Shape of the contention experiment.
#[derive(Debug, Clone)]
pub struct ContentionConfig {
    /// Daemons sharing the one NFS mount.
    pub daemons: usize,
    /// Epochs each daemon streams.
    pub epochs: u32,
    /// Samples in the shared dataset.
    pub samples: u64,
    /// Shards the dataset is converted into.
    pub shards: u32,
    /// Batch size.
    pub batch: usize,
    /// Per-daemon cache RAM, bytes.
    pub cache_bytes: u64,
    /// Shared-link round-trip time.
    pub rtt: Duration,
    /// Shared-link bandwidth, bytes/second.
    pub bandwidth_bps: f64,
    /// Run the daemons as a cooperative cache fleet (one shared
    /// `FleetRegistry`, `peer` layer in every read stack).
    pub peer_fleet: bool,
    /// Peer fetch / flight-wait bound before degrading to direct NFS.
    pub peer_timeout: Duration,
}

impl ContentionConfig {
    /// CI-sized: 3 daemons × 2 epochs over a tiny dataset, negligible RTT.
    pub fn smoke() -> Self {
        ContentionConfig {
            daemons: 3,
            epochs: 2,
            samples: 48,
            shards: 2,
            batch: 8,
            cache_bytes: 64 << 20,
            rtt: Duration::ZERO,
            bandwidth_bps: 12.5e9,
            peer_fleet: false,
            peer_timeout: Duration::from_millis(500),
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
    /// Storage bytes each daemon avoided re-reading.
    pub per_daemon_bytes_saved: Vec<u64>,
    /// Positioned storage reads each daemon issued (peer-served reads are
    /// not storage reads).
    pub per_daemon_storage_reads: Vec<u64>,
    /// Sum of `per_daemon_bytes_saved`.
    pub aggregate_bytes_saved: u64,
    /// Data bytes that actually crossed the shared NFS link.
    pub nfs_bytes_read: u64,
    /// Positioned reads issued against the mount, across all daemons.
    pub nfs_reads: u64,
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
    /// Order-independent digest of every delivered batch payload: equal
    /// digests ⇒ byte-identical delivery (fleet on vs off).
    pub payload_digest: u64,
    /// NFS latency/energy the peer tier avoided, priced by the same cost
    /// model the baselines pay (zero when solo).
    pub fleet_savings: IoSavings,
}

fn fnv_update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Run `cfg.daemons` concurrent daemons, each with its own cache, all
/// reading through one shared [`NfsMount`] — cooperatively when
/// `cfg.peer_fleet` is set.
pub fn run(cfg: &ContentionConfig) -> ContentionOutcome {
    let dir = TempDir::new("contention");
    let spec = DatasetSpec::tiny("contend", cfg.samples);
    build_tfrecord_dataset(dir.path(), &spec, ShardSpec::Count(cfg.shards))
        .expect("dataset conversion");
    let index = Arc::new(GlobalIndex::load_dir(dir.path()).expect("index"));

    let profile = NetProfile::new("shared-nfs", cfg.rtt, cfg.bandwidth_bps);
    let nfs_config = NfsConfig::default();
    let mount = NfsMount::mount(
        dir.path(),
        profile.clone(),
        RealClock::shared(),
        nfs_config.clone(),
    );

    let config = EmlioConfig::default()
        .with_batch_size(cfg.batch)
        .with_threads(2)
        .with_epochs(cfg.epochs)
        .with_cache(
            CacheConfig::default()
                .with_ram_bytes(cfg.cache_bytes)
                .with_prefetch_depth(4),
        );

    // Fleet mode: every daemon joins the ring before any of them is
    // opened, so all of them compute identical block ownership from the
    // start.
    let registry = cfg.peer_fleet.then(FleetRegistry::new);
    if let Some(reg) = &registry {
        for d in 0..cfg.daemons {
            reg.join(&format!("d{d}"));
        }
    }

    let run_id = RUN_SEQ.fetch_add(1, Ordering::Relaxed);
    let mut opened = Vec::new();
    let mut drain_threads = Vec::new();
    let mut metrics = Vec::new();
    let mut expected_batches = 0u64;
    let mut unique_blocks = 0u64;
    for d in 0..cfg.daemons {
        let mut spec = StackSpec::over(Arc::new(NfsSource::new(index.clone(), mount.clone())));
        if let Some(reg) = &registry {
            spec = spec.in_fleet(
                reg.clone(),
                PeerConfig::default().with_timeout(cfg.peer_timeout),
            );
        }
        let daemon = EmlioDaemon::open_stack(&format!("d{d}"), index.clone(), config.clone(), spec)
            .expect("open daemon over shared mount");
        metrics.push(daemon.metrics());
        let plan = Plan::build(daemon.index(), &["node".to_string()], &config);
        // One positioned block read per planned batch, with identical
        // boundaries every epoch: epoch 0's batch count IS the unique
        // block count.
        unique_blocks = plan.batches_for(0, "node");
        expected_batches += (0..cfg.epochs)
            .map(|e| plan.batches_for(e, "node"))
            .sum::<u64>();
        let pull = PullSocket::bind(
            &Endpoint::inproc(&format!("contend-sink-{run_id}-{d}")),
            SocketOptions::default().with_hwm(32),
        )
        .expect("bind sink");
        let ep = pull.local_endpoint().expect("endpoint");
        let streams = config.threads_per_node as u32;
        drain_threads.push(std::thread::spawn(move || {
            let mut ends = 0u32;
            let mut batches = 0u64;
            // Per-batch FNV hashes combined with wrapping addition: the
            // digest is independent of cross-thread delivery order, and —
            // unlike XOR — identical batches from sibling daemons do not
            // cancel in pairs.
            let mut digest = 0u64;
            while ends < streams {
                match wire::decode_lazy(&pull.recv().expect("recv"), None).expect("decode") {
                    wire::LazyMsg::Batch(b) => {
                        let b = b.materialize();
                        batches += 1;
                        let mut h = fnv_update(0xcbf2_9ce4_8422_2325, &b.epoch.to_le_bytes());
                        h = fnv_update(h, &b.batch_id.to_le_bytes());
                        for s in &b.samples {
                            h = fnv_update(h, &s.sample_id.to_le_bytes());
                            h = fnv_update(h, &s.label.to_le_bytes());
                            h = fnv_update(h, &s.bytes);
                        }
                        digest = digest.wrapping_add(h);
                    }
                    wire::LazyMsg::EndStream { .. } => ends += 1,
                }
            }
            (batches, digest)
        }));
        opened.push((daemon, plan, ep));
    }

    // Every daemon is open — and, in fleet mode, its cache attached to the
    // registry — before any of them serves.
    let serve_threads: Vec<_> = opened
        .into_iter()
        .map(|(daemon, plan, ep)| {
            std::thread::spawn(move || {
                daemon.serve(&plan, "node", &ep).expect("serve");
            })
        })
        .collect();
    for t in serve_threads {
        t.join().expect("daemon thread");
    }
    let mut batches_delivered = 0u64;
    let mut payload_digest = 0u64;
    for t in drain_threads {
        let (batches, digest) = t.join().expect("drain thread");
        batches_delivered += batches;
        payload_digest = payload_digest.wrapping_add(digest);
    }

    let snaps: Vec<_> = metrics.iter().map(|m| m.snapshot()).collect();
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
        per_daemon_bytes_saved: snaps.iter().map(|s| s.cache_bytes_saved).collect(),
        per_daemon_storage_reads: snaps.iter().map(|s| s.storage_reads).collect(),
        aggregate_bytes_saved: snaps.iter().map(|s| s.cache_bytes_saved).sum(),
        nfs_bytes_read: mount.stats().bytes_read.load(Ordering::Relaxed),
        nfs_reads: mount.stats().reads.load(Ordering::Relaxed),
        batches_delivered,
        expected_batches,
        dataset_bytes: index.total_bytes(),
        unique_blocks,
        peer_hits,
        peer_misses: snaps.iter().map(|s| s.peer_misses).sum(),
        peer_fallbacks: snaps.iter().map(|s| s.peer_fallbacks).sum(),
        peer_bytes,
        payload_digest,
        fleet_savings: peer_savings(
            peer_hits,
            peer_bytes,
            &nfs_config,
            &profile,
            DEFAULT_STORAGE_IO_WATTS,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_link_carries_each_block_once_per_daemon() {
        let cfg = ContentionConfig::smoke();
        let out = run(&cfg);
        assert_eq!(out.batches_delivered, out.expected_batches, "{out:?}");
        // Single-flight per daemon: each unique block crossed the shared
        // link exactly once per daemon, regardless of epochs.
        assert_eq!(
            out.nfs_bytes_read,
            cfg.daemons as u64 * out.dataset_bytes,
            "{out:?}"
        );
        // Every repeat epoch was absorbed by the caches; prefetch wins in
        // epoch 1 can only push savings above the (E-1)× floor, up to E×.
        let floor = (cfg.epochs as u64 - 1) * out.nfs_bytes_read;
        let ceil = cfg.epochs as u64 * out.nfs_bytes_read;
        assert!(
            out.aggregate_bytes_saved >= floor && out.aggregate_bytes_saved <= ceil,
            "{out:?}"
        );
        for (d, rate) in out.per_daemon_hit_rate.iter().enumerate() {
            assert!(*rate >= 0.5, "daemon {d} hit rate {rate} below (E-1)/E");
        }
        // Solo mode has no peer tier at all.
        assert_eq!(
            (out.peer_hits, out.peer_misses, out.peer_fallbacks),
            (0, 0, 0),
            "{out:?}"
        );
    }

    #[test]
    fn cooperative_fleet_carries_each_block_once_total() {
        let cfg = ContentionConfig::smoke_fleet();
        let out = run(&cfg);
        assert_eq!(out.batches_delivered, out.expected_batches, "{out:?}");
        // The whole point: the shared link carried the dataset once,
        // not once per daemon.
        assert_eq!(out.nfs_bytes_read, out.dataset_bytes, "{out:?}");
        // Aggregate storage reads collapse to the unique block count.
        let total_reads: u64 = out.per_daemon_storage_reads.iter().sum();
        assert_eq!(total_reads, out.unique_blocks, "{out:?}");
        // Cold-start blocks each daemon did not read itself arrived from
        // peers, and pricing them is nonzero work avoided.
        assert!(out.peer_hits > 0, "{out:?}");
        assert_eq!(out.peer_fallbacks, 0, "healthy fleet never degrades");
        assert_eq!(out.fleet_savings.avoided_reads, out.peer_hits);
        assert!(out.fleet_savings.avoided_bytes > 0);
    }

    #[test]
    fn fleet_delivery_is_byte_identical_to_solo() {
        let mut solo = ContentionConfig::smoke_fleet();
        solo.peer_fleet = false;
        let fleet = ContentionConfig::smoke_fleet();
        let a = run(&solo);
        let b = run(&fleet);
        assert_eq!(a.batches_delivered, b.batches_delivered);
        assert_eq!(
            a.payload_digest, b.payload_digest,
            "peers on vs off must deliver identical payloads\n{a:?}\n{b:?}"
        );
    }
}

//! Cached replay: two epochs over loopback TCP, the second one served
//! entirely from the daemon's shard block cache.
//!
//! 1. Converts a synthetic dataset into TFRecord shards.
//! 2. Launches the EMLIO service with the `emlio-cache` block cache
//!    enabled (clairvoyant eviction + plan-walking prefetcher).
//! 3. Streams two epochs, then prints the hit-rate report and the NFS
//!    latency/energy the cache would have saved had the shards lived on a
//!    10 ms-RTT NFS mount (the paper's remote-storage regime).
//!
//! Run with: `cargo run --release --example cached_replay`

use emlio::cache::CacheConfig;
use emlio::core::service::StorageSpec;
use emlio::core::{EmlioConfig, EmlioService};
use emlio::datagen::convert::build_tfrecord_dataset;
use emlio::datagen::DatasetSpec;
use emlio::energymon::savings::{cache_savings, DEFAULT_STORAGE_IO_WATTS};
use emlio::netem::{NetProfile, NfsConfig};
use emlio::pipeline::ExternalSource;
use emlio::tfrecord::ShardSpec;
use emlio::util::bytesize::format_bytes;

fn main() {
    let dir = std::env::temp_dir().join(format!("emlio-cached-replay-{}", std::process::id()));

    // --- 1. Dataset conversion ------------------------------------------
    let spec = DatasetSpec::tiny("cached-replay", 512);
    let index = build_tfrecord_dataset(&dir, &spec, ShardSpec::Count(4))
        .expect("convert dataset to TFRecord shards");
    println!(
        "dataset: {} samples, {} shards, {}",
        index.total_records(),
        index.shards.len(),
        format_bytes(index.total_bytes()),
    );

    // --- 2. Launch with the block cache enabled -------------------------
    let config = EmlioConfig::default()
        .with_batch_size(32)
        .with_threads(2)
        .with_epochs(2)
        .with_cache(CacheConfig::default());
    let storage = vec![StorageSpec::new("storage-0", dir.clone())];
    let mut deployment =
        EmlioService::launch(&storage, &config, "compute-0").expect("launch EMLIO");
    println!(
        "service up: receiver at {}, {} batches over 2 epochs, cache enabled",
        deployment.receiver.endpoint(),
        deployment.total_batches(),
    );

    // --- 3. Stream both epochs ------------------------------------------
    let mut src = deployment.receiver.source();
    let mut per_epoch = [0u64; 2];
    while let Some(batch) = src.next_batch() {
        per_epoch[batch.epoch as usize] += batch.samples.len() as u64;
    }
    deployment.join_daemons().expect("daemons finish cleanly");
    println!(
        "delivered {} + {} samples across the two epochs",
        per_epoch[0], per_epoch[1],
    );

    // --- 4. The cache's report ------------------------------------------
    let snap = deployment.daemon_metrics[0].snapshot();
    println!("{}", snap.cache_summary());
    println!(
        "storage reads issued: {} (epoch 2 re-read nothing)",
        snap.storage_reads,
    );
    let saved = cache_savings(
        snap.cache.map_or(0, |c| c.hits),
        snap.cache.map_or(0, |c| c.bytes_saved),
        &NfsConfig::default(),
        &NetProfile::lan_10ms(),
        DEFAULT_STORAGE_IO_WATTS,
    );
    println!(
        "had the shards lived on 10 ms-RTT NFS, hits avoided {:.2} s of I/O and {:.1} J",
        saved.avoided_secs, saved.avoided_joules,
    );
    let _ = std::fs::remove_dir_all(&dir);
}

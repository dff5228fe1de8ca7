//! Quickstart: the full EMLIO path, end to end, on your machine.
//!
//! 1. Generates a small synthetic dataset and converts it into TFRecord
//!    shards with `mapping_shard_*.json` indexes (§4.3's one-time step).
//! 2. Launches the EMLIO service: the planner builds per-epoch batch plans,
//!    a storage daemon streams msgpack batches over real loopback TCP with
//!    HWM backpressure, the receiver fair-queues them (Algorithm 3).
//! 3. Feeds the receiver into the DALI-style preprocessing pipeline
//!    (decode → resize → crop → normalize) and trains a real MLP on the
//!    arriving tensors.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! ### Cache knobs
//!
//! The daemon can serve repeated epochs from a shard block cache instead
//! of re-reading storage. Enable it on the config with
//! `EmlioConfig::with_cache`:
//!
//! ```ignore
//! use emlio::cache::CacheConfig;
//! let config = config.with_cache(
//!     CacheConfig::default()
//!         .with_ram_bytes(256 << 20)   // RAM tier capacity
//!         .with_disk_bytes(1 << 30),   // optional disk spill tier
//! );
//! ```
//!
//! Neither eviction nor prefetching needs a knob: the epoch plan is the
//! policy (evict the block needed furthest in the future, skip admitting a
//! block that would be the victim on arrival, and stage planned blocks
//! ahead of the send workers as far as the RAM tier allows).
//!
//! See `examples/cached_replay.rs` for the full cached two-epoch replay
//! with the hit-rate and energy-saved report.

use emlio::core::service::StorageSpec;
use emlio::core::{EmlioConfig, EmlioService};
use emlio::datagen::convert::build_tfrecord_dataset;
use emlio::datagen::DatasetSpec;
use emlio::pipeline::PipelineBuilder;
use emlio::tfrecord::ShardSpec;
use emlio::trainsim::{Mlp, Trainer};
use emlio::util::clock::RealClock;

fn main() {
    let dir = std::env::temp_dir().join(format!("emlio-quickstart-{}", std::process::id()));

    // --- 1. Dataset conversion ------------------------------------------
    let spec = DatasetSpec::tiny("quickstart", 512);
    let index = build_tfrecord_dataset(&dir, &spec, ShardSpec::Count(4))
        .expect("convert dataset to TFRecord shards");
    println!(
        "dataset: {} samples, {} shards, {}",
        index.total_records(),
        index.shards.len(),
        emlio::util::bytesize::format_bytes(index.total_bytes()),
    );

    // --- 2. Launch the service ------------------------------------------
    let config = EmlioConfig::default()
        .with_batch_size(32)
        .with_threads(2)
        .with_epochs(2);
    let storage = vec![StorageSpec::new("storage-0", dir.clone())];
    let mut deployment =
        EmlioService::launch(&storage, &config, "compute-0").expect("launch EMLIO");
    println!(
        "service up: receiver at {}, expecting {} batches over {} epochs",
        deployment.receiver.endpoint(),
        deployment.total_batches(),
        config.epochs,
    );

    // --- 3. Preprocess + train ------------------------------------------
    let pipe = PipelineBuilder::new()
        .threads(2)
        .prefetch(2)
        .resize(48, 48)
        .crop(40, 40)
        .build(Box::new(deployment.receiver.source()));
    let mlp = Mlp::new(48, 64, spec.num_classes as usize, 0.05, 7);
    let mut trainer = Trainer::real(RealClock::shared(), mlp);
    let t0 = std::time::Instant::now();
    let log = trainer.run(&pipe);
    pipe.join();
    deployment.join_daemons().expect("daemons finish cleanly");

    let snap = deployment.receiver.metrics().snapshot();
    println!(
        "done in {:.2?}: {} batches / {} samples / {} over the wire",
        t0.elapsed(),
        snap.batches,
        snap.samples,
        emlio::util::bytesize::format_bytes(snap.bytes),
    );
    let first = log.iters.iter().find_map(|i| i.loss).unwrap_or(0.0);
    let last = log.final_loss().unwrap_or(0.0);
    println!(
        "trained MLP over the stream: loss {:.3} → {:.3} across {} iterations",
        first,
        last,
        log.iters.len(),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

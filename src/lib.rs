//! # EMLIO — Efficient Machine Learning I/O
//!
//! A Rust reproduction of *"EMLIO: Minimizing I/O Latency and Energy
//! Consumption for Large-Scale AI Training"* (SC 2025, Sustainable
//! Supercomputing Workshop): a service-based data-loading framework that
//! jointly minimizes end-to-end data-loading latency and I/O energy across
//! variable-latency networked storage.
//!
//! This crate is the facade over the workspace; see the members for the
//! implementation:
//!
//! * [`core`] — the EMLIO planner / daemon / receiver (the paper's §4);
//! * [`cache`] — the plan-aware multi-tier shard block cache with
//!   clairvoyant (Belady) eviction and prefetch on the daemon read path;
//! * [`energymon`] + [`tsdb`] — the distributed energy-measurement framework
//!   (§3, Algorithm 1) over an embedded time-series database;
//! * [`tfrecord`], [`msgpack`], [`zmq`] — the storage and wire substrates;
//! * [`pipeline`] — the DALI-style GPU preprocessing pipeline;
//! * [`baselines`] — the PyTorch-DataLoader and DALI comparison loaders, two
//!   presets of one per-file loader over NFS;
//! * [`netem`] — userspace RTT/bandwidth emulation and the NFS cost model;
//! * [`obs`] — data-path observability: per-stage latency histograms,
//!   batch tracing, the flight recorder, and the leveled logger;
//! * [`datagen`] — synthetic datasets with a real image codec;
//! * [`trainsim`] — backbone cost profiles, DDP model, a real MLP;
//! * [`testbed`] — the paper's evaluation replayed in virtual time (every
//!   figure);
//! * [`mod@bench`] — the figure-reproduction harness plus the seeded chaos
//!   suite (`emlio chaos`) that proves delivery guarantees under faults.
//!
//! ## Quickstart
//!
//! ```no_run
//! use emlio::core::{EmlioConfig, EmlioService, service::StorageSpec};
//! use emlio::datagen::{convert::build_tfrecord_dataset, DatasetSpec};
//! use emlio::tfrecord::ShardSpec;
//!
//! // 1. Convert a dataset into TFRecord shards (one-time, §4.3).
//! let dir = std::path::Path::new("/tmp/emlio-quickstart");
//! let spec = DatasetSpec::tiny("quickstart", 256);
//! build_tfrecord_dataset(dir, &spec, ShardSpec::Count(4)).unwrap();
//!
//! // 2. Launch the service: planner + daemon + receiver over TCP.
//! let config = EmlioConfig::default().with_batch_size(32);
//! let storage = vec![StorageSpec::new("storage-0", dir)];
//! let mut dep = EmlioService::launch(&storage, &config, "compute-0").unwrap();
//!
//! // 3. Feed the receiver into the DALI-style pipeline and train.
//! let pipe = emlio::pipeline::PipelineBuilder::new()
//!     .resize(64, 64)
//!     .build(Box::new(dep.receiver.source()));
//! while let Some(batch) = pipe.next_batch() {
//!     // training step …
//!     let _ = batch.tensors.len();
//! }
//! dep.join_daemons().unwrap();
//! ```

pub use emlio_baselines as baselines;
pub use emlio_bench as bench;
pub use emlio_cache as cache;
pub use emlio_core as core;
pub use emlio_datagen as datagen;
pub use emlio_energymon as energymon;
pub use emlio_msgpack as msgpack;
pub use emlio_netem as netem;
pub use emlio_obs as obs;
pub use emlio_pipeline as pipeline;
pub use emlio_testbed as testbed;
pub use emlio_tfrecord as tfrecord;
pub use emlio_trainsim as trainsim;
pub use emlio_tsdb as tsdb;
pub use emlio_util as util;
pub use emlio_zmq as zmq;

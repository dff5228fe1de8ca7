//! `emlio-core` — the EMLIO service: the paper's primary contribution.
//!
//! EMLIO (§4) decouples data movement from framework internals with three
//! cooperating pieces, all implemented here on top of the workspace
//! substrates:
//!
//! * **Planner** ([`plan`], Algorithm 2) — ingests TFRecord shard metadata
//!   (`mapping_shard_*.json`), the compute-node list, and epoch/batch
//!   parameters; emits, for every epoch and node, the exact contiguous
//!   TFRecord ranges that form each fixed-size batch, pre-split across `T`
//!   sender threads. Correct data-parallel semantics fall out of the plan:
//!   no client-side shard scans, no random small reads.
//! * **Daemon** ([`daemon`]) — runs beside the shards; each `SendWorker`
//!   thread turns one planned range into a single positioned read, wraps the
//!   records into one msgpack payload ([`wire`]), and PUSHes it over its own
//!   `emlio-zmq` stream, blocking at the HWM (16) when the compute side
//!   falls behind — §4's "network-pipeline concurrency".
//! * **Receiver** ([`receiver`], Algorithm 3) — binds the PULL socket,
//!   deserializes arriving payloads (zero-copy into [`emlio_pipeline::RawBatch`])
//!   into a shared bounded queue, and exposes it as a DALI
//!   `external_source`. Batches from different streams interleave freely —
//!   the out-of-order prefetching that bounds tail latency under RTT.
//!
//! [`service`] wires all three into a running deployment (optionally through
//! `emlio-netem` shapers for WAN emulation) and [`metrics`] carries the
//! timestamped events used to align with energy traces.

pub mod chaos;
pub mod config;
pub mod daemon;
pub mod export;
pub mod metrics;
pub mod plan;
pub mod receiver;
pub mod service;
pub mod stack;
pub mod stream_end;
pub mod wire;

pub use chaos::ChaosController;
pub use config::{Coverage, EmlioConfig};
pub use daemon::EmlioDaemon;
pub use emlio_util::pool::{self, BufferPool, PoolStats};
pub use export::{MetricsSampler, SampleSource, StallReport};
pub use metrics::{DataPathMetrics, MetricsSnapshot};
pub use plan::{BatchRange, EpochPlan, NodePlan, Plan};
pub use receiver::{EmlioReceiver, LazyQueueSource, ReceiverConfig};
pub use service::EmlioService;
pub use stack::{ReadStack, StackSpec};
pub use wire::{LazyBatch, LazyMsg};

//! `emlio-tfrecord` — the TFRecord container format and sharded datasets.
//!
//! EMLIO stores training data in large TFRecord files and assembles batches
//! by slicing contiguous byte ranges out of each shard (§2 technique (i),
//! §4.3). This crate implements:
//!
//! * the exact on-disk TFRecord framing used by TensorFlow — little-endian
//!   `u64` length, masked CRC32C of the length, payload, masked CRC32C of the
//!   payload ([`record`], [`crc32c`]);
//! * sequential writing ([`writer`]) and **range reads** ([`reader`],
//!   [`RangeReader`]): a shard is memory-mapped once, read-only,
//!   and a daemon thread takes one contiguous block of `B` records as a
//!   refcounted view of the mapping — no buffer, no copy, no seek, the
//!   paper's substitute for per-record small reads. Where a shard cannot
//!   be mapped the same block is one positioned read into a pooled buffer;
//! * sharded dataset layout with per-shard `mapping_shard_*.json` index files
//!   recording `(offset, length, label)` per record ([`shard`], [`index`]) —
//!   exactly what Algorithm 2 line 1 parses.
//!
//! Corruption is always detected: both CRCs are verified on read unless the
//! caller explicitly opts out for trusted local replay.

pub mod crc32c;
pub mod index;
mod mapped;
pub mod reader;
pub mod record;
pub mod retry;
pub mod shard;
pub mod source;
pub mod writer;

pub use index::{GlobalIndex, RecordMeta, ShardIndex};
pub use reader::RangeReader;
pub use record::{RecordError, FRAME_OVERHEAD};
pub use retry::{RetrySource, RetryStats, RetryStatsSnapshot};
pub use shard::{ShardSpec, ShardWriter};
pub use source::{
    BlockAlloc, BlockKey, BlockRead, FnSource, RangeSource, ReadOrigin, SystemAlloc, TfrecordSource,
};
pub use writer::RecordWriter;

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, RecordError>;

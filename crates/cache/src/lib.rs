//! `emlio-cache` — plan-aware multi-tier block cache for the daemon read path.
//!
//! EMLIO's daemon performs one positioned range read per planned batch,
//! every epoch, straight off (possibly remote) storage. But the planner
//! already knows the *exact* future access order, so repeated-epoch reads
//! are avoidable rework: the same `(shard, record-range)` blocks recur with
//! identical boundaries every epoch. This crate exploits that:
//!
//! * [`ShardCache`] — a two-tier cache: a bounded RAM tier plus an optional
//!   bounded local-disk spill tier, keyed by [`BlockKey`] (shard id +
//!   record range). One lock guards the residency map, the accounting,
//!   an incrementally-maintained eviction order per tier (a next-use
//!   heap, see [`order`]) and the spill writer's queue, so every slot
//!   transition is one short critical section — an eviction queues its
//!   victim's key for the writer in the one that flips the slot — and
//!   storage fetches and spill/promote file I/O run outside it. The
//!   blocks waiting for the writer are bounded in bytes, by the RAM tier.
//!   Lookups are single-flight: concurrent requests for the same missing
//!   block coalesce onto one storage read.
//!   The disk tier is inclusive and its files write-once: a block
//!   promoted back to RAM keeps its spill file, so evicting it again is
//!   a slot flip, and every byte read back from a spill file is length-
//!   and CRC-checked first ([`persist::read_validated`]) and served as a
//!   view of the file's mapping, as a shard block is.
//!   With [`CacheConfig::with_persist_dir`] the spill tier survives
//!   restarts: a CRC'd index ([`persist`]) is re-validated and re-admitted
//!   when the next cache opens over the same directory.
//! * The plan is the eviction policy: inside the epoch plan (installed via
//!   [`CacheCore::set_plan`]) both tiers evict the resident block whose
//!   next use is furthest in the future (Belady's algorithm — the insight
//!   of "Clairvoyant Prefetching for Distributed Machine Learning I/O")
//!   and skip admitting a block that would be the victim on arrival (true
//!   Belady with admission bypass). With no plan, or past its end, every
//!   next use is "never": the same order then evicts least recently used
//!   first and admits everything.
//! * [`CachedSource`] — the caching decorator of the composable
//!   [`RangeSource`] read stack: wrap any
//!   inner source (local `TfrecordSource`, `emlio-netem`'s `NfsSource`)
//!   and the whole daemon read path gains the cache transparently.
//! * [`PeerSource`] ([`peer`]) — the cooperative-fleet decorator: a
//!   [`FleetRegistry`] consistent-hashes block ownership across N daemons
//!   so non-owners fetch a block from its owner's RAM/disk tier (through a
//!   [`PeerTransport`]) instead of the shared storage link, with
//!   fleet-wide single-flight and graceful degradation to direct storage
//!   when a peer is down or slow.
//! * [`Prefetcher`] — a background executor that walks the planned access
//!   sequence ahead of the demand cursor and stages blocks into the RAM
//!   tier through a [`CachedSource`]: every read's bytes are reserved out
//!   of the RAM budget before it is issued, so staging the future never
//!   evicts what the plan needs sooner ([`prefetch`]).
//! * [`CachedRangeReader`] — the decode layer used by the daemon: turns
//!   block keys into record payloads through any source stack and reports
//!   origin/bytes/read-time per batch.
//!
//! [`CacheStats`] counts hits, misses, evictions, spills, re-admissions,
//! and bytes saved, which `emlio-core`'s metrics snapshot reads and
//! `emlio-energymon` converts into avoided NFS latency and energy.

pub mod cache;
pub mod order;
pub mod peer;
pub mod persist;
pub mod prefetch;
pub mod reader;
pub mod source;
pub mod stats;

pub use cache::{CacheConfig, CacheCore, EvictPolicy, Fetched, ShardCache};
pub use emlio_tfrecord::source::{BlockKey, BlockRead, RangeSource, ReadOrigin};
pub use peer::{
    ChaosPeer, FleetRegistry, HashRing, LocalPeer, PeerConfig, PeerFetch, PeerSource, PeerStats,
    PeerStatsSnapshot, PeerTransport,
};
pub use prefetch::Prefetcher;
pub use reader::{CachedRangeReader, RangeRead};
pub use source::CachedSource;
pub use stats::{CacheStats, CacheStatsSnapshot};

//! `emlio-tsdb` — an embedded time-series database in the InfluxDB mold.
//!
//! It has two users. EMLIO's energy monitor (§3) writes energy tuples,
//! tagged by node id, as InfluxDB would receive them, and later answers
//! *"total CPU energy of node A between epoch start and epoch end"* by
//! summing the tuples stamped in that range. The metrics exporter
//! (`emlio_core::export`) records every stage histogram and counter into
//! it and writes the result as line protocol for `emlio report`. This crate
//! supplies that substrate:
//!
//! * tagged, multi-field [`point::Point`]s with nanosecond timestamps;
//! * per-series columnar storage with time-sorted insertion ([`storage`]);
//! * range + tag-filter queries returning the matching points in time
//!   order ([`query`]); there are no server-side aggregations, a caller
//!   folds the points it gets;
//! * Influx line-protocol serialization for durability and diffing
//!   ([`mod@line`]);
//! * a thread-safe [`client::TsdbClient`] with the `write_points` / query
//!   shape of the InfluxDB Python client used in Algorithm 1.

pub mod client;
pub mod line;
pub mod point;
pub mod query;
pub mod storage;

pub use client::TsdbClient;
pub use point::Point;
pub use query::Query;
pub use storage::Db;

//! `emlio-netem` — userspace network emulation.
//!
//! The paper injects 1/10/30 ms RTTs with Linux `tc`/qdisc netem and mounts
//! remote datasets over NFSv4 (§5.1). Neither root qdiscs nor an NFS server
//! are available here, so this crate provides faithful userspace stand-ins:
//!
//! * [`profile::NetProfile`] — named (RTT, bandwidth) regimes including the
//!   paper's four distance classes;
//! * [`shaper::Proxy`] — a TCP relay that imposes serialization at the
//!   link's bandwidth and one-way propagation delay on unmodified sockets,
//!   as a delay line with one thread per direction, with in-flight bytes
//!   bounded by the link's bandwidth-delay product (so end-to-end
//!   backpressure still works, exactly like a real pipe that can only hold
//!   BDP bytes);
//! * [`nfs::NfsMount`] — an NFSv4-like remote filesystem client over a local
//!   directory that charges per-operation round trips (lookup/open/read
//!   chunks/getattr) and shared link bandwidth, reproducing the
//!   many-small-reads cost that makes baseline loaders collapse at high RTT;
//! * [`source::NfsSource`] — the mount presented as an
//!   `emlio_tfrecord::RangeSource`, so shared remote storage slots into the
//!   daemon's composable read stack under a per-daemon cache layer;
//! * [`fault::FaultSource`] — a seeded chaos decorator for the same read
//!   stack, paired with `NfsMount` failpoints (`nfs.open` / `nfs.read`)
//!   replaying an `emlio_util::fault::FaultInjector`.
//!
//! All delays are slept on the [`emlio_util::RealClock`] handle each
//! component is given: the process clock, which also stamps traces and
//! energy tuples.

pub mod fault;
pub mod nfs;
pub mod profile;
pub mod shaper;
pub mod source;

pub use fault::FaultSource;
pub use nfs::{NfsConfig, NfsFile, NfsMount};
pub use profile::NetProfile;
pub use shaper::Proxy;
pub use source::NfsSource;

//! Attribute avoided storage reads as saved I/O latency and energy.
//!
//! When the daemon's shard cache serves a planned batch from RAM, the read
//! that *would* have gone to networked storage never happens. This module
//! prices those avoided reads with the same `emlio-netem` NFS cost model
//! that drives the baselines: each avoided
//! read would have paid compound OPEN round trips, chunked READ waves, a
//! CLOSE, and its share of link bandwidth; the storage node would have
//! been busy (at its active I/O power draw) for exactly that long.
//!
//! The numbers are *modeled*, not measured — the point (following
//! "Predictive Modeling of I/O Performance for ML Training Pipelines") is
//! to turn raw hit/miss counters into the two quantities the paper
//! minimizes: seconds of I/O latency and joules of I/O energy.

use emlio_netem::{NetProfile, NfsConfig};
use std::time::Duration;

/// Default active power draw of a storage node while serving I/O, watts.
/// Matches the CPU+DRAM I/O-activity draw used by the testbed's storage
/// node model (Table 1 class hardware).
pub const DEFAULT_STORAGE_IO_WATTS: f64 = 35.0;

/// Modeled latency and energy that cache hits avoided.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IoSavings {
    /// Storage reads that never happened (cache hits).
    pub avoided_reads: u64,
    /// Bytes that never crossed the storage link.
    pub avoided_bytes: u64,
    /// Modeled wall time those reads would have taken, seconds
    /// (excluding cross-read bandwidth contention).
    pub avoided_secs: f64,
    /// Modeled storage-side I/O energy those reads would have burned,
    /// joules.
    pub avoided_joules: f64,
}

impl IoSavings {
    /// Mean modeled power the savings correspond to, watts.
    pub fn mean_watts(&self) -> f64 {
        if self.avoided_secs > 0.0 {
            self.avoided_joules / self.avoided_secs
        } else {
            0.0
        }
    }
}

/// Wall time `reads` reads of `bytes` total would have cost over NFS.
pub fn avoided_nfs_time(reads: u64, bytes: u64, nfs: &NfsConfig, profile: &NetProfile) -> Duration {
    if reads == 0 {
        return Duration::ZERO;
    }
    let per_read = bytes / reads;
    let mut total = nfs.read_cost(per_read, profile) * (reads as u32 - 1);
    // Charge any remainder bytes to the final read so totals stay exact.
    total += nfs.read_cost(bytes - per_read * (reads - 1), profile);
    total
}

/// Price `hits` avoided reads totalling `bytes_saved` bytes against the
/// NFS cost model, with the storage node drawing `storage_watts` while it
/// would have served them.
pub fn cache_savings(
    hits: u64,
    bytes_saved: u64,
    nfs: &NfsConfig,
    profile: &NetProfile,
    storage_watts: f64,
) -> IoSavings {
    let time = avoided_nfs_time(hits, bytes_saved, nfs, profile);
    IoSavings {
        avoided_reads: hits,
        avoided_bytes: bytes_saved,
        avoided_secs: time.as_secs_f64(),
        avoided_joules: time.as_secs_f64() * storage_watts,
    }
}

/// Price `peer_hits` blocks totalling `peer_bytes` bytes that a
/// cooperative fleet served from peer daemons' RAM/disk tiers instead of
/// the shared storage link. Same NFS cost model as [`cache_savings`]: the
/// avoided work is identical — the bytes simply came from a sibling daemon
/// rather than this daemon's own cache. Peer-to-peer transfer cost is not
/// netted out here; the in-process transport is free, and a socket
/// transport rides the daemon interconnect, not the storage link being
/// priced.
pub fn peer_savings(
    peer_hits: u64,
    peer_bytes: u64,
    nfs: &NfsConfig,
    profile: &NetProfile,
    storage_watts: f64,
) -> IoSavings {
    cache_savings(peer_hits, peer_bytes, nfs, profile, storage_watts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peer_savings_price_like_cache_savings() {
        let nfs = NfsConfig::default();
        let profile = NetProfile::wan_30ms();
        // A 4-daemon fleet where 3 non-owners each took 8 blocks of 1 MiB
        // from the owner: 24 storage reads never happened.
        let s = peer_savings(24, 24 << 20, &nfs, &profile, DEFAULT_STORAGE_IO_WATTS);
        let same = cache_savings(24, 24 << 20, &nfs, &profile, DEFAULT_STORAGE_IO_WATTS);
        assert_eq!(s, same);
        assert_eq!(s.avoided_reads, 24);
        assert!(s.avoided_secs > 0.0 && s.avoided_joules > 0.0);
    }

    #[test]
    fn zero_hits_zero_savings() {
        let s = cache_savings(
            0,
            0,
            &NfsConfig::default(),
            &NetProfile::lan_10ms(),
            DEFAULT_STORAGE_IO_WATTS,
        );
        assert_eq!(s, IoSavings::default());
        assert_eq!(s.mean_watts(), 0.0);
    }

    #[test]
    fn savings_match_cost_model() {
        let nfs = NfsConfig::default();
        let profile = NetProfile::lan_10ms();
        // 10 reads of 1 MiB each: open(2) + 1 wave + close(1) = 4 RTTs per
        // read at 10 ms, plus transfer.
        let s = cache_savings(10, 10 << 20, &nfs, &profile, 50.0);
        let per_read = nfs.read_cost(1 << 20, &profile).as_secs_f64();
        assert!((s.avoided_secs - 10.0 * per_read).abs() < 1e-9);
        assert!((s.avoided_joules - s.avoided_secs * 50.0).abs() < 1e-9);
        assert!((s.mean_watts() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn savings_grow_with_rtt() {
        let nfs = NfsConfig::default();
        let lan = cache_savings(100, 100 << 20, &nfs, &NetProfile::lan_1ms(), 35.0);
        let wan = cache_savings(100, 100 << 20, &nfs, &NetProfile::wan_30ms(), 35.0);
        assert!(
            wan.avoided_joules > lan.avoided_joules,
            "higher RTT ⇒ each avoided read was worth more"
        );
    }

    #[test]
    fn remainder_bytes_are_charged() {
        let nfs = NfsConfig::default();
        let profile = NetProfile::local();
        // 3 reads over 10 bytes: 3+3+4.
        let t = avoided_nfs_time(3, 10, &nfs, &profile);
        let expect = nfs.read_cost(3, &profile) * 2 + nfs.read_cost(4, &profile);
        assert!((t.as_secs_f64() - expect.as_secs_f64()).abs() < 1e-12);
    }
}

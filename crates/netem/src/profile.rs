//! Network distance regimes.

use std::time::Duration;

/// A (latency, bandwidth) link profile.
#[derive(Debug, Clone, PartialEq)]
pub struct NetProfile {
    /// Human-readable regime name (used in reports).
    pub name: String,
    /// Round-trip time.
    pub rtt: Duration,
    /// Link bandwidth in bytes/second.
    pub bandwidth_bps: f64,
}

/// 10 Gbps in bytes/second — the paper's testbed NICs (Table 1).
pub const BW_10GBPS: f64 = 1.25e9;

impl NetProfile {
    /// Arbitrary profile.
    pub fn new(name: &str, rtt: Duration, bandwidth_bps: f64) -> Self {
        assert!(bandwidth_bps > 0.0, "bandwidth must be positive");
        NetProfile {
            name: name.to_string(),
            rtt,
            bandwidth_bps,
        }
    }

    /// Local disk — no network in the path (zero RTT, "infinite" loopback
    /// bandwidth approximated by 40 Gbps memory-bus-ish loopback).
    pub fn local() -> Self {
        NetProfile::new("local", Duration::ZERO, 5.0e9)
    }

    /// Emulated 1 ms RTT at 10 Gbps.
    pub fn lan_1ms() -> Self {
        NetProfile::new("lan-1ms", Duration::from_millis(1), BW_10GBPS)
    }

    /// Emulated 10 ms RTT at 10 Gbps.
    pub fn lan_10ms() -> Self {
        NetProfile::new("lan-10ms", Duration::from_millis(10), BW_10GBPS)
    }

    /// WAN, 30 ms RTT at 10 Gbps (paper's UC↔TACC regime).
    pub fn wan_30ms() -> Self {
        NetProfile::new("wan-30ms", Duration::from_millis(30), BW_10GBPS)
    }

    /// One-way propagation delay (RTT / 2).
    pub fn one_way_delay(&self) -> Duration {
        self.rtt / 2
    }

    /// Bandwidth-delay product in bytes: how much data the pipe holds.
    pub fn bdp_bytes(&self) -> u64 {
        (self.bandwidth_bps * self.rtt.as_secs_f64()).ceil() as u64
    }

    /// Pure serialization time of `bytes` at link bandwidth.
    pub fn transfer_time(&self, bytes: u64) -> Duration {
        Duration::from_secs_f64(bytes as f64 / self.bandwidth_bps)
    }

    /// The link's one bandwidth rule, shared by the proxy's delay line and
    /// the NFS mount: `bytes` offered at `now` (clock nanos) serialize once
    /// the link is free, `link_free = max(link_free, now) + bytes /
    /// bandwidth`. Returns the new `link_free`, when the last byte is on
    /// the wire.
    pub fn reserve(&self, link_free: &mut u64, now: u64, bytes: u64) -> u64 {
        let serialize = self.transfer_time(bytes).as_nanos() as u64;
        *link_free = (*link_free).max(now) + serialize;
        *link_free
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_regimes_ordered_by_distance() {
        // The presets, nearest first.
        let regs = [
            NetProfile::local(),
            NetProfile::lan_1ms(),
            NetProfile::lan_10ms(),
            NetProfile::wan_30ms(),
        ];
        for pair in regs.windows(2) {
            assert!(pair[0].rtt <= pair[1].rtt);
        }
        assert_eq!(regs[3].rtt, Duration::from_millis(30));
    }

    #[test]
    fn bdp_math() {
        let wan = NetProfile::wan_30ms();
        // 1.25 GB/s * 0.03 s = 37.5 MB
        assert_eq!(wan.bdp_bytes(), 37_500_000);
        assert_eq!(NetProfile::local().bdp_bytes(), 0);
    }

    #[test]
    fn transfer_time_scales_linearly() {
        let lan = NetProfile::lan_1ms();
        let t1 = lan.transfer_time(1_250_000);
        assert!((t1.as_secs_f64() - 0.001).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn zero_bandwidth_rejected() {
        let _ = NetProfile::new("bad", Duration::ZERO, 0.0);
    }
}

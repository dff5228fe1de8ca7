//! DistributedDataParallel gradient-synchronization model.
//!
//! Ring allreduce moves `2(N−1)/N · G` bytes per node and crosses the link
//! `2(N−1)` times. Frameworks overlap allreduce with the backward pass; the
//! portion that fits in the overlap budget costs **no wall time but burns
//! near-peak power** (NCCL busy-polls) — that spin term is what makes the
//! paper's sharded-scenario energy climb with RTT while epoch time stays
//! flat (§5.2: *"not caused by I/O inefficiency … but by higher
//! synchronization overhead across higher-latency network links"*).

use crate::model::ModelProfile;
use std::time::Duration;

/// Cluster/sync parameters.
#[derive(Debug, Clone)]
pub struct DdpConfig {
    /// Participating nodes `N`.
    pub nodes: u32,
    /// Inter-node link bandwidth (bytes/s).
    pub link_bw: f64,
    /// Inter-node RTT.
    pub rtt: Duration,
    /// Fraction of the backward pass available for overlap (0..=1).
    pub overlap_fraction: f64,
}

impl DdpConfig {
    /// `n` nodes over a 10 Gbps link with the given RTT.
    pub fn cluster(n: u32, rtt: Duration) -> DdpConfig {
        assert!(n >= 1, "need at least one node");
        DdpConfig {
            nodes: n,
            link_bw: 1.25e9,
            rtt,
            overlap_fraction: 0.7,
        }
    }
}

/// Ring-allreduce completion time for `grad_bytes` across the config's
/// cluster: `2(N−1)/N · bytes / bw + 2(N−1) · rtt/2`.
pub fn allreduce_time(grad_bytes: u64, config: &DdpConfig) -> Duration {
    let n = config.nodes as f64;
    if config.nodes <= 1 {
        return Duration::ZERO;
    }
    let transfer = 2.0 * (n - 1.0) / n * grad_bytes as f64 / config.link_bw;
    let latency = 2.0 * (n - 1.0) * config.rtt.as_secs_f64() / 2.0;
    Duration::from_secs_f64(transfer + latency)
}

/// Per-iteration cost of gradient sync.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyncCost {
    /// Wall time added to the step (allreduce beyond the overlap budget).
    pub added_step_time: Duration,
    /// Busy-wait time burned at near-peak power while overlapped.
    pub spin_time: Duration,
}

/// Sync cost of one iteration of `model` with batch-backward time
/// `step_time` under `config`.
pub fn sync_cost(model: &ModelProfile, step_time: Duration, config: &DdpConfig) -> SyncCost {
    let ar = allreduce_time(model.grad_bytes(), config);
    let budget =
        Duration::from_secs_f64(step_time.as_secs_f64() * config.overlap_fraction.clamp(0.0, 1.0));
    if ar <= budget {
        SyncCost {
            added_step_time: Duration::ZERO,
            spin_time: ar,
        }
    } else {
        SyncCost {
            added_step_time: ar - budget,
            spin_time: budget,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node_is_free() {
        let c = DdpConfig::cluster(1, Duration::ZERO);
        assert_eq!(allreduce_time(1 << 30, &c), Duration::ZERO);
        let cost = sync_cost(&ModelProfile::resnet50(), Duration::from_millis(90), &c);
        assert_eq!(cost.added_step_time, Duration::ZERO);
        assert_eq!(cost.spin_time, Duration::ZERO);
    }

    #[test]
    fn ring_transfer_term() {
        // 2 nodes, 100 MB gradients, 1.25 GB/s, zero RTT:
        // 2·(1/2)·100MB / 1.25 GB/s = 0.08 s.
        let c = DdpConfig::cluster(2, Duration::ZERO);
        let t = allreduce_time(100_000_000, &c).as_secs_f64();
        assert!((t - 0.08).abs() < 1e-9);
    }

    #[test]
    fn latency_term_scales_with_rtt_and_nodes() {
        let base = allreduce_time(0, &DdpConfig::cluster(2, Duration::from_millis(10)));
        assert!(
            (base.as_secs_f64() - 0.010).abs() < 1e-9,
            "2(N-1)·rtt/2 = rtt"
        );
        let four = allreduce_time(0, &DdpConfig::cluster(4, Duration::from_millis(10)));
        assert!((four.as_secs_f64() - 0.030).abs() < 1e-9);
    }

    #[test]
    fn overlap_absorbs_small_sync() {
        let model = ModelProfile::resnet50(); // ~102 MB gradients
        let step = Duration::from_millis(93); // batch 64
                                              // 0.1 ms RTT: allreduce ≈ 82 ms ≥ budget 65 ms → some spill.
        let low = sync_cost(
            &model,
            step,
            &DdpConfig::cluster(2, Duration::from_micros(100)),
        );
        // 30 ms RTT: allreduce ≈ 112 ms → bigger spill, same spin budget.
        let high = sync_cost(
            &model,
            step,
            &DdpConfig::cluster(2, Duration::from_millis(30)),
        );
        assert!(high.added_step_time > low.added_step_time);
        assert_eq!(high.spin_time, low.spin_time.max(high.spin_time));
        // Spin time is capped by the overlap budget.
        assert!(high.spin_time <= Duration::from_secs_f64(0.093 * 0.7 + 1e-9));
    }

    #[test]
    fn spin_grows_with_rtt_until_budget() {
        // Small model: sync fits the budget at low RTT (pure spin, no added
        // time), spills at high RTT.
        let mut model = ModelProfile::resnet50();
        model.params = 2_000_000; // 8 MB gradients
        let step = Duration::from_millis(90);
        let low = sync_cost(
            &model,
            step,
            &DdpConfig::cluster(2, Duration::from_micros(100)),
        );
        assert_eq!(low.added_step_time, Duration::ZERO);
        let high = sync_cost(
            &model,
            step,
            &DdpConfig::cluster(2, Duration::from_millis(200)),
        );
        assert!(high.added_step_time > Duration::ZERO);
        assert!(high.spin_time >= low.spin_time);
    }
}

//! Interval energy aggregation — the paper's "query the TSDB for any known
//! start and end timestamps and accurately aggregate each node's energy".

use crate::{FIELD_CPU, FIELD_GPU, FIELD_MEM, MEASUREMENT};
use emlio_tsdb::{Query, TsdbClient};

/// Joule totals per component over an interval.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// CPU package joules.
    pub cpu_j: f64,
    /// DRAM joules.
    pub dram_j: f64,
    /// GPU joules.
    pub gpu_j: f64,
    /// Interval length in seconds.
    pub duration_secs: f64,
}

impl EnergyBreakdown {
    /// Total joules across components.
    pub fn total_j(&self) -> f64 {
        self.cpu_j + self.dram_j + self.gpu_j
    }

    /// Mean power over the interval, watts.
    pub fn mean_watts(&self) -> f64 {
        if self.duration_secs > 0.0 {
            self.total_j() / self.duration_secs
        } else {
            0.0
        }
    }
}

/// Sum one node's energy tuples stamped in `[start, end]` nanoseconds.
pub fn energy_between(client: &TsdbClient, node_id: &str, start: u64, end: u64) -> EnergyBreakdown {
    let field_sum = |field: &str| -> f64 {
        let q = Query::new(MEASUREMENT, field)
            .tag("node_id", node_id)
            .range(start, end);
        client.points(&q).iter().map(|&(_, j)| j).sum()
    };
    EnergyBreakdown {
        cpu_j: field_sum(FIELD_CPU),
        dram_j: field_sum(FIELD_MEM),
        gpu_j: field_sum(FIELD_GPU),
        duration_secs: (end.saturating_sub(start)) as f64 / 1e9,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emlio_tsdb::Point;

    fn seed(client: &TsdbClient, node: &str, n: u64, cpu: f64, gpu: f64) {
        for k in 0..n {
            client.write_point(
                Point::new(MEASUREMENT)
                    .tag("node_id", node)
                    .field(FIELD_CPU, cpu)
                    .field(FIELD_MEM, cpu / 10.0)
                    .field(FIELD_GPU, gpu)
                    .at(k * 100_000_000),
            );
        }
    }

    #[test]
    fn interval_sums() {
        let client = TsdbClient::new();
        seed(&client, "n0", 100, 10.0, 25.0);
        // Full range.
        let e = energy_between(&client, "n0", 0, u64::MAX);
        assert!((e.cpu_j - 1000.0).abs() < 1e-9);
        assert!((e.dram_j - 100.0).abs() < 1e-9);
        assert!((e.gpu_j - 2500.0).abs() < 1e-9);
        assert!((e.total_j() - 3600.0).abs() < 1e-9);
        // Half range: samples at t = 0..=4.9s → 50 samples.
        let e2 = energy_between(&client, "n0", 0, 4_900_000_000);
        assert!((e2.cpu_j - 500.0).abs() < 1e-9);
        assert!((e2.duration_secs - 4.9).abs() < 1e-9);
        assert!((e2.mean_watts() - (500.0 + 50.0 + 1250.0) / 4.9).abs() < 1e-6);
    }

    #[test]
    fn missing_node_is_zero() {
        let client = TsdbClient::new();
        let e = energy_between(&client, "ghost", 0, u64::MAX);
        assert_eq!(e.total_j(), 0.0);
    }
}

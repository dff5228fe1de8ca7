//! The lowest-level counter read under the monitor: a utilization×power
//! model over a live utilization probe.

use parking_lot::Mutex;
use std::sync::Arc;

/// Instantaneous utilization of a node's components, each in `[0, 1]`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Utilization {
    /// CPU package utilization (mean across sockets).
    pub cpu: f64,
    /// DRAM bandwidth utilization.
    pub dram: f64,
    /// GPU utilization.
    pub gpu: f64,
}

/// Something that can report current utilization (a live workload probe).
pub trait UtilProbe: Send + Sync {
    /// Utilization right now.
    fn utilization(&self) -> Utilization;
}

/// A fixed utilization (for tests and idle baselines).
pub struct ConstProbe(pub Utilization);

impl UtilProbe for ConstProbe {
    fn utilization(&self) -> Utilization {
        self.0
    }
}

/// Idle/peak wattage of one component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentPower {
    /// Draw when idle.
    pub idle_watts: f64,
    /// Draw at full utilization.
    pub peak_watts: f64,
}

impl ComponentPower {
    /// New component power envelope.
    pub fn new(idle_watts: f64, peak_watts: f64) -> ComponentPower {
        assert!(
            idle_watts >= 0.0 && peak_watts >= idle_watts,
            "need 0 ≤ idle ≤ peak"
        );
        ComponentPower {
            idle_watts,
            peak_watts,
        }
    }

    /// Power at `util ∈ [0,1]` (clamped): linear idle→peak.
    pub fn watts(&self, util: f64) -> f64 {
        let u = util.clamp(0.0, 1.0);
        self.idle_watts + u * (self.peak_watts - self.idle_watts)
    }
}

/// Per-node power envelope.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodePower {
    /// CPU packages (total across sockets).
    pub cpu: ComponentPower,
    /// DRAM.
    pub dram: ComponentPower,
    /// GPU, if present.
    pub gpu: Option<ComponentPower>,
}

/// Joules each component drew over one interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Joules {
    /// CPU packages.
    pub cpu: f64,
    /// DRAM.
    pub dram: f64,
    /// GPU; `None` on a node without one (the paper's storage nodes).
    pub gpu: Option<f64>,
}

/// The node's energy counters: a utilization×power model over a probe.
/// One [`ModelPower::sample`] stands in for `perf stat -e
/// power/energy-pkg/,power/energy-ram/ sleep δ` (CPU/DRAM) and the NVML
/// power reads summed over the same interval (GPU).
pub struct ModelPower {
    power: NodePower,
    probe: Arc<dyn UtilProbe>,
}

impl ModelPower {
    /// Model over a probe.
    pub fn new(power: NodePower, probe: Arc<dyn UtilProbe>) -> ModelPower {
        ModelPower { power, probe }
    }

    /// Joules every component drew over the last `dt_secs`, from one read
    /// of the probe: a probe that reports the interval since its previous
    /// read would see an empty interval on a second one.
    pub fn sample(&self, dt_secs: f64) -> Joules {
        let u = self.probe.utilization();
        Joules {
            cpu: self.power.cpu.watts(u.cpu) * dt_secs,
            dram: self.power.dram.watts(u.dram) * dt_secs,
            gpu: self.power.gpu.map(|g| g.watts(u.gpu) * dt_secs),
        }
    }
}

/// `/proc/stat`-backed CPU utilization probe for real runs on Linux. On
/// other platforms (or if the file is unreadable) it reports zero.
pub struct ProcStatProbe {
    last: Mutex<Option<(u64, u64)>>, // (busy_jiffies, total_jiffies)
}

impl ProcStatProbe {
    /// New probe; the first reading returns 0 (no delta yet).
    pub fn new() -> ProcStatProbe {
        ProcStatProbe {
            last: Mutex::new(None),
        }
    }
}

impl Default for ProcStatProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl UtilProbe for ProcStatProbe {
    fn utilization(&self) -> Utilization {
        let text = match std::fs::read_to_string("/proc/stat") {
            Ok(t) => t,
            Err(_) => return Utilization::default(),
        };
        let Some((busy, total)) = parse_proc_stat_cpu(&text) else {
            return Utilization::default();
        };
        let mut last = self.last.lock();
        let util = match *last {
            Some((b0, t0)) if total > t0 => (busy - b0) as f64 / (total - t0) as f64,
            _ => 0.0,
        };
        *last = Some((busy, total));
        Utilization {
            cpu: util.clamp(0.0, 1.0),
            dram: util.clamp(0.0, 1.0) * 0.5, // DRAM activity tracks CPU activity
            gpu: 0.0,
        }
    }
}

/// Parse the aggregate `cpu` line of `/proc/stat` → (busy, total) jiffies.
pub fn parse_proc_stat_cpu(text: &str) -> Option<(u64, u64)> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let nums: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    if nums.len() < 4 {
        return None;
    }
    let total: u64 = nums.iter().sum();
    let idle = nums[3] + nums.get(4).copied().unwrap_or(0); // idle + iowait
    Some((total - idle, total))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> NodePower {
        NodePower {
            cpu: ComponentPower::new(60.0, 250.0),
            dram: ComponentPower::new(5.0, 20.0),
            gpu: Some(ComponentPower::new(25.0, 260.0)),
        }
    }

    #[test]
    fn linear_power_model() {
        let p = ComponentPower::new(60.0, 250.0);
        assert_eq!(p.watts(0.0), 60.0);
        assert_eq!(p.watts(1.0), 250.0);
        assert_eq!(p.watts(0.5), 155.0);
        assert_eq!(p.watts(-1.0), 60.0, "clamped");
        assert_eq!(p.watts(2.0), 250.0, "clamped");
    }

    #[test]
    #[should_panic]
    fn peak_below_idle_rejected() {
        let _ = ComponentPower::new(100.0, 50.0);
    }

    #[test]
    fn model_source_integrates_over_dt() {
        let probe = Arc::new(ConstProbe(Utilization {
            cpu: 1.0,
            dram: 0.0,
            gpu: 0.5,
        }));
        let j = ModelPower::new(node(), probe).sample(0.1);
        assert!((j.cpu - 25.0).abs() < 1e-9, "250W × 0.1s");
        assert!((j.dram - 0.5).abs() < 1e-9, "5W idle × 0.1s");
        assert!((j.gpu.unwrap() - 14.25).abs() < 1e-9, "142.5W × 0.1s");
    }

    #[test]
    fn gpu_less_node_returns_none() {
        let mut p = node();
        p.gpu = None;
        let src = ModelPower::new(p, Arc::new(ConstProbe(Utilization::default())));
        assert!(src.sample(0.1).gpu.is_none());
    }

    #[test]
    fn proc_stat_parsing() {
        let text = "cpu  100 0 50 800 50 0 0 0 0 0\ncpu0 50 0 25 400 25 0 0 0 0 0\n";
        let (busy, total) = parse_proc_stat_cpu(text).unwrap();
        assert_eq!(total, 1000);
        assert_eq!(busy, 150); // 1000 - 800 idle - 50 iowait
        assert!(parse_proc_stat_cpu("intr 1 2 3").is_none());
        assert!(parse_proc_stat_cpu("cpu 1 2").is_none());
    }

    #[test]
    fn proc_stat_probe_live() {
        // On Linux this exercises the real file; elsewhere it returns zeros.
        let probe = ProcStatProbe::new();
        let u1 = probe.utilization();
        assert!(u1.cpu >= 0.0 && u1.cpu <= 1.0);
        let u2 = probe.utilization();
        assert!(u2.cpu >= 0.0 && u2.cpu <= 1.0);
    }
}

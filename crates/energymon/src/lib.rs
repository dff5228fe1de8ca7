//! `emlio-energymon` — the distributed energy-measurement framework of §3.
//!
//! This is the paper's `EnergyMonitor` (Algorithm 1 and Figure 2):
//!
//! * per node, one tuple per sampling interval δ (the paper's 100 ms),
//!   holding the joules of CPU packages, DRAM and, on a GPU node, the GPU,
//!   read at one instant so the tuple is coherent across components;
//! * tuples tagged with the node id and written to the TSDB in batches of
//!   up to `N` points (`emlio-tsdb` standing in for InfluxDB);
//! * tuples are stamped by the process clock (`emlio_obs::clock`, through
//!   the monitor's `RealClock` handle) that also stamps every trace and
//!   stage histogram, standing in for NTP alignment: post-hoc interval
//!   queries over two stamps of that clock (an epoch's start and end)
//!   sum each node's energy as in the paper.
//!
//! **One thread per node.** The paper runs a sampler thread per component,
//! aligned on a barrier, plus an accumulator that interpolates missed
//! intervals and a batch writer, because its counter reads block: `perf
//! stat … sleep δ` for the whole interval, NVML reads beside it. Our read
//! returns at once, so one thread reads every component at one instant,
//! which is the coherent tuple the barrier exists to align. Each tuple is
//! stamped at the start of its interval and charged with the interval it
//! actually measured, so consecutive tuples tile the timeline and there is
//! no hole to interpolate.
//!
//! **Counter substitution.** `perf stat -e power/energy-pkg/` and NVML are
//! not available in this environment, so the lowest-level read is
//! [`power::ModelPower`]: a calibrated utilization×power model driven by a
//! live [`power::UtilProbe`] (`/proc/stat`-based for real runs).
//! Everything above that read — the sampling loop, batching, tagging,
//! queries — is the paper's machinery.

pub mod monitor;
pub mod power;
pub mod report;
pub mod savings;

pub use monitor::{EnergyMonitor, MonitorConfig};
pub use power::{ComponentPower, ModelPower, NodePower, UtilProbe, Utilization};
pub use report::EnergyBreakdown;
pub use savings::{cache_savings, peer_savings, IoSavings, DEFAULT_STORAGE_IO_WATTS};

/// The paper's sampling interval: 100 ms.
pub const DEFAULT_INTERVAL_NANOS: u64 = 100_000_000;

/// Measurement name used in the TSDB.
pub const MEASUREMENT: &str = "energy";

/// Field names (matching Algorithm 1's tuple fields).
pub const FIELD_CPU: &str = "cpu_energy";
/// DRAM energy field.
pub const FIELD_MEM: &str = "memory_energy";
/// GPU energy field.
pub const FIELD_GPU: &str = "gpu_energy";

//! `emlio-energymon` — the distributed energy-measurement framework of §3.
//!
//! This is a faithful implementation of the paper's `EnergyMonitor`
//! (Algorithm 1 and Figure 2):
//!
//! * per-node **CPU/DRAM** and **GPU sampler threads**, aligned on a barrier
//!   so every sampling instant `t_k` yields a coherent cross-component energy
//!   tuple, at the paper's δ = 100 ms;
//! * an **Accumulator** that merges per-component queues by `t_k` and
//!   **linearly interpolates** missed intervals, keeping the series gapless
//!   ([`accumulator::StreamMerger`] is the pure, unit-testable core);
//! * a **Batch Writer** that tags tuples with the node id and writes batches
//!   of up to `N` points to the TSDB (`emlio-tsdb` standing in for
//!   InfluxDB);
//! * tuples are stamped by the process clock (`emlio_obs::clock`, through
//!   the monitor's `RealClock` handle) that also stamps every trace and
//!   stage histogram, standing in for NTP alignment: post-hoc interval
//!   queries over two stamps of that clock (an epoch's start and end)
//!   aggregate each node's energy as in the paper.
//!
//! **Counter substitution.** `perf stat -e power/energy-pkg/` and NVML are
//! not available in this environment, so the lowest-level read is a
//! [`power::PowerSource`]: either a calibrated utilization×power model
//! (driven by live [`power::UtilProbe`]s) or a
//! `/proc/stat`-based CPU source for real runs. Everything above that read —
//! threads, barrier, queues, interpolation, batching, tagging, queries — is
//! the paper's machinery.

pub mod accumulator;
pub mod monitor;
pub mod power;
pub mod report;
pub mod savings;

pub use accumulator::StreamMerger;
pub use monitor::{EnergyMonitor, MonitorConfig};
pub use power::{ComponentPower, ModelPower, NodePower, PowerSource, UtilProbe, Utilization};
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

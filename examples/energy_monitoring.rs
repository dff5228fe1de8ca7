//! The distributed energy-measurement framework (§3, Algorithm 1), live.
//!
//! Starts one `EnergyMonitor` per emulated node — one thread that reads
//! CPU/DRAM and GPU counters together every δ = 100 ms (scaled down here)
//! and writes batches of tuples into the shared "central" TSDB — while an
//! EMLIO run streams and preprocesses data. Afterwards, interval queries
//! over the epoch's start and end stamps (the clock the energy tuples are
//! stamped with) break energy down per node, like Figure 1.
//!
//! Run with: `cargo run --release --example energy_monitoring`

use emlio::core::service::StorageSpec;
use emlio::core::{EmlioConfig, EmlioService};
use emlio::datagen::convert::build_tfrecord_dataset;
use emlio::datagen::DatasetSpec;
use emlio::energymon::report::energy_between;
use emlio::energymon::{ComponentPower, EnergyMonitor, ModelPower, MonitorConfig, NodePower};
use emlio::pipeline::gpu::AcceleratorProbe;
use emlio::pipeline::{Accelerator, Device, PipelineBuilder};
use emlio::tfrecord::ShardSpec;
use emlio::tsdb::TsdbClient;
use emlio::util::clock::RealClock;
use std::sync::Arc;

fn main() {
    let dir = std::env::temp_dir().join(format!("emlio-energy-{}", std::process::id()));
    let spec = DatasetSpec::tiny("energy", 256);
    build_tfrecord_dataset(&dir, &spec, ShardSpec::Count(2)).unwrap();

    let clock = RealClock::shared();
    let central_tsdb = TsdbClient::new();

    // The compute node's power: a simulated accelerator probe feeds GPU
    // utilization; CPU utilization comes from /proc/stat on Linux.
    let accel = Accelerator::rtx6000();
    let probe = Arc::new(AcceleratorProbe::new(accel.clone()));
    probe.set_cpu_util(0.2);
    let compute_monitor = EnergyMonitor::start(MonitorConfig {
        node_id: "compute-0".into(),
        interval_nanos: 10_000_000, // 10 ms — scaled-down δ for the demo
        batch_size: 16,
        clock: clock.clone(),
        source: Arc::new(ModelPower::new(
            NodePower {
                cpu: ComponentPower::new(40.0, 240.0),
                dram: ComponentPower::new(6.0, 25.0),
                gpu: Some(ComponentPower::new(25.0, 260.0)),
            },
            probe.clone(),
        )),
        has_gpu: true,
        client: central_tsdb.clone(),
    });
    let storage_monitor = EnergyMonitor::start(MonitorConfig {
        node_id: "storage-0".into(),
        interval_nanos: 10_000_000,
        batch_size: 16,
        clock: clock.clone(),
        source: Arc::new(ModelPower::new(
            NodePower {
                cpu: ComponentPower::new(40.0, 240.0),
                dram: ComponentPower::new(6.0, 25.0),
                gpu: None,
            },
            Arc::new(emlio::energymon::power::ProcStatProbe::new()),
        )),
        has_gpu: false,
        client: central_tsdb.clone(),
    });

    // The monitored workload: one EMLIO epoch with GPU-placed preprocessing.
    let t_start = clock.now_nanos();
    let config = EmlioConfig::default().with_batch_size(16).with_threads(2);
    let storage = vec![StorageSpec::new("storage-0", dir.clone())];
    let mut dep = EmlioService::launch(&storage, &config, "compute-0").unwrap();
    let pipe = PipelineBuilder::new()
        .threads(2)
        .resize(48, 48)
        .device(Device::Gpu(accel.clone()))
        .build(Box::new(dep.receiver.source()));
    let mut batches = 0;
    while pipe.next_batch().is_some() {
        batches += 1;
    }
    pipe.join();
    dep.join_daemons().unwrap();
    let t_end = clock.now_nanos();

    // Let the monitors cover the tail, then flush.
    std::thread::sleep(std::time::Duration::from_millis(50));
    let wrote_compute = compute_monitor.stop();
    let wrote_storage = storage_monitor.stop();
    println!(
        "monitors flushed {} + {} samples into the central TSDB ({} points)",
        wrote_compute,
        wrote_storage,
        central_tsdb.point_count(),
    );

    // NTP-style interval query: epoch energy per node.
    let epoch_nanos = t_end - t_start;
    println!(
        "epoch: {} batches in {:.3}s",
        batches,
        epoch_nanos as f64 / 1e9
    );
    for node in ["compute-0", "storage-0"] {
        let e = energy_between(&central_tsdb, node, t_start, t_end);
        println!(
            "  {node:<10} cpu={:7.2} J  dram={:6.2} J  gpu={:7.2} J  (mean {:.1} W)",
            e.cpu_j,
            e.dram_j,
            e.gpu_j,
            e.mean_watts(),
        );
    }
    println!(
        "accelerator accounted {:.2} ms of device-busy time",
        accel.busy_nanos() as f64 / 1e6
    );
    let _ = std::fs::remove_dir_all(&dir);
}

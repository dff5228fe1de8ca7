//! A monitor on a GPU node is one thread. This has its own test binary:
//! the unit tests run monitors in parallel threads of one process, which
//! would show up in the count.
#![cfg(target_os = "linux")]

use emlio_energymon::power::ConstProbe;
use emlio_energymon::{
    ComponentPower, EnergyMonitor, ModelPower, MonitorConfig, NodePower, Utilization,
};
use emlio_tsdb::TsdbClient;
use emlio_util::clock::RealClock;
use std::sync::Arc;

/// Threads of this process whose name starts with `energymon`.
fn energymon_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.unwrap().path().join("comm")).ok())
        .filter(|comm| comm.starts_with("energymon"))
        .count()
}

#[test]
fn a_gpu_node_monitor_is_one_thread() {
    let client = TsdbClient::new();
    let monitor = EnergyMonitor::start(MonitorConfig {
        node_id: "compute-0".into(),
        interval_nanos: 2_000_000,
        batch_size: 4,
        clock: RealClock::shared(),
        source: Arc::new(ModelPower::new(
            NodePower {
                cpu: ComponentPower::new(40.0, 240.0),
                dram: ComponentPower::new(6.0, 25.0),
                gpu: Some(ComponentPower::new(25.0, 260.0)),
            },
            Arc::new(ConstProbe(Utilization::default())),
        )),
        has_gpu: true,
        client: client.clone(),
    });
    std::thread::sleep(std::time::Duration::from_millis(20));
    let threads = energymon_threads();
    let written = monitor.stop();
    assert_eq!(threads, 1, "one monitor thread per node");
    assert!(written >= 1);
    assert_eq!(energymon_threads(), 0, "stop joins the thread");
}

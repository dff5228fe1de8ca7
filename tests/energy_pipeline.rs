//! Integration of the measurement stack: EnergyMonitor (Algorithm 1) +
//! TSDB around a live EMLIO run, with the accelerator probe feeding GPU
//! utilization and the epoch marked by two stamps of the monitor's clock.

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
use emlio::util::testutil::{poll_until, TempDir};
use std::sync::Arc;

#[test]
fn monitored_run_produces_queryable_energy() {
    let dir = TempDir::new("energy-pipeline");
    let spec = DatasetSpec::tiny("nrg", 96);
    build_tfrecord_dataset(dir.path(), &spec, ShardSpec::Count(2)).unwrap();

    let clock = RealClock::shared();
    let tsdb = TsdbClient::new();
    let accel = Accelerator::new("test-gpu", 8.0);
    let probe = Arc::new(AcceleratorProbe::new(accel.clone()));
    probe.set_cpu_util(0.3);

    let monitor = EnergyMonitor::start(MonitorConfig {
        node_id: "compute-0".into(),
        interval_nanos: 5_000_000,
        batch_size: 8,
        clock: clock.clone(),
        source: Arc::new(ModelPower::new(
            NodePower {
                cpu: ComponentPower::new(40.0, 240.0),
                dram: ComponentPower::new(6.0, 25.0),
                gpu: Some(ComponentPower::new(25.0, 260.0)),
            },
            probe,
        )),
        has_gpu: true,
        client: tsdb.clone(),
    });

    // The epoch's start and end: two stamps of the clock the tuples carry.
    let t0 = clock.now_nanos();
    let config = EmlioConfig::default().with_batch_size(12);
    let mut dep =
        EmlioService::launch(&[StorageSpec::new("s", dir.path())], &config, "compute-0").unwrap();
    let pipe = PipelineBuilder::new()
        .threads(2)
        .resize(40, 40)
        .device(Device::Gpu(accel.clone()))
        .build(Box::new(dep.receiver.source()));
    let mut batches = 0;
    while pipe.next_batch().is_some() {
        batches += 1;
    }
    pipe.join();
    dep.join_daemons().unwrap();
    let t1 = clock.now_nanos();

    // Wait until several sampling intervals have actually landed in the
    // TSDB (bounded poll — a fixed sleep here flakes on loaded machines).
    assert!(
        poll_until(std::time::Duration::from_secs(10), || tsdb.point_count()
            >= 3),
        "timed out waiting for energy samples to flush"
    );
    let written = monitor.stop();
    assert!(written >= 3, "expected several samples, wrote {written}");
    assert!(batches >= 8);

    // Interval energy is positive and at least the idle floor.
    let e = energy_between(&tsdb, "compute-0", t0, t1);
    let secs = (t1 - t0) as f64 / 1e9;
    assert!(e.cpu_j > 0.0 && e.gpu_j > 0.0);
    assert!(
        e.cpu_j >= 40.0 * secs * 0.3,
        "cpu energy {} must cover a chunk of the idle floor over {secs}s",
        e.cpu_j
    );
    assert!(accel.busy_nanos() > 0);
}

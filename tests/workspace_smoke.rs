//! Workspace smoke test: the `quickstart` flow end to end on a tiny
//! in-tmpdir dataset — datagen → TFRecord shards → planner → live service →
//! pipeline. Its job is to guard the crate-graph wiring: every facade
//! re-export used here crosses a crate boundary, so a broken member manifest
//! or dependency edge fails this test before anything subtler does.

use emlio::core::plan::Plan;
use emlio::core::service::StorageSpec;
use emlio::core::{EmlioConfig, EmlioService};
use emlio::datagen::convert::build_tfrecord_dataset;
use emlio::datagen::DatasetSpec;
use emlio::pipeline::PipelineBuilder;
use emlio::tfrecord::ShardSpec;
use emlio::util::testutil::TempDir;

#[test]
fn quickstart_flow_end_to_end() {
    // 1. Datagen → TFRecord shards (crates: datagen → tfrecord → util).
    let dir = TempDir::new("workspace-smoke");
    let spec = DatasetSpec::tiny("smoke", 96);
    let index =
        build_tfrecord_dataset(dir.path(), &spec, ShardSpec::Count(3)).expect("dataset conversion");
    assert_eq!(index.total_records(), 96);
    assert_eq!(index.shards.len(), 3);
    assert!(index.total_bytes() > 0);

    // 2. Planner (crates: core → tfrecord), standalone before the service.
    let config = EmlioConfig::default()
        .with_batch_size(16)
        .with_threads(2)
        .with_epochs(1);
    let plan = Plan::build(&index, &["compute-0".to_string()], &config);
    let planned: u64 = plan.batches_for(0, "compute-0");
    assert!(planned > 0, "planner produced batches");

    // 3. Full service over loopback TCP (crates: core → zmq/msgpack) and the
    //    DALI-style pipeline as consumer (crates: pipeline → datagen).
    let storage = vec![StorageSpec::new("storage-0", dir.path())];
    let mut deployment =
        EmlioService::launch(&storage, &config, "compute-0").expect("service launch");
    let expected_batches = deployment.total_batches();
    assert_eq!(expected_batches, planned, "service serves the plan");

    let pipe = PipelineBuilder::new()
        .threads(1)
        .resize(24, 24)
        .build(Box::new(deployment.receiver.source()));
    let mut batches = 0u64;
    let mut samples = 0u64;
    while let Some(batch) = pipe.next_batch() {
        batches += 1;
        samples += batch.tensors.len() as u64;
    }
    pipe.join();
    deployment.join_daemons().expect("clean shutdown");

    assert_eq!(batches, expected_batches, "every planned batch arrived");
    assert_eq!(samples, 96, "exactly-once sample coverage");
}

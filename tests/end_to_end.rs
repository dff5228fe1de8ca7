//! End-to-end integration: dataset conversion → planner → daemon → TCP →
//! receiver → preprocessing pipeline → training loop.

use emlio::core::service::StorageSpec;
use emlio::core::{Coverage, EmlioConfig, EmlioService};
use emlio::datagen::convert::build_tfrecord_dataset;
use emlio::datagen::DatasetSpec;
use emlio::pipeline::PipelineBuilder;
use emlio::tfrecord::ShardSpec;
use emlio::trainsim::{Mlp, Trainer};
use emlio::util::clock::RealClock;
use emlio::util::testutil::TempDir;
use std::collections::{HashMap, HashSet};

#[test]
fn every_sample_exactly_once_per_epoch_with_correct_payloads() {
    let dir = TempDir::new("e2e-exactly-once");
    let spec = DatasetSpec::tiny("e2e", 103); // deliberately not a multiple of B
    build_tfrecord_dataset(dir.path(), &spec, ShardSpec::Count(3)).unwrap();

    let config = EmlioConfig::default()
        .with_batch_size(8)
        .with_threads(3)
        .with_epochs(3);
    let storage = vec![StorageSpec::new("s0", dir.path())];
    let mut dep = EmlioService::launch(&storage, &config, "c0").unwrap();

    let mut src = dep.receiver.source();
    let mut per_epoch: Vec<HashSet<u64>> = vec![HashSet::new(); 3];
    let mut arrival_order: Vec<Vec<u64>> = vec![Vec::new(); 3];
    use emlio::pipeline::ExternalSource;
    while let Some(batch) = src.next_batch() {
        for s in &batch.samples {
            assert!(
                per_epoch[batch.epoch as usize].insert(s.sample_id),
                "epoch {}: duplicate sample {}",
                batch.epoch,
                s.sample_id
            );
            assert_eq!(s.label, spec.label_of(s.sample_id), "label integrity");
            assert_eq!(
                s.bytes.as_ref(),
                spec.payload_of(s.sample_id),
                "payload integrity for sample {}",
                s.sample_id
            );
            arrival_order[batch.epoch as usize].push(s.sample_id);
        }
    }
    dep.join_daemons().unwrap();
    for (e, seen) in per_epoch.iter().enumerate() {
        assert_eq!(seen.len(), 103, "epoch {e} covers the dataset");
    }
    // Epoch shuffles must differ (Algorithm 2 line 4).
    assert_ne!(arrival_order[0], arrival_order[1]);
    assert_ne!(arrival_order[1], arrival_order[2]);
}

#[test]
fn full_stack_training_run() {
    let dir = TempDir::new("e2e-train");
    let spec = DatasetSpec::tiny("e2e-train", 64);
    build_tfrecord_dataset(dir.path(), &spec, ShardSpec::Count(2)).unwrap();

    let config = EmlioConfig::default().with_batch_size(16).with_epochs(2);
    let storage = vec![StorageSpec::new("s0", dir.path())];
    let mut dep = EmlioService::launch(&storage, &config, "c0").unwrap();
    let pipe = PipelineBuilder::new()
        .threads(2)
        .resize(32, 32)
        .crop(24, 24)
        .build(Box::new(dep.receiver.source()));
    let mlp = Mlp::new(48, 32, spec.num_classes as usize, 0.05, 1);
    let mut trainer = Trainer::real(RealClock::shared(), mlp);
    let log = trainer.run(&pipe);
    pipe.join();
    dep.join_daemons().unwrap();

    assert_eq!(log.total_samples(), 128, "2 epochs × 64 samples");
    assert!(log.final_loss().is_some());
    // Tensors had the cropped shape; losses are finite.
    assert!(log.iters.iter().all(|i| i.loss.unwrap().is_finite()));
}

#[test]
fn multi_storage_partition_covers_union() {
    let dir = TempDir::new("e2e-multistore");
    let mut storage = Vec::new();
    let mut expected: HashMap<Vec<u8>, u32> = HashMap::new();
    for node in 0..3 {
        let spec = DatasetSpec::tiny(&format!("store{node}"), 20);
        let d = dir.path().join(format!("s{node}"));
        build_tfrecord_dataset(&d, &spec, ShardSpec::Count(2)).unwrap();
        for id in 0..spec.num_samples {
            expected.insert(spec.payload_of(id), spec.label_of(id));
        }
        storage.push(StorageSpec::new(&format!("s{node}"), d));
    }
    assert_eq!(expected.len(), 60, "generators must not collide");

    let config = EmlioConfig::default().with_batch_size(7).with_threads(2);
    let mut dep = EmlioService::launch(&storage, &config, "c0").unwrap();
    use emlio::pipeline::ExternalSource;
    let mut src = dep.receiver.source();
    let mut got = 0;
    while let Some(batch) = src.next_batch() {
        for s in &batch.samples {
            let label = expected
                .remove(s.bytes.as_ref())
                .expect("payload matches exactly one generated sample");
            assert_eq!(label, s.label);
            got += 1;
        }
    }
    dep.join_daemons().unwrap();
    assert_eq!(got, 60);
    assert!(expected.is_empty(), "every sample delivered");
}

#[test]
fn full_per_node_coverage_duplicates_dataset_per_node() {
    // Scenario 2 semantics at the plan level, driven through the service.
    let dir = TempDir::new("e2e-fullcov");
    let spec = DatasetSpec::tiny("fullcov", 30);
    build_tfrecord_dataset(dir.path(), &spec, ShardSpec::Count(3)).unwrap();
    let config = EmlioConfig::default()
        .with_batch_size(4)
        .with_coverage(Coverage::FullPerNode);
    let storage = vec![StorageSpec::new("s0", dir.path())];
    let mut dep = EmlioService::launch(&storage, &config, "only-node").unwrap();
    use emlio::pipeline::ExternalSource;
    let mut src = dep.receiver.source();
    let mut seen = HashSet::new();
    while let Some(batch) = src.next_batch() {
        for s in &batch.samples {
            seen.insert(s.sample_id);
        }
    }
    dep.join_daemons().unwrap();
    assert_eq!(seen.len(), 30);
}

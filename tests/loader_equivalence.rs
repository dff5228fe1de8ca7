//! All three loaders must deliver the *same data* — they differ only in how
//! bytes reach the compute node. This is what makes the paper's comparison
//! apples-to-apples.

use emlio::baselines::{FileLoader, FileLoaderConfig};
use emlio::core::service::StorageSpec;
use emlio::core::{EmlioConfig, EmlioService};
use emlio::datagen::convert::{build_file_dataset, build_tfrecord_dataset, load_file_dataset};
use emlio::datagen::DatasetSpec;
use emlio::netem::{NetProfile, NfsConfig, NfsMount};
use emlio::pipeline::ExternalSource;
use emlio::tfrecord::ShardSpec;
use emlio::util::clock::RealClock;
use emlio::util::testutil::TempDir;
use std::collections::BTreeMap;

/// Multiset of (payload → count) delivered by a source.
fn collect(mut src: Box<dyn ExternalSource>) -> BTreeMap<Vec<u8>, (u32, u32)> {
    let mut out: BTreeMap<Vec<u8>, (u32, u32)> = BTreeMap::new();
    while let Some(batch) = src.next_batch() {
        for s in &batch.samples {
            let entry = out.entry(s.bytes.to_vec()).or_insert((s.label, 0));
            assert_eq!(entry.0, s.label, "label consistent for identical payload");
            entry.1 += 1;
        }
    }
    out
}

#[test]
fn three_loaders_deliver_identical_sample_multisets() {
    let dir = TempDir::new("equiv");
    let spec = DatasetSpec::tiny("equiv", 42);
    let tf_dir = dir.path().join("tf");
    let file_dir = dir.path().join("files");
    build_tfrecord_dataset(&tf_dir, &spec, ShardSpec::Count(2)).unwrap();
    build_file_dataset(&file_dir, &spec).unwrap();

    // EMLIO over TCP.
    let config = EmlioConfig::default().with_batch_size(5).with_threads(2);
    let mut dep = EmlioService::launch(&[StorageSpec::new("s", tf_dir)], &config, "c").unwrap();
    let emlio_set = collect(Box::new(dep.receiver.source()));
    dep.join_daemons().unwrap();

    // PyTorch over (zero-latency) NFS.
    let mount = NfsMount::mount(
        &file_dir,
        NetProfile::local(),
        RealClock::shared(),
        NfsConfig::default(),
    );
    let samples = load_file_dataset(&file_dir).unwrap();
    let pytorch_set = collect(Box::new(FileLoader::new(
        mount.clone(),
        samples.clone(),
        FileLoaderConfig {
            batch_size: 5,
            readers: 3,
            ..FileLoaderConfig::pytorch()
        },
    )));

    // DALI over the same mount.
    let dali_set = collect(Box::new(FileLoader::new(
        mount,
        samples,
        FileLoaderConfig {
            batch_size: 5,
            readers: 4,
            ..FileLoaderConfig::dali()
        },
    )));

    assert_eq!(emlio_set.len(), 42);
    assert_eq!(emlio_set, pytorch_set, "EMLIO vs PyTorch content");
    assert_eq!(emlio_set, dali_set, "EMLIO vs DALI content");
    assert!(
        emlio_set.values().all(|&(_, count)| count == 1),
        "exactly-once everywhere"
    );
}

//! A per-file loader is its readers: each claims its next task off one
//! counter, with no thread handing tasks out. This has its own test
//! binary, so no other test's threads share the count.
#![cfg(target_os = "linux")]

use emlio_baselines::{FileLoader, FileLoaderConfig};
use emlio_datagen::convert::{build_file_dataset, load_file_dataset};
use emlio_datagen::DatasetSpec;
use emlio_netem::{NetProfile, NfsConfig, NfsMount};
use emlio_pipeline::ExternalSource;
use emlio_util::clock::RealClock;
use emlio_util::testutil::TempDir;

/// Threads of this process.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

#[test]
fn the_dali_preset_runs_only_its_eight_readers() {
    let dir = TempDir::new("loader-threads");
    build_file_dataset(dir.path(), &DatasetSpec::tiny("lt", 32)).unwrap();
    let samples = load_file_dataset(dir.path()).unwrap();
    let mount = NfsMount::mount(
        dir.path(),
        NetProfile::local(),
        RealClock::shared(),
        NfsConfig::default(),
    );
    let before = threads();
    // One sample a batch: 32 tasks, more than the 8 readers and the
    // queue's 2 batches can claim while nothing is consumed, so no reader
    // runs out of work and returns before the count.
    let mut loader = FileLoader::new(
        mount,
        samples,
        FileLoaderConfig {
            batch_size: 1,
            ..FileLoaderConfig::dali()
        },
    );
    assert_eq!(threads() - before, 8, "one thread per reader, nothing else");
    let mut delivered = 0;
    while let Some(b) = loader.next_batch() {
        delivered += b.samples.len();
    }
    assert_eq!(delivered, 32);
}

//! Every data-path thread says its role in the 15 bytes of its name that
//! Linux keeps (`/proc/<pid>/task/<tid>/comm`): a cached, prefetching
//! deployment with a disk tier and a pipeline is stood up, and each of its
//! threads must match exactly one role, in the number that role's formula
//! gives. This has its own test binary, so no other test's threads are
//! counted.
#![cfg(target_os = "linux")]

use emlio::cache::CacheConfig;
use emlio::core::daemon::local_connections_per_worker;
use emlio::core::service::StorageSpec;
use emlio::core::{EmlioConfig, EmlioService};
use emlio::datagen::convert::build_tfrecord_dataset;
use emlio::datagen::DatasetSpec;
use emlio::pipeline::PipelineBuilder;
use emlio::tfrecord::ShardSpec;
use emlio::util::testutil::{poll_until, TempDir};
use std::collections::BTreeMap;
use std::time::Duration;

/// Each role's name as `comm` shows it: a prefix of at most 15 bytes.
const ROLES: [&str; 10] = [
    "emlio-daemon-",
    "emlio-send-",
    "emlio-prefetch",
    "emlio-pf-read",
    "emlio-cache-spi",
    "zmq-push:",
    "zmq-pull-accept",
    "zmq-pull-read:",
    "pipeline-feeder",
    "pipeline-worker",
];

/// `comm` of every thread of this process, keyed by thread id.
fn comms() -> BTreeMap<u32, String> {
    let tasks = std::fs::read_dir("/proc/self/task").unwrap();
    tasks
        .filter_map(|task| {
            let task = task.ok()?;
            let tid = task.file_name().to_str()?.parse().ok()?;
            // A thread that ended since the listing has no `comm` left.
            let comm = std::fs::read_to_string(task.path().join("comm")).ok()?;
            Some((tid, comm.trim_end().to_string()))
        })
        .collect()
}

/// Threads per role, the harness's own two (`main`, this test's) left out.
/// Panics on a thread that names no role or more than one.
fn census(harness: &[u32]) -> BTreeMap<&'static str, usize> {
    let mut counts = BTreeMap::new();
    for (tid, comm) in comms() {
        if harness.contains(&tid) {
            continue;
        }
        let roles: Vec<_> = ROLES.iter().filter(|r| comm.starts_with(*r)).collect();
        assert_eq!(
            roles.len(),
            1,
            "thread {tid} `{comm}` names roles {roles:?}"
        );
        *counts.entry(*roles[0]).or_default() += 1;
    }
    counts
}

#[test]
fn every_data_path_thread_names_exactly_one_role() {
    for role in ROLES {
        assert!(role.len() <= 15, "`{role}` is longer than comm keeps");
    }
    let this = std::fs::read_to_string("/proc/thread-self/stat").unwrap();
    let this: u32 = this.split(' ').next().unwrap().parse().unwrap();
    let harness = [std::process::id(), this];

    let dir = TempDir::new("thread-names");
    let spec = DatasetSpec::tiny("names", 2000);
    build_tfrecord_dataset(dir.path(), &spec, ShardSpec::Count(4)).unwrap();
    const T: usize = 2;
    // 48 MiB streamed, more than the queues and the kernel's socket
    // buffers hold, so the daemon is still serving while the consumer is
    // paused. A RAM tier of a few batches makes the prefetcher wait for
    // room rather than finish its walk.
    let cache = CacheConfig::default()
        .with_ram_bytes(512 << 10)
        .with_disk_bytes(1 << 20)
        .with_prefetch_depth(1);
    let config = EmlioConfig::default()
        .with_batch_size(8)
        .with_threads(T)
        .with_epochs(3)
        .with_cache(cache);
    let storage = vec![StorageSpec::new("s0", dir.path())];
    let mut dep = EmlioService::launch(&storage, &config, "c0").unwrap();
    let pipe = PipelineBuilder::new()
        .threads(2)
        .resize(32, 32)
        .build(Box::new(dep.receiver.source()));
    pipe.next_batch().expect("a first batch");

    // The consumer is paused: every queue fills and each thread blocks in
    // its role, so the census settles at the formula.
    let s = local_connections_per_worker(T);
    let expect: BTreeMap<&str, usize> = [
        ("emlio-daemon-", storage.len()),
        ("emlio-send-", T),
        ("emlio-prefetch", 1),
        ("emlio-cache-spi", 1),
        ("zmq-push:", T * s),
        ("zmq-pull-accept", 1),
        ("zmq-pull-read:", T * s),
        ("pipeline-feeder", 1),
        ("pipeline-worker", 2),
    ]
    .into_iter()
    .collect();
    let mut last = BTreeMap::new();
    let settled = poll_until(Duration::from_secs(10), || {
        last = census(&harness);
        // Prefetch reads come and go with the blocks they stage.
        last.remove("emlio-pf-read");
        last == expect
    });
    assert!(settled, "threads per role {last:?}, expected {expect:?}");

    // The rest of the stream is drained without the pipeline's work.
    drop(pipe);
    let delivery = dep.drain();
    delivery.served.unwrap();
    assert!(delivery.batches > 0);
    census(&harness);
}

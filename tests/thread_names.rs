//! Every data-path thread says its role in the 15 bytes of its name that
//! Linux keeps (`/proc/<pid>/task/<tid>/comm`): a cached, prefetching
//! deployment with a disk tier and a pipeline, a `wan_train_rtt30`-shaped
//! one behind the link emulator, and a `cold_local`-shaped one with no
//! cache and no pipeline are stood up in turn, and each of their threads
//! must match exactly one role, in the number that role's formula gives. This has its own test binary, so no other test's threads
//! are counted.
#![cfg(target_os = "linux")]

use emlio::cache::CacheConfig;
use emlio::core::daemon::local_connections_per_worker;
use emlio::core::service::StorageSpec;
use emlio::core::{EmlioConfig, EmlioService};
use emlio::datagen::convert::build_tfrecord_dataset;
use emlio::datagen::DatasetSpec;
use emlio::netem::NetProfile;
use emlio::pipeline::PipelineBuilder;
use emlio::tfrecord::ShardSpec;
use emlio::util::testutil::{poll_until, TempDir};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Each role's name as `comm` shows it: a prefix of at most 15 bytes.
const ROLES: [&str; 12] = [
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
    "netem-proxy:",
    "netem-relay",
];

/// This binary's tests. Each runs on a thread named after it, and one may
/// start while another counts: it is told apart by its name.
const TESTS: [&str; 3] = [
    "every_data_path_thread_names_exactly_one_role",
    "a_wan_deployment_adds_two_relays_per_proxied_connection",
    "a_cold_local_deployment_runs_no_cache_threads",
];

/// Whether `comm` is the thread of a test other than the one counting.
fn another_test(comm: &str) -> bool {
    let me = std::thread::current();
    let mut others = TESTS.iter().filter(|test| Some(**test) != me.name());
    others.any(|test| test.starts_with(comm))
}

/// The tests count threads process-wide, so they take turns.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

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

/// The threads running before a deployment that name no role: the test
/// harness's own (`main` and the test threads).
fn harness() -> Vec<u32> {
    let comms = comms().into_iter();
    let roleless = comms.filter(|(_, comm)| !ROLES.iter().any(|r| comm.starts_with(r)));
    roleless.map(|(tid, _)| tid).collect()
}

/// Threads per role, the `harness` and other tests' threads left out.
/// Panics on a thread that names no role or more than one.
fn census(harness: &[u32]) -> BTreeMap<&'static str, usize> {
    let mut counts = BTreeMap::new();
    for (tid, comm) in comms() {
        if harness.contains(&tid) || another_test(&comm) {
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

/// Wait for the census to equal `expect`, prefetch reads left out (they
/// come and go with the blocks they stage).
fn settles_at(harness: &[u32], expect: &[(&str, usize)]) {
    let expect: BTreeMap<&str, usize> = expect.iter().copied().collect();
    let mut last = BTreeMap::new();
    let settled = poll_until(Duration::from_secs(10), || {
        last = census(harness);
        last.remove("emlio-pf-read");
        last == expect
    });
    assert!(settled, "threads per role {last:?}, expected {expect:?}");
}

#[test]
fn every_data_path_thread_names_exactly_one_role() {
    for role in ROLES {
        assert!(role.len() <= 15, "`{role}` is longer than comm keeps");
    }
    let _turn = serial();
    let harness = harness();

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
        .with_disk_bytes(1 << 20);
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
    settles_at(
        &harness,
        &[
            ("emlio-daemon-", storage.len()),
            ("emlio-send-", T),
            ("emlio-prefetch", 1),
            ("emlio-cache-spi", 1),
            ("zmq-push:", T * s),
            ("zmq-pull-accept", 1),
            ("zmq-pull-read:", T * s),
            ("pipeline-feeder", 1),
            ("pipeline-worker", 2),
        ],
    );

    // The rest of the stream is drained without the pipeline's work.
    drop(pipe);
    let delivery = dep.drain();
    delivery.served.unwrap();
    assert!(delivery.batches > 0);
    census(&harness);
}

#[test]
fn a_wan_deployment_adds_two_relays_per_proxied_connection() {
    let _turn = serial();
    let harness = harness();

    let dir = TempDir::new("thread-names-wan");
    let spec = DatasetSpec::tiny("names-wan", 2000);
    build_tfrecord_dataset(dir.path(), &spec, ShardSpec::Count(4)).unwrap();
    // `wan_train_rtt30`'s shape: no cache, T = 2, a 30 ms link, and a
    // one-worker pipeline. At 50 MB/s the relays hold a BDP of 1.5 MB per
    // connection, so the 48 MiB stream outlasts what the link and the
    // queues hold while the consumer is paused.
    const T: usize = 2;
    let config = EmlioConfig::default()
        .with_batch_size(8)
        .with_threads(T)
        .with_epochs(3);
    let wan = NetProfile::new("wan-30ms", Duration::from_millis(30), 50e6);
    let storage = vec![StorageSpec::new("s0", dir.path())];
    let mut dep = EmlioService::launch_with(&storage, &config, "c0", &wan).unwrap();
    let pipe = PipelineBuilder::new()
        .threads(1)
        .resize(32, 32)
        .build(Box::new(dep.receiver.source()));
    pipe.next_batch().expect("a first batch");

    // Every one of the T · S connections goes through the proxy, one
    // relay thread per direction.
    let s = local_connections_per_worker(T);
    settles_at(
        &harness,
        &[
            ("emlio-daemon-", storage.len()),
            ("emlio-send-", T),
            ("zmq-push:", T * s),
            ("netem-proxy:", 1),
            ("netem-relay", 2 * T * s),
            ("zmq-pull-accept", 1),
            ("zmq-pull-read:", T * s),
            ("pipeline-feeder", 1),
            ("pipeline-worker", 1),
        ],
    );

    drop(pipe);
    let delivery = dep.drain();
    delivery.served.unwrap();
    assert!(delivery.batches > 0);
    census(&harness);
}

#[test]
fn a_cold_local_deployment_runs_no_cache_threads() {
    let _turn = serial();
    let harness = harness();

    let dir = TempDir::new("thread-names-cold");
    let spec = DatasetSpec::tiny("names-cold", 2000);
    build_tfrecord_dataset(dir.path(), &spec, ShardSpec::Count(4)).unwrap();
    // `cold_local`'s shape: no cache, T = 1 and no pipeline, the consumer
    // taking batches off the receiver itself. The 48 MiB stream outlasts
    // what the queues and the kernel's socket buffers hold while the
    // consumer is paused.
    const T: usize = 1;
    let config = EmlioConfig::default()
        .with_batch_size(8)
        .with_threads(T)
        .with_epochs(3);
    let storage = vec![StorageSpec::new("s0", dir.path())];
    let mut dep = EmlioService::launch(&storage, &config, "c0").unwrap();
    let queue = dep.receiver.queue();
    queue.recv().expect("a first batch");

    let s = local_connections_per_worker(T);
    settles_at(
        &harness,
        &[
            ("emlio-daemon-", storage.len()),
            ("emlio-send-", T),
            ("zmq-push:", s),
            ("zmq-pull-accept", 1),
            ("zmq-pull-read:", s),
        ],
    );
    // With no cache nothing is staged: no executor, and not one read of
    // it came and went.
    let names: Vec<String> = comms().into_values().collect();
    assert!(names.iter().any(|name| name == "emlio-send-0"), "{names:?}");
    let staging =
        |name: &&String| name.starts_with("emlio-prefetch") || name.starts_with("emlio-pf-read");
    assert_eq!(names.iter().filter(staging).count(), 0, "{names:?}");

    drop(queue);
    let delivery = dep.drain();
    delivery.served.unwrap();
    assert!(delivery.batches > 0);
    census(&harness);
}

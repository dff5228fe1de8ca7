//! Failure injection across the data path: corrupt shards, truncated files,
//! daemons dying mid-stream, and consumers disappearing. The system must
//! fail *detectably* (errors, never wrong data) and shut down cleanly.

use emlio::cache::CacheConfig;
use emlio::core::plan::Plan;
use emlio::core::receiver::{EmlioReceiver, ReceiverConfig};
use emlio::core::service::{Fingerprint, StorageSpec};
use emlio::core::{DataPathMetrics, EmlioConfig, EmlioDaemon, EmlioService, StackSpec};
use emlio::datagen::convert::build_tfrecord_dataset;
use emlio::datagen::DatasetSpec;
use emlio::netem::FaultSource;
use emlio::pipeline::ExternalSource;
use emlio::tfrecord::{GlobalIndex, ShardSpec, TfrecordSource};
use emlio::util::fault::{site, FaultInjector, FaultPlan, FaultSpec};
use emlio::util::testutil::TempDir;
use std::io::{Read, Seek, SeekFrom, Write};
use std::sync::Arc;
use std::time::Duration;

fn build(dir: &TempDir, n: u64) -> GlobalIndex {
    let spec = DatasetSpec::tiny("fail", n);
    build_tfrecord_dataset(dir.path(), &spec, ShardSpec::Count(2)).unwrap()
}

#[test]
fn corrupt_payload_detected_when_verification_on() {
    let dir = TempDir::new("fail-corrupt");
    let index = build(&dir, 20);
    // Flip a byte in the middle of shard 0's payload region.
    let path = index.shard_path(0);
    let mut f = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(&path)
        .unwrap();
    f.seek(SeekFrom::Start(40)).unwrap();
    let mut b = [0u8; 1];
    f.read_exact(&mut b).unwrap();
    f.seek(SeekFrom::Start(40)).unwrap();
    f.write_all(&[b[0] ^ 0xFF]).unwrap();
    drop(f);

    let config = EmlioConfig {
        verify_crc: true,
        ..EmlioConfig::default().with_batch_size(4).with_threads(1)
    };
    let daemon = EmlioDaemon::open("d", dir.path(), config.clone()).unwrap();
    let plan = Plan::build(daemon.index(), &["n".to_string()], &config);
    let receiver = EmlioReceiver::bind(ReceiverConfig::loopback(1)).unwrap();
    let ep = receiver.endpoint().clone();
    let result = daemon.serve(&plan, "n", &ep);
    assert!(result.is_err(), "corruption must surface as a daemon error");
}

#[test]
fn truncated_shard_file_detected() {
    let dir = TempDir::new("fail-truncate");
    let index = build(&dir, 16);
    let path = index.shard_path(1);
    let len = std::fs::metadata(&path).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.set_len(len - 10).unwrap();
    drop(f);

    let config = EmlioConfig::default().with_batch_size(4).with_threads(1);
    let daemon = EmlioDaemon::open("d", dir.path(), config.clone()).unwrap();
    let plan = Plan::build(daemon.index(), &["n".to_string()], &config);
    let receiver = EmlioReceiver::bind(ReceiverConfig::loopback(1)).unwrap();
    let result = daemon.serve(&plan, "n", receiver.endpoint());
    assert!(result.is_err(), "truncated shard must error");
}

#[test]
fn missing_index_field_rejected_at_open() {
    let dir = TempDir::new("fail-badindex");
    build(&dir, 8);
    // Vandalize one index file.
    let idx_path = dir.path().join("mapping_shard_00000.json");
    std::fs::write(&idx_path, "{\"shard_id\": 0}").unwrap();
    assert!(EmlioDaemon::open("d", dir.path(), EmlioConfig::default()).is_err());
}

#[test]
fn receiver_survives_consumer_disappearing() {
    // The consumer drops the queue mid-stream; daemon + receiver must not
    // deadlock or panic.
    let dir = TempDir::new("fail-consumer");
    build(&dir, 60);
    let config = EmlioConfig::default().with_batch_size(4).with_threads(2);
    let daemon = EmlioDaemon::open("d", dir.path(), config.clone()).unwrap();
    let plan = Plan::build(daemon.index(), &["n".to_string()], &config);
    let receiver = EmlioReceiver::bind(ReceiverConfig {
        hwm: 2,
        ..ReceiverConfig::loopback(2)
    })
    .unwrap();
    let ep = receiver.endpoint().clone();
    let server = std::thread::spawn(move || daemon.serve(&plan, "n", &ep));

    {
        // Take batches until both workers' streams (`d/t0`, `d/t1`) have
        // delivered, so both are connected, then walk away.
        let queue = receiver.queue();
        let mut origins = std::collections::HashSet::new();
        while origins.len() < 2 {
            origins.insert(queue.recv().unwrap().origin().clone());
        }
    }
    drop(receiver); // closes the PULL socket and the shared queue

    // The daemon either finishes (drained into kernel buffers) or reports a
    // transport error — both acceptable; hanging or panicking is not.
    match server.join().unwrap() {
        Ok(()) => {}
        Err(e) => {
            let msg = e.to_string();
            assert!(msg.contains("transport") || msg.contains("closed"), "{msg}");
        }
    }
}

#[test]
fn daemon_crash_mid_stream_leaves_receiver_consistent() {
    // Simulate a crash by sending a valid prefix of batches and dropping the
    // socket without an end-of-stream marker; a second, healthy stream
    // completes. The receiver delivers everything it got and terminates once
    // the expected number of *markers* arrives from the healthy stream.
    use bytes::Bytes;
    use emlio::core::{wire, BufferPool};
    use emlio::zmq::{PushSocket, SocketOptions};

    let pool = BufferPool::new();
    let frame = |id: u64, origin: &str, label: u32, data: &'static [u8]| {
        let samples = [(id, label, Bytes::from_static(data))];
        wire::encode_batch_frame_traced(0, id, origin, None, &samples, &pool)
    };
    let receiver = EmlioReceiver::bind(ReceiverConfig::loopback(1)).unwrap();
    let ep = receiver.endpoint().clone();

    // Crashing sender: two batches, no end marker.
    let crash = PushSocket::connect(&ep, SocketOptions::default()).unwrap();
    for id in 0..2u64 {
        crash.send(frame(id, "crashy", 0, &[1, 2, 3])).unwrap();
    }
    crash.close().unwrap(); // socket closes without end_stream

    // Healthy sender.
    let ok = PushSocket::connect(&ep, SocketOptions::default()).unwrap();
    for id in 100..103u64 {
        ok.send(frame(id, "healthy", 1, &[4, 5])).unwrap();
    }
    ok.send(Bytes::from(wire::encode_end_stream("healthy", 3, 1)))
        .unwrap();
    ok.close().unwrap();

    let mut src = receiver.source();
    let mut ids = Vec::new();
    while let Some(b) = src.next_batch() {
        ids.push(b.batch_id);
    }
    ids.sort_unstable();
    assert_eq!(
        ids,
        vec![0, 1, 100, 101, 102],
        "everything sent was delivered"
    );
    drop(receiver);
}

// ---- injected faults through the seeded failpoint seam -------------------

/// Launch one daemon over `stack` and drain it to the end: the sorted
/// delivery fingerprint and the daemon's counters.
fn drain(
    dir: &TempDir,
    config: &EmlioConfig,
    stack: StackSpec,
) -> (Vec<Fingerprint>, Arc<DataPathMetrics>) {
    let storage = StorageSpec {
        stack,
        ..StorageSpec::new("d", dir.path())
    };
    let mut dep = EmlioService::launch(&[storage], config, "n").unwrap();
    let delivery = dep.drain();
    delivery.served.unwrap();
    (delivery.fingerprint, dep.daemon_metrics[0].clone())
}

/// The dataset's local shards behind a `source.read` failpoint.
fn faulted_shards(
    index: &Arc<GlobalIndex>,
    spec: FaultSpec,
    seed: u64,
) -> (StackSpec, Arc<FaultInjector>) {
    let injector = FaultInjector::new(FaultPlan::new(seed).with_site(site::SOURCE_READ, spec));
    let root = FaultSource::new(
        Arc::new(TfrecordSource::new(index.clone())),
        injector.clone(),
    );
    (StackSpec::over(Arc::new(root)), injector)
}

#[test]
fn transient_read_errors_are_absorbed_by_the_retry_budget() {
    let dir = TempDir::new("fail-retry-absorb");
    let index = Arc::new(build(&dir, 24));
    let clean_config = EmlioConfig::default().with_batch_size(4).with_threads(2);
    let (reference, _) = drain(&dir, &clean_config, StackSpec::default());

    // ~25% of reads fail transiently; an 8-deep retry budget makes the
    // probability of a full-budget streak negligible (and, at this fixed
    // seed, zero).
    let config = clean_config.clone().with_io_retries(8);
    let (stack, injector) = faulted_shards(&index, FaultSpec::errors(0.25), 0xAB5012B);
    let (delivered, metrics) = drain(&dir, &config, stack);

    assert_eq!(delivered, reference, "retried epoch is byte-identical");
    let snap = metrics.snapshot();
    assert!(injector.stats().errors > 0, "schedule injected nothing");
    // The snapshot reads the retry layer's own counters: on a cache-less
    // stack with no giveups, every injected error is exactly one retry.
    assert_eq!(snap.io_retries, injector.stats().errors);
    assert_eq!(snap.io_giveups, 0, "no giveup on a completed epoch");
}

#[test]
fn injected_errors_without_retries_surface_detectably() {
    let dir = TempDir::new("fail-no-retry");
    let index = Arc::new(build(&dir, 16));
    let config = EmlioConfig::default().with_batch_size(4).with_threads(2);
    let (stack, injector) = faulted_shards(&index, FaultSpec::errors(1.0), 7);
    let storage = StorageSpec {
        stack,
        ..StorageSpec::new("d", dir.path())
    };
    let mut dep = EmlioService::launch(&[storage], &config, "n").unwrap();

    // The daemon fails on its first read and no end-of-stream marker will
    // ever come: the stream must end anyway, and the error must come back.
    // Drained on a thread of its own, so a consumer left waiting fails the
    // test by timeout instead of hanging it.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(dep.drain()));
    let delivery = rx
        .recv_timeout(Duration::from_secs(2))
        .expect("the consumer sees end-of-stream within 2 s of the daemon failing");
    assert_eq!(delivery.batches, 0);
    let err = delivery.served.unwrap_err().to_string();
    assert!(
        err.contains("injected fault at source.read"),
        "fault must surface without a retry budget, and by name: {err}"
    );
    assert!(injector.stats().errors > 0);
}

#[test]
fn exhausted_retry_budget_gives_up_loudly() {
    let dir = TempDir::new("fail-giveup");
    let index = Arc::new(build(&dir, 16));
    // Every read errors: a 2-deep budget must burn its retries, then
    // surface the original error — counted as a giveup, never wrong data.
    let config = EmlioConfig::default()
        .with_batch_size(4)
        .with_threads(1)
        .with_io_retries(2);
    let (stack, _) = faulted_shards(&index, FaultSpec::errors(1.0), 7);
    let daemon = EmlioDaemon::open_stack("d", index.clone(), config.clone(), stack).unwrap();
    let metrics = daemon.metrics();
    let plan = Plan::build(&index, &["n".to_string()], &config);
    let receiver = EmlioReceiver::bind(ReceiverConfig::loopback(1)).unwrap();
    let result = daemon.serve(&plan, "n", receiver.endpoint());
    assert!(result.is_err(), "exhausted budget must surface the error");
    let snap = metrics.snapshot();
    assert!(snap.io_retries > 0, "budget was spent before giving up");
    assert!(snap.io_giveups > 0, "giveup must be counted");
}

#[test]
fn spill_write_faults_degrade_to_storage_not_corruption() {
    let dir = TempDir::new("fail-spill-write");
    build(&dir, 24);
    let clean_config = EmlioConfig::default()
        .with_batch_size(4)
        .with_threads(2)
        .with_epochs(2);
    let (reference, _) = drain(&dir, &clean_config, StackSpec::default());

    // A RAM tier holding only a block or two (samples are ~8 KiB, so a
    // 4-sample block is ~32 KiB) forces evictions into the disk tier;
    // every spill write fails by injection, so blocks degrade to absent
    // and demand re-reads storage — delivery must not change.
    let config = clean_config.clone().with_cache(
        CacheConfig::default()
            .with_ram_bytes(48 << 10)
            .with_disk_bytes(16 << 20),
    );
    let injector =
        FaultInjector::new(FaultPlan::new(3).with_site(site::SPILL_WRITE, FaultSpec::errors(1.0)));
    let (delivered, metrics) = drain(
        &dir,
        &config,
        StackSpec::default().with_faults(injector.clone()),
    );

    assert_eq!(
        delivered, reference,
        "failed spills must not alter delivery"
    );
    let cache = metrics.stack().unwrap().cache.as_ref().unwrap();
    cache.flush_spills();
    assert!(
        cache.stats().snapshot().spill_failures > 0,
        "injected spill.write faults must hit the real failure branch"
    );
    assert!(injector.stats().errors > 0);
}

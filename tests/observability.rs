//! End-to-end observability integration tests.
//!
//! Covers the three tentpole layers working together against the real
//! service: (1) per-batch trace headers surviving the pooled scatter-frame
//! wire path byte-compatibly, (2) stage histograms populated on both sides
//! of a cached epoch, and (3) the export/report layer's stall attribution
//! decomposing serve wall time exactly.

use bytes::Bytes;
use emlio::core::export::{self, SampleSource};
use emlio::core::service::StorageSpec;
use emlio::core::wire::{self, encode_batch_frame_traced};
use emlio::core::{BufferPool, EmlioConfig, EmlioService};
use emlio::datagen::convert::build_tfrecord_dataset;
use emlio::datagen::DatasetSpec;
use emlio::obs::{clock, BatchTrace, Stage};
use emlio::pipeline::ExternalSource;
use emlio::tfrecord::ShardSpec;
use emlio::tsdb::Db;
use emlio::util::testutil::TempDir;

/// The trace header is one more msgpack field of the scatter frame: a
/// traced frame carries it to the receiver verbatim without touching a
/// sample byte, and an untraced frame omits the field altogether — the
/// 4-field map a receiver saw before tracing existed. (Byte identity with
/// the contiguous reference encoder is `proptest_wire`'s property.)
#[test]
fn trace_header_survives_scatter_frame_byte_compatibly() {
    let pool = BufferPool::new();
    let payloads: Vec<(u64, u32, Bytes)> = (0..5u64)
        .map(|i| {
            (
                i,
                (i * 3) as u32,
                Bytes::from(vec![i as u8; 100 + i as usize]),
            )
        })
        .collect();
    let trace = BatchTrace {
        seq: 41,
        sent_at_nanos: 1_234_567_890,
    };
    let batch_of = |frame: &Bytes| match wire::decode_lazy(frame, None).unwrap() {
        wire::LazyMsg::Batch(lb) => lb,
        other => panic!("expected batch, got {other:?}"),
    };

    let traced =
        encode_batch_frame_traced(3, 7, "obs-worker", Some(trace), &payloads, &pool).into_bytes();
    let untraced =
        encode_batch_frame_traced(3, 7, "obs-worker", None, &payloads, &pool).into_bytes();

    // The lazy decoder exposes the header verbatim.
    let lb = batch_of(&traced);
    assert_eq!(lb.trace(), Some(trace));
    assert_eq!(lb.len(), payloads.len());

    // Tracing off: no field at all, and the same samples either way.
    let plain = batch_of(&untraced);
    assert_eq!(plain.trace(), None);
    assert_eq!(plain.materialize(), lb.materialize());
    // fixstr "trace" (1 + 5) + bin8 header (2) + the 16-byte stamp.
    assert_eq!(
        traced.len(),
        untraced.len() + 24,
        "trace field must be absent, not zeroed"
    );
}

/// A full cached two-epoch service run: every pipeline stage shows up in
/// the histograms, every delivered batch carries a trace, and the stall
/// attribution decomposes `wall × workers` exactly.
#[test]
fn cached_epoch_populates_stage_histograms_and_stall_attribution() {
    let dir = TempDir::new("obs-e2e");
    let data = dir.path().join("storage");
    let spec = DatasetSpec::tiny("obs-e2e", 48).with_samples(48);
    build_tfrecord_dataset(&data, &spec, ShardSpec::Count(2)).unwrap();
    let config = EmlioConfig::default()
        .with_batch_size(8)
        .with_threads(2)
        .with_epochs(2)
        .with_cache(emlio::cache::CacheConfig::default());
    let storage = vec![StorageSpec::new("storage-0", data)];

    let mut dep = EmlioService::launch(&storage, &config, "compute-0").unwrap();
    let mut src = dep.receiver.source();
    let mut batches = 0u64;
    while let Some(b) = src.next_batch() {
        assert!(!b.samples.is_empty());
        batches += 1;
    }
    assert_eq!(batches, dep.total_batches());
    dep.join_daemons().unwrap();

    // Daemon side: assemble/send tile the worker loop; the cached second
    // epoch must have produced cache-lookup hits and the first storage reads.
    let daemon = dep.daemon_recorders[0].snapshot();
    for stage in [
        Stage::StorageRead,
        Stage::CacheLookup,
        Stage::PoolAlloc,
        Stage::BatchAssemble,
        Stage::Encode,
        Stage::SocketSend,
    ] {
        assert!(
            !daemon.stage(stage).is_empty(),
            "daemon histogram for {} is empty",
            stage.name()
        );
    }
    assert_eq!(daemon.stage(Stage::BatchAssemble).count, batches);
    assert_eq!(daemon.stage(Stage::Encode).count, batches);

    // Receiver side: every consumed batch was traced, so dwell/transit/e2e
    // all count exactly `batches`, and the derived latencies nest:
    // queue dwell <= end-to-end (dwell is a strict sub-interval).
    let recv = dep.receiver.recorder().snapshot();
    for stage in [Stage::RecvWait, Stage::RecvScan, Stage::QueuePush] {
        assert!(
            !recv.stage(stage).is_empty(),
            "receiver histogram for {} is empty",
            stage.name()
        );
    }
    for stage in [
        Stage::QueueDwell,
        Stage::WireTransit,
        Stage::EndToEnd,
        Stage::LazyDecode,
    ] {
        assert_eq!(
            recv.stage(stage).count,
            batches,
            "{} must be recorded once per delivered batch",
            stage.name()
        );
    }
    assert!(recv.stage(Stage::QueueDwell).sum <= recv.stage(Stage::EndToEnd).sum);

    // Export the finished run and check the report's accounting: the
    // attribution identity is exact, and on a loopback run the two stage
    // sums explain a sane share of worker thread-time.
    let mut db = Db::new();
    let sources = vec![
        SampleSource::new(
            "daemon-0",
            dep.daemon_metrics[0].clone(),
            dep.daemon_recorders[0].clone(),
        ),
        SampleSource::recorder_only("receiver", dep.receiver.recorder()),
    ];
    export::sample_into(&mut db, &sources, clock::now_nanos());

    let stall = export::stall_attribution(&db, "daemon-0").expect("serve completed");
    assert!(stall.wall_workers_nanos > 0);
    assert_eq!(
        stall.accounted_nanos() + stall.unattributed_nanos,
        stall.wall_workers_nanos,
        "attribution must decompose wall x workers exactly"
    );
    assert!(
        stall.accounted_fraction() > 0.0 && stall.accounted_fraction() < 1.5,
        "accounted fraction out of range: {}",
        stall.accounted_fraction()
    );

    let report = export::render_report(&db);
    assert!(report.contains("== daemon-0 =="));
    assert!(report.contains("== receiver =="));
    assert!(report.contains("stall attribution"));
    assert!(report.contains("queue_dwell"));
    assert!(report.contains("end_to_end"));

    // The line-protocol file reproduces the identical report.
    let path = dir.path().join("metrics.lp");
    export::write_line_protocol(&db, &path).unwrap();
    let reloaded = export::read_line_protocol(&path).unwrap();
    assert_eq!(export::render_report(&reloaded), report);
}

/// Trace timestamps come from the shared Unix-anchored clock, so a frame
/// "sent" and "received" in the same process yields a non-negative,
/// sub-second transit time — the property the cross-process dwell math
/// depends on.
#[test]
fn trace_clock_is_monotonic_and_unix_anchored() {
    let a = clock::now_nanos();
    let b = clock::now_nanos();
    assert!(b >= a, "clock must be monotonic within a process");
    // 2020-01-01 in Unix nanos — sanity anchor, not a tight bound.
    assert!(a > 1_577_836_800_000_000_000, "clock must be Unix-anchored");
}

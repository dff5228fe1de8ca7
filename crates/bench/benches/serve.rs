//! Criterion bench for the zero-copy serve path on a warm cache.
//!
//! * `serve_epoch/zero_copy` — the daemon's path: `read_batch` (refcounted
//!   payload views) → `encode_batch_frame_traced` (pooled header + spliced
//!   segments);
//! * `serve_epoch/zero_copy_instrumented` — the same with the full
//!   observability layer engaged, which must stay within 3 % of it;
//! * `decode_epoch/lazy` — the receiver side: the validating scan that
//!   defers sample decode to the consumer;
//! * `loopback/32x100k`, `loopback/64x8k` — batch-shaped scatter frames
//!   PUSH → PULL over 127.0.0.1, one at a time. The payload is copied twice
//!   by the kernel and not at all by us; a copy, a zero-fill or a
//!   per-frame buffer allocation that finds its way back onto the socket
//!   path shows here as a throughput cliff (at 32 × 100 KiB the three
//!   passes this path once made halved the rate: 1.7 against 3.5–4.0 GB/s).
//!
//! The allocation budget itself is asserted by `tests/alloc_smoke.rs`;
//! this bench shows the wall-clock side.

use std::sync::Arc;

use bytes::Bytes;
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use emlio_cache::{CacheConfig, CachedRangeReader, CachedSource, ShardCache};
use emlio_core::wire::{self, encode_batch_frame_traced};
use emlio_core::BufferPool;
use emlio_datagen::convert::build_tfrecord_dataset;
use emlio_datagen::DatasetSpec;
use emlio_msgpack::StrInterner;
use emlio_obs::{clock, BatchTrace, FlightRecorder, Stage, StageRecorder};
use emlio_tfrecord::{BlockKey, GlobalIndex, RangeSource, ShardSpec, TfrecordSource};
use emlio_util::testutil::TempDir;
use emlio_zmq::{Endpoint, Frame, PullSocket, PushSocket, SocketOptions};

const BATCH: usize = 16;
const ORIGIN: &str = "bench-worker";

struct Rig {
    _dir: TempDir,
    index: Arc<GlobalIndex>,
    keys: Vec<BlockKey>,
    pool: BufferPool,
    reader: CachedRangeReader,
}

fn rig() -> Rig {
    let dir = TempDir::new("bench-serve");
    let spec = DatasetSpec::tiny("bench-serve", 64);
    let index = Arc::new(build_tfrecord_dataset(dir.path(), &spec, ShardSpec::Count(2)).unwrap());
    let mut keys = Vec::new();
    for shard in &index.shards {
        let mut start = 0;
        while start < shard.records.len() {
            let end = (start + BATCH).min(shard.records.len());
            keys.push(BlockKey {
                shard_id: shard.shard_id,
                start,
                end,
            });
            start = end;
        }
    }
    let pool = BufferPool::new();
    let root = TfrecordSource::new(index.clone()).with_alloc(Arc::new(pool.clone()));
    let cache = Arc::new(ShardCache::new(CacheConfig::default()).unwrap());
    let stack: Arc<dyn RangeSource> = Arc::new(CachedSource::new(cache, Arc::new(root)));
    let reader = CachedRangeReader::new(stack);
    // Warm every block into RAM so every variant measures the cache-hit path.
    for key in &keys {
        let _ = reader.read_batch(*key).unwrap();
    }
    Rig {
        _dir: dir,
        index,
        keys,
        pool,
        reader,
    }
}

fn payload_bytes(rig: &Rig) -> u64 {
    rig.keys
        .iter()
        .flat_map(|k| &rig.index.shards[k.shard_id as usize].records[k.start..k.end])
        .map(|m| m.length)
        .sum()
}

fn bench_serve(c: &mut Criterion) {
    let rig = rig();
    let mut g = c.benchmark_group("serve_epoch");
    g.throughput(Throughput::Bytes(payload_bytes(&rig)));

    g.bench_function("zero_copy", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for key in &rig.keys {
                let read = rig.reader.read_batch(*key).unwrap();
                let metas = &rig.index.shards[key.shard_id as usize].records[key.start..key.end];
                let samples: Vec<(u64, u32, Bytes)> = metas
                    .iter()
                    .zip(&read.payloads)
                    .map(|(m, p)| (m.sample_id, m.label, p.clone()))
                    .collect();
                let frame = encode_batch_frame_traced(
                    1,
                    key.start as u64,
                    ORIGIN,
                    None,
                    &samples,
                    &rig.pool,
                );
                total += frame.len();
            }
            black_box(total)
        })
    });

    // The zero-copy path with full observability engaged (stage histogram
    // record + BatchTrace header + flight span per batch) — the acceptance
    // bar is staying within 3% of `zero_copy` above.
    let recorder = StageRecorder::shared();
    FlightRecorder::global().record("bench_warm", 0, 0);
    g.bench_function("zero_copy_instrumented", |b| {
        let mut seq = 0u64;
        b.iter(|| {
            let mut total = 0usize;
            for key in &rig.keys {
                let t0 = std::time::Instant::now();
                let read = rig.reader.read_batch(*key).unwrap();
                let metas = &rig.index.shards[key.shard_id as usize].records[key.start..key.end];
                let samples: Vec<(u64, u32, Bytes)> = metas
                    .iter()
                    .zip(&read.payloads)
                    .map(|(m, p)| (m.sample_id, m.label, p.clone()))
                    .collect();
                let trace = BatchTrace {
                    seq,
                    sent_at_nanos: clock::now_nanos(),
                };
                let frame = encode_batch_frame_traced(
                    1,
                    key.start as u64,
                    ORIGIN,
                    Some(trace),
                    &samples,
                    &rig.pool,
                );
                recorder.record(Stage::BatchAssemble, t0.elapsed().as_nanos() as u64);
                seq += 1;
                total += frame.len();
            }
            FlightRecorder::global().record("bench_epoch", seq, 0);
            black_box(total)
        })
    });
    g.finish();
}

fn bench_decode(c: &mut Criterion) {
    let rig = rig();
    // Pre-encode one epoch of frames, gathered to contiguous wire bytes as
    // the receiver would pull them off the socket.
    let frames: Vec<Bytes> = rig
        .keys
        .iter()
        .map(|key| {
            let read = rig.reader.read_batch(*key).unwrap();
            let metas = &rig.index.shards[key.shard_id as usize].records[key.start..key.end];
            let samples: Vec<(u64, u32, Bytes)> = metas
                .iter()
                .zip(&read.payloads)
                .map(|(m, p)| (m.sample_id, m.label, p.clone()))
                .collect();
            encode_batch_frame_traced(1, key.start as u64, ORIGIN, None, &samples, &rig.pool)
                .into_bytes()
        })
        .collect();
    let wire_bytes: u64 = frames.iter().map(|f| f.len() as u64).sum();

    let mut g = c.benchmark_group("decode_epoch");
    g.throughput(Throughput::Bytes(wire_bytes));

    g.bench_function("lazy", |b| {
        let interner = StrInterner::new();
        b.iter(|| {
            let mut samples = 0usize;
            for f in &frames {
                match wire::decode_lazy(f, Some(&interner)).unwrap() {
                    wire::LazyMsg::Batch(lb) => samples += lb.len(),
                    wire::LazyMsg::EndStream { .. } => unreachable!(),
                }
            }
            black_box(samples)
        })
    });
    g.finish();
}

fn bench_loopback(c: &mut Criterion) {
    let mut g = c.benchmark_group("loopback");
    for (name, samples, sample_len) in [("32x100k", 32, 100 << 10), ("64x8k", 64, 8 << 10)] {
        let payload = Bytes::from(vec![0xA5u8; sample_len]);
        let header = Bytes::from(vec![0x5Au8; 24]);
        let frame = Frame::from_segments(
            (0..samples)
                .flat_map(|_| [header.clone(), payload.clone()])
                .collect(),
        );
        let pull =
            PullSocket::bind(&Endpoint::tcp("127.0.0.1", 0), SocketOptions::default()).unwrap();
        let push =
            PushSocket::connect(&pull.local_endpoint().unwrap(), SocketOptions::default()).unwrap();
        g.throughput(Throughput::Bytes(frame.len() as u64));
        g.bench_function(name, |b| {
            b.iter(|| {
                // One frame at a time, so every pass over its bytes is on
                // the clock: streamed back to back, the sender's and the
                // reader's work overlap on idle cores and an extra pass
                // on one side hides behind the other.
                push.send(frame.clone()).unwrap();
                black_box(pull.recv().unwrap().len())
            })
        });
        push.close().unwrap();
    }
    g.finish();
}

criterion_group!(benches, bench_serve, bench_decode, bench_loopback);
criterion_main!(benches);

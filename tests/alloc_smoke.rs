//! Allocation-budget smoke test for the zero-copy serve path.
//!
//! Installs [`emlio::util::CountingAllocator`] as this binary's global
//! allocator and serves warm-cache batches the way a daemon worker does:
//! `read_batch` (refcounted payload views) → `encode_batch_frame_traced`
//! (pooled header + spliced payload segments).
//!
//! The bars: an absolute budget of allocator calls per served batch, O(1)
//! pool growth across steady-state epochs, tracing that allocates
//! nothing, a loopback PUSH → PULL transfer that allocates no buffer per
//! received frame, an uncached block read that allocates none either, a
//! spill file of the wrong length refused before it is read, and a
//! disk-tier promote that allocates no buffer for the block.
//! Byte identity of the frames is `proptest_wire`'s job. All phases live in
//! one `#[test]` because the allocator counters are process-global:
//! parallel tests would interleave.

use std::sync::Arc;

use bytes::Bytes;
use emlio::cache::persist::{block_crc, read_validated};
use emlio::cache::{CacheConfig, CachedRangeReader, CachedSource, ShardCache};
use emlio::core::wire::encode_batch_frame_traced;
use emlio::core::BufferPool;
use emlio::datagen::convert::build_tfrecord_dataset;
use emlio::datagen::DatasetSpec;
use emlio::obs::{clock, BatchTrace, FlightRecorder, Stage, StageRecorder};
use emlio::tfrecord::{BlockKey, GlobalIndex, RangeSource, ShardSpec, ShardWriter, TfrecordSource};
use emlio::util::testutil::TempDir;
use emlio::util::CountingAllocator;
use emlio::zmq::{Endpoint, Frame, PullSocket, PushSocket, SocketOptions};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

const BATCH: usize = 16;
const ORIGIN: &str = "alloc-smoke-worker";

/// Every `BATCH`-record block key across all shards, in plan order.
fn keys_of(index: &GlobalIndex) -> Vec<BlockKey> {
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
    keys
}

/// The zero-copy path as the daemon runs it: refcounted payload views from
/// the warm cache, scatter frame with a pooled header.
fn serve(
    reader: &CachedRangeReader,
    index: &GlobalIndex,
    key: &BlockKey,
    pool: &BufferPool,
) -> Frame {
    let read = reader.read_batch(*key).unwrap();
    let metas = &index.shards[key.shard_id as usize].records[key.start..key.end];
    let samples: Vec<(u64, u32, Bytes)> = metas
        .iter()
        .zip(&read.payloads)
        .map(|(m, p)| (m.sample_id, m.label, p.clone()))
        .collect();
    encode_batch_frame_traced(7, key.start as u64, ORIGIN, None, &samples, pool)
}

/// The zero-copy path with the full observability layer engaged: stage
/// timing into a [`StageRecorder`], a per-batch [`BatchTrace`] header, and
/// a flight-recorder span — exactly what the daemon worker does per batch.
fn serve_instrumented(
    reader: &CachedRangeReader,
    index: &GlobalIndex,
    key: &BlockKey,
    pool: &BufferPool,
    recorder: &StageRecorder,
    seq: u64,
) -> Frame {
    let t0 = std::time::Instant::now();
    let read = reader.read_batch(*key).unwrap();
    let metas = &index.shards[key.shard_id as usize].records[key.start..key.end];
    let samples: Vec<(u64, u32, Bytes)> = metas
        .iter()
        .zip(&read.payloads)
        .map(|(m, p)| (m.sample_id, m.label, p.clone()))
        .collect();
    let trace = BatchTrace {
        seq,
        sent_at_nanos: clock::now_nanos(),
    };
    let frame = encode_batch_frame_traced(7, key.start as u64, ORIGIN, Some(trace), &samples, pool);
    recorder.record(Stage::BatchAssemble, t0.elapsed().as_nanos() as u64);
    FlightRecorder::global().record("alloc_smoke_batch", seq, 0);
    frame
}

#[test]
fn zero_copy_serve_path_allocation_budget() {
    let dir = TempDir::new("alloc-smoke");
    let spec = DatasetSpec::tiny("alloc-smoke", 64);
    let index = build_tfrecord_dataset(dir.path(), &spec, ShardSpec::Count(2)).unwrap();
    let index = Arc::new(index);
    let keys = keys_of(&index);
    assert!(
        keys.len() >= 4,
        "expected several blocks, got {}",
        keys.len()
    );

    let pool = BufferPool::new();
    let root = TfrecordSource::new(index.clone()).with_alloc(Arc::new(pool.clone()));
    let cache = Arc::new(ShardCache::new(CacheConfig::default()).unwrap());
    let stack: Arc<dyn RangeSource> = Arc::new(CachedSource::new(cache, Arc::new(root)));
    let reader = CachedRangeReader::new(stack);

    // Warm the cache (and the pool's header class) with one full epoch.
    for key in &keys {
        drop(serve(&reader, &index, key, &pool));
    }

    // Phase 1 — O(1) pool growth: steady-state epochs take every buffer
    // from the free list. Cached blocks stay pinned (no block takes) and
    // header buffers recycle when each frame drops.
    let allocs_after_warm = pool.stats().pool_alloc;
    let reuse_before = pool.stats().pool_reuse;
    // (Enough epochs for the cache's eviction order to have grown its
    // lazy heap to the compaction bound, 4 x blocks + 64 touches: from
    // there it is rebuilt in place and a hit allocates nothing for it.)
    for _ in 0..24 {
        for key in &keys {
            drop(serve(&reader, &index, key, &pool));
        }
    }
    let stats = pool.stats();
    assert_eq!(
        stats.pool_alloc, allocs_after_warm,
        "steady-state epochs must not grow the pool"
    );
    assert!(
        stats.pool_reuse > reuse_before,
        "steady-state headers should come from the free list"
    );

    // Phase 2 — the budget: allocator calls per served batch on the warm
    // path. An absolute bar catches what a ratio against a slower path
    // would have hidden.
    // Long enough to take the eviction order through a compaction.
    const EPOCHS: u64 = 24;
    const BUDGET_PER_BATCH: u64 = 8;
    let before = ALLOC.allocations();
    for _ in 0..EPOCHS {
        for key in &keys {
            drop(serve(&reader, &index, key, &pool));
        }
    }
    let allocs = ALLOC.allocations() - before;
    let batches = EPOCHS * keys.len() as u64;
    assert!(allocs > 0, "counting allocator not engaged");
    assert!(
        allocs <= BUDGET_PER_BATCH * batches,
        "warm serve path allocates {allocs} times over {batches} batches ({:.2} per batch); \
         the budget is {BUDGET_PER_BATCH}, the value measured at 94d6fcb",
        allocs as f64 / batches as f64,
    );

    // Phase 3 — empty-payload regression (the zero-length msgpack bin/str
    // fix): constructing empty Bytes must not touch the allocator.
    let before = ALLOC.allocations();
    let a = Bytes::from(Vec::new());
    let b = Bytes::new();
    let c = b.slice(0..0);
    assert!(a.is_empty() && b.is_empty() && c.is_empty());
    assert_eq!(
        ALLOC.allocations() - before,
        0,
        "empty Bytes must be allocation-free"
    );

    // Phase 4 — tracing is free: the observability layer (stage histogram
    // record + BatchTrace header + flight-recorder span) must add ZERO
    // allocations per warm-cache batch. Warm the lazily-initialized
    // globals (clock anchor, flight ring, recorder arrays) and the traced
    // frames' pool class first so only steady state is compared.
    let recorder = StageRecorder::shared();
    FlightRecorder::global().record("alloc_smoke_warm", 0, 0);
    let _ = clock::now_nanos();
    for (i, key) in keys.iter().enumerate() {
        drop(serve_instrumented(
            &reader, &index, key, &pool, &recorder, i as u64,
        ));
    }

    let before = ALLOC.allocations();
    for e in 0..EPOCHS {
        for (i, key) in keys.iter().enumerate() {
            drop(serve_instrumented(
                &reader,
                &index,
                key,
                &pool,
                &recorder,
                e * keys.len() as u64 + i as u64,
            ));
        }
    }
    let instrumented_allocs = ALLOC.allocations() - before;

    let before = ALLOC.allocations();
    for _ in 0..EPOCHS {
        for key in &keys {
            drop(serve(&reader, &index, key, &pool));
        }
    }
    let plain_allocs = ALLOC.allocations() - before;

    assert!(
        instrumented_allocs <= plain_allocs,
        "tracing must not allocate on the warm path: \
         instrumented={instrumented_allocs}, plain={plain_allocs}",
    );
    assert!(
        recorder.hist(Stage::BatchAssemble).count() >= EPOCHS * keys.len() as u64,
        "instrumented batches must land in the stage histogram"
    );

    // Phase 5 — the receive side: a batch-shaped frame (32 × 100 KiB
    // payloads behind small headers) crossing a loopback socket lands in a
    // recycled buffer. The whole process — sender thread, reader thread,
    // queues — may allocate 4 KiB per frame, about a thousandth of the
    // frame; a buffer per frame (let alone the two the PULL side once
    // made) is 800 times the bar.
    const FRAMES: usize = 48;
    const BYTES_PER_FRAME: u64 = 4 << 10;
    let pull = PullSocket::bind(&Endpoint::tcp("127.0.0.1", 0), SocketOptions::default()).unwrap();
    let push =
        PushSocket::connect(&pull.local_endpoint().unwrap(), SocketOptions::default()).unwrap();
    let payload = Bytes::from(vec![0xA5u8; 100 << 10]);
    let header = Bytes::from(vec![0x5Au8; 24]);
    let frame = Frame::from_segments(
        (0..32)
            .flat_map(|_| [header.clone(), payload.clone()])
            .collect(),
    );
    let roundtrip = |frame: Frame| {
        let len = frame.len();
        push.send(frame).unwrap();
        let got = pull.recv().unwrap();
        assert_eq!(got.len(), len);
        assert_eq!((got[0], got[24], got[len - 1]), (0x5A, 0xA5, 0xA5));
    };
    for _ in 0..8 {
        roundtrip(frame.clone());
    }
    let frames: Vec<Frame> = (0..FRAMES).map(|_| frame.clone()).collect();
    let before = ALLOC.bytes_allocated();
    for frame in frames {
        roundtrip(frame);
    }
    let per_frame = (ALLOC.bytes_allocated() - before) / FRAMES as u64;
    assert!(
        per_frame <= BYTES_PER_FRAME,
        "receiving a {} KiB frame allocates {per_frame} bytes; the bar is {BYTES_PER_FRAME}",
        frame.len() >> 10,
    );
    let stats = pull.stats();
    assert_eq!(stats.buffers_allocated, 1, "{stats:?}");
    push.close().unwrap();

    // Phase 6 — the cold read: with no cache above it, a 3.2 MiB block
    // (32 × 100 KiB records) off a local shard is a view of the shard's
    // mapping. It takes no buffer from the pool and allocates nothing the
    // size of a block — only where shards are mapped; elsewhere the pooled
    // positioned read is the path, and phase 1's bars cover its pool.
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        let dir = TempDir::new("alloc-smoke-cold");
        let mut w = ShardWriter::create(dir.path(), ShardSpec::Count(1)).unwrap();
        for i in 0..64u8 {
            w.append(&vec![i; 100 << 10], 0).unwrap();
        }
        let index = Arc::new(w.finish().unwrap());
        let pool = BufferPool::new();
        let root = TfrecordSource::new(index).with_alloc(Arc::new(pool.clone()));
        let block = |start: usize| BlockKey {
            shard_id: 0,
            start,
            end: start + 32,
        };
        // The first read opens and maps the shard.
        drop(root.read_block(&block(0)).unwrap());
        let before = ALLOC.bytes_allocated();
        let read = root.read_block(&block(32)).unwrap();
        let allocated = ALLOC.bytes_allocated() - before;
        assert!(read.data.len() > 3 << 20, "{} bytes", read.data.len());
        assert_eq!((read.data[16], read.data[read.data.len() - 5]), (32, 63));
        assert!(
            allocated <= 4 << 10,
            "an uncached {} KiB block read allocates {allocated} bytes; the bar is 4 KiB",
            read.data.len() >> 10,
        );
        let stats = pool.stats();
        assert_eq!(
            (stats.pool_alloc, stats.pool_reuse, stats.unpooled),
            (0, 0, 0),
            "a mapped block takes nothing from the pool"
        );
    }

    // Phase 7 — a spill file's length is checked before any of it is
    // read: an index entry recording 4 KiB whose file has grown to 64 MiB
    // (sparse, so it costs no disk) is refused, though its first 4 KiB
    // hash to the recorded CRC, having allocated next to nothing.
    {
        let dir = TempDir::new("alloc-smoke-spill-len");
        let path = dir.file("block-0-0-32.blk");
        std::fs::File::create(&path)
            .unwrap()
            .set_len(64 << 20)
            .unwrap();
        let crc = block_crc(&[0u8; 4 << 10]);
        let before = ALLOC.bytes_allocated();
        assert!(read_validated(&path, 4 << 10, crc).is_none());
        let allocated = ALLOC.bytes_allocated() - before;
        assert!(
            allocated < 1 << 20,
            "refusing a 64 MiB spill file recorded as 4 KiB allocates {allocated} bytes; \
             the bar is 1 MiB"
        );
    }

    // Phase 8 — the promote: a 3.2 MiB block read back from the disk tier
    // is a view of its spill file, CRC-checked in place — no buffer the
    // size of a block. Where files are not mapped the read-back is a
    // positioned read into a fresh buffer.
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        const LEN: usize = 32 * (100 << 10);
        let dir = TempDir::new("alloc-smoke-promote");
        let cache = ShardCache::new(
            CacheConfig::default()
                .with_ram_bytes(LEN as u64)
                .with_disk_bytes(4 * LEN as u64)
                .with_spill_dir(dir.path().to_path_buf()),
        )
        .unwrap();
        let block = |i: usize| BlockKey {
            shard_id: 0,
            start: 32 * i,
            end: 32 * (i + 1),
        };
        cache.insert(block(0), vec![0xB0; LEN]);
        cache.insert(block(1), vec![0xB1; LEN]); // evicts 0: written
        cache.flush_spills();
        drop(cache.get(&block(0)).unwrap()); // promotes 0, evicts 1: written
        cache.flush_spills();
        // Both blocks have files: promoting 1 evicts 0 by a slot flip,
        // so nothing is written while the promote is counted.
        let before = ALLOC.bytes_allocated();
        let promoted = cache.get(&block(1)).unwrap();
        let allocated = ALLOC.bytes_allocated() - before;
        assert_eq!(promoted.len(), LEN);
        assert!(promoted.iter().all(|&b| b == 0xB1));
        assert_eq!(cache.stats().snapshot().disk_hits, 2);
        assert!(
            allocated < 64 << 10,
            "promoting a {} KiB block from the disk tier allocates {allocated} bytes; \
             the bar is 64 KiB",
            LEN >> 10,
        );
    }
}

//! Criterion microbenches over the data-plane hot paths.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use emlio_core::plan::Plan;
use emlio_core::EmlioConfig;
use emlio_datagen::image::synth_image;
use emlio_datagen::{sif, DatasetSpec};
use emlio_msgpack::{from_slice, to_vec, Value};
use emlio_sim::{PipelineSim, StageSpec, Token};
use emlio_tfrecord::crc32c::{crc32c, crc32c_table};
use emlio_tfrecord::record::{decode_all, encode_into};
use emlio_tfrecord::{RangeReader, ShardSpec, ShardWriter};
use emlio_util::testutil::TempDir;

fn bench_crc32c(c: &mut Criterion) {
    // 1 MiB for continuity with earlier records; 3 MiB is one cache block
    // of the ledger's imagenet-like dataset, the unit every spill-file
    // read-back checks. `dispatch` is whatever `crc32c` picked on this
    // CPU, `table` the portable slicing-by-4 path beside it.
    for (label, len) in [("1MiB", 1usize << 20), ("3MiB", 3 << 20)] {
        let data = vec![0xA5u8; len];
        let mut g = c.benchmark_group("crc32c");
        g.throughput(Throughput::Bytes(len as u64));
        g.bench_function(&format!("dispatch/{label}"), |b| {
            b.iter(|| crc32c(black_box(&data)))
        });
        g.bench_function(&format!("table/{label}"), |b| {
            b.iter(|| crc32c_table(black_box(&data)))
        });
        g.finish();
    }
}

fn bench_msgpack(c: &mut Criterion) {
    // A wire-realistic batch: 64 samples × 8 KiB binary payloads.
    let batch = Value::Map(vec![
        (Value::from("epoch"), Value::from(1u64)),
        (Value::from("batch_id"), Value::from(42u64)),
        (
            Value::from("samples"),
            Value::Arr(
                (0..64u64)
                    .map(|i| {
                        Value::Map(vec![
                            (Value::from("id"), Value::from(i)),
                            (Value::from("label"), Value::from(i % 10)),
                            (Value::from("data"), Value::Bin(vec![i as u8; 8 << 10])),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let encoded = to_vec(&batch);
    let mut g = c.benchmark_group("msgpack");
    g.throughput(Throughput::Bytes(encoded.len() as u64));
    g.bench_function("value_to_vec", |b| b.iter(|| to_vec(black_box(&batch))));
    g.bench_function("value_from_slice", |b| {
        b.iter(|| from_slice(black_box(&encoded)).unwrap())
    });
    g.finish();
}

fn bench_tfrecord(c: &mut Criterion) {
    let payload = vec![0x5Au8; 100 << 10];
    let mut g = c.benchmark_group("tfrecord");
    g.throughput(Throughput::Bytes(payload.len() as u64));
    g.bench_function("encode_100KiB", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(payload.len() + 16);
            encode_into(black_box(&payload), &mut buf);
            buf
        })
    });
    let mut framed = Vec::new();
    for _ in 0..16 {
        encode_into(&payload, &mut framed);
    }
    g.throughput(Throughput::Bytes(framed.len() as u64));
    g.bench_function("decode_16rec_verified", |b| {
        b.iter(|| decode_all(black_box(&framed), true).unwrap())
    });
    g.bench_function("decode_16rec_trusted", |b| {
        b.iter(|| decode_all(black_box(&framed), false).unwrap())
    });
    g.finish();
}

fn bench_range_read(c: &mut Criterion) {
    let dir = TempDir::new("bench-range");
    let mut w = ShardWriter::create(dir.path(), ShardSpec::Count(1)).unwrap();
    for i in 0..256u64 {
        w.append(&vec![(i % 251) as u8; 32 << 10], 0).unwrap();
    }
    let index = w.finish().unwrap();
    let shard = &index.shards[0];
    let reader = RangeReader::open(&index.shard_path(0)).unwrap();
    let (off, size) = shard.span(0, 64).unwrap();
    let mut g = c.benchmark_group("range_read");
    g.throughput(Throughput::Bytes(size));
    // One 2 MiB block and its 64 record headers, the two ways a shard is
    // read: as a view of the mapping (what the daemon does wherever shards
    // map) and as one positioned read into a reused buffer (the fallback).
    // The gap between the arms is the copy; a copy that finds its way back
    // into the mapped path closes it.
    if reader.view(off, size).unwrap().is_some() {
        g.bench_function("batch64_mapped_view", |b| {
            b.iter(|| {
                let block = reader.view(black_box(off), black_box(size)).unwrap();
                decode_all(&block.expect("mapped above"), false)
                    .unwrap()
                    .len()
            })
        });
    }
    let mut buf = Vec::new();
    g.bench_function("batch64_read_range_into", |b| {
        b.iter(|| {
            reader
                .read_range_into(black_box(off), black_box(size), &mut buf)
                .unwrap();
            decode_all(&buf, false).unwrap().len()
        })
    });
    g.finish();
}

fn bench_sif(c: &mut Criterion) {
    let img = synth_image(176, 176, 3, 7);
    let encoded = sif::encode(&img, 2);
    let mut g = c.benchmark_group("sif");
    g.throughput(Throughput::Bytes(img.raw_bytes() as u64));
    g.bench_function("encode_176px", |b| {
        b.iter(|| sif::encode(black_box(&img), 2))
    });
    g.bench_function("decode_176px", |b| {
        b.iter(|| sif::decode(black_box(&encoded)).unwrap())
    });
    g.finish();
}

fn bench_planner(c: &mut Criterion) {
    let dir = TempDir::new("bench-plan");
    let spec = DatasetSpec::tiny("plan", 2000);
    let index =
        emlio_datagen::convert::build_tfrecord_dataset(dir.path(), &spec, ShardSpec::Count(16))
            .unwrap();
    let nodes: Vec<String> = (0..4).map(|i| format!("node{i}")).collect();
    let config = EmlioConfig::default().with_batch_size(64).with_epochs(5);
    c.bench_function("planner/2000samples_16shards_4nodes_5epochs", |b| {
        b.iter(|| Plan::build(black_box(&index), black_box(&nodes), black_box(&config)))
    });
}

fn bench_zmq_loopback(c: &mut Criterion) {
    use bytes::Bytes;
    use emlio_zmq::{Endpoint, PullSocket, PushSocket, SocketOptions};
    c.bench_function("zmq/tcp_1000x8KiB", |b| {
        b.iter(|| {
            let pull = PullSocket::bind(
                &Endpoint::tcp("127.0.0.1", 0),
                SocketOptions::default().with_hwm(64),
            )
            .unwrap();
            let push = PushSocket::connect(
                &pull.local_endpoint().unwrap(),
                SocketOptions::default().with_hwm(64),
            )
            .unwrap();
            let payload = Bytes::from(vec![7u8; 8 << 10]);
            let consumer = std::thread::spawn(move || {
                for _ in 0..1000 {
                    pull.recv().unwrap();
                }
                pull
            });
            for _ in 0..1000 {
                push.send(payload.clone()).unwrap();
            }
            push.close().unwrap();
            consumer.join().unwrap()
        })
    });
}

fn bench_des(c: &mut Criterion) {
    c.bench_function("des/3stage_10k_tokens", |b| {
        b.iter(|| {
            let mut sim = PipelineSim::new(100_000_000);
            sim.add_stage(StageSpec::servers("a", 4, usize::MAX, |_| 1_000));
            sim.add_stage(StageSpec::servers("b", 1, 16, |_| 3_000));
            sim.add_stage(StageSpec::servers("c", 1, 2, |_| 2_000));
            for i in 0..10_000 {
                sim.push_initial(Token::new(i, 1024));
            }
            sim.run()
        })
    });
}

criterion_group!(
    benches,
    bench_crc32c,
    bench_msgpack,
    bench_tfrecord,
    bench_range_read,
    bench_sif,
    bench_planner,
    bench_zmq_loopback,
    bench_des,
);
criterion_main!(benches);

//! Multi-thread stress: many writers hammering one shared
//! [`StageRecorder`] must lose no counts and keep quantiles sane, and a
//! reader snapshotting concurrently must never observe a torn state that
//! panics or reports counts above the true total.

use emlio_obs::{Stage, StageRecorder};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const WRITERS: usize = 8;
const PER_WRITER: u64 = 50_000;

#[test]
fn concurrent_writers_lose_nothing() {
    let rec = StageRecorder::shared();
    let stop = Arc::new(AtomicBool::new(false));

    // A reader thread snapshots continuously while writers record.
    let reader = {
        let rec = rec.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut snaps = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let snap = rec.snapshot();
                for (_, h) in snap.non_empty() {
                    // Quantiles from a mid-flight snapshot must stay
                    // within that snapshot's own observed range.
                    assert!(h.p50() <= h.max);
                    assert!(h.p99() <= h.max);
                    assert!(h.count <= WRITERS as u64 * PER_WRITER);
                }
                snaps += 1;
            }
            snaps
        })
    };

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let rec = rec.clone();
            std::thread::spawn(move || {
                // Each writer spreads values across magnitudes and two
                // stages so bucket contention and stage independence are
                // both exercised.
                for i in 0..PER_WRITER {
                    let v = (i.wrapping_mul(2_654_435_761).wrapping_add(w as u64)) % (1 << 30);
                    rec.record(Stage::StorageRead, v);
                    if i % 4 == 0 {
                        rec.record(Stage::SocketSend, v / 3);
                    }
                }
            })
        })
        .collect();
    for t in writers {
        t.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    assert!(
        reader.join().unwrap() > 0,
        "reader snapshotted at least once"
    );

    let snap = rec.snapshot();
    let reads = snap.stage(Stage::StorageRead);
    assert_eq!(reads.count, WRITERS as u64 * PER_WRITER, "no lost counts");
    assert_eq!(
        snap.stage(Stage::SocketSend).count,
        WRITERS as u64 * PER_WRITER.div_ceil(4),
    );
    assert!(reads.p50() <= reads.p99());
    assert!(reads.p99() <= reads.max);
    assert!(reads.max < 1 << 30);

    // Merging per-thread recorders' histograms equals one shared recorder.
    let shards: Vec<StageRecorder> = (0..WRITERS).map(|_| StageRecorder::new()).collect();
    std::thread::scope(|s| {
        for (w, shard) in shards.iter().enumerate() {
            s.spawn(move || {
                for i in 0..PER_WRITER {
                    let v = (i.wrapping_mul(2_654_435_761).wrapping_add(w as u64)) % (1 << 30);
                    shard.record(Stage::StorageRead, v);
                }
            });
        }
    });
    let merged = StageRecorder::new();
    for shard in &shards {
        let stage = Stage::StorageRead;
        merged.hist(stage).merge(shard.hist(stage));
    }
    let merged_snap = merged.snapshot();
    assert_eq!(
        merged_snap.stage(Stage::StorageRead).count,
        reads.count,
        "sharded-and-merged == shared"
    );
    assert_eq!(merged_snap.stage(Stage::StorageRead).sum, reads.sum);
    assert_eq!(merged_snap.stage(Stage::StorageRead).max, reads.max);
}

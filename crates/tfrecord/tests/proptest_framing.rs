//! Property tests for TFRecord framing: arbitrary payload sequences survive
//! write→read, any single bit flip is detected, spans always reconstruct
//! the same records as individual reads, the run-time-dispatched CRC32C
//! kernel agrees with the table oracle, and a block read off a shard is the
//! same bytes as that range of the file — for as long as a view of it
//! lives, and an error rather than a fault once the file has lost them.

use emlio_tfrecord::crc32c::{crc32c, crc32c_table};
use emlio_tfrecord::record::{decode_all, decode_at, encode_into};
use emlio_tfrecord::{
    BlockKey, GlobalIndex, RangeSource, RecordError, ShardSpec, ShardWriter, TfrecordSource,
};
use emlio_util::testutil::TempDir;
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sequences_roundtrip(payloads in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..200), 0..20)) {
        let mut buf = Vec::new();
        for p in &payloads {
            encode_into(p, &mut buf);
        }
        let recs = decode_all(&buf, true).unwrap();
        prop_assert_eq!(recs.len(), payloads.len());
        for (rec, expect) in recs.iter().zip(&payloads) {
            prop_assert_eq!(rec.payload, expect.as_slice());
        }
    }

    #[test]
    fn bit_flips_detected(payload in proptest::collection::vec(any::<u8>(), 1..128),
                          byte_idx in any::<usize>(), bit in 0u8..8) {
        let mut buf = Vec::new();
        encode_into(&payload, &mut buf);
        let idx = byte_idx % buf.len();
        buf[idx] ^= 1 << bit;
        // A flip anywhere in the frame must not yield the original payload
        // with CRC verification enabled. (It may fail as corrupt length,
        // corrupt payload, or truncation depending on where it lands —
        // an `Err` means the flip was detected outright.)
        if let Ok((rec, _)) = decode_at(&buf, 0, true) {
            prop_assert_ne!(rec.payload, payload.as_slice());
        }
    }

    /// Whatever kernel `crc32c` dispatched to equals the table code on
    /// every sub-slice: lengths from empty to past 12 KiB — up to four
    /// rounds of the hardware kernel's three 1 KiB lanes, then its 8-byte
    /// loop, then its bytewise tail — at each of the eight alignments of
    /// one shared buffer.
    #[test]
    fn dispatched_crc_equals_table_oracle(
        buf in proptest::collection::vec(any::<u8>(), 8..13000),
        len in 0usize..13000,
    ) {
        for offset in 0..8 {
            let end = (offset + len).min(buf.len());
            let slice = &buf[offset..end];
            prop_assert_eq!(
                crc32c(slice),
                crc32c_table(slice),
                "offset {} len {}",
                offset,
                slice.len()
            );
        }
    }

    #[test]
    fn decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_all(&bytes, true);
        let _ = decode_all(&bytes, false);
    }
}

/// One shard holding a record of each of `sizes`, every payload byte a
/// function of its position so that a view of the wrong range shows.
fn shard_of(sizes: &[usize]) -> (TempDir, Arc<GlobalIndex>) {
    let dir = TempDir::new("tfrecord-mapped");
    let mut w = ShardWriter::create(dir.path(), ShardSpec::Count(1)).unwrap();
    for (i, &size) in sizes.iter().enumerate() {
        let payload: Vec<u8> = (0..size).map(|j| (i * 31 + j * 7) as u8).collect();
        w.append(&payload, 0).unwrap();
    }
    let index = Arc::new(w.finish().unwrap());
    (dir, index)
}

/// Record ranges `a` and `b` pick out of `n` records, as a block key.
fn key_between(n: usize, a: usize, b: usize) -> BlockKey {
    let (a, b) = (a % n, b % n);
    BlockKey {
        shard_id: 0,
        start: a.min(b),
        end: a.max(b) + 1,
    }
}

// Blocks as views of the mapped shard (or, where shards are not mapped,
// as positioned reads: every property below is the read path's contract,
// whichever way `RangeReader::open` went). Record sizes run from empty to
// several pages, so spans start and end anywhere within a page.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn block_equals_the_same_range_of_the_file(
        sizes in proptest::collection::vec(0usize..20_000, 1..24),
        a in any::<usize>(),
        b in any::<usize>(),
    ) {
        let (_dir, index) = shard_of(&sizes);
        let file = std::fs::read(index.shard_path(0)).unwrap();
        let key = key_between(sizes.len(), a, b);
        let (offset, size) = index.shards[0].span(key.start, key.end).unwrap();
        let block = TfrecordSource::new(index.clone()).read_block(&key).unwrap();
        prop_assert_eq!(
            &block.data[..],
            &file[offset as usize..(offset + size) as usize]
        );
    }

    /// The mapping lives until the last view of it: a block read before
    /// its source is dropped (and its shard unlinked) reads the same after.
    #[test]
    fn view_outlives_its_source(
        sizes in proptest::collection::vec(0usize..20_000, 1..24),
        a in any::<usize>(),
        b in any::<usize>(),
    ) {
        let (dir, index) = shard_of(&sizes);
        let file = std::fs::read(index.shard_path(0)).unwrap();
        let key = key_between(sizes.len(), a, b);
        let (offset, size) = index.shards[0].span(key.start, key.end).unwrap();
        let source = TfrecordSource::new(index.clone());
        let block = source.read_block(&key).unwrap().data;
        drop(source);
        drop(dir);
        prop_assert_eq!(&block[..], &file[offset as usize..(offset + size) as usize]);
    }

    /// A shard cut short under an open source: a span that lost bytes is
    /// `Truncated` — an error, with the process alive to report it — and a
    /// span wholly below the cut still reads what the file held.
    #[test]
    fn shrunk_shard_is_truncated_not_fatal(
        sizes in proptest::collection::vec(0usize..20_000, 2..24),
        cut in any::<u64>(),
    ) {
        let (_dir, index) = shard_of(&sizes);
        let path = index.shard_path(0);
        let file = std::fs::read(&path).unwrap();
        let source = TfrecordSource::new(index.clone());
        // Shards open on first use: read once so the cut lands under an
        // open reader.
        source.read_block(&key_between(sizes.len(), 0, 0)).unwrap();
        let new_len = cut % file.len() as u64;
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(new_len)
            .unwrap();
        for start in 0..sizes.len() {
            let key = BlockKey { shard_id: 0, start, end: sizes.len().min(start + 3) };
            let (offset, size) = index.shards[0].span(key.start, key.end).unwrap();
            match source.read_block(&key) {
                Ok(block) => {
                    prop_assert!(offset + size <= new_len, "{key:?} read past the cut");
                    prop_assert_eq!(
                        &block.data[..],
                        &file[offset as usize..(offset + size) as usize]
                    );
                }
                Err(RecordError::Truncated { .. }) => {
                    prop_assert!(offset + size > new_len, "{key:?} lost no byte");
                }
                Err(other) => prop_assert!(false, "{key:?}: {other}"),
            }
        }
    }
}

#[test]
fn empty_shard_opens_and_every_read_is_truncated() {
    let (_dir, index) = shard_of(&[100, 0, 5000]);
    std::fs::File::create(index.shard_path(0)).unwrap();
    let source = TfrecordSource::new(index);
    for (start, end) in [(0, 1), (1, 2), (0, 3), (2, 3)] {
        let key = BlockKey {
            shard_id: 0,
            start,
            end,
        };
        assert!(
            matches!(source.read_block(&key), Err(RecordError::Truncated { .. })),
            "{key:?}"
        );
    }
}

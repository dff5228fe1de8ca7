//! Property tests for TFRecord framing: arbitrary payload sequences survive
//! write→read, any single bit flip is detected, spans always reconstruct
//! the same records as individual reads, and the run-time-dispatched CRC32C
//! kernel agrees with the table oracle.

use emlio_tfrecord::crc32c::{crc32c, crc32c_table};
use emlio_tfrecord::record::{decode_all, decode_at, encode_into};
use proptest::prelude::*;

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

//! TFRecord frame encoding/decoding over in-memory buffers.
//!
//! Layout of one record (all integers little-endian, as TensorFlow writes):
//!
//! ```text
//! u64    length                      (of payload)
//! u32    masked_crc32c(length bytes)
//! [u8]   payload                     (length bytes)
//! u32    masked_crc32c(payload)
//! ```

use crate::crc32c::masked_crc32c;
use std::fmt;
use std::io;

/// Framing overhead per record: 8 (len) + 4 (len crc) + 4 (payload crc).
pub const FRAME_OVERHEAD: u64 = 16;

/// Errors raised by TFRecord framing and file I/O.
#[derive(Debug)]
pub enum RecordError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The length header's CRC did not match (torn/corrupt header).
    CorruptLength { offset: u64 },
    /// The payload's CRC did not match.
    CorruptPayload { offset: u64 },
    /// The buffer/file ended mid-record.
    Truncated { offset: u64 },
    /// A shard index file failed to parse or disagreed with the data file.
    BadIndex(String),
}

impl RecordError {
    /// True for failures worth retrying: raw I/O errors, which cover both
    /// real device/mount blips and injected chaos faults. Corruption,
    /// truncation, and index errors are permanent — the bytes on disk are
    /// wrong, and re-reading them yields the same wrong bytes — so the
    /// retry layer surfaces them immediately as detectable errors.
    pub fn is_transient(&self) -> bool {
        matches!(self, RecordError::Io(_))
    }
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::Io(e) => write!(f, "I/O error: {e}"),
            RecordError::CorruptLength { offset } => {
                write!(f, "corrupt length header at offset {offset}")
            }
            RecordError::CorruptPayload { offset } => {
                write!(f, "corrupt payload CRC at offset {offset}")
            }
            RecordError::Truncated { offset } => write!(f, "truncated record at offset {offset}"),
            RecordError::BadIndex(msg) => write!(f, "bad shard index: {msg}"),
        }
    }
}

impl std::error::Error for RecordError {}

impl From<io::Error> for RecordError {
    fn from(e: io::Error) -> Self {
        RecordError::Io(e)
    }
}

/// Total encoded size of a record with a payload of `payload_len` bytes.
pub fn encoded_len(payload_len: usize) -> u64 {
    payload_len as u64 + FRAME_OVERHEAD
}

/// Append one framed record to `out`.
pub fn encode_into(payload: &[u8], out: &mut Vec<u8>) {
    let len_bytes = (payload.len() as u64).to_le_bytes();
    out.extend_from_slice(&len_bytes);
    out.extend_from_slice(&masked_crc32c(&len_bytes).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&masked_crc32c(payload).to_le_bytes());
}

/// One decoded record: payload plus its position in the source buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedRecord<'a> {
    /// Byte offset of the record header within the source.
    pub offset: u64,
    /// The record payload (borrowed).
    pub payload: &'a [u8],
}

/// Decode the record starting at `offset` within `buf`.
///
/// Returns the record and the offset of the next record. `verify_crc=false`
/// skips both checks (trusted local replay; the paper's daemon verifies on
/// conversion, then serves ranges without re-hashing).
pub fn decode_at(
    buf: &[u8],
    offset: u64,
    verify_crc: bool,
) -> Result<(DecodedRecord<'_>, u64), RecordError> {
    let start = offset as usize;
    if start + 12 > buf.len() {
        return Err(RecordError::Truncated { offset });
    }
    let len_bytes: [u8; 8] = buf[start..start + 8].try_into().unwrap();
    let stored_len_crc = u32::from_le_bytes(buf[start + 8..start + 12].try_into().unwrap());
    if verify_crc && masked_crc32c(&len_bytes) != stored_len_crc {
        return Err(RecordError::CorruptLength { offset });
    }
    let len = u64::from_le_bytes(len_bytes) as usize;
    let payload_start = start + 12;
    let payload_end = payload_start
        .checked_add(len)
        .ok_or(RecordError::Truncated { offset })?;
    if payload_end + 4 > buf.len() {
        return Err(RecordError::Truncated { offset });
    }
    let payload = &buf[payload_start..payload_end];
    if verify_crc {
        let stored = u32::from_le_bytes(buf[payload_end..payload_end + 4].try_into().unwrap());
        if masked_crc32c(payload) != stored {
            return Err(RecordError::CorruptPayload { offset });
        }
    }
    Ok((DecodedRecord { offset, payload }, (payload_end + 4) as u64))
}

/// Iterate every record in `buf` (e.g. one contiguous range read covering a
/// whole batch). Stops at the exact end of the buffer; a partial trailing
/// record is an error.
pub fn decode_all(buf: &[u8], verify_crc: bool) -> Result<Vec<DecodedRecord<'_>>, RecordError> {
    let mut out = Vec::new();
    let mut pos = 0u64;
    while (pos as usize) < buf.len() {
        let (rec, next) = decode_at(buf, pos, verify_crc)?;
        out.push(rec);
        pos = next;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_single() {
        let mut buf = Vec::new();
        encode_into(b"hello tfrecord", &mut buf);
        assert_eq!(buf.len() as u64, encoded_len(14));
        let (rec, next) = decode_at(&buf, 0, true).unwrap();
        assert_eq!(rec.payload, b"hello tfrecord");
        assert_eq!(next, buf.len() as u64);
    }

    #[test]
    fn empty_payload() {
        let mut buf = Vec::new();
        encode_into(b"", &mut buf);
        let (rec, next) = decode_at(&buf, 0, true).unwrap();
        assert_eq!(rec.payload, b"");
        assert_eq!(next, FRAME_OVERHEAD);
    }

    #[test]
    fn decode_all_sequence() {
        let mut buf = Vec::new();
        for i in 0..10u8 {
            encode_into(&vec![i; i as usize + 1], &mut buf);
        }
        let recs = decode_all(&buf, true).unwrap();
        assert_eq!(recs.len(), 10);
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.payload.len(), i + 1);
            assert!(r.payload.iter().all(|&b| b == i as u8));
        }
    }

    #[test]
    fn corrupt_length_detected() {
        let mut buf = Vec::new();
        encode_into(b"payload", &mut buf);
        buf[0] ^= 0x01;
        assert!(matches!(
            decode_at(&buf, 0, true),
            Err(RecordError::CorruptLength { offset: 0 })
        ));
        // With verification off, a flipped low length byte shifts the frame and
        // the decode either truncates or returns wrong-length data — here 6
        // bytes instead of 7.
        let relaxed = decode_at(&buf, 0, false);
        if let Ok((rec, _)) = relaxed {
            assert_ne!(rec.payload, b"payload");
        }
    }

    #[test]
    fn corrupt_payload_detected() {
        let mut buf = Vec::new();
        encode_into(b"payload", &mut buf);
        buf[12] ^= 0x80; // first payload byte
        assert!(matches!(
            decode_at(&buf, 0, true),
            Err(RecordError::CorruptPayload { offset: 0 })
        ));
        // Skipping verification returns the (corrupted) bytes.
        let (rec, _) = decode_at(&buf, 0, false).unwrap();
        assert_eq!(rec.payload.len(), 7);
    }

    #[test]
    fn truncation_at_every_cut() {
        let mut buf = Vec::new();
        encode_into(b"0123456789", &mut buf);
        for cut in 0..buf.len() {
            assert!(
                decode_at(&buf[..cut], 0, true).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn partial_trailing_record_is_error() {
        let mut buf = Vec::new();
        encode_into(b"aaaa", &mut buf);
        encode_into(b"bbbb", &mut buf);
        let cut = buf.len() - 3;
        assert!(decode_all(&buf[..cut], true).is_err());
    }
}

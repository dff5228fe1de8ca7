//! TFRecord reading: positioned range reads.

use crate::mapped;
use crate::record::RecordError;
use crate::Result;
use bytes::Bytes;
use std::fs::File;
use std::path::Path;

/// Range reads against a shard file: the contiguous byte range covering a
/// whole batch comes back in **one** piece, raw — the caller parses the
/// records out of it (`record::decode_all`, as the cache's
/// `CachedRangeReader` does). This is the daemon's hot read path, and it reads the way the
/// paper's daemon does: [`open`](RangeReader::open) maps the shard once and
/// [`view`](RangeReader::view) slices the range out of the mapping — no
/// buffer, no copy. Where the shard cannot be mapped (see
/// [`view`](RangeReader::view)) the same range is one `pread`-style call
/// into a buffer, [`read_range_into`](RangeReader::read_range_into).
pub struct RangeReader {
    file: File,
    len: u64,
    /// The whole shard, mapped at `open`; every view is a slice of it and
    /// the last one to drop unmaps it. `None` selects the positioned reads.
    mapped: Option<Bytes>,
}

impl RangeReader {
    /// Open a shard file for range reads, mapping it when the platform,
    /// the filesystem and the file (non-empty) allow. The length — of the
    /// mapping and of every bounds check — is fixed here.
    pub fn open(path: &Path) -> Result<Self> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let mapped = mapped::map(&file, len);
        Ok(RangeReader { file, len, mapped })
    }

    /// Open `path` as a platform that cannot map shards does, so that the
    /// positioned-read fallback is tested where every shard maps.
    #[cfg(test)]
    pub(crate) fn open_unmapped(path: &Path) -> Result<Self> {
        let mut reader = RangeReader::open(path)?;
        reader.mapped = None;
        Ok(reader)
    }

    /// File length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if the shard file is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `offset + size`, if the range lies inside the shard as it was at
    /// `open`. The operands come from an on-disk index: the sum is checked,
    /// not trusted to fit.
    fn range_end(&self, offset: u64, size: u64) -> Result<u64> {
        offset
            .checked_add(size)
            .filter(|&end| end <= self.len)
            .ok_or(RecordError::Truncated { offset })
    }

    /// The byte range `[offset, offset+size)` as a view of the mapped
    /// shard, its pages faulted in on the calling thread — so the wait for
    /// a cold page is paid here, by the reader, and not by whoever touches
    /// the bytes first. `Ok(None)` when `open` could not map the shard (not
    /// 64-bit Linux, no `MADV_POPULATE_READ`, `mmap` refused, empty file):
    /// the caller then reads with
    /// [`read_range_into`](RangeReader::read_range_into).
    ///
    /// A shard that has shrunk below the range since `open` is
    /// [`RecordError::Truncated`], as it is for a positioned read; a page
    /// that cannot be read is [`RecordError::Io`].
    pub fn view(&self, offset: u64, size: u64) -> Result<Option<Bytes>> {
        let end = self.range_end(offset, size)?;
        let Some(whole) = &self.mapped else {
            return Ok(None);
        };
        // Lossless: `end <= len`, and `len` fitted a `usize` to be mapped.
        let view = whole.slice(offset as usize..end as usize);
        let faulted = mapped::fault_in(&view);
        // Pages wholly past a new end of file fail the fault-in; a last
        // page cut part-way still maps, and reads as zeros from the cut
        // on. The file's length as it is now tells both from a device
        // error.
        if self.file.metadata()?.len() < end {
            return Err(RecordError::Truncated { offset });
        }
        faulted?;
        Ok(Some(view))
    }

    /// Read the raw byte range `[offset, offset+size)` into `buf`, whose
    /// length becomes `size`, with one positioned read. Whatever `buf`
    /// held is overwritten, not cleared first: a recycled buffer already
    /// `size` long (see `BlockAlloc::take`) is not zero-filled under the
    /// read. A file that has shrunk below the range since `open` is
    /// [`RecordError::Truncated`], as it is for [`view`](RangeReader::view).
    pub fn read_range_into(&self, offset: u64, size: u64, buf: &mut Vec<u8>) -> Result<()> {
        self.range_end(offset, size)?;
        buf.resize(size as usize, 0);
        read_at_full(&self.file, buf, offset).map_err(|e| match e.kind() {
            std::io::ErrorKind::UnexpectedEof => RecordError::Truncated { offset },
            _ => RecordError::Io(e),
        })
    }
}

#[cfg(unix)]
fn read_at_full(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

#[cfg(not(unix))]
fn read_at_full(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::io::{Seek, SeekFrom};
    let mut f = file.try_clone()?;
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::decode_all;
    use crate::writer::RecordWriter;
    use std::io::Write;

    use emlio_util::testutil::TempDir;

    fn temp_shard(payloads: &[&[u8]]) -> (TempDir, std::path::PathBuf, Vec<(u64, u64)>) {
        let dir = TempDir::new("tfrecord-reader-test");
        let path = dir.file("shard.tfrecord");
        let mut w = RecordWriter::new(std::fs::File::create(&path).unwrap());
        let mut spans = Vec::new();
        for p in payloads {
            let at = w.write_record(p).unwrap();
            spans.push((at, crate::record::encoded_len(p.len())));
        }
        let mut f = w.finish().unwrap();
        f.flush().unwrap();
        (dir, path, spans)
    }

    /// The payloads of the records in `[offset, offset + size)`: one
    /// positioned read, decoded as the daemon's reader decodes a block.
    fn records(rr: &RangeReader, offset: u64, size: u64, crc: bool) -> Result<Vec<Vec<u8>>> {
        let mut buf = Vec::new();
        rr.read_range_into(offset, size, &mut buf)?;
        let recs = decode_all(&buf, crc)?;
        Ok(recs.into_iter().map(|r| r.payload.to_vec()).collect())
    }

    #[test]
    fn sequential_reader_roundtrip() {
        // What the writer framed comes back, in order, from one read of
        // the whole file.
        let (_g, path, _) = temp_shard(&[b"one", b"two", b"three"]);
        let rr = RangeReader::open(&path).unwrap();
        let recs = records(&rr, 0, rr.len(), true).unwrap();
        assert_eq!(recs, [&b"one"[..], b"two", b"three"]);
    }

    #[test]
    fn range_reader_single_and_batch() {
        let payloads: Vec<Vec<u8>> = (0..20u8).map(|i| vec![i; (i as usize + 1) * 3]).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(|v| v.as_slice()).collect();
        let (_g, path, spans) = temp_shard(&refs);
        let rr = RangeReader::open(&path).unwrap();

        // Single record by index.
        let (o, s) = spans[7];
        assert_eq!(records(&rr, o, s, true).unwrap(), [payloads[7].clone()]);

        // Contiguous block covering records 5..=9 — one read, many records.
        let start = spans[5].0;
        let end = spans[9].0 + spans[9].1;
        let recs = records(&rr, start, end - start, true).unwrap();
        assert_eq!(recs.len(), 5);
        assert_eq!(recs[0], payloads[5]);
        assert_eq!(recs[4], payloads[9]);
    }

    #[test]
    fn range_out_of_bounds() {
        let (_g, path, _) = temp_shard(&[b"x"]);
        let rr = RangeReader::open(&path).unwrap();
        assert!(records(&rr, 0, rr.len() + 1, true).is_err());
    }

    #[test]
    fn range_arithmetic_is_checked() {
        let (_g, path, _) = temp_shard(&[b"x"]);
        let rr = RangeReader::open(&path).unwrap();
        // `offset + size` wraps to 4: inside the file, were it trusted.
        let mut buf = Vec::new();
        for (offset, size) in [(u64::MAX - 5, 10), (10, u64::MAX - 5)] {
            assert!(matches!(
                rr.read_range_into(offset, size, &mut buf),
                Err(RecordError::Truncated { .. })
            ));
            assert!(matches!(
                rr.view(offset, size),
                Err(RecordError::Truncated { .. })
            ));
        }
        assert!(buf.is_empty(), "nothing was resized for a refused range");
    }

    #[test]
    fn oversized_header_rejected() {
        // Forge a header — its CRC valid — claiming a huge record: the
        // claim is checked against the bytes there are before anything is
        // sized by it, with and without CRC verification.
        let dir = TempDir::new("tfrecord-reader-forged");
        let path = dir.file("shard.tfrecord");
        for claimed in [u64::MAX / 2, u64::MAX] {
            let len_bytes = claimed.to_le_bytes();
            let mut buf = len_bytes.to_vec();
            buf.extend_from_slice(&crate::crc32c::masked_crc32c(&len_bytes).to_le_bytes());
            buf.extend_from_slice(&[0u8; 8]);
            std::fs::write(&path, &buf).unwrap();
            let rr = RangeReader::open(&path).unwrap();
            for crc in [true, false] {
                assert!(matches!(
                    records(&rr, 0, rr.len(), crc),
                    Err(RecordError::Truncated { offset: 0 })
                ));
            }
        }
    }
}

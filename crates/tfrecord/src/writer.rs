//! Sequential TFRecord writing.

use crate::record::{encode_into, encoded_len};
use crate::Result;
use std::io::Write;

/// Writes framed records to any `Write` sink, tracking offsets so callers can
/// build indexes as they go.
pub struct RecordWriter<W: Write> {
    sink: W,
    offset: u64,
    scratch: Vec<u8>,
}

impl<W: Write> RecordWriter<W> {
    /// Wrap a sink positioned at byte 0 of the record stream.
    pub fn new(sink: W) -> Self {
        RecordWriter {
            sink,
            offset: 0,
            scratch: Vec::new(),
        }
    }

    /// Write one record. Returns the byte offset the record starts at.
    pub fn write_record(&mut self, payload: &[u8]) -> Result<u64> {
        let at = self.offset;
        self.scratch.clear();
        encode_into(payload, &mut self.scratch);
        self.sink.write_all(&self.scratch)?;
        self.offset += encoded_len(payload.len());
        Ok(at)
    }

    /// Total bytes written.
    pub fn bytes_written(&self) -> u64 {
        self.offset
    }

    /// Flush and return the inner sink.
    pub fn finish(mut self) -> Result<W> {
        self.sink.flush()?;
        Ok(self.sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::decode_all;

    #[test]
    fn offsets_track_encoded_len() {
        let mut w = RecordWriter::new(Vec::new());
        let o0 = w.write_record(b"abc").unwrap();
        let o1 = w.write_record(b"defgh").unwrap();
        assert_eq!(o0, 0);
        assert_eq!(o1, encoded_len(3));
        assert_eq!(w.bytes_written(), encoded_len(3) + encoded_len(5));
        let buf = w.finish().unwrap();
        let recs = decode_all(&buf, true).unwrap();
        assert_eq!(recs[0].payload, b"abc");
        assert_eq!(recs[1].payload, b"defgh");
        assert_eq!(recs[1].offset, encoded_len(3));
    }

    #[test]
    fn empty_stream() {
        let w = RecordWriter::new(Vec::new());
        assert_eq!(w.bytes_written(), 0);
        let buf = w.finish().unwrap();
        assert!(buf.is_empty());
        assert!(decode_all(&buf, true).unwrap().is_empty());
    }
}

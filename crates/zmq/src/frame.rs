//! Wire framing: each message is a big-endian `u32` length followed by the
//! payload. A length guard rejects oversized frames before allocating.
//!
//! Senders hand the socket a [`Frame`]: a scatter list of [`Bytes`]
//! segments written back-to-back under one length prefix. The daemon uses
//! this to interleave small encoded headers with refcounted cache-block
//! slices, so batch payloads reach the wire without ever being gathered
//! into one contiguous buffer. The bytes on the wire are identical to a
//! single-segment frame — receivers cannot tell the difference.
//!
//! Neither direction stages payload bytes in user space. [`write_scatter`]
//! hands the kernel one frame's length prefix and segments in one
//! `write_vectored` — there is no intermediate buffer to copy them into,
//! and no frame shares a write with another — and [`FrameReader`] reads
//! each payload straight from the stream into a recycled [`BufferPool`]
//! buffer that becomes the frame's [`Bytes`].

use crate::{Result, ZmqError};
use bytes::Bytes;
use emlio_util::pool::BufferPool;
use std::io::{IoSlice, Read, Write};

/// A wire message as a scatter list of segments.
///
/// Segments are written in order under a single length prefix; a plain
/// `Bytes` or `Vec<u8>` converts into a one-segment frame. Cloning a
/// `Frame` bumps segment refcounts, never copies payloads.
#[derive(Debug, Clone, Default)]
pub struct Frame {
    segments: Vec<Bytes>,
}

impl Frame {
    /// Frame over an explicit segment list.
    pub fn from_segments(segments: Vec<Bytes>) -> Frame {
        Frame { segments }
    }

    /// Total payload length across all segments.
    pub fn len(&self) -> usize {
        self.segments.iter().map(|s| s.len()).sum()
    }

    /// True if the frame carries no payload bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The segment list.
    pub fn segments(&self) -> &[Bytes] {
        &self.segments
    }

    /// Gather into one contiguous `Bytes`. A single-segment frame is a
    /// refcount bump (no copy); multi-segment frames copy once. No
    /// transport gathers — the socket writes segments directly; this is the
    /// reference the tests compare received bytes against.
    pub fn into_bytes(mut self) -> Bytes {
        match self.segments.len() {
            0 => Bytes::new(),
            1 => self.segments.pop().expect("one segment"),
            _ => {
                let mut out = Vec::with_capacity(self.len());
                for s in &self.segments {
                    out.extend_from_slice(s);
                }
                Bytes::from(out)
            }
        }
    }
}

/// The big-endian `u32` length prefix a `len`-byte payload goes out under.
fn prefix(len: usize) -> Result<[u8; 4]> {
    let len: u32 = len.try_into().map_err(|_| ZmqError::FrameTooLarge {
        size: len,
        limit: u32::MAX as usize,
    })?;
    Ok(len.to_be_bytes())
}

impl From<Bytes> for Frame {
    fn from(b: Bytes) -> Frame {
        Frame { segments: vec![b] }
    }
}

impl From<Vec<u8>> for Frame {
    fn from(v: Vec<u8>) -> Frame {
        Frame::from(Bytes::from(v))
    }
}

/// Most slices handed to one `write_vectored` call (Linux's `IOV_MAX`; a
/// writer that takes fewer just writes less and the rest is resumed).
const MAX_IOVECS: usize = 1024;

/// Write one frame under its `u32` length prefix without gathering it:
/// every call to `w` is one `write_vectored` over the prefix and the
/// non-empty segments still to go, up to `IOV_MAX` of them at a time. A
/// writer that takes only part of what it is offered (fewer bytes, fewer
/// slices) is resumed where it stopped. The bytes written are those of
/// [`write_frame`] over the gathered payload.
///
/// Returns the number of write calls made: one for a frame of at most
/// `IOV_MAX` slices that the writer takes whole.
pub fn write_scatter<W: Write>(w: &mut W, frame: &Frame) -> Result<u64> {
    let prefix = prefix(frame.len())?;
    let segments = frame.segments.iter().map(|s| &s[..]);
    let mut parts = std::iter::once(&prefix[..])
        .chain(segments)
        .filter(|part| !part.is_empty());
    let mut writes = 0;
    loop {
        // The next IOV_MAX parts, written to their end before any more.
        let mut iov = [IoSlice::new(&[]); MAX_IOVECS];
        let mut n = 0;
        for (slot, part) in iov.iter_mut().zip(&mut parts) {
            *slot = IoSlice::new(part);
            n += 1;
        }
        if n == 0 {
            return Ok(writes);
        }
        let mut window = &mut iov[..n];
        while !window.is_empty() {
            match w.write_vectored(window) {
                Ok(0) => return Err(ZmqError::Io(std::io::ErrorKind::WriteZero.into())),
                Ok(written) => {
                    writes += 1;
                    IoSlice::advance_slices(&mut window, written);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ZmqError::Io(e)),
            }
        }
    }
}

/// Write one contiguous frame: the reference [`write_scatter`] is tested
/// against, and what tests craft raw streams with.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<()> {
    w.write_all(&prefix(payload.len())?)?;
    w.write_all(payload)?;
    Ok(())
}

/// A resumable frame reader: one per stream.
///
/// The partially read header or payload lives in the reader, not on the
/// stack of one call, so an I/O error that leaves the stream intact — the
/// `WouldBlock`/`TimedOut` of a read timeout used to poll a shutdown flag —
/// loses nothing: the next [`FrameReader::read_frame`] resumes the same
/// frame where the last call stopped. (Dropping those bytes put the stream
/// out of frame for good.)
///
/// Payloads are read into buffers taken from a [`BufferPool`] and handed
/// out as [`Bytes`] that return the buffer to the pool when their last
/// view drops. A recycled buffer is neither cleared nor zero-filled — the
/// read overwrites the frame's `len` bytes and the `Bytes` is cut to
/// `len`, so whatever an earlier frame left beyond that is never visible.
#[derive(Debug, Default)]
pub struct FrameReader {
    pool: BufferPool,
    header: [u8; 4],
    /// Once the header is complete: the payload buffer (at least as long
    /// as the frame) and the frame's length.
    payload: Option<(Vec<u8>, usize)>,
    /// Bytes read so far of the part in progress (header, then payload).
    filled: usize,
}

impl FrameReader {
    /// A reader drawing its payload buffers from `pool` (a PULL socket
    /// shares one among its connections); `default()` has a pool of its
    /// own.
    pub fn with_pool(pool: BufferPool) -> FrameReader {
        FrameReader {
            pool,
            ..FrameReader::default()
        }
    }

    /// Read one frame. Returns `Ok(None)` on clean EOF *before* the length
    /// prefix (peer closed between messages); mid-frame EOF is an error.
    /// After a timeout error, call again to continue the same frame.
    pub fn read_frame<R: Read>(&mut self, r: &mut R, max_frame: usize) -> Result<Option<Bytes>> {
        if self.payload.is_none() {
            if !fill(r, &mut self.header, &mut self.filled)? {
                return match self.filled {
                    0 => Ok(None),
                    _ => Err(eof_inside("header")),
                };
            }
            let len = u32::from_be_bytes(self.header) as usize;
            if len > max_frame {
                return Err(ZmqError::FrameTooLarge {
                    size: len,
                    limit: max_frame,
                });
            }
            self.filled = 0;
            if len == 0 {
                return Ok(Some(Bytes::new()));
            }
            let mut buf = self.pool.take(len);
            if buf.len() < len {
                // First use of this much of the allocation: initialise it
                // once, and keep it initialised across recycles.
                buf.resize(len, 0);
            }
            self.payload = Some((buf, len));
        }
        let (buf, len) = self.payload.as_mut().expect("payload taken above");
        if !fill(r, &mut buf[..*len], &mut self.filled)? {
            return Err(eof_inside("payload"));
        }
        self.filled = 0;
        let (buf, len) = self.payload.take().expect("payload filled above");
        Ok(Some(self.pool.seal(buf).slice(..len)))
    }
}

fn eof_inside(part: &str) -> ZmqError {
    ZmqError::Io(std::io::Error::new(
        std::io::ErrorKind::UnexpectedEof,
        format!("EOF inside frame {part}"),
    ))
}

/// Read into `buf[*filled..]` until it is full (`true`) or the stream ends
/// (`false`). `filled` is advanced as bytes arrive, so it is still right
/// when an error returns early.
fn fill<R: Read>(r: &mut R, buf: &mut [u8], filled: &mut usize) -> Result<bool> {
    while *filled < buf.len() {
        match r.read(&mut buf[*filled..]) {
            Ok(0) => return Ok(false),
            Ok(n) => *filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ZmqError::Io(e)),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One frame off a stream that never times out.
    fn read_frame<R: Read>(r: &mut R, max_frame: usize) -> Result<Option<Bytes>> {
        FrameReader::default().read_frame(r, max_frame)
    }

    #[test]
    fn roundtrip_frames() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"first").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, &[7u8; 1000]).unwrap();
        let mut cursor = &buf[..];
        assert_eq!(
            read_frame(&mut cursor, 1 << 20).unwrap().unwrap().as_ref(),
            b"first"
        );
        assert_eq!(read_frame(&mut cursor, 1 << 20).unwrap().unwrap().len(), 0);
        assert_eq!(
            read_frame(&mut cursor, 1 << 20).unwrap().unwrap().len(),
            1000
        );
        assert!(read_frame(&mut cursor, 1 << 20).unwrap().is_none());
    }

    #[test]
    fn scatter_frame_is_wire_identical_to_gathered() {
        let header = Bytes::from(vec![0xde, 0xad]);
        let body = Bytes::from(vec![7u8; 100]);
        let tail = Bytes::from(vec![0xbe, 0xef]);
        let frame = Frame::from_segments(vec![header, Bytes::new(), body, tail]);
        assert_eq!(frame.len(), 104);

        let mut scattered = Vec::new();
        assert_eq!(write_scatter(&mut scattered, &frame).unwrap(), 1);
        let mut gathered = Vec::new();
        write_frame(&mut gathered, &frame.clone().into_bytes()).unwrap();
        assert_eq!(scattered, gathered);

        let mut cursor = &scattered[..];
        let read = read_frame(&mut cursor, 1 << 20).unwrap().unwrap();
        assert_eq!(read, frame.into_bytes());
    }

    #[test]
    fn single_segment_into_bytes_is_passthrough() {
        let payload = Bytes::from(vec![1u8, 2, 3]);
        let frame = Frame::from(payload.clone());
        // Same backing storage: the gather is a refcount bump, not a copy.
        let out = frame.into_bytes();
        assert_eq!(out.as_ptr(), payload.as_ptr());
        assert!(Frame::default().into_bytes().is_empty());
        assert!(Frame::from(Vec::new()).is_empty());
    }

    #[test]
    fn oversized_frame_rejected_before_alloc() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut cursor = &buf[..];
        assert!(matches!(
            read_frame(&mut cursor, 1024),
            Err(ZmqError::FrameTooLarge { limit: 1024, .. })
        ));
    }

    #[test]
    fn eof_mid_header_is_error() {
        let buf = [0u8, 0];
        let mut cursor = &buf[..];
        assert!(read_frame(&mut cursor, 1024).is_err());
    }

    #[test]
    fn eof_mid_payload_is_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"complete").unwrap();
        let cut = buf.len() - 2;
        let mut cursor = &buf[..cut];
        assert!(read_frame(&mut cursor, 1024).is_err());
    }

    /// A stream that hands out its bytes a few at a time with a read
    /// timeout between every two reads.
    struct Stalling<'a> {
        data: &'a [u8],
        chunk: usize,
        stall_next: bool,
    }

    impl Read for Stalling<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.stall_next = !self.stall_next;
            if !self.stall_next && !self.data.is_empty() {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let n = self.chunk.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn timeouts_mid_frame_resume_without_losing_bytes() {
        let mut wire = Vec::new();
        let frames: [&[u8]; 3] = [b"first frame", b"", &[9u8; 300]];
        for f in frames {
            write_frame(&mut wire, f).unwrap();
        }
        // 3-byte reads: every header and every payload is cut by a timeout.
        let mut stream = Stalling {
            data: &wire,
            chunk: 3,
            stall_next: false,
        };
        let mut reader = FrameReader::default();
        let mut got = Vec::new();
        let mut timeouts = 0;
        loop {
            match reader.read_frame(&mut stream, 1 << 20) {
                Ok(Some(frame)) => got.push(frame),
                Ok(None) => break,
                Err(ZmqError::Io(e)) if e.kind() == std::io::ErrorKind::WouldBlock => timeouts += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(timeouts > frames.len(), "timeouts fired inside frames");
        assert_eq!(got.len(), frames.len());
        for (g, f) in got.iter().zip(frames) {
            assert_eq!(g.as_ref(), f);
        }
    }
}

//! Batch wire schema: one msgpack map per ZeroMQ message.
//!
//! ```text
//! { "epoch": uint, "batch_id": uint, "origin": str,
//!   "samples": [ { "id": uint, "label": uint, "data": bin }, … ] }
//! ```
//!
//! Control messages carry `"ctrl"` instead of `"samples"`:
//!
//! ```text
//! { "ctrl": "end_stream", "origin": str, "connections": uint }
//! ```
//!
//! A worker whose socket stripes over several connections ends each of them
//! with the same marker; `connections` says how many of them end its stream.
//!
//! Decoding is zero-copy for the dominant payload: sample `data` fields are
//! [`bytes::Bytes`] slices of the received frame, not copies.
//!
//! One codec, one direction each:
//!
//! * [`encode_batch_frame_traced`] writes the msgpack headers into a pooled
//!   buffer cut into segments interleaved with refcounted payload slices —
//!   a scatter [`Frame`], no payload memcpy on send, the header buffer
//!   recycled after it;
//! * [`decode_lazy`] *validates* the whole message on the receive thread
//!   and hands back a [`LazyBatch`] that materializes its samples only when
//!   [`LazyBatch::materialize`] is called on the consumer side.
//!
//! Batches may additionally carry a compact trace header in an optional
//! `"trace"` field (bin 16: little-endian worker sequence number + send
//! timestamp — see [`BatchTrace`]), written between `"origin"` and
//! `"samples"`. Untraced frames omit the field entirely, so a receiver
//! never sees it unless a daemon stamps it.
//!
//! The bytes on the wire are pinned by a contiguous reference encoder kept
//! in `tests/proptest_wire.rs`.

use crate::pool::BufferPool;
use bytes::Bytes;
use emlio_msgpack::{DecodeError, Decoder, Encoder, StrInterner};
use emlio_obs::BatchTrace;
use emlio_pipeline::{RawBatch, RawSample};
use emlio_zmq::Frame;
use std::fmt;
use std::sync::Arc;

/// Wire decode failures.
#[derive(Debug)]
pub enum WireError {
    /// msgpack-level failure.
    Decode(DecodeError),
    /// Structurally valid msgpack with the wrong shape.
    Schema(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Decode(e) => write!(f, "wire decode: {e}"),
            WireError::Schema(s) => write!(f, "wire schema: {s}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        WireError::Decode(e)
    }
}

/// Serialize a batch as a scatter [`Frame`]: all msgpack headers in one
/// pooled buffer, each sample payload spliced in as a refcounted [`Bytes`]
/// segment — no payload byte is copied and the header buffer is recycled
/// after send. `origin` identifies the sending worker (diagnostics and
/// out-of-order accounting); `trace`, when given, is stamped in as the
/// optional [`BatchTrace`] header.
pub fn encode_batch_frame_traced(
    epoch: u32,
    batch_id: u64,
    origin: &str,
    trace: Option<BatchTrace>,
    samples: &[(u64, u32, Bytes)],
    pool: &BufferPool,
) -> Frame {
    let mut hdr = pool.take(96 + origin.len() + samples.len() * 40);
    // A recycled buffer comes back at its previous length.
    hdr.clear();
    // `cuts[i]` = header offset where sample i's payload splices in.
    let mut cuts = Vec::with_capacity(samples.len());
    {
        let mut e = Encoder::new(&mut hdr);
        e.write_map_len(if trace.is_some() { 5 } else { 4 });
        e.write_str("epoch");
        e.write_uint(epoch as u64);
        e.write_str("batch_id");
        e.write_uint(batch_id);
        e.write_str("origin");
        e.write_str(origin);
        if let Some(t) = trace {
            e.write_str("trace");
            e.write_bin(&t.to_bytes());
        }
        e.write_str("samples");
        e.write_array_len(samples.len());
    }
    for (id, label, data) in samples {
        let mut e = Encoder::new(&mut hdr);
        e.write_map_len(3);
        e.write_str("id");
        e.write_uint(*id);
        e.write_str("label");
        e.write_uint(*label as u64);
        e.write_str("data");
        e.write_bin_len(data.len());
        cuts.push(hdr.len());
    }
    let hdr = pool.seal(hdr);
    let mut segments = Vec::with_capacity(samples.len() * 2 + 1);
    let mut prev = 0usize;
    for ((_, _, data), cut) in samples.iter().zip(&cuts) {
        segments.push(hdr.slice(prev..*cut));
        segments.push(data.clone());
        prev = *cut;
    }
    if samples.is_empty() {
        segments.push(hdr);
    }
    Frame::from_segments(segments)
}

/// Serialize an end-of-stream control message: the last frame on each of
/// the `connections` connections `origin`'s stream went over.
pub fn encode_end_stream(origin: &str, connections: u32) -> Vec<u8> {
    assert!(connections > 0, "a stream ends on at least one connection");
    let mut buf = Vec::with_capacity(64);
    let mut e = Encoder::new(&mut buf);
    e.write_map_len(3);
    e.write_str("ctrl");
    e.write_str("end_stream");
    e.write_str("origin");
    e.write_str(origin);
    e.write_str("connections");
    e.write_uint(u64::from(connections));
    buf
}

/// A scanned-but-not-materialized wire message from [`decode_lazy`].
#[derive(Debug, Clone)]
pub enum LazyMsg {
    /// A data batch, payloads still inside the frame.
    Batch(LazyBatch),
    /// End-of-stream marker from one daemon worker.
    EndStream {
        /// Daemon/worker identity (interned when an interner is supplied).
        origin: Arc<str>,
        /// Connections the stream went over, each ended by this marker.
        connections: u32,
    },
}

/// A batch whose structure has been fully validated but whose samples
/// still live inside the received frame.
///
/// The scan in [`decode_lazy`] walks every field — so a `LazyBatch` in hand
/// means the frame is well-formed, truncation-free, and schema-conformant —
/// but allocates nothing per sample. Header accessors are free;
/// [`LazyBatch::materialize`] builds the [`RawBatch`] (one `Vec` plus a
/// refcount bump per payload) and is intended to run on the *consumer*
/// thread, off the receive loop.
#[derive(Debug, Clone)]
pub struct LazyBatch {
    frame: Bytes,
    epoch: u32,
    batch_id: u64,
    origin: Arc<str>,
    n_samples: usize,
    /// Frame offset of the samples array header.
    samples_at: usize,
    payload_bytes: u64,
    trace: Option<BatchTrace>,
    /// Receiver-local arrival timestamp ([`emlio_obs::clock::now_nanos`]),
    /// 0 until [`LazyBatch::stamp_received`] is called.
    received_at_nanos: u64,
}

impl LazyBatch {
    /// Epoch this batch belongs to.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Plan-assigned batch id.
    pub fn batch_id(&self) -> u64 {
        self.batch_id
    }

    /// Sending worker identity.
    pub fn origin(&self) -> &Arc<str> {
        &self.origin
    }

    /// Number of samples in the batch.
    pub fn len(&self) -> usize {
        self.n_samples
    }

    /// True if the batch carries no samples.
    pub fn is_empty(&self) -> bool {
        self.n_samples == 0
    }

    /// Total payload bytes across all samples (header metadata excluded).
    pub fn payload_bytes(&self) -> u64 {
        self.payload_bytes
    }

    /// Trace header stamped by the sending worker, if any. Full batch
    /// identity for correlation is `(origin, epoch, trace.seq)`.
    pub fn trace(&self) -> Option<BatchTrace> {
        self.trace
    }

    /// Record the local arrival time (call on the receive thread, right
    /// after the scan) so consumers can compute queue dwell.
    pub fn stamp_received(&mut self, nanos: u64) {
        self.received_at_nanos = nanos;
    }

    /// Local arrival timestamp set by [`LazyBatch::stamp_received`]
    /// (0 when never stamped).
    pub fn received_at_nanos(&self) -> u64 {
        self.received_at_nanos
    }

    /// Decode the samples into a [`RawBatch`]. Payload bytes alias the
    /// frame (refcount bumps, no copies); the scan already validated the
    /// structure, so this cannot fail.
    pub fn materialize(&self) -> RawBatch {
        let mut d = Decoder::new(&self.frame[self.samples_at..]);
        let n = d.read_array_len().expect("validated by decode_lazy");
        let mut samples = Vec::with_capacity(n);
        for _ in 0..n {
            let mut id = 0u64;
            let mut label = 0u32;
            let mut data = Bytes::new();
            let fields = d.read_map_len().expect("validated");
            for _ in 0..fields {
                match d.read_str().expect("validated") {
                    "id" => id = d.read_u64().expect("validated"),
                    "label" => label = d.read_u64().expect("validated") as u32,
                    "data" => {
                        data = self.frame.slice_ref(d.read_bin().expect("validated"));
                    }
                    _ => unreachable!("validated by decode_lazy"),
                }
            }
            samples.push(RawSample {
                bytes: data,
                label,
                sample_id: id,
            });
        }
        RawBatch {
            epoch: self.epoch,
            batch_id: self.batch_id,
            samples,
        }
    }
}

/// Scan one wire frame: validate the full structure (schema, types,
/// truncation) while
/// materializing only the envelope. Sample payloads stay in `frame` until
/// [`LazyBatch::materialize`].
///
/// `interner` deduplicates the origin string — across an epoch each worker
/// sends thousands of frames carrying the same origin, which interning
/// collapses to one shared `Arc<str>`.
pub fn decode_lazy(frame: &Bytes, interner: Option<&StrInterner>) -> Result<LazyMsg, WireError> {
    let mut d = Decoder::new(frame);
    let n_fields = d.read_map_len()?;
    let mut epoch: Option<u32> = None;
    let mut batch_id: Option<u64> = None;
    let mut origin: Option<Arc<str>> = None;
    let mut ctrl: Option<&str> = None;
    let mut connections: Option<u32> = None;
    let mut trace: Option<BatchTrace> = None;
    let mut samples: Option<(usize, usize, u64)> = None; // (at, n, payload_bytes)

    for _ in 0..n_fields {
        let key = d.read_str()?;
        match key {
            "epoch" => epoch = Some(read_u32(&mut d, "epoch")?),
            "batch_id" => batch_id = Some(d.read_u64()?),
            "origin" => {
                let s = d.read_str()?;
                origin = Some(match interner {
                    Some(i) => i.intern(s),
                    None => Arc::from(s),
                });
            }
            "trace" => {
                let raw = d.read_bin()?;
                trace = Some(BatchTrace::from_bytes(raw).ok_or_else(|| {
                    WireError::Schema(format!("trace field has {} bytes", raw.len()))
                })?);
            }
            "ctrl" => ctrl = Some(d.read_str()?),
            "connections" => connections = Some(read_u32(&mut d, "connections")?),
            "samples" => {
                let at = d.position();
                let n = d.read_array_len()?;
                let mut payload = 0u64;
                for i in 0..n {
                    payload += scan_sample(&mut d, i)?;
                }
                samples = Some((at, n, payload));
            }
            other => {
                return Err(WireError::Schema(format!("unknown field {other:?}")));
            }
        }
    }
    d.finish()?;

    if let Some(ctrl) = ctrl {
        if ctrl != "end_stream" {
            return Err(WireError::Schema(format!("unknown ctrl {ctrl:?}")));
        }
        return Ok(LazyMsg::EndStream {
            origin: origin.ok_or_else(|| WireError::Schema("ctrl needs origin".into()))?,
            connections: connections
                .filter(|&n| n > 0)
                .ok_or_else(|| WireError::Schema("ctrl needs connections > 0".into()))?,
        });
    }
    let (samples_at, n_samples, payload_bytes) =
        samples.ok_or_else(|| WireError::Schema("missing samples".into()))?;
    Ok(LazyMsg::Batch(LazyBatch {
        frame: frame.clone(),
        epoch: epoch.ok_or_else(|| WireError::Schema("missing epoch".into()))?,
        batch_id: batch_id.ok_or_else(|| WireError::Schema("missing batch_id".into()))?,
        origin: origin.ok_or_else(|| WireError::Schema("missing origin".into()))?,
        n_samples,
        samples_at,
        payload_bytes,
        trace,
        received_at_nanos: 0,
    }))
}

/// Validate one sample map without building anything; returns its payload
/// length.
fn scan_sample(d: &mut Decoder<'_>, idx: usize) -> Result<u64, WireError> {
    let n = d.read_map_len()?;
    if n != 3 {
        return Err(WireError::Schema(format!(
            "sample {idx}: expected 3 fields"
        )));
    }
    let (mut id, mut label, mut payload) = (false, false, None);
    for _ in 0..3 {
        match d.read_str()? {
            "id" => {
                d.read_u64()?;
                id = true;
            }
            "label" => {
                read_u32(d, "label")?;
                label = true;
            }
            "data" => payload = Some(d.read_bin()?.len() as u64),
            other => {
                return Err(WireError::Schema(format!(
                    "sample {idx}: unknown field {other:?}"
                )))
            }
        }
    }
    if !id {
        return Err(WireError::Schema(format!("sample {idx}: no id")));
    }
    if !label {
        return Err(WireError::Schema(format!("sample {idx}: no label")));
    }
    payload.ok_or_else(|| WireError::Schema(format!("sample {idx}: no data")))
}

/// Read a uint the schema holds as `u32` (`epoch`, `label`): a larger value
/// is rejected here, so [`LazyBatch::materialize`]'s casts are exact.
fn read_u32(d: &mut Decoder<'_>, field: &str) -> Result<u32, WireError> {
    let at = d.position();
    let v = d.read_u64()?;
    u32::try_from(v).map_err(|_| WireError::Schema(format!("{field} {v} at byte {at} exceeds u32")))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` samples of `len`-byte payloads, ids from `id0`.
    fn samples(n: u8, id0: u64, len: usize) -> Vec<(u64, u32, Bytes)> {
        (0..n)
            .map(|i| {
                (
                    id0 + i as u64,
                    (i % 3) as u32,
                    Bytes::from(vec![i; len + i as usize]),
                )
            })
            .collect()
    }

    /// The frame as the receiver pulls it off the socket: gathered.
    fn encode(
        epoch: u32,
        batch_id: u64,
        origin: &str,
        trace: Option<BatchTrace>,
        samples: &[(u64, u32, Bytes)],
    ) -> Bytes {
        encode_batch_frame_traced(epoch, batch_id, origin, trace, samples, &BufferPool::new())
            .into_bytes()
    }

    fn batch_of(frame: &Bytes) -> LazyBatch {
        match decode_lazy(frame, None).unwrap() {
            LazyMsg::Batch(lb) => lb,
            other => panic!("expected batch, got {other:?}"),
        }
    }

    fn within(frame: &Bytes, s: &RawSample) -> bool {
        let range = frame.as_ptr() as usize..frame.as_ptr() as usize + frame.len();
        range.contains(&(s.bytes.as_ptr() as usize))
    }

    #[test]
    fn batch_roundtrip_zero_copy() {
        let sent = samples(5, 10, 100);
        let frame = encode(2, 77, "daemon-0/t1", None, &sent);
        let batch = batch_of(&frame).materialize();
        assert_eq!(batch.epoch, 2);
        assert_eq!(batch.batch_id, 77);
        assert_eq!(batch.samples.len(), 5);
        for (s, (id, label, data)) in batch.samples.iter().zip(&sent) {
            assert_eq!((s.sample_id, s.label), (*id, *label));
            assert_eq!(s.bytes, *data);
            // Zero-copy: the sample's buffer lies within the frame.
            assert!(within(&frame, s));
        }
    }

    #[test]
    fn scatter_payload_segments_alias_callers_bytes() {
        // (Byte identity with the contiguous encoding is
        // `proptest_wire.rs::scatter_frame_gathers_to_eager_bytes`.)
        let owned = samples(5, 0, 50);
        let frame =
            encode_batch_frame_traced(9, 123, "daemon-2/t0", None, &owned, &BufferPool::new());
        // Payload segments alias the callers' Bytes — no memcpy happened.
        let segs = frame.segments();
        assert_eq!(segs.len(), 2 * owned.len());
        for (i, (_, _, p)) in owned.iter().enumerate() {
            assert_eq!(segs[2 * i + 1].as_ptr(), p.as_ptr());
        }
    }

    #[test]
    fn lazy_decode_validates_eagerly_materializes_lazily() {
        let sent = samples(4, 0, 200);
        let frame = encode(1, 5, "w", None, &sent);

        let lb = batch_of(&frame);
        assert_eq!((lb.epoch(), lb.batch_id(), lb.len()), (1, 5, 4));
        assert_eq!(&**lb.origin(), "w");
        assert_eq!(lb.payload_bytes(), 200 + 201 + 202 + 203);

        let batch = lb.materialize();
        for (s, (id, label, data)) in batch.samples.iter().zip(&sent) {
            assert_eq!((s.sample_id, s.label, &s.bytes), (*id, *label, data));
            assert!(within(&frame, s));
        }

        // Every truncation is rejected at scan time, before any consumer
        // could materialize.
        for cut in 0..frame.len() {
            let prefix = Bytes::from(frame[..cut].to_vec());
            assert!(decode_lazy(&prefix, None).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn interner_shares_origin_across_frames() {
        let interner = StrInterner::new();
        let origins: Vec<Arc<str>> = (0..3)
            .map(|i| encode(0, i, "daemon-0/t3", None, &[]))
            .map(|f| match decode_lazy(&f, Some(&interner)).unwrap() {
                LazyMsg::Batch(b) => b.origin().clone(),
                _ => panic!(),
            })
            .collect();
        assert!(Arc::ptr_eq(&origins[0], &origins[1]));
        assert!(Arc::ptr_eq(&origins[1], &origins[2]));

        // End-stream origins intern through the same table.
        let es = Bytes::from(encode_end_stream("daemon-0/t3", 1));
        let LazyMsg::EndStream { origin, .. } = decode_lazy(&es, Some(&interner)).unwrap() else {
            panic!()
        };
        assert!(Arc::ptr_eq(&origin, &origins[0]));
    }

    #[test]
    fn traced_frames_roundtrip() {
        let trace = BatchTrace {
            seq: 41,
            sent_at_nanos: 1_700_000_123_456_789_000,
        };
        let owned = samples(3, 0, 64);
        let traced = encode(3, 41, "d0/t2", Some(trace), &owned);

        // The trace survives the lazy decode; materialization is unchanged.
        let mut lb = batch_of(&traced);
        assert_eq!(lb.trace(), Some(trace));
        assert_eq!(lb.received_at_nanos(), 0);
        lb.stamp_received(7);
        assert_eq!(lb.received_at_nanos(), 7);
        let untraced = encode(3, 41, "d0/t2", None, &owned);
        let plain = batch_of(&untraced);
        assert_eq!(
            lb.materialize(),
            plain.materialize(),
            "trace changes no sample bytes"
        );

        // Untraced frames omit the field and report no trace.
        assert!(untraced.len() < traced.len());
        assert!(plain.trace().is_none());
    }

    #[test]
    fn trace_field_with_wrong_length_rejected() {
        let mut buf = Vec::new();
        let mut e = Encoder::new(&mut buf);
        e.write_map_len(5);
        e.write_str("epoch");
        e.write_uint(0);
        e.write_str("batch_id");
        e.write_uint(0);
        e.write_str("origin");
        e.write_str("d");
        e.write_str("trace");
        e.write_bin(&[0u8; 15]);
        e.write_str("samples");
        e.write_array_len(0);
        assert!(matches!(
            decode_lazy(&Bytes::from(buf), None),
            Err(WireError::Schema(_))
        ));
    }

    #[test]
    fn epoch_and_label_above_u32_rejected() {
        // The wire carries both as uint; the batch holds them as u32.
        let frame = |epoch: u64, label: u64| {
            let mut buf = Vec::new();
            let mut e = Encoder::new(&mut buf);
            e.write_map_len(4);
            e.write_str("epoch");
            e.write_uint(epoch);
            e.write_str("batch_id");
            e.write_uint(0);
            e.write_str("origin");
            e.write_str("d");
            e.write_str("samples");
            e.write_array_len(1);
            e.write_map_len(3);
            e.write_str("id");
            e.write_uint(0);
            e.write_str("label");
            e.write_uint(label);
            e.write_str("data");
            e.write_bin(&[1]);
            Bytes::from(buf)
        };
        let max = u32::MAX as u64;
        let batch = batch_of(&frame(max, max)).materialize();
        assert_eq!((batch.epoch, batch.samples[0].label), (u32::MAX, u32::MAX));
        for (epoch, label) in [(max + 1 + 3, 7), (3, max + 1 + 7)] {
            assert!(
                matches!(
                    decode_lazy(&frame(epoch, label), None),
                    Err(WireError::Schema(_))
                ),
                "epoch {epoch}, label {label} must not decode"
            );
        }
    }

    #[test]
    fn end_stream_roundtrip() {
        let frame = Bytes::from(encode_end_stream("daemon-1/t0", 3));
        match decode_lazy(&frame, None).unwrap() {
            LazyMsg::EndStream {
                origin,
                connections,
            } => {
                assert_eq!(&*origin, "daemon-1/t0");
                assert_eq!(connections, 3);
            }
            other => panic!("expected end_stream, got {other:?}"),
        }
    }

    #[test]
    fn empty_batch_allowed() {
        let lb = batch_of(&encode(0, 0, "d", None, &[]));
        assert!(lb.is_empty());
        assert!(lb.materialize().samples.is_empty());
    }

    #[test]
    fn malformed_frames_rejected() {
        assert!(decode_lazy(&Bytes::from_static(b""), None).is_err());
        assert!(
            decode_lazy(&Bytes::from_static(b"\xc0"), None).is_err(),
            "nil is not a map"
        );
        // Map with unknown field.
        let mut buf = Vec::new();
        let mut e = Encoder::new(&mut buf);
        e.write_map_len(1);
        e.write_str("bogus");
        e.write_uint(1);
        assert!(matches!(
            decode_lazy(&Bytes::from(buf), None),
            Err(WireError::Schema(_))
        ));
        // Batch missing samples.
        let mut buf = Vec::new();
        let mut e = Encoder::new(&mut buf);
        e.write_map_len(2);
        e.write_str("epoch");
        e.write_uint(0);
        e.write_str("batch_id");
        e.write_uint(0);
        assert!(decode_lazy(&Bytes::from(buf), None).is_err());
    }

    #[test]
    fn truncated_frames_rejected() {
        let frame = encode(1, 1, "d", None, &[(0, 0, Bytes::from_static(&[1, 2, 3]))]);
        for cut in 0..frame.len() {
            assert!(
                decode_lazy(&Bytes::from(frame[..cut].to_vec()), None).is_err(),
                "cut {cut}"
            );
        }
    }
}

//! Property-based tests for the zero-copy wire path: across arbitrary
//! sample sets the scatter encoder must gather to exactly the bytes of the
//! contiguous reference encoder below (with and without the trace field),
//! the lazy decoder must hand back what was encoded, and pooled buffers
//! must round-trip byte-for-byte against a plain `Vec<u8>` baseline. Beside
//! them, a seeded byte-level fuzz of the lazy decoder over damaged frames.

use bytes::Bytes;
use emlio_core::wire::{self, LazyMsg};
use emlio_core::BufferPool;
use emlio_msgpack::Encoder;
use emlio_obs::BatchTrace;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The wire schema written the obvious way — one contiguous buffer,
/// payloads copied in: the byte-identity oracle for the scatter encoder,
/// with which it shares nothing above the primitive `Encoder` calls.
fn reference_encode(
    epoch: u32,
    batch_id: u64,
    origin: &str,
    trace: Option<BatchTrace>,
    samples: &[(u64, u32, Vec<u8>)],
) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut e = Encoder::new(&mut buf);
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
    for (id, label, data) in samples {
        e.write_map_len(3);
        e.write_str("id");
        e.write_uint(*id);
        e.write_str("label");
        e.write_uint(*label as u64);
        e.write_str("data");
        e.write_bin(data);
    }
    buf
}

fn shared(samples: &[(u64, u32, Vec<u8>)]) -> Vec<(u64, u32, Bytes)> {
    samples
        .iter()
        .map(|(id, label, data)| (*id, *label, Bytes::from(data.clone())))
        .collect()
}

/// Arbitrary batches: a handful of samples with ids/labels/payloads of any
/// shape, including empty payloads and empty batches.
fn samples_strategy() -> impl Strategy<Value = Vec<(u64, u32, Vec<u8>)>> {
    proptest::collection::vec(
        (
            any::<u64>(),
            any::<u32>(),
            proptest::collection::vec(any::<u8>(), 0..512),
        ),
        0..12,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn scatter_frame_gathers_to_eager_bytes(
        epoch in any::<u32>(),
        batch_id in any::<u64>(),
        origin in ".{0,32}",
        trace in (any::<bool>(), any::<u64>(), any::<u64>()),
        samples in samples_strategy(),
    ) {
        let pool = BufferPool::new();
        let (traced, seq, sent_at_nanos) = trace;
        let trace = traced.then_some(BatchTrace { seq, sent_at_nanos });
        let eager = reference_encode(epoch, batch_id, &origin, trace, &samples);
        let frame = wire::encode_batch_frame_traced(
            epoch, batch_id, &origin, trace, &shared(&samples), &pool,
        );
        prop_assert_eq!(frame.len(), eager.len());
        prop_assert_eq!(&frame.into_bytes()[..], &eager[..]);
    }

    #[test]
    fn lazy_decode_round_trips_what_was_encoded(
        epoch in any::<u32>(),
        batch_id in any::<u64>(),
        origin in ".{0,32}",
        samples in samples_strategy(),
    ) {
        let frame = Bytes::from(reference_encode(epoch, batch_id, &origin, None, &samples));
        let lazy = match wire::decode_lazy(&frame, None).expect("lazy decode") {
            LazyMsg::Batch(lb) => lb,
            LazyMsg::EndStream { .. } => panic!("batch scanned as end-of-stream"),
        };
        prop_assert_eq!(lazy.epoch(), epoch);
        prop_assert_eq!(lazy.batch_id(), batch_id);
        prop_assert_eq!(lazy.origin().as_ref(), &origin[..]);
        prop_assert_eq!(lazy.len(), samples.len());
        let batch = lazy.materialize();
        prop_assert_eq!((batch.epoch, batch.batch_id), (epoch, batch_id));
        let got: Vec<(u64, u32, Vec<u8>)> = batch
            .samples
            .iter()
            .map(|s| (s.sample_id, s.label, s.bytes.to_vec()))
            .collect();
        prop_assert_eq!(got, samples);
    }

    #[test]
    fn pooled_buffer_roundtrips_byte_for_byte(
        chunks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..256), 0..8),
    ) {
        // Baseline: the same writes into a plain Vec<u8>.
        let mut baseline = Vec::new();
        for chunk in &chunks {
            baseline.extend_from_slice(chunk);
        }

        // Write through the pool twice so the second pass exercises a
        // recycled buffer, not a fresh allocation.
        let pool = BufferPool::new();
        for pass in 0..2 {
            let mut buf = pool.take(1);
            buf.clear();
            for chunk in &chunks {
                buf.extend_from_slice(chunk);
            }
            let frozen = pool.seal(buf);
            prop_assert_eq!(&frozen[..], &baseline[..], "pass {}", pass);
            drop(frozen); // return the buffer to the pool for pass 2
        }
        let stats = pool.stats();
        prop_assert!(
            baseline.is_empty() || stats.pool_reuse >= 1,
            "second pass should reuse: {stats:?}"
        );
    }
}

#[test]
fn a_recycled_header_buffer_starts_empty() {
    // The large batch's header buffer is recycled into the small batch's
    // size class at its old length: none of those bytes may lead the frame.
    let pool = BufferPool::new();
    let large: Vec<_> = (0..90)
        .map(|i| (i << 40, 70_000, vec![i as u8; 3]))
        .collect();
    let frame = wire::encode_batch_frame_traced(1, 2, "daemon-0/t0", None, &shared(&large), &pool);
    assert_eq!(
        &frame.into_bytes()[..],
        &reference_encode(1, 2, "daemon-0/t0", None, &large)[..]
    );
    let small = [(5, 1, vec![0xab; 4])];
    let frame = wire::encode_batch_frame_traced(3, 4, "d", None, &shared(&small), &pool);
    assert_eq!(
        pool.stats().pool_reuse,
        1,
        "the small frame reused the large header"
    );
    assert_eq!(
        &frame.into_bytes()[..],
        &reference_encode(3, 4, "d", None, &small)[..]
    );
}

/// Scan one damaged frame. `decode_lazy` must not panic, and a batch it
/// accepts must materialize without panicking into `len()` samples whose
/// payloads add up to `payload_bytes()` — the invariant `materialize`'s
/// `expect("validated")` calls rest on. Returns whether a batch was accepted.
fn scan_damaged(buf: &[u8]) -> bool {
    let frame = Bytes::copy_from_slice(buf);
    let Ok(LazyMsg::Batch(lazy)) = wire::decode_lazy(&frame, None) else {
        return false;
    };
    let batch = lazy.materialize();
    assert_eq!(batch.samples.len(), lazy.len());
    let payload: u64 = batch.samples.iter().map(|s| s.bytes.len() as u64).sum();
    assert_eq!(payload, lazy.payload_bytes());
    true
}

#[test]
fn decode_lazy_survives_byte_level_fuzz() {
    let small = vec![
        (0, 0, vec![]),
        (1 << 40, 200, vec![7; 5]),
        (3, 70_000, (0..40).collect()),
    ];
    let trace = BatchTrace {
        seq: 9,
        sent_at_nanos: 1_700_000_000_000_000_000,
    };
    let frames = [
        reference_encode(7, 300, "daemon-0/t1", None, &small),
        reference_encode(7, 300, "daemon-0/t1", Some(trace), &small),
        reference_encode(0, 0, "d", None, &[]),
        reference_encode(1, 2, "d", None, &[(5, 1, vec![0xab; 300])]),
        wire::encode_end_stream("daemon-0/t1", 2),
    ];
    let mut rng = StdRng::seed_from_u64(0x5eed_f022);
    let mut accepted = 0;
    for (f, frame) in frames.iter().enumerate() {
        let run = |what: String, buf: &[u8]| {
            std::panic::catch_unwind(|| scan_damaged(buf))
                .unwrap_or_else(|_| panic!("frame {f}, {what}: {buf:02x?}"))
        };
        for cut in 0..frame.len() {
            assert!(!run(format!("cut at {cut}"), &frame[..cut]));
        }
        for i in 0..frame.len() {
            for v in [0x00, 0xff, frame[i] ^ 0x80] {
                let mut buf = frame.clone();
                buf[i] = v;
                accepted += run(format!("byte {i} = {v:#04x}"), &buf) as usize;
            }
        }
        for n in 0..2_000 {
            let mut buf = frame.clone();
            for _ in 0..rng.gen_range(1..=4) {
                let i = rng.gen_range(0..buf.len());
                buf[i] = rng.gen();
            }
            accepted += run(format!("random buffer {n}"), &buf) as usize;
        }
    }
    // Payload bytes are free to change, so the damaged batches that scan
    // clean are many: the invariant above is checked, not vacuous.
    assert!(accepted > 1_000, "only {accepted} damaged batches scanned");
}

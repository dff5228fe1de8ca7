//! SIF — a simple lossy image codec built from scratch.
//!
//! Encoding: per channel plane, (1) quantize by the quality shift,
//! (2) predictive delta against the left neighbour (row-start predicts from
//! the pixel above), (3) run-length encode the delta stream as
//! `(run, value)` byte pairs. Planes where RLE would expand fall back to a
//! raw mode, so encoded size is bounded by `raw + header`.
//!
//! The point is not compression quality — it is that *decoding costs real,
//! size-proportional CPU time*, standing in for JPEG in the preprocessing
//! pipeline, while staying dependency-free and fully testable.
//!
//! Wire layout (little-endian):
//!
//! ```text
//! magic "SIF1" | width u16 | height u16 | channels u8 | quality u8
//! per plane: mode u8 (0 = RLE, 1 = raw) | len u32 | data[len]
//! ```
//!
//! Trailing bytes after the last plane are ignored, which lets dataset
//! generators pad samples to an exact target size (real datasets' size
//! distributions are matched by padding, not by lying about content).
//!
//! The decoder works on whole slices: each RLE run fills its stretch of
//! one preallocated plane, then the deltas are undone in place row by row.
//! For every input it returns the same `Result` as the per-pixel oracle in
//! this file's tests, which fuzz it: the same `Image`, or the same error
//! variant and plane index. Its one allocation per plane is bounded by
//! the input: an RLE plane whose 255-long runs could not fill
//! `width · height` pixels is `BadPlane` before anything is reserved.

use crate::image::Image;
use std::fmt;

const MAGIC: &[u8; 4] = b"SIF1";

/// Decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SifError {
    /// Missing or wrong magic.
    BadMagic,
    /// Header or plane truncated.
    Truncated,
    /// Plane length field inconsistent with pixel count.
    BadPlane { plane: usize },
    /// Unknown plane mode byte.
    BadMode { plane: usize, mode: u8 },
    /// Zero-sized image or zero channels.
    EmptyImage,
}

impl fmt::Display for SifError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SifError::BadMagic => write!(f, "not a SIF stream"),
            SifError::Truncated => write!(f, "truncated SIF stream"),
            SifError::BadPlane { plane } => write!(f, "plane {plane} is inconsistent"),
            SifError::BadMode { plane, mode } => {
                write!(f, "plane {plane} has unknown mode {mode}")
            }
            SifError::EmptyImage => write!(f, "empty image"),
        }
    }
}

impl std::error::Error for SifError {}

/// Encode with `quality ∈ 0..=4` (quantization shift; 0 = lossless).
pub fn encode(img: &Image, quality: u8) -> Vec<u8> {
    let quality = quality.min(4);
    let mut out = Vec::with_capacity(img.raw_bytes() / 2 + 16);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&img.width.to_le_bytes());
    out.extend_from_slice(&img.height.to_le_bytes());
    out.push(img.channels());
    out.push(quality);
    let width = img.width as usize;
    for plane in &img.planes {
        let deltas = delta_encode(plane, width, quality);
        let rle = rle_encode(&deltas);
        if rle.len() < plane.len() {
            out.push(0); // RLE mode
            out.extend_from_slice(&(rle.len() as u32).to_le_bytes());
            out.extend_from_slice(&rle);
        } else {
            out.push(1); // raw mode (still quantized)
            out.extend_from_slice(&(deltas.len() as u32).to_le_bytes());
            out.extend_from_slice(&deltas);
        }
    }
    out
}

/// Encode and pad with zeros to at least `target_len` bytes (decoder ignores
/// the tail). Returns the padded buffer; if the encoding is already larger
/// than `target_len`, it is returned unpadded.
pub fn encode_padded(img: &Image, quality: u8, target_len: usize) -> Vec<u8> {
    let mut buf = encode(img, quality);
    if buf.len() < target_len {
        buf.resize(target_len, 0);
    }
    buf
}

/// Decode a SIF stream (trailing padding tolerated).
pub fn decode(bytes: &[u8]) -> Result<Image, SifError> {
    if bytes.len() < 10 {
        return Err(SifError::Truncated);
    }
    if &bytes[..4] != MAGIC {
        return Err(SifError::BadMagic);
    }
    let width = u16::from_le_bytes([bytes[4], bytes[5]]);
    let height = u16::from_le_bytes([bytes[6], bytes[7]]);
    let channels = bytes[8];
    let _quality = bytes[9];
    if width == 0 || height == 0 || channels == 0 {
        return Err(SifError::EmptyImage);
    }
    let n = width as usize * height as usize;
    let mut pos = 10usize;
    let mut planes = Vec::with_capacity(channels as usize);
    for plane_idx in 0..channels as usize {
        if pos + 5 > bytes.len() {
            return Err(SifError::Truncated);
        }
        let mode = bytes[pos];
        let len = u32::from_le_bytes(bytes[pos + 1..pos + 5].try_into().unwrap()) as usize;
        pos += 5;
        if pos + len > bytes.len() {
            return Err(SifError::Truncated);
        }
        let data = &bytes[pos..pos + len];
        pos += len;
        let bad_plane = SifError::BadPlane { plane: plane_idx };
        let mut plane = match mode {
            0 => rle_decode(data, n).ok_or(bad_plane)?,
            1 if len == n => data.to_vec(),
            1 => return Err(bad_plane),
            m => {
                return Err(SifError::BadMode {
                    plane: plane_idx,
                    mode: m,
                })
            }
        };
        undo_deltas(&mut plane, width as usize);
        planes.push(plane);
    }
    Ok(Image {
        width,
        height,
        planes,
    })
}

/// Quantize then subtract the predictor (left neighbour; row starts predict
/// from the pixel above; origin predicts from 0). Deltas are wrapping u8.
fn delta_encode(plane: &[u8], width: usize, quality: u8) -> Vec<u8> {
    let mut out = Vec::with_capacity(plane.len());
    for (i, &raw) in plane.iter().enumerate() {
        let q = (raw >> quality) << quality;
        let pred = if i == 0 {
            0
        } else if i % width == 0 {
            (plane[i - width] >> quality) << quality
        } else {
            (plane[i - 1] >> quality) << quality
        };
        out.push(q.wrapping_sub(pred));
    }
    out
}

/// Invert [`delta_encode`] in place, one row slice at a time: a row starts
/// from the first pixel of the row above (the origin from 0) and each
/// pixel adds its delta to its left neighbour.
fn undo_deltas(plane: &mut [u8], width: usize) {
    let mut above = 0u8;
    for row in plane.chunks_exact_mut(width) {
        let mut acc = above;
        for v in row.iter_mut() {
            acc = acc.wrapping_add(*v);
            *v = acc;
        }
        above = row[0];
    }
}

/// `(run, value)` pairs; runs are 1..=255.
fn rle_encode(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 4);
    let mut i = 0;
    while i < data.len() {
        let v = data[i];
        let mut run = 1usize;
        while run < 255 && i + run < data.len() && data[i + run] == v {
            run += 1;
        }
        out.push(run as u8);
        out.push(v);
        i += run;
    }
    out
}

/// Expand `(run, value)` pairs into exactly `expected` bytes, or `None`.
/// A stream whose 255-long runs could not fill `expected` is rejected
/// before anything is allocated, so a header cannot claim more memory
/// than its payload can describe.
fn rle_decode(data: &[u8], expected: usize) -> Option<Vec<u8>> {
    if !data.len().is_multiple_of(2) || 255 * (data.len() / 2) < expected {
        return None;
    }
    let mut out = Vec::with_capacity(expected);
    for pair in data.chunks_exact(2) {
        let (run, v) = (pair[0] as usize, pair[1]);
        if run == 0 || run > expected - out.len() {
            return None;
        }
        out.resize(out.len() + run, v);
    }
    (out.len() == expected).then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::synth_image;
    use rand::{Rng, SeedableRng};

    /// A per-pixel decoder: the oracle every `Result` of [`decode`] is
    /// compared with.
    mod oracle {
        use super::super::{SifError, MAGIC};
        use crate::image::Image;

        pub fn decode(bytes: &[u8]) -> Result<Image, SifError> {
            if bytes.len() < 10 {
                return Err(SifError::Truncated);
            }
            if &bytes[..4] != MAGIC {
                return Err(SifError::BadMagic);
            }
            let width = u16::from_le_bytes([bytes[4], bytes[5]]);
            let height = u16::from_le_bytes([bytes[6], bytes[7]]);
            let channels = bytes[8];
            if width == 0 || height == 0 || channels == 0 {
                return Err(SifError::EmptyImage);
            }
            let n = width as usize * height as usize;
            let mut pos = 10usize;
            let mut planes = Vec::with_capacity(channels as usize);
            for plane_idx in 0..channels as usize {
                if pos + 5 > bytes.len() {
                    return Err(SifError::Truncated);
                }
                let mode = bytes[pos];
                let len = u32::from_le_bytes(bytes[pos + 1..pos + 5].try_into().unwrap()) as usize;
                pos += 5;
                if pos + len > bytes.len() {
                    return Err(SifError::Truncated);
                }
                let data = &bytes[pos..pos + len];
                pos += len;
                let deltas = match mode {
                    0 => rle_decode(data, n).ok_or(SifError::BadPlane { plane: plane_idx })?,
                    1 => {
                        if len != n {
                            return Err(SifError::BadPlane { plane: plane_idx });
                        }
                        data.to_vec()
                    }
                    m => {
                        return Err(SifError::BadMode {
                            plane: plane_idx,
                            mode: m,
                        })
                    }
                };
                planes.push(delta_decode(&deltas, width as usize));
            }
            Ok(Image {
                width,
                height,
                planes,
            })
        }

        fn delta_decode(deltas: &[u8], width: usize) -> Vec<u8> {
            let mut out = Vec::with_capacity(deltas.len());
            for (i, &d) in deltas.iter().enumerate() {
                let pred = if i == 0 {
                    0u8
                } else if i % width == 0 {
                    out[i - width]
                } else {
                    out[i - 1]
                };
                out.push(pred.wrapping_add(d));
            }
            out
        }

        fn rle_decode(data: &[u8], expected: usize) -> Option<Vec<u8>> {
            if !data.len().is_multiple_of(2) {
                return None;
            }
            let mut out = Vec::with_capacity(expected);
            for pair in data.chunks_exact(2) {
                let (run, v) = (pair[0] as usize, pair[1]);
                if run == 0 || out.len() + run > expected {
                    return None;
                }
                out.extend(std::iter::repeat_n(v, run));
            }
            if out.len() != expected {
                return None;
            }
            Some(out)
        }
    }

    /// `decode(buf)` must return exactly the oracle's `Result`, without
    /// panicking. Returns whether the buffer decoded.
    fn same_as_oracle(what: &str, buf: &[u8]) -> bool {
        let got = std::panic::catch_unwind(|| decode(buf))
            .unwrap_or_else(|_| panic!("{what}: decode panicked on {buf:02x?}"));
        assert_eq!(got, oracle::decode(buf), "{what}: {buf:02x?}");
        got.is_ok()
    }

    fn noise_image(w: u16, h: u16, c: u8, seed: u64) -> Image {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut img = Image::zeroed(w, h, c);
        for v in img.planes.iter_mut().flatten() {
            *v = rng.gen();
        }
        img
    }

    #[test]
    fn decode_matches_the_oracle_on_seeded_images() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x051f_d1ff);
        let mut sizes = vec![(1, 1), (1, 7), (7, 1), (300, 200)];
        sizes.extend((0..24).map(|_| (rng.gen_range(1..=300), rng.gen_range(1..=200))));
        for (i, &(w, h)) in sizes.iter().enumerate() {
            for c in [1, 3] {
                let smooth = synth_image(w, h, c, i as u64);
                let noise = noise_image(w, h, c, i as u64);
                for quality in 0..=4 {
                    for img in [&smooth, &noise] {
                        let bytes = encode(img, quality);
                        let what = format!("{w}x{h}x{c} q{quality}");
                        assert!(same_as_oracle(&what, &bytes));
                    }
                }
            }
        }
    }

    #[test]
    fn decode_matches_the_oracle_on_damaged_streams() {
        let rle = encode(&synth_image(24, 16, 3, 11), 2);
        let raw = encode(&noise_image(12, 9, 3, 12), 0);
        assert!(rle[10] == 0 && raw[10] == 1, "one stream per plane mode");
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed_051f);
        let mut decoded = 0;
        for (f, stream) in [rle, raw].iter().enumerate() {
            for cut in 0..stream.len() {
                assert!(!same_as_oracle(
                    &format!("stream {f} cut at {cut}"),
                    &stream[..cut]
                ));
            }
            for i in 0..stream.len() {
                for v in [0x00, 0xff, stream[i] ^ 0x80] {
                    let mut buf = stream.clone();
                    buf[i] = v;
                    let what = format!("stream {f} byte {i} = {v:#04x}");
                    decoded += same_as_oracle(&what, &buf) as usize;
                }
            }
            for n in 0..2_000 {
                let mut buf = stream.clone();
                for _ in 0..rng.gen_range(1..=4) {
                    let i = rng.gen_range(0..buf.len());
                    buf[i] = rng.gen();
                }
                decoded += same_as_oracle(&format!("stream {f} buffer {n}"), &buf) as usize;
            }
        }
        // Damaged deltas still decode, to different pixels: the comparison
        // covers `Ok` images as well as every error variant.
        assert!(decoded > 1_000, "only {decoded} damaged streams decoded");
    }

    #[test]
    fn an_rle_plane_too_short_for_its_header_is_rejected_unallocated() {
        // 17 bytes claiming 65535 × 65535: one (255, 0) pair can fill at
        // most 255 pixels, so the plane is refused before its 4 GiB.
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 1, 0]);
        bytes.extend_from_slice(&[0, 2, 0, 0, 0, 255, 0]);
        assert_eq!(bytes.len(), 17);
        assert_eq!(decode(&bytes), Err(SifError::BadPlane { plane: 0 }));
        // One pixel short of what the pairs can fill is still refused, and
        // exactly full decodes.
        assert_eq!(rle_decode(&[255, 1, 255, 1], 511), None);
        assert_eq!(rle_decode(&[255, 1, 255, 1], 510), Some(vec![1; 510]));
    }

    #[test]
    fn lossless_roundtrip_quality_zero() {
        let img = synth_image(48, 32, 3, 1);
        let bytes = encode(&img, 0);
        let back = decode(&bytes).unwrap();
        assert_eq!(back, img, "quality 0 is lossless");
    }

    #[test]
    fn lossy_roundtrip_bounded_error() {
        let img = synth_image(48, 32, 3, 2);
        for quality in 1..=4u8 {
            let bytes = encode(&img, quality);
            let back = decode(&bytes).unwrap();
            assert_eq!(back.width, img.width);
            let max_err = (1u16 << quality) as i16;
            for c in 0..3 {
                for (a, b) in img.planes[c].iter().zip(&back.planes[c]) {
                    assert!(
                        (*a as i16 - *b as i16).abs() < max_err,
                        "error beyond quantization bound at q={quality}"
                    );
                }
            }
        }
    }

    #[test]
    fn smooth_images_compress() {
        let img = synth_image(128, 128, 3, 3);
        let bytes = encode(&img, 2);
        assert!(
            (bytes.len() as f64) < img.raw_bytes() as f64 * 0.7,
            "smooth synthetic image should compress ≥1.4×: {} vs {}",
            bytes.len(),
            img.raw_bytes()
        );
    }

    #[test]
    fn noise_falls_back_to_raw_mode_and_stays_bounded() {
        let img = noise_image(64, 64, 1, 9);
        let bytes = encode(&img, 0);
        assert!(bytes.len() <= img.raw_bytes() + 15, "bounded expansion");
        assert_eq!(decode(&bytes).unwrap(), img);
    }

    #[test]
    fn padding_is_transparent() {
        let img = synth_image(32, 32, 3, 4);
        let exact = encode(&img, 1);
        let padded = encode_padded(&img, 1, exact.len() + 5000);
        assert_eq!(padded.len(), exact.len() + 5000);
        assert_eq!(decode(&padded).unwrap(), decode(&exact).unwrap());
        // Target below encoded size: unpadded.
        let tight = encode_padded(&img, 1, 10);
        assert_eq!(tight.len(), exact.len());
    }

    #[test]
    fn corrupt_inputs_rejected() {
        let img = synth_image(16, 16, 1, 5);
        let good = encode(&img, 0);
        assert_eq!(decode(b""), Err(SifError::Truncated));
        assert_eq!(decode(b"JPEG????????????"), Err(SifError::BadMagic));
        // Truncations anywhere must error (never panic).
        for cut in 0..good.len() {
            assert!(decode(&good[..cut]).is_err(), "cut {cut}");
        }
        // Corrupt mode byte.
        let mut bad = good.clone();
        bad[10] = 7;
        assert!(matches!(decode(&bad), Err(SifError::BadMode { .. })));
        // Zero dimensions.
        let mut zero = good;
        zero[4] = 0;
        zero[5] = 0;
        assert_eq!(decode(&zero), Err(SifError::EmptyImage));
    }

    #[test]
    fn rle_internals() {
        let data = vec![5u8; 700];
        let enc = rle_encode(&data);
        assert_eq!(enc.len(), 6, "700 = 255+255+190 → 3 pairs");
        assert_eq!(rle_decode(&enc, 700).unwrap(), data);
        assert!(rle_decode(&enc, 699).is_none(), "length mismatch detected");
        assert!(rle_decode(&[1], 1).is_none(), "odd length rejected");
        assert!(rle_decode(&[0, 9], 0).is_none(), "zero run rejected");
    }
}

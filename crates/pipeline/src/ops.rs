//! Preprocessing operators: decode, resize, crop, normalize.
//!
//! Each is a loop over row slices, and each returns exactly what a
//! per-pixel oracle in this file's tests returns: the same `Image`, the
//! same `f32` bits. (`sif.rs` holds the decoder's oracle.)
//!
//! * [`resize`] computes each output column's two source taps and weight
//!   once per call and reads two source-row slices per output row. The
//!   blend is the oracle's `f64` expression, evaluated in the same order,
//!   and it is never negative, so truncating it is `floor` and the
//!   fraction left over is exact: comparing that fraction with 0.5 is
//!   `round` (half away from zero) without the libm call.
//! * [`crop`] copies one row slice per output row.
//! * [`normalize`] evaluates `(v/255 - mean) / std` once for each of the
//!   256 pixel values of a channel and looks the pixels up.

use emlio_datagen::image::Image;
use emlio_datagen::sif;
use rand::Rng;

/// A CHW float tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    /// Channels.
    pub channels: usize,
    /// Height.
    pub height: usize,
    /// Width.
    pub width: usize,
    /// Row-major CHW data, length `channels * height * width`.
    pub data: Vec<f32>,
}

impl Tensor {
    /// Element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Value at (c, y, x).
    pub fn at(&self, c: usize, y: usize, x: usize) -> f32 {
        self.data[(c * self.height + y) * self.width + x]
    }
}

/// Decode a SIF payload (the pipeline's "JPEG decode" stage).
pub fn decode(bytes: &[u8]) -> Result<Image, sif::SifError> {
    sif::decode(bytes)
}

/// Bilinear resize to `(out_w, out_h)`.
pub fn resize(img: &Image, out_w: u16, out_h: u16) -> Image {
    assert!(out_w > 0 && out_h > 0, "resize target must be non-empty");
    let (in_w, in_h) = (img.width as usize, img.height as usize);
    let (sx, sy) = (in_w as f64 / out_w as f64, in_h as f64 / out_h as f64);
    let cols: Vec<_> = (0..out_w as usize).map(|x| tap(x, sx, in_w)).collect();
    let planes = img
        .planes
        .iter()
        .map(|plane| {
            let mut out = Vec::with_capacity(cols.len() * out_h as usize);
            for y in 0..out_h as usize {
                let (y0, y1, wy) = tap(y, sy, in_h);
                let (top, bottom) = (&plane[y0 * in_w..][..in_w], &plane[y1 * in_w..][..in_w]);
                out.extend(cols.iter().map(|&(x0, x1, wx)| {
                    let v = top[x0] as f64 * (1.0 - wx) * (1.0 - wy)
                        + top[x1] as f64 * wx * (1.0 - wy)
                        + bottom[x0] as f64 * (1.0 - wx) * wy
                        + bottom[x1] as f64 * wx * wy;
                    round_blend(v)
                }));
            }
            out
        })
        .collect();
    Image {
        width: out_w,
        height: out_h,
        planes,
    }
}

/// `v.round().clamp(0.0, 255.0) as u8` for a blend `v >= 0`: truncation is
/// `floor` there, and the fraction it leaves is exact.
fn round_blend(v: f64) -> u8 {
    let t = v as u8;
    t.saturating_add((v - t as f64 >= 0.5) as u8)
}

/// The two source taps of output index `i`, `scale` source pixels per
/// output pixel apart, sampled at the pixel centre: `(i0, i1, weight of i1)`.
fn tap(i: usize, scale: f64, len: usize) -> (usize, usize, f64) {
    let f = ((i as f64 + 0.5) * scale - 0.5).max(0.0);
    let i0 = f.floor() as usize;
    (i0, (i0 + 1).min(len - 1), f - i0 as f64)
}

/// Crop a `(w, h)` window at offset `(ox, oy)`.
///
/// # Panics
/// Panics if the window exceeds the image bounds.
pub fn crop(img: &Image, ox: u16, oy: u16, w: u16, h: u16) -> Image {
    assert!(
        ox as u32 + w as u32 <= img.width as u32 && oy as u32 + h as u32 <= img.height as u32,
        "crop window out of bounds"
    );
    let (in_w, x0, cw) = (img.width as usize, ox as usize, w as usize);
    let planes = img
        .planes
        .iter()
        .map(|plane| {
            let mut out = Vec::with_capacity(cw * h as usize);
            for y in oy as usize..(oy + h) as usize {
                out.extend_from_slice(&plane[y * in_w + x0..][..cw]);
            }
            out
        })
        .collect();
    Image {
        width: w,
        height: h,
        planes,
    }
}

/// Random crop using the caller's RNG (training augmentation).
pub fn random_crop<R: Rng>(img: &Image, w: u16, h: u16, rng: &mut R) -> Image {
    assert!(w <= img.width && h <= img.height, "crop larger than image");
    let ox = if img.width > w {
        rng.gen_range(0..=(img.width - w))
    } else {
        0
    };
    let oy = if img.height > h {
        rng.gen_range(0..=(img.height - h))
    } else {
        0
    };
    crop(img, ox, oy, w, h)
}

/// Centre crop (validation path).
pub fn center_crop(img: &Image, w: u16, h: u16) -> Image {
    assert!(w <= img.width && h <= img.height, "crop larger than image");
    crop(img, (img.width - w) / 2, (img.height - h) / 2, w, h)
}

/// Normalize to a CHW float tensor: `(v/255 - mean[c]) / std[c]`.
pub fn normalize(img: &Image, mean: &[f32], std: &[f32]) -> Tensor {
    let c = img.channels() as usize;
    assert_eq!(mean.len(), c, "mean length must match channels");
    assert_eq!(std.len(), c, "std length must match channels");
    assert!(std.iter().all(|&s| s > 0.0), "std must be positive");
    let (w, h) = (img.width as usize, img.height as usize);
    let mut data = Vec::with_capacity(c * w * h);
    for ((plane, &m), &s) in img.planes.iter().zip(mean).zip(std) {
        // A pixel takes 256 values: evaluate the expression once for each.
        let table: [f32; 256] = std::array::from_fn(|v| (v as f32 / 255.0 - m) / s);
        data.extend(plane.iter().map(|&v| table[v as usize]));
    }
    Tensor {
        channels: c,
        height: h,
        width: w,
        data,
    }
}

/// The ImageNet normalization constants used throughout the examples.
pub const IMAGENET_MEAN: [f32; 3] = [0.485, 0.456, 0.406];
/// ImageNet per-channel standard deviations.
pub const IMAGENET_STD: [f32; 3] = [0.229, 0.224, 0.225];

#[cfg(test)]
mod tests {
    use super::*;
    use emlio_datagen::image::synth_image;
    use rand::{Rng, SeedableRng};

    /// Per-pixel operators: the oracles [`resize`], [`crop`] and
    /// [`normalize`] are compared with.
    mod oracle {
        use super::super::Tensor;
        use emlio_datagen::image::Image;

        pub fn resize(img: &Image, out_w: u16, out_h: u16) -> Image {
            let mut out = Image::zeroed(out_w, out_h, img.channels());
            let sx = img.width as f64 / out_w as f64;
            let sy = img.height as f64 / out_h as f64;
            for c in 0..img.channels() as usize {
                for y in 0..out_h as usize {
                    let fy = ((y as f64 + 0.5) * sy - 0.5).max(0.0);
                    let y0 = fy.floor() as usize;
                    let y1 = (y0 + 1).min(img.height as usize - 1);
                    let wy = fy - y0 as f64;
                    for x in 0..out_w as usize {
                        let fx = ((x as f64 + 0.5) * sx - 0.5).max(0.0);
                        let x0 = fx.floor() as usize;
                        let x1 = (x0 + 1).min(img.width as usize - 1);
                        let wx = fx - x0 as f64;
                        let v00 = img.get(c, x0, y0) as f64;
                        let v01 = img.get(c, x1, y0) as f64;
                        let v10 = img.get(c, x0, y1) as f64;
                        let v11 = img.get(c, x1, y1) as f64;
                        let v = v00 * (1.0 - wx) * (1.0 - wy)
                            + v01 * wx * (1.0 - wy)
                            + v10 * (1.0 - wx) * wy
                            + v11 * wx * wy;
                        out.set(c, x, y, v.round().clamp(0.0, 255.0) as u8);
                    }
                }
            }
            out
        }

        pub fn crop(img: &Image, ox: u16, oy: u16, w: u16, h: u16) -> Image {
            assert!(ox + w <= img.width && oy + h <= img.height);
            let mut out = Image::zeroed(w, h, img.channels());
            for c in 0..img.channels() as usize {
                for y in 0..h as usize {
                    for x in 0..w as usize {
                        out.set(c, x, y, img.get(c, x + ox as usize, y + oy as usize));
                    }
                }
            }
            out
        }

        pub fn normalize(img: &Image, mean: &[f32], std: &[f32]) -> Tensor {
            let (w, h) = (img.width as usize, img.height as usize);
            let mut data = Vec::new();
            for (ci, plane) in img.planes.iter().enumerate() {
                for &v in plane {
                    data.push((v as f32 / 255.0 - mean[ci]) / std[ci]);
                }
            }
            Tensor {
                channels: img.channels() as usize,
                height: h,
                width: w,
                data,
            }
        }
    }

    fn bits(t: &Tensor) -> (usize, usize, usize, Vec<u32>) {
        let data = t.data.iter().map(|f| f.to_bits()).collect();
        (t.channels, t.height, t.width, data)
    }

    /// Decoded images of seeded sizes, channels and qualities through
    /// up, down and identity resizes, random crops and three sets of
    /// normalization constants: every image and every `f32` bit equals
    /// the oracle's.
    #[test]
    fn ops_match_the_oracles_on_seeded_images() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x00b5_d1ff);
        let mut sizes = vec![(1, 1), (1, 7), (7, 1), (300, 200)];
        sizes.extend((0..12).map(|_| (rng.gen_range(1..=300), rng.gen_range(1..=200))));
        for (i, &(w, h)) in sizes.iter().enumerate() {
            for c in [1u8, 3] {
                let source = synth_image(w, h, c, i as u64);
                let mean: Vec<f32> = (0..c).map(|_| rng.gen_range(0.0..1.0)).collect();
                let std: Vec<f32> = (0..c).map(|_| rng.gen_range(0.05..2.0)).collect();
                for quality in 0..=4 {
                    let img = decode(&sif::encode(&source, quality)).unwrap();
                    let targets = [
                        (w, h),
                        ((w / 3).max(1), (h / 2).max(1)),
                        (w * 2 - 1, h + 13),
                        (rng.gen_range(1..=320), rng.gen_range(1..=240)),
                    ];
                    for (rw, rh) in targets {
                        let what = format!("{w}x{h}x{c} q{quality} -> {rw}x{rh}");
                        let resized = resize(&img, rw, rh);
                        assert_eq!(resized, oracle::resize(&img, rw, rh), "{what}");
                        let (cw, ch) = (rng.gen_range(0..=rw), rng.gen_range(0..=rh));
                        let (ox, oy) = (rng.gen_range(0..=rw - cw), rng.gen_range(0..=rh - ch));
                        let cropped = crop(&resized, ox, oy, cw, ch);
                        assert_eq!(cropped, oracle::crop(&resized, ox, oy, cw, ch), "{what}");
                        let unit = (vec![0.0; c as usize], vec![1.0; c as usize]);
                        for (m, s) in [(&mean, &std), (&unit.0, &unit.1)] {
                            assert_eq!(
                                bits(&normalize(&cropped, m, s)),
                                bits(&oracle::normalize(&cropped, m, s)),
                                "{what}"
                            );
                        }
                    }
                }
            }
        }
        let img = synth_image(224, 224, 3, 99);
        assert_eq!(
            bits(&normalize(&img, &IMAGENET_MEAN, &IMAGENET_STD)),
            bits(&oracle::normalize(&img, &IMAGENET_MEAN, &IMAGENET_STD))
        );
    }

    #[test]
    fn blends_round_like_round_then_clamp() {
        let below_half = 0.5f64.next_down();
        let mut values = vec![0.0, below_half, 0.5, 255.0, 255.5, 256.0, 300.0];
        for k in 0..=255 {
            let k = k as f64;
            values.extend([k, k + below_half, k + 0.5, (k + 0.5).next_down()]);
        }
        for v in values {
            assert_eq!(round_blend(v), v.round().clamp(0.0, 255.0) as u8, "{v:?}");
        }
    }

    #[test]
    fn halfway_blends_round_away_from_zero() {
        // Pairs (v, v + 1) halved: every blend is exactly v + 0.5.
        let mut img = Image::zeroed(510, 1, 1);
        for v in 0..255u8 {
            img.planes[0][2 * v as usize] = v;
            img.planes[0][2 * v as usize + 1] = v + 1;
        }
        let out = resize(&img, 255, 1);
        assert_eq!(out, oracle::resize(&img, 255, 1));
        assert!(out.planes[0]
            .iter()
            .enumerate()
            .all(|(v, &o)| o as usize == v + 1));
    }

    #[test]
    fn decode_real_payload() {
        let img = synth_image(32, 24, 3, 1);
        let bytes = sif::encode(&img, 0);
        let back = decode(&bytes).unwrap();
        assert_eq!(back, img);
        assert!(decode(b"garbage").is_err());
    }

    #[test]
    fn resize_dimensions_and_identity() {
        let img = synth_image(64, 48, 3, 2);
        let out = resize(&img, 32, 16);
        assert_eq!((out.width, out.height, out.channels()), (32, 16, 3));
        // Identity resize returns (approximately) the same pixels.
        let same = resize(&img, 64, 48);
        let max_diff = img.planes[0]
            .iter()
            .zip(&same.planes[0])
            .map(|(a, b)| (*a as i16 - *b as i16).abs())
            .max()
            .unwrap();
        assert!(max_diff <= 1, "identity resize should be lossless-ish");
    }

    #[test]
    fn resize_preserves_constant_images() {
        let mut img = Image::zeroed(40, 40, 1);
        for v in &mut img.planes[0] {
            *v = 177;
        }
        let out = resize(&img, 13, 27);
        assert!(out.planes[0].iter().all(|&v| v == 177));
    }

    #[test]
    fn crop_window_contents() {
        let img = synth_image(32, 32, 1, 3);
        let out = crop(&img, 5, 7, 10, 12);
        assert_eq!((out.width, out.height), (10, 12));
        assert_eq!(out.get(0, 0, 0), img.get(0, 5, 7));
        assert_eq!(out.get(0, 9, 11), img.get(0, 14, 18));
    }

    #[test]
    #[should_panic]
    fn crop_out_of_bounds_panics() {
        let img = synth_image(16, 16, 1, 4);
        let _ = crop(&img, 10, 10, 10, 10);
    }

    #[test]
    #[should_panic(expected = "crop window out of bounds")]
    fn a_window_past_u16_max_is_out_of_bounds_not_wrapped() {
        let img = synth_image(16, 4096, 1, 4);
        let _ = crop(&img, u16::MAX, 0, 2, 1);
    }

    #[test]
    fn random_crop_within_bounds() {
        let img = synth_image(33, 47, 3, 5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let out = random_crop(&img, 16, 16, &mut rng);
            assert_eq!((out.width, out.height), (16, 16));
        }
        // Full-size crop is the identity.
        let full = random_crop(&img, 33, 47, &mut rng);
        assert_eq!(full, img);
    }

    #[test]
    fn center_crop_is_centered() {
        let img = synth_image(30, 30, 1, 6);
        let out = center_crop(&img, 10, 10);
        assert_eq!(out.get(0, 0, 0), img.get(0, 10, 10));
    }

    #[test]
    fn normalize_values() {
        let mut img = Image::zeroed(2, 2, 3);
        for c in 0..3 {
            for v in &mut img.planes[c] {
                *v = 255;
            }
        }
        let t = normalize(&img, &IMAGENET_MEAN, &IMAGENET_STD);
        assert_eq!(t.len(), 12);
        // (1.0 - 0.485) / 0.229 for channel 0.
        assert!((t.at(0, 0, 0) - (1.0 - 0.485) / 0.229).abs() < 1e-5);
        assert!((t.at(2, 1, 1) - (1.0 - 0.406) / 0.225).abs() < 1e-5);
    }

    #[test]
    #[should_panic]
    fn normalize_rejects_bad_std() {
        let img = Image::zeroed(2, 2, 1);
        let _ = normalize(&img, &[0.5], &[0.0]);
    }
}

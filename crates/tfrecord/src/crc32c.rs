//! CRC32C (Castagnoli) with TFRecord's masking.
//!
//! TFRecord frames carry `masked_crc32c(length_bytes)` and
//! `masked_crc32c(payload)`. The mask rotates the CRC and adds a constant so
//! that CRCs stored alongside the data they cover don't collide with CRCs of
//! CRC-containing data (the classic LevelDB/TensorFlow trick).
//!
//! [`crc32c`] picks its kernel at run time. On x86-64 with SSE4.2 it is the
//! CPU's `crc32` instruction, three interleaved chains of eight bytes a
//! step; everywhere else — and as the oracle the hardware path is tested
//! against — it is slicing-by-4 over precomputed tables
//! ([`crc32c_table`]). The choice matters beyond record framing because
//! the cache checks every spill file it reads back with this function.
//! Over one 3 MiB cache block on a 2-core x86-64 box (a one-off
//! measurement: the perf ledger has no isolation row for the kernels yet):
//!
//! | kernel | per block | rate |
//! |---|---|---|
//! | slicing-by-4 tables | 2.84–3.45 ms | 0.95–1.1 GB/s |
//! | `crc32`, one chain | 0.42 ms | 7.5 GB/s |
//! | `crc32`, three chains | 0.145 ms | 21.8 GB/s |
//!
//! against 0.45 ms for the `fs::read` of the same block: with the tables a
//! disk-tier hit cost as much as eight storage reads, and one chain still
//! left the check at two fifths of a promote, which is why there are three.
//! aarch64 (`__crc32cd`) is not wired up: the build image has no aarch64
//! target to check it against, so it stays on the table path.

/// Castagnoli polynomial, reflected form.
const POLY: u32 = 0x82F63B78;

/// TFRecord mask delta.
const MASK_DELTA: u32 = 0xa282ead8;

/// 4 × 256-entry lookup tables for slicing-by-4.
static TABLES: [[u32; 256]; 4] = build_tables();

const fn build_tables() -> [[u32; 256]; 4] {
    let mut tables = [[0u32; 256]; 4];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            j += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 4 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

/// Raw (unmasked) CRC32C of `data`.
pub fn crc32c(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: `crc32c_sse42` is compiled with `sse4.2` enabled and
        // nothing else beyond the baseline, and the
        // `is_x86_feature_detected!("sse4.2")` check right above proves
        // the running CPU executes those instructions.
        return unsafe { sse42::crc32c_sse42(data) };
    }
    crc32c_table(data)
}

/// The hardware kernel and the tables that join its lanes.
#[cfg(target_arch = "x86_64")]
mod sse42 {
    use super::POLY;

    /// Bytes per lane of the interleaved loop in [`crc32c_sse42`]. A power
    /// of two ([`zeros_operator`] squares its way there); at 1 KiB the two
    /// table shifts that join three lanes cost a twentieth of the 384
    /// `crc32` steps they join, and anything from 3 KiB up takes the fast
    /// loop.
    const LANE: usize = 1024;

    /// `SHIFT_LANE[k][b]`: the CRC register holding byte `b` at position
    /// `k`, advanced over [`LANE`] zero bytes. XORing the four lookups for
    /// a register's four bytes advances the whole register
    /// ([`shift_lane`]) — which is how the CRC of a lane is carried across
    /// the lanes after it.
    static SHIFT_LANE: [[u32; 256]; 4] = build_shift_table(LANE);

    /// Multiply the GF(2) matrix `mat` (one column per input bit) by `vec`.
    const fn gf2_times(mat: &[u32; 32], mut vec: u32) -> u32 {
        let mut sum = 0;
        let mut i = 0;
        while vec != 0 {
            if vec & 1 != 0 {
                sum ^= mat[i];
            }
            vec >>= 1;
            i += 1;
        }
        sum
    }

    /// The GF(2) matrix that advances a (reflected) CRC32C register over
    /// `len` zero bytes, `len` a power of two: the one-zero-bit operator
    /// squared log2(8·len) times.
    const fn zeros_operator(len: usize) -> [u32; 32] {
        assert!(len.is_power_of_two());
        // One zero bit: shift right, and fold the polynomial in when a set
        // bit falls off the low end.
        let mut op = [0u32; 32];
        op[0] = POLY;
        let mut n = 1;
        while n < 32 {
            op[n] = 1 << (n - 1);
            n += 1;
        }
        let mut bits = 1;
        while bits < 8 * len {
            let mut squared = [0u32; 32];
            let mut n = 0;
            while n < 32 {
                squared[n] = gf2_times(&op, op[n]);
                n += 1;
            }
            op = squared;
            bits *= 2;
        }
        op
    }

    const fn build_shift_table(len: usize) -> [[u32; 256]; 4] {
        let op = zeros_operator(len);
        let mut table = [[0u32; 256]; 4];
        let mut k = 0;
        while k < 4 {
            let mut b = 0;
            while b < 256 {
                table[k][b] = gf2_times(&op, (b as u32) << (8 * k));
                b += 1;
            }
            k += 1;
        }
        table
    }

    /// Advance the CRC register `crc` over [`LANE`] zero bytes.
    fn shift_lane(crc: u32) -> u32 {
        SHIFT_LANE[0][(crc & 0xff) as usize]
            ^ SHIFT_LANE[1][((crc >> 8) & 0xff) as usize]
            ^ SHIFT_LANE[2][((crc >> 16) & 0xff) as usize]
            ^ SHIFT_LANE[3][(crc >> 24) as usize]
    }

    /// [`crc32c`](super::crc32c) on the CPU's `crc32` instruction. The
    /// instruction takes eight bytes a step but three cycles to answer, so
    /// one dependent chain runs at a third of what the unit can issue:
    /// while there are three [`LANE`]s left, three independent chains run
    /// side by side over adjacent lanes and are then joined — CRC is
    /// linear, so the register of an earlier lane, advanced over the zero
    /// bytes standing in for the lanes after it, XORs into theirs. The
    /// rest goes eight bytes, then one byte, at a time.
    #[target_feature(enable = "sse4.2")]
    pub(super) fn crc32c_sse42(data: &[u8]) -> u32 {
        use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
        let word = |chunk: &[u8]| u64::from_le_bytes(chunk.try_into().expect("an 8-byte chunk"));
        // The instruction zero-extends its 32-bit result into the 64-bit
        // destination, so narrowing a register back to `u32` is lossless.
        let mut crc = !0u32;
        let mut triples = data.chunks_exact(3 * LANE);
        for triple in &mut triples {
            let (a, rest) = triple.split_at(LANE);
            let (b, c) = rest.split_at(LANE);
            let (mut ra, mut rb, mut rc) = (u64::from(crc), 0, 0);
            for ((wa, wb), wc) in a
                .chunks_exact(8)
                .zip(b.chunks_exact(8))
                .zip(c.chunks_exact(8))
            {
                ra = _mm_crc32_u64(ra, word(wa));
                rb = _mm_crc32_u64(rb, word(wb));
                rc = _mm_crc32_u64(rc, word(wc));
            }
            crc = shift_lane(shift_lane(ra as u32) ^ rb as u32) ^ rc as u32;
        }
        let mut words = triples.remainder().chunks_exact(8);
        let mut reg = u64::from(crc);
        for chunk in &mut words {
            reg = _mm_crc32_u64(reg, word(chunk));
        }
        let mut crc = reg as u32;
        for &b in words.remainder() {
            crc = _mm_crc32_u8(crc, b);
        }
        !crc
    }
}

/// [`crc32c`] by slicing-by-4 table lookups: the portable path, and the
/// oracle the tests hold the dispatched kernel to.
pub fn crc32c_table(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut chunks = data.chunks_exact(4);
    for chunk in &mut chunks {
        let word = u32::from_le_bytes(chunk.try_into().expect("chunks_exact(4)")) ^ crc;
        crc = TABLES[3][(word & 0xff) as usize]
            ^ TABLES[2][((word >> 8) & 0xff) as usize]
            ^ TABLES[1][((word >> 16) & 0xff) as usize]
            ^ TABLES[0][((word >> 24) & 0xff) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

/// TFRecord-style masked CRC32C.
pub fn masked_crc32c(data: &[u8]) -> u32 {
    mask(crc32c(data))
}

/// Apply the TFRecord mask to a raw CRC.
pub fn mask(crc: u32) -> u32 {
    crc.rotate_right(15).wrapping_add(MASK_DELTA)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both kernels: the dispatched one and the table oracle.
    const KERNELS: [fn(&[u8]) -> u32; 2] = [crc32c, crc32c_table];

    #[test]
    fn known_vectors() {
        // Standard CRC32C test vectors.
        for crc in KERNELS {
            assert_eq!(crc(b""), 0);
            assert_eq!(crc(b"a"), 0xC1D04330);
            assert_eq!(crc(b"abc"), 0x364B3FB7);
            assert_eq!(crc(b"123456789"), 0xE3069283);
            assert_eq!(
                crc(b"The quick brown fox jumps over the lazy dog"),
                0x22620404
            );
        }
    }

    #[test]
    fn all_zero_buffer_vector() {
        // 32 bytes of zero — vector from the RFC 3720 appendix.
        for crc in KERNELS {
            assert_eq!(crc(&[0u8; 32]), 0x8A9136AA);
        }
    }

    #[test]
    fn rfc3720_vectors() {
        // The rest of RFC 3720 appendix B.4: 32 bytes of ones, ascending,
        // descending.
        let ascending: Vec<u8> = (0..32).collect();
        let descending: Vec<u8> = (0..32).rev().collect();
        for crc in KERNELS {
            assert_eq!(crc(&[0xFFu8; 32]), 0x62A8AB43);
            assert_eq!(crc(&ascending), 0x46DD794E);
            assert_eq!(crc(&descending), 0x113FDB5C);
        }
    }

    #[test]
    fn mask_roundtrip() {
        for &c in &[0u32, 1, 0xdeadbeef, u32::MAX, 0x12345678] {
            // Undoing the add, then the rotate, gives the CRC back.
            assert_eq!(mask(c).wrapping_sub(MASK_DELTA).rotate_left(15), c);
        }
    }

    #[test]
    fn mask_changes_value() {
        let c = crc32c(b"payload");
        assert_ne!(mask(c), c);
    }

    #[test]
    fn incremental_equivalence_over_chunk_boundaries() {
        // Every prefix length around the 4- and 8-byte strides, at every
        // alignment: body loop and bytewise tail of both kernels.
        let data: Vec<u8> = (0..7010u32).map(|i| (i * 7 + 3 + i / 251) as u8).collect();
        for offset in 0..8 {
            // … and around one and two rounds of the hardware kernel's
            // three 1 KiB lanes.
            for len in (0..40).chain([511, 1023, 1025, 3071, 3072, 3073, 6143, 6144, 6152, 7000]) {
                let slice = &data[offset..offset + len];
                assert_eq!(
                    crc32c(slice),
                    crc32c_table(slice),
                    "offset {offset} len {len}"
                );
            }
        }
    }
}

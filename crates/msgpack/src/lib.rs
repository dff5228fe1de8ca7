//! `emlio-msgpack` — the MessagePack subset the batch wire schema uses.
//!
//! The EMLIO daemon serializes each pre-assembled batch of `B` training
//! examples into a single msgpack payload before streaming it over the
//! network (§4.1: *"msgpack is a compact, binary serialization format that is
//! both fast and space-efficient"*). The schema (`emlio_core::wire`) is
//! built from five families, and this crate reads and writes exactly those:
//!
//! * uint (positive fixint, uint 8/16/32/64), str, bin, array and map, every
//!   width of each, always written in the smallest encoding;
//! * an allocation-free [`Encoder`] that appends to any `Vec<u8>`;
//! * a zero-copy [`Decoder`] (`read_str` / `read_bin` return borrowed slices);
//! * strict error reporting — truncated input, any marker outside the family
//!   read, invalid UTF-8 and trailing bytes are all detected, never ignored;
//! * a bounded [`StrInterner`] so the same shard ids and field keys decode
//!   to one shared `Arc<str>` instead of a fresh `String` per message.
//!
//! The serialization cost of this codec is *real work on the hot path*: it is
//! what the Fig. 7/8 daemon-concurrency experiments measure.

pub mod decode;
pub mod encode;
pub mod interner;

pub use decode::{DecodeError, Decoder};
pub use encode::Encoder;
pub use interner::StrInterner;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_length_bin_and_str_roundtrip_without_payload_bytes() {
        // Regression: empty bin/str must encode to marker + length only and
        // decode back to empty borrows (no payload, nothing to allocate).
        let mut buf = Vec::new();
        {
            let mut e = Encoder::new(&mut buf);
            e.write_bin(&[]);
            e.write_str("");
        }
        assert_eq!(buf, [0xc4, 0x00, 0xa0], "bin8 len 0, fixstr len 0");
        let mut d = Decoder::new(&buf);
        assert_eq!(d.read_bin().unwrap(), &[] as &[u8]);
        assert_eq!(d.read_str().unwrap(), "");
        d.finish().unwrap();
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = Vec::new();
        Encoder::new(&mut bytes).write_uint(1);
        bytes.push(0xc0);
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.read_u64(), Ok(1));
        assert_eq!(
            d.finish(),
            Err(DecodeError::TrailingBytes {
                at: 1,
                remaining: 1
            })
        );
    }
}

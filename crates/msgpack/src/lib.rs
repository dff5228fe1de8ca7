//! `emlio-msgpack` — a spec-complete MessagePack codec.
//!
//! The EMLIO daemon serializes each pre-assembled batch of `B` training
//! examples into a single msgpack payload before streaming it over the
//! network (§4.1: *"msgpack is a compact, binary serialization format that is
//! both fast and space-efficient"*). This crate implements the MessagePack
//! wire format from scratch:
//!
//! * every family: nil, bool, all fix/8/16/32/64 integer widths, f32/f64,
//!   str, bin, array, map, ext, and the `-1` timestamp extension;
//! * an allocation-free [`Encoder`] that appends to any `Vec<u8>`;
//! * a [`Decoder`] with a zero-copy read path (`read_str` / `read_bin` return
//!   borrowed slices) plus an owned [`Value`] tree reader with a recursion
//!   depth guard;
//! * strict error reporting — truncated input, wrong types, invalid UTF-8 and
//!   trailing bytes are all detected, never ignored;
//! * a bounded [`StrInterner`] so the same shard ids and field keys decode
//!   to one shared `Arc<str>` instead of a fresh `String` per message.
//!
//! The serialization cost of this codec is *real work on the hot path*: it is
//! what the Fig. 7/8 daemon-concurrency experiments measure.

pub mod decode;
pub mod encode;
pub mod interner;
pub mod value;

pub use decode::{DecodeError, Decoder};
pub use encode::Encoder;
pub use interner::StrInterner;
pub use value::Value;

/// Encode a [`Value`] tree to a fresh buffer.
pub fn to_vec(value: &Value) -> Vec<u8> {
    let mut buf = Vec::new();
    Encoder::new(&mut buf).write_value(value);
    buf
}

/// Decode a single [`Value`] from a buffer, requiring the buffer to be fully
/// consumed.
pub fn from_slice(bytes: &[u8]) -> Result<Value, DecodeError> {
    let mut d = Decoder::new(bytes);
    let v = d.read_value()?;
    d.finish()?;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_smoke() {
        let v = Value::Arr(vec![
            Value::from(1u64),
            Value::from(-1i64),
            Value::Str("hello".into()),
            Value::Nil,
        ]);
        let bytes = to_vec(&v);
        assert_eq!(from_slice(&bytes).unwrap(), v);
    }

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

        let v = Value::Arr(vec![Value::Bin(vec![]), Value::Str(String::new())]);
        assert_eq!(from_slice(&to_vec(&v)).unwrap(), v);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_vec(&Value::Bool(true));
        bytes.push(0xc0);
        assert!(matches!(
            from_slice(&bytes),
            Err(DecodeError::TrailingBytes { .. })
        ));
    }
}

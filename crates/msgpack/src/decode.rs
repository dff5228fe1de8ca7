//! MessagePack decoder.
//!
//! Two layers:
//!
//! * typed reads (`read_u64`, `read_str`, `read_bin`, `read_array_len`, …)
//!   that borrow from the input — this is the receiver's zero-copy hot path;
//! * [`Decoder::read_value`] which builds an owned [`Value`] tree with a
//!   recursion-depth guard (hostile input cannot blow the stack).

use crate::encode::{self, TIMESTAMP_EXT_TYPE};
use crate::value::Value;
use std::fmt;

/// Maximum container nesting depth accepted by `read_value`.
pub const MAX_DEPTH: usize = 128;

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before the value was complete.
    UnexpectedEof { at: usize, needed: usize },
    /// The marker byte does not start the expected type family.
    TypeMismatch {
        at: usize,
        expected: &'static str,
        marker: u8,
    },
    /// 0xc1 or another byte that is not a valid marker.
    InvalidMarker { at: usize, marker: u8 },
    /// A str payload is not valid UTF-8.
    InvalidUtf8 { at: usize },
    /// Containers nested deeper than [`MAX_DEPTH`].
    DepthExceeded { at: usize },
    /// `finish` found unread bytes.
    TrailingBytes { at: usize, remaining: usize },
    /// A timestamp extension payload had an invalid length or nanos field.
    InvalidTimestamp { at: usize },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof { at, needed } => {
                write!(f, "unexpected EOF at byte {at} (needed {needed} more)")
            }
            DecodeError::TypeMismatch {
                at,
                expected,
                marker,
            } => {
                write!(
                    f,
                    "type mismatch at byte {at}: expected {expected}, marker 0x{marker:02x}"
                )
            }
            DecodeError::InvalidMarker { at, marker } => {
                write!(f, "invalid marker 0x{marker:02x} at byte {at}")
            }
            DecodeError::InvalidUtf8 { at } => write!(f, "invalid UTF-8 in str at byte {at}"),
            DecodeError::DepthExceeded { at } => {
                write!(f, "nesting deeper than {MAX_DEPTH} at byte {at}")
            }
            DecodeError::TrailingBytes { at, remaining } => {
                write!(f, "{remaining} trailing bytes at offset {at}")
            }
            DecodeError::InvalidTimestamp { at } => {
                write!(f, "invalid timestamp extension at byte {at}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Cursor-based decoder over a byte slice.
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Decoder over `buf`, starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Assert the input is fully consumed.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes {
                at: self.pos,
                remaining: self.buf.len() - self.pos,
            })
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEof {
                at: self.pos,
                needed: n - self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn byte(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn peek(&self) -> Result<u8, DecodeError> {
        self.buf
            .get(self.pos)
            .copied()
            .ok_or(DecodeError::UnexpectedEof {
                at: self.pos,
                needed: 1,
            })
    }

    fn be_u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn be_u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn be_u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    // ----- typed reads ----------------------------------------------------

    /// Read a boolean.
    pub fn read_bool(&mut self) -> Result<bool, DecodeError> {
        let at = self.pos;
        match self.byte()? {
            encode::TRUE => Ok(true),
            encode::FALSE => Ok(false),
            m => Err(DecodeError::TypeMismatch {
                at,
                expected: "bool",
                marker: m,
            }),
        }
    }

    /// Read any integer family as u64 (errors on negative values).
    pub fn read_u64(&mut self) -> Result<u64, DecodeError> {
        let at = self.pos;
        match self.read_i128()? {
            v if v >= 0 && v <= u64::MAX as i128 => Ok(v as u64),
            _ => Err(DecodeError::TypeMismatch {
                at,
                expected: "uint",
                marker: self.buf[at],
            }),
        }
    }

    fn read_i128(&mut self) -> Result<i128, DecodeError> {
        let at = self.pos;
        let m = self.byte()?;
        Ok(match m {
            0x00..=0x7f => m as i128,
            0xe0..=0xff => (m as i8) as i128,
            encode::U8 => self.byte()? as i128,
            encode::U16 => self.be_u16()? as i128,
            encode::U32 => self.be_u32()? as i128,
            encode::U64 => self.be_u64()? as i128,
            encode::I8 => (self.byte()? as i8) as i128,
            encode::I16 => (self.be_u16()? as i16) as i128,
            encode::I32 => (self.be_u32()? as i32) as i128,
            encode::I64 => (self.be_u64()? as i64) as i128,
            _ => {
                return Err(DecodeError::TypeMismatch {
                    at,
                    expected: "integer",
                    marker: m,
                })
            }
        })
    }

    /// Read a str, borrowing the payload from the input buffer.
    pub fn read_str(&mut self) -> Result<&'a str, DecodeError> {
        let at = self.pos;
        let m = self.byte()?;
        let len = match m {
            0xa0..=0xbf => (m & 0x1f) as usize,
            encode::STR8 => self.byte()? as usize,
            encode::STR16 => self.be_u16()? as usize,
            encode::STR32 => self.be_u32()? as usize,
            _ => {
                return Err(DecodeError::TypeMismatch {
                    at,
                    expected: "str",
                    marker: m,
                })
            }
        };
        let payload_at = self.pos;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| DecodeError::InvalidUtf8 { at: payload_at })
    }

    /// Read a bin, borrowing the payload — zero-copy on the receive path.
    pub fn read_bin(&mut self) -> Result<&'a [u8], DecodeError> {
        let at = self.pos;
        let m = self.byte()?;
        let len = match m {
            encode::BIN8 => self.byte()? as usize,
            encode::BIN16 => self.be_u16()? as usize,
            encode::BIN32 => self.be_u32()? as usize,
            _ => {
                return Err(DecodeError::TypeMismatch {
                    at,
                    expected: "bin",
                    marker: m,
                })
            }
        };
        self.take(len)
    }

    /// Read an array header, returning the element count.
    pub fn read_array_len(&mut self) -> Result<usize, DecodeError> {
        let at = self.pos;
        let m = self.byte()?;
        match m {
            0x90..=0x9f => Ok((m & 0x0f) as usize),
            encode::ARR16 => Ok(self.be_u16()? as usize),
            encode::ARR32 => Ok(self.be_u32()? as usize),
            _ => Err(DecodeError::TypeMismatch {
                at,
                expected: "array",
                marker: m,
            }),
        }
    }

    /// Read a map header, returning the entry count.
    pub fn read_map_len(&mut self) -> Result<usize, DecodeError> {
        let at = self.pos;
        let m = self.byte()?;
        match m {
            0x80..=0x8f => Ok((m & 0x0f) as usize),
            encode::MAP16 => Ok(self.be_u16()? as usize),
            encode::MAP32 => Ok(self.be_u32()? as usize),
            _ => Err(DecodeError::TypeMismatch {
                at,
                expected: "map",
                marker: m,
            }),
        }
    }

    /// Read an extension, returning `(type tag, payload)` borrowed from input.
    pub fn read_ext(&mut self) -> Result<(i8, &'a [u8]), DecodeError> {
        let at = self.pos;
        let m = self.byte()?;
        let len = match m {
            encode::FIXEXT1 => 1,
            encode::FIXEXT2 => 2,
            encode::FIXEXT4 => 4,
            encode::FIXEXT8 => 8,
            encode::FIXEXT16 => 16,
            encode::EXT8 => self.byte()? as usize,
            encode::EXT16 => self.be_u16()? as usize,
            encode::EXT32 => self.be_u32()? as usize,
            _ => {
                return Err(DecodeError::TypeMismatch {
                    at,
                    expected: "ext",
                    marker: m,
                })
            }
        };
        let tag = self.byte()? as i8;
        Ok((tag, self.take(len)?))
    }

    // ----- owned value tree -----------------------------------------------

    /// Read one owned [`Value`], guarding recursion depth.
    pub fn read_value(&mut self) -> Result<Value, DecodeError> {
        self.read_value_depth(0)
    }

    fn read_value_depth(&mut self, depth: usize) -> Result<Value, DecodeError> {
        if depth > MAX_DEPTH {
            return Err(DecodeError::DepthExceeded { at: self.pos });
        }
        let at = self.pos;
        let m = self.peek()?;
        match m {
            0x00..=0x7f
            | 0xe0..=0xff
            | encode::U8
            | encode::U16
            | encode::U32
            | encode::U64
            | encode::I8
            | encode::I16
            | encode::I32
            | encode::I64 => {
                let v = self.read_i128()?;
                Ok(if v >= 0 {
                    Value::UInt(v as u64)
                } else {
                    Value::Int(v as i64)
                })
            }
            encode::NIL => {
                self.pos += 1;
                Ok(Value::Nil)
            }
            encode::TRUE | encode::FALSE => Ok(Value::Bool(self.read_bool()?)),
            encode::F32 => {
                self.pos += 1;
                Ok(Value::F32(f32::from_be_bytes(
                    self.take(4)?.try_into().unwrap(),
                )))
            }
            encode::F64 => {
                self.pos += 1;
                Ok(Value::F64(f64::from_be_bytes(
                    self.take(8)?.try_into().unwrap(),
                )))
            }
            0xa0..=0xbf | encode::STR8 | encode::STR16 | encode::STR32 => {
                Ok(Value::Str(self.read_str()?.to_string()))
            }
            encode::BIN8 | encode::BIN16 | encode::BIN32 => {
                Ok(Value::Bin(self.read_bin()?.to_vec()))
            }
            0x90..=0x9f | encode::ARR16 | encode::ARR32 => {
                let len = self.read_array_len()?;
                // Sanity bound: each element needs at least one byte.
                if len > self.remaining() {
                    return Err(DecodeError::UnexpectedEof {
                        at,
                        needed: len - self.remaining(),
                    });
                }
                let mut items = Vec::with_capacity(len.min(4096));
                for _ in 0..len {
                    items.push(self.read_value_depth(depth + 1)?);
                }
                Ok(Value::Arr(items))
            }
            0x80..=0x8f | encode::MAP16 | encode::MAP32 => {
                let len = self.read_map_len()?;
                if len * 2 > self.remaining() {
                    return Err(DecodeError::UnexpectedEof {
                        at,
                        needed: len * 2 - self.remaining(),
                    });
                }
                let mut entries = Vec::with_capacity(len.min(4096));
                for _ in 0..len {
                    let k = self.read_value_depth(depth + 1)?;
                    let v = self.read_value_depth(depth + 1)?;
                    entries.push((k, v));
                }
                Ok(Value::Map(entries))
            }
            encode::FIXEXT1
            | encode::FIXEXT2
            | encode::FIXEXT4
            | encode::FIXEXT8
            | encode::FIXEXT16
            | encode::EXT8
            | encode::EXT16
            | encode::EXT32 => {
                let (tag, data) = self.read_ext()?;
                if tag == TIMESTAMP_EXT_TYPE {
                    decode_timestamp(at, data)
                } else {
                    Ok(Value::Ext(tag, data.to_vec()))
                }
            }
            0xc1 => Err(DecodeError::InvalidMarker { at, marker: 0xc1 }),
        }
    }
}

fn decode_timestamp(at: usize, data: &[u8]) -> Result<Value, DecodeError> {
    match data.len() {
        4 => {
            let secs = u32::from_be_bytes(data.try_into().unwrap()) as i64;
            Ok(Value::Timestamp { secs, nanos: 0 })
        }
        8 => {
            let raw = u64::from_be_bytes(data.try_into().unwrap());
            let nanos = (raw >> 34) as u32;
            let secs = (raw & ((1u64 << 34) - 1)) as i64;
            if nanos >= 1_000_000_000 {
                return Err(DecodeError::InvalidTimestamp { at });
            }
            Ok(Value::Timestamp { secs, nanos })
        }
        12 => {
            let nanos = u32::from_be_bytes(data[..4].try_into().unwrap());
            let secs = i64::from_be_bytes(data[4..].try_into().unwrap());
            if nanos >= 1_000_000_000 {
                return Err(DecodeError::InvalidTimestamp { at });
            }
            Ok(Value::Timestamp { secs, nanos })
        }
        _ => Err(DecodeError::InvalidTimestamp { at }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{from_slice, to_vec};

    #[test]
    fn typed_reads_roundtrip() {
        let mut buf = Vec::new();
        {
            let mut e = crate::Encoder::new(&mut buf);
            e.write_map_len(2);
            e.write_str("epoch");
            e.write_uint(3);
            e.write_str("payload");
            e.write_bin(&[1, 2, 3, 4]);
        }
        let mut d = Decoder::new(&buf);
        assert_eq!(d.read_map_len().unwrap(), 2);
        assert_eq!(d.read_str().unwrap(), "epoch");
        assert_eq!(d.read_u64().unwrap(), 3);
        assert_eq!(d.read_str().unwrap(), "payload");
        assert_eq!(d.read_bin().unwrap(), &[1, 2, 3, 4]);
        d.finish().unwrap();
    }

    #[test]
    fn value_roundtrip_all_families() {
        let cases = vec![
            Value::Nil,
            Value::Bool(true),
            Value::Bool(false),
            Value::UInt(0),
            Value::UInt(u64::MAX),
            Value::Int(-1),
            Value::Int(i64::MIN),
            Value::F32(1.25),
            Value::F64(-0.001),
            Value::Str(String::new()),
            Value::Str("日本語".into()),
            Value::Bin(vec![]),
            Value::Bin((0..=255).collect()),
            Value::Arr(vec![Value::Nil; 20]),
            Value::Map(vec![(Value::from("k"), Value::from(1u64))]),
            Value::Ext(42, vec![9; 7]),
            Value::Timestamp {
                secs: 1_700_000_000,
                nanos: 123_456_789,
            },
            Value::Timestamp { secs: -5, nanos: 1 },
            Value::Timestamp {
                secs: 100,
                nanos: 0,
            },
        ];
        for v in cases {
            let bytes = to_vec(&v);
            assert_eq!(from_slice(&bytes).unwrap(), v, "roundtrip {v}");
        }
    }

    #[test]
    fn truncation_detected_everywhere() {
        let v = Value::Map(vec![
            (Value::from("a"), Value::Bin(vec![0; 100])),
            (Value::from("b"), Value::Arr(vec![Value::from(1u64); 50])),
        ]);
        let bytes = to_vec(&v);
        for cut in 0..bytes.len() {
            assert!(
                from_slice(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn invalid_marker() {
        assert!(matches!(
            from_slice(&[0xc1]),
            Err(DecodeError::InvalidMarker { marker: 0xc1, .. })
        ));
    }

    #[test]
    fn invalid_utf8() {
        // fixstr of length 2 with invalid UTF-8 payload.
        assert!(matches!(
            from_slice(&[0xa2, 0xff, 0xfe]),
            Err(DecodeError::InvalidUtf8 { .. })
        ));
    }

    #[test]
    fn type_mismatch_reports_marker() {
        let bytes = to_vec(&Value::Str("x".into()));
        let mut d = Decoder::new(&bytes);
        let err = d.read_u64().unwrap_err();
        assert!(matches!(
            err,
            DecodeError::TypeMismatch {
                expected: "integer",
                ..
            }
        ));
    }

    #[test]
    fn depth_guard() {
        // 200 nested single-element arrays.
        let mut bytes = vec![0x91u8; 200];
        bytes.push(0xc0);
        assert!(matches!(
            from_slice(&bytes),
            Err(DecodeError::DepthExceeded { .. })
        ));
    }

    #[test]
    fn huge_claimed_array_fails_fast() {
        // array32 claiming 2^31 elements with no payload must error, not OOM.
        let bytes = [0xdd, 0x80, 0x00, 0x00, 0x00];
        assert!(from_slice(&bytes).is_err());
    }

    #[test]
    fn integer_family_boundaries() {
        for v in [
            0u64,
            1,
            127,
            128,
            255,
            256,
            65_535,
            65_536,
            u32::MAX as u64,
            u32::MAX as u64 + 1,
            u64::MAX,
        ] {
            assert_eq!(
                from_slice(&to_vec(&Value::UInt(v))).unwrap(),
                Value::UInt(v)
            );
        }
        for v in [
            -1i64,
            -32,
            -33,
            -128,
            -129,
            -32_768,
            -32_769,
            i32::MIN as i64,
            i64::MIN,
        ] {
            assert_eq!(from_slice(&to_vec(&Value::Int(v))).unwrap(), Value::Int(v));
        }
    }

    #[test]
    fn nonneg_int_normalizes_to_uint() {
        // Encoder writes non-negative Int as uint family; decoder yields UInt.
        let bytes = to_vec(&Value::Int(42));
        assert_eq!(from_slice(&bytes).unwrap(), Value::UInt(42));
    }
}

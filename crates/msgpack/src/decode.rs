//! MessagePack decoder for the batch schema's five families.
//!
//! Typed reads (`read_u64`, `read_str`, `read_bin`, `read_array_len`,
//! `read_map_len`) that borrow from the input — this is the receiver's
//! zero-copy hot path. Each read accepts every width of its own family and
//! nothing else: any other marker is a [`DecodeError::TypeMismatch`].

use crate::encode;
use std::fmt;

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
    /// A str payload is not valid UTF-8.
    InvalidUtf8 { at: usize },
    /// `finish` found unread bytes.
    TrailingBytes { at: usize, remaining: usize },
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
            DecodeError::InvalidUtf8 { at } => write!(f, "invalid UTF-8 in str at byte {at}"),
            DecodeError::TrailingBytes { at, remaining } => {
                write!(f, "{remaining} trailing bytes at offset {at}")
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

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Assert the input is fully consumed.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes {
                at: self.pos,
                remaining: self.remaining(),
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

    fn be_u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn be_u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn be_u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a uint (positive fixint or uint 8/16/32/64). The signed family
    /// is a type mismatch even for a non-negative value: the encoder never
    /// writes it.
    pub fn read_u64(&mut self) -> Result<u64, DecodeError> {
        let at = self.pos;
        let m = self.byte()?;
        match m {
            0x00..=0x7f => Ok(m as u64),
            encode::U8 => Ok(self.byte()? as u64),
            encode::U16 => Ok(self.be_u16()? as u64),
            encode::U32 => Ok(self.be_u32()? as u64),
            encode::U64 => self.be_u64(),
            _ => Err(DecodeError::TypeMismatch {
                at,
                expected: "uint",
                marker: m,
            }),
        }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Encoder;

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Family {
        Uint,
        Str,
        Bin,
        Array,
        Map,
    }
    use Family::*;

    const FAMILIES: [Family; 5] = [Uint, Str, Bin, Array, Map];

    fn name(f: Family) -> &'static str {
        match f {
            Uint => "uint",
            Str => "str",
            Bin => "bin",
            Array => "array",
            Map => "map",
        }
    }

    /// Each uint width boundary with the length of its smallest encoding.
    const UINTS: [(u64, usize); 10] = [
        (0, 1),
        (127, 1),
        (128, 2),
        (255, 2),
        (256, 3),
        (65_535, 3),
        (65_536, 5),
        (u32::MAX as u64, 5),
        (u32::MAX as u64 + 1, 9),
        (u64::MAX, 9),
    ];

    /// Each length width boundary with the smallest header of a str, bin,
    /// array and map of that length.
    const LENGTHS: [(usize, [usize; 4]); 8] = [
        (15, [1, 2, 1, 1]),
        (16, [1, 2, 3, 3]),
        (31, [1, 2, 3, 3]),
        (32, [2, 2, 3, 3]),
        (255, [2, 2, 3, 3]),
        (256, [3, 3, 3, 3]),
        (65_535, [3, 3, 3, 3]),
        (65_536, [5, 5, 5, 5]),
    ];

    /// A str / bin payload of `n` bytes that is not all one value.
    fn payload(n: usize) -> String {
        (0..n).map(|i| (b'a' + (i % 26) as u8) as char).collect()
    }

    /// Read one item of family `f`: a uint's value, a str's or bin's
    /// payload length, a container's entry count.
    fn read(d: &mut Decoder<'_>, f: Family) -> Result<u64, DecodeError> {
        Ok(match f {
            Uint => d.read_u64()?,
            Str => d.read_str()?.len() as u64,
            Bin => d.read_bin()?.len() as u64,
            Array => d.read_array_len()? as u64,
            Map => d.read_map_len()? as u64,
        })
    }

    /// Every family at every width boundary: (family, value or length,
    /// encoding, length of the smallest encoding).
    fn cases() -> Vec<(Family, u64, Vec<u8>, usize)> {
        let mut out = Vec::new();
        for (v, size) in UINTS {
            let mut buf = Vec::new();
            Encoder::new(&mut buf).write_uint(v);
            out.push((Uint, v, buf, size));
        }
        for (n, headers) in LENGTHS {
            let p = payload(n);
            for (f, header) in [Str, Bin, Array, Map].into_iter().zip(headers) {
                let mut buf = Vec::new();
                let mut e = Encoder::new(&mut buf);
                match f {
                    Str => e.write_str(&p),
                    Bin => e.write_bin(p.as_bytes()),
                    Array => e.write_array_len(n),
                    Map => e.write_map_len(n),
                    Uint => unreachable!(),
                }
                let size = header + if matches!(f, Str | Bin) { n } else { 0 };
                out.push((f, n as u64, buf, size));
            }
        }
        out
    }

    fn roundtrips_in_smallest_encoding(family: Family) {
        for (f, v, bytes, size) in cases().into_iter().filter(|c| c.0 == family) {
            assert_eq!(bytes.len(), size, "{f:?} {v}: smallest encoding");
            let mut d = Decoder::new(&bytes);
            assert_eq!(read(&mut d, f), Ok(v), "{f:?} {v}");
            d.finish().unwrap();
        }
    }

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
    fn integer_family_boundaries() {
        roundtrips_in_smallest_encoding(Uint);
    }

    #[test]
    fn length_boundaries_roundtrip_in_smallest_encoding() {
        for f in [Str, Bin, Array, Map] {
            roundtrips_in_smallest_encoding(f);
        }
        // The payloads come back byte for byte, not just their lengths.
        for (n, _) in LENGTHS {
            let p = payload(n);
            let mut buf = Vec::new();
            let mut e = Encoder::new(&mut buf);
            e.write_str(&p);
            e.write_bin(p.as_bytes());
            let mut d = Decoder::new(&buf);
            assert_eq!(d.read_str().unwrap(), p);
            assert_eq!(d.read_bin().unwrap(), p.as_bytes());
            d.finish().unwrap();
        }
    }

    #[test]
    fn truncation_detected_everywhere() {
        for (f, v, bytes, _) in cases() {
            for cut in 0..bytes.len() {
                assert!(
                    matches!(
                        read(&mut Decoder::new(&bytes[..cut]), f),
                        Err(DecodeError::UnexpectedEof { .. })
                    ),
                    "{f:?} {v}: prefix of {cut} bytes must not decode"
                );
            }
        }
    }

    #[test]
    fn type_mismatch_reports_marker() {
        for (f, v, bytes, _) in cases() {
            for other in FAMILIES.into_iter().filter(|o| *o != f) {
                assert_eq!(
                    read(&mut Decoder::new(&bytes), other),
                    Err(DecodeError::TypeMismatch {
                        at: 0,
                        expected: name(other),
                        marker: bytes[0],
                    }),
                    "{f:?} {v} read as {other:?}"
                );
            }
        }
    }

    #[test]
    fn invalid_marker() {
        // Markers outside the five families: nil, the unused 0xc1, bool,
        // ext, float, the signed family (int 8–64 holding 0 included — the
        // encoder writes only uint) and negative fixint. Every read rejects
        // each of them, whatever follows.
        let foreign = (0xc0..=0xc3)
            .chain(0xc7..=0xcb)
            .chain(0xd0..=0xd8)
            .chain(0xe0..=0xff);
        for m in foreign {
            let bytes = [m, 0, 0, 0, 0, 0, 0, 0, 0];
            for f in FAMILIES {
                assert_eq!(
                    read(&mut Decoder::new(&bytes), f),
                    Err(DecodeError::TypeMismatch {
                        at: 0,
                        expected: name(f),
                        marker: m,
                    }),
                    "marker 0x{m:02x} read as {f:?}"
                );
            }
        }
    }

    #[test]
    fn invalid_utf8() {
        // fixstr of length 2 with invalid UTF-8 payload.
        assert_eq!(
            Decoder::new(&[0xa2, 0xff, 0xfe]).read_str(),
            Err(DecodeError::InvalidUtf8 { at: 1 })
        );
    }

    #[test]
    fn huge_claimed_array_fails_fast() {
        // array32 claiming 2^31 elements with no payload: the header reads
        // (nothing is allocated for it), the first element is an EOF.
        let bytes = [0xdd, 0x80, 0x00, 0x00, 0x00];
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.read_array_len(), Ok(1 << 31));
        assert_eq!(
            d.read_bin(),
            Err(DecodeError::UnexpectedEof { at: 5, needed: 1 })
        );
    }
}

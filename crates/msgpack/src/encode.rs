//! MessagePack encoder for the batch schema's five families.
//!
//! Always emits the *smallest* representation for integers and lengths, with
//! the canonical family markers from the spec. Writing is infallible
//! (appends to a caller-owned `Vec<u8>`), so the hot path has no `Result`
//! plumbing.

// Family markers (MessagePack specification).
pub(crate) const BIN8: u8 = 0xc4;
pub(crate) const BIN16: u8 = 0xc5;
pub(crate) const BIN32: u8 = 0xc6;
pub(crate) const U8: u8 = 0xcc;
pub(crate) const U16: u8 = 0xcd;
pub(crate) const U32: u8 = 0xce;
pub(crate) const U64: u8 = 0xcf;
pub(crate) const STR8: u8 = 0xd9;
pub(crate) const STR16: u8 = 0xda;
pub(crate) const STR32: u8 = 0xdb;
pub(crate) const ARR16: u8 = 0xdc;
pub(crate) const ARR32: u8 = 0xdd;
pub(crate) const MAP16: u8 = 0xde;
pub(crate) const MAP32: u8 = 0xdf;

/// Streaming encoder appending to a borrowed buffer.
pub struct Encoder<'a> {
    out: &'a mut Vec<u8>,
}

impl<'a> Encoder<'a> {
    /// Encoder appending to `out`.
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        Encoder { out }
    }

    /// Write an unsigned integer in its smallest encoding.
    pub fn write_uint(&mut self, v: u64) {
        if v < 0x80 {
            self.out.push(v as u8); // positive fixint
        } else if v <= u8::MAX as u64 {
            self.out.push(U8);
            self.out.push(v as u8);
        } else if v <= u16::MAX as u64 {
            self.out.push(U16);
            self.out.extend_from_slice(&(v as u16).to_be_bytes());
        } else if v <= u32::MAX as u64 {
            self.out.push(U32);
            self.out.extend_from_slice(&(v as u32).to_be_bytes());
        } else {
            self.out.push(U64);
            self.out.extend_from_slice(&v.to_be_bytes());
        }
    }

    /// Write a UTF-8 string.
    pub fn write_str(&mut self, v: &str) {
        let len = v.len();
        if len < 32 {
            self.out.push(0xa0 | len as u8); // fixstr
        } else if len <= u8::MAX as usize {
            self.out.push(STR8);
            self.out.push(len as u8);
        } else if len <= u16::MAX as usize {
            self.out.push(STR16);
            self.out.extend_from_slice(&(len as u16).to_be_bytes());
        } else {
            self.out.push(STR32);
            self.out.extend_from_slice(&(len as u32).to_be_bytes());
        }
        self.out.extend_from_slice(v.as_bytes());
    }

    /// Write a binary blob. This is the hot call on the daemon's serialize
    /// path (raw image bytes), so it is a marker + single `extend_from_slice`.
    pub fn write_bin(&mut self, v: &[u8]) {
        self.write_bin_len(v.len());
        self.out.extend_from_slice(v);
    }

    /// Write only a bin header (marker + length) for a payload of `len`
    /// bytes the caller will transmit out-of-band. This is the zero-copy
    /// framing hook: the daemon writes headers into a small pooled buffer
    /// and hands payload slices to the transport as separate refcounted
    /// segments, producing the same wire bytes as [`Encoder::write_bin`]
    /// without ever copying the payload.
    pub fn write_bin_len(&mut self, len: usize) {
        if len <= u8::MAX as usize {
            self.out.push(BIN8);
            self.out.push(len as u8);
        } else if len <= u16::MAX as usize {
            self.out.push(BIN16);
            self.out.extend_from_slice(&(len as u16).to_be_bytes());
        } else {
            self.out.push(BIN32);
            self.out.extend_from_slice(&(len as u32).to_be_bytes());
        }
    }

    /// Write an array header; the caller then writes `len` elements.
    pub fn write_array_len(&mut self, len: usize) {
        if len < 16 {
            self.out.push(0x90 | len as u8); // fixarray
        } else if len <= u16::MAX as usize {
            self.out.push(ARR16);
            self.out.extend_from_slice(&(len as u16).to_be_bytes());
        } else {
            self.out.push(ARR32);
            self.out.extend_from_slice(&(len as u32).to_be_bytes());
        }
    }

    /// Write a map header; the caller then writes `len` key/value pairs.
    pub fn write_map_len(&mut self, len: usize) {
        if len < 16 {
            self.out.push(0x80 | len as u8); // fixmap
        } else if len <= u16::MAX as usize {
            self.out.push(MAP16);
            self.out.extend_from_slice(&(len as u16).to_be_bytes());
        } else {
            self.out.push(MAP32);
            self.out.extend_from_slice(&(len as u32).to_be_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc(f: impl FnOnce(&mut Encoder)) -> Vec<u8> {
        let mut buf = Vec::new();
        f(&mut Encoder::new(&mut buf));
        buf
    }

    #[test]
    fn smallest_uint_encodings() {
        assert_eq!(enc(|e| e.write_uint(0)), [0x00]);
        assert_eq!(enc(|e| e.write_uint(127)), [0x7f]);
        assert_eq!(enc(|e| e.write_uint(128)), [U8, 0x80]);
        assert_eq!(enc(|e| e.write_uint(255)), [U8, 0xff]);
        assert_eq!(enc(|e| e.write_uint(256)), [U16, 0x01, 0x00]);
        assert_eq!(enc(|e| e.write_uint(65_536)), [U32, 0, 1, 0, 0]);
        assert_eq!(
            enc(|e| e.write_uint(u64::MAX)),
            [U64, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff]
        );
    }

    #[test]
    fn str_markers() {
        assert_eq!(enc(|e| e.write_str(""))[0], 0xa0);
        assert_eq!(enc(|e| e.write_str("abc"))[0], 0xa3);
        let s31 = "x".repeat(31);
        assert_eq!(enc(|e| e.write_str(&s31))[0], 0xbf);
        let s32 = "x".repeat(32);
        assert_eq!(enc(|e| e.write_str(&s32))[0], STR8);
        let s256 = "x".repeat(256);
        assert_eq!(enc(|e| e.write_str(&s256))[0], STR16);
        let s70k = "x".repeat(70_000);
        assert_eq!(enc(|e| e.write_str(&s70k))[0], STR32);
    }

    #[test]
    fn bin_markers() {
        assert_eq!(enc(|e| e.write_bin(&[0; 10]))[0], BIN8);
        assert_eq!(enc(|e| e.write_bin(&vec![0; 300]))[0], BIN16);
        assert_eq!(enc(|e| e.write_bin(&vec![0; 70_000]))[0], BIN32);
    }

    #[test]
    fn container_markers() {
        assert_eq!(enc(|e| e.write_array_len(0)), [0x90]);
        assert_eq!(enc(|e| e.write_array_len(15)), [0x9f]);
        assert_eq!(enc(|e| e.write_array_len(16))[0], ARR16);
        assert_eq!(enc(|e| e.write_array_len(100_000))[0], ARR32);
        assert_eq!(enc(|e| e.write_map_len(0)), [0x80]);
        assert_eq!(enc(|e| e.write_map_len(16))[0], MAP16);
    }
}

//! The JSON of the two documents the workspace writes and reads back.
//!
//! They are a shard's `mapping_shard_*.json` index (what the planner reads,
//! Algorithm 2, line 1) and a per-file dataset's `labels.json`. Between
//! them they hold objects, arrays, strings and unsigned integers, and this
//! codec holds nothing else: no null, boolean, sign, fraction or exponent.
//! Integers are read exactly as `u64`, and nesting deeper than 32 levels is
//! an error, so a forged file cannot overflow the stack. (The approved
//! dependency list has `serde` but not `serde_json`.)

use std::collections::BTreeMap;
use std::fmt;

/// Deepest nesting [`Json::parse`] accepts; the documents nest three deep.
const MAX_DEPTH: usize = 32;

/// A JSON value. Object keys are kept sorted (`BTreeMap`) so serialization is
/// deterministic, which keeps index files diffable and tests stable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    Uint(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

/// Error produced by [`Json::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where the error was detected.
    pub at: usize,
    /// Human-readable cause.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parse a complete document. Trailing whitespace is allowed; trailing
    /// garbage is an error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { text, pos: 0 };
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    /// Serialize with two-space indentation (for human-readable indexes).
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Uint(n) => out.push_str(&n.to_string()),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    item_start(out, i, depth + 1);
                    item.write(out, depth + 1);
                }
                list_end(out, items.is_empty(), depth, ']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    item_start(out, i, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                }
                list_end(out, map.is_empty(), depth, '}');
            }
        }
    }

    /// As u64, if this is an integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Uint(n) => Some(*n),
            _ => None,
        }
    }

    /// As u32, if this is an integer no larger than `u32::MAX`.
    pub fn as_u32(&self) -> Option<u32> {
        self.as_u64().and_then(|n| u32::try_from(n).ok())
    }

    /// As str, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// As array slice, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Object field lookup; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Build an object from key/value pairs.
    pub fn obj<'k>(pairs: impl IntoIterator<Item = (&'k str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }
}

/// Separator and indentation before item `i` of a list at `depth`.
fn item_start(out: &mut String, i: usize, depth: usize) {
    if i > 0 {
        out.push(',');
    }
    newline_indent(out, depth);
}

fn list_end(out: &mut String, empty: bool, depth: usize, close: char) {
    if !empty {
        newline_indent(out, depth);
    }
    out.push(close);
}

fn newline_indent(out: &mut String, depth: usize) {
    out.push('\n');
    out.extend(std::iter::repeat_n(' ', 2 * depth));
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            at: self.pos,
            msg: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() != Some(b) {
            return Err(self.err(&format!("expected '{}'", b as char)));
        }
        self.pos += 1;
        Ok(())
    }

    /// One value, after any whitespace, `depth` containers deep.
    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'[' | b'{') if depth == MAX_DEPTH => Err(self.err("nested too deep")),
            Some(b'[') => {
                let mut items = Vec::new();
                self.list(b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                let mut map = BTreeMap::new();
                self.list(b'}', |p| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.skip_ws();
                    p.expect(b':')?;
                    map.insert(key, p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Json::Obj(map))
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b'0'..=b'9') => self.uint(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// The comma-separated items of an array or object, from its opening
    /// bracket through `close`; `item` parses one.
    fn list(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b) if b == close => return Ok(()),
                _ => return Err(self.err(&format!("expected ',' or '{}'", close as char))),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b >= 0x20 && b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            // The run stops at an ASCII byte or the end: a char boundary.
            out.push_str(&self.text[start..self.pos]);
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => out.push(self.escape()?),
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, JsonError> {
        Ok(match self.bump() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{08}',
            Some(b'f') => '\u{0C}',
            Some(b'u') => {
                let mut cp = 0;
                for _ in 0..4 {
                    let digit = self.bump().and_then(|b| (b as char).to_digit(16));
                    cp = cp * 16 + digit.ok_or_else(|| self.err("invalid \\u escape"))?;
                }
                // Refuses exactly the surrogates: no pairs are read.
                char::from_u32(cp).ok_or_else(|| self.err("surrogate \\u escape"))?
            }
            _ => return Err(self.err("invalid escape sequence")),
        })
    }

    /// Digits only, read exactly: no sign, fraction or exponent, and no
    /// leading zero but `0` itself.
    fn uint(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let mut n = 0u64;
        while let Some(d @ b'0'..=b'9') = self.peek() {
            if self.pos > start && n == 0 {
                return Err(self.err("leading zero"));
            }
            n = n
                .checked_mul(10)
                .and_then(|n| n.checked_add(u64::from(d - b'0')))
                .ok_or_else(|| self.err("integer above u64::MAX"))?;
            self.pos += 1;
        }
        Ok(Json::Uint(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Json) {
        let pretty = v.to_string_pretty();
        assert_eq!(&Json::parse(&pretty).unwrap(), v, "through {pretty:?}");
    }

    #[test]
    fn scalars() {
        for n in [0, 1, (1 << 53) + 1, u64::MAX] {
            roundtrip(&Json::Uint(n));
        }
        assert_eq!(
            Json::Uint(u64::MAX).to_string_pretty(),
            "18446744073709551615\n"
        );
        // Exact above 2^53, where a double would round to 9007199254740992.
        let odd = Json::parse("9007199254740993").unwrap();
        assert_eq!(odd.as_u64(), Some((1 << 53) + 1));
        roundtrip(&Json::Str("hello".into()));
        roundtrip(&Json::Str(String::new()));
    }

    #[test]
    fn escapes_and_unicode() {
        roundtrip(&Json::Str("quote \" backslash \\ newline \n tab \t".into()));
        roundtrip(&Json::Str("unicode: ü 日本語 🚀 \u{1}\u{1f}".into()));
        let parsed = Json::parse(r#""é😀 é\/\b\f""#).unwrap();
        assert_eq!(parsed, Json::Str("é😀 é/\u{08}\u{0C}".into()));
        // No surrogate, paired or lone, is an escape this codec reads.
        let pair = format!(r#""\ud83d{}""#, r"\ude00");
        for s in [pair.as_str(), r#""\ud800""#, r#""\udfff""#, r#""\u12""#] {
            assert!(Json::parse(s).is_err(), "{s}");
        }
    }

    #[test]
    fn nested_structures() {
        let v = Json::obj([
            (
                "shards",
                Json::Arr(vec![
                    Json::obj([
                        ("path", Json::str("shard_000.tfrecord")),
                        ("offset", Json::Uint(0)),
                        ("size", Json::Uint(1048576)),
                    ]),
                    Json::obj([
                        ("path", Json::str("shard_001.tfrecord")),
                        ("offset", Json::Uint(1048576)),
                        ("size", Json::Uint(524288)),
                    ]),
                ]),
            ),
            ("version", Json::Uint(1)),
            ("empty", Json::Arr(vec![])),
            ("none", Json::obj([])),
        ]);
        roundtrip(&v);
        assert_eq!(
            v.get("shards").unwrap().as_arr().unwrap()[1]
                .get("size")
                .unwrap()
                .as_u64(),
            Some(524288)
        );
    }

    #[test]
    fn parse_errors() {
        for bad in [
            "",
            "{",
            "[1,2,]",
            "123 456",
            "\"unterminated",
            "{\"a\" 1}",
            "{1: 2}",
            "nul",
            "18446744073709551616",
            "99999999999999999999",
            "-1",
            "1.0",
            "1e3",
            "01",
            "00",
            "true",
            "false",
            "null",
            "\"tab\there\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nest(MAX_DEPTH + 1)).is_err());
        let objects = |n: usize| "{\"a\": ".repeat(n) + "0" + &"}".repeat(n);
        assert!(Json::parse(&objects(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&objects(MAX_DEPTH + 1)).is_err());
        // A million brackets are an error, not a stack overflow.
        assert!(Json::parse(&"[".repeat(1_000_000)).is_err());
    }

    #[test]
    fn every_strict_prefix_is_an_error() {
        let doc = Json::obj([
            ("a", Json::Arr(vec![Json::Uint(10), Json::str("x\"é")])),
            ("b", Json::obj([("c", Json::Uint(7))])),
        ])
        .to_string_pretty();
        let doc = doc.trim_end();
        for (cut, _) in doc.char_indices() {
            assert!(Json::parse(&doc[..cut]).is_err(), "{:?}", &doc[..cut]);
        }
        assert!(Json::parse(doc).is_ok());
    }

    #[test]
    fn whitespace_tolerated() {
        let v = Json::parse("  {\n \"a\" : [ 1 , 2 ] }\t").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"n": 3, "big": 4294967296, "s": "x", "a": []}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("n").unwrap().as_u32(), Some(3));
        assert_eq!(v.get("big").unwrap().as_u64(), Some(1 << 32));
        assert_eq!(v.get("big").unwrap().as_u32(), None, "above u32::MAX");
        assert_eq!(Json::Uint(u32::MAX.into()).as_u32(), Some(u32::MAX));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("s").unwrap().as_u64(), None);
        assert_eq!(v.get("a").unwrap().as_arr(), Some(&[][..]));
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.get("n").unwrap().get("n"), None, "not an object");
    }
}

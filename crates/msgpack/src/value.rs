//! Owned MessagePack value tree.

use std::fmt;

/// An owned MessagePack value.
///
/// Integers are split into `Int` (negative-capable) and `UInt` to preserve
/// the full `u64` range; the decoder produces `UInt` for any non-negative
/// integer, matching msgpack's canonical family rules. Maps preserve insertion
/// order (msgpack maps are ordered on the wire).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Nil,
    Bool(bool),
    /// Negative integers (always `< 0` when produced by the decoder).
    Int(i64),
    /// Non-negative integers.
    UInt(u64),
    F32(f32),
    F64(f64),
    Str(String),
    Bin(Vec<u8>),
    Arr(Vec<Value>),
    Map(Vec<(Value, Value)>),
    /// Application extension: (type tag, payload). Tag `-1` is reserved for
    /// timestamps and has its own variant.
    Ext(i8, Vec<u8>),
    /// The msgpack `-1` timestamp extension: seconds since the epoch plus
    /// nanoseconds (`0 ≤ nanos < 1e9`).
    Timestamp {
        secs: i64,
        nanos: u32,
    },
}

impl Value {
    /// As u64, accepting both `UInt` and non-negative `Int`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(u) => Some(*u),
            Value::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// As i64, accepting `Int` and in-range `UInt`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::UInt(u) if *u <= i64::MAX as u64 => Some(*u as i64),
            _ => None,
        }
    }

    /// As f64, accepting both float widths and integers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F32(f) => Some(*f as f64),
            Value::F64(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            Value::UInt(u) => Some(*u as f64),
            _ => None,
        }
    }

    /// As str, for `Str` values.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// As array slice.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// As map entries.
    pub fn as_map(&self) -> Option<&[(Value, Value)]> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Look up a string key in a `Map` value (linear scan — batch headers are
    /// small).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_map()?
            .iter()
            .find(|(k, _)| k.as_str() == Some(key))
            .map(|(_, v)| v)
    }

    /// Approximate deep size in bytes (for queue accounting).
    pub fn approx_size(&self) -> usize {
        match self {
            Value::Nil | Value::Bool(_) => 1,
            Value::Int(_) | Value::UInt(_) | Value::F64(_) => 9,
            Value::F32(_) => 5,
            Value::Str(s) => 5 + s.len(),
            Value::Bin(b) => 5 + b.len(),
            Value::Ext(_, b) => 6 + b.len(),
            Value::Timestamp { .. } => 15,
            Value::Arr(v) => 5 + v.iter().map(Value::approx_size).sum::<usize>(),
            Value::Map(m) => {
                5 + m
                    .iter()
                    .map(|(k, v)| k.approx_size() + v.approx_size())
                    .sum::<usize>()
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Nil => write!(f, "nil"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::UInt(u) => write!(f, "{u}"),
            Value::F32(x) => write!(f, "{x}"),
            Value::F64(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bin(b) => write!(f, "bin[{}]", b.len()),
            Value::Arr(v) => {
                write!(f, "[")?;
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, "]")
            }
            Value::Map(m) => {
                write!(f, "{{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, "}}")
            }
            Value::Ext(tag, b) => write!(f, "ext({tag})[{}]", b.len()),
            Value::Timestamp { secs, nanos } => write!(f, "ts({secs}.{nanos:09})"),
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::UInt(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::UInt(v as u64)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::UInt(v as u64)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        if v >= 0 {
            Value::UInt(v as u64)
        } else {
            Value::Int(v)
        }
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::from(v as i64)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Bin(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Value::from(5u64), Value::UInt(5));
        assert_eq!(Value::from(-5i64), Value::Int(-5));
        assert_eq!(Value::from(5i64), Value::UInt(5));
        assert_eq!(Value::from("x"), Value::Str("x".into()));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::UInt(7).as_i64(), Some(7));
        assert_eq!(Value::Int(-7).as_u64(), None);
        assert_eq!(Value::UInt(u64::MAX).as_i64(), None);
        assert_eq!(Value::F32(1.5).as_f64(), Some(1.5));
        let m = Value::Map(vec![
            (Value::from("a"), Value::from(1u64)),
            (Value::from("b"), Value::from(2u64)),
        ]);
        assert_eq!(m.get("b").unwrap().as_u64(), Some(2));
        assert!(m.get("zz").is_none());
    }

    #[test]
    fn display_formats() {
        let v = Value::Arr(vec![Value::Nil, Value::Bool(true), Value::from(-3i64)]);
        assert_eq!(v.to_string(), "[nil, true, -3]");
    }
}

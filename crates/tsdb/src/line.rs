//! Influx line protocol: `measurement,tag=v field=1.5,other=2 1234567890`.
//!
//! Used to persist and diff energy traces; the bench harness dumps traces
//! next to its reports so experiments are inspectable after the fact.

use crate::point::Point;
use crate::storage::Db;
use std::collections::BTreeMap;

/// Serialize one point.
pub fn to_line(p: &Point) -> String {
    let mut line = escape(&p.measurement);
    for (k, v) in &p.tags {
        line.push(',');
        line.push_str(&escape(k));
        line.push('=');
        line.push_str(&escape(v));
    }
    line.push(' ');
    let mut first = true;
    for (k, v) in &p.fields {
        if !first {
            line.push(',');
        }
        first = false;
        line.push_str(&escape(k));
        line.push('=');
        line.push_str(&format!("{v}"));
    }
    line.push(' ');
    line.push_str(&p.timestamp.to_string());
    line
}

/// Parse one line. Returns `None` on malformed input.
pub fn from_line(line: &str) -> Option<Point> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return None;
    }
    let (head, rest) = split_unescaped(line, ' ')?;
    let (fields_part, ts_part) = split_unescaped(rest, ' ')?;
    let timestamp: u64 = ts_part.trim().parse().ok()?;

    let mut head_parts = split_all_unescaped(head, ',');
    let measurement = unescape(&head_parts.next()?);
    let mut tags = BTreeMap::new();
    for part in head_parts {
        let (k, v) = part.split_once('=')?;
        tags.insert(unescape(k), unescape(v));
    }
    let mut fields = BTreeMap::new();
    for part in split_all_unescaped(fields_part, ',') {
        let (k, v) = part.split_once('=')?;
        fields.insert(unescape(k), v.parse().ok()?);
    }
    if fields.is_empty() {
        return None;
    }
    Some(Point {
        measurement,
        tags,
        fields,
        timestamp,
    })
}

/// Dump every point in the database, sorted by series then time.
pub fn dump(db: &Db) -> String {
    let mut out = String::new();
    for (_key, series) in db.all_series() {
        for i in 0..series.len() {
            let mut fields = BTreeMap::new();
            for (name, col) in &series.fields {
                if !col[i].is_nan() {
                    fields.insert(name.clone(), col[i]);
                }
            }
            if fields.is_empty() {
                continue;
            }
            // Reconstruct the measurement from the series key prefix.
            let measurement = _key.split(',').next().unwrap_or(_key).to_string();
            let p = Point {
                measurement,
                tags: series.tags.clone(),
                fields,
                timestamp: series.timestamps[i],
            };
            out.push_str(&to_line(&p));
            out.push('\n');
        }
    }
    out
}

/// Load a line-protocol document into a fresh database, skipping blank and
/// comment lines; malformed lines are returned as errors with line numbers.
pub fn load(text: &str) -> Result<Db, String> {
    let mut db = Db::new();
    for (i, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let p = from_line(trimmed).ok_or_else(|| format!("line {}: malformed", i + 1))?;
        db.insert(&p);
    }
    Ok(db)
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace(' ', "\\ ")
        .replace(',', "\\,")
        .replace('=', "\\=")
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            if let Some(next) = chars.next() {
                out.push(next);
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Split at the first unescaped `sep`.
fn split_unescaped(s: &str, sep: char) -> Option<(&str, &str)> {
    let bytes = s.as_bytes();
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate() {
        if escaped {
            escaped = false;
            continue;
        }
        if b == b'\\' {
            escaped = true;
        } else if b == sep as u8 {
            return Some((&s[..i], &s[i + 1..]));
        }
    }
    None
}

/// Split at every unescaped `sep`.
fn split_all_unescaped(s: &str, sep: char) -> impl Iterator<Item = String> + '_ {
    let mut parts = Vec::new();
    let mut current = String::new();
    let mut escaped = false;
    for c in s.chars() {
        if escaped {
            current.push('\\');
            current.push(c);
            escaped = false;
        } else if c == '\\' {
            escaped = true;
        } else if c == sep {
            parts.push(std::mem::take(&mut current));
        } else {
            current.push(c);
        }
    }
    if escaped {
        current.push('\\');
    }
    parts.push(current);
    parts.into_iter()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple() {
        let p = Point::new("energy")
            .tag("node_id", "n0")
            .field("cpu", 12.5)
            .field("gpu", 30.0)
            .at(123_456_789);
        let line = to_line(&p);
        assert_eq!(line, "energy,node_id=n0 cpu=12.5,gpu=30 123456789");
        assert_eq!(from_line(&line).unwrap(), p);
    }

    #[test]
    fn roundtrip_escaped() {
        let p = Point::new("my measurement")
            .tag("host name", "a,b=c")
            .field("field one", -1.25)
            .at(5);
        let back = from_line(&to_line(&p)).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn malformed_lines_rejected() {
        for bad in [
            "",
            "# comment",
            "measonly",
            "meas onlyfields",
            "meas f=1 notatime",
            "meas f=notanumber 1",
        ] {
            assert!(from_line(bad).is_none(), "{bad:?}");
        }
    }

    #[test]
    fn dump_load_roundtrip() {
        let mut db = Db::new();
        for i in 0..5u64 {
            db.insert(
                &Point::new("power")
                    .tag("node_id", "n0")
                    .field("watts", 100.0 + i as f64)
                    .at(i * 100),
            );
            db.insert(
                &Point::new("power")
                    .tag("node_id", "n1")
                    .field("watts", 50.0)
                    .at(i * 100),
            );
        }
        let text = dump(&db);
        let db2 = load(&text).unwrap();
        assert_eq!(db2.point_count(), db.point_count());
        let q = crate::query::Query::new("power", "watts").tag("node_id", "n0");
        assert_eq!(q.points(&db2), q.points(&db));
    }

    #[test]
    fn load_reports_bad_line_numbers() {
        let text = "power f=1 10\n\ngarbage here\n";
        let err = load(text).unwrap_err();
        assert!(err.contains("line 3"), "{err}");
    }
}

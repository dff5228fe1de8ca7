//! Columnar per-series storage.

use crate::point::Point;
use std::collections::BTreeMap;

/// One series: sorted timestamps plus one column per field.
#[derive(Debug, Default, Clone)]
pub struct Series {
    /// Tag set identifying this series.
    pub tags: BTreeMap<String, String>,
    /// Sorted, possibly duplicated timestamps.
    pub timestamps: Vec<u64>,
    /// Field columns, same length as `timestamps`; missing values are NaN.
    pub fields: BTreeMap<String, Vec<f64>>,
}

impl Series {
    /// Number of points.
    pub fn len(&self) -> usize {
        self.timestamps.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.timestamps.is_empty()
    }

    fn insert(&mut self, p: &Point) {
        // Fast path: append in time order (the overwhelmingly common case —
        // samplers emit monotonically).
        let idx = if self.timestamps.last().is_none_or(|&t| p.timestamp >= t) {
            self.timestamps.push(p.timestamp);
            self.timestamps.len() - 1
        } else {
            let idx = self.timestamps.partition_point(|&t| t <= p.timestamp);
            self.timestamps.insert(idx, p.timestamp);
            for col in self.fields.values_mut() {
                col.insert(idx, f64::NAN);
            }
            idx
        };
        let n = self.timestamps.len();
        for (name, value) in &p.fields {
            let col = self
                .fields
                .entry(name.clone())
                .or_insert_with(|| vec![f64::NAN; n - 1]);
            if col.len() < n {
                col.resize(n, f64::NAN);
            }
            col[idx] = *value;
        }
        // Columns not in this point still need padding.
        for col in self.fields.values_mut() {
            if col.len() < n {
                col.resize(n, f64::NAN);
            }
        }
    }
}

/// The database: series keyed by measurement + canonical tag string.
#[derive(Debug, Default)]
pub struct Db {
    series: BTreeMap<String, Series>,
    measurements: BTreeMap<String, Vec<String>>, // measurement → series keys
}

impl Db {
    /// Empty database.
    pub fn new() -> Db {
        Db::default()
    }

    /// Insert one point.
    pub fn insert(&mut self, p: &Point) {
        let key = p.series_key();
        let series = self.series.entry(key.clone()).or_insert_with(|| Series {
            tags: p.tags.clone(),
            ..Series::default()
        });
        if series.is_empty() && series.fields.is_empty() {
            self.measurements
                .entry(p.measurement.clone())
                .or_default()
                .push(key);
        }
        series.insert(p);
    }

    /// All series of a measurement whose tags are a superset of `filter`.
    pub fn matching(&self, measurement: &str, filter: &[(String, String)]) -> Vec<&Series> {
        self.measurements
            .get(measurement)
            .map(|keys| {
                keys.iter()
                    .filter_map(|k| self.series.get(k))
                    .filter(|s| {
                        filter
                            .iter()
                            .all(|(k, v)| s.tags.get(k).map(String::as_str) == Some(v.as_str()))
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Total number of stored points.
    pub fn point_count(&self) -> usize {
        self.series.values().map(Series::len).sum()
    }

    /// Iterate all series (for line-protocol dump).
    pub fn all_series(&self) -> impl Iterator<Item = (&String, &Series)> {
        self.series.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(t: u64, joules: f64) -> Point {
        Point::new("energy")
            .tag("node_id", "n0")
            .field("cpu", joules)
            .at(t)
    }

    #[test]
    fn in_order_inserts() {
        let mut db = Db::new();
        for i in 0..100u64 {
            db.insert(&pt(i * 10, i as f64));
        }
        let s = db.matching("energy", &[("node_id".into(), "n0".into())])[0];
        assert_eq!(s.len(), 100);
        assert!(s.timestamps.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(s.fields["cpu"][99], 99.0);
    }

    #[test]
    fn out_of_order_inserts_sorted() {
        let mut db = Db::new();
        for &t in &[50u64, 10, 30, 20, 40] {
            db.insert(&pt(t, t as f64));
        }
        let s = db.matching("energy", &[])[0];
        assert_eq!(s.timestamps, vec![10, 20, 30, 40, 50]);
        assert_eq!(s.fields["cpu"], vec![10.0, 20.0, 30.0, 40.0, 50.0]);
    }

    #[test]
    fn heterogeneous_fields_pad_with_nan() {
        let mut db = Db::new();
        db.insert(&Point::new("m").field("a", 1.0).at(0));
        db.insert(&Point::new("m").field("b", 2.0).at(10));
        db.insert(&Point::new("m").field("a", 3.0).field("b", 4.0).at(20));
        let s = db.matching("m", &[])[0];
        assert_eq!(s.fields["a"].len(), 3);
        assert!(s.fields["a"][1].is_nan());
        assert!(s.fields["b"][0].is_nan());
        assert_eq!(s.fields["b"][2], 4.0);
    }

    #[test]
    fn tag_filtering() {
        let mut db = Db::new();
        for node in ["n0", "n1", "n2"] {
            for comp in ["cpu", "gpu"] {
                db.insert(
                    &Point::new("energy")
                        .tag("node_id", node)
                        .tag("component", comp)
                        .field("joules", 1.0)
                        .at(0),
                );
            }
        }
        assert_eq!(db.matching("energy", &[]).len(), 6);
        let n1 = db.matching("energy", &[("node_id".into(), "n1".into())]);
        assert_eq!(n1.len(), 2);
        let n1gpu = db.matching(
            "energy",
            &[
                ("node_id".into(), "n1".into()),
                ("component".into(), "gpu".into()),
            ],
        );
        assert_eq!(n1gpu.len(), 1);
        assert!(db.matching("nope", &[]).is_empty());
        assert_eq!(db.point_count(), 6);
    }
}

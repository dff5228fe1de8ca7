//! Range queries: the matching `(timestamp, value)` points of one field.

use crate::storage::{Db, Series};

/// A query: measurement, tag filters, inclusive time range, field.
#[derive(Debug, Clone)]
pub struct Query {
    /// Measurement to search.
    pub measurement: String,
    /// Tags that must match exactly.
    pub tag_filters: Vec<(String, String)>,
    /// Inclusive range `[start, end]` in nanoseconds.
    pub start: u64,
    /// End of range (inclusive).
    pub end: u64,
    /// Field to read.
    pub field: String,
}

impl Query {
    /// Query everything in a measurement/field over `[start, end]`.
    pub fn new(measurement: &str, field: &str) -> Query {
        Query {
            measurement: measurement.to_string(),
            tag_filters: Vec::new(),
            start: 0,
            end: u64::MAX,
            field: field.to_string(),
        }
    }

    /// Require a tag value.
    pub fn tag(mut self, key: &str, value: &str) -> Query {
        self.tag_filters.push((key.to_string(), value.to_string()));
        self
    }

    /// Restrict the time range (inclusive).
    pub fn range(mut self, start: u64, end: u64) -> Query {
        self.start = start;
        self.end = end;
        self
    }

    /// Collect matching `(timestamp, value)` pairs, merged across series in
    /// time order, NaN (missing) values skipped.
    pub fn points(&self, db: &Db) -> Vec<(u64, f64)> {
        let mut out = Vec::new();
        for series in db.matching(&self.measurement, &self.tag_filters) {
            collect_series(series, self, &mut out);
        }
        out.sort_by_key(|&(t, _)| t);
        out
    }
}

fn collect_series(series: &Series, q: &Query, out: &mut Vec<(u64, f64)>) {
    let col = match series.fields.get(&q.field) {
        Some(c) => c,
        None => return,
    };
    let lo = series.timestamps.partition_point(|&t| t < q.start);
    let hi = series.timestamps.partition_point(|&t| t <= q.end);
    for (&t, &v) in series.timestamps[lo..hi].iter().zip(&col[lo..hi]) {
        if !v.is_nan() {
            out.push((t, v));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;

    fn db_with_power_series() -> Db {
        let mut db = Db::new();
        // Constant 100 W for 10 samples at 1-second spacing on node n0,
        // 50 W on n1.
        for i in 0..10u64 {
            db.insert(
                &Point::new("power")
                    .tag("node_id", "n0")
                    .field("watts", 100.0)
                    .at(i * 1_000_000_000),
            );
            db.insert(
                &Point::new("power")
                    .tag("node_id", "n1")
                    .field("watts", 50.0)
                    .at(i * 1_000_000_000),
            );
        }
        db
    }

    #[test]
    fn range_selection_inclusive() {
        let db = db_with_power_series();
        let q = Query::new("power", "watts")
            .tag("node_id", "n0")
            .range(2_000_000_000, 5_000_000_000);
        let pts = q.points(&db);
        assert_eq!(pts.len(), 4, "samples at t=2,3,4,5 s");
        assert_eq!(pts[0].0, 2_000_000_000);
        assert_eq!(pts[3].0, 5_000_000_000);
    }

    #[test]
    fn merged_series_without_filter() {
        let db = db_with_power_series();
        let pts = Query::new("power", "watts").points(&db);
        // Both nodes, merged in time order: 10 × 100 W and 10 × 50 W.
        assert_eq!(pts.len(), 20);
        assert!(pts.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(pts.iter().map(|&(_, v)| v).sum::<f64>(), 1500.0);
    }

    #[test]
    fn missing_field_and_empty_results() {
        let db = db_with_power_series();
        let q = Query::new("power", "amps");
        assert!(q.points(&db).is_empty());
        let q2 = Query::new("power", "watts").range(100, 200);
        assert!(q2.points(&db).is_empty());
    }

    #[test]
    fn nan_gaps_skipped() {
        let mut db = Db::new();
        db.insert(&Point::new("m").field("a", 1.0).at(0));
        db.insert(&Point::new("m").field("b", 9.0).at(10)); // `a` is NaN here
        db.insert(&Point::new("m").field("a", 3.0).at(20));
        let q = Query::new("m", "a");
        let pts = q.points(&db);
        assert_eq!(pts, vec![(0, 1.0), (20, 3.0)]);
    }
}

//! Thread-safe client with the shape of the InfluxDB Python client used by
//! Algorithm 1 (`write_points`, query by time range).

use crate::point::Point;
use crate::query::Query;
use crate::storage::Db;
use parking_lot::RwLock;
use std::sync::Arc;

/// A cheap-to-clone handle to a shared in-memory TSDB. Stands in for both
/// the per-node "local TSDB" and the "central TSDB" of Figure 2 — cross-node
/// correlation is a matter of which client handle the energy monitors share.
#[derive(Clone, Default)]
pub struct TsdbClient {
    db: Arc<RwLock<Db>>,
}

impl TsdbClient {
    /// Fresh empty database.
    pub fn new() -> TsdbClient {
        TsdbClient::default()
    }

    /// Write a batch of points (Algorithm 1, line 15: "batch up to N tuples,
    /// tag with node_id, call write_points()").
    pub fn write_points(&self, points: &[Point]) {
        let mut db = self.db.write();
        for p in points {
            db.insert(p);
        }
    }

    /// Write one point.
    pub fn write_point(&self, point: Point) {
        self.db.write().insert(&point);
    }

    /// Fetch raw points for a query.
    pub fn points(&self, query: &Query) -> Vec<(u64, f64)> {
        query.points(&self.db.read())
    }

    /// Total stored points.
    pub fn point_count(&self) -> usize {
        self.db.read().point_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_writers_single_reader() {
        let client = TsdbClient::new();
        let handles: Vec<_> = (0..4)
            .map(|n| {
                let c = client.clone();
                std::thread::spawn(move || {
                    let points: Vec<Point> = (0..250u64)
                        .map(|i| {
                            Point::new("energy")
                                .tag("node_id", &format!("n{n}"))
                                .field("cpu", 1.0)
                                .at(i * 1000)
                        })
                        .collect();
                    // Write in batches of 50 like the energy monitor does.
                    for chunk in points.chunks(50) {
                        c.write_points(chunk);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(client.point_count(), 1000);
        let q = Query::new("energy", "cpu").tag("node_id", "n2");
        assert_eq!(client.points(&q).len(), 250);
    }
}

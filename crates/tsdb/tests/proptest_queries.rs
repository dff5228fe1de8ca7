//! Property tests for the TSDB: range-splitting consistency and
//! line-protocol roundtrips of arbitrary points.

use emlio_tsdb::{line, Db, Point, Query};
use proptest::prelude::*;

fn point_strategy() -> impl Strategy<Value = Point> {
    (
        "[a-z]{1,6}",
        proptest::collection::btree_map("[a-z]{1,4}", "[a-zA-Z0-9 =,_-]{1,8}", 0..3),
        proptest::collection::btree_map("[a-z]{1,4}", -1.0e6f64..1.0e6, 1..3),
        0u64..1_000_000,
    )
        .prop_map(|(m, tags, fields, ts)| {
            let mut p = Point::new(&m).at(ts);
            for (k, v) in tags {
                p = p.tag(&k, &v);
            }
            for (k, v) in fields {
                p = p.field(&k, v);
            }
            p
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn line_protocol_roundtrip(p in point_strategy()) {
        let line = line::to_line(&p);
        let back = line::from_line(&line).expect("own output parses");
        prop_assert_eq!(back, p);
    }

    #[test]
    fn split_range_sums_compose(
        values in proptest::collection::vec(-1000.0f64..1000.0, 1..60),
        split_at in any::<u64>(),
    ) {
        let mut db = Db::new();
        for (i, &v) in values.iter().enumerate() {
            db.insert(&Point::new("m").field("x", v).at(i as u64 * 10));
        }
        let end = (values.len() as u64 - 1) * 10;
        let mid = split_at % (end + 1);
        let sum = |lo: u64, hi: u64| -> (f64, usize) {
            let pts = Query::new("m", "x").range(lo, hi).points(&db);
            (pts.iter().map(|&(_, v)| v).sum(), pts.len())
        };
        let (full, n_full) = sum(0, end);
        let (left, n_left) = sum(0, mid);
        let (right, n_right) = sum(mid + 1, end);
        prop_assert!((full - (left + right)).abs() < 1e-6,
            "sum must split: {full} vs {left}+{right}");
        // The points themselves split exactly.
        prop_assert_eq!(n_full, values.len());
        prop_assert_eq!(n_left + n_right, n_full);
    }

    #[test]
    fn dump_load_preserves_queries(points in proptest::collection::vec(point_strategy(), 1..30)) {
        let mut db = Db::new();
        for p in &points {
            db.insert(p);
        }
        let restored = line::load(&line::dump(&db)).unwrap();
        prop_assert_eq!(restored.point_count(), db.point_count());
    }
}

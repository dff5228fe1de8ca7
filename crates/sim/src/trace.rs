//! Busy-time tracing in fixed-width buckets.
//!
//! Every pipeline stage records its servers' busy intervals here; the
//! testbed's energy model converts per-component busy fractions into power
//! samples at the paper's 100 ms granularity.

use crate::time::SimTime;

/// Accumulates busy-seconds into fixed-width time buckets.
#[derive(Debug, Clone)]
pub struct BucketTrace {
    bucket_nanos: u64,
    /// busy-nanoseconds accumulated per bucket (may exceed bucket width when
    /// several servers are busy at once — units are server-nanoseconds).
    buckets: Vec<f64>,
}

impl BucketTrace {
    /// Trace with the given bucket width.
    pub fn new(bucket_nanos: u64) -> BucketTrace {
        assert!(bucket_nanos > 0, "bucket width must be positive");
        BucketTrace {
            bucket_nanos,
            buckets: Vec::new(),
        }
    }

    /// Bucket width in nanoseconds.
    pub fn bucket_nanos(&self) -> u64 {
        self.bucket_nanos
    }

    /// Record one busy interval `[start, end)` of a single server.
    pub fn add_interval(&mut self, start: SimTime, end: SimTime) {
        if end.0 <= start.0 {
            return;
        }
        let first = (start.0 / self.bucket_nanos) as usize;
        let last = ((end.0 - 1) / self.bucket_nanos) as usize;
        if self.buckets.len() <= last {
            self.buckets.resize(last + 1, 0.0);
        }
        if first == last {
            self.buckets[first] += (end.0 - start.0) as f64;
            return;
        }
        // Head partial bucket.
        let head_end = (first as u64 + 1) * self.bucket_nanos;
        self.buckets[first] += (head_end - start.0) as f64;
        // Full middle buckets.
        for b in &mut self.buckets[first + 1..last] {
            *b += self.bucket_nanos as f64;
        }
        // Tail partial bucket.
        let tail_start = last as u64 * self.bucket_nanos;
        self.buckets[last] += (end.0 - tail_start) as f64;
    }

    /// Number of buckets with any recording (i.e. trace length).
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Busy server-seconds in bucket `i` (0 beyond the recorded range).
    pub fn busy_secs(&self, i: usize) -> f64 {
        self.buckets.get(i).copied().unwrap_or(0.0) / 1e9
    }

    /// Mean number of busy servers during bucket `i` (may exceed 1).
    pub fn utilization(&self, i: usize) -> f64 {
        self.busy_secs(i) / (self.bucket_nanos as f64 / 1e9)
    }

    /// Merge another trace (same bucket width) into this one.
    pub fn merge(&mut self, other: &BucketTrace) {
        assert_eq!(
            self.bucket_nanos, other.bucket_nanos,
            "bucket widths must match"
        );
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0.0);
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bucket_interval() {
        let mut t = BucketTrace::new(100);
        t.add_interval(SimTime(10), SimTime(60));
        assert_eq!(t.len(), 1);
        assert!((t.busy_secs(0) - 50e-9).abs() < 1e-18);
        assert!((t.utilization(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn spanning_interval_partitions_exactly() {
        let mut t = BucketTrace::new(100);
        t.add_interval(SimTime(50), SimTime(350));
        // Buckets: [50,100)=50, [100,200)=100, [200,300)=100, [300,350)=50.
        assert_eq!(t.len(), 4);
        let total: f64 = (0..4).map(|i| t.busy_secs(i)).sum();
        assert!((total - 300e-9).abs() < 1e-15);
        assert!((t.utilization(1) - 1.0).abs() < 1e-12);
        assert!((t.utilization(3) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bucket_boundary_exact() {
        let mut t = BucketTrace::new(100);
        t.add_interval(SimTime(0), SimTime(100));
        assert_eq!(
            t.len(),
            1,
            "interval ending on a boundary stays in bucket 0"
        );
        assert!((t.utilization(0) - 1.0).abs() < 1e-12);
        t.add_interval(SimTime(100), SimTime(200));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn overlapping_servers_exceed_one() {
        let mut t = BucketTrace::new(100);
        t.add_interval(SimTime(0), SimTime(100));
        t.add_interval(SimTime(0), SimTime(100));
        assert!((t.utilization(0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_degenerate() {
        let mut t = BucketTrace::new(100);
        t.add_interval(SimTime(50), SimTime(50));
        t.add_interval(SimTime(60), SimTime(40));
        assert!(t.is_empty());
        assert_eq!(t.busy_secs(7), 0.0);
    }

    #[test]
    fn merge_adds() {
        let mut a = BucketTrace::new(100);
        a.add_interval(SimTime(0), SimTime(100));
        let mut b = BucketTrace::new(100);
        b.add_interval(SimTime(100), SimTime(300));
        a.merge(&b);
        assert_eq!(a.len(), 3);
        let total: f64 = (0..a.len()).map(|i| a.busy_secs(i)).sum();
        assert!((total - 300e-9).abs() < 1e-15);
    }
}

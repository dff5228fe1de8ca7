//! Lock-free log-linear latency histogram (HDR-style).
//!
//! Values (nanoseconds, but any `u64` works) land in one of 976 buckets:
//! 16 linear sub-buckets per power-of-two group, so every bucket's width
//! is at most 1/16 of its lower bound and reported quantiles carry at
//! most ~6.25% relative error. [`LogHistogram::record`] is two relaxed
//! `fetch_add`s plus a `fetch_max` — no locks, no allocation — safe to
//! call from every send worker and PULL reader thread concurrently.
//! Histograms [`merge`](LogHistogram::merge) exactly (bucket-wise sums),
//! so per-thread or per-daemon instances can be combined for reporting.

use std::sync::atomic::{AtomicU64, Ordering};

/// Linear sub-buckets per power-of-two group, as a power of two.
const SUB_BITS: u32 = 4;
/// Sub-buckets per group (16).
const SUB: usize = 1 << SUB_BITS;
/// Total bucket count: group 0 is `[0, 16)` one-per-value; groups 1..=60
/// cover the rest of the `u64` range with 16 sub-buckets each.
const BUCKETS: usize = SUB * (64 - SUB_BITS as usize + 1);

/// Bucket index for `v`. Exact for `v < 16`; otherwise the top
/// `SUB_BITS + 1` significant bits select (group, sub-bucket).
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let group = (msb - SUB_BITS + 1) as usize;
    let sub = ((v >> (msb - SUB_BITS)) as usize) & (SUB - 1);
    group * SUB + sub
}

/// Largest value that falls into bucket `index` (inclusive upper bound).
fn bucket_upper(index: usize) -> u64 {
    if index < SUB {
        return index as u64;
    }
    let group = index / SUB;
    let sub = (index % SUB) as u64;
    let shift = (group - 1) as u32;
    let lower = (SUB as u64 + sub) << shift;
    // Parenthesized so the top bucket (upper bound exactly `u64::MAX`)
    // doesn't overflow mid-expression.
    lower + ((1u64 << shift) - 1)
}

/// A mergeable, lock-free log-linear histogram of `u64` values.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// An empty histogram (allocates its bucket array once, here).
    pub fn new() -> LogHistogram {
        LogHistogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value. Lock- and allocation-free; any `u64` is valid.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturate rather than wrap: a sum pinned at u64::MAX is visibly
        // broken, a silently wrapped one lies.
        let mut sum = self.sum.load(Ordering::Relaxed);
        loop {
            let next = sum.saturating_add(v);
            match self
                .sum
                .compare_exchange_weak(sum, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(actual) => sum = actual,
            }
        }
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Values recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Add every count of `other` into `self` (exact: bucket-wise sums).
    pub fn merge(&self, other: &LogHistogram) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        let osum = other.sum.load(Ordering::Relaxed);
        let mut sum = self.sum.load(Ordering::Relaxed);
        loop {
            let next = sum.saturating_add(osum);
            match self
                .sum
                .compare_exchange_weak(sum, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(actual) => sum = actual,
            }
        }
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Point-in-time copy for quantile queries (allocates; off hot path).
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value histogram state; quantiles are answered from here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    buckets: Vec<u64>,
    /// Values recorded.
    pub count: u64,
    /// Sum of recorded values (saturating).
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl HistSnapshot {
    /// An empty snapshot (identity for [`HistSnapshot::merge`]).
    pub fn empty() -> HistSnapshot {
        HistSnapshot {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q ∈ [0, 1]`: the recorded distribution's
    /// smallest bucket upper bound covering `⌈q·count⌉` values, capped at
    /// the observed max. 0 when empty. Relative error ≤ 1/16 of the true
    /// value (bucket width).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Add `other`'s counts into `self` (exact).
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += *theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_map_is_monotonic_and_in_range() {
        let probes = [
            0u64,
            1,
            15,
            16,
            17,
            31,
            32,
            100,
            1_000,
            65_535,
            65_536,
            u32::MAX as u64,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut last = 0usize;
        for &v in &probes {
            let b = bucket_of(v);
            assert!(b < BUCKETS, "bucket {b} out of range for {v}");
            assert!(b >= last, "bucket map not monotonic at {v}");
            last = b;
            // The bucket's upper bound is ≥ v and within 1/16 relative.
            let upper = bucket_upper(b);
            assert!(upper >= v, "upper {upper} < value {v}");
            assert!(upper - v <= v / SUB as u64 + 1, "bucket too wide at {v}");
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn exact_below_sixteen() {
        for v in 0..16u64 {
            assert_eq!(bucket_of(v), v as usize);
            assert_eq!(bucket_upper(v as usize), v);
        }
    }

    #[test]
    fn quantiles_of_known_distribution() {
        let h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.max, 1000);
        let p50 = s.p50();
        assert!((470..=530).contains(&p50), "p50 {p50}");
        let p99 = s.p99();
        assert!((930..=1000).contains(&p99), "p99 {p99}");
        assert_eq!(s.quantile(1.0), 1000, "p100 is the exact max");
        assert!((s.mean() - 500.5).abs() < 1.0);
    }

    #[test]
    fn empty_and_extreme_values() {
        let h = LogHistogram::new();
        let s = h.snapshot();
        assert!(s.is_empty());
        assert_eq!((s.quantile(0.5), s.max, s.mean() as u64), (0, 0, 0));
        h.record(0);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.quantile(0.0), 0);
        assert_eq!(s.quantile(1.0), u64::MAX);
        // Sum saturates instead of wrapping.
        h.record(u64::MAX);
        assert_eq!(h.snapshot().sum, u64::MAX);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let a = LogHistogram::new();
        let b = LogHistogram::new();
        let combined = LogHistogram::new();
        for v in [3u64, 17, 999, 123_456, 7] {
            a.record(v);
            combined.record(v);
        }
        for v in [1u64, 1 << 40, 65_000] {
            b.record(v);
            combined.record(v);
        }
        a.merge(&b);
        assert_eq!(a.snapshot(), combined.snapshot());
    }
}

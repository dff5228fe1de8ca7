//! Order statistics the ledger reports: percentiles, quartiles, and the
//! per-slice and trimmed throughput of a window.

/// Sort a copy of `values` ascending (NaN-free input).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are never NaN"));
    v
}

/// The `p`-th percentile (`0.0..=100.0`) of an ascending slice, linearly
/// interpolated between closest ranks. Empty input reads 0.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    percentile_sorted(&sorted(values), 50.0)
}

/// `(q1, median, q3)` of unsorted values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values);
    (
        percentile_sorted(&s, 25.0),
        percentile_sorted(&s, 50.0),
        percentile_sorted(&s, 75.0),
    )
}

/// One delivery in the measured window: when it completed (nanoseconds on
/// any monotonic clock) and how many samples it carried.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delivery {
    pub at_ns: u64,
    pub samples: u64,
}

/// `(nanoseconds, samples)` of each of `slices` consecutive runs of equal
/// batch count. `start_ns` is when the window opened (the completion time
/// of the last warm-up batch). Trailing deliveries that do not fill a
/// slice are left out, so every slice covers the same amount of work; with
/// fewer deliveries than slices there are none.
fn slice_parts(start_ns: u64, deliveries: &[Delivery], slices: usize) -> Vec<(u64, u64)> {
    let per = deliveries.len() / slices.max(1);
    if per == 0 {
        return Vec::new();
    }
    let mut opened = start_ns;
    deliveries
        .chunks_exact(per)
        .take(slices)
        .map(|chunk| {
            let closed = chunk[per - 1].at_ns;
            let part = (
                closed.saturating_sub(opened),
                chunk.iter().map(|d| d.samples).sum(),
            );
            opened = closed;
            part
        })
        .collect()
}

fn rate(nanos: u64, samples: u64) -> f64 {
    if nanos == 0 {
        0.0
    } else {
        samples as f64 * 1e9 / nanos as f64
    }
}

/// Samples per second over each slice of the window.
pub fn slice_rates(start_ns: u64, deliveries: &[Delivery], slices: usize) -> Vec<f64> {
    slice_parts(start_ns, deliveries, slices)
        .into_iter()
        .map(|(nanos, samples)| rate(nanos, samples))
        .collect()
}

/// Rate over the window with the `trim` fastest and `trim` slowest slices
/// left out: samples in the kept slices over the time the kept slices
/// took. Unlike the median of slice rates it still averages over a stream
/// that delivers in bursts; unlike the whole-window rate it drops a slice
/// that a stall landed in. 0 when there is nothing to trim from.
pub fn trimmed_rate(start_ns: u64, deliveries: &[Delivery], slices: usize, trim: usize) -> f64 {
    let mut parts = slice_parts(start_ns, deliveries, slices);
    if parts.len() <= 2 * trim {
        return 0.0;
    }
    parts.sort_unstable();
    let kept = &parts[trim..parts.len() - trim];
    rate(
        kept.iter().map(|p| p.0).sum(),
        kept.iter().map(|p| p.1).sum(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = sorted(&[40.0, 10.0, 30.0, 20.0]);
        assert_eq!(percentile_sorted(&s, 0.0), 10.0);
        assert_eq!(percentile_sorted(&s, 100.0), 40.0);
        assert_eq!(percentile_sorted(&s, 50.0), 25.0);
        assert!((percentile_sorted(&s, 95.0) - 38.5).abs() < 1e-9);
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
        assert_eq!(percentile_sorted(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn quartiles_of_one_to_nine() {
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(quartiles(&v), (3.0, 5.0, 7.0));
        assert_eq!(median(&[3.0, 1.0]), 2.0);
    }

    #[test]
    fn slice_rates_ignore_a_stall_in_one_slice() {
        // 8 batches of 10 samples, one every millisecond, except a 100 ms
        // stall before the fifth: only the slice holding it slows down.
        let mut t = 0u64;
        let deliveries: Vec<Delivery> = (0..8)
            .map(|i| {
                t += if i == 4 { 100_000_000 } else { 1_000_000 };
                Delivery {
                    at_ns: t,
                    samples: 10,
                }
            })
            .collect();
        let rates = slice_rates(0, &deliveries, 4);
        assert_eq!(rates.len(), 4);
        assert!((rates[0] - 10_000.0).abs() < 1e-6);
        assert!(rates[2] < 200.0);
        assert!((median(&rates) - 10_000.0).abs() < 1e-6);
    }

    #[test]
    fn trimmed_rate_drops_a_stall_but_averages_bursts() {
        // 40 batches of 10 samples in bursts: four 1 ms apart, then a 6 ms
        // gap. 10 samples per 2.25 ms on average.
        let mut t = 0u64;
        let mut deliveries: Vec<Delivery> = (0..40)
            .map(|i| {
                t += if i % 4 == 0 { 6_000_000 } else { 1_000_000 };
                Delivery {
                    at_ns: t,
                    samples: 10,
                }
            })
            .collect();
        let steady = trimmed_rate(0, &deliveries, 10, 2);
        assert!((steady - 10.0 / 2.25e-3).abs() < 1.0, "{steady}");
        // A 1 s stall inside one slice is trimmed away with it.
        for d in &mut deliveries[21..] {
            d.at_ns += 1_000_000_000;
        }
        assert!((trimmed_rate(0, &deliveries, 10, 2) - steady).abs() < 1.0);
        assert!(trimmed_rate(0, &deliveries, 10, 0) < steady / 5.0);
        // Nothing to trim from.
        assert_eq!(trimmed_rate(0, &deliveries, 4, 2), 0.0);
        assert_eq!(trimmed_rate(0, &deliveries[..3], 10, 2), 0.0);
    }

    #[test]
    fn slice_rates_drop_the_unfilled_tail() {
        let deliveries: Vec<Delivery> = (1..=7)
            .map(|i| Delivery {
                at_ns: i * 1_000,
                samples: 1,
            })
            .collect();
        // 7 deliveries in 3 slices: 2 per slice, the seventh is left out.
        assert_eq!(slice_rates(0, &deliveries, 3).len(), 3);
        assert!(slice_rates(0, &deliveries, 20).is_empty());
    }
}

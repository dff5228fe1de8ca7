//! Token-bucket rate limiting, used by the emulated NFS mount
//! (`emlio-netem`) to share one link's bandwidth among its readers.

use crate::clock::SharedClock;

/// A token bucket: capacity `burst` tokens, refilled at `rate` tokens/sec.
/// Tokens here are bytes. Not thread-safe by itself — wrap in a mutex (what
/// the NFS mount does) or use one bucket per thread.
pub struct TokenBucket {
    clock: SharedClock,
    rate_per_sec: f64,
    burst: f64,
    tokens: f64,
    last_refill_nanos: u64,
}

impl TokenBucket {
    /// New bucket, initially full.
    ///
    /// # Panics
    /// Panics if `rate_per_sec` or `burst` is not strictly positive.
    pub fn new(clock: SharedClock, rate_per_sec: f64, burst: f64) -> Self {
        assert!(rate_per_sec > 0.0, "rate must be positive");
        assert!(burst > 0.0, "burst must be positive");
        let now = clock.now_nanos();
        TokenBucket {
            clock,
            rate_per_sec,
            burst,
            tokens: burst,
            last_refill_nanos: now,
        }
    }

    fn refill(&mut self) {
        let now = self.clock.now_nanos();
        let dt = now.saturating_sub(self.last_refill_nanos) as f64 / 1e9;
        self.tokens = (self.tokens + dt * self.rate_per_sec).min(self.burst);
        self.last_refill_nanos = now;
    }

    /// Nanoseconds until `n` tokens will be available (0 if available now).
    /// Requests larger than the burst are paced at the steady rate.
    pub fn delay_for(&mut self, n: f64) -> u64 {
        self.refill();
        if self.tokens >= n {
            0
        } else {
            let deficit = n - self.tokens;
            crate::secs_to_nanos(deficit / self.rate_per_sec)
        }
    }

    /// Blockingly take `n` tokens, sleeping on the bucket's clock as needed.
    /// Oversized requests (n > burst) are allowed and simply paced.
    pub fn take(&mut self, n: f64) {
        loop {
            self.refill();
            if self.tokens >= n {
                self.tokens -= n;
                return;
            }
            // Allow the balance to go negative for oversized requests so a
            // single huge write is paced once rather than deadlocking.
            if n > self.burst {
                let deficit = n - self.tokens;
                self.tokens = 0.0;
                self.clock
                    .sleep_nanos(crate::secs_to_nanos(deficit / self.rate_per_sec));
                return;
            }
            let wait = self.delay_for(n).max(1);
            self.clock.sleep_nanos(wait);
        }
    }

    /// Steady-state rate in tokens/second.
    pub fn rate(&self) -> f64 {
        self.rate_per_sec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::RealClock;

    // The clock is real, so every assertion below holds however long the
    // thread is descheduled between two statements: where a longer gap
    // would refill the bucket, the assertion allows for the time measured.

    #[test]
    fn burst_then_empty() {
        let clock = RealClock::shared();
        let mut tb = TokenBucket::new(clock.clone(), 1000.0, 100.0);
        assert_eq!(tb.delay_for(100.0), 0);
        let t0 = clock.now_nanos();
        tb.take(100.0);
        // One token is 1 ms of refill away.
        assert!(tb.delay_for(1.0) > 0 || clock.now_nanos() - t0 >= 1_000_000);
        clock.sleep_nanos(crate::secs_to_nanos(0.05)); // refills ≥ 50 tokens
        assert_eq!(tb.delay_for(50.0), 0);
        let t1 = clock.now_nanos();
        tb.take(50.0);
        // At most 100 − 50 tokens are left.
        assert!(tb.delay_for(51.0) > 0 || clock.now_nanos() - t1 >= 1_000_000);
    }

    #[test]
    fn refill_caps_at_burst() {
        let clock = RealClock::shared();
        let mut tb = TokenBucket::new(clock.clone(), 1000.0, 100.0);
        clock.sleep_nanos(crate::secs_to_nanos(0.2)); // twice a full refill
        assert_eq!(tb.delay_for(100.0), 0);
        assert!(tb.delay_for(101.0) > 0, "the refill stops at the burst");
        let t0 = clock.now_nanos();
        tb.take(100.0);
        assert!(tb.delay_for(1.0) > 0 || clock.now_nanos() - t0 >= 1_000_000);
    }

    #[test]
    fn delay_estimate() {
        let clock = RealClock::shared();
        let mut tb = TokenBucket::new(clock.clone(), 1000.0, 100.0);
        assert_eq!(tb.delay_for(100.0), 0);
        let t0 = clock.now_nanos();
        tb.take(100.0);
        let d = tb.delay_for(10.0);
        let elapsed = clock.now_nanos() - t0;
        // 10 ms from empty, less whatever refilled since the take.
        assert!(d <= 10_001_000, "expect at most 10ms, got {d}");
        assert!(
            d + elapsed >= 9_999_000,
            "expect 10ms - {elapsed}ns, got {d}"
        );
    }

    #[test]
    fn blocking_take_with_real_clock() {
        let clock = RealClock::shared();
        // 1 MB/s, 1 KB burst: taking 4 KB should take ~3ms after burst.
        let mut tb = TokenBucket::new(clock.clone(), 1_000_000.0, 1_000.0);
        let t0 = clock.now_nanos();
        tb.take(4_000.0);
        let elapsed = clock.now_nanos() - t0;
        assert!(
            elapsed >= 2_500_000,
            "expected ≥2.5ms pacing, got {}ns",
            elapsed
        );
    }

    #[test]
    #[should_panic]
    fn zero_rate_rejected() {
        let _ = TokenBucket::new(RealClock::shared(), 0.0, 1.0);
    }
}

//! [`RetrySource`] — the retry/backoff layer of the read stack.
//!
//! Wraps any [`RangeSource`] and absorbs *transient* failures: an
//! [`RecordError::Io`](crate::RecordError::Io) from the inner source is retried up to the
//! policy's budget, sleeping a deterministic jittered exponential backoff
//! between attempts ([`emlio_util::fault::RetryPolicy`]). Permanent
//! errors — corrupt framing, bad indexes, truncation — are never retried:
//! re-reading corrupt bytes yields the same corrupt bytes, and the whole
//! point of the delivery guarantee is that those surface as *detectable
//! errors*, not as spin.
//!
//! In the daemon's stack the retry layer sits directly above the root
//! (`emlio-core`'s `ReadStack` docs have the whole order), so a cache hit
//! never pays a retry check and a backing read that succeeds on attempt
//! two is invisible to everything above except the `io_retries` counter
//! and the `fault_inject` stage (which accounts the backoff sleeps).

use crate::source::{BlockKey, BlockRead, RangeSource};
use crate::Result;
use emlio_util::fault::{mix64, RetryPolicy};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Live counters for one [`RetrySource`] (shared; snapshot cheaply).
#[derive(Debug, Default)]
pub struct RetryStats {
    /// Transient errors absorbed by a retry that went on to succeed or
    /// to retry again (one per backoff sleep).
    pub retries: AtomicU64,
    /// Operations that exhausted the retry budget and surfaced the error.
    pub giveups: AtomicU64,
    /// Total time spent sleeping in backoff, in nanoseconds.
    pub backoff_nanos: AtomicU64,
}

/// Point-in-time copy of [`RetryStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStatsSnapshot {
    /// Absorbed transient errors (backoff sleeps taken).
    pub retries: u64,
    /// Operations that exhausted the budget.
    pub giveups: u64,
    /// Total backoff sleep time in nanoseconds.
    pub backoff_nanos: u64,
}

impl RetryStats {
    /// Plain-value copy of the counters.
    pub fn snapshot(&self) -> RetryStatsSnapshot {
        RetryStatsSnapshot {
            retries: self.retries.load(Ordering::Relaxed),
            giveups: self.giveups.load(Ordering::Relaxed),
            backoff_nanos: self.backoff_nanos.load(Ordering::Relaxed),
        }
    }
}

/// A [`RangeSource`] decorator that retries transient inner failures with
/// bounded, deterministically jittered exponential backoff.
pub struct RetrySource {
    inner: Arc<dyn RangeSource>,
    policy: RetryPolicy,
    stats: Arc<RetryStats>,
    recorder: OnceLock<Arc<emlio_obs::StageRecorder>>,
}

impl RetrySource {
    /// Wrap `inner`, retrying per `policy`.
    pub fn new(inner: Arc<dyn RangeSource>, policy: RetryPolicy) -> RetrySource {
        RetrySource {
            inner,
            policy,
            stats: Arc::new(RetryStats::default()),
            recorder: OnceLock::new(),
        }
    }

    /// The retry policy in force.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Shared handle to the retry counters (the daemon's metrics snapshot
    /// reads these as `io_retries` / `io_giveups`).
    pub fn stats(&self) -> Arc<RetryStats> {
        self.stats.clone()
    }

    /// Record backoff sleeps as [`emlio_obs::Stage::FaultInject`] time in
    /// `recorder`. First call wins; later calls are ignored.
    pub fn set_recorder(&self, recorder: Arc<emlio_obs::StageRecorder>) {
        let _ = self.recorder.set(recorder);
    }

    /// Run `op`, retrying transient (`RecordError::Io`) failures with the
    /// policy's backoff, salted by `salt` so concurrent retries of
    /// different blocks decorrelate.
    fn with_retry<T>(&self, salt: u64, mut op: impl FnMut() -> Result<T>) -> Result<T> {
        let mut attempt = 0u32;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if !e.is_transient() => return Err(e),
                Err(e) => {
                    if attempt >= self.policy.retries {
                        self.stats.giveups.fetch_add(1, Ordering::Relaxed);
                        return Err(e);
                    }
                    let backoff = self.policy.backoff(attempt, salt);
                    self.stats.retries.fetch_add(1, Ordering::Relaxed);
                    self.stats
                        .backoff_nanos
                        .fetch_add(backoff.as_nanos() as u64, Ordering::Relaxed);
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                    if let Some(rec) = self.recorder.get() {
                        rec.record(emlio_obs::Stage::FaultInject, backoff.as_nanos() as u64);
                    }
                    attempt += 1;
                }
            }
        }
    }
}

/// Backoff-jitter salt for one block key (pure, so a replayed schedule
/// sleeps the same backoffs).
fn key_salt(key: &BlockKey) -> u64 {
    mix64((key.shard_id as u64) << 48 ^ (key.start as u64) << 24 ^ key.end as u64)
}

impl RangeSource for RetrySource {
    fn read_block(&self, key: &BlockKey) -> Result<BlockRead> {
        self.with_retry(key_salt(key), || self.inner.read_block(key))
    }

    fn block_len(&self, key: &BlockKey) -> Option<u64> {
        self.inner.block_len(key)
    }

    fn describe(&self) -> String {
        format!(
            "retry({}x, base {:?}) -> {}",
            self.policy.retries,
            self.policy.base,
            self.inner.describe()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordError;
    use crate::source::FnSource;
    use std::collections::HashMap;
    use std::io;
    use std::sync::Mutex;
    use std::time::Duration;

    fn key(shard_id: u32, start: usize, end: usize) -> BlockKey {
        BlockKey {
            shard_id,
            start,
            end,
        }
    }

    /// Inner source failing the first `fail_first` reads of each key with
    /// a transient I/O error, then succeeding.
    fn flaky(fail_first: u64) -> FnSource<impl Fn(&BlockKey) -> io::Result<Vec<u8>> + Send + Sync> {
        let calls: Mutex<HashMap<BlockKey, u64>> = Mutex::new(HashMap::new());
        FnSource::new(move |k: &BlockKey| {
            let mut calls = calls.lock().unwrap();
            let n = calls.entry(*k).or_insert(0);
            *n += 1;
            if *n <= fail_first {
                Err(io::Error::other("injected transient"))
            } else {
                Ok(vec![k.shard_id as u8; k.end - k.start])
            }
        })
    }

    #[test]
    fn transient_errors_absorbed_within_budget() {
        let src = RetrySource::new(
            Arc::new(flaky(2)),
            RetryPolicy::new(3, Duration::from_micros(50)).with_seed(7),
        );
        let read = src.read_block(&key(4, 0, 8)).unwrap();
        assert_eq!(&read.data[..], &[4u8; 8]);
        let s = src.stats().snapshot();
        assert_eq!(s.retries, 2, "two transient failures absorbed");
        assert_eq!(s.giveups, 0);
        assert!(s.backoff_nanos > 0, "backoff time was accounted");
        assert!(src.describe().starts_with("retry(3x"));
    }

    #[test]
    fn budget_exhaustion_surfaces_the_error_and_counts_a_giveup() {
        let src = RetrySource::new(
            Arc::new(FnSource::new(|_: &BlockKey| {
                Err::<Vec<u8>, _>(io::Error::other("always down"))
            })),
            RetryPolicy::new(2, Duration::from_micros(10)),
        );
        let err = src.read_block(&key(0, 0, 1)).unwrap_err();
        assert!(matches!(err, RecordError::Io(_)));
        let s = src.stats().snapshot();
        assert_eq!((s.retries, s.giveups), (2, 1));
    }

    #[test]
    fn permanent_errors_are_never_retried() {
        struct Corrupt(AtomicU64);
        impl RangeSource for Corrupt {
            fn read_block(&self, _: &BlockKey) -> Result<BlockRead> {
                self.0.fetch_add(1, Ordering::Relaxed);
                Err(RecordError::CorruptPayload { offset: 0 })
            }
            fn describe(&self) -> String {
                "corrupt".into()
            }
        }
        let inner = Arc::new(Corrupt(AtomicU64::new(0)));
        let src = RetrySource::new(
            inner.clone(),
            RetryPolicy::new(5, Duration::from_micros(10)),
        );
        assert!(matches!(
            src.read_block(&key(0, 0, 1)),
            Err(RecordError::CorruptPayload { .. })
        ));
        assert_eq!(inner.0.load(Ordering::Relaxed), 1, "exactly one attempt");
        let s = src.stats().snapshot();
        assert_eq!((s.retries, s.giveups), (0, 0), "not counted as transient");
    }

    #[test]
    fn backoff_sleeps_are_recorded_as_fault_inject_stage() {
        let rec = Arc::new(emlio_obs::StageRecorder::new());
        let src = RetrySource::new(
            Arc::new(flaky(1)),
            RetryPolicy::new(2, Duration::from_micros(100)).with_seed(11),
        );
        src.set_recorder(rec.clone());
        src.read_block(&key(0, 0, 4)).unwrap();
        let snap = rec.snapshot();
        let h = snap.stage(emlio_obs::Stage::FaultInject);
        assert_eq!(h.count, 1, "one backoff sleep recorded");
        assert!(h.sum > 0);
    }
}

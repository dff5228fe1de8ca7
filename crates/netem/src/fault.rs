//! [`FaultSource`] — the chaos layer of the composable read stack.
//!
//! Wraps any [`RangeSource`] and replays a seeded [`FaultInjector`] at
//! the [`site::SOURCE_READ`] failpoint
//! (or a caller-chosen site): injected **errors** surface as
//! [`RecordError::Io`] — the transient class the retry layer absorbs —
//! **latency spikes** delay the read and are accounted under the
//! `fault_inject` stage, and **short reads** truncate the returned block
//! so downstream framing/CRC checks must catch them (detectable, never
//! silent).
//!
//! In a chaos run the fault layer wraps the root a daemon is opened over,
//! so it sits *below* the stack's retry layer (`emlio-core`'s `ReadStack`
//! docs have the whole order) and injected transient errors exercise the
//! real backoff path exactly as a flaky device would.

use emlio_tfrecord::source::{BlockKey, BlockRead, RangeSource};
use emlio_tfrecord::{RecordError, Result};
use emlio_util::fault::{site, FaultDecision, FaultInjector};
use std::io;
use std::sync::{Arc, OnceLock};

/// A [`RangeSource`] decorator driven by a seeded fault injector.
pub struct FaultSource {
    inner: Arc<dyn RangeSource>,
    injector: Arc<FaultInjector>,
    site: String,
    recorder: OnceLock<Arc<emlio_obs::StageRecorder>>,
}

impl FaultSource {
    /// Wrap `inner`, consulting `injector` at
    /// [`site::SOURCE_READ`] once per block read.
    pub fn new(inner: Arc<dyn RangeSource>, injector: Arc<FaultInjector>) -> FaultSource {
        FaultSource {
            inner,
            injector,
            site: site::SOURCE_READ.to_string(),
            recorder: OnceLock::new(),
        }
    }

    /// Consult the injector under `site` instead of the default.
    pub fn with_site(mut self, site: &str) -> FaultSource {
        self.site = site.to_string();
        self
    }

    /// The injector this layer replays (seed, counters, stats).
    pub fn injector(&self) -> &Arc<FaultInjector> {
        &self.injector
    }

    /// Record injected latency spikes as
    /// [`emlio_obs::Stage::FaultInject`] time. First call wins.
    pub fn set_recorder(&self, recorder: Arc<emlio_obs::StageRecorder>) {
        let _ = self.recorder.set(recorder);
    }

    /// The injected-error payload: names the site and seed so a surfaced
    /// giveup is self-describing in logs.
    fn injected_error(&self) -> RecordError {
        RecordError::Io(io::Error::other(format!(
            "injected fault at {} (seed {})",
            self.site,
            self.injector.plan().seed()
        )))
    }

    fn inject_latency(&self, d: std::time::Duration) {
        std::thread::sleep(d);
        if let Some(rec) = self.recorder.get() {
            rec.record(emlio_obs::Stage::FaultInject, d.as_nanos() as u64);
        }
    }

    /// Draw the next decision for one block read: an injected error fails
    /// it, a latency spike is slept out right here, and `Ok(true)` asks
    /// for the block to be cut short once it has been read.
    fn draw(&self) -> Result<bool> {
        match self.injector.decide(&self.site) {
            FaultDecision::None => Ok(false),
            FaultDecision::Error => Err(self.injected_error()),
            FaultDecision::Latency(d) => {
                self.inject_latency(d);
                Ok(false)
            }
            FaultDecision::ShortRead => Ok(true),
        }
    }
}

/// Serve only the front half of the block: record framing is cut
/// mid-stream, so decode must report truncation.
fn cut_short(read: &mut BlockRead) {
    read.data = read.data.slice(0..read.data.len() / 2);
}

impl RangeSource for FaultSource {
    fn read_block(&self, key: &BlockKey) -> Result<BlockRead> {
        if !self.draw()? {
            return self.inner.read_block(key);
        }
        let mut read = self.inner.read_block(key)?;
        cut_short(&mut read);
        Ok(read)
    }

    fn block_len(&self, key: &BlockKey) -> Option<u64> {
        self.inner.block_len(key)
    }

    fn describe(&self) -> String {
        format!(
            "fault({}, seed {}) -> {}",
            self.site,
            self.injector.plan().seed(),
            self.inner.describe()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emlio_tfrecord::source::FnSource;
    use emlio_tfrecord::RetrySource;
    use emlio_util::fault::{FaultPlan, FaultSpec, RetryPolicy};
    use std::time::Duration;

    fn key(start: usize, end: usize) -> BlockKey {
        BlockKey {
            shard_id: 0,
            start,
            end,
        }
    }

    fn block_source() -> Arc<dyn RangeSource> {
        Arc::new(FnSource::new(|k: &BlockKey| Ok(vec![7u8; k.end - k.start])))
    }

    #[test]
    fn always_error_site_fails_every_read_transiently() {
        let inj = FaultInjector::new(
            FaultPlan::new(3).with_site(site::SOURCE_READ, FaultSpec::errors(1.0)),
        );
        let src = FaultSource::new(block_source(), inj.clone());
        let err = src.read_block(&key(0, 4)).unwrap_err();
        assert!(
            err.is_transient(),
            "injected errors are the retryable class"
        );
        assert!(err.to_string().contains("seed 3"), "error names the seed");
        assert_eq!(inj.stats().errors, 1);
    }

    #[test]
    fn short_reads_truncate_detectably() {
        let inj = FaultInjector::new(
            FaultPlan::new(5).with_site(site::SOURCE_READ, FaultSpec::short_reads(1.0)),
        );
        let src = FaultSource::new(block_source(), inj);
        let read = src.read_block(&key(0, 8)).unwrap();
        assert_eq!(read.data.len(), 4, "half the block survives");
    }

    #[test]
    fn latency_spikes_delay_then_serve_and_are_recorded() {
        let inj = FaultInjector::new(FaultPlan::new(9).with_site(
            site::SOURCE_READ,
            FaultSpec::latency(1.0, Duration::from_millis(2)),
        ));
        let src = FaultSource::new(block_source(), inj);
        let rec = emlio_obs::StageRecorder::shared();
        src.set_recorder(rec.clone());
        let t0 = std::time::Instant::now();
        let read = src.read_block(&key(0, 4)).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(2));
        assert_eq!(&read.data[..], &[7u8; 4]);
        assert_eq!(rec.snapshot().stage(emlio_obs::Stage::FaultInject).count, 1);
    }

    #[test]
    fn clear_plan_is_a_pass_through() {
        let inj = FaultInjector::new(FaultPlan::new(1));
        let src = FaultSource::new(block_source(), inj.clone());
        let read = src.read_block(&key(0, 4)).unwrap();
        assert_eq!(&read.data[..], &[7u8; 4]);
        assert_eq!(inj.stats().total(), 0);
        assert!(src.describe().starts_with("fault(source.read"));
    }

    #[test]
    fn retry_above_fault_absorbs_intermittent_errors() {
        // ~40% injected errors, retry budget 8: under this seed every read
        // succeeds, and the absorbed faults show up as retries with zero
        // giveups. (Deterministic: the schedule is a pure function of the
        // seed, so this never flakes.)
        let inj = FaultInjector::new(
            FaultPlan::new(0xFEED).with_site(site::SOURCE_READ, FaultSpec::errors(0.4)),
        );
        let fault = Arc::new(FaultSource::new(block_source(), inj.clone()));
        let retry = RetrySource::new(fault, RetryPolicy::new(8, Duration::from_micros(20)));
        for i in 0..32 {
            let read = retry.read_block(&key(i, i + 4)).unwrap();
            assert_eq!(&read.data[..], &[7u8; 4]);
        }
        let s = retry.stats().snapshot();
        assert!(inj.stats().errors > 0, "schedule injected something");
        assert_eq!(s.retries, inj.stats().errors, "every injection retried");
        assert_eq!(s.giveups, 0);
    }
}

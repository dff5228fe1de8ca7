//! Output verification: what was delivered against what was planned.
//!
//! Content (label, payload length, payload CRC32C against the table built
//! at dataset-generation time) is checked wherever payloads are visible;
//! delivery (each planned batch once, each sample id once per daemon and
//! epoch) is checked where the consumer takes the batch.

use crate::sut::{self, Delivered, SampleFacts};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Checks sample content. Shared between the consumer and, on pipeline
/// workloads, the raw tap on the feeder thread.
pub struct ContentChecker {
    facts: Arc<Vec<SampleFacts>>,
    sample_bytes: usize,
    /// Epochs before this one are warm-up: every payload is CRC-checked.
    warm_epochs: u32,
    pub crc_checked: AtomicU64,
    pub bad_batches: AtomicU64,
}

/// In the measured window one batch in this many is CRC-checked, chosen
/// by `batch_id` so that both sides of a comparison check the same ones.
const WINDOW_CRC_EVERY: u64 = 16;

impl ContentChecker {
    pub fn new(
        facts: Arc<Vec<SampleFacts>>,
        sample_bytes: u64,
        warm_epochs: u32,
    ) -> ContentChecker {
        ContentChecker {
            facts,
            sample_bytes: sample_bytes as usize,
            warm_epochs,
            crc_checked: AtomicU64::new(0),
            bad_batches: AtomicU64::new(0),
        }
    }

    /// Check a batch that still carries payloads, CRC included on the
    /// batches the sampling rule picks.
    pub fn check_sampled(&self, d: &Delivered) -> bool {
        let crc = d.epoch < self.warm_epochs || d.batch_id.is_multiple_of(WINDOW_CRC_EVERY);
        self.check(d, crc)
    }

    /// Check a batch that still carries payloads; `crc` = every payload's
    /// CRC too.
    pub fn check(&self, d: &Delivered, crc: bool) -> bool {
        let ok = d.samples.iter().all(|s| {
            let Some(facts) = usize::try_from(s.id).ok().and_then(|i| self.facts.get(i)) else {
                return false;
            };
            s.label == facts.label
                && s.data.len() == self.sample_bytes
                && (!crc || sut::crc32c(&s.data) == facts.crc)
        });
        if crc {
            self.crc_checked
                .fetch_add(d.samples.len() as u64, Ordering::Relaxed);
        }
        if !ok {
            self.bad_batches.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }

    /// Check a batch that came out of the pipeline: ids and labels against
    /// the table, one tensor of `shape` per sample.
    pub fn check_tensors(&self, d: &Delivered, shape: (usize, usize, usize)) -> bool {
        let labels_ok = d.samples.iter().all(|s| {
            usize::try_from(s.id)
                .ok()
                .and_then(|i| self.facts.get(i))
                .is_some_and(|f| f.label == s.label)
        });
        let ok = labels_ok
            && d.tensors
                .is_some_and(|t| t.count == d.samples.len() && t.uniform_shape == Some(shape));
        if !ok {
            self.bad_batches.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }
}

/// Exactly-once accounting against the plan.
pub struct Ledger {
    /// `planned[daemon][epoch]` = batches that daemon sends that epoch.
    planned: Vec<Vec<u64>>,
    samples_per_epoch: usize,
    seen_samples: Vec<Vec<Vec<u64>>>,
    seen_batches: Vec<Vec<HashSet<u64>>>,
    ok_batches: u64,
    ok_samples: u64,
}

impl Ledger {
    pub fn new(planned: Vec<Vec<u64>>, samples_per_epoch: u64) -> Ledger {
        let n = samples_per_epoch as usize;
        let seen_samples = planned
            .iter()
            .map(|epochs| vec![vec![0u64; n.div_ceil(64)]; epochs.len()])
            .collect();
        let seen_batches = planned
            .iter()
            .map(|epochs| vec![HashSet::new(); epochs.len()])
            .collect();
        Ledger {
            planned,
            samples_per_epoch: n,
            seen_samples,
            seen_batches,
            ok_batches: 0,
            ok_samples: 0,
        }
    }

    pub fn planned_batches(&self) -> u64 {
        self.planned.iter().flatten().sum()
    }

    /// Batches planned for epochs before `epoch`, all daemons together.
    pub fn planned_before(&self, epoch: u32) -> u64 {
        self.planned
            .iter()
            .flat_map(|epochs| epochs.iter().take(epoch as usize))
            .sum()
    }

    /// Record a delivery whose content check said `content_ok`. Returns
    /// whether the batch counts as delivered: planned, not seen before,
    /// carrying only sample ids not yet seen from that daemon that epoch.
    pub fn record(&mut self, d: &Delivered, content_ok: bool) -> bool {
        let Some(bits) = self
            .seen_samples
            .get_mut(d.daemon)
            .and_then(|e| e.get_mut(d.epoch as usize))
        else {
            return false;
        };
        let fresh_batch = self.seen_batches[d.daemon][d.epoch as usize].insert(d.batch_id);
        let mut fresh_samples = true;
        for s in &d.samples {
            let Some(id) = usize::try_from(s.id)
                .ok()
                .filter(|&i| i < self.samples_per_epoch)
            else {
                fresh_samples = false;
                continue;
            };
            let (word, bit) = (id / 64, 1u64 << (id % 64));
            fresh_samples &= bits[word] & bit == 0;
            bits[word] |= bit;
        }
        let ok = content_ok && fresh_batch && fresh_samples && !d.samples.is_empty();
        if ok {
            self.ok_batches += 1;
            self.ok_samples += d.samples.len() as u64;
        }
        ok
    }

    /// Planned batches that were lost, duplicated, corrupt, or not
    /// delivered before the stream ended.
    pub fn failed_batches(&self) -> u64 {
        self.planned_batches().saturating_sub(self.ok_batches)
    }

    /// Every planned batch delivered once and every sample id seen once
    /// per daemon and epoch.
    pub fn complete(&self) -> bool {
        self.failed_batches() == 0
            && self.ok_samples
                == self.planned.iter().map(|e| e.len() as u64).sum::<u64>()
                    * self.samples_per_epoch as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sut::{Sample, TensorFacts};
    use bytes::Bytes;

    fn delivered(daemon: usize, epoch: u32, batch_id: u64, ids: &[u64]) -> Delivered {
        Delivered {
            daemon,
            epoch,
            batch_id,
            wait_ns: 0,
            age_ns: 0,
            samples: ids
                .iter()
                .map(|&id| Sample {
                    id,
                    label: id as u32 % 3,
                    data: Bytes::from(vec![id as u8; 4]),
                })
                .collect(),
            tensors: None,
        }
    }

    fn checker() -> ContentChecker {
        let facts = (0..4u64)
            .map(|id| SampleFacts {
                crc: sut::crc32c(&[id as u8; 4]),
                label: id as u32 % 3,
            })
            .collect();
        ContentChecker::new(Arc::new(facts), 4, 1)
    }

    #[test]
    fn ledger_counts_exactly_once() {
        let mut l = Ledger::new(vec![vec![2, 2]], 4);
        assert_eq!((l.planned_batches(), l.planned_before(1)), (4, 2));
        assert!(l.record(&delivered(0, 0, 0, &[0, 1]), true));
        assert!(l.record(&delivered(0, 0, 1, &[2, 3]), true));
        // Same ids again in the next epoch are fine; in the same epoch not.
        assert!(l.record(&delivered(0, 1, 0, &[0, 1]), true));
        assert!(
            !l.record(&delivered(0, 1, 0, &[2, 3]), true),
            "duplicate batch id"
        );
        assert!(
            !l.record(&delivered(0, 1, 5, &[1]), true),
            "duplicate sample"
        );
        assert!(
            !l.record(&delivered(0, 7, 0, &[0]), true),
            "unplanned epoch"
        );
        assert!(
            !l.record(&delivered(3, 0, 0, &[0]), true),
            "unplanned daemon"
        );
        assert_eq!(l.failed_batches(), 1);
        assert!(!l.complete());
    }

    #[test]
    fn ledger_complete_needs_every_batch_and_content() {
        let mut l = Ledger::new(vec![vec![1], vec![1]], 2);
        assert!(l.record(&delivered(0, 0, 0, &[0, 1]), true));
        assert!(
            !l.record(&delivered(1, 0, 0, &[0, 1]), false),
            "corrupt content"
        );
        assert_eq!(l.failed_batches(), 1);
        let mut l = Ledger::new(vec![vec![1], vec![1]], 2);
        assert!(l.record(&delivered(0, 0, 0, &[0, 1]), true));
        assert!(l.record(&delivered(1, 0, 0, &[0, 1]), true));
        assert!(l.complete());
    }

    #[test]
    fn content_checks_label_length_and_crc() {
        let c = checker();
        assert!(c.check(&delivered(0, 0, 0, &[0, 1, 2, 3]), true));
        let mut wrong_label = delivered(0, 0, 0, &[1]);
        wrong_label.samples[0].label = 2;
        assert!(!c.check(&wrong_label, false));
        let mut short = delivered(0, 0, 0, &[1]);
        short.samples[0].data = Bytes::from(vec![1u8; 3]);
        assert!(!c.check(&short, false));
        let mut flipped = delivered(0, 0, 0, &[1]);
        flipped.samples[0].data = Bytes::from(vec![1, 1, 9, 1]);
        assert!(c.check(&flipped, false), "length and label still match");
        assert!(!c.check(&flipped, true), "the CRC does not");
        assert!(!c.check(&delivered(0, 0, 0, &[99]), false), "unknown id");
        assert_eq!(c.bad_batches.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn sampling_rule_covers_warmup_and_one_batch_in_sixteen() {
        let c = checker();
        let mut flipped = delivered(0, 0, 3, &[1]);
        flipped.samples[0].data = Bytes::from(vec![1, 1, 9, 1]);
        assert!(!c.check_sampled(&flipped), "warm-up epoch: always CRC");
        flipped.epoch = 1;
        assert!(c.check_sampled(&flipped), "window, batch 3: not sampled");
        flipped.batch_id = 32;
        assert!(!c.check_sampled(&flipped), "window, batch 32: sampled");
    }

    #[test]
    fn tensor_batches_need_one_uniform_tensor_per_sample() {
        let c = checker();
        let mut d = delivered(0, 0, 0, &[0, 1]);
        d.tensors = Some(TensorFacts {
            count: 2,
            uniform_shape: Some((3, 56, 56)),
        });
        assert!(c.check_tensors(&d, (3, 56, 56)));
        assert!(!c.check_tensors(&d, (3, 64, 64)));
        d.tensors = Some(TensorFacts {
            count: 1,
            uniform_shape: Some((3, 56, 56)),
        });
        assert!(!c.check_tensors(&d, (3, 56, 56)));
    }
}

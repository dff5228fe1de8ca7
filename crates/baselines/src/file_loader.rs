//! The per-file loader over an NFS mount, in its two §5.1 presets.
//!
//! PyTorch's `DataLoader` and DALI's file reader do the same thing to the
//! mount: `readers` threads each claim the next batch task, read its
//! samples one [`NfsMount::read_file`] at a time (the many-small-reads
//! pattern that multiplies RTTs), and send the batch into one queue
//! `depth` batches deep. They differ in three numbers and one rule, which
//! is all a [`FileLoaderConfig`] preset sets:
//!
//! * [`FileLoaderConfig::pytorch`] — 4 workers with `prefetch_factor` 2
//!   (depth 8) and **in-order delivery**: a reorder buffer holds early
//!   arrivals, as torch does;
//! * [`FileLoaderConfig::dali`] — a deeper pool of 8 readers, depth 2, and
//!   arrival-order delivery (no reorder stalls).
//!
//! Torch hands batch indices to its workers round robin; here the next
//! batch goes to whichever reader is free. Under the emulated mount every
//! per-file read costs the same round trips, so both rules finish the same
//! batches at the same times, which is what the testbed's k-server stage
//! (`emlio_testbed::pipeline::exits`) assumes.

use crossbeam::channel::{bounded, Receiver};
use emlio_netem::NfsMount;
use emlio_pipeline::{ExternalSource, RawBatch, RawSample};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// How a [`FileLoader`] reads and delivers. Start from a preset.
#[derive(Debug, Clone)]
pub struct FileLoaderConfig {
    /// Samples per batch.
    pub batch_size: usize,
    /// Reader threads (torch's `num_workers`, DALI's read pool).
    pub readers: usize,
    /// Batches the queue between the readers and the consumer holds.
    pub depth: usize,
    /// Deliver in `(epoch, batch_id)` order (torch) rather than in arrival
    /// order (DALI).
    pub in_order: bool,
    /// Shuffle seed (epoch mixed in).
    pub seed: u64,
    /// Epochs to serve.
    pub epochs: u32,
}

impl FileLoaderConfig {
    /// `torch.utils.data.DataLoader`: 4 workers, `prefetch_factor` 2 each,
    /// batches in order.
    pub fn pytorch() -> FileLoaderConfig {
        FileLoaderConfig {
            batch_size: 64,
            readers: 4,
            depth: 8,
            in_order: true,
            seed: 17,
            epochs: 1,
        }
    }

    /// DALI's `fn.readers.file` with `prefetch_queue_depth` 2: 8 readers,
    /// batches in arrival order.
    pub fn dali() -> FileLoaderConfig {
        FileLoaderConfig {
            batch_size: 64,
            readers: 8,
            depth: 2,
            in_order: false,
            seed: 23,
            epochs: 1,
        }
    }
}

/// The loader. Spawns its readers on construction; dropping it
/// disconnects the queue and joins them.
pub struct FileLoader {
    rx: Receiver<RawBatch>,
    readers: Vec<JoinHandle<()>>,
    in_order: bool,
    /// In-order delivery's reorder buffer, keyed by task number.
    pending: HashMap<u64, RawBatch>,
    /// The task number delivered next in order.
    next: u64,
    batches_per_epoch: u64,
}

impl FileLoader {
    /// Build over a per-file dataset (`labels.json` + sample files) mounted
    /// at `mount`.
    pub fn new(
        mount: NfsMount,
        samples: Vec<(PathBuf, u32)>,
        config: FileLoaderConfig,
    ) -> FileLoader {
        assert!(!samples.is_empty(), "dataset is empty");
        assert!(config.readers > 0, "need at least one reader");
        assert!(config.depth > 0, "queue depth must be positive");
        let samples = Arc::new(samples);
        let n_batches = (samples.len() as u64).div_ceil(config.batch_size as u64);
        let tasks = n_batches * config.epochs as u64;
        let next_task = Arc::new(AtomicU64::new(0));
        let (tx, rx) = bounded::<RawBatch>(config.depth);
        let (batch_size, seed) = (config.batch_size, config.seed);

        let readers = (0..config.readers)
            .map(|r| {
                let tx = tx.clone();
                let mount = mount.clone();
                let samples = samples.clone();
                let next_task = next_task.clone();
                std::thread::Builder::new()
                    .name(format!("file-reader-{r}"))
                    .spawn(move || {
                        // A reader's claims only grow, so it shuffles each
                        // epoch once, at its first task there.
                        let (mut order, mut order_epoch) = (Vec::new(), None);
                        loop {
                            let t = next_task.fetch_add(1, Ordering::Relaxed);
                            if t >= tasks {
                                return;
                            }
                            let (epoch, batch_id) = ((t / n_batches) as u32, t % n_batches);
                            if order_epoch != Some(epoch) {
                                order = shuffle(seed, samples.len(), epoch);
                                order_epoch = Some(epoch);
                            }
                            let start = batch_id as usize * batch_size;
                            let end = (start + batch_size).min(order.len());
                            let batch = RawBatch {
                                epoch,
                                batch_id,
                                samples: order[start..end]
                                    .iter()
                                    .filter_map(|&sid| {
                                        let (path, label) = &samples[sid as usize];
                                        // Unreadable files are skipped.
                                        let data = mount.read_file(path).ok()?;
                                        Some(RawSample {
                                            bytes: bytes::Bytes::from(data),
                                            label: *label,
                                            sample_id: sid,
                                        })
                                    })
                                    .collect(),
                            };
                            if tx.send(batch).is_err() {
                                return;
                            }
                        }
                    })
                    .expect("spawn file reader")
            })
            .collect();
        FileLoader {
            rx,
            readers,
            in_order: config.in_order,
            pending: HashMap::new(),
            next: 0,
            batches_per_epoch: n_batches,
        }
    }

    /// Expected batches per epoch.
    pub fn batches_per_epoch(&self) -> u64 {
        self.batches_per_epoch
    }
}

/// Epoch `epoch`'s sample order: every reader derives the same one.
fn shuffle(seed: u64, n_samples: usize, epoch: u32) -> Vec<u64> {
    let mut order: Vec<u64> = (0..n_samples as u64).collect();
    order.shuffle(&mut StdRng::seed_from_u64(
        seed ^ ((epoch as u64 + 1) * 0x9E37),
    ));
    order
}

impl ExternalSource for FileLoader {
    /// The next batch; `None` once every reader has returned and nothing
    /// is held back for order.
    fn next_batch(&mut self) -> Option<RawBatch> {
        loop {
            if let Some(b) = self.pending.remove(&self.next) {
                self.next += 1;
                return Some(b);
            }
            let b = self.rx.recv().ok()?;
            if !self.in_order {
                return Some(b);
            }
            let task = b.epoch as u64 * self.batches_per_epoch + b.batch_id;
            self.pending.insert(task, b);
        }
    }
}

impl Drop for FileLoader {
    fn drop(&mut self) {
        // Disconnect so readers blocked on a full queue exit, then join.
        drop(std::mem::replace(&mut self.rx, crossbeam::channel::never()));
        for h in self.readers.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emlio_datagen::convert::{build_file_dataset, load_file_dataset};
    use emlio_datagen::DatasetSpec;
    use emlio_netem::{NetProfile, NfsConfig};
    use emlio_util::clock::RealClock;
    use emlio_util::testutil::TempDir;
    use std::collections::HashSet;
    use std::time::Instant;

    fn make(n: u64, rtt_ms: u64, cfg: FileLoaderConfig) -> (TempDir, FileLoader) {
        let dir = TempDir::new("file-loader");
        let spec = DatasetSpec::tiny("fl", n);
        build_file_dataset(dir.path(), &spec).unwrap();
        let samples = load_file_dataset(dir.path()).unwrap();
        let mount = NfsMount::mount(
            dir.path(),
            NetProfile::new("t", std::time::Duration::from_millis(rtt_ms), 1.25e9),
            RealClock::shared(),
            NfsConfig::default(),
        );
        let loader = FileLoader::new(mount, samples, cfg);
        (dir, loader)
    }

    /// Drain `loader`, asserting each of `epochs` epochs delivers all `n`
    /// samples exactly once; returns `(epoch, batch_id)` in delivery order.
    fn drain_exactly_once(loader: &mut FileLoader, n: usize, epochs: usize) -> Vec<(u32, u64)> {
        let mut keys = Vec::new();
        let mut seen = vec![HashSet::new(); epochs];
        while let Some(b) = loader.next_batch() {
            keys.push((b.epoch, b.batch_id));
            for s in &b.samples {
                assert!(seen[b.epoch as usize].insert(s.sample_id));
            }
        }
        assert!(seen.iter().all(|e| e.len() == n));
        keys
    }

    #[test]
    fn in_order_preset_is_ordered_and_exactly_once() {
        let cfg = FileLoaderConfig {
            batch_size: 4,
            readers: 3,
            epochs: 2,
            ..FileLoaderConfig::pytorch()
        };
        let (_d, mut loader) = make(23, 0, cfg);
        let keys = drain_exactly_once(&mut loader, 23, 2);
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "strictly ordered: {keys:?}"
        );
    }

    #[test]
    fn arrival_preset_is_exactly_once_over_epochs() {
        let cfg = FileLoaderConfig {
            batch_size: 4,
            readers: 4,
            epochs: 2,
            ..FileLoaderConfig::dali()
        };
        let (_d, mut loader) = make(19, 0, cfg);
        let keys = drain_exactly_once(&mut loader, 19, 2);
        assert_eq!(keys.len() as u64, 2 * loader.batches_per_epoch());
    }

    #[test]
    fn epoch_shuffles_differ() {
        let cfg = FileLoaderConfig {
            batch_size: 16,
            readers: 1,
            epochs: 2,
            ..FileLoaderConfig::pytorch()
        };
        let (_d, mut loader) = make(16, 0, cfg);
        let mut ids = || -> Vec<u64> {
            let b = loader.next_batch().unwrap();
            b.samples.iter().map(|s| s.sample_id).collect()
        };
        let (e0, e1) = (ids(), ids());
        assert_ne!(e0, e1);
        assert!(loader.next_batch().is_none());
    }

    #[test]
    fn payload_bytes_match_generator() {
        let spec = DatasetSpec::tiny("fl", 6);
        let cfg = FileLoaderConfig {
            batch_size: 3,
            readers: 2,
            ..FileLoaderConfig::dali()
        };
        let (_d, mut loader) = make(6, 0, cfg);
        while let Some(b) = loader.next_batch() {
            for s in &b.samples {
                assert_eq!(s.bytes.as_ref(), spec.payload_of(s.sample_id));
            }
        }
    }

    /// Seconds to drain `n` samples in batches of 4 at 3 ms RTT.
    fn drain_secs(preset: FileLoaderConfig, n: u64, readers: usize) -> f64 {
        let cfg = FileLoaderConfig {
            batch_size: 4,
            readers,
            ..preset
        };
        let (_d, mut loader) = make(n, 3, cfg);
        let t0 = Instant::now();
        while loader.next_batch().is_some() {}
        t0.elapsed().as_secs_f64()
    }

    #[test]
    fn more_readers_hide_latency_in_order() {
        // 12 samples: one reader pays ~12 × 4 RTTs serially; four overlap.
        // Generous thresholds keep this robust on loaded machines.
        let one = drain_secs(FileLoaderConfig::pytorch(), 12, 1);
        let four = drain_secs(FileLoaderConfig::pytorch(), 12, 4);
        assert!(
            four < one * 0.8,
            "4 readers ({four:.3}s) should beat 1 ({one:.3}s)"
        );
    }

    #[test]
    fn more_readers_hide_latency_in_arrival_order() {
        let one = drain_secs(FileLoaderConfig::dali(), 16, 1);
        let eight = drain_secs(FileLoaderConfig::dali(), 16, 8);
        assert!(
            eight < one * 0.8,
            "8 readers ({eight:.3}s) should beat 1 ({one:.3}s)"
        );
    }
}

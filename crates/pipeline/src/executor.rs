//! The pipeline runtime: `exec_async` + `exec_pipelined` semantics.
//!
//! A feeder thread pulls raw batches from the external source into a
//! one-slot queue, so the wait on the source overlaps the workers'
//! compute. A pool of worker threads takes them from there, runs decode →
//! resize → crop → normalize per sample (on the accelerator wrapper when
//! GPU placement is selected), and pushes processed batches into a
//! bounded prefetch queue of depth `Q`. The training loop consumes via
//! [`Pipeline::next_batch`]; the workers run ahead of it until the queue is
//! full, which is Algorithm 3's "manually run Q iterations".

use crate::external_source::ExternalSource;
use crate::gpu::Accelerator;
use crate::ops::{self, Tensor};
use crate::RawBatch;
use crossbeam::channel::{bounded, Receiver};
use emlio_obs::{Stage, StageRecorder};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A fully preprocessed batch ready for the training step.
#[derive(Debug, Clone)]
pub struct ProcessedBatch {
    /// Epoch this batch belongs to.
    pub epoch: u32,
    /// Batch id (from the loader).
    pub batch_id: u64,
    /// One tensor per sample (uniform shapes after crop/resize).
    pub tensors: Vec<Tensor>,
    /// Labels aligned with `tensors`.
    pub labels: Vec<u32>,
    /// Sample ids aligned with `tensors` (coverage accounting).
    pub sample_ids: Vec<u64>,
}

/// Where preprocessing runs.
#[derive(Clone)]
pub enum Device {
    /// Plain CPU threads.
    Cpu,
    /// The simulated accelerator (busy-time accounting + energy probe).
    Gpu(Arc<Accelerator>),
}

/// Builder mirroring DALI's pipeline definition.
pub struct PipelineBuilder {
    threads: usize,
    prefetch: usize,
    resize_to: Option<(u16, u16)>,
    crop_to: Option<(u16, u16)>,
    random_crop: bool,
    normalize: Option<(Vec<f32>, Vec<f32>)>,
    device: Device,
    seed: u64,
    recorder: Option<Arc<StageRecorder>>,
}

impl Default for PipelineBuilder {
    fn default() -> Self {
        PipelineBuilder {
            threads: 2,
            prefetch: 2,
            resize_to: None,
            crop_to: None,
            random_crop: true,
            normalize: Some((ops::IMAGENET_MEAN.to_vec(), ops::IMAGENET_STD.to_vec())),
            device: Device::Cpu,
            seed: 0,
            recorder: None,
        }
    }
}

impl PipelineBuilder {
    /// Fresh builder with defaults (2 threads, prefetch 2, normalize on).
    pub fn new() -> PipelineBuilder {
        PipelineBuilder::default()
    }

    /// Worker thread count (`exec_async` parallelism).
    pub fn threads(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one worker");
        self.threads = n;
        self
    }

    /// Prefetch queue depth `Q`.
    pub fn prefetch(mut self, q: usize) -> Self {
        assert!(q > 0, "prefetch depth must be positive");
        self.prefetch = q;
        self
    }

    /// Resize every decoded image to `(w, h)`.
    pub fn resize(mut self, w: u16, h: u16) -> Self {
        self.resize_to = Some((w, h));
        self
    }

    /// Crop to `(w, h)` (random during training, centred if
    /// [`deterministic_crop`](Self::deterministic_crop) is chosen).
    pub fn crop(mut self, w: u16, h: u16) -> Self {
        self.crop_to = Some((w, h));
        self
    }

    /// Use centre crops instead of random crops.
    pub fn deterministic_crop(mut self) -> Self {
        self.random_crop = false;
        self
    }

    /// Override normalization constants (`None` disables).
    pub fn normalize(mut self, constants: Option<(Vec<f32>, Vec<f32>)>) -> Self {
        self.normalize = constants;
        self
    }

    /// Place the operator graph on a device.
    pub fn device(mut self, device: Device) -> Self {
        self.device = device;
        self
    }

    /// Seed for augmentation RNGs (each worker derives its own stream).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Record per-batch preprocessing latency
    /// ([`emlio_obs::Stage::PipelineOp`]) into `recorder`.
    pub fn recorder(mut self, recorder: Arc<StageRecorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Launch the pipeline over `source`.
    ///
    /// # Panics
    /// Panics if the crop window is larger than the resize target, or the
    /// normalization constants are not one positive std per mean: every
    /// sample would be skipped, or fail.
    pub fn build(self, source: Box<dyn ExternalSource>) -> Pipeline {
        if let (Some((rw, rh)), Some((cw, ch))) = (self.resize_to, self.crop_to) {
            assert!(
                cw <= rw && ch <= rh,
                "crop {cw}x{ch} is larger than the resize target {rw}x{rh}"
            );
        }
        if let Some((mean, std)) = &self.normalize {
            assert!(
                mean.len() == std.len() && std.iter().all(|&s| s > 0.0),
                "normalization needs one positive std per mean"
            );
        }
        Pipeline::launch(self, source)
    }
}

/// Counters shared with callers.
#[derive(Debug, Default)]
pub struct PipelineStats {
    /// Batches fully processed.
    pub batches: AtomicU64,
    /// Samples fully processed.
    pub samples: AtomicU64,
    /// Samples skipped, never delivered: they failed to decode, or decoded
    /// smaller than the crop window or with a channel count the
    /// normalization constants do not have.
    pub decode_errors: AtomicU64,
}

/// A running pipeline. Consume with [`next_batch`](Pipeline::next_batch);
/// drop (or [`join`](Pipeline::join)) to tear down.
pub struct Pipeline {
    rx: Receiver<ProcessedBatch>,
    feeder: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    stats: Arc<PipelineStats>,
    panic: PanicSlot,
}

impl Pipeline {
    fn launch(cfg: PipelineBuilder, source: Box<dyn ExternalSource>) -> Pipeline {
        let stats = Arc::new(PipelineStats::default());
        // Feeder: pulls from the external source, distributes to workers.
        // Bounded at 1 so raw batches stay with the source (and thus with
        // the transport's own HWM) rather than piling up here.
        let (raw_tx, raw_rx) = bounded::<RawBatch>(1);
        // Processed queue: the prefetch depth Q.
        let (out_tx, out_rx) = bounded::<ProcessedBatch>(cfg.prefetch);

        let panic = PanicSlot::default();
        let feeder = {
            let mut source = source;
            let panic = panic.clone();
            std::thread::Builder::new()
                .name("pipeline-feeder".into())
                .spawn(move || {
                    keep_panic(&panic, raw_tx, |raw_tx| {
                        while let Some(batch) = source.next_batch() {
                            if raw_tx.send(batch).is_err() {
                                return;
                            }
                        }
                    })
                })
                .expect("spawn pipeline feeder")
        };

        let mut workers = Vec::with_capacity(cfg.threads);
        for w in 0..cfg.threads {
            let raw_rx = raw_rx.clone();
            let out_tx = out_tx.clone();
            let stats = stats.clone();
            let device = cfg.device.clone();
            let resize_to = cfg.resize_to;
            let crop_to = cfg.crop_to;
            let random = cfg.random_crop;
            let norm = cfg.normalize.clone();
            let rng = Mutex::new(StdRng::seed_from_u64(cfg.seed ^ (0xABCD_EF00 + w as u64)));
            let recorder = cfg.recorder.clone();
            let panic = panic.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("pipeline-worker-{w}"))
                    .spawn(move || {
                        keep_panic(&panic, out_tx, |out_tx| {
                            while let Ok(raw) = raw_rx.recv() {
                                let t0 = std::time::Instant::now();
                                let processed = process_batch(
                                    raw, &device, resize_to, crop_to, random, &norm, &rng, &stats,
                                );
                                if let Some(rec) = &recorder {
                                    rec.record(Stage::PipelineOp, t0.elapsed().as_nanos() as u64);
                                }
                                if out_tx.send(processed).is_err() {
                                    return;
                                }
                            }
                        })
                    })
                    .expect("spawn pipeline worker"),
            );
        }

        Pipeline {
            rx: out_rx,
            feeder: Some(feeder),
            workers,
            stats,
            panic,
        }
    }

    /// Next processed batch, in arrival order; `None` once the source is
    /// exhausted and every in-flight batch has been delivered.
    ///
    /// # Panics
    /// A panic in the feeder (the source's `next_batch`) or in a worker
    /// ends the stream early. Once the stream has ended because of one,
    /// this re-raises the first such panic, with its payload, so the end
    /// is never mistaken for a clean one.
    pub fn next_batch(&self) -> Option<ProcessedBatch> {
        match self.rx.recv() {
            Ok(batch) => Some(batch),
            Err(_) => {
                self.raise_panic();
                None
            }
        }
    }

    /// Shared counters.
    pub fn stats(&self) -> Arc<PipelineStats> {
        self.stats.clone()
    }

    /// Join all threads (after the source has ended and output drained).
    ///
    /// Re-raises the first panic of a feeder or worker thread, with its
    /// payload, unless [`next_batch`](Pipeline::next_batch) already has.
    pub fn join(mut self) {
        self.join_threads();
        self.raise_panic();
    }

    /// Re-raise the first thread's panic, once.
    fn raise_panic(&self) {
        if let Some(payload) = self.panic.lock().take() {
            std::panic::resume_unwind(payload);
        }
    }

    /// Join every thread. They do not panic: [`keep_panic`] catches it.
    fn join_threads(&mut self) {
        let threads = self.feeder.take().into_iter().chain(self.workers.drain(..));
        for h in threads {
            let _ = h.join();
        }
    }
}

impl Drop for Pipeline {
    fn drop(&mut self) {
        // Disconnect the consumer side so blocked workers unblock.
        // (rx is dropped by the field drop; joining afterwards is safe
        // because send() errors return the workers.)
        // Quiet: a kept panic is re-raised only by `next_batch` or `join`.
        let rx = std::mem::replace(&mut self.rx, crossbeam::channel::never());
        drop(rx);
        self.join_threads();
    }
}

/// The first panic of a pipeline thread, kept for the consumer.
type PanicSlot = Arc<Mutex<Option<Box<dyn std::any::Any + Send>>>>;

/// Run `body` on `ends`, the queue end whose drop ends the stream, and
/// keep `body`'s panic in `slot` if it is the first. `ends` is dropped
/// only after that, so a consumer that sees the stream end sees the panic.
fn keep_panic<T>(slot: &PanicSlot, ends: T, body: impl FnOnce(&T)) {
    let run = std::panic::AssertUnwindSafe(|| body(&ends));
    if let Err(payload) = std::panic::catch_unwind(run) {
        slot.lock().get_or_insert(payload);
    }
    drop(ends);
}

/// `normalize(None)`'s constants, long enough for any channel count.
const UNIT_MEAN: [f32; u8::MAX as usize] = [0.0; u8::MAX as usize];
const UNIT_STD: [f32; u8::MAX as usize] = [1.0; u8::MAX as usize];

#[allow(clippy::too_many_arguments)]
fn process_batch(
    raw: RawBatch,
    device: &Device,
    resize_to: Option<(u16, u16)>,
    crop_to: Option<(u16, u16)>,
    random: bool,
    norm: &Option<(Vec<f32>, Vec<f32>)>,
    rng: &Mutex<StdRng>,
    stats: &PipelineStats,
) -> ProcessedBatch {
    let mut tensors = Vec::with_capacity(raw.samples.len());
    let mut labels = Vec::with_capacity(raw.samples.len());
    let mut sample_ids = Vec::with_capacity(raw.samples.len());
    let work = |sample_bytes: &[u8]| -> Option<Tensor> {
        // A sample the ops cannot take is skipped and counted: a panic here
        // would end the worker, and with it the stream.
        let skip = || {
            stats.decode_errors.fetch_add(1, Ordering::Relaxed);
            None
        };
        let Ok(mut img) = ops::decode(sample_bytes) else {
            return skip();
        };
        if norm
            .as_ref()
            .is_some_and(|(mean, _)| mean.len() != img.channels() as usize)
        {
            return skip();
        }
        if let Some((w, h)) = resize_to {
            img = ops::resize(&img, w, h);
        }
        if let Some((w, h)) = crop_to {
            if w > img.width || h > img.height {
                return skip();
            }
            img = if random {
                let mut r = rng.lock();
                ops::random_crop(&img, w, h, &mut *r)
            } else {
                ops::center_crop(&img, w, h)
            };
        }
        Some(match norm {
            Some((mean, std)) => ops::normalize(&img, mean, std),
            None => {
                let c = img.channels() as usize;
                ops::normalize(&img, &UNIT_MEAN[..c], &UNIT_STD[..c])
            }
        })
    };
    for sample in &raw.samples {
        let tensor = match device {
            Device::Cpu => work(&sample.bytes),
            Device::Gpu(accel) => accel.run(|| work(&sample.bytes)),
        };
        if let Some(t) = tensor {
            tensors.push(t);
            labels.push(sample.label);
            sample_ids.push(sample.sample_id);
        }
    }
    stats.batches.fetch_add(1, Ordering::Relaxed);
    stats
        .samples
        .fetch_add(tensors.len() as u64, Ordering::Relaxed);
    ProcessedBatch {
        epoch: raw.epoch,
        batch_id: raw.batch_id,
        tensors,
        labels,
        sample_ids,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::external_source::VecSource;
    use crate::RawSample;
    use bytes::Bytes;
    use emlio_datagen::DatasetSpec;

    fn batches(spec: &DatasetSpec, batch_size: usize) -> Vec<RawBatch> {
        let mut out = Vec::new();
        let mut id = 0u64;
        let mut batch_id = 0u64;
        while id < spec.num_samples {
            let mut samples = Vec::new();
            for _ in 0..batch_size {
                if id >= spec.num_samples {
                    break;
                }
                samples.push(RawSample {
                    bytes: Bytes::from(spec.payload_of(id)),
                    label: spec.label_of(id),
                    sample_id: id,
                });
                id += 1;
            }
            out.push(RawBatch {
                epoch: 0,
                batch_id,
                samples,
            });
            batch_id += 1;
        }
        out
    }

    #[test]
    fn end_to_end_processes_every_sample_once() {
        let spec = DatasetSpec::tiny("exec", 23);
        let raw = batches(&spec, 4);
        let n_batches = raw.len();
        let pipe = PipelineBuilder::new()
            .threads(3)
            .prefetch(2)
            .resize(32, 32)
            .crop(24, 24)
            .build(Box::new(VecSource::new(raw)));
        let mut seen = std::collections::HashSet::new();
        let mut got_batches = 0;
        while let Some(b) = pipe.next_batch() {
            got_batches += 1;
            for (t, sid) in b.tensors.iter().zip(&b.sample_ids) {
                assert_eq!((t.channels, t.height, t.width), (3, 24, 24));
                assert!(seen.insert(*sid), "sample {sid} delivered twice");
            }
        }
        assert_eq!(got_batches, n_batches);
        assert_eq!(seen.len(), 23, "exactly-once coverage");
        let stats = pipe.stats();
        assert_eq!(stats.samples.load(Ordering::Relaxed), 23);
        assert_eq!(stats.decode_errors.load(Ordering::Relaxed), 0);
        pipe.join();
    }

    #[test]
    fn corrupt_samples_skipped_not_fatal() {
        let spec = DatasetSpec::tiny("corrupt", 4);
        let mut raw = batches(&spec, 4);
        raw[0].samples[1].bytes = Bytes::from_static(b"not a sif stream");
        let pipe = PipelineBuilder::new()
            .threads(1)
            .build(Box::new(VecSource::new(raw)));
        let b = pipe.next_batch().unwrap();
        assert_eq!(b.tensors.len(), 3, "bad sample dropped");
        assert!(pipe.next_batch().is_none());
        assert_eq!(pipe.stats().decode_errors.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn images_the_ops_cannot_take_are_skipped_not_fatal() {
        use emlio_datagen::{image::synth_image, sif};
        let spec = DatasetSpec::tiny("small", 12);
        let mut raw = batches(&spec, 4);
        // Smaller than the crop window, and one channel against three
        // normalization constants.
        raw[1].samples[2].bytes = Bytes::from(sif::encode(&synth_image(8, 8, 3, 1), 0));
        raw[2].samples[0].bytes = Bytes::from(sif::encode(&synth_image(48, 48, 1, 2), 0));
        let pipe = PipelineBuilder::new()
            .threads(1)
            .crop(24, 24)
            .build(Box::new(VecSource::new(raw)));
        let sizes: Vec<usize> = std::iter::from_fn(|| pipe.next_batch())
            .map(|b| b.tensors.len())
            .collect();
        assert_eq!(
            sizes,
            [4, 3, 3],
            "every batch arrives, less the two samples"
        );
        assert_eq!(pipe.stats().decode_errors.load(Ordering::Relaxed), 2);
    }

    #[test]
    #[should_panic(expected = "crop 40x24 is larger than the resize target 32x32")]
    fn a_crop_larger_than_the_resize_is_rejected_at_build() {
        let _ = PipelineBuilder::new()
            .resize(32, 32)
            .crop(40, 24)
            .build(Box::new(VecSource::new(Vec::new())));
    }

    #[test]
    #[should_panic(expected = "normalization needs one positive std per mean")]
    fn normalization_constants_are_checked_at_build() {
        let _ = PipelineBuilder::new()
            .normalize(Some((vec![0.5; 3], vec![0.2, 0.0, 0.2])))
            .build(Box::new(VecSource::new(Vec::new())));
    }

    #[test]
    fn labels_track_tensors() {
        let spec = DatasetSpec::tiny("labels", 10);
        let raw = batches(&spec, 5);
        let pipe = PipelineBuilder::new()
            .threads(2)
            .build(Box::new(VecSource::new(raw)));
        while let Some(b) = pipe.next_batch() {
            for (label, sid) in b.labels.iter().zip(&b.sample_ids) {
                assert_eq!(*label, spec.label_of(*sid));
            }
        }
    }

    #[test]
    fn gpu_device_accounts_busy_time() {
        let spec = DatasetSpec::tiny("gpu", 8);
        let raw = batches(&spec, 4);
        let accel = Accelerator::new("test", 10.0);
        let pipe = PipelineBuilder::new()
            .threads(2)
            .device(Device::Gpu(accel.clone()))
            .resize(32, 32)
            .build(Box::new(VecSource::new(raw)));
        while pipe.next_batch().is_some() {}
        assert!(accel.busy_nanos() > 0, "device time accounted");
    }

    #[test]
    fn warm_up_fills_prefetch_queue() {
        let spec = DatasetSpec::tiny("warm", 40);
        let raw = batches(&spec, 4);
        let pipe = PipelineBuilder::new()
            .threads(2)
            .prefetch(3)
            .build(Box::new(VecSource::new(raw)));
        // Algorithm 3 line 4's warm-up needs no call: the workers run
        // ahead of the consumer until the queue holds Q batches.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while pipe.rx.len() < 3 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(pipe.rx.len() >= 3, "queue pre-filled to Q");
        while pipe.next_batch().is_some() {}
    }

    /// A pipeline over a source that panics on its third batch.
    fn panicking_pipeline() -> Pipeline {
        struct PanicsOnThird(VecSource, u32);
        impl ExternalSource for PanicsOnThird {
            fn next_batch(&mut self) -> Option<RawBatch> {
                self.1 += 1;
                assert!(self.1 < 3, "source failed on batch {}", self.1);
                self.0.next_batch()
            }
        }
        let spec = DatasetSpec::tiny("panic", 20);
        let source = PanicsOnThird(VecSource::new(batches(&spec, 4)), 0);
        PipelineBuilder::new().threads(1).build(Box::new(source))
    }

    fn message(payload: &(dyn std::any::Any + Send)) -> Option<&str> {
        payload.downcast_ref::<String>().map(String::as_str)
    }

    #[test]
    fn a_panicking_source_ends_the_stream_and_join_raises_it() {
        let pipe = panicking_pipeline();
        for _ in 0..2 {
            pipe.next_batch()
                .expect("the batches before the panic arrive");
        }
        let raised = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pipe.join()))
            .expect_err("join returned although the source panicked");
        assert_eq!(message(&*raised), Some("source failed on batch 3"));
    }

    #[test]
    fn a_consumer_that_stops_at_the_streams_end_learns_of_the_panic() {
        let pipe = panicking_pipeline();
        let mut delivered = 0;
        let raised = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            while let Some(_batch) = pipe.next_batch() {
                delivered += 1;
            }
        }))
        .expect_err("the stream ended as if the source had run out");
        assert_eq!(delivered, 2, "the batches before the panic arrive");
        assert_eq!(message(&*raised), Some("source failed on batch 3"));
        // Raised once: the end is now plain, and dropping stays quiet.
        assert!(pipe.next_batch().is_none());
    }

    #[test]
    fn drop_mid_stream_does_not_hang() {
        let spec = DatasetSpec::tiny("drop", 60);
        let raw = batches(&spec, 4);
        let pipe = PipelineBuilder::new()
            .threads(2)
            .prefetch(1)
            .build(Box::new(VecSource::new(raw)));
        let _first = pipe.next_batch().unwrap();
        drop(pipe); // must tear down workers blocked on a full queue
    }
}

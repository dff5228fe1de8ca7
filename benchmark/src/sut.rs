//! The adapter: every call into the program under test lives in this file.
//!
//! It uses only the public primitives the roadmap's simplification keeps
//! (`EmlioDaemon::open`/`open_with_base` + `serve`, `EmlioReceiver::bind` +
//! `queue()`, `Plan::build`, `encode_batch_frame_traced`, `decode_lazy`,
//! `LazyBatch::materialize`, the `RangeSource` decorators' constructors and
//! their component-owned counters) and none of the variants it deletes
//! (`launch*`, `serve_with_chaos`, `encode_batch`, eager `decode`,
//! `MetricsSnapshot` mirrors), so those PRs can land without touching the
//! benchmark. The other files of the package hold no `emlio::` path.

use crate::span::Tracer;
use crate::workload::{CacheSpec, DatasetKind, DatasetShape, PipelineSpec, Storage, Workload};
use bytes::Bytes;
use crossbeam::channel::Receiver;
use emlio::cache::{
    CacheConfig, CachedRangeReader, CachedSource, EvictPolicy, FleetRegistry, LocalPeer,
    PeerConfig, PeerSource, Prefetcher, ShardCache,
};
use emlio::core::daemon::MeteredSource;
use emlio::core::wire::{self, LazyMsg};
use emlio::core::{
    BatchRange, BufferPool, DataPathMetrics, EmlioConfig, EmlioDaemon, EmlioReceiver, LazyBatch,
    Plan, ReceiverConfig,
};
use emlio::datagen::{sif, DatasetSpec};
use emlio::energymon::report::energy_between;
use emlio::energymon::{
    EnergyMonitor, ModelPower, MonitorConfig, UtilProbe, Utilization, DEFAULT_INTERVAL_NANOS,
};
use emlio::msgpack::StrInterner;
use emlio::netem::{FaultSource, NetProfile, NfsConfig, NfsMount, NfsSource, Proxy};
use emlio::obs::{clock, BatchTrace, Stage, StageRecorder};
use emlio::pipeline::{ops, ExternalSource, Pipeline, PipelineBuilder, RawBatch};
use emlio::testbed::NodeSpec;
use emlio::tfrecord::source::{BlockKey, BlockRead, RangeSource, ReadOrigin, TfrecordSource};
use emlio::tfrecord::{GlobalIndex, RecordError, RetrySource, RetryStats, ShardSpec, ShardWriter};
use emlio::tsdb::TsdbClient;
use emlio::util::clock::{RealClock, SharedClock};
use emlio::util::fault::{FaultInjector, FaultPlan, RetryPolicy};
use emlio::zmq::{Endpoint, PullSocket, PushSocket, SocketOptions};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The one compute node every plan is built for.
const NODE: &str = "ledger-node";
/// Emulated link rate of the NFS mount and of the WAN proxy: 10 Gb/s.
const LINK_BYTES_PER_SEC: f64 = 1.25e9;

/// Completed fleet flights kept for late arrivals. The registry's default
/// of 256 is sized for datasets of many thousands of blocks; the
/// benchmark's dataset has 64, so the default would keep all of it in the
/// flight table and no epoch after the first would touch storage. Eight
/// is enough to hand a block between two daemons walking the same plan
/// and keeps the same few-percent ratio to the dataset.
const FLEET_FLIGHT_RETAIN: usize = 8;

fn daemon_id(i: usize) -> String {
    format!("d{i}")
}

/// CRC32C as the program's own TFRecord framing computes it.
pub fn crc32c(data: &[u8]) -> u32 {
    emlio::tfrecord::crc32c::crc32c(data)
}

// ---------------------------------------------------------------- dataset

/// What dataset generation knows about one sample, kept for verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleFacts {
    pub crc: u32,
    pub label: u32,
}

fn dataset_spec(shape: &DatasetShape, seed: u64) -> DatasetSpec {
    let mut spec = match shape.kind {
        DatasetKind::ImagenetLike => DatasetSpec::imagenet_like().with_samples(shape.samples),
        DatasetKind::Tiny => DatasetSpec::tiny("ledger", shape.samples),
    };
    spec.seed = seed;
    spec
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Write `shape` as TFRecord shards into `dir`, content driven by `seed`.
///
/// Synthesizing and encoding a fresh image per sample costs ~3 ms each, so
/// only a few distinct images are encoded; every sample is one of them
/// with the padding behind the image stream (which the decoder ignores)
/// filled with bytes unique to `(seed, sample id)`. Every payload is thus
/// decodable, distinct, and checkable by CRC.
pub fn write_dataset(
    dir: &Path,
    shape: &DatasetShape,
    seed: u64,
) -> Result<Vec<SampleFacts>, String> {
    const DISTINCT_IMAGES: u64 = 32;
    let spec = dataset_spec(shape, seed);
    let len = shape.sample_bytes() as usize;
    let images: Vec<Vec<u8>> = (0..DISTINCT_IMAGES.min(shape.samples))
        .map(|k| sif::encode(&spec.image_of(k), spec.quality))
        .collect();
    if let Some(big) = images.iter().find(|i| i.len() + 16 > len) {
        return Err(format!(
            "encoded image of {} bytes leaves no room for a unique tail in {len}",
            big.len()
        ));
    }
    let mut writer = ShardWriter::create(dir, ShardSpec::Count(shape.shards))
        .map_err(|e| format!("create shards in {}: {e}", dir.display()))?;
    let mut facts = Vec::with_capacity(shape.samples as usize);
    let mut buf = vec![0u8; len];
    for id in 0..shape.samples {
        let image = &images[(id % images.len() as u64) as usize];
        buf[..image.len()].copy_from_slice(image);
        let mut state = seed ^ id.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        for chunk in buf[image.len()..].chunks_mut(8) {
            let word = splitmix64(&mut state).to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
        let label = spec.label_of(id);
        let written = writer
            .append(&buf, label)
            .map_err(|e| format!("append sample {id}: {e}"))?;
        if written != id {
            return Err(format!("writer numbered sample {id} as {written}"));
        }
        facts.push(SampleFacts {
            crc: crc32c(&buf),
            label,
        });
    }
    writer.finish().map_err(|e| format!("finish shards: {e}"))?;
    Ok(facts)
}

// ------------------------------------------------------------- deliveries

/// One sample as the consumer received it. `data` is empty for samples
/// that came out of the preprocessing pipeline as tensors.
#[derive(Debug, Clone)]
pub struct Sample {
    pub id: u64,
    pub label: u32,
    pub data: Bytes,
}

/// Shape facts of a preprocessed batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TensorFacts {
    pub count: usize,
    /// `(channels, height, width)` when every tensor agrees.
    pub uniform_shape: Option<(usize, usize, usize)>,
}

/// One batch handed to the consumer (or seen by the raw tap).
#[derive(Debug, Clone)]
pub struct Delivered {
    /// Index of the sending daemon.
    pub daemon: usize,
    pub epoch: u32,
    pub batch_id: u64,
    /// Nanoseconds the taking thread blocked waiting for this batch.
    pub wait_ns: u64,
    /// Send stamp (public trace header) to dequeue; 0 when unknown.
    pub age_ns: u64,
    pub samples: Vec<Sample>,
    pub tensors: Option<TensorFacts>,
}

fn daemon_of(origin: &str) -> usize {
    // Origins are "<daemon id>/t<worker>" and daemon ids are "d<index>".
    origin
        .split('/')
        .next()
        .and_then(|d| d.strip_prefix('d'))
        .and_then(|n| n.parse().ok())
        .unwrap_or(usize::MAX)
}

/// Describe a batch that was dequeued at `taken_at` and materialized into
/// `samples`.
fn delivery(lb: &LazyBatch, taken_at: u64, wait_ns: u64, samples: Vec<Sample>) -> Delivered {
    Delivered {
        daemon: daemon_of(lb.origin()),
        epoch: lb.epoch(),
        batch_id: lb.batch_id(),
        wait_ns,
        age_ns: lb
            .trace()
            .map_or(0, |t| taken_at.saturating_sub(t.sent_at_nanos)),
        samples,
        tensors: None,
    }
}

/// The benchmark's view of a raw batch that someone else still needs.
fn samples_of(raw: &RawBatch) -> Vec<Sample> {
    raw.samples
        .iter()
        .map(|s| Sample {
            id: s.sample_id,
            label: s.label,
            data: s.bytes.clone(),
        })
        .collect()
}

fn tensor_facts(tensors: &[ops::Tensor]) -> TensorFacts {
    let shape = |t: &ops::Tensor| (t.channels, t.height, t.width);
    let first = tensors.first().map(shape);
    TensorFacts {
        count: tensors.len(),
        uniform_shape: first.filter(|f| tensors.iter().all(|t| shape(t) == *f)),
    }
}

/// Called on the pipeline's feeder thread for every raw batch, before it
/// is preprocessed: the only place a pipeline workload still sees payloads.
pub type RawTap = Arc<dyn Fn(&Delivered) + Send + Sync>;

struct TapSource {
    rx: Receiver<LazyBatch>,
    tap: RawTap,
}

impl ExternalSource for TapSource {
    fn next_batch(&mut self) -> Option<RawBatch> {
        let t0 = Instant::now();
        let lb = self.rx.recv().ok()?;
        let wait_ns = t0.elapsed().as_nanos() as u64;
        let taken_at = clock::now_nanos();
        // Materialized here, on the feeder thread, as the program's own
        // `LazyQueueSource` does.
        let raw = lb.materialize();
        (self.tap)(&delivery(&lb, taken_at, wait_ns, samples_of(&raw)));
        Some(raw)
    }
}

// --------------------------------------------------------------- counters

macro_rules! counters {
    ($($(#[$doc:meta])* $field:ident),* $(,)?) => {
        /// Component-owned public counters, summed over daemons.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Counters { $($(#[$doc])* pub $field: u64),* }

        impl Counters {
            /// What was counted since `earlier`.
            pub fn since(&self, earlier: &Counters) -> Counters {
                Counters { $($field: self.$field.saturating_sub(earlier.$field)),* }
            }
        }
    };
}

counters! {
    cache_hits, cache_misses, cache_disk_hits, cache_evictions, cache_spills,
    cache_spill_failures, cache_readmitted, cache_warm_promoted,
    peer_hits, peer_misses, peer_fallbacks,
    retry_retries, retry_giveups,
    nfs_opens, nfs_reads, nfs_bytes,
    pool_alloc, pool_reuse,
    pipeline_decode_errors,
}

// ------------------------------------------------------------ read stacks

/// Interposes a decorator at a seam of the read stack; the gated run
/// passes the identity.
type Wrap<'a> = &'a dyn Fn(&'static str, Arc<dyn RangeSource>) -> Arc<dyn RangeSource>;

fn cache_config(spec: &CacheSpec, persist_dir: &Path) -> CacheConfig {
    let mut c = CacheConfig::default()
        .with_ram_bytes(spec.ram_mib << 20)
        .with_disk_bytes(spec.disk_mib << 20)
        .with_policy(EvictPolicy::Clairvoyant);
    if spec.disk_mib > 0 {
        c = c
            .with_persist_dir(persist_dir.to_path_buf())
            .with_warm_start_bytes(spec.warm_start_mib << 20);
    }
    c
}

fn emlio_config(w: &Workload, epochs: u32, seed: u64, persist_dir: &Path) -> EmlioConfig {
    let mut c = EmlioConfig::default()
        .with_batch_size(w.batch)
        .with_threads(w.threads)
        .with_epochs(epochs)
        .with_seed(seed);
    if let Some(spec) = &w.cache {
        c = c.with_cache(cache_config(spec, persist_dir));
    }
    c
}

/// What the daemons of an NFS fleet share.
struct Fleet {
    mount: NfsMount,
    registry: Arc<FleetRegistry>,
}

impl Fleet {
    fn mount(data_dir: &Path, daemons: usize, rtt_ms: u64) -> Fleet {
        let profile = NetProfile::new(
            &format!("nfs-{rtt_ms}ms"),
            Duration::from_millis(rtt_ms),
            LINK_BYTES_PER_SEC,
        );
        let registry = FleetRegistry::with_flight_retain(FLEET_FLIGHT_RETAIN);
        for d in 0..daemons {
            registry.join(&daemon_id(d));
        }
        Fleet {
            mount: NfsMount::mount(data_dir, profile, RealClock::shared(), NfsConfig::default()),
            registry,
        }
    }

    /// `peer -> retry -> nfs` for daemon `id`, the part of a fleet
    /// daemon's stack that sits below its own metering and cache.
    fn base(
        &self,
        id: &str,
        index: &Arc<GlobalIndex>,
        seed: u64,
        wrap: Wrap,
    ) -> (Arc<dyn RangeSource>, Arc<PeerSource>, Arc<RetryStats>) {
        let nfs = wrap(
            "nfs",
            Arc::new(NfsSource::new(index.clone(), self.mount.clone())),
        );
        let retry = RetrySource::new(
            nfs,
            RetryPolicy::new(3, Duration::from_millis(5)).with_seed(seed),
        );
        let retry_stats = retry.stats();
        let peer = PeerSource::new(
            self.registry.clone(),
            id,
            wrap("retry", Arc::new(retry)),
            PeerConfig::default(),
        );
        (wrap("peer", peer.clone()), peer, retry_stats)
    }

    /// In-process transport: a peer fetch is a function call into the
    /// owner's cache, not a socket round trip.
    fn attach(&self, id: &str, cache: &Arc<ShardCache>) {
        self.registry.attach(id, LocalPeer::new(cache));
    }
}

// ------------------------------------------------------------- deployment

/// Durations of the deployment's set-up steps, summed over daemons.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpenTimes {
    /// `EmlioDaemon::open*`: index load, stack assembly, cache open and
    /// re-admission.
    pub daemon_open_ms: f64,
    pub plan_build_ms: f64,
}

struct Control {
    stop: AtomicBool,
    expired: AtomicBool,
    daemon_failed: AtomicBool,
}

struct DaemonSide {
    daemon: Arc<EmlioDaemon>,
    thread: Option<JoinHandle<Result<(), String>>>,
    peer: Option<Arc<PeerSource>>,
    retry: Option<Arc<RetryStats>>,
}

/// How a deployment ended.
#[derive(Debug, Default)]
pub struct CloseReport {
    /// The watchdog's deadline passed before the stream ended.
    pub expired: bool,
    /// Daemon serve errors and threads that would not stop.
    pub errors: Vec<String>,
}

/// A running daemon(s) -> wire -> socket -> receiver (-> pipeline) path
/// with one consumer: whoever calls [`Deployment::next`].
pub struct Deployment {
    receiver: Arc<Mutex<Option<EmlioReceiver>>>,
    rx: Receiver<LazyBatch>,
    pipeline: Option<Pipeline>,
    daemons: Vec<DaemonSide>,
    fleet: Option<Fleet>,
    _proxy: Option<Proxy>,
    control: Arc<Control>,
    watchdog: Option<JoinHandle<()>>,
    pub times: OpenTimes,
    /// `planned[daemon][epoch]` = batches that daemon will send.
    pub planned: Vec<Vec<u64>>,
}

impl Deployment {
    /// Open every daemon over `data_dir`, build plans of `plan_epochs`
    /// epochs, and start serving the first `serve_epochs` of them. A
    /// rehearsal set-up serves only the warm-up but still pays for the
    /// whole plan. The stream is torn down `deadline` from now if it has
    /// not ended by then, or shortly after a daemon fails.
    #[allow(clippy::too_many_arguments)]
    pub fn open(
        w: &Workload,
        data_dir: &Path,
        scratch_dir: &Path,
        seed: u64,
        plan_epochs: u32,
        serve_epochs: u32,
        deadline: Duration,
        tap: Option<RawTap>,
    ) -> Result<Deployment, String> {
        let config = emlio_config(w, plan_epochs, seed, &scratch_dir.join("spill"));
        let identity: Wrap = &|_, s| s;
        let mut times = OpenTimes::default();

        let fleet = match w.storage {
            Storage::Local => None,
            Storage::NfsFleet { daemons, rtt_ms } => Some(Fleet::mount(data_dir, daemons, rtt_ms)),
        };
        let mut opened = Vec::new();
        for d in 0..w.daemons() {
            let id = daemon_id(d);
            let t0 = Instant::now();
            let (daemon, peer, retry) = match &fleet {
                None => (EmlioDaemon::open(&id, data_dir, config.clone()), None, None),
                Some(fleet) => {
                    let index = Arc::new(
                        GlobalIndex::load_dir(data_dir).map_err(|e| format!("load index: {e}"))?,
                    );
                    let (base, peer, retry) = fleet.base(&id, &index, seed, identity);
                    (
                        EmlioDaemon::open_with_base(&id, index, config.clone(), base),
                        Some(peer),
                        Some(retry),
                    )
                }
            };
            let daemon = daemon.map_err(|e| format!("open daemon {id}: {e}"))?;
            times.daemon_open_ms += t0.elapsed().as_secs_f64() * 1e3;
            opened.push((id, Arc::new(daemon), peer, retry));
        }
        // Fleet wiring needs every daemon's cache to exist, and must be
        // complete before any daemon serves.
        if let Some(fleet) = &fleet {
            for (id, daemon, peer, _) in &opened {
                if let Some(cache) = daemon.cache() {
                    fleet.attach(id, cache);
                }
                if let Some(peer) = peer {
                    peer.set_recorder(daemon.recorder());
                }
            }
        }

        let mut plans = Vec::new();
        let mut planned = Vec::new();
        for (_, daemon, _, _) in &opened {
            let t0 = Instant::now();
            let plan = Plan::build(daemon.index(), &[NODE.to_string()], &config);
            times.plan_build_ms += t0.elapsed().as_secs_f64() * 1e3;
            let plan = Plan {
                epochs: plan.epochs[..serve_epochs as usize].to_vec(),
                batch_size: plan.batch_size,
            };
            planned.push(
                (0..serve_epochs)
                    .map(|e| plan.batches_for(e, NODE))
                    .collect(),
            );
            plans.push(plan);
        }

        let receiver = EmlioReceiver::bind(ReceiverConfig {
            hwm: config.hwm,
            queue_capacity: config.hwm,
            ..ReceiverConfig::loopback((w.daemons() * w.threads) as u32)
        })
        .map_err(|e| format!("bind receiver: {e}"))?;
        let rx = receiver.queue();
        let (connect_to, proxy) = match w.wan_rtt_ms {
            None => (receiver.endpoint().clone(), None),
            Some(rtt_ms) => {
                let Endpoint::Tcp(addr) = receiver.endpoint() else {
                    return Err("receiver is not on tcp".into());
                };
                let profile = NetProfile::new(
                    &format!("wan-{rtt_ms}ms"),
                    Duration::from_millis(rtt_ms),
                    LINK_BYTES_PER_SEC,
                );
                let proxy = Proxy::spawn("127.0.0.1:0", addr, profile, RealClock::shared())
                    .map_err(|e| format!("spawn proxy: {e}"))?;
                (Endpoint::Tcp(proxy.local_addr().to_string()), Some(proxy))
            }
        };
        let pipeline = match (&w.pipeline, tap) {
            (None, _) => None,
            (Some(spec), Some(tap)) => Some(build_pipeline(spec, seed, rx.clone(), tap)),
            (Some(_), None) => return Err("a pipeline workload needs a raw tap".into()),
        };
        if pipeline.is_some() && w.daemons() != 1 {
            // Preprocessed batches no longer say which daemon sent them.
            return Err("pipeline workloads support one daemon".into());
        }

        let control = Arc::new(Control {
            stop: AtomicBool::new(false),
            expired: AtomicBool::new(false),
            daemon_failed: AtomicBool::new(false),
        });
        let mut daemons = Vec::new();
        for ((id, daemon, peer, retry), plan) in opened.into_iter().zip(plans) {
            let serving = daemon.clone();
            let endpoint = connect_to.clone();
            let control2 = control.clone();
            let thread = std::thread::Builder::new()
                .name(format!("ledger-daemon-{id}"))
                .spawn(move || {
                    let result = serving
                        .serve(&plan, NODE, &endpoint)
                        .map_err(|e| e.to_string());
                    if result.is_err() {
                        control2.daemon_failed.store(true, Ordering::SeqCst);
                    }
                    result
                })
                .map_err(|e| format!("spawn daemon thread: {e}"))?;
            daemons.push(DaemonSide {
                daemon,
                thread: Some(thread),
                peer,
                retry,
            });
        }

        let receiver = Arc::new(Mutex::new(Some(receiver)));
        let watchdog = {
            let control = control.clone();
            let receiver = receiver.clone();
            let deadline = Instant::now() + deadline;
            std::thread::Builder::new()
                .name("ledger-watchdog".into())
                .spawn(move || watchdog(&control, &receiver, deadline))
                .map_err(|e| format!("spawn watchdog: {e}"))?
        };
        Ok(Deployment {
            receiver,
            rx,
            pipeline,
            daemons,
            fleet,
            _proxy: proxy,
            control,
            watchdog: Some(watchdog),
            times,
            planned,
        })
    }

    /// Each daemon's read stack, outermost layer first.
    pub fn descriptions(&self) -> Vec<String> {
        self.daemons
            .iter()
            .map(|d| d.daemon.source_description())
            .collect()
    }

    /// Block for the next batch; `None` once the stream has ended (every
    /// daemon sent its end markers) or was torn down by the watchdog.
    pub fn next(&mut self) -> Option<Delivered> {
        let t0 = Instant::now();
        match &self.pipeline {
            None => {
                let lb = self.rx.recv().ok()?;
                let wait_ns = t0.elapsed().as_nanos() as u64;
                let taken_at = clock::now_nanos();
                // Materialized on the consumer thread, payloads moved, not
                // cloned: the harness adds no refcount traffic of its own.
                let samples = lb
                    .materialize()
                    .samples
                    .into_iter()
                    .map(|s| Sample {
                        id: s.sample_id,
                        label: s.label,
                        data: s.bytes,
                    })
                    .collect();
                Some(delivery(&lb, taken_at, wait_ns, samples))
            }
            Some(pipeline) => {
                let batch = pipeline.next_batch()?;
                Some(Delivered {
                    daemon: 0,
                    epoch: batch.epoch,
                    batch_id: batch.batch_id,
                    wait_ns: t0.elapsed().as_nanos() as u64,
                    age_ns: 0,
                    samples: batch
                        .sample_ids
                        .iter()
                        .zip(&batch.labels)
                        .map(|(&id, &label)| Sample {
                            id,
                            label,
                            data: Bytes::new(),
                        })
                        .collect(),
                    tensors: Some(tensor_facts(&batch.tensors)),
                })
            }
        }
    }

    /// Read every component's own counters.
    pub fn counters(&self) -> Counters {
        let mut c = Counters::default();
        for side in &self.daemons {
            if let Some(cache) = side.daemon.cache() {
                let s = cache.stats().snapshot();
                c.cache_hits += s.hits;
                c.cache_misses += s.misses;
                c.cache_disk_hits += s.disk_hits;
                c.cache_evictions += s.evictions;
                c.cache_spills += s.spills;
                c.cache_spill_failures += s.spill_failures;
                c.cache_readmitted += s.readmitted;
                c.cache_warm_promoted += s.warm_promoted;
            }
            if let Some(peer) = &side.peer {
                let s = peer.stats().snapshot();
                c.peer_hits += s.hits;
                c.peer_misses += s.misses;
                c.peer_fallbacks += s.fallbacks;
            }
            if let Some(retry) = &side.retry {
                let s = retry.snapshot();
                c.retry_retries += s.retries;
                c.retry_giveups += s.giveups;
            }
            let pool = side.daemon.pool().stats();
            c.pool_alloc += pool.pool_alloc;
            c.pool_reuse += pool.pool_reuse;
        }
        if let Some(fleet) = &self.fleet {
            let s = fleet.mount.stats();
            c.nfs_opens = s.opens.load(Ordering::Relaxed);
            c.nfs_reads = s.reads.load(Ordering::Relaxed);
            c.nfs_bytes = s.bytes_read.load(Ordering::Relaxed);
        }
        if let Some(pipeline) = &self.pipeline {
            c.pipeline_decode_errors = pipeline.stats().decode_errors.load(Ordering::Relaxed);
        }
        c
    }

    /// Tear everything down and wait for every thread this deployment
    /// started. Threads that do not stop within a few seconds are reported
    /// and left behind for process exit to end.
    pub fn close(mut self) -> CloseReport {
        self.control.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.watchdog.take() {
            let _ = h.join();
        }
        // Dropping the receiver closes its sockets and ends the intake
        // thread, which disconnects the queue the pipeline feeds from.
        drop(lock_receiver(&self.receiver).take());
        drop(self.pipeline.take());
        let mut report = CloseReport {
            expired: self.control.expired.load(Ordering::SeqCst),
            errors: Vec::new(),
        };
        let give_up = Instant::now() + Duration::from_secs(5);
        for side in &mut self.daemons {
            let Some(thread) = side.thread.take() else {
                continue;
            };
            while !thread.is_finished() && Instant::now() < give_up {
                std::thread::sleep(Duration::from_millis(5));
            }
            if !thread.is_finished() {
                report.errors.push("daemon thread did not stop".into());
                continue;
            }
            match thread.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => report.errors.push(e),
                Err(_) => report.errors.push("daemon thread panicked".into()),
            }
        }
        report
    }
}

fn lock_receiver(
    receiver: &Mutex<Option<EmlioReceiver>>,
) -> std::sync::MutexGuard<'_, Option<EmlioReceiver>> {
    // The slot is only ever taken, so it is valid even after a panic.
    receiver
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn watchdog(control: &Control, receiver: &Mutex<Option<EmlioReceiver>>, deadline: Instant) {
    loop {
        if control.stop.load(Ordering::SeqCst) {
            return;
        }
        if Instant::now() >= deadline {
            control.expired.store(true, Ordering::SeqCst);
            break;
        }
        if control.daemon_failed.load(Ordering::SeqCst) {
            // A failed daemon sends no end marker, so the stream would
            // never end on its own. Let frames already in flight land.
            std::thread::sleep(Duration::from_millis(300));
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(lock_receiver(receiver).take());
}

fn build_pipeline(
    spec: &PipelineSpec,
    seed: u64,
    rx: Receiver<LazyBatch>,
    tap: RawTap,
) -> Pipeline {
    PipelineBuilder::new()
        .threads(1)
        .prefetch(2)
        .resize(spec.resize, spec.resize)
        .crop(spec.crop, spec.crop)
        .deterministic_crop()
        .seed(seed)
        .build(Box::new(TapSource { rx, tap }))
}

// ----------------------------------------------------------------- energy

struct ShareProbe(Arc<dyn Fn() -> f64 + Send + Sync>);

impl UtilProbe for ShareProbe {
    fn utilization(&self) -> Utilization {
        let cpu = (self.0)();
        Utilization {
            cpu,
            // DRAM activity tracks CPU activity, as the program's own
            // /proc/stat probe assumes.
            dram: cpu * 0.5,
            gpu: 0.0,
        }
    }
}

/// Modelled energy of a window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Energy {
    pub joules: f64,
    pub mean_watts: f64,
}

/// The program's real `EnergyMonitor` (100 ms sampler -> accumulator ->
/// batch writer -> `emlio-tsdb`) over a utilization x power model with the
/// Table-1 storage-node envelope, fed by the benchmark's own CPU probe.
pub struct EnergyMeter {
    monitor: EnergyMonitor,
    client: TsdbClient,
    clock: SharedClock,
}

impl EnergyMeter {
    /// `cpu_share` reports the share of the machine's CPU capacity used
    /// since it was last called.
    pub fn start(cpu_share: Arc<dyn Fn() -> f64 + Send + Sync>) -> EnergyMeter {
        let client = TsdbClient::new();
        let clock = RealClock::shared();
        let source = ModelPower::new(
            NodeSpec::uc_storage().power,
            Arc::new(ShareProbe(cpu_share)),
        );
        let monitor = EnergyMonitor::start(MonitorConfig {
            node_id: NODE.into(),
            interval_nanos: DEFAULT_INTERVAL_NANOS,
            batch_size: 16,
            clock: clock.clone(),
            source: Arc::new(source),
            has_gpu: false,
            client: client.clone(),
        });
        EnergyMeter {
            monitor,
            client,
            clock,
        }
    }

    /// Now, on the clock the energy tuples are stamped with.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_nanos()
    }

    /// Stop sampling, flush, and sum the tuples stamped in `[start, end]`.
    pub fn finish(self, start_ns: u64, end_ns: u64) -> Energy {
        self.monitor.stop();
        let e = energy_between(&self.client, NODE, start_ns, end_ns);
        Energy {
            joules: e.total_j(),
            mean_watts: e.mean_watts(),
        }
    }
}

// ----------------------------------------------------------------- replay

/// Records a span around every call that crosses one seam of the stack.
struct SpanSource {
    name: &'static str,
    inner: Arc<dyn RangeSource>,
    tracer: Arc<Tracer>,
}

impl RangeSource for SpanSource {
    fn read_block(&self, key: &BlockKey) -> Result<BlockRead, RecordError> {
        let mut span = self.tracer.enter(self.name);
        let read = self.inner.read_block(key)?;
        span.count(read.data.len() as u64, 1);
        Ok(read)
    }

    fn prefetch_block(&self, key: &BlockKey) -> Result<bool, RecordError> {
        let _span = self.tracer.enter(self.name);
        self.inner.prefetch_block(key)
    }

    fn read_blocks(&self, keys: &[BlockKey]) -> Result<Vec<BlockRead>, RecordError> {
        let mut span = self.tracer.enter(self.name);
        let reads = self.inner.read_blocks(keys)?;
        span.count(
            reads.iter().map(|r| r.data.len() as u64).sum(),
            reads.len() as u64,
        );
        Ok(reads)
    }

    fn prefetch_blocks(&self, keys: &[BlockKey]) -> Result<usize, RecordError> {
        let _span = self.tracer.enter(self.name);
        self.inner.prefetch_blocks(keys)
    }

    fn describe(&self) -> String {
        // Transparent, so the replay's description can be compared with
        // the daemon's.
        self.inner.describe()
    }
}

struct ReplayStack {
    index: Arc<GlobalIndex>,
    origin: String,
    reader: CachedRangeReader,
    description: String,
    pool: BufferPool,
    push: PushSocket,
    sent: u64,
    cache: Option<Arc<CachedSource>>,
    _prefetcher: Option<Prefetcher>,
}

#[derive(Clone, Copy)]
struct ReplayItem {
    daemon: usize,
    epoch: u32,
    range: BatchRange,
}

/// What one replay pass measured outside its spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassStats {
    pub batches: u64,
    pub samples: u64,
    /// Sum of per-batch wall times (verification between batches is not
    /// part of it).
    pub wall_ns: u64,
    pub frame_bytes: u64,
    pub payload_bytes: u64,
}

/// A benchmark-driven producer/consumer pair built from the same public
/// layer functions and the same stack configuration as the daemon, driven
/// in lock-step on one thread: read -> encode -> send -> recv -> scan ->
/// materialize (-> preprocess) for one planned batch, then the next. The
/// prefetcher of a cached stack runs as it does in the daemon.
pub struct ReplayRig {
    tracer: Arc<Tracer>,
    stacks: Vec<ReplayStack>,
    order: Vec<ReplayItem>,
    pull: PullSocket,
    interner: StrInterner,
    pipeline: Option<PipelineSpec>,
    _fleet: Option<Fleet>,
}

impl ReplayRig {
    pub fn build(
        w: &Workload,
        data_dir: &Path,
        scratch_dir: &Path,
        seed: u64,
        epochs: u32,
        tracer: Arc<Tracer>,
    ) -> Result<ReplayRig, String> {
        let config = emlio_config(w, epochs, seed, &scratch_dir.join("replay-spill"));
        let wrap_tracer = tracer.clone();
        let wrap: Wrap = &move |name, inner| {
            Arc::new(SpanSource {
                name,
                inner,
                tracer: wrap_tracer.clone(),
            })
        };
        let fleet = match w.storage {
            Storage::Local => None,
            Storage::NfsFleet { daemons, rtt_ms } => Some(Fleet::mount(data_dir, daemons, rtt_ms)),
        };
        // The proxy of a WAN workload is left out: it is the emulator, not
        // a layer of the program, and in lock-step it would only add its
        // one-way delay to every `zmq.recv`.
        let pull = PullSocket::bind(
            &Endpoint::tcp("127.0.0.1", 0),
            SocketOptions::default().with_hwm(config.hwm),
        )
        .map_err(|e| format!("bind replay socket: {e}"))?;
        let endpoint = pull
            .local_endpoint()
            .ok_or("replay socket has no endpoint")?;

        let mut stacks = Vec::new();
        let mut plans = Vec::new();
        for d in 0..w.daemons() {
            let id = daemon_id(d);
            let index =
                Arc::new(GlobalIndex::load_dir(data_dir).map_err(|e| format!("load index: {e}"))?);
            let pool = BufferPool::new();
            let recorder = StageRecorder::shared();
            let base = match &fleet {
                None => wrap(
                    "tfrecord",
                    Arc::new(TfrecordSource::new(index.clone()).with_alloc(Arc::new(pool.clone()))),
                ),
                Some(fleet) => fleet.base(&id, &index, seed, wrap).0,
            };
            let metered = wrap(
                "metered",
                Arc::new(
                    MeteredSource::new(base, DataPathMetrics::shared())
                        .with_recorder(recorder.clone()),
                ),
            );
            let (top, cache) = match &config.cache {
                None => (metered, None),
                Some(cache_config) => {
                    let cache = Arc::new(
                        ShardCache::new(cache_config.clone())
                            .map_err(|e| format!("open replay cache: {e}"))?,
                    );
                    cache.set_recorder(recorder.clone());
                    if let Some(fleet) = &fleet {
                        fleet.attach(&id, &cache);
                    }
                    let cached =
                        Arc::new(CachedSource::new(cache, metered).with_recorder(recorder));
                    (wrap("cache", cached.clone()), Some(cached))
                }
            };
            let plan = Plan::build(&index, &[NODE.to_string()], &config);
            let push =
                PushSocket::connect(&endpoint, SocketOptions::default().with_hwm(config.hwm))
                    .map_err(|e| format!("connect replay socket: {e}"))?;
            stacks.push(ReplayStack {
                index,
                origin: format!("{id}/t0"),
                description: top.describe(),
                reader: CachedRangeReader::new(top).without_crc_verification(),
                pool,
                push,
                sent: 0,
                cache,
                _prefetcher: None,
            });
            plans.push(plan);
        }

        // Daemons take turns, each in its own plan order, so a fleet's
        // replay meets the same block from both sides as a real run does.
        let mut order = Vec::new();
        for epoch in 0..epochs {
            let per_daemon: Vec<Vec<BatchRange>> = plans
                .iter()
                .map(|p| p.epochs[epoch as usize].nodes[NODE].batches_in_plan_order())
                .collect();
            let longest = per_daemon.iter().map(Vec::len).max().unwrap_or(0);
            for k in 0..longest {
                for (daemon, batches) in per_daemon.iter().enumerate() {
                    if let Some(&range) = batches.get(k) {
                        order.push(ReplayItem {
                            daemon,
                            epoch,
                            range,
                        });
                    }
                }
            }
        }
        for (d, stack) in stacks.iter_mut().enumerate() {
            let Some(cached) = &stack.cache else {
                continue;
            };
            let seq = order
                .iter()
                .filter(|i| i.daemon == d)
                .map(|i| key_of(&i.range))
                .collect();
            cached.cache().set_plan(seq);
            if cached.cache().config().prefetch_depth > 0 {
                stack._prefetcher = Some(Prefetcher::spawn(cached.clone()));
            }
        }
        Ok(ReplayRig {
            tracer,
            stacks,
            order,
            pull,
            interner: StrInterner::new(),
            pipeline: w.pipeline,
            _fleet: fleet,
        })
    }

    /// Each replay stack, outermost layer first (span decorators are
    /// transparent).
    pub fn descriptions(&self) -> Vec<String> {
        self.stacks.iter().map(|s| s.description.clone()).collect()
    }

    /// Replay planned batches `range` (indices into the interleaved plan
    /// order), handing each delivered batch to `check` between batches.
    pub fn run(
        &mut self,
        range: std::ops::Range<usize>,
        check: &mut dyn FnMut(&Delivered),
    ) -> Result<PassStats, String> {
        let mut stats = PassStats::default();
        let tracer = self.tracer.clone();
        for i in range {
            let item = *self
                .order
                .get(i)
                .ok_or_else(|| format!("replay batch {i} is beyond the plan"))?;
            tracer.set_batch(Some(i as u64));
            let t0 = Instant::now();
            let delivered = {
                let _root = tracer.enter("replay.batch");
                self.replay_one(&item, &mut stats)?
            };
            stats.wall_ns += t0.elapsed().as_nanos() as u64;
            tracer.set_batch(None);
            stats.batches += 1;
            stats.samples += delivered.samples.len() as u64;
            check(&delivered);
        }
        Ok(stats)
    }

    fn replay_one(
        &mut self,
        item: &ReplayItem,
        stats: &mut PassStats,
    ) -> Result<Delivered, String> {
        let tracer = &self.tracer;
        let stack = &mut self.stacks[item.daemon];
        let range = &item.range;

        // Producer half: what `EmlioDaemon`'s send worker does per batch.
        let read = {
            let mut span = tracer.enter("read.batch");
            let read = stack
                .reader
                .read_batch(key_of(range))
                .map_err(|e| format!("read batch {}: {e}", range.batch_id))?;
            span.count(read.bytes, 1);
            read
        };
        if read.payloads.len() != range.len() {
            return Err(format!(
                "batch {} decoded to {} records, planned {}",
                range.batch_id,
                read.payloads.len(),
                range.len()
            ));
        }
        let frame = {
            let mut span = tracer.enter("wire.encode");
            let metas =
                &stack.index.shards[range.shard_id as usize].records[range.start..range.end];
            let samples: Vec<(u64, u32, Bytes)> = metas
                .iter()
                .zip(&read.payloads)
                .map(|(m, p)| (m.sample_id, m.label, p.clone()))
                .collect();
            let trace = BatchTrace {
                seq: stack.sent,
                sent_at_nanos: clock::now_nanos(),
            };
            let frame = wire::encode_batch_frame_traced(
                item.epoch,
                range.batch_id,
                &stack.origin,
                Some(trace),
                &samples,
                &stack.pool,
            );
            span.count(frame.len() as u64, samples.len() as u64);
            frame
        };
        drop(read);
        stats.frame_bytes += frame.len() as u64;
        {
            let mut span = tracer.enter("zmq.send");
            span.count(frame.len() as u64, 1);
            stack
                .push
                .send(frame)
                .map_err(|e| format!("send batch {}: {e}", range.batch_id))?;
            stack.sent += 1;
        }

        // Consumer half: the receiver's intake, then its consumer.
        let bytes = {
            let mut span = tracer.enter("zmq.recv");
            let bytes = self
                .pull
                .recv()
                .map_err(|e| format!("recv batch {}: {e}", range.batch_id))?;
            span.count(bytes.len() as u64, 1);
            bytes
        };
        let lazy = {
            let mut span = tracer.enter("wire.scan");
            let msg = wire::decode_lazy(&bytes, Some(&self.interner))
                .map_err(|e| format!("scan batch {}: {e}", range.batch_id))?;
            let LazyMsg::Batch(lazy) = msg else {
                return Err("replay socket delivered a control message".into());
            };
            span.count(bytes.len() as u64, lazy.len() as u64);
            lazy
        };
        stats.payload_bytes += lazy.payload_bytes();
        let taken_at = clock::now_nanos();
        let raw = {
            let mut span = tracer.enter("wire.materialize");
            span.count(lazy.payload_bytes(), lazy.len() as u64);
            lazy.materialize()
        };
        let mut delivered = delivery(&lazy, taken_at, 0, samples_of(&raw));
        if let Some(spec) = &self.pipeline {
            let mut span = tracer.enter("pipeline.op");
            span.count(0, raw.samples.len() as u64);
            let mut tensors = Vec::with_capacity(raw.samples.len());
            for sample in &raw.samples {
                let image = {
                    let _s = tracer.enter("pipeline.decode");
                    ops::decode(&sample.bytes)
                        .map_err(|e| format!("decode sample {}: {e}", sample.sample_id))?
                };
                let image = {
                    let _s = tracer.enter("pipeline.resize");
                    ops::resize(&image, spec.resize, spec.resize)
                };
                let image = {
                    let _s = tracer.enter("pipeline.crop");
                    ops::center_crop(&image, spec.crop, spec.crop)
                };
                let _s = tracer.enter("pipeline.normalize");
                tensors.push(ops::normalize(
                    &image,
                    &ops::IMAGENET_MEAN,
                    &ops::IMAGENET_STD,
                ));
            }
            delivered.tensors = Some(tensor_facts(&tensors));
        }
        Ok(delivered)
    }
}

fn key_of(range: &BatchRange) -> BlockKey {
    BlockKey {
        shard_id: range.shard_id,
        start: range.start,
        end: range.end,
    }
}

// -------------------------------------------------------------- isolation

/// Returns one prebuilt block, by refcount bump: the cheapest possible
/// source, so that what is measured above it is the decorator. (The
/// program's own `FnSource` would allocate and fill a fresh `Vec` of block
/// size per call, which at 3 MiB would be all one could see.)
struct NullSource {
    block: Bytes,
}

impl RangeSource for NullSource {
    fn read_block(&self, _key: &BlockKey) -> Result<BlockRead, RecordError> {
        Ok(BlockRead {
            data: self.block.clone(),
            origin: ReadOrigin::Direct,
            read_nanos: 0,
        })
    }

    fn describe(&self) -> String {
        "null".into()
    }
}

/// Median nanoseconds per call of `f` over `calls` calls, timed in runs of
/// 100 so that reading the clock does not show in nanosecond-scale rows.
fn median_ns_per_call(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    const RUN: usize = 100;
    let mut per_call = Vec::with_capacity(calls / RUN);
    let mut i = 0;
    for _ in 0..(calls / RUN).max(1) {
        let t0 = Instant::now();
        for _ in 0..RUN {
            f(i);
            i += 1;
        }
        per_call.push(t0.elapsed().as_nanos() as f64 / RUN as f64);
    }
    crate::stats::median(&per_call)
}

fn iso_key(i: usize, records: usize) -> BlockKey {
    BlockKey {
        shard_id: 0,
        start: i * records,
        end: (i + 1) * records,
    }
}

/// Each `RangeSource` decorator alone over a null source, plus the two
/// instrumentation primitives, `calls` calls each. Decorator rows report
/// the cost added to the bare null read (`*.overhead_ns`) except the cache
/// hit, which replaces the read.
pub fn isolation_rows(calls: usize) -> Result<Vec<(String, f64)>, String> {
    let mut rows = Vec::new();
    for (shape, records, record_bytes) in
        [("32x100k", 32usize, 100usize << 10), ("64x8k", 64, 8 << 10)]
    {
        let block = Bytes::from(vec![0u8; records * (record_bytes + 16)]);
        let null = || -> Arc<dyn RangeSource> {
            Arc::new(NullSource {
                block: block.clone(),
            })
        };
        let time = |source: &dyn RangeSource, distinct: bool| -> Result<f64, String> {
            // Surface a failing decorator instead of timing its error path.
            source
                .read_block(&iso_key(0, records))
                .map_err(|e| format!("isolation read over {}: {e}", source.describe()))?;
            Ok(median_ns_per_call(calls, |i| {
                let key = iso_key(if distinct { i + 1 } else { 0 }, records);
                let _ = std::hint::black_box(source.read_block(std::hint::black_box(&key)));
            }))
        };
        let bare = time(null().as_ref(), false)?;

        let open_cache = |ram_bytes: u64| -> Result<CachedSource, String> {
            let config = CacheConfig::default()
                .with_ram_bytes(ram_bytes)
                .with_prefetch_depth(0);
            let cache =
                ShardCache::new(config).map_err(|e| format!("open isolation cache: {e}"))?;
            Ok(CachedSource::new(Arc::new(cache), null()))
        };
        let hit = time(&open_cache(64 << 20)?, false)?;
        // Room for four blocks and a new key per call: every read misses,
        // admits, and evicts.
        let miss = time(&open_cache(4 * block.len() as u64)?, true)?;
        let metered = time(
            &MeteredSource::new(null(), DataPathMetrics::shared())
                .with_recorder(StageRecorder::shared()),
            false,
        )?;
        let registry = FleetRegistry::new();
        registry.join("d0");
        let peer = time(
            PeerSource::new(registry, "d0", null(), PeerConfig::default()).as_ref(),
            true,
        )?;
        let retry = time(
            &RetrySource::new(null(), RetryPolicy::new(3, Duration::from_millis(5))),
            false,
        )?;
        let fault = time(
            &FaultSource::new(null(), FaultInjector::new(FaultPlan::new(0))),
            false,
        )?;
        rows.push((format!("cache.hit_us.{shape}"), hit / 1e3));
        rows.push((
            format!("cache.miss_overhead_us.{shape}"),
            (miss - bare) / 1e3,
        ));
        rows.push((format!("core.metered.overhead_ns.{shape}"), metered - bare));
        rows.push((
            format!("cache.peer.owner_local_overhead_ns.{shape}"),
            peer - bare,
        ));
        rows.push((format!("tfrecord.retry.overhead_ns.{shape}"), retry - bare));
        rows.push((format!("netem.fault.overhead_ns.{shape}"), fault - bare));
    }
    let recorder = StageRecorder::new();
    rows.push((
        "obs.hist_record_ns".into(),
        median_ns_per_call(calls, |i| {
            recorder.record(Stage::Encode, std::hint::black_box(1_000 + i as u64));
        }),
    ));
    rows.push((
        "obs.trace_stamp_ns".into(),
        median_ns_per_call(calls, |i| {
            let stamp = BatchTrace {
                seq: i as u64,
                sent_at_nanos: clock::now_nanos(),
            };
            std::hint::black_box(stamp.to_bytes());
        }),
    ));
    Ok(rows)
}

//! The EMLIO Daemon: storage-side batch assembly and streaming.
//!
//! Each `SendWorker` thread (Algorithm 2, line 8) walks its slice of the
//! plan: one positioned range read per batch (the contiguous span the
//! planner guaranteed), msgpack serialization of the whole batch, and a
//! blocking PUSH over its own stream. With `T > 1` workers per destination,
//! reading/serializing one batch overlaps sending another — the paper's
//! network-pipeline concurrency, and the knob behind Figures 7 and 8.
//!
//! Each worker's socket stripes over [`connections_per_worker`] = ⌈cores /
//! T⌉ TCP connections, each with its own sender thread. Copying a batch
//! into the kernel is the send side's one serial cost, and on loopback a
//! single sender thread is busy nearly all the time in system calls while
//! other cores idle; with ⌈cores / T⌉ of them the `T` workers' senders can
//! keep every core copying. The count follows the cores, not a constant:
//! more connections than cores only add threads that contend for them (on
//! a proxied WAN link, extra relay threads too). The worker ends its stream
//! with one marker on each connection ([`PushSocket::close_with`]), and the
//! marker says how many connections there are, so the receiver knows when
//! it has read the stream to its end.
//!
//! Reads go through a composable [`RangeSource`] stack that
//! [`ReadStack`] assembles at open time (its docs have the layer order).
//! With [`EmlioConfig::cache`] set, repeated epochs are served from RAM
//! (or the disk spill tier) without touching storage, a plan-walking
//! prefetcher warms blocks ahead of the send workers, and a persistent
//! spill tier survives daemon restarts.
//!
//! There is one [`EmlioDaemon::serve`]. A daemon opened from a spec that
//! carries a [`ChaosController`] serves under it — skip what the ledger
//! holds, die at the armed kill point — and every other daemon's workers
//! see `None` and pay nothing for it.

use crate::chaos::ChaosController;
use crate::config::EmlioConfig;
use crate::metrics::DataPathMetrics;
use crate::plan::{BatchRange, Plan};
use crate::pool::BufferPool;
use crate::stack::{ReadStack, StackSpec};
use crate::wire;
use bytes::Bytes;
use emlio_cache::{BlockKey, CachedRangeReader, CachedSource, PeerSource, Prefetcher, ShardCache};
use emlio_obs::{clock, obs_error, BatchTrace, FlightRecorder, Stage, StageRecorder};
use emlio_tfrecord::source::{BlockRead, RangeSource};
use emlio_tfrecord::{GlobalIndex, RecordError};
use emlio_zmq::{Endpoint, Frame, PushSocket, SocketOptions, ZmqError};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Daemon failures.
#[derive(Debug)]
pub enum DaemonError {
    /// Shard file / index problems.
    Storage(RecordError),
    /// Transport problems.
    Transport(ZmqError),
    /// The plan references a node or shard this daemon doesn't know.
    BadPlan(String),
}

impl fmt::Display for DaemonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DaemonError::Storage(e) => write!(f, "daemon storage: {e}"),
            DaemonError::Transport(e) => write!(f, "daemon transport: {e}"),
            DaemonError::BadPlan(s) => write!(f, "daemon plan: {s}"),
        }
    }
}

impl std::error::Error for DaemonError {}

impl From<RecordError> for DaemonError {
    fn from(e: RecordError) -> Self {
        DaemonError::Storage(e)
    }
}

impl From<ZmqError> for DaemonError {
    fn from(e: ZmqError) -> Self {
        DaemonError::Transport(e)
    }
}

/// Storage-read accounting as a stack layer: every block read that reaches
/// the layer below (demand miss or prefetch alike) is counted into
/// [`DataPathMetrics`] exactly once, no matter which path issued it.
pub struct MeteredSource {
    inner: Arc<dyn RangeSource>,
    metrics: Arc<DataPathMetrics>,
    recorder: Option<Arc<StageRecorder>>,
}

impl MeteredSource {
    /// Meter every read that falls through to `inner`.
    pub fn new(inner: Arc<dyn RangeSource>, metrics: Arc<DataPathMetrics>) -> MeteredSource {
        MeteredSource {
            inner,
            metrics,
            recorder: None,
        }
    }

    /// Also feed each backing read's latency into the per-stage histogram
    /// ([`Stage::StorageRead`]). This layer is the one place storage-read
    /// latency is recorded, so cached and uncached stacks alike count each
    /// positioned read exactly once.
    pub fn with_recorder(mut self, recorder: Arc<StageRecorder>) -> MeteredSource {
        self.recorder = Some(recorder);
        self
    }
}

impl RangeSource for MeteredSource {
    fn read_block(&self, key: &BlockKey) -> Result<BlockRead, RecordError> {
        let read = self.inner.read_block(key)?;
        // A cache-served or peer-served read below this layer issued no
        // backing-storage read, so it must not count as one; for the
        // rest, the source's own measurement covers exactly the
        // positioned read (not span resolution or cache admission work).
        if !read.origin.avoided_storage() {
            self.metrics.record_storage_read(read.read_nanos);
            if let Some(rec) = &self.recorder {
                rec.record(Stage::StorageRead, read.read_nanos);
            }
        }
        Ok(read)
    }

    fn block_len(&self, key: &BlockKey) -> Option<u64> {
        self.inner.block_len(key)
    }

    fn describe(&self) -> String {
        format!("metered -> {}", self.inner.describe())
    }
}

/// The TCP connections each of `threads` send workers stripes its stream
/// over on a box with `cores` cores: ⌈cores / threads⌉, at least one. The
/// workers' sender threads then number about one per core (the module docs
/// say why).
pub fn connections_per_worker(cores: usize, threads: usize) -> usize {
    cores.div_ceil(threads.max(1)).max(1)
}

/// [`connections_per_worker`] on this box.
pub fn local_connections_per_worker(threads: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    connections_per_worker(cores, threads)
}

/// A storage-side daemon bound to one dataset directory.
pub struct EmlioDaemon {
    id: String,
    index: Arc<GlobalIndex>,
    config: EmlioConfig,
    metrics: Arc<DataPathMetrics>,
    /// The composed read stack every batch goes through.
    source: Arc<dyn RangeSource>,
    /// The caching layer of the stack, when configured (prefetcher handle,
    /// plan installation).
    cached: Option<Arc<CachedSource>>,
    /// The fleet layer of the stack, when opened in a fleet.
    peer: Option<Arc<PeerSource>>,
    /// Block/header buffer pool shared by the backing reads (via the
    /// [`emlio_tfrecord::BlockAlloc`] seam) and the wire encoder.
    pool: BufferPool,
    /// Per-stage latency histograms for this daemon's data path.
    recorder: Arc<StageRecorder>,
    /// The spec's kill switch and exactly-once ledger, when it has one.
    chaos: Option<Arc<ChaosController>>,
}

impl EmlioDaemon {
    /// Open the dataset at `dataset_dir` (must contain shard + index
    /// files) over the default local-disk backing store.
    ///
    /// Block reads draw their buffers from the daemon's [`BufferPool`], so
    /// steady-state epochs recycle the same allocations end to end.
    pub fn open(
        id: &str,
        dataset_dir: &std::path::Path,
        config: EmlioConfig,
    ) -> Result<EmlioDaemon, DaemonError> {
        let index = Arc::new(GlobalIndex::load_dir(dataset_dir)?);
        Self::open_stack(id, index, config, StackSpec::default())
    }

    /// Open over a caller-supplied backing source, which the daemon treats
    /// as an opaque root: metering, the cache and (with
    /// [`EmlioConfig::io_retries`]) a retry layer directly above `base` are
    /// layered on top. The daemon's pool still backs wire-encoding buffers.
    pub fn open_with_base(
        id: &str,
        index: Arc<GlobalIndex>,
        config: EmlioConfig,
        base: Arc<dyn RangeSource>,
    ) -> Result<EmlioDaemon, DaemonError> {
        Self::open_stack(id, index, config, StackSpec::over(base))
    }

    /// Open over whatever `spec` names — a shared NFS mount, a fleet
    /// membership. [`ReadStack`] decides how it is stacked and counted.
    pub fn open_stack(
        id: &str,
        index: Arc<GlobalIndex>,
        config: EmlioConfig,
        spec: StackSpec,
    ) -> Result<EmlioDaemon, DaemonError> {
        let chaos = spec.chaos.clone();
        let ReadStack {
            source,
            cached,
            peer,
            pool,
            recorder,
            metrics,
        } = ReadStack::build(id, &index, &config, spec)?;
        Ok(EmlioDaemon {
            id: id.to_string(),
            index,
            config,
            metrics,
            source,
            cached,
            peer,
            pool,
            recorder,
            chaos,
        })
    }

    /// The daemon's buffer pool (shared with the read stack).
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// The daemon's shard index.
    pub fn index(&self) -> &GlobalIndex {
        &self.index
    }

    /// Shared data-path counters.
    pub fn metrics(&self) -> Arc<DataPathMetrics> {
        self.metrics.clone()
    }

    /// Per-stage latency histograms (storage read, cache lookup, pool
    /// alloc, batch assemble, encode, socket send).
    pub fn recorder(&self) -> Arc<StageRecorder> {
        self.recorder.clone()
    }

    /// The shard block cache, when configured.
    pub fn cache(&self) -> Option<&Arc<ShardCache>> {
        self.cached.as_ref().map(|c| c.cache())
    }

    /// The fleet layer, when the daemon was opened in a fleet.
    pub fn peer(&self) -> Option<&Arc<PeerSource>> {
        self.peer.as_ref()
    }

    /// One-line description of the composed read stack, outermost first.
    pub fn source_description(&self) -> String {
        self.source.describe()
    }

    /// Serve every epoch of `plan` destined for `node_id`, pushing to
    /// `endpoint` with `T` concurrent workers. Blocks until every batch has
    /// been accepted by the transport and end-of-stream markers are sent.
    ///
    /// A daemon opened with [`StackSpec::with_chaos`] serves under that
    /// controller: workers skip batches its ledger already holds, record
    /// every push, and abandon their streams mid-epoch (no end-of-stream
    /// marker) when the armed kill point trips. A killed serve returns
    /// `Ok(())` — the "crash" is the controller's state, which the launched
    /// daemon thread inspects to drive the restart
    /// ([`EmlioService::launch_with`]).
    ///
    /// [`EmlioService::launch_with`]: crate::service::EmlioService::launch_with
    pub fn serve(
        &self,
        plan: &Plan,
        node_id: &str,
        endpoint: &Endpoint,
    ) -> Result<(), DaemonError> {
        let t = self.config.threads_per_node;
        for ep in &plan.epochs {
            let np = ep
                .nodes
                .get(node_id)
                .ok_or_else(|| DaemonError::BadPlan(format!("plan has no node {node_id:?}")))?;
            if np.thread_splits.len() != t {
                return Err(DaemonError::BadPlan(format!(
                    "plan built for {} threads, daemon configured with {t}",
                    np.thread_splits.len()
                )));
            }
        }

        let prefetcher = match &self.cached {
            Some(cached) => {
                self.install_cache_plan(cached, plan, node_id);
                (cached.cache().config().prefetch_depth > 0)
                    .then(|| Prefetcher::spawn(cached.clone()))
            }
            None => None,
        };
        let mut reader = CachedRangeReader::new(self.source.clone());
        if !self.config.verify_crc {
            reader = reader.without_crc_verification();
        }
        let reader = &reader;

        let t_serve = Instant::now();
        let result = std::thread::scope(|scope| -> Result<(), DaemonError> {
            let mut handles = Vec::with_capacity(t);
            for worker in 0..t {
                let chaos = self.chaos.as_deref();
                let spawned = std::thread::Builder::new()
                    .name(format!("emlio-send-{worker}"))
                    .spawn_scoped(scope, move || {
                        self.run_worker(plan, node_id, endpoint, worker, reader, chaos)
                    })
                    .expect("spawn send worker");
                handles.push(spawned);
            }
            let mut first_err = None;
            for h in handles {
                match h.join() {
                    Ok(Ok(())) => {}
                    Ok(Err(e)) => first_err = first_err.or(Some(e)),
                    Err(_) => {
                        first_err =
                            first_err.or(Some(DaemonError::BadPlan("worker panicked".into())))
                    }
                }
            }
            match first_err {
                None => Ok(()),
                Some(e) => Err(e),
            }
        });

        if let Some(pf) = prefetcher {
            pf.join();
        }
        self.metrics
            .set_serve_wall(t_serve.elapsed().as_nanos() as u64, t as u64);
        let mut result = result;
        if let Some(cached) = &self.cached {
            let cache = cached.cache();
            let killed = self
                .chaos
                .as_deref()
                .is_some_and(ChaosController::is_killed);
            if cache.config().persist && !killed {
                // Checkpoint the spill tier (and the RAM working set) so a
                // restarted daemon re-admits it instead of re-reading
                // storage — unless chaos killed this incarnation: a crashed
                // process saves nothing, and what it had spilled is indexed
                // when the cache drops. A checkpoint failure must not mask
                // a worker error — the data-path failure is the root cause.
                if let Err(e) = cache.persist_now() {
                    if result.is_ok() {
                        result = Err(DaemonError::Storage(RecordError::Io(e)));
                    }
                }
            }
        }
        if let Err(e) = &result {
            obs_error!(
                "daemon",
                "{} serve failed: {e}; {}",
                self.id,
                FlightRecorder::global().dump_string("serve error")
            );
        }
        result
    }

    /// Install the node's full multi-epoch access sequence as the cache
    /// plan (clairvoyant eviction and the prefetcher both walk it).
    fn install_cache_plan(&self, cached: &CachedSource, plan: &Plan, node_id: &str) {
        let mut seq = Vec::new();
        for ep in &plan.epochs {
            if let Some(np) = ep.nodes.get(node_id) {
                for b in np.batches_in_plan_order() {
                    seq.push(BlockKey {
                        shard_id: b.shard_id,
                        start: b.start,
                        end: b.end,
                    });
                }
            }
        }
        cached.cache().set_plan(seq);
    }

    /// One `SendWorker`: its own socket, its slice of every epoch, all
    /// reads through the shared source stack.
    fn run_worker(
        &self,
        plan: &Plan,
        node_id: &str,
        endpoint: &Endpoint,
        worker: usize,
        reader: &CachedRangeReader,
        chaos: Option<&ChaosController>,
    ) -> Result<(), DaemonError> {
        let connections = local_connections_per_worker(self.config.threads_per_node);
        let origin = format!("{}/t{}", self.id, worker);
        let socket = PushSocket::connect(
            endpoint,
            SocketOptions::default()
                .with_hwm(self.config.hwm)
                .with_connections(connections)
                .with_recorder(self.recorder.clone()),
        )?;
        let stats = socket.stats();
        let mut sent = 0u64;

        'epochs: for ep in &plan.epochs {
            FlightRecorder::global().record("daemon_epoch_start", ep.epoch as u64, 0);
            let ranges = &plan.epochs[ep.epoch as usize].nodes[node_id].thread_splits[worker];
            for range in ranges {
                if let Some(c) = chaos {
                    if c.is_killed() {
                        break 'epochs;
                    }
                    // A previous incarnation already pushed this batch —
                    // replaying it would double-deliver.
                    if c.should_skip(ep.epoch, range.batch_id) {
                        continue;
                    }
                }
                let t0 = Instant::now();
                let frame = self.assemble_batch(range, ep.epoch, &origin, sent, reader)?;
                self.recorder
                    .record(Stage::BatchAssemble, t0.elapsed().as_nanos() as u64);
                socket.send(frame)?;
                sent += 1;
                if let Some(c) = chaos {
                    if c.record_sent(ep.epoch, range.batch_id) {
                        break 'epochs;
                    }
                }
            }
        }
        let marker = chaos
            .is_none_or(|c| c.end_stream(worker))
            .then(|| wire::encode_end_stream(&origin, sent, connections as u32));
        // Fold this stream's backpressure stalls into the shared counters
        // before the socket (and its stats' last strong ref) goes away.
        self.metrics.add_send_blocked_nanos(
            stats
                .blocked_nanos
                .load(std::sync::atomic::Ordering::Relaxed),
        );
        // A killed worker still closes the socket — accepted frames flush,
        // matching a process whose kernel buffers drain after the crash —
        // but the missing end-of-stream markers are what the receiver of a
        // real crash would (not) see.
        match marker {
            Some(marker) => socket.close_with(Bytes::from(marker))?,
            None => socket.close()?,
        }
        Ok(())
    }

    /// Read one planned range through the source stack and serialize it
    /// into one scatter frame (pooled header buffer + aliased payloads),
    /// stamped with a [`BatchTrace`] carrying this worker's send sequence
    /// number `seq` so the receiver can compute per-batch transit and
    /// queue-dwell latencies.
    fn assemble_batch(
        &self,
        range: &BatchRange,
        epoch: u32,
        origin: &str,
        seq: u64,
        reader: &CachedRangeReader,
    ) -> Result<Frame, DaemonError> {
        let shard = self
            .index
            .shards
            .get(range.shard_id as usize)
            .ok_or_else(|| DaemonError::BadPlan(format!("unknown shard {}", range.shard_id)))?;
        if range.end > shard.records.len() {
            return Err(DaemonError::BadPlan(format!(
                "range [{}, {}) beyond shard {} ({} records)",
                range.start,
                range.end,
                range.shard_id,
                shard.records.len()
            )));
        }

        let read = reader.read_batch(BlockKey {
            shard_id: range.shard_id,
            start: range.start,
            end: range.end,
        })?;

        // A block truncated exactly on a record boundary (storage fault,
        // short read) decodes cleanly to *fewer* records than planned;
        // zipping would then silently ship a partial batch. Fail loudly:
        // lost data must surface as a detectable error, never a quietly
        // smaller batch.
        if read.payloads.len() != range.len() {
            return Err(DaemonError::Storage(RecordError::Truncated {
                offset: read.bytes,
            }));
        }
        let metas = &shard.records[range.start..range.end];
        // Payloads are refcounted slices of the block buffer; the frame
        // aliases them rather than copying (scatter framing writes them to
        // the socket directly).
        let samples: Vec<(u64, u32, Bytes)> = metas
            .iter()
            .zip(&read.payloads)
            .map(|(m, p)| (m.sample_id, m.label, p.clone()))
            .collect();

        // Stamp the send timestamp as late as possible — right before the
        // header encode — so receiver-side transit latency excludes the
        // storage read and batch assembly above.
        let trace = BatchTrace {
            seq,
            sent_at_nanos: clock::now_nanos(),
        };
        let t_ser = Instant::now();
        let frame = wire::encode_batch_frame_traced(
            epoch,
            range.batch_id,
            origin,
            Some(trace),
            &samples,
            &self.pool,
        );
        let ser_nanos = t_ser.elapsed().as_nanos() as u64;
        self.metrics.add_codec_nanos(ser_nanos);
        self.recorder.record(Stage::Encode, ser_nanos);
        self.metrics.record_batch(samples.len() as u64, read.bytes);
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Plan;
    use crate::stream_end::StreamEnds;
    use emlio_datagen::convert::build_tfrecord_dataset;
    use emlio_datagen::DatasetSpec;
    use emlio_tfrecord::source::TfrecordSource;
    use emlio_tfrecord::ShardSpec;
    use emlio_util::testutil::TempDir;
    use emlio_zmq::PullSocket;

    #[test]
    fn daemon_streams_planned_batches() {
        let dir = TempDir::new("daemon-test");
        let spec = DatasetSpec::tiny("daemon", 25);
        build_tfrecord_dataset(dir.path(), &spec, ShardSpec::Count(3)).unwrap();

        let config = EmlioConfig::default()
            .with_batch_size(4)
            .with_threads(2)
            .with_epochs(2);
        let daemon = EmlioDaemon::open("d0", dir.path(), config.clone()).unwrap();
        assert!(daemon.source_description().contains("tfrecord("));
        let plan = Plan::build(daemon.index(), &["node".to_string()], &config);
        let expected: u64 = (0..2).map(|e| plan.batches_for(e, "node")).sum();

        let pull = PullSocket::bind(
            &Endpoint::tcp("127.0.0.1", 0),
            SocketOptions::default().with_hwm(64),
        )
        .unwrap();
        let ep = pull.local_endpoint().unwrap();

        let server = std::thread::spawn(move || daemon.serve(&plan, "node", &ep).unwrap());

        let mut batches = 0u64;
        // Two workers' streams, each ended by one marker per connection.
        let mut ends = StreamEnds::new(2);
        let mut seen_per_epoch = vec![std::collections::HashSet::new(); 2];
        while !ends.is_ended() {
            let frame = pull.recv().unwrap();
            match wire::decode_lazy(&frame, None).unwrap() {
                wire::LazyMsg::Batch(b) => {
                    let b = b.materialize();
                    batches += 1;
                    for s in &b.samples {
                        assert!(
                            seen_per_epoch[b.epoch as usize].insert(s.sample_id),
                            "duplicate sample {} in epoch {}",
                            s.sample_id,
                            b.epoch
                        );
                        assert_eq!(s.label, spec.label_of(s.sample_id));
                        assert_eq!(s.bytes.as_ref(), spec.payload_of(s.sample_id));
                    }
                }
                wire::LazyMsg::EndStream {
                    origin,
                    connections,
                    ..
                } => {
                    ends.marker(&origin, connections);
                }
            }
        }
        server.join().unwrap();
        assert_eq!(batches, expected);
        // Each worker's stream went over its share of the cores' connections.
        let per_worker = local_connections_per_worker(2) as u64;
        assert_eq!(pull.stats().connections, 2 * per_worker);
        for (e, seen) in seen_per_epoch.iter().enumerate() {
            assert_eq!(seen.len(), 25, "epoch {e} exactly-once coverage");
        }
    }

    #[test]
    fn cached_daemon_reads_storage_once_across_epochs() {
        let dir = TempDir::new("daemon-cache-test");
        let spec = DatasetSpec::tiny("cached", 30);
        build_tfrecord_dataset(dir.path(), &spec, ShardSpec::Count(2)).unwrap();

        let config = EmlioConfig::default()
            .with_batch_size(4)
            .with_threads(2)
            .with_epochs(3)
            .with_cache(emlio_cache::CacheConfig::default());
        let daemon = EmlioDaemon::open("d0", dir.path(), config.clone()).unwrap();
        assert!(daemon.source_description().starts_with("cached("));
        let plan = Plan::build(daemon.index(), &["node".to_string()], &config);
        let per_epoch = plan.batches_for(0, "node");
        let total: u64 = (0..3).map(|e| plan.batches_for(e, "node")).sum();

        let pull = PullSocket::bind(
            &Endpoint::tcp("127.0.0.1", 0),
            SocketOptions::default().with_hwm(64),
        )
        .unwrap();
        let ep = pull.local_endpoint().unwrap();
        let metrics = daemon.metrics();
        let server = std::thread::spawn(move || daemon.serve(&plan, "node", &ep).unwrap());

        let mut ends = StreamEnds::new(2);
        let mut batches = 0u64;
        while !ends.is_ended() {
            match wire::decode_lazy(&pull.recv().unwrap(), None).unwrap() {
                wire::LazyMsg::Batch(_) => batches += 1,
                wire::LazyMsg::EndStream {
                    origin,
                    connections,
                    ..
                } => {
                    ends.marker(&origin, connections);
                }
            }
        }
        server.join().unwrap();
        assert_eq!(batches, total);

        // Chunk boundaries are identical every epoch, so with a cache big
        // enough for the dataset each unique block is read exactly once —
        // epochs 2 and 3 never touch storage.
        let snap = metrics.snapshot();
        assert_eq!(snap.storage_reads, per_epoch, "one read per unique block");
        assert_eq!(snap.cache_hits + snap.cache_misses, total);
        assert!(
            snap.cache_hits >= total - per_epoch,
            "later epochs all hit: {snap:?}"
        );
        assert!(snap.cache_bytes_saved > 0);
    }

    #[test]
    fn daemon_rejects_mismatched_plan() {
        let dir = TempDir::new("daemon-badplan");
        let spec = DatasetSpec::tiny("bad", 8);
        build_tfrecord_dataset(dir.path(), &spec, ShardSpec::Count(1)).unwrap();
        let config = EmlioConfig::default().with_threads(2);
        let daemon = EmlioDaemon::open("d0", dir.path(), config).unwrap();
        // Plan built with a different thread count.
        let other_cfg = EmlioConfig::default().with_threads(3);
        let plan = Plan::build(daemon.index(), &["node".to_string()], &other_cfg);
        // Both plans are refused before anything connects.
        let nowhere = Endpoint::tcp("127.0.0.1", 1);
        let err = daemon.serve(&plan, "node", &nowhere).unwrap_err();
        assert!(matches!(err, DaemonError::BadPlan(_)));
        // Unknown node.
        let plan2 = Plan::build(
            daemon.index(),
            &["node".to_string()],
            &EmlioConfig::default().with_threads(2),
        );
        assert!(matches!(
            daemon.serve(&plan2, "ghost", &nowhere),
            Err(DaemonError::BadPlan(_))
        ));
    }

    #[test]
    fn boundary_truncated_block_is_a_detectable_error() {
        // A block cut exactly on a record boundary decodes cleanly to
        // fewer records than planned — the one truncation shape the frame
        // parser cannot see. The daemon must refuse to ship the partial
        // batch (regression: this used to be a release-invisible
        // debug_assert).
        struct Cut {
            inner: TfrecordSource,
        }
        impl RangeSource for Cut {
            fn read_block(&self, key: &BlockKey) -> Result<BlockRead, RecordError> {
                let mut r = self.inner.read_block(key)?;
                let (_, next) = emlio_tfrecord::record::decode_at(&r.data, 0, false)?;
                r.data = r.data.slice(0..next as usize);
                Ok(r)
            }
            fn describe(&self) -> String {
                "cut -> tfrecord".into()
            }
        }

        let dir = TempDir::new("daemon-shortread");
        let spec = DatasetSpec::tiny("short", 8);
        build_tfrecord_dataset(dir.path(), &spec, ShardSpec::Count(1)).unwrap();
        let index = Arc::new(GlobalIndex::load_dir(dir.path()).unwrap());
        let config = EmlioConfig::default().with_batch_size(4).with_threads(1);
        let daemon = EmlioDaemon::open_with_base(
            "d0",
            index.clone(),
            config.clone(),
            Arc::new(Cut {
                inner: TfrecordSource::new(index),
            }),
        )
        .unwrap();
        let plan = Plan::build(daemon.index(), &["n".to_string()], &config);
        let pull =
            PullSocket::bind(&Endpoint::tcp("127.0.0.1", 0), SocketOptions::default()).unwrap();
        let err = daemon
            .serve(&plan, "n", &pull.local_endpoint().unwrap())
            .unwrap_err();
        assert!(
            matches!(err, DaemonError::Storage(RecordError::Truncated { .. })),
            "partial batch must surface as truncation, got {err}"
        );
    }

    #[test]
    fn each_worker_stripes_over_its_share_of_the_cores() {
        assert_eq!(connections_per_worker(2, 1), 2);
        assert_eq!(connections_per_worker(2, 2), 1);
        assert_eq!(connections_per_worker(4, 3), 2);
        assert_eq!(connections_per_worker(8, 3), 3);
        assert_eq!(connections_per_worker(1, 4), 1);
    }

    #[test]
    fn open_missing_dataset_fails() {
        let dir = TempDir::new("daemon-missing");
        assert!(matches!(
            EmlioDaemon::open("d0", dir.path(), EmlioConfig::default()),
            Err(DaemonError::Storage(_))
        ));
    }
}

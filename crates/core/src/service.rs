//! Deployment harness: wire planner + daemons + receiver into a running
//! EMLIO service (Figure 3's whole block diagram, in one call).
//!
//! [`EmlioService::launch`] / [`launch_with`](EmlioService::launch_with)
//! are the one place a deployment is stood up, and
//! [`Deployment::drain`] the one place it is consumed to its end and
//! fingerprinted: the CLI, the chaos sweep, the contention experiment and
//! the test tree all come through here. Everything runs in one process
//! over real TCP. For WAN emulation `launch_with` interposes an
//! `emlio-netem` proxy that forwards to the receiver — daemons then
//! experience the shaped RTT/bandwidth.
//!
//! Each daemon runs on its own thread. A daemon whose spec carries a
//! [`ChaosController`](crate::chaos::ChaosController) is served under the
//! kill/restart loop on that thread: serve until done or killed, drop the
//! incarnation, reopen it from the same spec, re-serve against the
//! controller's exactly-once ledger. A daemon thread that ends in an error
//! (or a panic) stops the receiver's socket, so the consumer sees
//! end-of-stream after what already arrived and the error comes back from
//! [`Deployment::join_daemons`] — a failed daemon never leaves the
//! consumer waiting for markers that will not come.

use crate::config::EmlioConfig;
use crate::daemon::{DaemonError, EmlioDaemon};
use crate::metrics::{DataPathMetrics, MetricsSnapshot};
use crate::plan::Plan;
use crate::receiver::{EmlioReceiver, ReceiverConfig};
use crate::stack::StackSpec;
use crate::wire::LazyBatch;
use emlio_obs::StageRecorder;
use emlio_pipeline::ExternalSource;
use emlio_tfrecord::GlobalIndex;
use emlio_util::fnv1a;
use emlio_zmq::{Endpoint, StopHandle};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// One storage node: an id, the directory holding its shards, and what
/// its daemon reads them over.
#[derive(Clone)]
pub struct StorageSpec {
    /// Daemon id (appears in wire `origin` fields).
    pub id: String,
    /// Dataset directory (TFRecord shards + `mapping_shard_*.json`).
    pub dataset_dir: PathBuf,
    /// What the daemon reads over (default: the local shards, solo).
    pub stack: StackSpec,
    /// The directory's shard index, when the caller has already loaded it
    /// (daemons sharing one mount build their roots over one); loaded
    /// from `dataset_dir` otherwise.
    pub index: Option<Arc<GlobalIndex>>,
}

impl StorageSpec {
    /// A daemon `id` reading `dataset_dir`'s local shards.
    pub fn new(id: &str, dataset_dir: impl Into<PathBuf>) -> StorageSpec {
        StorageSpec {
            id: id.to_string(),
            dataset_dir: dataset_dir.into(),
            stack: StackSpec::default(),
            index: None,
        }
    }
}

/// One delivered sample: `(epoch, sample_id, label, FNV-1a payload digest)`.
pub type Fingerprint = (u32, u64, u32, u64);

/// What [`Deployment::drain`] saw: everything the compute side received
/// and how the daemons ended.
#[derive(Debug)]
pub struct Delivery {
    /// Batches received.
    pub batches: u64,
    /// Every received sample, sorted: independent of arrival order, so two
    /// runs delivered the same bytes exactly when these are equal.
    pub fingerprint: Vec<Fingerprint>,
    /// [`Deployment::join_daemons`]'s result.
    pub served: Result<u32, DaemonError>,
}

/// What a daemon thread hands back: its [`Deployment::post_mortems`], and
/// how many restarts it took — `None` when it failed, its error having
/// gone to the deployment's [`FirstError`].
type Served = (Vec<Result<(MetricsSnapshot, u64), String>>, Option<u32>);

/// The error of the daemon that failed first *in time*. One daemon's
/// failure ends the stream for all of them, so the survivors' transport
/// errors follow it: the first is the root cause, wherever its daemon
/// sits in `storage` order.
type FirstError = Arc<Mutex<Option<DaemonError>>>;

/// A launched deployment: a receiver plus daemon threads streaming into it.
pub struct Deployment {
    /// The compute-side receiver.
    pub receiver: EmlioReceiver,
    /// Per-epoch expected batch count on the compute node.
    pub batches_per_epoch: Vec<u64>,
    /// Storage-side counters, one per daemon in `storage` order (includes
    /// the cache hit/miss/bytes-saved telemetry when caching is enabled).
    /// A daemon served under a chaos controller has bare counters here: a
    /// handle held across a kill would keep the killed incarnation's cache
    /// alive past the reopen.
    pub daemon_metrics: Vec<Arc<DataPathMetrics>>,
    /// Each incarnation of each daemon served under a chaos controller, in
    /// `storage` order and then incarnation order, as its serve ended: its
    /// final counters and the spill-file bytes its cache left for the next
    /// incarnation to re-admit — or why that cache's books did not balance.
    pub post_mortems: Vec<Result<(MetricsSnapshot, u64), String>>,
    /// Per-stage latency histograms, one per daemon in `storage` order.
    pub daemon_recorders: Vec<Arc<StageRecorder>>,
    daemons: Vec<JoinHandle<Served>>,
    first_error: FirstError,
    /// Keeps interposed infrastructure (e.g. a netem proxy) alive for the
    /// deployment's lifetime.
    _guard: Box<dyn std::any::Any + Send>,
}

impl Deployment {
    /// Wait for every daemon to finish streaming. Call after consuming all
    /// batches (or concurrently from another thread). Returns the restarts
    /// the kill/restart loops performed, or the error of the daemon that
    /// failed first in time.
    pub fn join_daemons(&mut self) -> Result<u32, DaemonError> {
        let mut restarts = 0u32;
        for h in self.daemons.drain(..) {
            // A failed or panicked daemon left its error in `first_error`.
            if let Ok((post_mortems, served)) = h.join() {
                self.post_mortems.extend(post_mortems);
                restarts += served.unwrap_or(0);
            }
        }
        let first = self
            .first_error
            .lock()
            .expect("a daemon thread stores its error in one assignment")
            .take();
        first.map_or(Ok(restarts), Err)
    }

    /// Consume the receiver to its end, fingerprinting every sample, then
    /// join the daemons. Ends — with the error in
    /// [`Delivery::served`] — when a daemon fails.
    pub fn drain(&mut self) -> Delivery {
        let mut src = self.receiver.source();
        let mut fingerprint = Vec::new();
        let mut batches = 0u64;
        while let Some(b) = src.next_batch() {
            batches += 1;
            for s in &b.samples {
                fingerprint.push((b.epoch, s.sample_id, s.label, fnv1a(&s.bytes)));
            }
        }
        fingerprint.sort_unstable();
        Delivery {
            batches,
            fingerprint,
            served: self.join_daemons(),
        }
    }

    /// Total expected batches across epochs.
    pub fn total_batches(&self) -> u64 {
        self.batches_per_epoch.iter().sum()
    }
}

/// Held by a daemon thread. When the thread ends any other way than `Ok`
/// (an unwinding panic included) it records the error, unless another
/// daemon's is there already, and then stops the receiver's socket — in
/// that order, so whoever fails *because* the stream ended finds the root
/// cause recorded.
struct StopIntakeOnFailure {
    stop: StopHandle<LazyBatch>,
    first_error: FirstError,
    failed: Option<DaemonError>,
}

impl StopIntakeOnFailure {
    /// The thread's work ended in `served`.
    fn settle(mut self, served: Result<u32, DaemonError>) -> Option<u32> {
        match served {
            Ok(restarts) => {
                self.failed = None;
                Some(restarts)
            }
            Err(e) => {
                self.failed = Some(e);
                None
            }
        }
    }
}

impl Drop for StopIntakeOnFailure {
    fn drop(&mut self) {
        if let Some(e) = self.failed.take() {
            // A poisoned slot only loses this error; never panic in drop.
            if let Ok(mut first) = self.first_error.lock() {
                first.get_or_insert(e);
            }
            self.stop.stop();
        }
    }
}

/// One entry of [`Deployment::post_mortems`], taken before the incarnation
/// drops.
fn post_mortem(daemon: &EmlioDaemon) -> Result<(MetricsSnapshot, u64), String> {
    let metrics = daemon.metrics();
    let cache = metrics.stack().and_then(|s| s.cache.as_deref());
    cache.map_or(Ok(()), |c| c.check_books())?;
    Ok((metrics.snapshot(), cache.map_or(0, |c| c.disk_bytes_used())))
}

/// Open `spec`'s daemon — at launch, and again after each chaos kill.
fn open(
    spec: &StorageSpec,
    index: &Arc<GlobalIndex>,
    config: &EmlioConfig,
) -> Result<EmlioDaemon, DaemonError> {
    EmlioDaemon::open_stack(&spec.id, index.clone(), config.clone(), spec.stack.clone())
}

/// Service entry points.
pub struct EmlioService;

impl EmlioService {
    /// Launch a single-compute-node deployment: one receiver, one daemon per
    /// storage spec, each daemon planning over its own shards and
    /// connecting directly to the receiver.
    pub fn launch(
        storage: &[StorageSpec],
        config: &EmlioConfig,
        node_id: &str,
    ) -> Result<Deployment, DaemonError> {
        Self::launch_with(storage, config, node_id, |receiver_ep| {
            (receiver_ep.clone(), Box::new(()))
        })
    }

    /// Like [`launch`](Self::launch), but the caller decides where daemons
    /// connect *after* seeing the receiver's bound endpoint — the hook for
    /// interposing an `emlio-netem` shaping proxy. The returned guard is
    /// held for the deployment's lifetime.
    ///
    /// Every daemon is opened before any of them serves, so a fleet's
    /// daemons all find each other's cache tiers attached to the registry
    /// from their first read.
    ///
    /// A daemon whose spec is [`StackSpec::with_chaos`] is served until it
    /// completes or the controller's armed kill point trips; then the
    /// incarnation is torn down (sockets, cache, pool — what a crashed
    /// process loses), reopened from the same spec and re-served against
    /// the controller's retained exactly-once ledger. A persistent cache
    /// (`CacheConfig::with_persist_dir`) re-admits its spill tier across
    /// the restart: the killed incarnation's cache has drained its spill
    /// writer and written its spill index before the next one opens.
    /// Everything else starts cold. Killed incarnations end
    /// their streams without markers, and no stream gets a second one
    /// ([`ChaosController::end_stream`](crate::chaos::ChaosController::end_stream)),
    /// so the receiver's budget of daemons × `T` streams, each ended by one
    /// marker per connection, is met once per stream. Each armed kill point trips at most once, so the loop
    /// ends when the controller's schedule does.
    pub fn launch_with<F>(
        storage: &[StorageSpec],
        config: &EmlioConfig,
        node_id: &str,
        interpose: F,
    ) -> Result<Deployment, DaemonError>
    where
        F: FnOnce(&Endpoint) -> (Endpoint, Box<dyn std::any::Any + Send>),
    {
        assert!(!storage.is_empty(), "need at least one storage node");
        // Every daemon runs T worker streams.
        let expected_streams = (storage.len() * config.threads_per_node) as u32;
        let receiver = EmlioReceiver::bind(ReceiverConfig {
            hwm: config.hwm,
            ..ReceiverConfig::loopback(expected_streams)
        })
        .map_err(DaemonError::Transport)?;
        let (connect_to, guard) = interpose(receiver.endpoint());

        let mut opened = Vec::with_capacity(storage.len());
        let mut daemon_metrics = Vec::with_capacity(storage.len());
        let mut daemon_recorders = Vec::with_capacity(storage.len());
        let mut batches_per_epoch = vec![0u64; config.epochs as usize];
        for spec in storage {
            let index = match &spec.index {
                Some(index) => index.clone(),
                None => Arc::new(GlobalIndex::load_dir(&spec.dataset_dir)?),
            };
            let daemon = open(spec, &index, config)?;
            let metrics = spec.stack.chaos.is_none().then(|| daemon.metrics());
            daemon_metrics.push(metrics.unwrap_or_default());
            daemon_recorders.push(daemon.recorder());
            let plan = Plan::build(&index, &[node_id.to_string()], config);
            for e in 0..config.epochs {
                batches_per_epoch[e as usize] += plan.batches_for(e, node_id);
            }
            opened.push((daemon, index, plan));
        }

        let first_error = FirstError::default();
        let mut daemons = Vec::with_capacity(storage.len());
        for (spec, (mut daemon, index, plan)) in storage.iter().zip(opened) {
            let name = format!("emlio-daemon-{}", spec.id);
            let (spec, config, node_id) = (spec.clone(), config.clone(), node_id.to_string());
            let endpoint = connect_to.clone();
            let intake = StopIntakeOnFailure {
                stop: receiver.stop_handle(),
                first_error: first_error.clone(),
                failed: Some(DaemonError::BadPlan("daemon panicked".into())),
            };
            let serve = move || {
                let mut post_mortems = Vec::new();
                let mut restarts = 0u32;
                let served = loop {
                    let served = daemon.serve(&plan, &node_id, &endpoint).map(|()| restarts);
                    let Some(chaos) = &spec.stack.chaos else {
                        break served;
                    };
                    post_mortems.push(post_mortem(&daemon));
                    if served.is_err() || !chaos.is_killed() {
                        break served;
                    }
                    restarts += 1;
                    // Drop before reopening: the incarnation's sockets close
                    // and its in-RAM cache state is lost, as in a real crash,
                    // and what it spilled is indexed for the next one.
                    drop(daemon);
                    chaos.reset_for_restart();
                    daemon = match open(&spec, &index, &config) {
                        Ok(d) => d,
                        Err(e) => break Err(e),
                    };
                };
                (post_mortems, intake.settle(served))
            };
            daemons.push(
                std::thread::Builder::new()
                    .name(name)
                    .spawn(serve)
                    .expect("spawn daemon thread"),
            );
        }
        Ok(Deployment {
            receiver,
            batches_per_epoch,
            daemon_metrics,
            post_mortems: Vec::new(),
            daemon_recorders,
            daemons,
            first_error,
            _guard: guard,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosController;
    use emlio_datagen::convert::build_tfrecord_dataset;
    use emlio_datagen::DatasetSpec;
    use emlio_tfrecord::ShardSpec;
    use emlio_util::testutil::TempDir;

    #[test]
    fn two_daemons_one_receiver_full_delivery() {
        let dir = TempDir::new("service-test");
        let config = EmlioConfig::default()
            .with_batch_size(5)
            .with_threads(2)
            .with_epochs(2);

        // Two storage nodes, each with its own (distinct) dataset half.
        let mut storage = Vec::new();
        let mut expected_samples = 0u64;
        for node in 0..2 {
            let spec = DatasetSpec::tiny(&format!("svc{node}"), 17).with_samples(17);
            let d = dir.path().join(format!("storage{node}"));
            build_tfrecord_dataset(&d, &spec, ShardSpec::Count(2)).unwrap();
            expected_samples += spec.num_samples;
            storage.push(StorageSpec::new(&format!("storage{node}"), d));
        }

        let mut dep = EmlioService::launch(&storage, &config, "compute-0").unwrap();
        let mut src = dep.receiver.source();
        let mut per_epoch_samples = [0u64; 2];
        let mut batches = 0u64;
        while let Some(b) = src.next_batch() {
            batches += 1;
            per_epoch_samples[b.epoch as usize] += b.samples.len() as u64;
        }
        assert_eq!(batches, dep.total_batches());
        for (e, &n) in per_epoch_samples.iter().enumerate() {
            assert_eq!(n, expected_samples, "epoch {e} delivers the union");
        }
        dep.join_daemons().unwrap();
    }

    #[test]
    fn the_daemon_that_failed_first_in_time_names_the_error() {
        use emlio_tfrecord::FnSource;
        use std::sync::OnceLock;

        let dir = TempDir::new("service-first-error");
        let spec = DatasetSpec::tiny("svc", 8).with_samples(8);
        build_tfrecord_dataset(dir.path(), &spec, ShardSpec::Count(1)).unwrap();
        // "a" is first in storage order, but only fails once the stream
        // has been stopped — which the launch harness does after it has
        // recorded the failure of "b", whose storage is broken outright.
        let stopped: Arc<OnceLock<StopHandle<LazyBatch>>> = Arc::default();
        let stopped2 = stopped.clone();
        let follow_on = FnSource::new(move |_k: &emlio_tfrecord::BlockKey| {
            while !stopped2.get().is_some_and(StopHandle::is_stopped) {
                std::thread::yield_now();
            }
            Err(std::io::Error::other("follow-on"))
        });
        let root_cause =
            FnSource::new(|_k: &emlio_tfrecord::BlockKey| Err(std::io::Error::other("root cause")));
        let storage = [
            StorageSpec {
                stack: StackSpec::over(Arc::new(follow_on)),
                ..StorageSpec::new("a", dir.path())
            },
            StorageSpec {
                stack: StackSpec::over(Arc::new(root_cause)),
                ..StorageSpec::new("b", dir.path())
            },
        ];
        let config = EmlioConfig::default().with_batch_size(4).with_threads(1);
        let mut dep = EmlioService::launch(&storage, &config, "n").unwrap();
        assert!(stopped.set(dep.receiver.stop_handle()).is_ok());
        let err = dep.drain().served.unwrap_err().to_string();
        assert!(err.contains("root cause"), "{err}");
    }

    #[test]
    fn chaos_kill_restart_delivers_every_batch_exactly_once() {
        let dir = TempDir::new("chaos-restart");
        let spec = DatasetSpec::tiny("chaos", 24);
        build_tfrecord_dataset(dir.path(), &spec, ShardSpec::Count(2)).unwrap();
        let config = EmlioConfig::default()
            .with_batch_size(4)
            .with_threads(2)
            .with_epochs(2);

        let controller = ChaosController::new();
        controller.arm(3); // die mid-epoch 0
        controller.arm(5); // and again shortly after the first restart
        let storage = StorageSpec {
            stack: StackSpec::default().with_chaos(controller.clone()),
            ..StorageSpec::new("d0", dir.path())
        };

        // Two send workers per incarnation; the killed incarnations'
        // streams end without markers, so the receiver's stream budget is
        // satisfied by the final (uninterrupted) incarnation alone.
        let mut dep = EmlioService::launch(&[storage], &config, "node").unwrap();
        let delivery = dep.drain();
        assert_eq!(
            delivery.served.unwrap(),
            2,
            "both armed kill points tripped"
        );
        assert_eq!(controller.kills(), 2);
        assert_eq!(
            dep.post_mortems.len(),
            3,
            "one set of counters per incarnation"
        );
        // Between them the three incarnations served every batch once.
        let served = dep
            .post_mortems
            .iter()
            .map(|p| p.as_ref().unwrap().0.batches);
        assert_eq!(served.sum::<u64>(), delivery.batches);
        // Sorted, so a sample delivered twice across incarnations would sit
        // next to itself.
        let samples: Vec<(u32, u64)> = delivery
            .fingerprint
            .iter()
            .map(|&(epoch, id, ..)| (epoch, id))
            .collect();
        let planned: Vec<(u32, u64)> = (0..2)
            .flat_map(|e| (0..24).map(move |id| (e, id)))
            .collect();
        assert_eq!(samples, planned, "every sample of both epochs exactly once");
    }
}

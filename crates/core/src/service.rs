//! Deployment harness: wire planner + daemons + receiver into a running
//! EMLIO service (Figure 3's whole block diagram, in one call).
//!
//! The harness runs everything in one process over real TCP. For WAN
//! emulation, [`EmlioService::launch_with`] interposes an `emlio-netem`
//! proxy that forwards to the receiver — daemons then experience the
//! shaped RTT/bandwidth.

use crate::chaos::ChaosController;
use crate::config::EmlioConfig;
use crate::daemon::{DaemonError, EmlioDaemon};
use crate::metrics::DataPathMetrics;
use crate::plan::Plan;
use crate::receiver::{EmlioReceiver, ReceiverConfig};
use crate::stack::StackSpec;
use emlio_obs::StageRecorder;
use emlio_tfrecord::GlobalIndex;
use emlio_zmq::Endpoint;
use std::path::PathBuf;
use std::sync::Arc;
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
}

impl StorageSpec {
    /// A daemon `id` reading `dataset_dir`'s local shards.
    pub fn new(id: &str, dataset_dir: impl Into<PathBuf>) -> StorageSpec {
        StorageSpec {
            id: id.to_string(),
            dataset_dir: dataset_dir.into(),
            stack: StackSpec::default(),
        }
    }
}

/// A launched deployment: a receiver plus daemon threads streaming into it.
pub struct Deployment {
    /// The compute-side receiver.
    pub receiver: EmlioReceiver,
    /// Per-epoch expected batch count on the compute node.
    pub batches_per_epoch: Vec<u64>,
    /// Storage-side counters, one per daemon in `storage` order (includes
    /// the cache hit/miss/bytes-saved telemetry when caching is enabled).
    pub daemon_metrics: Vec<Arc<DataPathMetrics>>,
    /// Per-stage latency histograms, one per daemon in `storage` order.
    pub daemon_recorders: Vec<Arc<StageRecorder>>,
    daemons: Vec<JoinHandle<Result<(), DaemonError>>>,
    /// Keeps interposed infrastructure (e.g. a netem proxy) alive for the
    /// deployment's lifetime.
    _guard: Box<dyn std::any::Any + Send>,
}

impl Deployment {
    /// Wait for every daemon to finish streaming. Call after consuming all
    /// batches (or concurrently from another thread).
    pub fn join_daemons(&mut self) -> Result<(), DaemonError> {
        let mut first_err = None;
        for h in self.daemons.drain(..) {
            match h.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => first_err = first_err.or(Some(e)),
                Err(_) => {
                    first_err = first_err.or(Some(DaemonError::BadPlan("daemon panicked".into())))
                }
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Total expected batches across epochs.
    pub fn total_batches(&self) -> u64 {
        self.batches_per_epoch.iter().sum()
    }
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
            queue_capacity: config.hwm,
            ..ReceiverConfig::loopback(expected_streams)
        })
        .map_err(DaemonError::Transport)?;
        let (connect_to, guard) = interpose(receiver.endpoint());

        let mut opened = Vec::with_capacity(storage.len());
        let mut daemon_metrics = Vec::with_capacity(storage.len());
        let mut daemon_recorders = Vec::with_capacity(storage.len());
        let mut batches_per_epoch = vec![0u64; config.epochs as usize];
        for spec in storage {
            let index = Arc::new(GlobalIndex::load_dir(&spec.dataset_dir)?);
            let daemon =
                EmlioDaemon::open_stack(&spec.id, index, config.clone(), spec.stack.clone())?;
            daemon_metrics.push(daemon.metrics());
            daemon_recorders.push(daemon.recorder());
            let plan = Plan::build(daemon.index(), &[node_id.to_string()], config);
            for e in 0..config.epochs {
                batches_per_epoch[e as usize] += plan.batches_for(e, node_id);
            }
            opened.push((daemon, plan));
        }

        let mut daemons = Vec::with_capacity(storage.len());
        for (spec, (daemon, plan)) in storage.iter().zip(opened) {
            let node_id = node_id.to_string();
            let endpoint = connect_to.clone();
            daemons.push(
                std::thread::Builder::new()
                    .name(format!("emlio-daemon-{}", spec.id))
                    .spawn(move || daemon.serve(&plan, &node_id, &endpoint))
                    .expect("spawn daemon thread"),
            );
        }
        Ok(Deployment {
            receiver,
            batches_per_epoch,
            daemon_metrics,
            daemon_recorders,
            daemons,
            _guard: guard,
        })
    }

    /// Serve `plan` under a kill/restart loop: open a daemon via `open`,
    /// serve until it completes or the `controller`'s armed kill point
    /// trips, then tear the daemon down (sockets, cache, pool — exactly
    /// what a crashed process loses), re-open, and re-serve against the
    /// controller's retained exactly-once ledger. A persistent cache
    /// (`CacheConfig::with_persist_dir`) re-admits its spill tier across
    /// the restart; everything else starts cold.
    ///
    /// Returns the number of restarts performed. Fails with
    /// [`DaemonError::BadPlan`] if the controller keeps killing past
    /// `max_restarts` — a disarmed controller after
    /// [`ChaosController::reset_for_restart`] makes that unreachable in
    /// practice unless the caller re-arms from another thread.
    pub fn serve_with_chaos<F>(
        open: F,
        plan: &Plan,
        node_id: &str,
        endpoint: &Endpoint,
        controller: &Arc<ChaosController>,
        max_restarts: u32,
    ) -> Result<u32, DaemonError>
    where
        F: Fn() -> Result<EmlioDaemon, DaemonError>,
    {
        let mut restarts = 0u32;
        loop {
            let daemon = open()?;
            daemon.serve_chaos(plan, node_id, endpoint, controller)?;
            if !controller.is_killed() {
                return Ok(restarts);
            }
            if restarts >= max_restarts {
                return Err(DaemonError::BadPlan(format!(
                    "chaos: daemon killed more than {max_restarts} times"
                )));
            }
            restarts += 1;
            // Drop before reopening: the incarnation's sockets close and
            // its in-RAM cache state is lost, as in a real crash.
            drop(daemon);
            controller.reset_for_restart();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emlio_datagen::convert::build_tfrecord_dataset;
    use emlio_datagen::DatasetSpec;
    use emlio_pipeline::ExternalSource;
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
    fn chaos_kill_restart_delivers_every_batch_exactly_once() {
        use crate::receiver::{EmlioReceiver, ReceiverConfig};
        use emlio_tfrecord::GlobalIndex;

        let dir = TempDir::new("chaos-restart");
        let spec = DatasetSpec::tiny("chaos", 24);
        build_tfrecord_dataset(dir.path(), &spec, ShardSpec::Count(2)).unwrap();
        let config = EmlioConfig::default()
            .with_batch_size(4)
            .with_threads(2)
            .with_epochs(2);
        let index = Arc::new(GlobalIndex::load_dir(dir.path()).unwrap());
        let plan = Plan::build(&index, &["node".to_string()], &config);

        // Two send workers per incarnation; the killed incarnation's
        // streams end without markers, so the receiver's stream budget is
        // satisfied by the final (uninterrupted) incarnation alone.
        let receiver = EmlioReceiver::bind(ReceiverConfig {
            hwm: config.hwm,
            queue_capacity: config.hwm,
            ..ReceiverConfig::loopback(config.threads_per_node as u32)
        })
        .unwrap();
        let endpoint = receiver.endpoint().clone();

        let controller = ChaosController::new();
        controller.arm(3); // die mid-epoch 0
        controller.arm(5); // and again shortly after the first restart

        let server = {
            let config = config.clone();
            let plan = plan.clone();
            let controller = controller.clone();
            let dataset = dir.path().to_path_buf();
            std::thread::spawn(move || {
                EmlioService::serve_with_chaos(
                    || EmlioDaemon::open("d0", &dataset, config.clone()),
                    &plan,
                    "node",
                    &endpoint,
                    &controller,
                    4,
                )
            })
        };

        let mut src = receiver.source();
        let mut seen = vec![std::collections::HashSet::new(); 2];
        while let Some(b) = src.next_batch() {
            for s in &b.samples {
                assert!(
                    seen[b.epoch as usize].insert(s.sample_id),
                    "duplicate sample {} in epoch {} across incarnations",
                    s.sample_id,
                    b.epoch
                );
            }
        }
        let restarts = server.join().unwrap().unwrap();
        assert_eq!(restarts, 2, "both armed kill points tripped");
        assert_eq!(controller.kills(), 2);
        for (e, s) in seen.iter().enumerate() {
            assert_eq!(s.len(), 24, "epoch {e}: no batch lost to the kills");
        }
    }
}

//! [`ReadStack`] — the one place a daemon's read stack is built, wired
//! and counted.
//!
//! Callers say *what* a daemon reads over (a [`StackSpec`]: the root and,
//! for a cooperative fleet, the registry it is a member of) and
//! [`EmlioConfig`] says whether it caches and retries; the layer order,
//! the recorder wiring and the counters are decided here and nowhere else.
//! The spec also carries what a chaos run does to the daemon it opens —
//! the kill switch its serve obeys and the injector behind its cache's
//! `spill.write` failpoint — so every incarnation reopened from a cloned
//! spec is under the same schedule.

use crate::chaos::ChaosController;
use crate::config::EmlioConfig;
use crate::daemon::{DaemonError, MeteredSource};
use crate::metrics::{DataPathMetrics, StackCounters};
use crate::pool::BufferPool;
use emlio_cache::{CachedSource, FleetRegistry, LocalPeer, PeerConfig, PeerSource, ShardCache};
use emlio_obs::StageRecorder;
use emlio_tfrecord::source::{RangeSource, TfrecordSource};
use emlio_tfrecord::{GlobalIndex, RecordError, RetrySource};
use emlio_util::fault::{FaultInjector, RetryPolicy};
use std::sync::Arc;

/// What a daemon reads over. The default is the dataset's local shards,
/// solo.
#[derive(Clone, Default)]
pub struct StackSpec {
    root: Option<Arc<dyn RangeSource>>,
    fleet: Option<(Arc<FleetRegistry>, PeerConfig)>,
    pub(crate) chaos: Option<Arc<ChaosController>>,
    faults: Option<Arc<FaultInjector>>,
}

impl StackSpec {
    /// Read `root` instead of the local shards: an `emlio-netem`
    /// `NfsSource`, a `FaultSource`-wrapped leaf, or a pre-built stack the
    /// daemon treats as opaque.
    pub fn over(root: Arc<dyn RangeSource>) -> StackSpec {
        StackSpec {
            root: Some(root),
            ..StackSpec::default()
        }
    }

    /// Make the daemon a member of `registry`'s cooperative fleet. Every
    /// member must have [`FleetRegistry::join`]ed before any of them
    /// serves, so all compute the same block ownership.
    pub fn in_fleet(mut self, registry: Arc<FleetRegistry>, config: PeerConfig) -> StackSpec {
        self.fleet = Some((registry, config));
        self
    }

    /// Serve under `controller`: the daemon's workers skip what its ledger
    /// already holds and abandon their streams when its armed kill point
    /// trips, and a launched daemon is then dropped, reopened from this
    /// spec and re-served (see [`EmlioService::launch_with`]).
    ///
    /// [`EmlioService::launch_with`]: crate::service::EmlioService::launch_with
    pub fn with_chaos(mut self, controller: Arc<ChaosController>) -> StackSpec {
        self.chaos = Some(controller);
        self
    }

    /// Replay `injector` at the sites the stack itself owns: today the
    /// cache's `spill.write`. (A faulted root or mount is part of the root
    /// the caller hands to [`over`](StackSpec::over).)
    pub fn with_faults(mut self, injector: Arc<FaultInjector>) -> StackSpec {
        self.faults = Some(injector);
        self
    }
}

/// One daemon's composed read stack, outermost layer first:
///
/// ```text
/// cached? -> metered -> peer? -> retry? -> root
/// ```
///
/// | layer | present when | why it sits there |
/// |---|---|---|
/// | `cached` | [`EmlioConfig::cache`] is set | hits never reach anything below |
/// | `metered` | always | counts exactly the reads that fall through the cache; a peer-served block is not a storage read |
/// | `peer` | the spec is [`in_fleet`](StackSpec::in_fleet) | a block another daemon holds or is reading never reaches storage |
/// | `retry` | [`EmlioConfig::io_retries`] `> 0` | directly above the root and *under* the fleet flight: a transient error is retried once by the flight's leader, not once per follower |
/// | root | always | `TfrecordSource` over the stack's [`BufferPool`], or the spec's [`over`](StackSpec::over) source |
///
/// What [`describe`](ReadStack::describe) prints for each topology the
/// spec and config can express (3 local shards, daemon `d0` in a fleet of
/// two, NFS mount at `/mnt/ds`):
///
/// ```text
/// metered -> tfrecord(3 shards)
/// cached(clairvoyant 64 MiB ram / 0 MiB disk) -> metered -> tfrecord(3 shards)
/// metered -> retry(3x, base 5ms) -> tfrecord(3 shards)
/// metered -> nfs(/mnt/ds)
/// cached(clairvoyant 64 MiB ram / 0 MiB disk) -> metered -> peer(d0, fleet=2) -> nfs(/mnt/ds)
/// cached(clairvoyant 64 MiB ram / 0 MiB disk) -> metered -> peer(d0, fleet=2) -> retry(3x, base 5ms) -> nfs(/mnt/ds)
/// ```
///
/// Because it builds every layer, `build` also does all the wiring: one
/// [`StageRecorder`] goes into the pool, the retry, peer and metered
/// layers and the cache; a fleet member's cache is attached to the
/// registry as the tier its peers fetch from; and the components that
/// count off the data path (cache, peer layer, retry layer, pool) are
/// handed to the stack's [`DataPathMetrics`], whose `snapshot()` reads
/// their own counters.
pub struct ReadStack {
    /// The outermost layer: what the daemon's readers call.
    pub source: Arc<dyn RangeSource>,
    /// The caching layer, when configured.
    pub cached: Option<Arc<CachedSource>>,
    /// The fleet layer, when the spec is in a fleet.
    pub peer: Option<Arc<PeerSource>>,
    /// The daemon's buffer pool: wire headers, and the local root's block
    /// buffers where a shard could not be mapped (a mapped shard's blocks
    /// are views and take none).
    pub pool: BufferPool,
    /// The recorder every layer reports its stage latencies to.
    pub recorder: Arc<StageRecorder>,
    /// The stack's counters.
    pub metrics: Arc<DataPathMetrics>,
}

impl ReadStack {
    /// Build daemon `id`'s stack over `index`'s dataset.
    pub fn build(
        id: &str,
        index: &Arc<GlobalIndex>,
        config: &EmlioConfig,
        spec: StackSpec,
    ) -> Result<ReadStack, DaemonError> {
        let recorder = StageRecorder::shared();
        let pool = BufferPool::new();
        pool.set_recorder(recorder.clone());
        let mut source = spec.root.unwrap_or_else(|| {
            Arc::new(TfrecordSource::new(index.clone()).with_alloc(Arc::new(pool.clone())))
        });
        let mut retry = None;
        if config.io_retries > 0 {
            let policy =
                RetryPolicy::new(config.io_retries, config.io_backoff).with_seed(config.seed);
            let layer = RetrySource::new(source, policy);
            layer.set_recorder(recorder.clone());
            retry = Some(layer.stats());
            source = Arc::new(layer);
        }
        let mut peer = None;
        if let Some((registry, peer_config)) = &spec.fleet {
            let layer = PeerSource::new(registry.clone(), id, source, peer_config.clone());
            layer.set_recorder(recorder.clone());
            source = layer.clone();
            peer = Some(layer);
        }
        let cache = match &config.cache {
            None => None,
            Some(cache_config) => {
                let cache = Arc::new(
                    ShardCache::new(cache_config.clone())
                        .map_err(|e| DaemonError::Storage(RecordError::Io(e)))?,
                );
                // Spill writes and warm promotes run on cache-owned threads.
                cache.set_recorder(recorder.clone());
                if let Some(injector) = spec.faults {
                    cache.set_fault_injector(injector);
                }
                if let Some((registry, _)) = &spec.fleet {
                    registry.attach(id, LocalPeer::new(&cache));
                }
                Some(cache)
            }
        };
        let metrics = Arc::new(DataPathMetrics::over(StackCounters {
            cache: cache.clone(),
            peer: peer.as_ref().map(|p| p.stats()),
            retry,
            pool: pool.clone(),
        }));
        source =
            Arc::new(MeteredSource::new(source, metrics.clone()).with_recorder(recorder.clone()));
        let cached = cache.map(|cache| {
            Arc::new(CachedSource::new(cache, source.clone()).with_recorder(recorder.clone()))
        });
        if let Some(cached) = &cached {
            source = cached.clone();
        }
        Ok(ReadStack {
            source,
            cached,
            peer,
            pool,
            recorder,
            metrics,
        })
    }

    /// One-line description of the stack, outermost layer first.
    pub fn describe(&self) -> String {
        self.source.describe()
    }
}

//! Seeded chaos harness: deterministic fault schedules over the whole
//! data path, with a hard delivery-guarantee oracle.
//!
//! One schedule = one seed. The seed derives, through the workspace RNG,
//! every knob of the run — which fault sites are active, their rates,
//! injected latencies, the retry budget, and the daemon kill points — and
//! seeds the [`FaultPlan`] whose per-site decision sequence is a pure
//! function of `(seed, site, invocation)`. Re-running a seed replays the
//! same fault schedule; a failing seed printed by the harness is a
//! one-command repro (`emlio chaos --seed N --config <mode>`).
//!
//! Every leg — the clean reference, the fleet mode's owner warm-up and the
//! chaos run itself — is an [`EmlioService::launch`] drained by
//! [`Deployment::drain`](emlio_core::service::Deployment::drain): the
//! schedule's kill points and its `spill.write` injector ride the daemon's
//! [`StackSpec`], and the kill → drop → reopen → re-serve loop is the
//! service's own. Every schedule runs against a clean reference: the
//! fingerprint of all `(epoch, sample, label, payload-digest)` tuples a
//! fault-free daemon delivers under the same plan. The oracle then admits
//! exactly two outcomes:
//!
//! * **Clean** — the run completed and delivery is byte-identical to the
//!   reference (exactly once: nothing lost, duplicated, or corrupted),
//!   even across daemon kill/restart cycles mid-epoch.
//! * **Detectable error** — the run surfaced an error, and everything
//!   delivered *before* the error is a duplicate-free subset of the
//!   reference.
//!
//! Anything else — a completed run with missing/extra/altered samples, or
//! a delivered batch the clean run never produced — is silent corruption:
//! [`run_schedule`] returns `Err` with the seed embedded in the message.
//! So do cache books that do not balance — every cache a leg ran is held
//! to [`CacheCore::check_books`](emlio_cache::CacheCore::check_books), a
//! killed incarnation's just before it drops — and, in spill-persist mode,
//! a restart that re-admits nothing although the incarnation it replaces
//! left spill files behind.

use emlio_cache::peer::{ChaosPeer, FleetRegistry, LocalPeer, PeerConfig};
use emlio_cache::CacheConfig;
use emlio_core::chaos::ChaosController;
use emlio_core::daemon::{local_connections_per_worker, DaemonError};
use emlio_core::service::{Delivery, Deployment, Fingerprint, StorageSpec};
use emlio_core::{EmlioConfig, EmlioService, MetricsSnapshot, StackSpec};
use emlio_datagen::convert::build_tfrecord_dataset;
use emlio_datagen::DatasetSpec;
use emlio_netem::{FaultSource, NetProfile, NfsConfig, NfsMount, NfsSource};
use emlio_tfrecord::{GlobalIndex, ShardSpec, TfrecordSource};
use emlio_util::clock::RealClock;
use emlio_util::fault::{mix64, site, FaultInjector, FaultPlan, FaultSpec};
use emlio_util::testutil::TempDir;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Which serve-path configuration the schedule exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosMode {
    /// Cached local daemon: faults at `source.read`, kill/restart cycles
    /// that lose the RAM tier.
    Cached,
    /// Cooperative fleet fetcher: faults at `peer.fetch`, `nfs.open`, and
    /// `nfs.read`; degraded peers fall back to faulted NFS under retry.
    Fleet,
    /// Spill-to-disk cache with a persistent tier: faults at `source.read`
    /// and `spill.write`; restarts re-admit whatever spill survived.
    SpillPersist,
    /// The cached stack with one send worker, whose socket then stripes
    /// over every core's connection (⌈cores / 1⌉): each kill abandons a
    /// stream spread over several connections, and each clean end is one
    /// marker per connection.
    Striped,
}

impl ChaosMode {
    /// Every mode, in CLI order.
    pub const ALL: [ChaosMode; 4] = [
        ChaosMode::Cached,
        ChaosMode::Fleet,
        ChaosMode::SpillPersist,
        ChaosMode::Striped,
    ];

    /// CLI name.
    pub fn name(self) -> &'static str {
        match self {
            ChaosMode::Cached => "cached",
            ChaosMode::Fleet => "fleet",
            ChaosMode::SpillPersist => "spill-persist",
            ChaosMode::Striped => "striped",
        }
    }

    /// Parse a CLI name.
    pub fn from_name(s: &str) -> Option<ChaosMode> {
        ChaosMode::ALL.into_iter().find(|m| m.name() == s)
    }
}

impl fmt::Display for ChaosMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One schedule's parameters.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Master seed: derives the fault schedule, kill points, retry budget,
    /// and the plan shuffle.
    pub seed: u64,
    /// Serve-path configuration under test.
    pub mode: ChaosMode,
    /// Dataset size in samples.
    pub samples: u64,
    /// Batch size.
    pub batch_size: usize,
    /// Send workers per daemon.
    pub threads: usize,
    /// Epochs served.
    pub epochs: u32,
}

impl ChaosConfig {
    /// Harness defaults: small enough for CI, multi-epoch and
    /// multi-threaded so kills land mid-epoch with real interleaving — two
    /// send workers, or in [`ChaosMode::Striped`] one whose connections
    /// interleave.
    pub fn new(seed: u64, mode: ChaosMode) -> ChaosConfig {
        ChaosConfig {
            seed,
            mode,
            samples: 36,
            batch_size: 4,
            threads: if mode == ChaosMode::Striped { 1 } else { 2 },
            epochs: 2,
        }
    }
}

/// How a schedule ended. Both variants satisfy the delivery guarantee;
/// silent corruption is [`run_schedule`]'s `Err`, never a verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Completed; delivery byte-identical to the clean reference.
    Clean,
    /// Surfaced an error; the delivered prefix was valid.
    DetectableError(String),
}

/// Everything one schedule observed.
#[derive(Debug)]
pub struct ChaosOutcome {
    /// The schedule's seed (replay handle).
    pub seed: u64,
    /// Mode exercised.
    pub mode: ChaosMode,
    /// TCP connections each send worker's stream striped over.
    pub connections: usize,
    /// How the run ended.
    pub verdict: Verdict,
    /// Batches the compute side received.
    pub batches_delivered: u64,
    /// Daemon kills tripped.
    pub kills: u64,
    /// Restarts performed by the chaos serve loop (0 when the run erred
    /// before completing).
    pub restarts: u32,
    /// Injected transient read errors.
    pub injected_errors: u64,
    /// Injected short reads.
    pub injected_short_reads: u64,
    /// Injected latency spikes.
    pub injected_latencies: u64,
    /// Transient errors the retry layer absorbed, summed across daemon
    /// incarnations.
    pub io_retries: u64,
    /// Retry-budget exhaustions, summed across daemon incarnations.
    pub io_giveups: u64,
    /// Blocks a peer served, summed across daemon incarnations (fleet mode).
    pub peer_hits: u64,
    /// Spill files restarted incarnations re-admitted, summed across them
    /// (spill-persist mode).
    pub readmitted: u64,
}

impl ChaosOutcome {
    /// Total injected faults of any class.
    pub fn injected_total(&self) -> u64 {
        self.injected_errors + self.injected_short_reads + self.injected_latencies
    }
}

impl fmt::Display for ChaosOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verdict = match &self.verdict {
            Verdict::Clean => "clean".to_string(),
            Verdict::DetectableError(e) => format!("detectable-error ({e})"),
        };
        write!(
            f,
            "seed {:#018x} {:<13} S={} {verdict}: {} batches, {} kills/{} restarts, \
             faults {}err/{}short/{}lat, io_retries {} (giveups {}), readmitted {}",
            self.seed,
            self.mode.name(),
            self.connections,
            self.batches_delivered,
            self.kills,
            self.restarts,
            self.injected_errors,
            self.injected_short_reads,
            self.injected_latencies,
            self.io_retries,
            self.io_giveups,
            self.readmitted,
        )
    }
}

/// The `i`-th seed of a suite rooted at `base` — full-avalanche, so
/// consecutive suite indices give uncorrelated schedules while staying
/// individually replayable.
pub fn suite_seed(base: u64, i: u64) -> u64 {
    mix64(base.wrapping_add(i))
}

/// The fault schedule derived from a seed, before any I/O happens: a pure
/// function of `(seed, mode, total_batches)` — the replay guarantee.
#[derive(Debug, Clone, PartialEq)]
struct Schedule {
    fault_plan: FaultPlan,
    kill_points: Vec<u64>,
    io_retries: u32,
    io_backoff: Duration,
}

impl Schedule {
    fn derive(cfg: &ChaosConfig, total_batches: u64) -> Schedule {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let error_rate = rng.gen_range(0.05..0.35);
        let latency_rate = rng.gen_range(0.0..0.2);
        let latency = Duration::from_micros(rng.gen_range(20..200));
        // Short reads always end the run (truncation is detectable but not
        // retryable), so keep them rarer — and off for most seeds — or the
        // suite would never exercise the clean-completion path.
        let short_rate = if rng.gen_bool(0.25) {
            rng.gen_range(0.02..0.10)
        } else {
            0.0
        };
        let read_spec = FaultSpec {
            error: error_rate,
            short_read: short_rate,
            ..FaultSpec::latency(latency_rate, latency)
        };

        let fault_plan = match cfg.mode {
            ChaosMode::Cached | ChaosMode::Striped => {
                FaultPlan::new(cfg.seed).with_site(site::SOURCE_READ, read_spec)
            }
            ChaosMode::Fleet => FaultPlan::new(cfg.seed)
                .with_site(
                    site::PEER_FETCH,
                    FaultSpec::errors(rng.gen_range(0.05..0.4)),
                )
                .with_site(site::NFS_OPEN, FaultSpec::errors(rng.gen_range(0.0..0.1)))
                .with_site(site::NFS_READ, read_spec),
            ChaosMode::SpillPersist => FaultPlan::new(cfg.seed)
                .with_site(site::SOURCE_READ, read_spec)
                .with_site(
                    site::SPILL_WRITE,
                    FaultSpec::errors(rng.gen_range(0.1..0.6)),
                ),
        };

        let n_kills = rng.gen_range(1..=2usize);
        let kill_points = (0..n_kills)
            .map(|_| rng.gen_range(1..=total_batches.max(1)))
            .collect();
        Schedule {
            fault_plan,
            kill_points,
            io_retries: rng.gen_range(4..=8),
            io_backoff: Duration::from_micros(rng.gen_range(5..40)),
        }
    }
}

/// Launch one daemon `id` over `stack` and drain it to the end. `Err` is
/// a harness failure: the launch, or cache books that do not balance — a
/// chaos-served daemon's as each incarnation ended, any other's here.
fn launch_and_drain(
    id: &str,
    dir: &std::path::Path,
    index: &Arc<GlobalIndex>,
    config: &EmlioConfig,
    stack: StackSpec,
) -> Result<(Delivery, Deployment), String> {
    let storage = StorageSpec {
        stack,
        index: Some(index.clone()),
        ..StorageSpec::new(id, dir)
    };
    let mut dep = EmlioService::launch(&[storage], config, "n").map_err(|e| e.to_string())?;
    let delivery = dep.drain();
    for post_mortem in &dep.post_mortems {
        post_mortem.as_ref().map_err(String::clone)?;
    }
    for daemon in &dep.daemon_metrics {
        if let Some(cache) = daemon.stack().and_then(|s| s.cache.as_deref()) {
            cache.check_books()?;
        }
    }
    Ok((delivery, dep))
}

/// The oracle: classify `(delivered, serve result)` against the clean
/// reference, or report silent corruption.
fn reconcile(
    seed: u64,
    delivered: &[Fingerprint],
    reference: &[Fingerprint],
    served: &Result<u32, DaemonError>,
) -> Result<Verdict, String> {
    match served {
        Ok(_) => {
            if delivered == reference {
                Ok(Verdict::Clean)
            } else {
                Err(format!(
                    "seed {seed:#018x}: SILENT CORRUPTION — run completed but delivered \
                     {} samples vs {} in the clean reference (lost, duplicated, or altered \
                     payloads); replay with --seed {seed}",
                    delivered.len(),
                    reference.len(),
                ))
            }
        }
        Err(e) => {
            // Everything delivered before the error must exist in the
            // reference, each at most as often: a duplicate-free subset.
            let mut budget: HashMap<&Fingerprint, u64> = HashMap::new();
            for f in reference {
                *budget.entry(f).or_insert(0) += 1;
            }
            for f in delivered {
                match budget.get_mut(f) {
                    Some(n) if *n > 0 => *n -= 1,
                    _ => {
                        return Err(format!(
                            "seed {seed:#018x}: CORRUPT PREFIX — delivered sample \
                             (epoch {}, id {}) that the clean run never produced (or \
                             produced fewer times); replay with --seed {seed}",
                            f.0, f.1,
                        ))
                    }
                }
            }
            Ok(Verdict::DetectableError(e.to_string()))
        }
    }
}

/// Run one seeded schedule end to end. `Err` means a delivery-guarantee
/// violation or a harness failure (the message embeds the seed for
/// replay); `Ok` carries the observed outcome, clean or detectably failed.
pub fn run_schedule(cfg: &ChaosConfig) -> Result<ChaosOutcome, String> {
    let fail = |what: &str, e: &dyn fmt::Display| format!("seed {:#018x}: {what}: {e}", cfg.seed);

    let dir = TempDir::new(&format!("chaos-{}-{:x}", cfg.mode.name(), cfg.seed));
    let spec = DatasetSpec::tiny(&format!("chaos{:x}", cfg.seed & 0xffff), cfg.samples);
    let index = Arc::new(
        build_tfrecord_dataset(dir.path(), &spec, ShardSpec::Count(3))
            .map_err(|e| fail("dataset build failed", &e))?,
    );
    // One fault-free leg: a daemon `id` over the plain local shards,
    // which must run to completion.
    let clean_leg = |id: &str, config: &EmlioConfig, what: &str| {
        let (delivery, dep) =
            launch_and_drain(id, dir.path(), &index, config, StackSpec::default())
                .map_err(|e| fail(what, &e))?;
        delivery.served.as_ref().map_err(|e| fail(what, e))?;
        Ok::<_, String>((delivery, dep))
    };

    let base_config = EmlioConfig::default()
        .with_batch_size(cfg.batch_size)
        .with_threads(cfg.threads)
        .with_epochs(cfg.epochs)
        .with_seed(cfg.seed);
    // Clean reference: plain local stack, no faults. Cache / retry knobs
    // don't affect planning, so the chaos leg below serves the same plan
    // and the reference's batch count is the plan's.
    let (reference, _) = clean_leg("ref", &base_config, "clean reference failed")?;
    let schedule = Schedule::derive(cfg, reference.batches);

    let injector = FaultInjector::new(schedule.fault_plan.clone());
    let controller = ChaosController::new();
    for &k in &schedule.kill_points {
        controller.arm(k);
    }
    let chaos_config = base_config
        .clone()
        .with_io_retries(schedule.io_retries)
        .with_io_backoff(schedule.io_backoff);

    // Each mode says what its daemon is called, how it is configured and
    // what it reads over; every incarnation is then opened from that spec.
    let faulted_shards = || {
        StackSpec::over(Arc::new(FaultSource::new(
            Arc::new(TfrecordSource::new(index.clone())),
            injector.clone(),
        )))
    };
    // Fleet mode's warmed owner cache. The registry's `LocalPeer` holds it
    // weakly, so it lives out here for the whole chaos leg: dropped with
    // the match arm, every fetch would find a dead owner.
    let owner_cache;
    let (id, config, stack) = match cfg.mode {
        ChaosMode::Cached | ChaosMode::Striped => (
            "d0",
            chaos_config.with_cache(CacheConfig::default().with_ram_bytes(32 << 20)),
            faulted_shards(),
        ),
        ChaosMode::Fleet => {
            // Warm a healthy owner's RAM tier, then fetch everything through
            // a chaotic peer transport whose fallback is faulted NFS.
            let owner_config = base_config
                .clone()
                .with_epochs(1)
                .with_cache(CacheConfig::default().with_ram_bytes(64 << 20));
            let (_, owner) = clean_leg("owner", &owner_config, "owner warm-up failed")?;
            owner_cache = owner.daemon_metrics[0]
                .stack()
                .and_then(|s| s.cache.clone())
                .expect("owner is cached");

            let registry = FleetRegistry::new();
            registry.join("owner");
            registry.attach(
                "owner",
                ChaosPeer::new(LocalPeer::new(&owner_cache), injector.clone()),
            );
            // The mount and registry outlive daemon incarnations, like the
            // real shared filesystem and fleet fabric would.
            let mount = NfsMount::mount(
                dir.path(),
                NetProfile::local(),
                RealClock::shared(),
                NfsConfig::default(),
            );
            mount.set_fault_injector(injector.clone());
            let stack = StackSpec::over(Arc::new(NfsSource::new(index.clone(), mount))).in_fleet(
                registry,
                PeerConfig::default().with_timeout(Duration::from_millis(200)),
            );
            ("fetcher", chaos_config, stack)
        }
        // RAM tier far smaller than the dataset — room for two of its
        // blocks (a tier smaller than one block admits nothing, so
        // nothing would ever spill): admissions spill to the persistent
        // disk tier under injected write faults, the end-of-serve
        // checkpoint writes through the same failpoint, and each restart
        // re-admits whatever spill survived.
        ChaosMode::SpillPersist => (
            "d0",
            chaos_config.with_cache(
                CacheConfig::default()
                    .with_ram_bytes(3 * cfg.batch_size as u64 * spec.sample_bytes)
                    .with_disk_bytes(64 << 20)
                    .with_persist_dir(dir.path().join("persist")),
            ),
            faulted_shards(),
        ),
    };
    // `spill.write` faults are a no-op unless the schedule names the site.
    let stack = stack
        .with_chaos(controller.clone())
        .with_faults(injector.clone());
    let (delivery, dep) = launch_and_drain(id, dir.path(), &index, &config, stack)
        .map_err(|e| fail("chaos launch failed", &e))?;

    let verdict = reconcile(
        cfg.seed,
        &delivery.fingerprint,
        &reference.fingerprint,
        &delivery.served,
    )?;
    // Counters are per incarnation, all balanced above. A persistent tier
    // outlives its incarnation: whatever spill files one left, the next
    // re-admits.
    let incarnations: Vec<_> = dep.post_mortems.iter().flatten().collect();
    for (i, pair) in incarnations.windows(2).enumerate() {
        let ((_, left), (next, _)) = (pair[0], pair[1]);
        if *left > 0 && next.cache.map_or(0, |c| c.readmitted) == 0 {
            return Err(fail(
                &format!("restart {} re-admitted nothing", i + 1),
                &format!("the killed incarnation left {left} spill-file bytes"),
            ));
        }
    }
    let sum = |count: fn(&MetricsSnapshot) -> u64| incarnations.iter().map(|(s, _)| count(s)).sum();
    // A clean finish with give-ups on the books is NOT a swallowed error:
    // every mode here runs a cache above the retry layer, and the
    // prefetcher deliberately skips fetch errors — a prefetch read may
    // exhaust its budget while the later demand read (fresh budget)
    // succeeds. The delivery guarantee is the fingerprint oracle above;
    // the strict `clean ⟹ zero give-ups` invariant is asserted where it
    // actually holds — on the cache-less direct stack in
    // `tests/failure_injection.rs`.
    let faults = injector.stats();
    Ok(ChaosOutcome {
        seed: cfg.seed,
        mode: cfg.mode,
        connections: local_connections_per_worker(cfg.threads),
        verdict,
        batches_delivered: delivery.batches,
        kills: controller.kills(),
        restarts: delivery.served.unwrap_or(0),
        injected_errors: faults.errors,
        injected_short_reads: faults.short_reads,
        injected_latencies: faults.latencies,
        io_retries: sum(|s| s.retry.map_or(0, |r| r.retries)),
        io_giveups: sum(|s| s.retry.map_or(0, |r| r.giveups)),
        peer_hits: sum(|s| s.peer.map_or(0, |p| p.hits)),
        readmitted: sum(|s| s.cache.map_or(0, |c| c.readmitted)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_derivation_is_pure_in_seed() {
        let cfg = ChaosConfig::new(0xD15_EA5E, ChaosMode::Fleet);
        let a = Schedule::derive(&cfg, 18);
        let b = Schedule::derive(&cfg, 18);
        assert_eq!(a, b, "same (seed, mode, batches) must derive one schedule");
        let other = Schedule::derive(&ChaosConfig::new(0xD15_EA5F, ChaosMode::Fleet), 18);
        assert_ne!(a.fault_plan, other.fault_plan, "seeds decorrelate");
        assert!(
            !a.kill_points.is_empty(),
            "every schedule kills at least once"
        );
        assert!(a.io_retries >= 4, "retry budget in the derived band");
    }

    #[test]
    fn mode_names_round_trip() {
        for m in ChaosMode::ALL {
            assert_eq!(ChaosMode::from_name(m.name()), Some(m));
        }
        assert_eq!(ChaosMode::from_name("nope"), None);
    }

    #[test]
    fn cached_schedule_upholds_the_delivery_guarantee() {
        let out = run_schedule(&ChaosConfig::new(0xC0FFEE, ChaosMode::Cached)).unwrap();
        assert!(out.injected_total() > 0, "{out}");
    }

    #[test]
    fn fleet_schedule_upholds_the_delivery_guarantee() {
        let out = run_schedule(&ChaosConfig::new(0xF1EE7, ChaosMode::Fleet)).unwrap();
        assert!(out.injected_total() > 0, "{out}");
        assert!(out.peer_hits > 0, "the warmed owner is alive to fetch from");
    }

    #[test]
    fn striped_schedule_upholds_the_delivery_guarantee() {
        let cfg = ChaosConfig::new(0x57_121E, ChaosMode::Striped);
        assert_eq!(cfg.threads, 1);
        let out = run_schedule(&cfg).unwrap();
        assert!(out.injected_total() > 0, "{out}");
        assert_eq!(out.connections, local_connections_per_worker(1));
    }

    #[test]
    fn spill_persist_schedule_upholds_the_delivery_guarantee() {
        let out = run_schedule(&ChaosConfig::new(0x5_B111, ChaosMode::SpillPersist)).unwrap();
        assert!(out.injected_total() > 0, "{out}");
    }

    #[test]
    fn suite_seeds_decorrelate_but_replay() {
        assert_eq!(suite_seed(1, 5), suite_seed(1, 5));
        assert_ne!(suite_seed(1, 5), suite_seed(1, 6));
        assert_ne!(suite_seed(1, 5), suite_seed(2, 5));
    }
}

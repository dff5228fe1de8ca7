//! Deterministic fault injection: seeded fault plans, named failpoint
//! sites, and the retry/backoff policy that absorbs transient faults.
//!
//! Every decision is a *pure function* of `(seed, site, invocation)` — no
//! global RNG, no wall clock — so a chaos run that fails under seed `S`
//! replays the exact same fault schedule when re-run with `S`. The layers
//! of the serve path consult one shared [`FaultInjector`] at their named
//! [`site`]s; the injector keeps a per-site invocation counter and maps
//! each invocation through the plan's [`FaultSpec`] probabilities into a
//! [`FaultDecision`].
//!
//! [`RetryPolicy`] is the flip side: bounded exponential backoff whose
//! jitter comes from the same splitmix-style bit mixer, so backoff
//! schedules are deterministic per `(seed, salt, attempt)` too.

use crate::fnv1a;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Canonical failpoint site names, one per serve-path layer.
///
/// Sites are plain strings so layers stay decoupled from each other, but
/// every built-in layer uses these constants — the fault-site catalog in
/// `docs/TESTING.md` documents what each one injects.
pub mod site {
    /// Generic decorated `RangeSource` reads (`FaultSource` in
    /// `emlio-netem`): read errors, latency spikes, short reads.
    pub const SOURCE_READ: &str = "source.read";
    /// NFS `OPEN` of a shard file: mount stall or open failure.
    pub const NFS_OPEN: &str = "nfs.open";
    /// NFS positioned read: per-shard I/O error or latency spike.
    pub const NFS_READ: &str = "nfs.read";
    /// Spill-file write on the cache's background writer thread.
    pub const SPILL_WRITE: &str = "spill.write";
    /// Peer-to-peer block fetch over a `PeerTransport`: dropped or slow
    /// peers.
    pub const PEER_FETCH: &str = "peer.fetch";
}

/// 64-bit bit mixer (splitmix64 finalizer): full-avalanche, so nearby
/// `(seed, site, invocation)` triples decorrelate completely.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Map a mixed 64-bit value into `[0, 1)`.
#[inline]
fn unit(x: u64) -> f64 {
    // 53 mantissa bits: the full double-precision unit interval.
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Per-site fault probabilities. Probabilities are *per invocation* and
/// mutually exclusive: one uniform draw lands in the `error`, then
/// `short_read`, then `latency` band, or in the clear remainder.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultSpec {
    /// Probability of an injected I/O error.
    pub error: f64,
    /// Probability of a truncated (short) read — detectable downstream by
    /// framing/CRC, but not retryable at the source layer.
    pub short_read: f64,
    /// Probability of a latency spike.
    pub latency: f64,
    /// Magnitude of an injected latency spike.
    pub latency_dur: Duration,
}

impl FaultSpec {
    /// A spec injecting only transient errors with probability `p`.
    pub fn errors(p: f64) -> FaultSpec {
        FaultSpec {
            error: p,
            ..FaultSpec::default()
        }
    }

    /// A spec injecting only latency spikes of `dur` with probability `p`.
    pub fn latency(p: f64, dur: Duration) -> FaultSpec {
        FaultSpec {
            latency: p,
            latency_dur: dur,
            ..FaultSpec::default()
        }
    }

    /// A spec injecting only short reads with probability `p`.
    pub fn short_reads(p: f64) -> FaultSpec {
        FaultSpec {
            short_read: p,
            ..FaultSpec::default()
        }
    }

    /// Add latency spikes to an existing spec.
    pub fn with_latency(mut self, p: f64, dur: Duration) -> FaultSpec {
        self.latency = p;
        self.latency_dur = dur;
        self
    }

    /// True when every probability is zero (the site never fires).
    pub fn is_clear(&self) -> bool {
        self.error <= 0.0 && self.short_read <= 0.0 && self.latency <= 0.0
    }
}

/// What a failpoint site should do for one invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Proceed normally.
    None,
    /// Fail the operation with an injected (transient-class) I/O error.
    Error,
    /// Truncate the operation's result (detectable, not retryable).
    ShortRead,
    /// Delay the operation by this much, then proceed.
    Latency(Duration),
}

/// A seeded, pure-function fault schedule over named sites.
///
/// `decide_at(site, n)` is deterministic in `(seed, site, n)` alone:
/// independent of thread interleaving, wall clock, and of what other
/// sites do. Printing the seed is therefore a complete reproduction
/// recipe.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    sites: BTreeMap<String, FaultSpec>,
}

impl FaultPlan {
    /// An empty plan (no sites fire) under `seed`.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            sites: BTreeMap::new(),
        }
    }

    /// The seed this plan replays from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Register (or replace) `site`'s fault probabilities.
    pub fn with_site(mut self, site: &str, spec: FaultSpec) -> FaultPlan {
        self.sites.insert(site.to_string(), spec);
        self
    }

    /// The spec for `site`, if registered.
    pub fn spec(&self, site: &str) -> Option<&FaultSpec> {
        self.sites.get(site)
    }

    /// The decision for invocation `n` of `site` — pure in
    /// `(seed, site, n)`.
    pub fn decide_at(&self, site: &str, n: u64) -> FaultDecision {
        let Some(spec) = self.sites.get(site) else {
            return FaultDecision::None;
        };
        if spec.is_clear() {
            return FaultDecision::None;
        }
        let u = unit(mix64(
            self.seed ^ fnv1a(site.as_bytes()) ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ));
        if u < spec.error {
            FaultDecision::Error
        } else if u < spec.error + spec.short_read {
            FaultDecision::ShortRead
        } else if u < spec.error + spec.short_read + spec.latency {
            FaultDecision::Latency(spec.latency_dur)
        } else {
            FaultDecision::None
        }
    }
}

/// Counters of what an injector actually fired (assertion surface for the
/// chaos harness: "this schedule injected something").
#[derive(Debug, Default)]
pub struct FaultStats {
    /// Injected errors across all sites.
    pub errors: AtomicU64,
    /// Injected short reads across all sites.
    pub short_reads: AtomicU64,
    /// Injected latency spikes across all sites.
    pub latencies: AtomicU64,
    /// Total injected delay (planned spike durations), in nanoseconds.
    pub injected_nanos: AtomicU64,
}

/// Point-in-time copy of [`FaultStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStatsSnapshot {
    /// Injected errors across all sites.
    pub errors: u64,
    /// Injected short reads across all sites.
    pub short_reads: u64,
    /// Injected latency spikes across all sites.
    pub latencies: u64,
    /// Total injected delay in nanoseconds.
    pub injected_nanos: u64,
}

impl FaultStatsSnapshot {
    /// Total injected faults of any class.
    pub fn total(&self) -> u64 {
        self.errors + self.short_reads + self.latencies
    }
}

/// The shared runtime face of a [`FaultPlan`]: one per chaos run, cloned
/// (`Arc`) into every layer. Each site gets its own invocation counter, so
/// a site's decision sequence is reproducible regardless of how calls to
/// *other* sites interleave with it.
pub struct FaultInjector {
    plan: FaultPlan,
    counters: Mutex<HashMap<String, Arc<AtomicU64>>>,
    stats: FaultStats,
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("seed", &self.plan.seed())
            .field("stats", &self.stats)
            .finish()
    }
}

impl FaultInjector {
    /// An injector replaying `plan`.
    pub fn new(plan: FaultPlan) -> Arc<FaultInjector> {
        Arc::new(FaultInjector {
            plan,
            counters: Mutex::new(HashMap::new()),
            stats: FaultStats::default(),
        })
    }

    /// The plan (and thus the seed) this injector replays.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    fn counter(&self, site: &str) -> Arc<AtomicU64> {
        let mut map = self.counters.lock();
        map.entry(site.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)))
            .clone()
    }

    /// Take the next decision for `site`, bumping its invocation counter
    /// and the fault stats. Layers call this exactly once per operation.
    pub fn decide(&self, site: &str) -> FaultDecision {
        // Fast path: unregistered/clear sites never allocate a counter.
        if self.plan.spec(site).is_none_or(FaultSpec::is_clear) {
            return FaultDecision::None;
        }
        let n = self.counter(site).fetch_add(1, Ordering::Relaxed);
        let decision = self.plan.decide_at(site, n);
        match decision {
            FaultDecision::None => {}
            FaultDecision::Error => {
                self.stats.errors.fetch_add(1, Ordering::Relaxed);
            }
            FaultDecision::ShortRead => {
                self.stats.short_reads.fetch_add(1, Ordering::Relaxed);
            }
            FaultDecision::Latency(d) => {
                self.stats.latencies.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .injected_nanos
                    .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
            }
        }
        decision
    }

    /// Invocations taken at `site` so far.
    pub fn invocations(&self, site: &str) -> u64 {
        self.counters
            .lock()
            .get(site)
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Plain-value copy of the injected-fault counters.
    pub fn stats(&self) -> FaultStatsSnapshot {
        FaultStatsSnapshot {
            errors: self.stats.errors.load(Ordering::Relaxed),
            short_reads: self.stats.short_reads.load(Ordering::Relaxed),
            latencies: self.stats.latencies.load(Ordering::Relaxed),
            injected_nanos: self.stats.injected_nanos.load(Ordering::Relaxed),
        }
    }
}

/// Bounded exponential backoff with deterministic jitter.
///
/// `backoff(attempt, salt)` is pure in `(seed, salt, attempt)`: the base
/// doubles per attempt up to `max`, then jitter scales it into
/// `[base/2, base]` using the same bit mixer as [`FaultPlan`]. Callers
/// salt with something operation-specific (e.g. a block-key hash) so
/// concurrent retries decorrelate instead of thundering together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 disables retrying).
    pub retries: u32,
    /// First backoff duration; doubles each further attempt.
    pub base: Duration,
    /// Upper bound on any single backoff.
    pub max: Duration,
    /// Jitter seed.
    pub seed: u64,
}

impl RetryPolicy {
    /// A policy of `retries` attempts starting at `base`, capped at
    /// `base * 64`.
    pub fn new(retries: u32, base: Duration) -> RetryPolicy {
        RetryPolicy {
            retries,
            base,
            max: base.saturating_mul(64),
            seed: 0,
        }
    }

    /// Set the jitter seed (chaos runs pass the schedule seed through).
    pub fn with_seed(mut self, seed: u64) -> RetryPolicy {
        self.seed = seed;
        self
    }

    /// The backoff before retry number `attempt` (0-based), salted by
    /// `salt`. Always in `(0, max]` for a nonzero `base`.
    pub fn backoff(&self, attempt: u32, salt: u64) -> Duration {
        if self.base.is_zero() {
            return Duration::ZERO;
        }
        let exp = self
            .base
            .saturating_mul(1u32 << attempt.min(31))
            .min(self.max);
        let nanos = exp.as_nanos() as u64;
        let jitter =
            mix64(self.seed ^ salt ^ u64::from(attempt).wrapping_mul(0xD134_2543_DE82_EF95));
        // Scale into [nanos/2, nanos]: never zero, never past the cap.
        let scaled = nanos / 2 + (unit(jitter) * (nanos as f64 / 2.0)) as u64;
        Duration::from_nanos(scaled.min(nanos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_in_seed_site_invocation() {
        let plan = FaultPlan::new(0xC0FFEE)
            .with_site(site::NFS_READ, FaultSpec::errors(0.3))
            .with_site(
                site::PEER_FETCH,
                FaultSpec::latency(0.5, Duration::from_millis(2)),
            );
        for n in 0..64 {
            assert_eq!(
                plan.decide_at(site::NFS_READ, n),
                plan.decide_at(site::NFS_READ, n)
            );
        }
        // A different seed gives a different schedule somewhere in 64 draws.
        let other = FaultPlan::new(0xBEEF).with_site(site::NFS_READ, FaultSpec::errors(0.3));
        assert!((0..64)
            .any(|n| plan.decide_at(site::NFS_READ, n) != other.decide_at(site::NFS_READ, n)));
    }

    #[test]
    fn unregistered_and_clear_sites_never_fire() {
        let plan = FaultPlan::new(7).with_site(site::NFS_OPEN, FaultSpec::default());
        for n in 0..32 {
            assert_eq!(plan.decide_at(site::NFS_OPEN, n), FaultDecision::None);
            assert_eq!(plan.decide_at("no.such.site", n), FaultDecision::None);
        }
    }

    #[test]
    fn probabilities_land_in_bands() {
        // error=1.0 always errors; latency=1.0 always delays.
        let always_err = FaultPlan::new(1).with_site("s", FaultSpec::errors(1.0));
        let always_lat =
            FaultPlan::new(1).with_site("s", FaultSpec::latency(1.0, Duration::from_millis(3)));
        for n in 0..16 {
            assert_eq!(always_err.decide_at("s", n), FaultDecision::Error);
            assert_eq!(
                always_lat.decide_at("s", n),
                FaultDecision::Latency(Duration::from_millis(3))
            );
        }
    }

    #[test]
    fn injector_counts_per_site_and_stats() {
        let inj = FaultInjector::new(
            FaultPlan::new(42)
                .with_site("a", FaultSpec::errors(1.0))
                .with_site("b", FaultSpec::latency(1.0, Duration::from_millis(1))),
        );
        for _ in 0..5 {
            assert_eq!(inj.decide("a"), FaultDecision::Error);
        }
        for _ in 0..3 {
            assert!(matches!(inj.decide("b"), FaultDecision::Latency(_)));
        }
        assert_eq!(inj.invocations("a"), 5);
        assert_eq!(inj.invocations("b"), 3);
        let s = inj.stats();
        assert_eq!((s.errors, s.latencies, s.short_reads), (5, 3, 0));
        assert_eq!(s.injected_nanos, 3_000_000);
        assert_eq!(s.total(), 8);
    }

    #[test]
    fn injector_site_sequences_independent_of_interleaving() {
        let plan = FaultPlan::new(99)
            .with_site("x", FaultSpec::errors(0.4))
            .with_site("y", FaultSpec::errors(0.4));
        // Run 1: alternate sites. Run 2: all of x, then all of y.
        let a = FaultInjector::new(plan.clone());
        let mut ax = Vec::new();
        let mut ay = Vec::new();
        for _ in 0..32 {
            ax.push(a.decide("x"));
            ay.push(a.decide("y"));
        }
        let b = FaultInjector::new(plan);
        let bx: Vec<_> = (0..32).map(|_| b.decide("x")).collect();
        let by: Vec<_> = (0..32).map(|_| b.decide("y")).collect();
        assert_eq!(ax, bx);
        assert_eq!(ay, by);
    }

    #[test]
    fn backoff_deterministic_bounded_and_growing() {
        let p = RetryPolicy::new(6, Duration::from_millis(5)).with_seed(0xABAD_1DEA);
        let a: Vec<_> = (0..6).map(|i| p.backoff(i, 17)).collect();
        let b: Vec<_> = (0..6).map(|i| p.backoff(i, 17)).collect();
        assert_eq!(a, b, "same (seed, salt, attempt) => same backoff");
        for (i, d) in a.iter().enumerate() {
            assert!(*d > Duration::ZERO);
            assert!(*d <= p.max, "attempt {i} exceeded cap: {d:?}");
            let exp = p.base.saturating_mul(1 << i).min(p.max);
            assert!(*d >= exp / 2, "attempt {i} under half the step: {d:?}");
        }
        // Different salts decorrelate.
        assert_ne!(
            (0..6).map(|i| p.backoff(i, 1)).collect::<Vec<_>>(),
            (0..6).map(|i| p.backoff(i, 2)).collect::<Vec<_>>()
        );
        // Zero base degenerates to no delay.
        let z = RetryPolicy::new(3, Duration::ZERO);
        assert_eq!(z.backoff(0, 0), Duration::ZERO);
    }
}

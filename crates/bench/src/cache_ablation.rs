//! EXP-CACHE — plan-driven vs reactive eviction on a Zipf-skewed replay.
//!
//! The shard cache's pitch is that the planner's clairvoyance beats any
//! reactive policy. This experiment makes that measurable: a multi-epoch
//! trace of block accesses with Zipf-skewed popularity (hot blocks recur,
//! the tail churns) is replayed through [`ShardCache`] with the trace
//! installed as its plan, and through a textbook-LRU trace model of the
//! same capacity (the cache itself has no reactive mode to run), and the
//! two miss streams are priced with the `emlio-netem` NFS cost model over
//! the paper's 10 ms RTT regime — yielding modeled storage latency and
//! energy per row.

use emlio_cache::{BlockKey, CacheConfig, ShardCache};
use emlio_energymon::savings::{cache_savings, IoSavings, DEFAULT_STORAGE_IO_WATTS};
use emlio_energymon::EnergyBreakdown;
use emlio_netem::{NetProfile, NfsConfig};
use emlio_testbed::experiment::ExperimentRow;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Workload shape for the ablation.
#[derive(Debug, Clone)]
pub struct AblationConfig {
    /// Unique blocks in the dataset.
    pub blocks: usize,
    /// Bytes per block.
    pub block_bytes: usize,
    /// Accesses per epoch (Zipf-sampled with replacement).
    pub accesses_per_epoch: usize,
    /// Epochs replayed.
    pub epochs: u32,
    /// RAM capacity as a fraction of the unique-block footprint.
    pub cache_fraction: f64,
    /// Zipf skew exponent (larger ⇒ hotter head).
    pub zipf_exponent: f64,
    /// Trace seed.
    pub seed: u64,
}

impl AblationConfig {
    /// The full experiment: 512 × 64 KiB blocks, 3 epochs, 25% cache.
    pub fn full() -> Self {
        AblationConfig {
            blocks: 512,
            block_bytes: 64 << 10,
            accesses_per_epoch: 2048,
            epochs: 3,
            cache_fraction: 0.25,
            zipf_exponent: 1.8,
            seed: 0xCAC4E,
        }
    }

    /// A CI-sized variant (sub-second).
    pub fn smoke() -> Self {
        AblationConfig {
            blocks: 96,
            block_bytes: 4 << 10,
            accesses_per_epoch: 384,
            epochs: 2,
            ..Self::full()
        }
    }
}

/// One row's replay results, with modeled storage-tier costs.
#[derive(Debug, Clone)]
pub struct PolicyOutcome {
    /// `clairvoyant` (the real cache) or `lru (model)`.
    pub policy: &'static str,
    /// Demand hits.
    pub hits: u64,
    /// Demand misses (each one a modeled NFS read).
    pub misses: u64,
    /// Hit fraction in `[0, 1]`.
    pub hit_rate: f64,
    /// Modeled NFS latency of the miss stream, seconds.
    pub modeled_secs: f64,
    /// Modeled storage I/O energy of the miss stream, joules.
    pub modeled_joules: f64,
    /// Latency/energy the hits avoided (the cache's win).
    pub saved: IoSavings,
}

/// Deterministic Zipf-skewed multi-epoch access trace.
pub fn zipf_trace(cfg: &AblationConfig) -> Vec<BlockKey> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut trace = Vec::with_capacity(cfg.accesses_per_epoch * cfg.epochs as usize);
    for _ in 0..cfg.epochs {
        for _ in 0..cfg.accesses_per_epoch {
            // Zipf-ish head-heavy pick via power transform of a uniform
            // draw (same technique as `emlio-datagen`'s text generator).
            let u: f64 = rng.gen();
            let idx = ((u.powf(cfg.zipf_exponent)) * cfg.blocks as f64) as usize;
            let idx = idx.min(cfg.blocks - 1);
            trace.push(BlockKey {
                shard_id: (idx / 64) as u32,
                start: (idx % 64) * 100,
                end: (idx % 64) * 100 + 100,
            });
        }
    }
    trace
}

/// Hits of `trace` replayed through a fresh cache of `ram` bytes with the
/// trace installed as its plan.
fn cache_hits(cfg: &AblationConfig, trace: &[BlockKey], ram: u64) -> u64 {
    let cache = ShardCache::new(
        CacheConfig::default()
            .with_ram_bytes(ram)
            // Pure eviction comparison: no prefetcher racing the trace.
            .with_prefetch_depth(0),
    )
    .expect("RAM-only cache");
    cache.set_plan(trace.to_vec());
    for key in trace {
        let block_bytes = cfg.block_bytes;
        cache
            .get_or_fetch::<std::io::Error, _, _>(*key, || Ok(vec![0u8; block_bytes]))
            .expect("synthetic fetch");
    }
    cache.stats().snapshot().hits
}

/// Hits of textbook LRU holding `capacity` uniform blocks over `trace`.
fn lru_model_hits(trace: &[BlockKey], capacity: usize) -> u64 {
    // Most recent at the back.
    let mut resident: Vec<BlockKey> = Vec::with_capacity(capacity + 1);
    let mut hits = 0;
    for key in trace {
        if let Some(at) = resident.iter().position(|k| k == key) {
            resident.remove(at);
            hits += 1;
        } else if resident.len() == capacity {
            resident.remove(0);
        }
        resident.push(*key);
    }
    hits
}

/// Replay the same trace through the cache and the LRU model at the same
/// capacity, pricing each miss stream with the NFS cost model (10 ms RTT
/// regime). The reactive row comes first.
pub fn run(cfg: &AblationConfig) -> Vec<PolicyOutcome> {
    let trace = zipf_trace(cfg);
    let nfs = NfsConfig::default();
    let profile = NetProfile::lan_10ms();
    let block = cfg.block_bytes as u64;
    let ram = (((cfg.blocks * cfg.block_bytes) as f64 * cfg.cache_fraction) as u64).max(block);
    let read_cost = nfs.read_cost(block, &profile).as_secs_f64();
    let outcome = |policy: &'static str, hits: u64| {
        let misses = trace.len() as u64 - hits;
        let modeled_secs = misses as f64 * read_cost;
        PolicyOutcome {
            policy,
            hits,
            misses,
            hit_rate: hits as f64 / trace.len() as f64,
            modeled_secs,
            modeled_joules: modeled_secs * DEFAULT_STORAGE_IO_WATTS,
            saved: cache_savings(hits, hits * block, &nfs, &profile, DEFAULT_STORAGE_IO_WATTS),
        }
    };
    vec![
        outcome(
            "lru (model)",
            lru_model_hits(&trace, (ram / block) as usize),
        ),
        outcome("clairvoyant", cache_hits(cfg, &trace, ram)),
    ]
}

/// Render outcomes as the standard paper-vs-ours experiment rows.
pub fn to_rows(outcomes: &[PolicyOutcome]) -> Vec<ExperimentRow> {
    outcomes
        .iter()
        .map(|o| ExperimentRow {
            figure: "fig_cache".to_string(),
            workload: "zipf-replay".to_string(),
            regime: "lan-10ms".to_string(),
            method: format!("{} ({:.0}% hit)", o.policy, o.hit_rate * 100.0),
            duration_secs: o.modeled_secs,
            compute: EnergyBreakdown::default(),
            storage: EnergyBreakdown {
                cpu_j: o.modeled_joules,
                dram_j: 0.0,
                gpu_j: 0.0,
                duration_secs: o.modeled_secs,
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_deterministic_and_skewed() {
        let cfg = AblationConfig::smoke();
        let a = zipf_trace(&cfg);
        let b = zipf_trace(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.len(), cfg.accesses_per_epoch * cfg.epochs as usize);
        // Skew: the most popular block appears far above the uniform rate.
        let mut counts = std::collections::HashMap::new();
        for k in &a {
            *counts.entry(*k).or_insert(0u64) += 1;
        }
        let max = counts.values().max().copied().unwrap();
        let uniform = a.len() as u64 / cfg.blocks as u64;
        assert!(max > uniform * 3, "head block {max} vs uniform {uniform}");
    }

    #[test]
    fn clairvoyant_beats_reactive_policies() {
        let outcomes = run(&AblationConfig::smoke());
        let [lru, opt] = &outcomes[..] else {
            panic!("two rows: {outcomes:?}")
        };
        assert_eq!((lru.policy, opt.policy), ("lru (model)", "clairvoyant"));
        assert!(
            opt.misses < lru.misses,
            "Belady must miss least: opt={} lru={}",
            opt.misses,
            lru.misses
        );
        assert!(opt.modeled_secs < lru.modeled_secs);
        assert!(opt.modeled_joules < lru.modeled_joules);
        assert!(opt.saved.avoided_joules > 0.0);
        // Same trace, same total accesses.
        assert_eq!(opt.hits + opt.misses, lru.hits + lru.misses);
    }
}

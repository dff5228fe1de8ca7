//! Criterion microbenches for the shard cache: a planned multi-epoch
//! Zipf replay, the raw hit path, the cache under 1 / 4 / 8 reader threads
//! (`cache_contention` — reported in `CHANGES.md` when the cache's locking
//! changes, not gated: the ledger's caches see one send worker and a few
//! thousand accesses a second), and solo-vs-fleet peer serving.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use emlio_bench::cache_ablation::{zipf_trace, AblationConfig};
use emlio_cache::{BlockKey, CacheConfig, ShardCache};
use std::sync::Arc;

fn bench_policies(c: &mut Criterion) {
    let cfg = AblationConfig::smoke();
    let trace = zipf_trace(&cfg);
    let ram = ((cfg.blocks * cfg.block_bytes) as f64 * cfg.cache_fraction) as u64;
    let mut g = c.benchmark_group("cache_policy_replay");
    g.throughput(Throughput::Elements(trace.len() as u64));
    g.bench_function("clairvoyant", |b| {
        b.iter(|| {
            let cache = ShardCache::new(
                CacheConfig::default()
                    .with_ram_bytes(ram)
                    .with_prefetch_depth(0),
            )
            .unwrap();
            cache.set_plan(trace.clone());
            for key in &trace {
                let _ = cache
                    .get_or_fetch::<std::io::Error, _, _>(*key, || Ok(vec![0u8; cfg.block_bytes]))
                    .unwrap();
            }
            black_box(cache.stats().snapshot().hits)
        })
    });
    g.finish();
}

fn bench_hit_path(c: &mut Criterion) {
    let block = 64 << 10;
    let cache = ShardCache::new(CacheConfig::default().with_prefetch_depth(0)).unwrap();
    let key = BlockKey {
        shard_id: 0,
        start: 0,
        end: 64,
    };
    cache.insert(key, vec![0xAB; block]);
    let mut g = c.benchmark_group("cache_hit");
    g.throughput(Throughput::Bytes(block as u64));
    g.bench_function("ram_64KiB", |b| {
        b.iter(|| black_box(cache.get(&key)).is_some())
    });
    g.finish();
}

/// Fixed contention workload: `threads` readers split one Zipf trace over
/// a shared cache at 50% capacity. Returns total hits (kept live so the
/// work is not optimized out).
fn run_contended(cache: &Arc<ShardCache>, slices: &[Vec<BlockKey>], block_bytes: usize) -> u64 {
    std::thread::scope(|scope| {
        for slice in slices {
            let cache = cache.clone();
            scope.spawn(move || {
                for key in slice {
                    let _ = cache
                        .get_or_fetch::<std::io::Error, _, _>(*key, || Ok(vec![0u8; block_bytes]))
                        .unwrap();
                }
            });
        }
    });
    cache.stats().snapshot().hits
}

fn bench_contention(c: &mut Criterion) {
    // Thousands of resident blocks at 50% capacity, every second access
    // or so an eviction: far more lock traffic than any ledger workload.
    let cfg = AblationConfig {
        blocks: 8192,
        block_bytes: 1 << 10,
        accesses_per_epoch: 8192,
        epochs: 2,
        ..AblationConfig::smoke()
    };
    let trace = zipf_trace(&cfg);
    let ram = ((cfg.blocks * cfg.block_bytes) / 2) as u64;
    let mut g = c.benchmark_group("cache_contention");
    g.throughput(Throughput::Elements(trace.len() as u64));
    for threads in [1usize, 4, 8] {
        let slices: Vec<Vec<BlockKey>> = (0..threads)
            .map(|t| {
                trace
                    .iter()
                    .skip(t)
                    .step_by(threads)
                    .copied()
                    .collect::<Vec<_>>()
            })
            .collect();
        g.bench_function(&format!("{threads}t"), |b| {
            b.iter(|| {
                let cache = Arc::new(
                    ShardCache::new(
                        CacheConfig::default()
                            .with_ram_bytes(ram)
                            .with_prefetch_depth(0),
                    )
                    .unwrap(),
                );
                black_box(run_contended(&cache, &slices, cfg.block_bytes))
            })
        });
    }
    g.finish();
}

/// Busy-wait "compute" — `thread::sleep` granularity (~50 µs of scheduler
/// overhead per call) would swamp the per-block budget here.
fn spin_for(d: std::time::Duration) {
    let t0 = std::time::Instant::now();
    while t0.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// Solo vs cooperative fleet over one slow backing store: four cached
/// "daemons", each a `ReadStack` over the same kind of storage root, solo
/// or in one fleet, every daemon reading the full key list once
/// concurrently. Each storage read costs ~150 µs (an NFS-shaped stand-in),
/// so the fleet's win is mechanical: solo pays 4 passes over the backing
/// store, the fleet pays one (each block's consistent-hash owner reads it,
/// everyone else takes it peer-to-peer or from the retained flight).
fn bench_peer_mode(c: &mut Criterion) {
    use emlio_cache::peer::{FleetRegistry, PeerConfig};
    use emlio_core::{EmlioConfig, ReadStack, StackSpec};
    use emlio_tfrecord::{FnSource, GlobalIndex};

    const DAEMONS: usize = 4;
    let block_bytes = 16 << 10;
    let blocks = 24usize;
    let keys: Vec<BlockKey> = (0..blocks)
        .map(|i| BlockKey {
            shard_id: 0,
            start: i * 64,
            end: (i + 1) * 64,
        })
        .collect();
    // The root is a closure, so the index is never consulted.
    let index = Arc::new(GlobalIndex::default());
    let config = EmlioConfig::default().with_cache(
        CacheConfig::default()
            .with_ram_bytes(1 << 30)
            .with_prefetch_depth(0),
    );
    let mut g = c.benchmark_group("cache_peer_mode");
    g.throughput(Throughput::Elements((DAEMONS * blocks) as u64));
    for (name, fleet) in [("solo", false), ("fleet", true)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let registry = fleet.then(FleetRegistry::new);
                if let Some(reg) = &registry {
                    for d in 0..DAEMONS {
                        reg.join(&format!("d{d}"));
                    }
                }
                let stacks: Vec<ReadStack> = (0..DAEMONS)
                    .map(|d| {
                        let mut spec =
                            StackSpec::over(Arc::new(FnSource::new(move |_k: &BlockKey| {
                                spin_for(std::time::Duration::from_micros(150));
                                Ok(vec![0u8; block_bytes])
                            })));
                        if let Some(reg) = &registry {
                            spec = spec.in_fleet(reg.clone(), PeerConfig::default());
                        }
                        ReadStack::build(&format!("d{d}"), &index, &config, spec).unwrap()
                    })
                    .collect();
                std::thread::scope(|scope| {
                    for stack in &stacks {
                        let keys = &keys;
                        scope.spawn(move || {
                            for key in keys {
                                black_box(stack.source.read_block(key).unwrap());
                            }
                        });
                    }
                });
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_policies,
    bench_hit_path,
    bench_contention,
    bench_peer_mode
);
criterion_main!(benches);

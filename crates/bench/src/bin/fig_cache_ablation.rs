//! EXP-CACHE: shard-cache eviction ablation (the plan-driven cache vs a
//! textbook-LRU model of the same capacity) on a Zipf-skewed multi-epoch
//! replay, priced with the NFS cost model at 10 ms RTT — followed by
//! EXP-CONTEND, the multi-daemon shared-storage contention scenario (N
//! daemons, one NFS mount, per-daemon caches), and EXP-FLEET, the same contention scenario with
//! the daemons cooperating through one `FleetRegistry` (consistent-hash
//! block ownership, peer-to-peer block serving). Pass `--smoke` for the
//! CI-sized variants.

use emlio_bench::cache_ablation::{run, to_rows, AblationConfig};
use emlio_bench::contention::{self, ContentionConfig};
use emlio_energymon::savings::DEFAULT_STORAGE_IO_WATTS;
use emlio_util::bytesize::format_bytes;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cfg = if smoke {
        AblationConfig::smoke()
    } else {
        AblationConfig::full()
    };
    println!(
        "cache ablation: {} × {} KiB blocks, {} epochs × {} accesses, {:.0}% cache, zipf s={}",
        cfg.blocks,
        cfg.block_bytes >> 10,
        cfg.epochs,
        cfg.accesses_per_epoch,
        cfg.cache_fraction * 100.0,
        cfg.zipf_exponent,
    );
    let outcomes = run(&cfg);
    emlio_bench::emit(
        "fig_cache_ablation",
        "EXP-CACHE: plan-driven vs reactive eviction, modeled NFS latency + energy (10 ms RTT)",
        &to_rows(&outcomes),
    );
    for o in &outcomes {
        println!(
            "  {:<12} {:>6} hits / {:>6} misses ({:>5.1}% hit rate) → modeled {:>8.2}s, {:>9.1} J; avoided {:>8.2}s, {:>9.1} J",
            o.policy,
            o.hits,
            o.misses,
            o.hit_rate * 100.0,
            o.modeled_secs,
            o.modeled_joules,
            o.saved.avoided_secs,
            o.saved.avoided_joules,
        );
    }
    println!("  (storage node modeled at {DEFAULT_STORAGE_IO_WATTS} W active I/O draw)");

    // EXP-CONTEND: real daemons over one shared emulated NFS mount.
    let ccfg = if smoke {
        ContentionConfig::smoke()
    } else {
        ContentionConfig {
            daemons: 4,
            epochs: 3,
            samples: 256,
            ..ContentionConfig::smoke()
        }
    };
    println!(
        "\nshared-storage contention: {} daemons × {} epochs over one NFS mount ({} samples)",
        ccfg.daemons, ccfg.epochs, ccfg.samples,
    );
    let out = contention::run(&ccfg);
    assert_eq!(
        out.batches_delivered, out.expected_batches,
        "full delivery under contention"
    );
    for (d, (rate, saved)) in out
        .per_daemon_hit_rate
        .iter()
        .zip(&out.per_daemon_bytes_saved)
        .enumerate()
    {
        println!(
            "  daemon {d}: {:>5.1}% hit rate, {} not re-read",
            rate * 100.0,
            format_bytes(*saved),
        );
    }
    println!(
        "  shared link carried {} in {} reads; caches saved {} in aggregate",
        format_bytes(out.nfs_bytes_read),
        out.nfs_reads,
        format_bytes(out.aggregate_bytes_saved),
    );

    // EXP-FLEET: the 4-daemon cooperative variant — one registry, peer
    // layer in every read stack. The shared link must carry the dataset
    // once in total, not once per daemon.
    let fcfg = if smoke {
        ContentionConfig::smoke_fleet()
    } else {
        ContentionConfig {
            epochs: 3,
            samples: 256,
            ..ContentionConfig::smoke_fleet()
        }
    };
    println!(
        "\ncooperative fleet: {} daemons × {} epochs sharing one registry ({} samples)",
        fcfg.daemons, fcfg.epochs, fcfg.samples,
    );
    let fleet = contention::run(&fcfg);
    assert_eq!(
        fleet.batches_delivered, fleet.expected_batches,
        "full delivery in fleet mode"
    );
    assert_eq!(
        fleet.nfs_bytes_read, fleet.dataset_bytes,
        "fleet reads the dataset from storage exactly once, in aggregate"
    );
    println!(
        "  shared link carried {} (= dataset, vs {} solo); {} storage reads for {} unique blocks",
        format_bytes(fleet.nfs_bytes_read),
        format_bytes(fcfg.daemons as u64 * fleet.dataset_bytes),
        fleet.per_daemon_storage_reads.iter().sum::<u64>(),
        fleet.unique_blocks,
    );
    println!(
        "  peers: {} hits / {} misses / {} fallbacks, {} served peer-to-peer",
        fleet.peer_hits,
        fleet.peer_misses,
        fleet.peer_fallbacks,
        format_bytes(fleet.peer_bytes),
    );
    println!(
        "  fleet avoided {:.2}s and {:.1} J of storage I/O (modeled at {DEFAULT_STORAGE_IO_WATTS} W)",
        fleet.fleet_savings.avoided_secs, fleet.fleet_savings.avoided_joules,
    );
}

//! Shared-storage contention: N daemons, each stacked as
//! `cached -> metered -> nfs`, all reading through ONE emulated NFS mount
//! (one wire, one `link_free`). The per-daemon caches must keep the
//! shared link's traffic at exactly one pass over the dataset per daemon
//! no matter how many epochs stream, and the aggregate bytes-saved must
//! account for every absorbed re-read. With one shared `FleetRegistry`
//! the link carries the dataset once in total, and delivery stays
//! byte-identical to the solo run. This is the one home of the
//! `emlio_bench::contention` harness's assertions.

use emlio_bench::contention::{run, ContentionConfig};

#[test]
fn per_daemon_caches_absorb_repeat_epochs_on_a_shared_mount() {
    let cfg = ContentionConfig {
        daemons: 3,
        epochs: 3,
        samples: 60,
        ..ContentionConfig::smoke()
    };
    let out = run(&cfg);

    // Nothing was dropped under contention.
    assert_eq!(out.batches_delivered, out.expected_batches, "{out:?}");

    // The shared link carried each unique block exactly once per daemon
    // (single-flight per cache), not once per epoch per daemon.
    assert_eq!(
        out.nfs_bytes_read,
        cfg.daemons as u64 * out.dataset_bytes,
        "shared-storage traffic bounded by unique bytes × daemons: {out:?}"
    );

    // Per-daemon hit rates: all repeat epochs hit, so at least (E-1)/E.
    let floor = (cfg.epochs as f64 - 1.0) / cfg.epochs as f64;
    for (d, rate) in out.per_daemon_hit_rate.iter().enumerate() {
        assert!(
            *rate >= floor - 1e-9,
            "daemon {d} hit rate {rate:.3} below {floor:.3}: {out:?}"
        );
    }

    // Aggregate bytes-saved: every daemon avoided re-reading the dataset
    // (epochs - 1) times; prefetch wins in epoch 1 can only add, up to
    // one more full pass.
    let per_daemon_pass = out.dataset_bytes;
    let floor_bytes = cfg.daemons as u64 * (cfg.epochs as u64 - 1) * per_daemon_pass;
    let ceil_bytes = cfg.daemons as u64 * cfg.epochs as u64 * per_daemon_pass;
    assert!(
        out.aggregate_bytes_saved >= floor_bytes && out.aggregate_bytes_saved <= ceil_bytes,
        "aggregate savings outside [{floor_bytes}, {ceil_bytes}]: {out:?}"
    );
    // Solo daemons have no peer tier at all.
    assert_eq!(
        (out.peer_hits, out.peer_misses, out.peer_fallbacks),
        (0, 0, 0),
        "{out:?}"
    );
}

#[test]
fn cooperative_fleet_collapses_shared_link_to_one_dataset_pass() {
    // Same harness, fleet mode: the daemons share one `FleetRegistry`, so
    // each block's owner reads it from storage once and every other daemon
    // takes it peer-to-peer. Exact counts in both modes — solo pays the
    // link once per daemon, the fleet once in total, even across repeat
    // epochs (local caches absorb those before the peer tier is asked).
    let fleet_cfg = ContentionConfig {
        epochs: 3,
        ..ContentionConfig::smoke_fleet()
    };
    let fleet = run(&fleet_cfg);
    assert_eq!(fleet.batches_delivered, fleet.expected_batches, "{fleet:?}");
    assert_eq!(
        fleet.nfs_bytes_read, fleet.dataset_bytes,
        "fleet shared-link traffic is exactly one dataset pass: {fleet:?}"
    );
    assert_eq!(
        fleet.per_daemon_storage_reads.iter().sum::<u64>(),
        fleet.unique_blocks,
        "{fleet:?}"
    );
    assert_eq!(fleet.peer_fallbacks, 0, "healthy fleet never degrades");
    assert!(fleet.peer_hits > 0, "peers served traffic: {fleet:?}");
    // Every peer hit is priced as one storage read avoided.
    assert_eq!(fleet.fleet_savings.avoided_reads, fleet.peer_hits);
    assert!(
        fleet.peer_bytes > 0
            && fleet.fleet_savings.avoided_bytes > 0
            && fleet.fleet_savings.avoided_joules > 0.0,
        "peer traffic is priced as avoided storage I/O: {fleet:?}"
    );

    let solo_cfg = ContentionConfig {
        peer_fleet: false,
        ..fleet_cfg
    };
    let solo = run(&solo_cfg);
    assert_eq!(
        solo.nfs_bytes_read,
        solo_cfg.daemons as u64 * solo.dataset_bytes,
        "solo shared-link traffic is exactly one pass per daemon: {solo:?}"
    );
    assert!(fleet.nfs_bytes_read < solo.nfs_bytes_read);
    // Identical payloads either way — the fleet changes who carries the
    // bytes, never the bytes.
    assert_eq!(fleet.batches_delivered, solo.batches_delivered);
    assert_eq!(fleet.payload_digest, solo.payload_digest);
}

#[test]
fn two_daemon_mount_run_wastes_no_read() {
    // The prefetch executor reserves a block's RAM before it reads it, so
    // no read it issues can be declined on arrival and repeated on the
    // demand path: every READ the mount served is one the daemons needed,
    // exactly as many as a run with no prefetcher at all would issue —
    // one per block per daemon solo, one per block in a fleet (each block
    // here is a single `rsize` chunk).
    for peer_fleet in [false, true] {
        let cfg = ContentionConfig {
            daemons: 2,
            epochs: 3,
            samples: 64,
            peer_fleet,
        };
        let out = run(&cfg);
        assert_eq!(out.batches_delivered, out.expected_batches, "{out:?}");
        assert!(out.prefetched > 0, "the prefetcher ran: {out:?}");
        assert_eq!(out.prefetch_wasted, 0, "{out:?}");
        let readers = if peer_fleet { 1 } else { cfg.daemons as u64 };
        assert_eq!(out.nfs_reads, readers * out.unique_blocks, "{out:?}");
        assert_eq!(out.nfs_bytes_read, readers * out.dataset_bytes, "{out:?}");
    }
}

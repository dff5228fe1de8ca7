//! Cross-validation of the models against real small-scale runs over
//! actual sockets and the emulated NFS mount.
//!
//! * The loader models must agree *directionally*: absolute
//!   times differ (miniature datasets, dev-profile CPUs); what must match
//!   is the mechanism — EMLIO's epoch time is flat in RTT while per-file
//!   loaders degrade linearly.
//! * The storage-bound fleet has a stated error bound: its steady-state
//!   delivery is within [`FLEET_TOLERANCE`] of the window model
//!   `min(link, ⌊ram/block⌋ · block / read cost)`.

use emlio::baselines::{FileLoader, FileLoaderConfig};
use emlio::bench::contention::shared_mount_storage;
use emlio::cache::peer::PeerConfig;
use emlio::cache::{BlockKey, CacheConfig};
use emlio::core::service::StorageSpec;
use emlio::core::{EmlioConfig, EmlioService};
use emlio::datagen::convert::{build_file_dataset, build_tfrecord_dataset, load_file_dataset};
use emlio::datagen::DatasetSpec;
use emlio::netem::{NetProfile, NfsConfig, NfsMount, Proxy};
use emlio::pipeline::ExternalSource;
use emlio::testbed::loaders::{self, LoaderKind, ModelConstants, StageSet};
use emlio::testbed::{NodeSpec, Regime, Workload};
use emlio::util::clock::RealClock;
use emlio::util::testutil::TempDir;
use emlio::zmq::Endpoint;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SAMPLES: u64 = 48;

/// How far the real fleet's steady-state rate may sit from the window
/// model, as a share of the model. An idle 2-core box reads 0.95–0.97 of
/// the model (thread wake-ups and the consumer's own time per batch are
/// what the model leaves out); the rest is headroom for a loaded one.
const FLEET_TOLERANCE: f64 = 0.15;

fn real_pytorch_secs(dir: &std::path::Path, rtt_ms: u64) -> f64 {
    let mount = NfsMount::mount(
        dir,
        NetProfile::new("t", Duration::from_millis(rtt_ms), 1.25e9),
        RealClock::shared(),
        NfsConfig::default(),
    );
    let samples = load_file_dataset(dir).unwrap();
    let mut loader = FileLoader::new(
        mount,
        samples,
        FileLoaderConfig {
            batch_size: 8,
            readers: 2,
            ..FileLoaderConfig::pytorch()
        },
    );
    let t0 = std::time::Instant::now();
    let mut n = 0;
    while let Some(b) = loader.next_batch() {
        n += b.samples.len() as u64;
    }
    assert_eq!(n, SAMPLES);
    t0.elapsed().as_secs_f64()
}

fn real_emlio_secs(tf_dir: &std::path::Path, rtt_ms: u64) -> f64 {
    let config = EmlioConfig::default().with_batch_size(8).with_threads(2);
    let storage = vec![StorageSpec::new("s", tf_dir)];
    let profile = NetProfile::new("t", Duration::from_millis(rtt_ms), 1.25e9);
    let mut dep = EmlioService::launch_with(&storage, &config, "c", |ep| {
        let Endpoint::Tcp(addr) = ep else {
            panic!("tcp")
        };
        let proxy =
            Proxy::spawn("127.0.0.1:0", addr, profile.clone(), RealClock::shared()).unwrap();
        let ep = Endpoint::Tcp(proxy.local_addr().to_string());
        (ep, Box::new(proxy) as Box<dyn std::any::Any + Send>)
    })
    .unwrap();
    let t0 = std::time::Instant::now();
    let mut src = dep.receiver.source();
    let mut n = 0;
    while let Some(b) = src.next_batch() {
        n += b.samples.len() as u64;
    }
    assert_eq!(n, SAMPLES);
    dep.join_daemons().unwrap();
    t0.elapsed().as_secs_f64()
}

#[test]
fn real_runtime_matches_des_direction() {
    let dir = TempDir::new("des-vs-real");
    let spec = DatasetSpec::tiny("dvr", SAMPLES);
    let tf_dir = dir.path().join("tf");
    let file_dir = dir.path().join("files");
    build_tfrecord_dataset(&tf_dir, &spec, emlio::tfrecord::ShardSpec::Count(2)).unwrap();
    build_file_dataset(&file_dir, &spec).unwrap();

    // --- real runtime --------------------------------------------------
    let py_low = real_pytorch_secs(&file_dir, 0);
    let py_high = real_pytorch_secs(&file_dir, 10);
    let em_low = real_emlio_secs(&tf_dir, 0);
    let em_high = real_emlio_secs(&tf_dir, 10);

    // PyTorch degrades with RTT; EMLIO's absolute penalty is far smaller.
    assert!(
        py_high > py_low + 0.5,
        "pytorch must feel 10 ms RTT: {py_low:.3}s → {py_high:.3}s"
    );
    let py_penalty = py_high - py_low;
    let em_penalty = (em_high - em_low).max(0.0);
    assert!(
        em_penalty < py_penalty * 0.35,
        "EMLIO penalty {em_penalty:.3}s should be ≪ pytorch penalty {py_penalty:.3}s"
    );

    // --- DES -------------------------------------------------------------
    let des = |kind: LoaderKind, rtt_ms: f64| {
        let regime = if rtt_ms == 0.0 {
            Regime::local()
        } else {
            Regime::remote_ms(rtt_ms)
        };
        loaders::build(
            kind,
            &Workload::imagenet_resnet50(),
            &regime,
            StageSet::Full,
            &ModelConstants::default(),
            &NodeSpec::uc_storage(),
            loaders::ScenarioTuning::default(),
        )
        .makespan_secs()
    };
    let des_py_penalty = des(LoaderKind::Pytorch, 10.0) - des(LoaderKind::Pytorch, 0.0);
    let des_em_penalty = des(LoaderKind::Emlio { concurrency: 2 }, 10.0)
        - des(LoaderKind::Emlio { concurrency: 2 }, 0.0);
    assert!(des_py_penalty > 0.0);
    assert!(
        des_em_penalty.abs() < des_py_penalty * 0.05,
        "DES agrees: EMLIO flat ({des_em_penalty:.1}s) vs pytorch (+{des_py_penalty:.1}s)"
    );
}

#[test]
fn real_fleet_rate_is_within_a_stated_bound_of_the_window_model() {
    const BATCH: usize = 8;
    const SLOTS: u64 = 6;
    let dir = TempDir::new("des-vs-real-fleet");
    let spec = DatasetSpec::tiny("dvr-fleet", 1024);
    let index = Arc::new(
        build_tfrecord_dataset(dir.path(), &spec, emlio::tfrecord::ShardSpec::Count(2)).unwrap(),
    );
    let block = index
        .block_len(&BlockKey {
            shard_id: 0,
            start: 0,
            end: BATCH,
        })
        .unwrap();
    // Storage-latency-bound: 20 ms a read, a link that could carry
    // thousands of these blocks a second, a RAM tier of six and a half.
    let profile = NetProfile::new("t", Duration::from_millis(20), 1.25e9);
    let mount = NfsMount::mount(
        dir.path(),
        profile.clone(),
        RealClock::shared(),
        NfsConfig::default(),
    );
    let config = EmlioConfig::default()
        .with_batch_size(BATCH)
        .with_threads(1)
        .with_cache(CacheConfig::default().with_ram_bytes(SLOTS * block + block / 2));
    let storage = shared_mount_storage(&index, &mount, 2, "d", Some(PeerConfig::default()));
    let mut dep = EmlioService::launch(&storage, &config, "c").unwrap();
    let mut src = dep.receiver.source();
    let mut arrivals = Vec::new();
    while src.next_batch().is_some() {
        arrivals.push(Instant::now());
    }
    dep.join_daemons().unwrap();
    assert_eq!(arrivals.len() as u64, dep.total_batches());

    // Steady state: from the arrival that ends the start-up windows to the
    // last one.
    let skip = 4 * SLOTS as usize;
    let window = *arrivals.last().unwrap() - arrivals[skip];
    let real = (arrivals.len() - 1 - skip) as f64 / window.as_secs_f64();

    // The model. A positioned read on an open handle pays its READ waves
    // and its bytes, no OPEN or CLOSE; the executor keeps one read out
    // per block the RAM tier holds; the fleet reads each block once and
    // both daemons deliver it.
    let open_handle = NfsConfig {
        open_rtts: 0.0,
        close_rtts: 0.0,
        ..NfsConfig::default()
    };
    let read_cost = open_handle.read_cost(block, &profile).as_secs_f64();
    let link = profile.bandwidth_bps / block as f64;
    let model = 2.0 * link.min(SLOTS as f64 / read_cost);
    assert!(
        (real / model - 1.0).abs() <= FLEET_TOLERANCE,
        "real {real:.0} batches/s vs model {model:.0} (block {block} B, read {read_cost:.4} s)"
    );
}

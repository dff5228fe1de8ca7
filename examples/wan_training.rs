//! WAN emulation shoot-out (real runtime, miniature scale).
//!
//! Reproduces the *mechanism* behind Figure 5 with real sockets and real
//! bytes: the same dataset is served three ways under an emulated RTT —
//!
//! * PyTorch-style DataLoader: per-sample file reads over the NFS cost
//!   model (RTTs multiply), `FileLoaderConfig::pytorch`;
//! * DALI-style loader: the same per-file loader with a deeper reader pool
//!   over the same mount, `FileLoaderConfig::dali`;
//! * EMLIO: storage daemon → netem-shaped TCP proxy → receiver, pre-batched
//!   msgpack with HWM backpressure.
//!
//! Run with: `cargo run --release --example wan_training`

use emlio::baselines::{run_epoch_through, FileLoader, FileLoaderConfig};
use emlio::core::service::StorageSpec;
use emlio::core::{EmlioConfig, EmlioService};
use emlio::datagen::convert::{build_file_dataset, build_tfrecord_dataset, load_file_dataset};
use emlio::datagen::DatasetSpec;
use emlio::netem::{NetProfile, NfsConfig, NfsMount, Proxy};
use emlio::pipeline::PipelineBuilder;
use emlio::tfrecord::ShardSpec;
use emlio::util::clock::RealClock;
use emlio::zmq::Endpoint;
use std::time::Duration;

const SAMPLES: u64 = 96;
const BATCH: usize = 8;

fn main() {
    let dir = std::env::temp_dir().join(format!("emlio-wan-{}", std::process::id()));
    let spec = DatasetSpec::tiny("wan", SAMPLES);
    let tf_dir = dir.join("tfrecord");
    let file_dir = dir.join("files");
    build_tfrecord_dataset(&tf_dir, &spec, ShardSpec::Count(2)).unwrap();
    build_file_dataset(&file_dir, &spec).unwrap();

    println!(
        "{:<10} {:>9} {:>9} {:>9}   (miniature: {} samples × {}, real sockets)",
        "RTT",
        "pytorch",
        "dali",
        "emlio",
        SAMPLES,
        emlio::util::bytesize::format_bytes(spec.sample_bytes),
    );
    for rtt_ms in [0u64, 5, 20] {
        let profile = NetProfile::new(
            &format!("{rtt_ms}ms"),
            Duration::from_millis(rtt_ms),
            1.25e9,
        );
        let t_py = run_files(&file_dir, profile.clone(), FileLoaderConfig::pytorch());
        let t_dali = run_files(&file_dir, profile.clone(), FileLoaderConfig::dali());
        let t_emlio = run_emlio(&tf_dir, profile.clone());
        println!(
            "{:<10} {:>8.2}s {:>8.2}s {:>8.2}s   (pytorch/emlio = {:.1}x)",
            format!("{rtt_ms}ms"),
            t_py,
            t_dali,
            t_emlio,
            t_py / t_emlio,
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One epoch of the per-file loader under `preset`, through the pipeline.
fn run_files(file_dir: &std::path::Path, profile: NetProfile, preset: FileLoaderConfig) -> f64 {
    let mount = NfsMount::mount(file_dir, profile, RealClock::shared(), NfsConfig::default());
    let samples = load_file_dataset(file_dir).unwrap();
    let loader = FileLoader::new(
        mount,
        samples,
        FileLoaderConfig {
            batch_size: BATCH,
            ..preset
        },
    );
    let r = run_epoch_through(
        Box::new(loader),
        PipelineBuilder::new().threads(2).resize(32, 32),
        Duration::ZERO,
    );
    assert_eq!(r.samples, SAMPLES);
    r.duration.as_secs_f64()
}

fn run_emlio(tf_dir: &std::path::Path, profile: NetProfile) -> f64 {
    let config = EmlioConfig::default()
        .with_batch_size(BATCH)
        .with_threads(2)
        .with_epochs(1);
    let storage = vec![StorageSpec::new("storage", tf_dir)];
    // Bind the receiver first, then interpose the shaping proxy.
    let mut dep = EmlioService::launch_with(&storage, &config, "compute", |receiver_ep| {
        let Endpoint::Tcp(addr) = receiver_ep else {
            panic!("tcp expected")
        };
        let proxy = Proxy::spawn("127.0.0.1:0", addr, profile.clone(), RealClock::shared())
            .expect("spawn netem proxy");
        let ep = Endpoint::Tcp(proxy.local_addr().to_string());
        (ep, Box::new(proxy))
    })
    .unwrap();
    let t0 = std::time::Instant::now();
    let pipe = PipelineBuilder::new()
        .threads(2)
        .resize(32, 32)
        .build(Box::new(dep.receiver.source()));
    let mut n = 0;
    while let Some(b) = pipe.next_batch() {
        n += b.tensors.len() as u64;
    }
    assert_eq!(n, SAMPLES);
    pipe.join();
    dep.join_daemons().unwrap();
    t0.elapsed().as_secs_f64()
}
